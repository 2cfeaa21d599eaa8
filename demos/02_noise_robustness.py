"""Label noise and the mean classifier, at the population level.

Everything here runs on exact finite-support distributions, so the
identities print at machine precision rather than statistically:

- symmetric noise only shrinks the mean embedding: omega_noisy =
  (1 - 2 sigma) omega_clean, so the induced labels never change
- a loss is noise-robust iff l(1, v) + l(-1, v) is constant; the
  corrected loss makes any loss unbiased under known noise
- the three-point construction where hinge minimization collapses to
  coin flipping under noise while the mean stays exact

Run: python3 demos/02_noise_robustness.py
"""

import numpy as np

from meanherd import (
    KernelSpec,
    correct_sln,
    flip_symmetric,
    hinge_loss,
    linear_loss,
    sln_robustness_check,
    zero_one_loss,
)
from meanherd import embedding as emb
from meanherd.data import DiscreteDistribution
from meanherd.lab import run_long_servedio

# Atom i is (instances[i], labels[i]) with mass probabilities[i].
P = DiscreteDistribution(
    instances=np.array([[0.3, -1.2], [2.0, 0.5], [-0.7, 0.9]]),
    labels=np.array([1, -1, 1]),
    probabilities=np.array([0.2, 0.5, 0.3]),
)
kernel = KernelSpec("gaussian", bandwidth=1.0)

print("symmetric-noise scaling of the mean embedding:")
for sigma in (0.1, 0.25, 0.4):
    gap = emb.distance(kernel, flip_symmetric(P, sigma), P, 1.0 - 2.0 * sigma)
    print(f"  sigma={sigma}: ||omega_noisy - (1-2s) omega_clean|| = {gap:.2e}")

print("\nrobustness verdicts (sum-constancy of l(1,v) + l(-1,v)):")
for loss in (linear_loss, zero_one_loss, hinge_loss):
    v = sln_robustness_check(loss)
    tail = f" with constant C = {v.constant}" if v.is_robust else ""
    print(f"  {loss.name}: {v.verdict}{tail}")

print("\ncorrected hinge is unbiased under sigma = 0.3 noise:")
corrected = correct_sln(hinge_loss, 0.3)
v, y, sigma = 0.7, 1, 0.3
clean = float(hinge_loss(y, v))
noisy = (1 - sigma) * float(corrected(y, v)) + sigma * float(corrected(-y, v))
print(f"  E_clean[hinge] = {clean:.12f},  E_noisy[corrected] = {noisy:.12f}")

print("\nthree-point construction (gamma = 1/24):")
report = run_long_servedio(1.0 / 24.0)
print(f"  mean classifier correct at every noise level: {report.assertions[1].passed}")
print(f"  noise levels where hinge hits 0.5 zero-one risk: {report.extras['failing_sigmas']}")
