"""Compressing a training set by kernel herding.

Herding runs Frank-Wolfe on ||omega_S - omega_tilde||^2 over the convex
hull of the label-weighted feature vectors, entirely through kernel
sums.  The sparse herd then scores within the herd error of the full
mean everywhere (Cauchy-Schwarz), so test accuracy barely moves.

Run: python3 demos/03_herding_compression.py
"""

import numpy as np

from meanherd import (
    HerdingConfig,
    KernelSpec,
    convergence_report,
    fit,
    herd,
    parallel_herd,
    recursive_herd,
    synth_blobs,
)

train = synth_blobs(n=2000, d=2, separation=4.0, seed=0)
test = synth_blobs(n=1000, d=2, separation=4.0, seed=1)
kernel = KernelSpec("gaussian", bandwidth=1.0)

full = fit(train, kernel)
base = np.mean(test.labels * full.scores(test.instances) > 0)
print(f"full mean classifier: {len(train)} points, test accuracy {base:.4f}")

h = herd(train, kernel, HerdingConfig(tolerance=0.01, max_iterations=20000))
sparse = h.classifier
acc = np.mean(test.labels * sparse.scores(test.instances) > 0)
print(f"herded to error 0.01: {h.size} points ({100 * h.size / len(train):.1f}%), "
      f"test accuracy {acc:.4f}")
rep = convergence_report(h.trace)
print(f"error trace monotone: {rep.monotone}, fitted log-rate {rep.fitted_rate:.3f}/iter")

err = h.recomputed_error  # exact: from the herding pass and the herd's own kernel block
gap = np.max(np.abs(full.scores(test.instances) - sparse.scores(test.instances)))
print(f"recomputed herd error {err:.6f}; worst score gap on test points {gap:.6f}")

# Mean of means: herd ten groups independently and mix by group mass.
hp = parallel_herd(train, 10, kernel, HerdingConfig(tolerance=0.025, max_iterations=20000))
print(f"\nparallel (10 groups, eps 0.025): {hp.size} points, combined error {hp.error:.6f}")

# Herd the herd: stage errors add by the triangle inequality.
hr = recursive_herd(train, kernel, min_size=50, config=HerdingConfig(tolerance=0.01))
print(f"recursive: {hr.size} points after {len(hr.stages)} stages, error {hr.error:.6f}")
for st in hr.stages:
    print(f"  stage {st.size_before} -> {st.size_after} at error {st.error:.6f}")
