"""Generalization bound calculators and the command-line front end.

The bounds are closed-form: a high-probability linear-loss bound, its
union over a kernel menu, the mean-embedding estimation rate, and the
generic temperature bound with its optimal temperature.  The same
numbers are reachable from the shell via ``meanherd bounds``.

Run: python3 demos/04_bounds_and_cli.py
"""

import json
import subprocess
import sys

from meanherd import (
    bound_generic_pac_bayes,
    bound_mean_estimation,
    bound_pac_bayes,
    bound_pac_bayes_multi,
    optimal_beta,
)

n, delta = 1000, 0.05
print(f"linear-loss bound gap at n={n}, delta={delta}: "
      f"{bound_pac_bayes(0.0, n, delta):.6f}")
print(f"same with a 10-kernel menu: {bound_pac_bayes_multi(0.0, n, 10, delta):.6f}")
print(f"mean-embedding estimation error at n=100: {bound_mean_estimation(100, delta):.6f}")

kl = 2.0
beta = optimal_beta(kl, n, delta)
print(f"generic bound at optimal temperature beta*={beta:.4f}: "
      f"{bound_generic_pac_bayes(0.0, kl, n, delta):.6f}")

print("\nthe same via the CLI:")
CLI = [sys.executable, "-m", "meanherd.cli"]  # works without an installed script
out = subprocess.run(
    [*CLI, "bounds", "--kind", "pac-bayes", "--n", "1000", "--delta", "0.05"],
    capture_output=True, text=True, check=True,
)
doc = json.loads(out.stdout)
print(f"  meanherd bounds --kind pac-bayes --n 1000 --delta 0.05 -> {doc['bound']:.6f}")

out = subprocess.run(
    [*CLI, "check", "--suite", "surrogate-regret"],
    capture_output=True, text=True,
)
doc = json.loads(out.stdout)
print(f"  meanherd check --suite surrogate-regret -> passed={doc['passed']} "
      f"(exit code {out.returncode})")
