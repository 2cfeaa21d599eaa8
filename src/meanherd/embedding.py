"""Signed kernel mean embeddings evaluated purely through kernel sums.

A mean embedding is a formal combination sum_i c_i phi(x_i), held as
arrays: (m, d) points and (m,) signed coefficients.  Norms reduce to
quadratic forms in the kernel matrix, so nothing ever materializes
feature vectors.  ``squared_norm`` evaluates ||omega||^2 of a support: it
collapses equal points by exact equality before the quadratic form, with
the same merge (``data._merge``) that builds exact mixtures, which is what
lets identities like "noisy mean = (1 - 2 sigma) clean mean" come out at
the 1e-12 level instead of sqrt(eps).  Every norm ``classifier`` reports
is its square root; the one other squared norm is a herd target's, taken
unmerged from the target pass (see ``herding``).  ``psd`` is the one check
of a squared norm: it raises below -1e-12 max(1, s), with s = (sum_i
|coef_i| sqrt(K(x_i, x_i)))^2 over the merged points bounding the terms
(Cauchy-Schwarz), and clamps rounding to 0.
"""

from __future__ import annotations

import numpy as np

from .data import _merge
from .errors import ConsistencyError
from .kernels import KernelSpec, _as_matrix, diagonal, self_sums


def squared_norm(spec: KernelSpec, X, coef) -> float:
    """||sum_i coef_i phi(X[i])||^2, equal points merged first, checked by ``psd``."""
    X = _as_matrix(X)
    rows, _, coef = _merge(X, coef)
    X = X[rows]
    scale = float(np.abs(coef) @ np.sqrt(diagonal(spec, X))) ** 2
    return psd(float(coef @ self_sums(spec, X, coef)), scale)


def psd(sq: float, scale: float = 1.0) -> float:
    """A squared norm with negative rounding (>= -1e-12 max(1, scale)) clamped to zero."""
    floor = -1e-12 * max(1.0, scale)
    if sq < floor:
        raise ConsistencyError(f"squared norm {sq} below {floor:.3g}; kernel is not PSD")
    return max(sq, 0.0)
