"""Signed kernel mean embeddings evaluated purely through kernel sums.

An embedding here is a formal combination sum_i c_i phi(x_i); inner
products and norms reduce to quadratic forms in the kernel matrix, so
nothing ever materializes feature vectors.  ``merged`` collapses
duplicate points by exact equality before any quadratic form, with the
same merge (``data._merge``) that builds exact mixtures, which is what
lets identities like "noisy mean = (1 - 2 sigma) clean mean" come out at
the 1e-12 level instead of sqrt(eps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DiscreteDistribution, _merge
from .errors import ConsistencyError
from .kernels import KernelSpec, self_sums


@dataclass(frozen=True)
class Embedding:
    points: np.ndarray  # (m, d)
    coef: np.ndarray    # (m,) signed coefficients

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "coef", np.asarray(self.coef, dtype=float))

    @classmethod
    def from_distribution(cls, P: DiscreteDistribution) -> "Embedding":
        return cls(P.instances, P.probabilities * P.labels)

    def merged(self) -> "Embedding":
        """Collapse duplicate points (exact equality), summing coefficients."""
        rows, _, coef = _merge(self.points, self.coef)
        return Embedding(self.points[rows], coef)


def combine(*terms: tuple[float, Embedding]) -> Embedding:
    """Linear combination sum_k scale_k * embedding_k."""
    pts = np.vstack([e.points for _, e in terms])
    coef = np.concatenate([s * e.coef for s, e in terms])
    return Embedding(pts, coef)


def squared_norm(spec: KernelSpec, e: Embedding) -> float:
    e = e.merged()
    return float(e.coef @ self_sums(spec, e.points, e.coef))


def psd(sq: float) -> float:
    """A squared norm with tiny negative values (>= -1e-12) clamped to zero."""
    if sq < -1e-12:
        raise ConsistencyError(f"squared norm {sq} below -1e-12; kernel is not PSD")
    return max(sq, 0.0)


def psd_squared_norm(spec: KernelSpec, e: Embedding) -> float:
    """||e||^2 with tiny negative values (>= -1e-12) clamped to zero."""
    return psd(squared_norm(spec, e))


def norm(spec: KernelSpec, e: Embedding) -> float:
    """||e|| with tiny negative squared norms (>= -1e-12) clamped to zero."""
    return float(np.sqrt(psd_squared_norm(spec, e)))
