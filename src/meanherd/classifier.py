"""The kernel mean classifier and its closed-form geometry.

Scoring rule: f(x) = sum_i alpha_i y_i K(x_i, x) with alpha_i >= 0
summing to one.  ``fit`` produces uniform weights from a sample or
probability weights from an exact finite-support distribution; herding
(see ``herding.py``) produces sparse weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import embedding as emb
from .data import DiscreteDistribution, LabeledSample, as_labels
from .errors import DataError, InputError
from .kernels import KernelSpec, kernel_sums
from .losses import score_values


@dataclass(frozen=True)
class MeanClassifier:
    kernel: KernelSpec
    alphas: np.ndarray   # (m,) non-negative, sums to 1
    labels: np.ndarray   # (m,) in {-1, +1}
    points: np.ndarray   # (m, d)

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        y = as_labels(self.labels)
        X = np.asarray(self.points, dtype=float)
        if a.shape[0] != y.shape[0] or a.shape[0] != X.shape[0]:
            raise InputError("alphas, labels and points must have equal length")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(X))):
            raise DataError("weights and points must be finite")
        if np.any(a < 0) or abs(a.sum() - 1.0) > 1e-12:
            raise InputError("weights must be non-negative and sum to 1")
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "points", X)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_support(self) -> int:
        return self.points.shape[0]

    def embedding(self) -> emb.Embedding:
        return emb.Embedding(self.points, self.alphas * self.labels)

    def scores(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[np.newaxis, :]
        if X.shape[1] != self.dim:
            raise InputError(f"dimension mismatch: {X.shape[1]} vs {self.dim}")
        return kernel_sums(self.kernel, X, self.points, self.alphas * self.labels)

    def score(self, x) -> float:
        return float(self.scores(np.asarray(x, dtype=float)[np.newaxis, :])[0])

    def predict(self, X) -> np.ndarray:
        """Signs of the scores; exact zero is reported as 0 (abstain)."""
        return np.sign(self.scores(X)).astype(int)

    def label(self, x) -> int:
        return int(np.sign(self.score(x)))

    def to_dict(self, n_source: int | None = None) -> dict:
        geo = emb.norm(self.kernel, self.embedding())
        return {
            "kernel": self.kernel.to_dict(),
            "support": [
                {"alpha": float(a), "y": int(y), "x": [float(v) for v in x]}
                for a, y, x in zip(self.alphas, self.labels, self.points)
            ],
            "meta": {
                "n_source": int(n_source if n_source is not None else self.n_support),
                "norm": geo,
                "min_linear_loss": 1.0 - geo,
            },
        }

    def to_json(self, n_source: int | None = None) -> str:
        return json.dumps(self.to_dict(n_source), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "MeanClassifier":
        support = d["support"]
        return cls(
            kernel=KernelSpec.from_dict(d["kernel"]),
            alphas=np.array([s["alpha"] for s in support]),
            labels=np.array([s["y"] for s in support]),
            points=np.array([s["x"] for s in support]),
        )

    @classmethod
    def from_json(cls, text: str) -> "MeanClassifier":
        return cls.from_dict(json.loads(text))


def fit(data, kernel: KernelSpec) -> MeanClassifier:
    """Mean classifier with uniform weights (sample) or atom weights (population)."""
    if isinstance(data, LabeledSample):
        n = len(data)
        return MeanClassifier(
            kernel=kernel,
            alphas=np.full(n, 1.0 / n),
            labels=data.labels,
            points=data.instances,
        )
    if isinstance(data, DiscreteDistribution):
        return MeanClassifier(
            kernel=kernel,
            alphas=data.probabilities.copy(),
            labels=data.labels_array(),
            points=data.instances_array(),
        )
    raise InputError(f"cannot fit on {type(data).__name__}")


@dataclass(frozen=True)
class MeanGeometry:
    """||omega||, its square, and the attainable minimum linear loss 1 - ||omega||."""

    norm: float
    self_similarity: float
    min_linear_loss: float


def mean_norm(data, kernel: KernelSpec) -> MeanGeometry:
    """Exact double kernel sum giving the mean-embedding geometry of the data."""
    sq = emb.psd_squared_norm(kernel, fit(data, kernel).embedding())
    n = float(np.sqrt(sq))
    return MeanGeometry(norm=n, self_similarity=sq, min_linear_loss=1.0 - n)


@dataclass(frozen=True)
class KernelSelection:
    index: int
    min_losses: tuple[float, ...]


def select_kernel(data, kernels) -> KernelSelection:
    """Pick the feature space minimizing 1 - ||omega||; ties go to the lowest index."""
    kernels = list(kernels)
    if not kernels:
        raise InputError("kernel menu must be non-empty")
    losses = tuple(mean_norm(data, k).min_linear_loss for k in kernels)
    return KernelSelection(index=int(np.argmin(losses)), min_losses=losses)


def mmd(X_pos, X_neg, kernel: KernelSpec) -> float:
    """Maximum mean discrepancy 0.5 ||mean embedding difference|| of two instance sets."""
    X_pos = np.asarray(X_pos, dtype=float)
    X_neg = np.asarray(X_neg, dtype=float)
    if X_pos.ndim == 1:
        X_pos = X_pos[np.newaxis, :]
    if X_neg.ndim == 1:
        X_neg = X_neg[np.newaxis, :]
    if X_pos.shape[0] == 0 or X_neg.shape[0] == 0:
        raise InputError("both instance sets must be non-empty")
    e_pos = emb.Embedding(X_pos, np.full(X_pos.shape[0], 1.0 / X_pos.shape[0]))
    e_neg = emb.Embedding(X_neg, np.full(X_neg.shape[0], 1.0 / X_neg.shape[0]))
    return 0.5 * emb.norm(kernel, emb.combine((1.0, e_pos), (-1.0, e_neg)))


# ---------------------------------------------------------------------------
# Margins


def margin_for_error(data, f) -> float:
    """Largest gamma at which margin loss equals misclassification loss.

    On finite supports this is the smallest strictly positive margin
    y f(x) over atoms with positive weight, or 0 when none is positive:
    the risk under ``losses.margin_loss(gamma)`` counts {y f(x) < gamma},
    which equals the misclassification count exactly for gamma up to that
    minimum.  ``f`` is a score function or the vector of its values at the
    rows/atoms of the data.
    """
    if isinstance(data, LabeledSample):
        X, y = data.instances, data.labels
        w = np.full(len(data), 1.0 / len(data))
    elif isinstance(data, DiscreteDistribution):
        X, y = data.instances_array(), data.labels_array()
        w = data.probabilities
    else:
        raise InputError(f"expected LabeledSample or DiscreteDistribution, got {type(data).__name__}")
    m = y * score_values(f, X)
    positive = m[(m > 0) & (w > 0)]
    if positive.size == 0:
        return 0.0
    return float(positive.min())
