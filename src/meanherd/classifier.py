"""The kernel mean classifier and its closed-form geometry.

Scoring rule: f(x) = sum_i alpha_i y_i K(x_i, x) with alpha_i >= 0
summing to one, a support checked by ``data._support`` as a sample's is.
``fit`` and ``margin_for_error`` read the weights of data by one rule,
``_weighted``: uniform for a sample, the atom probabilities for an exact
distribution; herding (see ``herding.py``) produces sparse weights.  The
mean embedding sum_i alpha_i y_i phi(x_i) is the pair (``points``,
``coef``), and every norm here (``meta.norm``, ``mean_norm``, ``mmd``) is
``embedding.squared_norm`` of such a pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import embedding as emb
from .data import DiscreteDistribution, LabeledSample, _json_floats, _json_labels, _support, as_labels
from .errors import InputError
from .kernels import KernelSpec, _checked, diagonal, kernel_sums


@dataclass(frozen=True)
class MeanClassifier:
    kernel: KernelSpec
    alphas: np.ndarray   # (m,) non-negative, sums to 1
    labels: np.ndarray   # (m,) in {-1, +1}
    points: np.ndarray   # (m, d)

    def __post_init__(self):
        y = as_labels(self.labels)
        X, a = _support(self.points, y, self.alphas)
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "points", X)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_support(self) -> int:
        return self.points.shape[0]

    @property
    def coef(self) -> np.ndarray:
        """The signed weights alpha_i y_i of the mean embedding sum_i alpha_i y_i phi(x_i)."""
        return self.alphas * self.labels

    def scores(self, X) -> np.ndarray:
        return kernel_sums(self.kernel, X, self.points, self.coef)

    def predict(self, X) -> np.ndarray:
        """Signs of the scores; exact zero is reported as 0 (abstain)."""
        return np.sign(self.scores(X)).astype(int)

    def to_dict(self, n_source: int | None = None) -> dict:
        return self._document(n_source, emb.squared_norm(self.kernel, self.points, self.coef))

    def _document(self, n_source: int | None, squared_norm: float) -> dict:
        """The model document, given ||omega||^2 as ``emb.squared_norm`` returns it.

        ``min_linear_loss`` = 1 - ||omega|| holds only when |K| <= 1 on the
        support, which max_i K(x_i, x_i) <= 1 implies (Cauchy-Schwarz); for
        a support where that fails it is null.
        """
        geo = float(np.sqrt(squared_norm))
        unit = float(np.max(diagonal(self.kernel, self.points))) <= 1.0
        return {
            "kernel": self.kernel.to_dict(),
            "support": [{"alpha": a, "y": y, "x": x} for a, y, x in
                        zip(self.alphas.tolist(), self.labels.tolist(), self.points.tolist())],
            "meta": {
                "n_source": int(n_source if n_source is not None else self.n_support),
                "norm": geo,
                "min_linear_loss": 1.0 - geo if unit else None,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MeanClassifier":
        support = d["support"]
        return cls(
            kernel=KernelSpec.from_dict(d["kernel"]),
            alphas=_json_floats([s["alpha"] for s in support]),
            labels=_json_labels([s["y"] for s in support]),
            points=_json_floats([s["x"] for s in support], rows=True),
        )


def _weighted(data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (points, labels, weights) of a sample (uniform) or a distribution (atom masses)."""
    if isinstance(data, LabeledSample):
        return data.instances, data.labels, np.full(len(data), 1.0 / len(data))
    if isinstance(data, DiscreteDistribution):
        return data.instances, data.labels, data.probabilities.copy()
    raise InputError(f"expected LabeledSample or DiscreteDistribution, got {type(data).__name__}")


def fit(data, kernel: KernelSpec) -> MeanClassifier:
    """Mean classifier with uniform weights (sample) or atom weights (population)."""
    X, y, w = _weighted(data)
    return MeanClassifier(kernel=kernel, alphas=w, labels=y, points=X)


@dataclass(frozen=True)
class MeanGeometry:
    """||omega||, its square, and the attainable minimum linear loss 1 - ||omega||."""

    norm: float
    self_similarity: float
    min_linear_loss: float


def mean_norm(data, kernel: KernelSpec) -> MeanGeometry:
    """Exact double kernel sum giving the mean-embedding geometry of the data."""
    clf = fit(data, kernel)
    sq = emb.squared_norm(kernel, clf.points, clf.coef)
    n = float(np.sqrt(sq))
    return MeanGeometry(norm=n, self_similarity=sq, min_linear_loss=1.0 - n)


@dataclass(frozen=True)
class KernelSelection:
    index: int
    min_losses: tuple[float, ...]


def select_kernel(data, kernels) -> KernelSelection:
    """Pick the feature space minimizing 1 - ||omega||; ties go to the lowest index.

    1 - ||omega|| is an attainable loss only where |K| <= 1, as in the model
    document's ``min_linear_loss``: a menu kernel with K(x, x) > 1 at a data
    point is an InputError naming its menu index.
    """
    kernels = list(kernels)
    if not kernels:
        raise InputError("kernel menu must be non-empty")
    X = _weighted(data)[0]
    for i, k in enumerate(kernels):
        k_max = float(np.max(diagonal(k, X)))
        if k_max > 1.0:
            raise InputError(f"menu kernel {i} ({k.to_dict()}) is unbounded on the data "
                             f"(max K(x, x) = {k_max:.6g}): 1 - ||omega|| is no attainable loss")
    losses = tuple(mean_norm(data, k).min_linear_loss for k in kernels)
    return KernelSelection(index=int(np.argmin(losses)), min_losses=losses)


def mmd(X_pos, X_neg, kernel: KernelSpec) -> float:
    """Maximum mean discrepancy 0.5 ||mean embedding difference|| of two instance sets."""
    X_pos, X_neg = _checked(_support(X_pos)[0], _support(X_neg)[0])
    coef = np.concatenate([np.full(X_pos.shape[0], 1.0 / X_pos.shape[0]),
                           np.full(X_neg.shape[0], -1.0 / X_neg.shape[0])])
    return 0.5 * emb.norm(kernel, np.vstack([X_pos, X_neg]), coef)


# ---------------------------------------------------------------------------
# Margins


def margin_for_error(data, v) -> float:
    """Largest gamma at which margin loss equals misclassification loss.

    On finite supports this is the smallest strictly positive margin
    y f(x) over atoms with positive weight, or 0 when none is positive:
    the risk under ``losses.margin_loss(gamma)`` counts {y f(x) < gamma},
    which equals the misclassification count exactly for gamma up to that
    minimum.  ``v`` holds the scores at the rows/atoms of the data.
    """
    _, y, w = _weighted(data)
    v = np.asarray(v, dtype=float)
    if v.shape != y.shape:
        raise InputError(f"expected {y.shape[0]} scores, got shape {v.shape}")
    m = y * v
    positive = m[(m > 0) & (w > 0)]
    if positive.size == 0:
        return 0.0
    return float(positive.min())
