"""Binary-margin losses, corruption corrections and robustness analysis.

Score convention: a loss maps (y, v) with y in {-1, +1} and v a real
score; y and v may be arrays, broadcast against each other.  A score of
exactly zero is an abstention and is counted as an error by the zero-one
loss (both labels pay 1 at v = 0).

A function on a finite support is its score array: one score per atom,
shape (m,), or one row per function of a class, shape (k, m).  The risks
below take such arrays and return one risk per row, each the one sum
``np.sum(loss * p, axis=-1)`` over C-ordered scores (see ``risk``), and a
balanced error is the mean of two risks, one per class-labelled distribution.

The zero-one loss is the margin loss at gamma = 0, and the symmetric
label-noise correction is the class-conditional one at equal rates.

The robustness analysis below evaluates losses on one fixed score grid,
``GRID`` = 0.01 k for |k| <= 300.  The "sum constancy" checks test
l(1, v) + l(-1, v) = C, or a weighted sum, on it by one rule, ``_constant``.
The abstention convention double-counts the single point v = 0 (both
labels pay 1 there), so constancy scans skip v = 0; every other grid
point is evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import DiscreteDistribution, LabeledSample, _of_class, _rates, as_labels
from .errors import InputError

CONSTANCY_TOL = 1e-9


@dataclass(frozen=True)
class Loss:
    """A named binary-margin loss: ``loss(y, v)`` checks the labels and calls ``fn``."""

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, y, v):
        return self.fn(as_labels(y), np.asarray(v, dtype=float))


def _linear(y, v):
    return 1.0 - y * v


def _hinge(y, v):
    return np.maximum(1.0 - y * v, 0.0)


def _logistic(y, v):
    return np.logaddexp(0.0, -y * v)


def margin_loss(gamma: float) -> Loss:
    """1 when y v < gamma (or v = 0); the zero-one loss at gamma = 0."""
    if not (0.0 <= gamma < np.inf):
        raise InputError(f"margin must be finite and >= 0, got {gamma}")

    def fn(y, v):
        return np.where((y * v < gamma) | (v == 0), 1.0, 0.0)

    return Loss(f"margin:{gamma:g}", fn)


linear_loss = Loss("linear", _linear)
hinge_loss = Loss("hinge", _hinge)
logistic_loss = Loss("logistic", _logistic)
zero_one_loss = Loss("zero-one", margin_loss(0.0).fn)


BUILTIN_LOSSES = {
    "linear": linear_loss,
    "hinge": hinge_loss,
    "logistic": logistic_loss,
    "zero-one": zero_one_loss,
}


# The symmetric score grid standing in for "for all v in R".  It extends
# beyond |v| = 1 so hinge's non-constant tail is visible, and 0.01 * (-k)
# negates exactly, so it is symmetric bit for bit.
GRID = 0.01 * np.arange(-300, 301)

# The constancy scans' grid: the abstention point v = 0 is skipped.
_CONSTANCY_GRID = GRID[GRID != 0.0]


# ---------------------------------------------------------------------------
# Risks


def _scores(v, m: int) -> np.ndarray:
    """Scores at m atoms, C-ordered: shape (m,) for one function or (k, m) for k."""
    v = np.asarray(v, dtype=float, order="C")
    if v.ndim not in (1, 2) or v.shape[-1] != m:
        raise InputError(f"expected scores of shape ({m},) or (k, {m}), got {v.shape}")
    return v


def _one_or_many(r: np.ndarray):
    """A float for one function's scores, k values for a (k, m) table."""
    return float(r) if r.ndim == 0 else r


def risk(loss: Loss, P: DiscreteDistribution, V):
    """Exact expectation of loss(y, v) over the finite support of P.

    ``V`` holds the scores at ``P``'s atoms, shape (m,), or a class's
    score table, shape (k, m); the result is a float or k risks.  Numpy's
    pairwise sum over the atoms gives row i bitwise the risk of V[i] alone.
    """
    return _one_or_many(np.sum(loss(P.labels, _scores(V, len(P))) * P.probabilities, axis=-1))


def empirical_risk(loss: Loss, S: LabeledSample, V):
    """Mean of loss(y_i, v_i) over the rows of S; ``V`` is (n,) or (k, n)."""
    return _one_or_many(np.mean(loss(S.labels, _scores(V, len(S))), axis=-1))


def balanced_error(loss: Loss, P_pos: DiscreteDistribution, P_neg: DiscreteDistribution,
                   v_pos, v_neg):
    """Average of the per-class risks, weighting both classes equally.

    ``P_pos`` and ``P_neg`` are the classes, all atoms labelled +1 and -1;
    ``v_pos`` and ``v_neg`` are the scores at their atoms, shaped as in ``risk``.
    """
    return (0.5 * risk(loss, _of_class(P_pos, 1), v_pos)
            + 0.5 * risk(loss, _of_class(P_neg, -1), v_neg))


# ---------------------------------------------------------------------------
# Corruption-corrected losses


def correct_sln(loss: Loss, sigma: float) -> Loss:
    """Unbiased-estimator correction for symmetric label noise at rate sigma:
    the class-conditional correction at equal rates."""
    return Loss(f"sln-corrected:{loss.name}:{sigma:g}", correct_cc(loss, sigma, sigma).fn)


def correct_cc(loss: Loss, sigma_neg: float, sigma_pos: float) -> Loss:
    """Class-conditional correction with flip rates (sigma_neg, sigma_pos)."""
    _rates(sigma_neg, sigma_pos)
    denom = 1.0 - (sigma_neg + sigma_pos)

    def fn(y, v):
        s_y = np.where(y == 1, sigma_pos, sigma_neg)
        s_my = np.where(y == 1, sigma_neg, sigma_pos)
        return ((1.0 - s_my) * loss.fn(y, v) - s_y * loss.fn(-y, v)) / denom

    return Loss(f"cc-corrected:{loss.name}:{sigma_neg:g}:{sigma_pos:g}", fn)


# ---------------------------------------------------------------------------
# Robustness analysis


@dataclass(frozen=True)
class RobustnessVerdict:
    is_robust: bool
    constant: float | None
    degenerate: bool  # l(-1, .) identical to l(1, .): excluded pathology

    @property
    def verdict(self) -> str:
        if self.degenerate:
            return "degenerate"
        return "robust" if self.is_robust else "not-robust"


def _constant(values: np.ndarray) -> float | None:
    """The median of ``values`` when every value lies within ``CONSTANCY_TOL`` of it,
    else None: the one constancy rule (a nan anywhere fails it)."""
    c = float(np.median(values))
    return c if np.max(np.abs(values - c)) <= CONSTANCY_TOL else None


def sln_robustness_check(loss: Loss) -> RobustnessVerdict:
    """Noise robustness iff l(1, v) + l(-1, v) is constant over the grid."""
    pos = loss(1, _CONSTANCY_GRID)
    neg = loss(-1, _CONSTANCY_GRID)
    if np.max(np.abs(pos - neg)) <= 1e-12:
        return RobustnessVerdict(is_robust=False, constant=None, degenerate=True)
    c = _constant(pos + neg)
    return RobustnessVerdict(is_robust=c is not None, constant=c, degenerate=False)


@dataclass(frozen=True)
class OrderFit:
    alpha: float
    beta: float
    residual: float
    fittable: bool

    @property
    def order_equivalent(self) -> bool:
        return self.fittable and self.alpha > 0 and self.residual <= CONSTANCY_TOL


def _affine_fit(x: np.ndarray, z: np.ndarray) -> tuple[float, float, float]:
    """The least-squares fit z = slope * x + intercept: (slope, intercept, max |residual|)."""
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, z, rcond=None)
    return float(coef[0]), float(coef[1]), float(np.max(np.abs(A @ coef - z)))


def order_equivalence_fit(loss1: Loss, loss2: Loss) -> OrderFit:
    """Least-squares affine fit loss2 = alpha * loss1 + beta over {-1,+1} x grid.

    Order equivalence of two losses is exactly a positive affine relation
    between them, so a zero-residual fit with alpha > 0 certifies it.
    """
    v = GRID
    a = np.concatenate([loss1(1, v), loss1(-1, v)])
    b = np.concatenate([loss2(1, v), loss2(-1, v)])
    if np.ptp(a) <= 1e-12:
        return OrderFit(alpha=float("nan"), beta=float("nan"), residual=float("inf"), fittable=False)
    alpha, beta, residual = _affine_fit(a, b)
    return OrderFit(alpha=alpha, beta=beta, residual=residual, fittable=True)


@dataclass(frozen=True)
class CCRatioResult:
    holds: bool
    constant: float | None
    fit: OrderFit | None


def cc_ratio_check(loss: Loss, sigma_neg: float, sigma_pos: float) -> CCRatioResult:
    """Check sigma_pos * l(-1, v) + sigma_neg * l(1, v) = C on the grid.

    When the weighted sum is constant, the class-conditional corrected
    loss is a positive affine image of the original, and the affine fit
    is returned as the certificate.
    """
    c = _constant(sigma_pos * loss(-1, _CONSTANCY_GRID) + sigma_neg * loss(1, _CONSTANCY_GRID))
    if c is None:
        return CCRatioResult(holds=False, constant=None, fit=None)
    fit = order_equivalence_fit(loss, correct_cc(loss, sigma_neg, sigma_pos))
    return CCRatioResult(holds=True, constant=c, fit=fit)


def linearity_slopes(loss: Loss) -> tuple[float, float, float]:
    """Per-label affine fits in v; returns (slope at y=+1, slope at y=-1, max residual).

    For a convex noise-robust loss the slopes must be exact negatives:
    such losses are affine in v with l(y, v) = lambda y v + g(y).
    """
    (pos, _, res_pos), (neg, _, res_neg) = (_affine_fit(GRID, loss(y, GRID)) for y in (1, -1))
    return pos, neg, max(res_pos, res_neg)


# ---------------------------------------------------------------------------
# CLI loss names


def parse_loss(name: str) -> Loss:
    """Resolve a loss name of the documented grammar.

    ``linear`` | ``hinge`` | ``logistic`` | ``zero-one`` | ``margin:<g>``
    | ``sln-corrected:<base>:<sigma>`` | ``cc-corrected:<base>:<s_neg>:<s_pos>``
    """
    if name in BUILTIN_LOSSES:
        return BUILTIN_LOSSES[name]
    parts = name.split(":")
    try:
        if parts[0] == "margin" and len(parts) == 2:
            return margin_loss(float(parts[1]))
        if parts[0] == "sln-corrected" and len(parts) == 3:
            return correct_sln(parse_loss(parts[1]), float(parts[2]))
        if parts[0] == "cc-corrected" and len(parts) == 4:
            return correct_cc(parse_loss(parts[1]), float(parts[2]), float(parts[3]))
    except ValueError as exc:
        raise InputError(f"bad loss name {name!r}: {exc}") from exc
    raise InputError(f"unknown loss name {name!r}")
