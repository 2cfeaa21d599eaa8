"""Closed-form generalization bound calculators for the mean classifier."""

from __future__ import annotations

import math

from .errors import InputError


def _check_finite(name: str, value: float):
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {value}")


def _check_n_delta(n: int, delta: float):
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if not (0.0 < delta < 1.0):
        raise InputError(f"delta must lie in (0, 1), got {delta}")


def bound_pac_bayes(emp_loss: float, n: int, delta: float) -> float:
    """High-probability linear-loss bound: emp + sqrt(2 (1 + log(1/delta)) / n)."""
    _check_n_delta(n, delta)
    _check_finite("emp_loss", emp_loss)
    return emp_loss + math.sqrt(2.0 * (1.0 + math.log(1.0 / delta)) / n)


def bound_pac_bayes_multi(emp_loss: float, n: int, k: int, delta: float) -> float:
    """Union over a k-kernel menu: emp + sqrt(2 (1 + log k + log(1/delta)) / n)."""
    _check_n_delta(n, delta)
    _check_finite("emp_loss", emp_loss)
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    return emp_loss + math.sqrt(2.0 * (1.0 + math.log(k) + math.log(1.0 / delta)) / n)


def bound_mean_estimation(n: int, delta: float) -> float:
    """Mean-embedding estimation error: 2/sqrt(n) + sqrt(log(2/delta) / (2n))."""
    _check_n_delta(n, delta)
    return 2.0 / math.sqrt(n) + math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def bound_generic_pac_bayes(
    emp_loss: float, kl: float, n: int, delta: float, beta: float | None = None
) -> float:
    """Temperature-beta bound emp + (kl + log(1/delta)) / (beta n) + beta.

    With beta None the optimal temperature beta* = sqrt((kl + log(1/delta)) / n)
    is used, giving emp + 2 sqrt((kl + log(1/delta)) / n).
    """
    _check_n_delta(n, delta)
    _check_finite("emp_loss", emp_loss)
    _check_finite("kl", kl)
    if kl < 0:
        raise InputError(f"kl must be >= 0, got {kl}")
    complexity = kl + math.log(1.0 / delta)
    if beta is None:
        return emp_loss + 2.0 * math.sqrt(complexity / n)
    _check_finite("beta", beta)
    if beta <= 0:
        raise InputError(f"beta must be > 0, got {beta}")
    return emp_loss + complexity / (beta * n) + beta


def optimal_beta(kl: float, n: int, delta: float) -> float:
    """The temperature minimizing ``bound_generic_pac_bayes`` over beta > 0."""
    _check_n_delta(n, delta)
    _check_finite("kl", kl)
    if kl < 0:
        raise InputError(f"kl must be >= 0, got {kl}")
    return math.sqrt((kl + math.log(1.0 / delta)) / n)
