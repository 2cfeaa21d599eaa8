"""Closed-form generalization bound calculators for the mean classifier."""

from __future__ import annotations

import functools
import inspect
import math

from .errors import InputError


def _finite(bound):
    """``bound`` checked finite on the way out: a non-finite input, or inputs
    whose bound overflows (a tiny delta or beta, a huge kl), is an InputError
    naming every input."""

    @functools.wraps(bound)
    def checked(*args, **kwargs):
        value = bound(*args, **kwargs)
        if not math.isfinite(value):
            inputs = inspect.signature(bound).bind(*args, **kwargs).arguments
            named = ", ".join(f"{k}={v!r}" for k, v in inputs.items())
            raise InputError(f"{bound.__name__}({named}) is not finite: {value}")
        return value

    return checked


def _check_n_delta(n: int, delta: float):
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if not (0.0 < delta < 1.0):
        raise InputError(f"delta must lie in (0, 1), got {delta}")


@_finite
def bound_pac_bayes(emp_loss: float, n: int, delta: float) -> float:
    """High-probability linear-loss bound: emp + sqrt(2 (1 + log(1/delta)) / n)."""
    _check_n_delta(n, delta)
    return emp_loss + math.sqrt(2.0 * (1.0 + math.log(1.0 / delta)) / n)


@_finite
def bound_pac_bayes_multi(emp_loss: float, n: int, k: int, delta: float) -> float:
    """Union over a k-kernel menu: emp + sqrt(2 (1 + log k + log(1/delta)) / n)."""
    _check_n_delta(n, delta)
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    return emp_loss + math.sqrt(2.0 * (1.0 + math.log(k) + math.log(1.0 / delta)) / n)


@_finite
def bound_mean_estimation(n: int, delta: float) -> float:
    """Mean-embedding estimation error: 2/sqrt(n) + sqrt(log(2/delta) / (2n))."""
    _check_n_delta(n, delta)
    return 2.0 / math.sqrt(n) + math.sqrt(math.log(2.0 / delta) / (2.0 * n))


@_finite
def bound_generic_pac_bayes(
    emp_loss: float, kl: float, n: int, delta: float, beta: float | None = None
) -> float:
    """Temperature-beta bound emp + (kl + log(1/delta)) / (beta n) + beta.

    With beta None the optimal temperature beta* = sqrt((kl + log(1/delta)) / n)
    is used, giving emp + 2 sqrt((kl + log(1/delta)) / n).
    """
    _check_n_delta(n, delta)
    if kl < 0:
        raise InputError(f"kl must be >= 0, got {kl}")
    complexity = kl + math.log(1.0 / delta)
    if beta is None:
        return emp_loss + 2.0 * math.sqrt(complexity / n)
    if beta <= 0:
        raise InputError(f"beta must be > 0, got {beta}")
    return emp_loss + complexity / (beta * n) + beta


@_finite
def optimal_beta(kl: float, n: int, delta: float) -> float:
    """The temperature minimizing ``bound_generic_pac_bayes`` over beta > 0."""
    _check_n_delta(n, delta)
    if kl < 0:
        raise InputError(f"kl must be >= 0, got {kl}")
    return math.sqrt((kl + math.log(1.0 / delta)) / n)
