"""Closed-form generalization bound calculators for the mean classifier.

Each bound is its formula alone: ``_checked`` first applies the one rule table
``_RULES`` (n >= 1, 0 < delta < 1, k >= 1, kl >= 0, beta > 0 when given)."""

from __future__ import annotations

import functools
import inspect
import math

from .errors import InputError

_RULES = (
    ("n", lambda n: n < 1, "n must be >= 1"),
    ("delta", lambda delta: not (0.0 < delta < 1.0), "delta must lie in (0, 1)"),
    ("k", lambda k: k < 1, "k must be >= 1"),
    ("kl", lambda kl: kl < 0, "kl must be >= 0"),
    ("beta", lambda beta: beta is not None and beta <= 0, "beta must be > 0"),
)


def _checked(bound):
    """``bound`` with ``_RULES`` applied in order to the arguments it is given (a nan
    fails only the delta rule), and its value checked finite (naming every input)."""
    signature = inspect.signature(bound)

    @functools.wraps(bound)
    def checked(*args, **kwargs):
        inputs = signature.bind(*args, **kwargs).arguments
        for name, fails, message in _RULES:
            if name in inputs and fails(inputs[name]):
                raise InputError(f"{message}, got {inputs[name]}")
        value = bound(*args, **kwargs)
        if not math.isfinite(value):
            named = ", ".join(f"{k}={v!r}" for k, v in inputs.items())
            raise InputError(f"{bound.__name__}({named}) is not finite: {value}")
        return value
    return checked


@_checked
def bound_pac_bayes(emp_loss: float, n: int, delta: float) -> float:
    """High-probability linear-loss bound: emp + sqrt(2 (1 + log(1/delta)) / n)."""
    return emp_loss + math.sqrt(2.0 * (1.0 + math.log(1.0 / delta)) / n)


@_checked
def bound_pac_bayes_multi(emp_loss: float, n: int, k: int, delta: float) -> float:
    """Union over a k-kernel menu: emp + sqrt(2 (1 + log k + log(1/delta)) / n)."""
    return emp_loss + math.sqrt(2.0 * (1.0 + math.log(k) + math.log(1.0 / delta)) / n)


@_checked
def bound_mean_estimation(n: int, delta: float) -> float:
    """Mean-embedding estimation error: 2/sqrt(n) + sqrt(log(2/delta) / (2n))."""
    return 2.0 / math.sqrt(n) + math.sqrt(math.log(2.0 / delta) / (2.0 * n))


@_checked
def bound_generic_pac_bayes(
    emp_loss: float, kl: float, n: int, delta: float, beta: float | None = None
) -> float:
    """Temperature-beta bound emp + (kl + log(1/delta)) / (beta n) + beta.

    With beta None the optimal temperature beta* = sqrt((kl + log(1/delta)) / n)
    is used, giving emp + 2 sqrt((kl + log(1/delta)) / n).
    """
    complexity = kl + math.log(1.0 / delta)
    if beta is None:
        return emp_loss + 2.0 * math.sqrt(complexity / n)
    return emp_loss + complexity / (beta * n) + beta


@_checked
def optimal_beta(kl: float, n: int, delta: float) -> float:
    """The temperature minimizing ``bound_generic_pac_bayes`` over beta > 0."""
    return math.sqrt((kl + math.log(1.0 / delta)) / n)
