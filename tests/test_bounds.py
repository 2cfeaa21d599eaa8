import math
import re

import pytest

from meanherd.bounds import (
    bound_generic_pac_bayes,
    bound_mean_estimation,
    bound_pac_bayes,
    bound_pac_bayes_multi,
    optimal_beta,
)
from meanherd.errors import InputError


def test_pac_bayes_formula_oracle():
    # independent recomputation of emp + sqrt(2 (1 + log(1/delta)) / n)
    n, delta = 1000, 0.05
    expected = math.sqrt(2.0 * (1.0 + math.log(1.0 / delta)) / n)
    assert bound_pac_bayes(0.0, n, delta) == pytest.approx(expected, rel=1e-15)
    assert f"{bound_pac_bayes(0.0, n, delta):.5g}" == "0.089395"


def test_pac_bayes_multi_worked_value():
    # k = 10 kernels at n = 1000, delta = 0.05
    value = bound_pac_bayes_multi(0.0, 1000, 10, 0.05)
    expected = math.sqrt(2.0 * (1.0 + math.log(10) + math.log(20.0)) / 1000.0)
    assert value == pytest.approx(expected, rel=1e-15)
    assert f"{value:.5g}" == "0.11223"


def test_mean_estimation_worked_value():
    value = bound_mean_estimation(100, 0.05)
    expected = 2.0 / 10.0 + math.sqrt(math.log(40.0) / 200.0)
    assert value == pytest.approx(expected, rel=1e-15)
    assert f"{value:.5g}" == "0.33581"


def test_multi_with_one_kernel_reduces_to_single():
    assert bound_pac_bayes_multi(0.1, 500, 1, 0.1) == bound_pac_bayes(0.1, 500, 0.1)


def test_empirical_term_is_additive():
    base = bound_pac_bayes(0.0, 200, 0.05)
    assert bound_pac_bayes(0.25, 200, 0.05) == pytest.approx(base + 0.25, abs=1e-15)


def test_generic_bound_optimal_beta():
    kl, n, delta = 1.5, 400, 0.05
    beta = optimal_beta(kl, n, delta)
    at_opt = bound_generic_pac_bayes(0.0, kl, n, delta, beta=beta)
    closed = bound_generic_pac_bayes(0.0, kl, n, delta)
    assert at_opt == pytest.approx(closed, rel=1e-12)
    # any other temperature is worse
    for other in (0.5 * beta, 2.0 * beta):
        assert bound_generic_pac_bayes(0.0, kl, n, delta, beta=other) > closed


def test_bounds_decrease_in_n():
    assert bound_pac_bayes(0.0, 100, 0.05) > bound_pac_bayes(0.0, 10000, 0.05)
    assert bound_mean_estimation(100, 0.05) > bound_mean_estimation(10000, 0.05)


@pytest.mark.parametrize(
    "call",
    [
        lambda: bound_pac_bayes(0.0, 0, 0.05),
        lambda: bound_pac_bayes(0.0, 100, 0.0),
        lambda: bound_pac_bayes(0.0, 100, 1.0),
        lambda: bound_pac_bayes_multi(0.0, 100, 0, 0.05),
        lambda: bound_generic_pac_bayes(0.0, -1.0, 100, 0.05),
        lambda: bound_generic_pac_bayes(0.0, 1.0, 100, 0.05, beta=0.0),
        lambda: optimal_beta(-1.0, 100, 0.05),
    ],
)
def test_parameter_validation(call):
    with pytest.raises(InputError):
        call()


NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda: bound_pac_bayes(0.0, 0, 0.05), "n must be >= 1, got 0"),
    (lambda: bound_pac_bayes(0.0, 100, 0.0), "delta must lie in (0, 1), got 0.0"),
    (lambda: bound_pac_bayes(0.0, 100, NAN), "delta must lie in (0, 1), got nan"),
    (lambda: bound_pac_bayes_multi(0.0, -2, 3, 0.05), "n must be >= 1, got -2"),
    (lambda: bound_pac_bayes_multi(0.0, 100, 3, 1.0), "delta must lie in (0, 1), got 1.0"),
    (lambda: bound_pac_bayes_multi(0.0, 100, 0, 0.05), "k must be >= 1, got 0"),
    (lambda: bound_mean_estimation(0, 0.05), "n must be >= 1, got 0"),
    (lambda: bound_mean_estimation(100, 1.5), "delta must lie in (0, 1), got 1.5"),
    (lambda: bound_generic_pac_bayes(0.0, 1.0, 0, 0.05), "n must be >= 1, got 0"),
    (lambda: bound_generic_pac_bayes(0.0, 1.0, 100, -0.1), "delta must lie in (0, 1), got -0.1"),
    (lambda: bound_generic_pac_bayes(0.0, -1.0, 100, 0.05), "kl must be >= 0, got -1.0"),
    (lambda: bound_generic_pac_bayes(0.0, 1.0, 100, 0.05, beta=0.0), "beta must be > 0, got 0.0"),
    (lambda: optimal_beta(1.0, 0, 0.05), "n must be >= 1, got 0"),
    (lambda: optimal_beta(1.0, 100, 0.0), "delta must lie in (0, 1), got 0.0"),
    (lambda: optimal_beta(-1.0, 100, 0.05), "kl must be >= 0, got -1.0"),
    # the rules apply in order n, delta, k, kl, beta: the first that fails is read
    (lambda: bound_generic_pac_bayes(0.0, -1.0, 0, 2.0, beta=-1), "n must be >= 1, got 0"),
    (lambda: bound_generic_pac_bayes(0.0, -1.0, 10, 2.0, beta=-1), "delta must lie in (0, 1), got 2.0"),
    (lambda: bound_generic_pac_bayes(0.0, -1.0, 10, 0.5, beta=-1), "kl must be >= 0, got -1.0"),
    (lambda: bound_pac_bayes_multi(0.0, 10, 0, 0.0), "delta must lie in (0, 1), got 0.0"),
])
def test_each_argument_rule_reads_its_message(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: bound_pac_bayes(0.0, NAN, 0.05),
     "bound_pac_bayes(emp_loss=0.0, n=nan, delta=0.05) is not finite: nan"),
    (lambda: bound_pac_bayes_multi(0.0, 10, NAN, 0.05),
     "bound_pac_bayes_multi(emp_loss=0.0, n=10, k=nan, delta=0.05) is not finite: nan"),
    (lambda: bound_mean_estimation(NAN, 0.05),
     "bound_mean_estimation(n=nan, delta=0.05) is not finite: nan"),
    (lambda: bound_generic_pac_bayes(0.0, NAN, 10, 0.05),
     "bound_generic_pac_bayes(emp_loss=0.0, kl=nan, n=10, delta=0.05) is not finite: nan"),
    (lambda: bound_generic_pac_bayes(0.0, 1.0, 10, 0.05, beta=NAN),
     "bound_generic_pac_bayes(emp_loss=0.0, kl=1.0, n=10, delta=0.05, beta=nan) is not finite: nan"),
    (lambda: optimal_beta(NAN, 10, 0.05), "optimal_beta(kl=nan, n=10, delta=0.05) is not finite: nan"),
])
def test_a_nan_past_the_rules_is_not_finite_in_the_bound_called(call, message):
    # only the delta rule fails a nan; a nan n, k, kl or beta reaches the
    # bound, whose non-finite value names the bound that was called
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()
