import itertools

import numpy as np
import pytest

from meanherd.data import DiscreteDistribution, flip_symmetric, long_servedio
from meanherd.errors import InputError
from meanherd.lab import _LONG_SERVEDIO_SIGMAS
from meanherd.losses import (
    BUILTIN_LOSSES,
    CCRatioResult,
    GRID,
    Loss,
    balanced_error,
    cc_ratio_check,
    correct_cc,
    correct_sln,
    hinge_loss,
    linear_loss,
    linearity_slopes,
    logistic_loss,
    margin_loss,
    order_equivalence_fit,
    parse_loss,
    risk,
    sln_robustness_check,
    zero_one_loss,
)


def test_builtin_loss_values():
    assert linear_loss(1, 0.3) == pytest.approx(0.7, abs=1e-15)
    assert linear_loss(-1, 0.3) == pytest.approx(1.3, abs=1e-15)
    assert hinge_loss(1, 2.0) == 0.0
    assert hinge_loss(-1, 0.5) == pytest.approx(1.5, abs=1e-15)
    assert logistic_loss(1, 0.0) == pytest.approx(np.log(2.0), abs=1e-15)
    assert zero_one_loss(1, -0.1) == 1.0
    assert zero_one_loss(1, 0.1) == 0.0
    # abstention convention: v = 0 is an error for both labels
    assert zero_one_loss(1, 0.0) == 1.0
    assert zero_one_loss(-1, 0.0) == 1.0


@pytest.mark.parametrize("bad", [0, 1.7])
def test_loss_rejects_labels_other_than_plus_minus_one(bad):
    y = np.array([1, bad, -1])
    for loss in (linear_loss, zero_one_loss, correct_cc(hinge_loss, 0.1, 0.2)):
        with pytest.raises(InputError):
            loss(y, np.zeros(3))


def test_margin_loss():
    m = margin_loss(0.5)
    assert m(1, 0.4) == 1.0
    assert m(1, 0.6) == 0.0
    z = margin_loss(0.0)
    for y in (1, -1):
        assert np.array_equal(z(y, GRID), zero_one_loss(y, GRID))


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -0.1])
def test_margin_loss_rejects_a_margin_that_is_not_finite_and_non_negative(gamma):
    with pytest.raises(InputError, match="margin must be finite and >= 0"):
        margin_loss(gamma)


@pytest.mark.parametrize("rates", [(float("nan"), 0.1), (0.1, float("nan")), (float("inf"), 0.1),
                                   (-0.1, 0.2), (0.5, 0.5)])
def test_cc_correction_rejects_rates_that_are_not_non_negative_with_sum_below_one(rates):
    with pytest.raises(InputError, match="rates must be >= 0 with sum < 1"):
        correct_cc(hinge_loss, *rates)


def test_label_validation():
    with pytest.raises(InputError):
        linear_loss(0, 0.5)


# ---------------------------------------------------------------------------
# Robustness characterization


def test_robustness_verdicts():
    v = sln_robustness_check(linear_loss)
    assert v.is_robust and v.constant == pytest.approx(2.0, abs=1e-12)
    v = sln_robustness_check(zero_one_loss)
    assert v.is_robust and v.constant == pytest.approx(1.0, abs=1e-12)
    assert not sln_robustness_check(hinge_loss).is_robust
    assert not sln_robustness_check(logistic_loss).is_robust


def test_margin_loss_not_robust_for_positive_margin():
    # l(1, v) + l(-1, v) = 2 inside |v| < gamma but 1 outside
    assert not sln_robustness_check(margin_loss(0.5)).is_robust


def test_convex_robust_loss_is_affine_in_score():
    s_pos, s_neg, residual = linearity_slopes(linear_loss)
    assert s_pos == pytest.approx(-1.0, abs=1e-12)
    assert s_neg == pytest.approx(1.0, abs=1e-12)
    assert residual <= 1e-10


def lstsq_reference(x, z):
    """The affine least-squares fit of z on x, written out: (slope, intercept, max |residual|)."""
    A = np.column_stack([x, np.ones_like(x)])
    coef = np.linalg.lstsq(A, z, rcond=None)[0]
    return float(coef[0]), float(coef[1]), float(np.max(np.abs(A @ coef - z)))


BUILTINS = list(BUILTIN_LOSSES.values())


@pytest.mark.parametrize("loss", BUILTINS, ids=lambda loss: loss.name)
def test_linearity_slopes_are_the_per_label_least_squares_fits(loss):
    pos, neg = (lstsq_reference(GRID, loss(y, GRID)) for y in (1, -1))
    assert linearity_slopes(loss) == (pos[0], neg[0], max(pos[2], neg[2]))


@pytest.mark.parametrize("loss1, loss2", itertools.product(BUILTINS, BUILTINS),
                         ids=lambda loss: loss.name)
def test_order_equivalence_fit_is_the_least_squares_fit_over_both_labels(loss1, loss2):
    a, b = (np.concatenate([loss(1, GRID), loss(-1, GRID)]) for loss in (loss1, loss2))
    fit = order_equivalence_fit(loss1, loss2)
    assert (fit.alpha, fit.beta, fit.residual) == lstsq_reference(a, b) and fit.fittable


# ---------------------------------------------------------------------------
# Corrected losses


def two_atom_distributions():
    """Enumerated two-atom score-label distributions for unbiasedness audits."""
    scores = (-1.7, -0.4, 0.2, 0.9, 2.3)
    out = []
    for (v1, y1), (v2, y2) in itertools.combinations(
        itertools.product(scores, (-1, 1)), 2
    ):
        out.append((((v1, y1), (v2, y2)), (0.3, 0.7)))
    return out[:100]


@pytest.mark.parametrize("sigma", [0.1, 0.25, 0.4])
@pytest.mark.parametrize(
    "loss", [linear_loss, hinge_loss, logistic_loss, zero_one_loss],
    ids=lambda l: l.name,
)
def test_sln_correction_unbiased(loss, sigma):
    corrected = correct_sln(loss, sigma)
    for atoms, probs in two_atom_distributions():
        clean = sum(p * float(loss(y, v)) for (v, y), p in zip(atoms, probs))
        noisy = sum(
            p
            * (
                (1 - sigma) * float(corrected(y, v))
                + sigma * float(corrected(-y, v))
            )
            for (v, y), p in zip(atoms, probs)
        )
        assert noisy == pytest.approx(clean, abs=1e-12)


@pytest.mark.parametrize("sigma", [0.1, 0.2, 0.3, 0.45])
@pytest.mark.parametrize("loss", [linear_loss, hinge_loss, logistic_loss], ids=lambda l: l.name)
def test_sln_correction_is_the_cc_correction_at_equal_rates(loss, sigma):
    for y in (1, -1):
        sln, cc = correct_sln(loss, sigma)(y, GRID), correct_cc(loss, sigma, sigma)(y, GRID)
        assert np.array_equal(sln, cc)


def test_sln_correction_sigma_zero_is_identity():
    corrected = correct_sln(hinge_loss, 0.0)
    v = np.linspace(-3, 3, 61)
    assert np.allclose(corrected(1, v), hinge_loss(1, v), atol=1e-15)


def test_cc_correction_unbiased():
    sn, sp = 0.2, 0.3
    corrected = correct_cc(hinge_loss, sn, sp)
    for atoms, probs in two_atom_distributions()[:30]:
        clean = sum(p * float(hinge_loss(y, v)) for (v, y), p in zip(atoms, probs))
        noisy = 0.0
        for (v, y), p in zip(atoms, probs):
            s = sp if y == 1 else sn
            noisy += p * ((1 - s) * float(corrected(y, v)) + s * float(corrected(-y, v)))
        assert noisy == pytest.approx(clean, abs=1e-12)


def test_sln_corrected_robust_loss_is_affine_image():
    fit = order_equivalence_fit(linear_loss, correct_sln(linear_loss, 0.3))
    assert fit.order_equivalent
    assert fit.alpha > 0


def test_order_equivalence_rejects_unrelated():
    fit = order_equivalence_fit(linear_loss, logistic_loss)
    assert not fit.order_equivalent


def test_losses_that_ignore_the_label_are_degenerate_and_constant_losses_unfittable():
    even = Loss("square", lambda y, v: v * v)
    verdict = sln_robustness_check(even)
    assert verdict.degenerate and not verdict.is_robust and verdict.verdict == "degenerate"
    constant = Loss("constant", lambda y, v: np.ones(np.broadcast(y, v).shape))
    fit = order_equivalence_fit(constant, linear_loss)
    assert not fit.fittable and not fit.order_equivalent


def test_cc_ratio_check():
    # for linear loss, s_pos l(-1,v) + s_neg l(1,v) is constant iff s_pos = s_neg
    assert cc_ratio_check(linear_loss, 0.2, 0.2).holds
    r = cc_ratio_check(linear_loss, 0.2, 0.2)
    assert r.fit is not None and r.fit.order_equivalent
    assert not cc_ratio_check(linear_loss, 0.1, 0.3).holds
    # a loss undefined somewhere on the grid is not constant there
    partial = Loss("partial", lambda y, v: np.where(np.abs(v) > 2.5, np.nan, 1.0 - y * v))
    assert cc_ratio_check(partial, 0.2, 0.2) == CCRatioResult(holds=False, constant=None, fit=None)


# ---------------------------------------------------------------------------
# Risks


def test_risk_and_balanced_error():
    P = DiscreteDistribution(
        instances=np.array([[0.0], [1.0]]), labels=np.array([1, -1]),
        probabilities=np.array([0.5, 0.5]),
    )
    f = np.ones(2)
    assert risk(zero_one_loss, P, f) == pytest.approx(0.5, abs=1e-15)
    assert risk(linear_loss, P, f) == pytest.approx(1.0, abs=1e-15)


def score_tables():
    """(P, V): the scores of 50 random directions on each corrupted long-Servedio
    support of the suite, then on 40 random atoms as a column-major table."""
    W = np.random.default_rng(0).normal(size=(50, 2))
    for gamma in (1.0 / 12.0, 1.0 / 24.0, 1.0 / 48.0):
        for sigma in _LONG_SERVEDIO_SIGMAS:
            P = flip_symmetric(long_servedio(gamma), sigma)
            yield P, W @ P.instances.T
    rng = np.random.default_rng(1)
    P = DiscreteDistribution(rng.normal(size=(40, 2)), rng.choice((-1, 1), size=40),
                             rng.dirichlet(np.ones(40)))
    yield P, np.asfortranarray(W @ P.instances.T)


@pytest.mark.parametrize("loss", [hinge_loss, linear_loss, logistic_loss, zero_one_loss],
                         ids=lambda loss: loss.name)
def test_a_table_row_risk_is_the_row_own_risk_bit_for_bit(loss):
    for P, V in score_tables():
        assert risk(loss, P, V).tolist() == [risk(loss, P, v) for v in V]
        pos, neg = P.labels == 1, P.labels == -1
        A, B = (DiscreteDistribution(P.instances[c], P.labels[c],
                                     P.probabilities[c] / P.probabilities[c].sum())
                for c in (pos, neg))
        ber = balanced_error(loss, A, B, V[:, pos], V[:, neg])
        assert ber.tolist() == [balanced_error(loss, A, B, v[pos], v[neg]) for v in V]
        halves = 0.5 * risk(loss, A, V[:, pos]) + 0.5 * risk(loss, B, V[:, neg])
        assert ber.tolist() == halves.tolist()


def test_grid_is_symmetric_and_covers_tails():
    assert np.array_equal(GRID, -GRID[::-1])
    assert GRID.max() == 3.0
    assert 0.0 in GRID


# ---------------------------------------------------------------------------
# Name grammar


def test_parse_loss_grammar():
    assert parse_loss("linear") is linear_loss
    assert parse_loss("margin:0.5").name == "margin:0.5"
    c = parse_loss("sln-corrected:hinge:0.2")
    assert c.name == "sln-corrected:hinge:0.2"
    c = parse_loss("cc-corrected:linear:0.1:0.2")
    assert c.name == "cc-corrected:linear:0.1:0.2"
    with pytest.raises(InputError):
        parse_loss("huber")
    with pytest.raises(InputError):
        parse_loss("sln-corrected:hinge:0.6")


def test_balanced_error_equal_class_weighting():
    P_pos = DiscreteDistribution(((1.0,),), [1], np.array([1.0]))
    P_neg = DiscreteDistribution(((-1.0,),), [-1], np.array([1.0]))
    # f(x) = x[0] at each class's atom, and g = -f
    f_pos, f_neg = np.array([1.0]), np.array([-1.0])
    # both classes perfectly classified: linear loss 0 on each
    assert balanced_error(linear_loss, P_pos, P_neg, f_pos, f_neg) == pytest.approx(0.0, abs=1e-15)
    g_pos, g_neg = -f_pos, -f_neg
    assert balanced_error(linear_loss, P_pos, P_neg, g_pos, g_neg) == pytest.approx(2.0, abs=1e-15)


def test_balanced_error_rejects_a_class_whose_atoms_carry_the_other_label():
    P_pos = DiscreteDistribution(((1.0,),), [1], np.array([1.0]))
    P_neg = DiscreteDistribution(((-1.0,),), [-1], np.array([1.0]))
    joint = DiscreteDistribution(((1.0,), (-1.0,)), [1, -1], np.array([0.5, 0.5]))
    for A, B, y in ((P_neg, P_neg, 1), (P_pos, P_pos, -1), (joint, P_neg, 1), (P_pos, joint, -1)):
        with pytest.raises(InputError) as exc:
            balanced_error(linear_loss, A, B, np.ones(len(A)), np.ones(len(B)))
        assert str(exc.value) == f"the class {y:+d} distribution has atoms labelled {-y:+d}"
