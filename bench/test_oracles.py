"""Self-tests of the benchmark oracles on hand-computable cases.

    python3 -m pytest bench
"""

import math

import numpy as np
import pytest

import oracles
import workloads
from oracles import OracleError


def test_three_point_gaussian_norm():
    # ||(1/3) sum phi(x_i)||^2 at x = 0, 1, 2 with h = 1.
    X = np.array([[0.0], [1.0], [2.0]])
    (sq,) = oracles.quadratic_forms(X, [np.full(3, 1 / 3)], 1.0)
    assert sq == pytest.approx((3 + 4 * math.exp(-0.5) + 2 * math.exp(-2)) / 9, abs=1e-15)


def test_blocked_scores_match_one_block(monkeypatch):
    rng = np.random.default_rng(0)
    X, Z, c = rng.normal(size=(7, 3)), rng.normal(size=(5, 3)), rng.normal(size=5)
    whole = oracles.gaussian_block(X, Z, 2.0) @ c
    monkeypatch.setattr(oracles, "BLOCK_ROWS", 2)
    assert np.allclose(oracles.kernel_scores(X, Z, c, 2.0), whole, atol=1e-15)
    assert oracles.kernel_scores(np.zeros((1, 1)), np.array([[0.0], [2.0]]),
                                 np.array([0.5, -0.5]), 1.0)[0] == pytest.approx(
        0.5 * (1 - math.exp(-2)), abs=1e-15)


def test_losses_from_definitions():
    assert oracles.zero_one(1, np.array(0.0)) == 1.0  # abstention is an error
    assert oracles.zero_one(-1, np.array(-0.3)) == 0.0
    assert oracles.hinge(1, np.array(0.5)) == 0.5
    # ((1 - s) hinge(1, v) - s hinge(-1, v)) / (1 - 2 s) at s = 0.2, v = 0.5
    loss = oracles.LOSSES["sln-corrected:hinge:0.2"]
    assert loss(1, np.array(0.5)) == pytest.approx((0.8 * 0.5 - 0.2 * 1.5) / 0.6, abs=1e-15)


def _dist(atoms):
    return {"support": [[list(x), y] for (x, y), _ in atoms], "prob": [p for _, p in atoms]}


def test_two_atom_symmetric_mixture():
    P = _dist([(((0.0,), 1), 0.5), (((1.0,), -1), 0.5)])
    assert oracles.symmetric_mixture(P, 0.25) == {
        ((0.0,), 1): 0.375, ((0.0,), -1): 0.125, ((1.0,), -1): 0.375, ((1.0,), 1): 0.125}


def test_mixtures_merge_equal_atoms():
    P = _dist([(((0.0,), 1), 0.6), (((0.0,), -1), 0.4)])
    mixed = oracles.symmetric_mixture(P, 0.25)
    assert mixed == {((0.0,), 1): pytest.approx(0.55), ((0.0,), -1): pytest.approx(0.45)}
    cc = oracles.class_conditional_mixture(P, 0.1, 0.3)  # rate 0.3 on y=+1, 0.1 on y=-1
    assert cc[((0.0,), 1)] == pytest.approx(0.6 * 0.7 + 0.4 * 0.1)
    Q = _dist([(((0.0,), 1), 1.0)])
    assert oracles.contamination_mixture(P, Q, 0.5) == {
        ((0.0,), 1): pytest.approx(0.8), ((0.0,), -1): pytest.approx(0.2)}


def test_noise_check_rejects_a_perturbed_probability():
    P = _dist([(((0.0,), 1), 0.5), (((1.0,), -1), 0.5)])
    expected = oracles.symmetric_mixture(P, 0.25)
    good = _dist(list(expected.items()))
    oracles.check_noise(good, expected)
    bad = _dist(list(expected.items()))
    bad["prob"][0] += 1e-9
    bad["prob"][1] -= 1e-9
    with pytest.raises(OracleError):
        oracles.check_noise(bad, expected)
    missing = _dist(list(expected.items())[:3])
    with pytest.raises(OracleError):
        oracles.check_noise(missing, expected)


def _herd_ctx():
    # omega_S = (phi(0) + phi(1)) / 2; a herd of the first point alone is off by
    # ||(phi(1) - phi(0)) / 2|| = sqrt((1 - exp(-1/2)) / 2) at h = 1.
    ctx = workloads.Context(h=1.0)
    ctx.X = np.array([[0.0], [1.0]])
    ctx.y = np.array([1.0, 1.0])
    ctx.X_held = np.array([[-1.0], [0.5], [3.0]])
    return ctx


ONE_POINT_ERROR = math.sqrt((1 - math.exp(-0.5)) / 2)


def _herd_doc(alphas, error):
    return {"members": [{"index": i, "alpha": a} for i, a in enumerate(alphas)],
            "error": error, "recomputed_error": error, "termination": "tolerance",
            "trace": [1.0, error]}


def test_one_point_herd_error():
    facts = oracles.check_herd(_herd_doc([1.0], ONE_POINT_ERROR), _herd_ctx(), "plain", 0.5)
    assert facts == {"members": 1, "iterations": 1}


def test_herd_check_rejects_a_perturbed_weight():
    ctx = _herd_ctx()
    with pytest.raises(OracleError):
        oracles.check_herd(_herd_doc([0.9, 0.1], ONE_POINT_ERROR), ctx, "plain", 0.5)
    with pytest.raises(OracleError):
        oracles.check_herd(_herd_doc([1.1, -0.1], ONE_POINT_ERROR), ctx, "plain", 0.5)


def test_herd_check_rejects_an_error_above_epsilon():
    with pytest.raises(OracleError):
        oracles.check_herd(_herd_doc([1.0], ONE_POINT_ERROR), _herd_ctx(), "plain", 0.2)


def _eval_ctx():
    ctx = workloads.Context(h=1.0)
    ctx.X_test = np.zeros((4, 1))
    ctx.y_test = np.array([1, 1, -1, -1])
    ctx._cache["test"] = np.array([0.5, -0.2, -0.1, 0.0])
    return ctx


def test_eval_check_accepts_hand_values_and_rejects_a_perturbed_risk():
    ctx = _eval_ctx()
    # margins y v: 0.5, -0.2, 0.1, 0 (abstention)
    doc = {"n": 4, "loss": "zero-one", "accuracy": 0.5, "risk": 0.5, "margin": 0.1,
           "abstentions": 1}
    oracles.check_eval(doc, ctx, "zero-one")
    hinge = {**doc, "loss": "hinge", "risk": (0.5 + 1.2 + 0.9 + 1.0) / 4}
    oracles.check_eval(hinge, ctx, "hinge")
    with pytest.raises(OracleError):
        oracles.check_eval({**hinge, "risk": hinge["risk"] + 1e-6}, ctx, "hinge")
    with pytest.raises(OracleError):
        oracles.check_eval({**doc, "accuracy": 0.75}, ctx, "zero-one")


def _check_doc(suite, passed, failing_assertion=None):
    reports = [{"name": suite, "passed": True,
                "assertions": [{"name": "x", "passed": True}]}
               for _ in range(oracles.SUITE_REPORTS[suite])]
    if failing_assertion:
        reports[0]["passed"] = False
        reports[0]["assertions"].append({"name": failing_assertion, "passed": False})
    return {"passed": passed, "reports": reports}


def test_check_outcomes():
    assert oracles.check_check(0, _check_doc("ghosh", True), "ghosh", False) is False
    known = _check_doc("contamination", False, oracles.KNOWN_FAILING_ASSERTION)
    assert oracles.check_check(1, known, "contamination", True) is True
    with pytest.raises(OracleError):  # a failure nobody expects
        oracles.check_check(1, known, "contamination", False)
    with pytest.raises(OracleError):  # the known failure, but another assertion
        oracles.check_check(1, _check_doc("contamination", False, "labels agree"),
                            "contamination", True)
    short = _check_doc("ghosh", True)
    short["reports"].pop()
    with pytest.raises(OracleError):
        oracles.check_check(0, short, "ghosh", False)
    with pytest.raises(OracleError):
        oracles.check_check(3, None, "ghosh", False)
