import json

import numpy as np
import pytest

from meanherd import embedding as emb
from meanherd.classifier import (
    MeanClassifier,
    distance,
    fit,
    margin_for_error,
    mean_norm,
    mmd,
    select_kernel,
)
from meanherd.data import DiscreteDistribution, LabeledSample, synth_blobs
from meanherd.errors import DataError, InputError
from meanherd.kernels import KernelSpec, cross_gram
from meanherd.losses import empirical_risk, hinge_loss, margin_loss, risk


def toy_sample() -> LabeledSample:
    return LabeledSample(
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        np.array([1, 1, -1, -1]),
    )


def test_fit_scores_match_kernel_sum():
    S = toy_sample()
    spec = KernelSpec("gaussian", bandwidth=1.0)
    clf = fit(S, spec)
    x = np.array([0.3, 0.2])
    expected = float(
        np.mean(S.labels * cross_gram(spec, x[np.newaxis], S.instances)[0])
    )
    assert clf.scores(x)[0] == pytest.approx(expected, abs=1e-15)


def test_fit_distribution_uses_probabilities():
    P = DiscreteDistribution(
        instances=np.array([[1.0], [-1.0]]), labels=np.array([1, -1]),
        probabilities=np.array([0.9, 0.1]),
    )
    clf = fit(P, KernelSpec("linear"))
    # score(x) = 0.9 * x - 0.1 * (-1) * (-x) ... = 0.9 x + 0.1 x = x
    assert clf.scores(np.array([2.0]))[0] == pytest.approx(2.0, abs=1e-15)


def test_predict_sign_and_abstention():
    S = LabeledSample(np.array([[1.0], [-1.0]]), np.array([1, -1]))
    clf = fit(S, KernelSpec("linear"))
    assert clf.predict(np.array([0.5]))[0] == 1
    assert clf.predict(np.array([-0.5]))[0] == -1
    assert clf.predict(np.array([0.0]))[0] == 0


@pytest.mark.parametrize("point", [[np.inf, 0.0], [np.nan, 0.0]])
def test_a_non_finite_point_is_a_data_error_not_a_score(point):
    clf = fit(toy_sample(), KernelSpec("gaussian", bandwidth=1.0))
    for evaluate in (clf.scores, clf.predict):
        with pytest.raises(DataError, match=r"^points must be finite \(found nan or inf\)$"):
            evaluate([point])


def test_weights_validation():
    with pytest.raises(InputError):
        MeanClassifier(
            kernel=KernelSpec("linear"),
            alphas=np.array([0.5, 0.6]),
            labels=np.array([1, -1]),
            points=np.array([[0.0], [1.0]]),
        )


@pytest.mark.parametrize("label", [1.7, -1.9, np.nan])
def test_labels_checked_before_the_int_cast(label):
    # 1.7 must not become +1, nor -1.9 become -1
    points = np.array([[0.0], [1.0]])
    with pytest.raises(InputError):
        MeanClassifier(KernelSpec("linear"), np.array([0.5, 0.5]), np.array([label, -1.0]), points)
    with pytest.raises(InputError):
        LabeledSample(points, np.array([label, -1.0]))
    clf = MeanClassifier(KernelSpec("linear"), np.array([0.5, 0.5]), np.array([1.0, -1.0]), points)
    assert clf.labels.tolist() == [1, -1]


@pytest.mark.parametrize("case", ["nan-alpha", "inf-alpha", "nan-point", "inf-point"])
def test_non_finite_model_rejected(case):
    # nan passes the sign and sum checks; only an explicit finiteness check stops it
    value = np.inf if case.startswith("inf") else np.nan
    alphas = np.array([value, 0.5]) if case.endswith("alpha") else np.array([0.5, 0.5])
    points = np.array([[value], [1.0]]) if case.endswith("point") else np.array([[0.0], [1.0]])
    with pytest.raises(DataError):
        MeanClassifier(KernelSpec("linear"), alphas, np.array([1, -1]), points)


def test_json_roundtrip_deterministic():
    clf = fit(toy_sample(), KernelSpec("gaussian", bandwidth=2.0))
    text = json.dumps(clf.to_dict(), sort_keys=True)
    assert text == json.dumps(clf.to_dict(), sort_keys=True)
    back = MeanClassifier.from_dict(json.loads(text))
    x = np.array([0.1, -0.7])
    assert back.scores(x)[0] == pytest.approx(clf.scores(x)[0], abs=1e-15)


def test_document_holds_the_python_values_of_the_arrays():
    # the values float() and int() make, bit for bit: the sign of -0.0, the least subnormal, max
    points = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -2.5]])
    clf = MeanClassifier(KernelSpec("gaussian", bandwidth=1.0), np.array([0.25, 0.75]),
                         np.array([1, -1]), points)
    doc = clf._document(n_source=2, squared_norm=0.25)
    expected = [{"alpha": float(a), "y": int(y), "x": [float(v) for v in x]}
                for a, y, x in zip(clf.alphas, clf.labels, clf.points)]
    typed = [[(type(v), repr(v)) for v in (s["alpha"], s["y"], *s["x"])] for s in doc["support"]]
    assert typed == [[(type(v), repr(v)) for v in (s["alpha"], s["y"], *s["x"])] for s in expected]


# ---------------------------------------------------------------------------
# Geometry


def test_mean_norm_linear_kernel_matches_feature_space():
    S = toy_sample()
    norm = mean_norm(S, KernelSpec("linear"))
    explicit = np.mean(S.labels[:, np.newaxis] * S.instances, axis=0)
    assert type(norm) is float
    assert norm == pytest.approx(np.linalg.norm(explicit), abs=1e-12)


def test_mean_norm_bounded_kernel_in_unit_interval():
    S = synth_blobs(40, 2, 3.0, seed=1)
    assert 0.0 <= mean_norm(S, KernelSpec("gaussian", bandwidth=1.0)) <= 1.0


def test_mean_norm_cancelling_sample_is_zero():
    S = LabeledSample(np.array([[1.0], [1.0]]), np.array([1, -1]))
    assert mean_norm(S, KernelSpec("gaussian", bandwidth=1.0)) == 0.0


def test_select_kernel_lowest_index_tie_break():
    S = toy_sample()
    k = KernelSpec("gaussian", bandwidth=1.0)
    sel = select_kernel(S, [k, k])
    assert sel.index == 0
    assert sel.min_losses[0] == sel.min_losses[1]


def test_select_kernel_prefers_separating_space():
    # XOR-style labels: linear mean cancels, gaussian does not
    S = LabeledSample(
        np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]),
        np.array([1, 1, -1, -1]),
    )
    sel = select_kernel(
        S, [KernelSpec("linear", normalized=True), KernelSpec("gaussian", bandwidth=0.8)]
    )
    assert sel.index == 1


def test_select_kernel_rejects_an_empty_menu():
    with pytest.raises(InputError, match="kernel menu must be non-empty"):
        select_kernel(toy_sample(), [])


def test_select_kernel_rejects_a_kernel_unbounded_on_the_data():
    # linear on points of norm above 1 has 1 - ||omega|| = -9.03, no attainable
    # loss, which the model document writes as null; it would win the menu
    S = synth_blobs(200, 5, 20.0, 0)
    menu = [KernelSpec("gaussian", bandwidth=1.0), KernelSpec("linear"),
            KernelSpec("linear", normalized=True)]
    assert fit(S, menu[1]).to_dict()["meta"]["min_linear_loss"] is None
    with pytest.raises(InputError, match="menu kernel 1 .* unbounded on the data"):
        select_kernel(S, menu)
    assert select_kernel(S, [menu[0], menu[2]]).index == 1
    P = DiscreteDistribution(np.array([[0.5], [2.0]]), np.array([1, -1]), np.array([0.5, 0.5]))
    with pytest.raises(InputError, match="menu kernel 0 "):
        select_kernel(P, [KernelSpec("polynomial", degree=2, offset=1.0), menu[0]])


# ---------------------------------------------------------------------------
# MMD and distances between mean embeddings


def test_mmd_matches_embedding_difference():
    S = toy_sample()
    spec = KernelSpec("gaussian", bandwidth=1.0)
    value = mmd(S.instances[S.labels == 1], S.instances[S.labels == -1], spec)
    X = np.vstack([S.instances[S.labels == 1], S.instances[S.labels == -1]])
    expected = 0.5 * float(np.sqrt(emb.squared_norm(spec, X, np.array([0.5, 0.5, -0.5, -0.5]))))
    assert value == expected
    # ||mu_+ - mu_-||^2 from the explicit kernel matrix
    K = cross_gram(spec, X, X)
    explicit = K[:2, :2].mean() - 2.0 * K[:2, 2:].mean() + K[2:, 2:].mean()
    assert value == pytest.approx(0.5 * np.sqrt(explicit), abs=1e-12)


@pytest.mark.parametrize("X_pos, X_neg, error", [
    (np.zeros((2, 2)), np.zeros((2, 3)), InputError),       # different dimensions
    (np.zeros((2, 2, 1)), np.zeros((2, 2, 1)), InputError),  # not (n, d)
    (np.array([0.0, 1.0]), np.zeros((2, 2)), InputError),    # 1-D, as LabeledSample rejects it
    (np.zeros((0, 2)), np.zeros((2, 2)), InputError),        # empty
    (np.array([[0.0, np.nan]]), np.zeros((2, 2)), DataError),
])
def test_mmd_rejects_bad_instance_sets(X_pos, X_neg, error):
    with pytest.raises(error):
        mmd(X_pos, X_neg, KernelSpec("gaussian", bandwidth=1.0))


def test_mmd_identical_sets_is_zero():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert mmd(X, X, KernelSpec("gaussian", bandwidth=1.0)) == 0.0


def test_mmd_equals_mean_norm_for_balanced_sample():
    # with equal class counts, ||omega_S|| = (1/2)||mu_+ - mu_-|| = mmd
    S = synth_blobs(60, 2, 3.0, seed=2)
    spec = KernelSpec("gaussian", bandwidth=1.0)
    value = mmd(S.instances[S.labels == 1], S.instances[S.labels == -1], spec)
    assert value == pytest.approx(mean_norm(S, spec), abs=1e-12)


def test_distance_of_a_distribution_to_itself_is_zero():
    P = DiscreteDistribution(
        instances=np.array([[0.3, -1.2], [2.0, 0.5]]),
        labels=np.array([1, -1]),
        probabilities=np.array([0.4, 0.6]),
    )
    spec = KernelSpec("gaussian", bandwidth=1.0)
    assert distance(spec, P, P) == 0.0
    # ||omega_P - 0.5 omega_P|| = 0.5 ||omega_P||
    half = distance(spec, P, P, 0.5)
    sq = emb.squared_norm(spec, P.instances, P.probabilities * P.labels)
    assert half == pytest.approx(0.5 * np.sqrt(sq), abs=1e-15)


def test_distance_dimension_mismatch_is_an_input_error():
    P = DiscreteDistribution(np.zeros((1, 2)), np.ones(1, dtype=int), np.ones(1))
    Q = DiscreteDistribution(np.zeros((1, 3)), np.ones(1, dtype=int), np.ones(1))
    with pytest.raises(InputError, match="dimension mismatch: 2 vs 3"):
        distance(KernelSpec("gaussian", bandwidth=1.0), P, Q)


# ---------------------------------------------------------------------------
# Margins


def test_margin_for_error_and_margin_risk():
    P = DiscreteDistribution(
        instances=np.array([[1.0], [0.2], [-1.0]]), labels=np.array([1, 1, -1]),
        probabilities=np.array([0.4, 0.2, 0.4]),
    )
    f = P.instances[:, 0]
    gamma = margin_for_error(P, f)
    assert gamma == pytest.approx(0.2, abs=1e-15)
    assert risk(margin_loss(0.0), P, f) == 0.0
    assert risk(margin_loss(gamma), P, f) == 0.0  # strict inequality at the margin
    assert risk(margin_loss(0.21), P, f) == pytest.approx(0.2, abs=1e-15)


def test_margin_and_risk_accept_precomputed_scores():
    S = synth_blobs(60, 2, 2.0, seed=4)
    clf = fit(S, KernelSpec("gaussian", bandwidth=1.0))
    v = clf.scores(S.instances)
    per_row = np.array([clf.scores(x)[0] for x in S.instances])
    assert margin_for_error(S, v) == pytest.approx(margin_for_error(S, per_row), abs=1e-15)
    assert empirical_risk(margin_loss(0.01), S, v) == empirical_risk(margin_loss(0.01), S, per_row)
    assert empirical_risk(hinge_loss, S, v) == pytest.approx(
        empirical_risk(hinge_loss, S, per_row), abs=1e-15
    )
    with pytest.raises(InputError):
        empirical_risk(hinge_loss, S, v[:-1])


def test_margin_for_error_no_positive_margin():
    P = DiscreteDistribution(np.array([[1.0]]), np.array([-1]), np.array([1.0]))
    assert margin_for_error(P, P.instances[:, 0]) == 0.0


def test_margin_for_error_takes_one_score_per_atom():
    P = DiscreteDistribution(np.array([[1.0], [2.0]]), np.array([1, -1]), np.array([0.5, 0.5]))
    with pytest.raises(InputError, match=r"expected 2 scores, got shape \(3,\)"):
        margin_for_error(P, np.zeros(3))

