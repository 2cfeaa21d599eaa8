import numpy as np
import pytest

from meanherd import lab
from meanherd.classifier import fit
from meanherd.data import (
    DiscreteDistribution,
    NoiseFunctionTable,
    flip_symmetric,
    long_servedio,
    sorted_instances,
    synth_blobs,
)
from meanherd.errors import DataError, InputError
from meanherd.kernels import KernelSpec
from meanherd.losses import hinge_loss, linear_loss, risk, zero_one_loss

GAUSS = KernelSpec("gaussian", bandwidth=1.0)


def rows(X) -> list[tuple]:
    """The rows of X as tuples, the keys of an {instance: score} table."""
    return list(map(tuple, np.asarray(X).tolist()))


def small_P() -> DiscreteDistribution:
    return DiscreteDistribution(
        instances=np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, -1.0]]),
        labels=np.array([1, -1, 1]),
        probabilities=np.array([0.5, 0.3, 0.2]),
    )


# ---------------------------------------------------------------------------
# Oracle


def test_brute_force_min_single_member():
    P = small_P()
    instances = sorted_instances(P)
    fclass = lab.FiniteFunctionClass(instances, np.zeros((1, 3)) + 0.5)
    idx, r = lab.brute_force_min(linear_loss, P, fclass)
    assert idx == 0


def test_brute_force_min_finds_bayes_table():
    P = small_P()
    instances = sorted_instances(P)
    eta = dict(zip(rows(P.instances), P.eta()))
    bayes_row = np.array([1.0 if eta[x] >= 0.5 else -1.0 for x in rows(instances)])
    scores = np.vstack([-bayes_row, bayes_row, np.zeros(3) + 0.1])
    fclass = lab.FiniteFunctionClass(instances, scores)
    idx, r = lab.brute_force_min(zero_one_loss, P, fclass)
    assert idx == 1
    assert r == 0.0  # every instance here has a deterministic label


def test_brute_force_min_ties_break_low():
    P = small_P()
    instances = sorted_instances(P)
    scores = np.vstack([np.zeros(3) + 0.5, np.zeros(3) + 0.5])
    fclass = lab.FiniteFunctionClass(instances, scores)
    idx, _ = lab.brute_force_min(linear_loss, P, fclass)
    assert idx == 0


def test_risk_of_a_table_is_its_rows_risks():
    rng = np.random.default_rng(3)
    for _ in range(20):
        P = lab.random_distribution(rng)
        instances = sorted_instances(P)
        fclass = lab.random_function_class(rng, instances, k=6)
        V = fclass.table(P.instances)
        for loss in (linear_loss, hinge_loss, zero_one_loss):
            risks = risk(loss, P, V)
            assert risks.shape == (fclass.size,)
            for row, r in zip(V, risks):
                assert r == risk(loss, P, row)
            best = int(np.argmin(risks))
            assert lab.brute_force_min(loss, P, fclass) == (best, float(risks[best]))


def test_function_class_table_rejects_uncovered_instance():
    fclass = lab.FiniteFunctionClass(((0.0,), (1.0,)), np.array([[1.0, -1.0]]))
    assert fclass.table(np.array([[1.0], [0.0]])).tolist() == [[-1.0, 1.0]]
    with pytest.raises(InputError):
        fclass.table(np.array([[0.0], [2.0]]))


def test_brute_force_respects_theorem_floor():
    # unit-norm linear score tables cannot beat 1 - ||omega_P||
    from meanherd.classifier import mean_norm

    rng = np.random.default_rng(0)
    P = lab.random_distribution(rng)
    floor = 1.0 - mean_norm(P, KernelSpec("linear", normalized=False))
    X = P.instances
    instances = sorted_instances(P)
    table = []
    for _ in range(100):
        w = rng.normal(size=2)
        w /= np.linalg.norm(w)
        scores_by_instance = {tuple(x): float(x @ w) for x in X}
        table.append([scores_by_instance[x] for x in rows(instances)])
    fclass = lab.FiniteFunctionClass(instances, np.array(table))
    _, best = lab.brute_force_min(linear_loss, P, fclass)
    assert best >= floor - 1e-10


# ---------------------------------------------------------------------------
# Theorem checks


def test_surrogate_regret_random_audit():
    report = lab.check_surrogate_regret(trials=300, seed=1)
    assert report.passed


# The surrogate-regret audit one trial at a time, the reference for the stacked table:
# a distribution, its sorted instances, a one-member class's table and four risk calls.


def per_trial_regret_gap(P: DiscreteDistribution, v: np.ndarray) -> float:
    bayes = np.where(1.0 - 2.0 * P.eta() >= 0.0, -1.0, 1.0)
    mis_regret = risk(zero_one_loss, P, v) - risk(zero_one_loss, P, bayes)
    lin_regret = risk(linear_loss, P, v) - risk(linear_loss, P, bayes)
    return mis_regret - lin_regret


def per_trial_draws(trials: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        Q = lab.random_distribution(rng, max_support=lab._REGRET_MAX_SUPPORT)
        yield Q, lab.random_function_class(rng, sorted_instances(Q), k=1).table(Q.instances)[0]


def stacked(dists, scores):
    """The rows ``_regret_gaps`` takes: every atom of every distribution, tagged by its index."""
    trial = np.repeat(np.arange(len(dists)), [len(P) for P in dists])
    X, y, p = (np.concatenate(a) for a in
               zip(*((P.instances, P.labels, P.probabilities) for P in dists)))
    return trial, X, y, p, np.concatenate(scores)


@pytest.mark.parametrize("seed", range(5))
def test_surrogate_regret_table_equals_per_trial_oracle(seed):
    worst = max(per_trial_regret_gap(Q, v) for Q, v in per_trial_draws(300, seed))
    assert lab.check_surrogate_regret(trials=300, seed=seed).assertions[0].measured == worst


@pytest.mark.parametrize("seed, measured", [(0, -0.02366931584461196), (1, -0.028897563791715486),
                                            (2, -0.01285591440553362), (3, -0.01664962880653631)])
def test_surrogate_regret_pinned(seed, measured):
    report = lab.check_surrogate_regret(trials=1000, seed=seed)
    assert report.passed
    assert report.assertions[0].measured == measured


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_random_distribution_draws_as_before(seed):
    # the inline draw random_distribution made before _draw_atoms: every other suite's stream
    def inline(rng, max_support=6):
        m = int(rng.integers(2, max_support + 1))
        return rng.normal(size=(m, 2)), rng.choice((-1, 1), size=m), rng.dirichlet(np.ones(m))

    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    for max_support in (6, 6, lab._REGRET_MAX_SUPPORT, 6):
        X, y, p = inline(old, max_support)
        P = lab.random_distribution(new, max_support)
        assert np.array_equal(P.instances, X) and np.array_equal(P.labels, y)
        assert np.array_equal(P.probabilities, p)
    assert old.integers(1 << 62) == new.integers(1 << 62)


@pytest.mark.parametrize("seed", range(5))
def test_regret_gaps_equal_the_per_trial_oracle_trial_by_trial(seed):
    dists, scores = zip(*per_trial_draws(300, seed))
    gaps = lab._regret_gaps(*stacked(dists, scores))
    assert gaps.tolist() == [per_trial_regret_gap(Q, v) for Q, v in zip(dists, scores)]


def test_regret_gaps_match_the_oracle_on_repeated_instances():
    # one instance carrying both labels gives 0 < eta < 1; trial 1 repeats trial 0's atoms
    P = DiscreteDistribution(np.array([[0.0], [0.0], [1.0]]), np.array([1, -1, 1]),
                             np.array([0.5, 0.2, 0.3]))
    Q = DiscreteDistribution(np.array([[0.0], [0.0]]), np.array([1, -1]), np.array([0.3, 0.7]))
    dists, scores = [P, Q, P], [np.array([-0.4, -0.4, 0.9]), np.array([0.2, 0.2]), np.zeros(3)]
    gaps = lab._regret_gaps(*stacked(dists, scores))
    assert gaps.tolist() == [per_trial_regret_gap(D, v) for D, v in zip(dists, scores)]


def test_regret_gaps_negative_control():
    # v = 2 * Bayes lies outside |v| <= 1, where the bound fails: every gap is about +1
    dists = [Q for Q, _ in per_trial_draws(200, 0)]
    bayes = [np.where(1.0 - 2.0 * Q.eta() >= 0.0, -1.0, 1.0) for Q in dists]
    gaps = lab._regret_gaps(*stacked(dists, [2.0 * b for b in bayes]))
    assert np.allclose(gaps, 1.0, atol=1e-12)
    assert np.max(gaps) > 1e-12  # the audit's check_le would fail on these scores


def test_regret_gaps_checks_each_trial_as_a_distribution():
    P = small_P()
    args = stacked([P, P], [np.zeros(3), np.zeros(3)])
    assert lab._regret_gaps(*args).shape == (2,)  # equal atoms in two trials are fine
    trial, X, y, p, v = args
    with pytest.raises(InputError, match="distinct"):
        lab._regret_gaps(np.zeros(6, dtype=int), X, y, p / 2, v)
    with pytest.raises(InputError, match="sum to 1"):
        lab._regret_gaps(trial, X, y, p * 0.9, v)
    with pytest.raises(InputError, match="non-negative"):
        lab._regret_gaps(trial, X, y, np.tile([1.2, -0.4, 0.2], 2), v)
    with pytest.raises(DataError):
        lab._regret_gaps(trial, np.where(X == 1.0, np.nan, X), y, p, v)


@pytest.mark.parametrize("trials", [0, -5])
def test_surrogate_regret_needs_a_trial(trials):
    with pytest.raises(InputError, match="trials"):
        lab.check_surrogate_regret(trials=trials)


def test_sln_immunity_report():
    report = lab.check_sln_immunity(small_P(), (0.1, 0.25, 0.4))
    assert report.passed
    assert report.inputs["kernel"] == lab.SUITE_KERNEL.to_dict()
    with pytest.raises(InputError):
        lab.check_sln_immunity(small_P(), (0.6,))
    # sigma takes flip_symmetric's rate rule: 0 passes trivially, 1/2 is refused
    assert lab.check_sln_immunity(small_P(), (0.0,)).passed
    with pytest.raises(InputError, match="rates must be >= 0 with sum < 1"):
        lab.check_sln_immunity(small_P(), (0.5,))


def test_sln_immunity_degenerate_zero_mean():
    P = DiscreteDistribution(
        instances=np.array([[1.0], [1.0]]), labels=np.array([1, -1]),
        probabilities=np.array([0.5, 0.5]),
    )
    report = lab.check_sln_immunity(P, (0.25,))
    assert report.passed  # both classifiers abstain everywhere


def test_contamination_q_equals_p():
    P = small_P()
    report = lab.check_contamination(P, P, 0.3)
    assert report.passed
    assert report.extras["perturbation"] == 0.0


def test_contamination_dimension_mismatch_is_an_input_error():
    Q = DiscreteDistribution(np.zeros((1, 3)), np.ones(1, dtype=int), np.ones(1))
    with pytest.raises(InputError, match="dimension mismatch: 2 vs 3"):
        lab.check_contamination(small_P(), Q, 0.1)


def test_contamination_one_way_no_assertion():
    P = small_P()
    flipped = flip_symmetric(P, 0.49999999)  # nearly erases the mean
    Q = DiscreteDistribution(
        instances=P.instances, labels=-P.labels, probabilities=P.probabilities
    )
    report = lab.check_contamination(P, Q, 1.0)
    del flipped
    if report.extras["perturbation"] >= report.extras["margin"]:
        assert report.notes  # report-only branch
        assert not report.assertions


def test_ber_immunity_identity_and_argmin():
    rng = np.random.default_rng(2)
    P_pos = lab.random_distribution(rng).instance_marginal(1)
    P_neg = lab.random_distribution(rng).instance_marginal(-1)
    instances = sorted_instances(P_pos, P_neg)
    fclass = lab.random_function_class(rng, instances, k=6)
    report = lab.check_ber_immunity(linear_loss, P_pos, P_neg, 0.2, 0.1, fclass)
    assert report.passed
    assert report.extras["slope"] == pytest.approx(0.7, abs=1e-15)
    assert report.extras["intercept"] == pytest.approx(0.3, abs=1e-12)


def test_ber_immunity_zero_noise_slope_one():
    rng = np.random.default_rng(3)
    P_pos = lab.random_distribution(rng).instance_marginal(1)
    P_neg = lab.random_distribution(rng).instance_marginal(-1)
    instances = sorted_instances(P_pos, P_neg)
    fclass = lab.random_function_class(rng, instances, k=4)
    report = lab.check_ber_immunity(linear_loss, P_pos, P_neg, 0.0, 0.0, fclass)
    assert report.passed
    assert report.extras["slope"] == 1.0
    assert report.extras["intercept"] == 0.0


def test_ber_immunity_rejects_hinge():
    P_pos = DiscreteDistribution(((0.0,),), [1], np.array([1.0]))
    P_neg = DiscreteDistribution(((1.0,),), [-1], np.array([1.0]))
    fclass = lab.FiniteFunctionClass(((0.0,), (1.0,)), np.zeros((1, 2)) + 0.5)
    with pytest.raises(InputError):
        lab.check_ber_immunity(hinge_loss, P_pos, P_neg, 0.1, 0.1, fclass)


def test_ghosh_bound_zero_table_tight():
    rng = np.random.default_rng(4)
    P = lab.random_distribution(rng)
    table = NoiseFunctionTable(np.zeros(len(P)))
    instances = sorted_instances(P)
    fclass = lab.random_function_class(rng, instances, k=5)
    report = lab.check_ghosh_bound(P, table, linear_loss, fclass)
    assert report.passed
    assert report.extras["clean_minimizer"] == report.extras["corrupted_minimizer"]


def test_ghosh_bound_separable_recovers_zero_loss():
    # a class containing a zero-linear-loss table: corrupted minimization
    # still recovers a zero-clean-loss classifier
    P = DiscreteDistribution(
        instances=np.array([[0.0], [1.0]]), labels=np.array([1, -1]),
        probabilities=np.array([0.5, 0.5]),
    )
    instances = ((0.0,), (1.0,))
    scores = np.array([[1.0, -1.0], [0.3, 0.1], [-0.5, 0.5]])
    fclass = lab.FiniteFunctionClass(instances, scores)
    table = NoiseFunctionTable([0.3, 0.45])
    report = lab.check_ghosh_bound(P, table, linear_loss, fclass)
    assert report.passed
    i_noisy = report.extras["corrupted_minimizer"]
    scores = fclass.table(P.instances)[i_noisy]
    assert risk(linear_loss, P, scores) == pytest.approx(0.0, abs=1e-12)


def test_ghosh_bound_rejects_non_robust_loss():
    P = small_P()
    instances = sorted_instances(P)
    fclass = lab.FiniteFunctionClass(instances, np.zeros((1, 3)))
    with pytest.raises(InputError):
        lab.check_ghosh_bound(P, NoiseFunctionTable([0.1] * 3), hinge_loss, fclass)


# ---------------------------------------------------------------------------
# Argmin invariance and order reversal


@pytest.mark.parametrize("sigma", [0.1, 0.3, 0.45])
def test_linear_loss_argmin_invariant_under_sln(sigma):
    rng = np.random.default_rng(6)
    for _ in range(100):
        P = lab.random_distribution(rng)
        instances = sorted_instances(P)
        fclass = lab.random_function_class(rng, instances, k=7)
        i_clean, _ = lab.brute_force_min(linear_loss, P, fclass)
        i_noisy, _ = lab.brute_force_min(linear_loss, flip_symmetric(P, sigma), fclass)
        assert i_clean == i_noisy


def test_order_reversal_witness_for_hinge():
    witness = lab.order_reversal_witness(hinge_loss, sigma=0.4, seed=0)
    assert witness is not None
    assert witness["clean_gap"] < 0 < witness["noisy_gap"]


def test_no_order_reversal_for_linear():
    assert lab.order_reversal_witness(linear_loss, sigma=0.4, seed=0, trials=2000) is None


@pytest.mark.parametrize("sigma", [float("nan"), 0.5, 0.7, -0.1])
def test_order_reversal_witness_takes_the_flip_rate_rule(sigma):
    with pytest.raises(InputError, match="rates must be >= 0 with sum < 1"):
        lab.order_reversal_witness(hinge_loss, sigma)


@pytest.mark.parametrize("sigma, trials, message", [
    (0.4, 0, "trials must be >= 1, got 0"),
    (0.4, -3, "trials must be >= 1, got -3"),
    (float("nan"), 0, "trials must be >= 1, got 0"),
    (float("nan"), 1, "rates must be >= 0 with sum < 1"),
])
def test_order_reversal_witness_rejects_a_search_of_no_trial(sigma, trials, message):
    # "no witness" (None) is a verdict of a search: none runs without a trial
    # or at a flip rate outside the rule, whatever the trial count
    with pytest.raises(InputError, match=message):
        lab.order_reversal_witness(hinge_loss, sigma, trials=trials)


# ---------------------------------------------------------------------------
# Experiments


def test_long_servedio_report():
    report = lab.run_long_servedio(1.0 / 24.0)
    assert report.passed
    assert report.extras["failing_sigmas"]


def test_long_servedio_failure_onset_decreases_with_gamma():
    onsets = []
    for gamma in (1.0 / 12.0, 1.0 / 24.0, 1.0 / 48.0):
        report = lab.run_long_servedio(gamma)
        assert report.passed
        onsets.append(report.extras["min_failing_sigma"])
    assert onsets[0] >= onsets[1] >= onsets[2]


@pytest.mark.parametrize("gamma, failing", [
    (1.0 / 12.0, [0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]),
    (1.0 / 24.0, [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]),
    (1.0 / 48.0, [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]),
])
def test_long_servedio_hinge_minimizers_are_optimal(gamma, failing):
    """No step of 1e-6 in 64 directions lowers the corrupted hinge risk.

    The risk is convex in w, so a point no small step improves is its
    global minimum.
    """
    P = long_servedio(gamma)
    angles = 2.0 * np.pi * np.arange(64) / 64
    steps = 1e-6 * np.column_stack([np.cos(angles), np.sin(angles)])
    for sigma in (0.0, *lab._LONG_SERVEDIO_SIGMAS):
        P_sigma = flip_symmetric(P, sigma)
        w, r = lab._hinge_min_over_hyperplanes(P, sigma)
        assert risk(hinge_loss, P_sigma, P_sigma.instances @ w) == r
        neighbours = risk(hinge_loss, P_sigma, (w + steps) @ P_sigma.instances.T)
        assert neighbours.min() >= r - 1e-12, sigma
    report = lab.run_long_servedio(gamma)
    assert report.extras["failing_sigmas"] == failing
    assert report.extras["min_failing_sigma"] == failing[0]


def test_compression_experiment_blobs():
    report = lab.run_compression_experiment(eps_list=(0.05,), seed=0, n=400)
    assert report.passed
    curve = report.extras["curve"]
    assert curve[0]["fraction"] < 1.0
    assert abs(curve[0]["accuracy"] - report.extras["baseline_accuracy"]) <= 0.05


@pytest.mark.parametrize("n", [400, 402])
def test_compression_experiment_tests_on_an_even_number_of_points(n, monkeypatch):
    sizes = []

    def blobs(m, *args):
        sizes.append(m)
        return synth_blobs(m, *args)

    monkeypatch.setattr(lab, "synth_blobs", blobs)
    assert lab.run_compression_experiment(eps_list=(0.05,), n=n).passed
    assert sizes == [n, 200]


@pytest.mark.parametrize("seed", range(10))
def test_compression_suite_herds_each_row_to_its_eps(seed):
    [report] = lab.SUITES["compression"](seed)
    assert report.passed
    assert all(row["error"] <= row["eps"] for row in report.extras["curve"])


def test_compression_experiment_reads_a_dataset_asset(tmp_path):
    train, test = synth_blobs(200, 2, 4.0, seed=0), synth_blobs(100, 2, 4.0, seed=1)
    asset = tmp_path / "blobs.npz"
    np.savez(asset, X_train=train.instances, y_train=train.labels,
             X_test=test.instances, y_test=test.labels)
    report = lab.run_compression_experiment(eps_list=(0.05,), dataset_path=asset)
    assert report.passed
    assert report.inputs["dataset"] == str(asset)
    [row] = report.extras["curve"]
    assert row["fraction"] == row["herd_size"] / 200 and row["error"] <= 0.05
    full = fit(train, lab.SUITE_KERNEL).scores(test.instances)
    assert report.extras["baseline_accuracy"] == float(np.mean(test.labels * full > 0))


@pytest.mark.parametrize("make, message", [
    (lambda: lab.FiniteFunctionClass(np.zeros((3, 2)), np.zeros((2, 2))),
     r"scores must be \(k, len\(instances\)\)"),
    (lambda: lab.FiniteFunctionClass(np.zeros((3, 2)), np.zeros((0, 3))),
     "function class must be non-empty"),
    (lambda: lab.FiniteFunctionClass(np.zeros((3, 2)), np.full((1, 3), np.inf)),
     "scores must be finite"),
    (lambda: fit([[0.0], [1.0]], GAUSS),
     "expected LabeledSample or DiscreteDistribution, got list"),
    (lambda: synth_blobs(3, 2, 1.0, seed=0), "n must be even and >= 2"),
    (lambda: synth_blobs(4, 0, 1.0, seed=0), "d must be >= 1"),
    (lambda: synth_blobs(4, 2, 0.0, seed=0), "separation must be > 0"),
], ids=["scores-shape", "empty-class", "non-finite-scores", "fit-type", "blobs-n", "blobs-d",
        "blobs-separation"])
def test_argument_checks_raise_input_error(make, message):
    with pytest.raises(InputError, match=message):
        make()


def test_report_serialization():
    report = lab.check_surrogate_regret(trials=10, seed=0)
    d = report.to_dict()
    assert d["passed"] is True
    assert d["assertions"][0]["tolerance"] == 1e-12
    # no wall-clock fields: repeated runs serialize identically
    assert "runtime" not in d
    assert d == lab.check_surrogate_regret(trials=10, seed=0).to_dict()


def test_a_report_serializes_in_the_check_document_layout():
    report = lab.ExperimentReport(name="r", inputs={"seed": 3})
    report.check("equal", 1.0, 1.5, 0.25)
    report.check_le("below", 0.5, 1, tolerance=1e-12)
    report.check_true("holds", True)
    report.notes.append("a note")
    report.extras["pair"] = ((1.0, -1), (0.5, 0.5))
    assert report.to_dict() == {
        "name": "r",
        "inputs": {"seed": 3},
        "passed": False,
        "assertions": [
            {"name": "equal", "expected": 1.0, "measured": 1.5, "tolerance": 0.25, "passed": False},
            {"name": "below", "expected": "<= 1", "measured": 0.5, "tolerance": 1e-12, "passed": True},
            {"name": "holds", "expected": "true", "measured": "true", "tolerance": 0.0, "passed": True},
        ],
        "notes": ["a note"],
        "extras": {"pair": ((1.0, -1), (0.5, 0.5))},
    }


def test_suites_are_declared_in_run_order():
    assert list(lab.SUITES) == ["surrogate-regret", "sln-immunity", "contamination", "ber-immunity",
                                "ghosh", "long-servedio", "compression", "order-reversal"]


def test_each_suite_gives_its_count_of_reports_at_seed_0():
    counts = [len(reports(0)) for reports in lab.SUITES.values()]
    assert counts == [1, 20, 20, 20, 50, 1, 1, 1]
