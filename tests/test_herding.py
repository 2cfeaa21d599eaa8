import json
import tracemalloc

import numpy as np
import pytest

from meanherd import embedding as emb
from meanherd import herding, kernels
from meanherd.classifier import MeanClassifier, fit, mean_norm
from meanherd.data import DiscreteDistribution, LabeledSample, synth_blobs
from meanherd.errors import InputError
from meanherd.herding import (
    HerdingConfig,
    approximation_error,
    convergence_report,
    herd,
    parallel_herd,
    recursive_herd,
)
from meanherd.kernels import KernelSpec, cross_gram

GAUSS = KernelSpec("gaussian", bandwidth=1.0)


def blob_sample(n=200, seed=0) -> LabeledSample:
    return synth_blobs(n, 2, 3.0, seed=seed)


def test_config_validation():
    with pytest.raises(InputError):
        HerdingConfig(tolerance=0.0)
    for tolerance in (float("inf"), float("nan")):
        with pytest.raises(InputError, match="tolerance must be finite and > 0"):
            HerdingConfig(tolerance=tolerance)
    with pytest.raises(InputError):
        HerdingConfig(max_iterations=0)
    with pytest.raises(InputError):
        HerdingConfig(step_rule="sgd")
    with pytest.raises(InputError):
        HerdingConfig(step_rule="fully_corrective")


def test_single_point_sample():
    S = LabeledSample(np.array([[1.0, 0.0]]), np.array([1]))
    h = herd(S, GAUSS)
    assert h.size == 1
    assert h.error == 0.0
    assert h.termination == "tolerance"


def test_huge_tolerance_gives_singleton():
    S = blob_sample()
    h = herd(S, GAUSS, HerdingConfig(tolerance=10.0))
    assert h.size == 1


def test_tracked_error_matches_recomputation():
    S = blob_sample()
    h = herd(S, GAUSS, HerdingConfig(tolerance=0.01, max_iterations=5000))
    assert h.termination == "tolerance"
    assert approximation_error(h, S) == pytest.approx(h.error, abs=1e-8)


def test_recomputed_error_is_the_from_scratch_audit():
    # a uniform plain herd audits itself from its own target pass; the
    # from-scratch audit recomputes that pass and must agree exactly
    S = blob_sample()
    h = herd(S, GAUSS, HerdingConfig(tolerance=0.01, max_iterations=5000))
    assert h.recomputed_error == approximation_error(h, S)


def test_trace_non_increasing_under_line_search():
    S = blob_sample()
    h = herd(S, GAUSS, HerdingConfig(tolerance=0.005, max_iterations=5000))
    diffs = np.diff(np.array(h.trace))
    assert np.all(diffs <= 1e-12)


def test_line_search_no_slower_than_uniform():
    S = blob_sample()
    cap = 50
    ls = herd(S, GAUSS, HerdingConfig(tolerance=1e-9, max_iterations=cap))
    un = herd(S, GAUSS, HerdingConfig(tolerance=1e-9, max_iterations=cap, step_rule="uniform"))
    assert ls.trace[-1] <= un.trace[-1] + 1e-12


def test_uniform_rule_gives_uniform_weights():
    S = blob_sample(n=40)
    h = herd(S, GAUSS, HerdingConfig(tolerance=1e-9, max_iterations=10, step_rule="uniform"))
    # after t iterations every selection carries weight 1/t (re-selections sum)
    counts = {}
    assert len(h.trace) == 10
    total_picks = 10
    for a in h.classifier.alphas:
        counts[round(a * total_picks)] = counts.get(round(a * total_picks), 0) + 1
    assert sum(k * v for k, v in counts.items()) == total_picks


def dense_reference_herd(S, kernel, tolerance, max_iterations, t):
    """Line-search Frank-Wolfe written against the explicit label-augmented matrix.

    Every quantity is recomputed from the weight vector w each step, with
    no tracked scalars, so it checks the streaming engine independently.
    """
    y = S.labels.astype(float)
    K = cross_gram(kernel, S.instances, S.instances)
    L = np.outer(y, y) * (0.5 * (K + K.T))  # the symmetrized dense Gram matrix
    c = L @ t
    target_sq = t @ c

    def error(w):
        return float(np.sqrt(max(target_sq - 2.0 * (w @ c) + w @ L @ w, 0.0)))

    w = np.zeros(len(S))
    w[int(np.argmax(c))] = 1.0
    trace = [error(w)]
    while trace[-1] > tolerance and len(trace) < max_iterations:
        z = int(np.argmax(c - L @ w))
        d = -w
        d[z] += 1.0
        numer = d @ (c - L @ w)
        denom = d @ L @ d
        if denom <= 1e-15 or numer <= 1e-15:
            break
        w = w + min(max(numer / denom, 0.0), 1.0) * d
        trace.append(error(w))
    members = np.nonzero(w)[0]
    return members, w[members] / w[members].sum(), trace


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
def test_streaming_matches_explicit_matrix_reference(weighted):
    S = blob_sample(n=120)
    t = np.random.default_rng(8).dirichlet(np.ones(120)) if weighted else np.full(120, 1 / 120)
    data = DiscreteDistribution(S.instances, S.labels, t) if weighted else S
    h = herd(data, GAUSS, HerdingConfig(tolerance=0.02, max_iterations=2000))
    idx, alphas, trace = dense_reference_herd(S, GAUSS, 0.02, 2000, t)
    assert np.array_equal(h.indices, idx)
    assert np.allclose(h.classifier.alphas, alphas, rtol=0, atol=1e-14)
    assert len(h.trace) == len(trace)
    assert np.allclose(h.trace, trace, rtol=0, atol=1e-12)
    assert h.recomputed_error == pytest.approx(trace[-1], abs=1e-12)


def test_max_iterations_reported():
    S = blob_sample()
    h = herd(S, GAUSS, HerdingConfig(tolerance=1e-12, max_iterations=5))
    assert h.termination in ("max_iterations", "stationary")
    assert len(h.trace) <= 6


def test_weights_form_simplex():
    S = blob_sample()
    h = herd(S, GAUSS, HerdingConfig(tolerance=0.02, max_iterations=2000))
    assert np.all(h.classifier.alphas >= 0)
    assert h.classifier.alphas.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(set(h.indices.tolist())) == h.size


def test_herd_of_a_distribution_targets_its_atom_weights():
    S = blob_sample(n=50)
    # all mass on one atom: the herd must find it exactly
    t = np.zeros(50)
    t[17] = 1.0
    h = herd(DiscreteDistribution(S.instances, S.labels, t), GAUSS, HerdingConfig(tolerance=1e-6))
    assert h.size == 1 and h.indices[0] == 17
    assert h.error <= 1e-6
    with pytest.raises(InputError):
        herd(DiscreteDistribution(S.instances, S.labels, np.ones(50)), GAUSS)


def test_herd_json_roundtrip():
    # a herd document is a model document: it reads back as the sparse classifier
    S = blob_sample(n=60)
    h = herd(S, GAUSS, HerdingConfig(tolerance=0.05, max_iterations=500))
    # the document holds the values float() and int() make of the arrays, bit for bit
    members = [[(type(v), repr(v)) for v in (m["alpha"], m["index"])]
               for m in h.to_dict(len(S))["members"]]
    assert members == [[(float, repr(float(a))), (int, repr(int(i)))]
                       for a, i in zip(h.classifier.alphas, h.indices)]
    doc = json.loads(json.dumps(h.to_dict(len(S))))
    back = MeanClassifier.from_dict(doc)
    sparse = h.classifier
    assert back.kernel == sparse.kernel
    assert np.array_equal(back.alphas, sparse.alphas)
    assert np.array_equal(back.labels, sparse.labels)
    assert np.array_equal(back.points, sparse.points)
    assert [m["index"] for m in doc["members"]] == h.indices.tolist()
    assert [m["alpha"] for m in doc["members"]] == h.classifier.alphas.tolist()
    assert doc["error"] == h.error and doc["trace"] == list(h.trace)
    assert doc["meta"]["n_source"] == 60


@pytest.mark.parametrize("variant", ["plain", "parallel", "recursive"])
def test_herd_classifier_holds_its_members(variant):
    # the herd's classifier is the sparse mean classifier of S at the herd's indices
    S = blob_sample(n=120)
    cfg = HerdingConfig(tolerance=0.03, max_iterations=2000)
    h = {"plain": lambda: herd(S, GAUSS, cfg),
         "parallel": lambda: parallel_herd(S, 3, GAUSS, cfg),
         "recursive": lambda: recursive_herd(S, GAUSS, min_size=10, config=cfg)}[variant]()
    clf = h.classifier
    assert clf.kernel == GAUSS
    assert clf.alphas.shape == h.indices.shape
    assert np.array_equal(clf.labels, S.labels[h.indices])
    assert np.array_equal(clf.points, S.instances[h.indices])
    assert len(h.sizes) == len(h.trace)


@pytest.mark.parametrize("variant", ["plain", "parallel", "recursive"])
def test_herd_that_reaches_the_tolerance_ends_tolerance(variant):
    # a parallel or recursive herd ends as the worst of its runs, all of which reach the tolerance here
    S = blob_sample(n=120)
    cfg = HerdingConfig(tolerance=0.03, max_iterations=2000)
    h = {"plain": lambda: herd(S, GAUSS, cfg),
         "parallel": lambda: parallel_herd(S, 3, GAUSS, cfg),
         "recursive": lambda: recursive_herd(S, GAUSS, min_size=10, config=cfg)}[variant]()
    runs = [st.termination for st in h.stages] if variant == "recursive" else [h.termination]
    assert runs and set(runs) == {"tolerance"}
    assert h.termination == "tolerance"


def test_herd_ends_as_its_worst_run():
    # one of four groups, and the first of two stages, stop at the cap while the
    # others reach the tolerance: each herd ends max_iterations
    S = blob_sample(n=120)
    cfg = HerdingConfig(tolerance=0.03, max_iterations=40)
    groups = [herd(S.subset(block), GAUSS, cfg).termination for block in np.array_split(np.arange(120), 4)]
    assert sorted(groups) == ["max_iterations", "tolerance", "tolerance", "tolerance"]
    assert parallel_herd(S, 4, GAUSS, cfg).termination == "max_iterations"
    cfg = HerdingConfig(tolerance=0.03, max_iterations=12)
    h = recursive_herd(S, GAUSS, min_size=10, config=cfg)
    assert [st.termination for st in h.stages] == ["max_iterations", "tolerance"]
    assert h.termination == "max_iterations"
    assert recursive_herd(S, GAUSS, min_size=120, config=cfg).termination == "tolerance"  # no stage


def test_a_target_outside_the_candidates_hull_ends_stationary():
    # candidates x = 0 and x = 1 (label +1) against the linear mean of {0, 1, 3},
    # omega = 4/3: the first pick x = 1 is the hull's closest point, at error 1/3,
    # and the line search toward it again has a zero denominator
    linear = KernelSpec("linear")
    full = fit(LabeledSample([[0.0], [1.0], [3.0]], [1, 1, 1]), linear)
    candidates = fit(LabeledSample([[0.0], [1.0]], [1, 1]), linear)
    c = full.scores(candidates.points)
    target_sq = emb.squared_norm(linear, full.points, full.coef)
    _, members, trace, sizes, termination = herding._frank_wolfe(
        candidates, HerdingConfig(), c, target_sq)
    assert trace == pytest.approx((1.0 / 3.0,), abs=1e-15)
    assert members.tolist() == [1] and sizes == (1,)
    assert termination == "stationary"


# ---------------------------------------------------------------------------
# Parallel and recursive


@pytest.mark.parametrize("groups", [2, 4, 8])
def test_parallel_error_bounded_by_group_tolerance(groups):
    S = blob_sample(n=240)
    eps = 0.05
    h = parallel_herd(S, groups, GAUSS, HerdingConfig(tolerance=eps, max_iterations=5000))
    assert all(e <= eps for e in h.group_errors)
    assert h.error <= eps + 1e-12
    assert approximation_error(h, S) == pytest.approx(h.error, abs=1e-12)


def test_parallel_one_group_matches_plain():
    S = blob_sample(n=100)
    cfg = HerdingConfig(tolerance=0.03, max_iterations=2000)
    plain = herd(S, GAUSS, cfg)
    par = parallel_herd(S, 1, GAUSS, cfg)
    assert np.array_equal(np.sort(plain.indices), np.sort(par.indices))
    assert par.error == pytest.approx(plain.error, abs=1e-10)


def test_parallel_one_group_evaluates_a_plain_herds_kernel_entries(monkeypatch):
    # a group carries no exact error of its own, so one group costs one plain
    # herd: a target pass over half of K (blocks of 20 rows), its Frank-Wolfe
    # rows and the m-member self-sum of the exact error
    n = 150
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 20 * n)
    monkeypatch.setattr(kernels, "BLOCK_ROWS", 1)
    entries = []
    block = kernels._block

    def counted(spec, a, b, out=None):
        K = block(spec, a, b, out)
        entries.append(K.size)
        return K

    monkeypatch.setattr(kernels, "_block", counted)
    S = blob_sample(n=n)
    cfg = HerdingConfig(tolerance=0.03, max_iterations=2000)
    h = herd(S, GAUSS, cfg)
    plain = sum(entries)
    assert plain <= n * (n + 20) // 2 + len(h.trace) * n + h.size ** 2
    entries.clear()
    parallel_herd(S, 1, GAUSS, cfg)
    assert sum(entries) == plain


def test_recursive_shrinks_and_reports_stages():
    S = blob_sample(n=300)
    h = recursive_herd(S, GAUSS, min_size=20,
                       config=HerdingConfig(tolerance=0.02, max_iterations=5000))
    assert h.size < 300
    assert h.stages, "at least one stage must be recorded"
    assert h.stages[0].size_before == 300
    # triangle inequality: total error at most the sum of stage errors
    assert h.error <= sum(st.error for st in h.stages) + 1e-10
    assert approximation_error(h, S) == pytest.approx(h.error, abs=1e-12)


def test_recursive_respects_min_size():
    S = blob_sample(n=100)
    h = recursive_herd(S, GAUSS, min_size=90, config=HerdingConfig(tolerance=0.5))
    assert all(st.size_before > 90 for st in h.stages)


def test_recursive_stops_when_a_stage_keeps_every_member():
    # two points of one label: the stage needs both, and herding them again would never end
    S = LabeledSample(np.array([[0.0], [1.0]]), np.array([1, 1]))
    h = recursive_herd(S, GAUSS, min_size=1, config=HerdingConfig(tolerance=1e-9))
    assert [(st.size_before, st.size_after) for st in h.stages] == [(2, 2)]
    assert h.size == 2 and h.error <= 1e-9


def test_kernel_sum_passes_stay_below_n_squared_memory():
    # One n x n float64 matrix at n=3000 is 69 MiB; the blocked passes need
    # a few 2 MiB blocks.
    S = synth_blobs(3000, 20, 4.0, seed=1)
    kernel = KernelSpec("gaussian", bandwidth=4.0)
    h = herd(S, kernel, HerdingConfig(tolerance=0.05))
    for run in (
        lambda: herd(S, kernel, HerdingConfig(tolerance=0.05)),
        lambda: approximation_error(h, S),
        lambda: mean_norm(S, kernel),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# Classifier bridge


def test_sparse_classifier_supnorm_guarantee():
    S = blob_sample(n=250)
    h = herd(S, GAUSS, HerdingConfig(tolerance=0.02, max_iterations=5000))
    sparse = h.classifier
    full = fit(S, GAUSS)
    rng = np.random.default_rng(5)
    probes = rng.normal(scale=3.0, size=(500, 2))
    gap = np.max(np.abs(full.scores(probes) - sparse.scores(probes)))
    assert gap <= h.error + 1e-12


def test_convergence_report():
    S = blob_sample()
    h = herd(S, GAUSS, HerdingConfig(tolerance=0.01, max_iterations=5000))
    rep = convergence_report(h.trace)
    assert rep.monotone
    assert rep.fitted_rate < 0.0
    with pytest.raises(InputError):
        convergence_report((1.0, 0.5))


@pytest.mark.parametrize("trace, rate", [((1.0, 0.5, 0.0, 0.0), np.log(0.5)),
                                         ((1.0, 0.0, 0.0), 0.0)])
def test_convergence_report_fits_the_positive_error_prefix(trace, rate):
    # log(0) is no point of the fit: the rate is fitted before the first zero
    # error, and is 0 when fewer than two errors precede it
    rep = convergence_report(trace)
    assert rep.monotone
    assert rep.fitted_rate == pytest.approx(rate, abs=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda S: parallel_herd(S, 0, GAUSS), r"groups must lie in \[1, 20\], got 0"),
    (lambda S: parallel_herd(S, 21, GAUSS), r"groups must lie in \[1, 20\], got 21"),
    (lambda S: recursive_herd(S, GAUSS, min_size=0), "min_size must be >= 1"),
    (lambda S: approximation_error(herd(S, GAUSS), S.subset(np.arange(2))),
     "herd indices out of range"),
])
def test_herding_rejects_bad_arguments(call, message):
    with pytest.raises(InputError, match=message):
        call(blob_sample(n=20))


@pytest.mark.parametrize("other", [
    lambda S: synth_blobs(len(S), 2, 2.0, seed=1),
    lambda S: LabeledSample(S.instances + 5.0, S.labels),
    lambda S: LabeledSample(S.instances, -S.labels),
], ids=["another-draw", "shifted-rows", "flipped-labels"])
def test_approximation_error_audits_a_herd_against_its_own_sample_only(other):
    # Another sample's rows at the herd's indices are not the herd's members,
    # so an audit against it would mix the two samples' terms: at seed 1's
    # sample it read 0.0 where the two embeddings lie 0.066 apart.
    S = synth_blobs(400, 2, 2.0, seed=0)
    h = herd(S, GAUSS, HerdingConfig(tolerance=0.02))
    assert approximation_error(h, S) == h.recomputed_error
    with pytest.raises(InputError, match="not the sample's rows at its indices"):
        approximation_error(h, other(S))
