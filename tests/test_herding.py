import json
import tracemalloc

import numpy as np
import pytest

from meanherd.classifier import MeanClassifier, fit, mean_norm
from meanherd.data import LabeledSample, synth_blobs
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
    h = herd(S, GAUSS, HerdingConfig(tolerance=0.02, max_iterations=2000),
             target_weights=t if weighted else None)
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


def test_target_weights_override():
    S = blob_sample(n=50)
    # all mass on one candidate: the herd must find it exactly
    t = np.zeros(50)
    t[17] = 1.0
    h = herd(S, GAUSS, HerdingConfig(tolerance=1e-6), target_weights=t)
    assert h.size == 1 and h.indices[0] == 17
    assert h.error <= 1e-6
    with pytest.raises(InputError):
        herd(S, GAUSS, target_weights=np.ones(50))


def test_herd_json_roundtrip():
    # a herd document is a model document: it reads back as the sparse classifier
    S = blob_sample(n=60)
    h = herd(S, GAUSS, HerdingConfig(tolerance=0.05, max_iterations=500))
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


def test_kernel_sum_passes_stay_below_n_squared_memory():
    # One n x n float64 matrix at n=3000 is 69 MiB; the blocked passes need
    # a few 16 MiB blocks.
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
