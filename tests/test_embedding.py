import numpy as np
import pytest

from meanherd import embedding as emb
from meanherd.classifier import distance
from meanherd.data import DiscreteDistribution, flip_symmetric
from meanherd.errors import ConsistencyError
from meanherd.kernels import KernelSpec


def test_squared_norm_matches_feature_space_linear():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 3))
    y = rng.choice((-1, 1), size=7)
    explicit = np.linalg.norm(np.mean(y[:, np.newaxis] * X, axis=0)) ** 2
    assert emb.squared_norm(KernelSpec("linear"), X, y / 7.0) == pytest.approx(explicit, abs=1e-12)


def test_noise_scaling_identity_machine_precision():
    # The reason squared_norm merges equal points: coefficient-level
    # cancellation gives ~1e-17 norms instead of sqrt(eps) (~2e-9 unmerged here).
    rng = np.random.default_rng(0)
    P = DiscreteDistribution(
        instances=rng.normal(size=(5, 2)),
        labels=rng.choice((-1, 1), size=5),
        probabilities=rng.dirichlet(np.ones(5)),
    )
    spec = KernelSpec("gaussian", bandwidth=1.0)
    for sigma in (0.1, 0.25, 0.4):
        assert distance(spec, flip_symmetric(P, sigma), P, 1.0 - 2.0 * sigma) <= 1e-12


def test_norm_clamps_tiny_negative():
    # a cancelling embedding: the merge sums its coefficients to exactly 0, so no
    # rounding residue reaches the clamp (test_psd_* covers the clamp itself)
    X = np.array([[1.0], [1.0]])
    assert emb.squared_norm(KernelSpec("gaussian", bandwidth=1.0), X, np.array([1.0, -1.0])) == 0.0


def test_psd_clamps_rounding_and_rejects_indefinite():
    assert emb.psd(-1e-13) == 0.0
    assert emb.psd(0.25) == 0.25
    with pytest.raises(ConsistencyError):
        emb.psd(-1e-11)


def test_psd_floor_scales_with_the_terms_of_the_sum():
    # -1e-12 max(1, scale): today's floor for scale <= 1, proportional beyond
    assert emb.psd(-1e-3, scale=1e12) == 0.0
    with pytest.raises(ConsistencyError, match="below -1e-12"):
        emb.psd(-1e-11, scale=0.5)
    with pytest.raises(ConsistencyError, match="below -1"):
        emb.psd(-2.0, scale=1e12)


def test_mmd_of_nearby_large_scale_sets_is_not_reported_indefinite():
    # at the 1e6 scale, the squared norm of A - (A + 1e-4 noise) rounds to about
    # -1e-6 in half of such cases; the scaled floor clamps every one to >= 0
    from meanherd.classifier import mmd
    rng = np.random.default_rng(0)
    for _ in range(100):
        A = rng.standard_normal((5, 3)) * 1e6
        assert mmd(A, A + rng.standard_normal((5, 3)) * 1e-4, KernelSpec("linear")) >= 0.0
