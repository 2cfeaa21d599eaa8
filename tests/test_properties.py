"""Property-based checks over randomized inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from meanherd import embedding as emb
from meanherd.data import DiscreteDistribution, LabeledSample, flip_symmetric, load_csv, load_sparse
from meanherd.errors import MeanHerdError
from meanherd.kernels import KernelSpec, cross_gram
from meanherd.losses import correct_sln, hinge_loss, linear_loss

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def distributions():
    def build(points, labels, weights):
        atoms = []
        seen = set()
        for (a, b), y in zip(points, labels):
            key = ((a, b), y)
            if key not in seen:
                seen.add(key)
                atoms.append(key)
        w = np.asarray(weights[: len(atoms)], dtype=float) + 1e-3
        w = w / w.sum()
        return DiscreteDistribution(support=tuple(atoms), probabilities=w)

    return st.builds(
        build,
        st.lists(st.tuples(finite, finite), min_size=1, max_size=5),
        st.lists(st.sampled_from((-1, 1)), min_size=5, max_size=5),
        st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    )


@settings(max_examples=60, deadline=None)
@given(distributions(), st.floats(0.0, 0.49))
def test_flip_symmetric_conserves_mass(P, sigma):
    P_s = flip_symmetric(P, sigma)
    assert abs(P_s.probabilities.sum() - 1.0) <= 1e-12
    assert np.all(P_s.probabilities >= 0)


@settings(max_examples=60, deadline=None)
@given(distributions(), st.floats(0.01, 0.49))
def test_noise_scaling_property(P, sigma):
    spec = KernelSpec("gaussian", bandwidth=1.0)
    diff = emb.combine(
        (1.0, emb.Embedding.from_distribution(flip_symmetric(P, sigma))),
        (-(1.0 - 2.0 * sigma), emb.Embedding.from_distribution(P)),
    )
    assert emb.norm(spec, diff) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(finite, finite), min_size=1, max_size=6),
    st.floats(0.1, 3.0),
)
def test_gaussian_gram_bounded_and_unit_diagonal(points, bandwidth):
    spec = KernelSpec("gaussian", bandwidth=bandwidth)
    X = np.asarray(points, dtype=float)
    K = cross_gram(spec, X, X)
    assert np.all(K <= 1.0 + 1e-12)
    assert np.all(K >= 0.0)
    assert np.allclose(np.diag(K), 1.0)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((-1, 1)), finite, st.floats(0.0, 0.45))
def test_corrected_loss_pointwise_unbiased(y, v, sigma):
    for loss in (linear_loss, hinge_loss):
        corrected = correct_sln(loss, sigma)
        noisy = (1 - sigma) * float(corrected(y, v)) + sigma * float(corrected(-y, v))
        assert abs(noisy - float(loss(y, v))) <= 1e-10


TOKENS = st.one_of(
    st.sampled_from(("1", "-1", "0", "nan", "inf", "-inf", "1e400", "")),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}:{}".format, st.integers(-1, 4), st.sampled_from(("0.5", "nan", "x", ""))),
    st.text(alphabet="ab:#-+.e, \t\"", max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(TOKENS, max_size=5), max_size=5), st.sampled_from((-1, 0, 1, 3, -4)))
def test_loaders_return_a_sample_or_raise_meanherd_errors(tmp_path_factory, rows, label_column):
    """Malformed rows end in a package error, never in another exception."""
    path = tmp_path_factory.getbasetemp() / "loader-fuzz.txt"
    for sep, load in ((",", lambda p: load_csv(p, label_column)), (" ", load_sparse)):
        path.write_text("\n".join(sep.join(row) for row in rows) + "\n")
        try:
            S = load(path)
        except MeanHerdError:
            continue
        assert isinstance(S, LabeledSample)
        assert np.all(np.isfinite(S.instances)) and set(S.labels.tolist()) <= {-1, 1}
