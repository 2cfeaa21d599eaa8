import json
import tracemalloc

import numpy as np
import pytest

from meanherd import kernels
from meanherd.errors import DataError, InputError
from meanherd.kernels import (
    KernelSpec,
    cross_gram,
    kernel_rows,
    kernel_sums,
    self_sums,
)

KERNELS = ["linear", "linear:norm", "gaussian:0.8", "poly:3:1.0", "poly:2:0.5:norm"]


def test_linear_kernel_is_dot_product():
    spec = KernelSpec("linear")
    assert cross_gram(spec, [[1.0, 2.0]], [[3.0, -1.0]])[0, 0] == 1.0
    assert cross_gram(spec, [[0.0, 0.0]], [[3.0, -1.0]])[0, 0] == 0.0


def test_gaussian_kernel_convention():
    # exp(-||x - x'||^2 / (2 h^2)) with h = 1: distance sqrt(2) gives e^-1
    spec = KernelSpec("gaussian", bandwidth=1.0)
    v = cross_gram(spec, [[0.0, 0.0]], [[1.0, 1.0]])[0, 0]
    assert v == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert cross_gram(spec, [[2.0, 3.0]], [[2.0, 3.0]])[0, 0] == 1.0


def test_gaussian_bandwidth_scaling():
    spec = KernelSpec("gaussian", bandwidth=2.0)
    v = cross_gram(spec, [[0.0]], [[2.0]])[0, 0]
    assert v == pytest.approx(np.exp(-4.0 / 8.0), abs=1e-15)


def test_polynomial_kernel():
    spec = KernelSpec("polynomial", degree=2, offset=1.0)
    # (x.z + 1)^2 with x.z = 2
    assert cross_gram(spec, [[1.0, 1.0]], [[1.0, 1.0]])[0, 0] == 9.0


def test_normalized_polynomial_is_bounded():
    spec = KernelSpec("polynomial", degree=3, offset=0.0, normalized=True)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 3))
    K = cross_gram(spec, X, X)
    assert np.all(np.abs(K) <= 1.0 + 1e-12)
    assert np.allclose(np.diag(K), 1.0)
    assert spec.bounded


def test_normalization_zero_vector_guard():
    spec = KernelSpec("linear", normalized=True)
    z = np.zeros((1, 2))
    x = np.array([[1.0, 0.0]])
    assert cross_gram(spec, z, z)[0, 0] == 1.0
    assert cross_gram(spec, z, x)[0, 0] == 0.0


def test_boundedness_metadata():
    assert KernelSpec("gaussian", bandwidth=1.0).bounded
    assert not KernelSpec("linear").bounded
    assert KernelSpec("linear", normalized=True).bounded


def test_gram_matrix_symmetric_and_psd():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(15, 4))
    for spec in (
        KernelSpec("linear"),
        KernelSpec("gaussian", bandwidth=0.7),
        KernelSpec("polynomial", degree=2, offset=1.0),
    ):
        G = cross_gram(spec, X, X)
        assert np.array_equal(G, G.T)
        assert np.linalg.eigvalsh(G)[0] >= -1e-10


@pytest.mark.parametrize("text", KERNELS)
def test_kernel_sums_match_dense_product_across_blocks(monkeypatch, text):
    # 64 entries per block over 7 columns gives blocks of 9 rows, so the
    # 50 rows end in a partial block.
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 64)
    monkeypatch.setattr(kernels, "BLOCK_ROWS", 1)
    spec = KernelSpec.parse(text)
    rng = np.random.default_rng(11)
    X = rng.normal(size=(50, 3))
    X[4] = 0.0  # exercises the zero-vector guard of normalized kernels
    Z = np.vstack([rng.normal(size=(6, 3)), np.zeros((1, 3))])
    coef = rng.normal(size=7)
    expected = cross_gram(spec, X, Z) @ coef
    assert np.allclose(kernel_sums(spec, X, Z, coef), expected, rtol=0, atol=1e-12)


def support(n: int, seed: int = 12) -> np.ndarray:
    """n points in 3-D with a zero vector and two duplicate rows among them."""
    X = np.random.default_rng(seed).normal(size=(n, 3))
    X[n // 3] = 0.0
    X[n - 1] = X[1 % n]
    return X


def dense_kernel(spec, X, Z):
    """K(X, Z) from the kernel's formula on whole matrices, without prepared points:
    (X Z^T + c)^p / sqrt(K(x, x) K(z, z)) for polynomial kernels, where a zero
    K(x, x) only matches itself (K(0, 0) = 1, K(0, z) = 0)."""
    if spec.kind == "gaussian":
        sq = np.sum((X[:, None, :] - Z[None, :, :]) ** 2, axis=2)
        return np.exp(-sq / (2.0 * spec.bandwidth**2))

    def power(G):
        return G if spec.kind == "linear" else (G + spec.offset) ** spec.degree

    K = power(X @ Z.T)
    if spec.normalized:
        kx, kz = power(np.sum(X * X, axis=1)), power(np.sum(Z * Z, axis=1))
        denom = np.sqrt(np.outer(kx, kz))
        K = np.divide(K, denom, out=np.zeros_like(K), where=denom > 0)
        K[np.outer(kx == 0, kz == 0)] = 1.0
    return K


@pytest.mark.parametrize("text", KERNELS)
def test_block_matches_the_dense_formula(text):
    spec = KernelSpec.parse(text)
    X, Z = support(30, seed=15), support(20, seed=16)
    expected = dense_kernel(spec, X, Z)
    scale = max(1.0, float(np.max(np.abs(expected))))  # 1 for the bounded kernels
    assert np.allclose(cross_gram(spec, X, Z), expected, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("text", ["linear:norm", "poly:2:1.0:norm"])
def test_normalized_rows_whose_squared_norm_overflows_or_underflows(text):
    # |x|^2 of [1e160, 1] overflows and |z|^2 of [1e-320, 0] underflows, yet
    # x is e1 to double precision and z is e1 exactly; [3, 4] is at cosine
    # 3/5 from both.  With the offset 1 the rows are [1e160, 1, 1] (e1),
    # [1e-320, 0, 1] (e3) and [3, 4, 1] / sqrt(26).
    X = np.array([[1e160, 1.0], [1e-320, 0.0], [3.0, 4.0]])
    cosine = (np.array([[1, 1, 0.6], [1, 1, 0.6], [0.6, 0.6, 1]]) if text == "linear:norm"
              else np.array([[1, 0, 3 / 26**0.5], [0, 1, 1 / 26**0.5], [3 / 26**0.5, 1 / 26**0.5, 1]]))
    spec = KernelSpec.parse(text)
    expected = cosine ** (spec.degree or 1)
    assert np.allclose(cross_gram(spec, X, X), expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("text", KERNELS)
@pytest.mark.parametrize("rows, cols", [(1, 4), (3, 4), (4, 4), (5, 4), (11, 4), (3, 40)])
def test_block_strips_match_one_strip_bitwise(monkeypatch, text, rows, cols):
    # 16 entries per strip over 4 columns are strips of 4 rows: one row,
    # fewer rows than one strip, exactly one strip, one strip + 1 and a
    # partial last strip (4 + 4 + 3); a 40-entry row is longer than a
    # strip, so each strip is one row
    spec = KernelSpec.parse(text)
    X, Z = support(rows, seed=15), support(cols, seed=16)
    a, b = kernels._prepare(spec, X), kernels._prepare(spec, Z)
    monkeypatch.setattr(kernels, "STRIP_ENTRIES", rows * cols)
    whole = kernels._block(spec, a, b)
    monkeypatch.setattr(kernels, "STRIP_ENTRIES", 16)
    assert np.array_equal(kernels._block(spec, a, b), whole)


@pytest.mark.parametrize("text", KERNELS)
@pytest.mark.parametrize("n", [1, 2, 4, 5, 9, 50])
def test_self_sums_match_dense_product_across_blocks(monkeypatch, text, n):
    # 64 entries per block give blocks of 7 rows at n = 9 (a partial block
    # of 2 follows) and of 1 row at n = 50, and one square block for n <= 8.
    # 16 entries per strip: a 4 x 4 block is exactly one strip, a 5 x 5
    # block a strip of 3 rows and a partial one of 2, a 2-row block fewer
    # rows than one strip, and a row of 50 is longer than a strip.
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 64)
    monkeypatch.setattr(kernels, "BLOCK_ROWS", 1)
    monkeypatch.setattr(kernels, "STRIP_ENTRIES", 16)
    spec = KernelSpec.parse(text)
    X = support(n)
    coef = np.random.default_rng(13).normal(size=n)
    K = cross_gram(spec, X, X)
    # 1e-13 of the sum's scale, which is 1 for the bounded kernels
    scale = max(1.0, float(np.max(np.abs(K) @ np.abs(coef))))
    sums = self_sums(spec, X, coef)
    assert np.allclose(sums, K @ coef, rtol=0, atol=1e-13 * scale)
    monkeypatch.setattr(kernels, "STRIP_ENTRIES", n * n)  # every block one strip
    assert np.array_equal(sums, self_sums(spec, X, coef))


@pytest.mark.parametrize("text", ["gaussian:4.0", "linear:norm", "poly:2:1.0:norm"])
def test_one_sum_holds_one_block_and_o_of_n_d_besides(text):
    # the block of max(BLOCK_ENTRIES, BLOCK_ROWS n) float64 entries, at most
    # 10% more for strip temporaries, and a few copies of the (n, d) points
    n, d = 4000, 20
    rng = np.random.default_rng(17)
    X, coef = rng.normal(size=(n, d)), rng.normal(size=n)
    spec = KernelSpec.parse(text)
    bound = 1.1 * max(kernels.BLOCK_ENTRIES, kernels.BLOCK_ROWS * n) * 8 + 4 * n * d * 8
    for call in (lambda: self_sums(spec, X, coef), lambda: kernel_sums(spec, X, X, coef)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


@pytest.mark.parametrize("n, block", [(1, 64), (8, 64), (9, 64), (50, 64), (50, 400), (50, 4096)])
def test_self_sums_evaluate_at_most_half_of_k_plus_the_diagonal_blocks(monkeypatch, n, block):
    # r = block // n rows per block: at most n (n + r) / 2 entries, n^2 for one block
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block)
    monkeypatch.setattr(kernels, "BLOCK_ROWS", 1)
    sizes = []
    evaluate = kernels._block

    def counted(spec, a, b, out=None):
        K = evaluate(spec, a, b, out)
        sizes.append(K.size)
        return K

    monkeypatch.setattr(kernels, "_block", counted)
    self_sums(KernelSpec("gaussian", bandwidth=1.0), support(n), np.ones(n))
    r = min(n, block // n)
    assert sum(sizes) <= n * (n + r) // 2
    assert max(sizes) <= block


@pytest.mark.parametrize("text", KERNELS)
@pytest.mark.parametrize("n", [1, 300, 512])
def test_a_support_of_at_most_512_points_is_one_block(monkeypatch, text, n):
    # 2^18 entries hold a 512 x 512 block, so a sum over at most 512 points
    # is one block and that block's product, bit for bit
    spec = KernelSpec.parse(text)
    X, Z = support(n), support(n, seed=16)
    coef = np.random.default_rng(13).normal(size=n)
    a, b = kernels._prepare(spec, X), kernels._prepare(spec, Z)
    own, other = kernels._block(spec, a, a) @ coef, kernels._block(spec, a, b) @ coef
    shapes = []
    evaluate = kernels._block

    def counted(spec, a, b, out=None):
        K = evaluate(spec, a, b, out)
        shapes.append(K.shape)
        return K

    monkeypatch.setattr(kernels, "_block", counted)
    assert np.array_equal(self_sums(spec, X, coef), own)
    assert np.array_equal(kernel_sums(spec, X, Z, coef), other)
    assert shapes == [(n, n), (n, n)]


@pytest.mark.parametrize("text", KERNELS)
@pytest.mark.parametrize("n", [513, 1000, 4097])
def test_sums_over_many_blocks_match_the_dense_formula(text, n):
    # blocks of 511 rows and a partial one of 2 at n = 513, of 262 rows at
    # n = 1000, and of the 128-row floor at n = 4097
    spec = KernelSpec.parse(text)
    X = support(n)
    coef = np.random.default_rng(13).normal(size=n)
    expected, scale = np.empty(n), 1.0  # 1e-14 of the sum's scale, 1 for the bounded kernels
    for lo in range(0, n, 256):  # dense_kernel a few rows at a time
        K = dense_kernel(spec, X[lo:lo + 256], X)
        expected[lo:lo + 256] = K @ coef
        scale = max(scale, float(np.max(np.abs(K) @ np.abs(coef))))
    for sums in (self_sums(spec, X, coef), kernel_sums(spec, X, X, coef)):
        assert np.allclose(sums, expected, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("text", KERNELS)
def test_kernel_rows_match_cross_gram_rows(text):
    spec = KernelSpec.parse(text)
    X = support(40)
    row = kernel_rows(spec, X)
    K = cross_gram(spec, X, X)
    scale = max(1.0, float(np.max(np.abs(K))))  # 1 for the bounded kernels
    for i in range(X.shape[0]):
        assert np.allclose(row(i), K[i], rtol=0, atol=1e-15 * scale)


def test_gaussian_block_is_the_distance_formula_bitwise_for_power_of_two_bandwidth():
    # scaling by 1/h is exact when h is a power of two, so the block is
    # exp(-max(|x|^2 + |z|^2 - 2 x.z, 0) / (2 h^2)) bit for bit
    rng = np.random.default_rng(14)
    X, Z = rng.normal(size=(30, 20)), rng.normal(size=(17, 20))
    for h in (0.5, 1.0, 4.0):
        sq = np.sum(X * X, axis=1)[:, None] + np.sum(Z * Z, axis=1)[None, :] - 2.0 * (X @ Z.T)
        expected = np.exp(-np.maximum(sq, 0.0) / (2.0 * h**2))
        assert np.array_equal(cross_gram(KernelSpec("gaussian", bandwidth=h), X, Z), expected)


def test_parse_shorthand():
    assert KernelSpec.parse("linear") == KernelSpec("linear")
    assert KernelSpec.parse("linear:norm") == KernelSpec("linear", normalized=True)
    assert KernelSpec.parse("gaussian:2.5") == KernelSpec("gaussian", bandwidth=2.5)
    assert KernelSpec.parse("poly:3") == KernelSpec("polynomial", degree=3)
    assert KernelSpec.parse("poly:2:1.5:norm") == KernelSpec(
        "polynomial", degree=2, offset=1.5, normalized=True
    )


@pytest.mark.parametrize("text", [
    '{"kind": "polynomial", "degree": "3"}',
    '{"kind": "polynomial", "degree": true}',
    '{"kind": "polynomial", "degree": 2.5}',
    '{"kind": "polynomial", "degree": 0}',
    '{"kind": "polynomial", "degree": 1e400}',
    '{"kind": "polynomial", "degree": 2, "offset": "1"}',
    '{"kind": "polynomial", "degree": 2, "offset": NaN}',
    '{"kind": "gaussian", "bandwidth": Infinity}',
    '{"kind": "gaussian", "bandwidth": false}',
    '{"kind": "gaussian", "bandwidth": 1.0, "normalized": true}',
    "gaussian:1.0:norm",
    '{"kind": "gaussian", "bandwidth": 1.0, "degree": 2}',
    '{"kind": "linear", "degree": 3, "bandwidth": -1}',
    '{"kind": "linear", "offset": 1.0}',
    '{"kind": "linear", "normalized": "false"}',
    '{"kind": "linear", "bandwith": 1.0}',
])
def test_parameters_that_break_or_do_nothing_rejected(text):
    with pytest.raises(InputError):
        KernelSpec.parse(text)


@pytest.mark.parametrize("text", [*KERNELS, "gaussian:4", "poly:1", '{"kind": "polynomial", "degree": 3.0}'])
def test_every_written_kernel_document_parses(text):
    spec = KernelSpec.parse(text)
    assert KernelSpec.parse(json.dumps(spec.to_dict())) == spec


def test_parse_json_roundtrip():
    spec = KernelSpec("gaussian", bandwidth=0.5)
    assert KernelSpec.parse(json.dumps(spec.to_dict())) == spec


@pytest.mark.parametrize(
    "bad", ["fourier", "gaussian", "gaussian:0", "gaussian:-1", "poly:0", "linear:2"]
)
def test_parse_rejects(bad):
    with pytest.raises(InputError):
        KernelSpec.parse(bad)


def test_dimension_mismatch():
    spec = KernelSpec("linear")
    with pytest.raises(InputError):
        cross_gram(spec, np.zeros((2, 3)), np.zeros((2, 2)))


@pytest.mark.parametrize("text", KERNELS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_every_evaluator_rejects_a_non_finite_point(text, value):
    spec, good, coef = KernelSpec.parse(text), np.ones((2, 2)), np.ones(2)
    bad = np.array([[0.0, 1.0], [value, 1.0]])
    for evaluate in (lambda X: cross_gram(spec, X, good), lambda X: cross_gram(spec, good, X),
                     lambda X: kernel_sums(spec, X, good, coef),
                     lambda X: kernel_sums(spec, good, X, coef),
                     lambda X: self_sums(spec, X, coef), lambda X: kernel_rows(spec, X),
                     lambda X: kernels.diagonal(spec, X)):
        with pytest.raises(DataError, match=r"^points must be finite \(found nan or inf\)$"):
            evaluate(bad)


def test_finite_points_beyond_a_gaussian_bandwidth_name_the_bandwidth():
    with pytest.raises(DataError, match=r"^gaussian bandwidth 1e-300 is too small for the data"):
        cross_gram(KernelSpec("gaussian", bandwidth=1e-300), [[1.0, 0.0]], [[0.0, 0.0]])
