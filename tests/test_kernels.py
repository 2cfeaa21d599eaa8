import json

import numpy as np
import pytest

from meanherd import kernels
from meanherd.errors import InputError
from meanherd.kernels import (
    KernelSpec,
    cross_gram,
    eval_kernel,
    gram,
    kernel_sums,
)


def test_linear_kernel_is_dot_product():
    spec = KernelSpec("linear")
    assert eval_kernel(spec, [1.0, 2.0], [3.0, -1.0]) == 1.0
    assert eval_kernel(spec, [0.0, 0.0], [3.0, -1.0]) == 0.0


def test_gaussian_kernel_convention():
    # exp(-||x - x'||^2 / (2 h^2)) with h = 1: distance sqrt(2) gives e^-1
    spec = KernelSpec("gaussian", bandwidth=1.0)
    v = eval_kernel(spec, [0.0, 0.0], [1.0, 1.0])
    assert v == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert eval_kernel(spec, [2.0, 3.0], [2.0, 3.0]) == 1.0


def test_gaussian_bandwidth_scaling():
    spec = KernelSpec("gaussian", bandwidth=2.0)
    v = eval_kernel(spec, [0.0], [2.0])
    assert v == pytest.approx(np.exp(-4.0 / 8.0), abs=1e-15)


def test_polynomial_kernel():
    spec = KernelSpec("polynomial", degree=2, offset=1.0)
    # (x.z + 1)^2 with x.z = 2
    assert eval_kernel(spec, [1.0, 1.0], [1.0, 1.0]) == 9.0


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
        G = gram(spec, X)
        assert np.array_equal(G, G.T)
        assert np.linalg.eigvalsh(G)[0] >= -1e-10


@pytest.mark.parametrize(
    "text", ["linear", "linear:norm", "gaussian:0.8", "poly:3:1.0", "poly:2:0.5:norm"]
)
def test_kernel_sums_match_dense_product_across_blocks(monkeypatch, text):
    # 64 entries per block over 7 columns gives blocks of 9 rows, so the
    # 50 rows end in a partial block.
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 64)
    spec = KernelSpec.parse(text)
    rng = np.random.default_rng(11)
    X = rng.normal(size=(50, 3))
    X[4] = 0.0  # exercises the zero-vector guard of normalized kernels
    Z = np.vstack([rng.normal(size=(6, 3)), np.zeros((1, 3))])
    coef = rng.normal(size=7)
    expected = cross_gram(spec, X, Z) @ coef
    assert np.allclose(kernel_sums(spec, X, Z, coef), expected, rtol=0, atol=1e-12)


def test_parse_shorthand():
    assert KernelSpec.parse("linear") == KernelSpec("linear")
    assert KernelSpec.parse("linear:norm") == KernelSpec("linear", normalized=True)
    assert KernelSpec.parse("gaussian:2.5") == KernelSpec("gaussian", bandwidth=2.5)
    assert KernelSpec.parse("poly:3") == KernelSpec("polynomial", degree=3)
    assert KernelSpec.parse("poly:2:1.5:norm") == KernelSpec(
        "polynomial", degree=2, offset=1.5, normalized=True
    )


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
