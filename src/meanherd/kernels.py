"""Kernel functions and blocked kernel sums.

All classifiers in this package score by weighted kernel sums, so every
other module funnels through the evaluators here: ``kernel_sums`` for
K(X, Z) @ coef, ``self_sums`` for K(X, X) @ coef over the upper triangle
of the symmetric K (about n^2 / 2 entries), and ``kernel_rows`` for the
single rows herding selects.  All three, and ``cross_gram``, evaluate one
block evaluator, ``_block``, on points prepared once per call by
``_prepare``, which does every per-point term so that no row or block
recomputes one.  A linear or polynomial kernel, normalized or not, is an
inner product of prepared rows: a polynomial row gains a column
sqrt(offset); a normalized row gains a column that is 1 on a zero row
only, so K(0, 0) = 1 and K(0, z) = 0, and is divided by its largest
|entry|, so its squared norm neither overflows nor underflows, then by its
norm.  ``_block`` finishes the gemm (a polynomial's power, a Gaussian's
exp) in row strips of at most ``STRIP_ENTRIES`` entries, small enough to
stay in cache, and a sum evaluates all its blocks into one buffer, so a
sum holds one block, a strip-sized temporary and the prepared points,
never n x n, and a block beyond the allocator's mmap threshold is mapped
and faulted in once per sum, not once per block.  A block is
``max(BLOCK_ROWS, BLOCK_ENTRIES // m)`` rows of m columns: at most 2 MiB
up to m = 2048, and BLOCK_ROWS x m entries beyond.  Every evaluator reads
its points through ``_as_matrix``, which rejects nan and inf with a
DataError, so no non-finite point reaches a block.

The theory modules assume bounded feature maps (|K(x,x')| <= 1); the
gaussian kernel is bounded by construction, linear and polynomial kernels
only after opting in to cosine normalization via ``normalized=True``.

Gaussian convention: K(x,x') = exp(-||x - x'||^2 / (2 h^2)) with h the
bandwidth.  This is fixed once here and used everywhere.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DataError, InputError

# The parameters each kind uses, in the order of its shorthand, where
# ``normalized`` is the optional trailing ``norm`` token and a parameter with
# a default may be left out.  ``to_dict`` writes these with ``kind`` and
# ``normalized``, and a parameter of another kind must keep its default, so
# none is ignored (gaussian is normalized already: K(x, x) = 1).
_PARAMETERS = {"linear": ("normalized",), "gaussian": ("bandwidth",),
               "polynomial": ("degree", "offset", "normalized")}
VALID_KINDS = tuple(_PARAMETERS)
_SHORTHAND = "linear[:norm], gaussian:<bandwidth> or poly:<degree>[:<offset>][:norm]"

# Kernel entries per row block in ``kernel_sums`` and ``self_sums``:
# 2**18 float64 = 2 MiB, so a block's gemv passes read from cache, and a
# sum's freed block buffer that the allocator keeps resident holds 2 MiB,
# not 16.  A block is never thinner than ``BLOCK_ROWS`` rows, so beyond
# 2048 points a block is BLOCK_ROWS x n entries and the gemm does not
# re-read every point for each few rows (at 64 rows a linear sum over
# 20000 points is 4-6% slower than at 128).
BLOCK_ENTRIES = 2**18
BLOCK_ROWS = 128

# Kernel entries per row strip in which ``_block`` finishes a block after
# its gemm: 2**15 float64 = 256 KiB, so a strip stays in L2 cache through
# all of its elementwise passes instead of each pass streaming the block
# through RAM.
STRIP_ENTRIES = 2**15


def _real(value) -> float:
    """``value`` as a float if it is a finite real number (not a bool), else nan."""
    real = not isinstance(value, bool) and isinstance(value, numbers.Real)
    return float(value) if real and abs(value) <= sys.float_info.max else math.nan


@dataclass(frozen=True)
class KernelSpec:
    """Parameterized similarity function with boundedness metadata."""

    kind: str
    bandwidth: float | None = None
    degree: int | None = None
    offset: float = 0.0
    normalized: bool = False

    def __post_init__(self):
        kind = self.kind
        if kind not in VALID_KINDS:
            raise InputError(f"unknown kernel kind {kind!r}, expected one of {VALID_KINDS}")
        unused = [f.name for f in fields(self)[1:]
                  if f.name not in _PARAMETERS[kind] and getattr(self, f.name) not in (None, 0.0, False)]
        if unused:
            raise InputError(f"{kind} kernel takes no {' or '.join(unused)}")
        if not isinstance(self.normalized, bool):
            raise InputError(f"kernel normalized must be true or false, got {self.normalized!r}")
        if kind == "gaussian" and not _real(self.bandwidth) > 0:
            raise InputError("gaussian kernel requires a finite bandwidth > 0")
        if kind == "polynomial" and not (_real(self.degree) >= 1 and float(self.degree).is_integer()):
            raise InputError("polynomial kernel requires an integral degree >= 1")
        if kind == "polynomial" and not _real(self.offset) >= 0:
            raise InputError("polynomial offset must be a finite number >= 0")

    @property
    def bounded(self) -> bool:
        """True when |K| <= 1 and K(x,x) = 1 hold for all inputs."""
        return self.kind == "gaussian" or self.normalized

    def to_dict(self) -> dict:
        return {"kind": self.kind, "normalized": self.normalized,
                **{name: getattr(self, name) for name in _PARAMETERS[self.kind]}}

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise InputError(f"unknown kernel parameter(s) {unknown}")
        return cls(**d)

    @classmethod
    def parse(cls, text: str) -> "KernelSpec":
        """Parse either a JSON object or the CLI shorthand, ``_SHORTHAND``.

        The tokens after the kind are the kind's ``_PARAMETERS`` in order:
        an integer for the degree, a number for the others.
        """
        text = text.strip()
        if text.startswith("{"):
            try:
                return cls.from_dict(json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                raise InputError(f"bad kernel JSON {text!r}: {exc}") from None
        kind, *tokens = text.split(":")
        kind = "polynomial" if kind == "poly" else kind
        if kind not in _PARAMETERS:
            raise InputError(f"unknown kernel shorthand {text!r}")
        normalized = tokens[-1:] == ["norm"]
        tokens = tokens[:len(tokens) - normalized]
        names = [name for name in _PARAMETERS[kind] if name != "normalized"]
        required = sum(cls.__dataclass_fields__[name].default is None for name in names)
        if not required <= len(tokens) <= len(names):
            raise InputError(f"bad kernel shorthand {text!r}: expected {_SHORTHAND}")
        try:  # an InputError is a ValueError too
            return cls(kind, normalized=normalized, **{
                name: (int if name == "degree" else float)(token) for name, token in zip(names, tokens)})
        except ValueError as exc:
            raise InputError(f"bad kernel shorthand {text!r}: {exc}") from exc


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[np.newaxis, :]
    if X.ndim != 2:
        raise InputError(f"expected points of shape (n, d), got {X.shape}")
    if not np.isfinite(X).all():
        raise DataError("points must be finite (found nan or inf)")
    return X


class _Points(NamedTuple):
    """For gaussian, the points scaled by 1/h (``x``) and half their squared
    norms (``t``); for other kernels, the prepared rows and no ``t``."""

    x: np.ndarray
    t: np.ndarray | None

    def rows(self, lo: int, hi: int) -> "_Points":
        return _Points(self.x[lo:hi], None if self.t is None else self.t[lo:hi])


def _prepare(spec: KernelSpec, X: np.ndarray) -> _Points:
    if spec.kind == "gaussian":
        with np.errstate(over="ignore"):
            Xr = X / spec.bandwidth
            t = 0.5 * np.sum(Xr * Xr, axis=1)
        if np.isinf(t).any():
            raise DataError(f"gaussian bandwidth {spec.bandwidth!r} is too small for the data: "
                            f"|x / bandwidth|^2 is beyond the float range")
        return _Points(Xr, t)
    if spec.kind == "polynomial":
        X = np.hstack([X, np.full((X.shape[0], 1), math.sqrt(spec.offset))])
    if spec.normalized:
        X = np.hstack([X, ~X.any(axis=1, keepdims=True)])  # 1 on a zero row only
        X = X / np.max(np.abs(X), axis=1, keepdims=True)
        X /= np.sqrt(np.sum(X * X, axis=1, keepdims=True))
    return _Points(X, None)


@np.errstate(over="ignore")  # an entry beyond the float range is inf, which callers reject
def _block(spec: KernelSpec, a: _Points, b: _Points, out: np.ndarray | None = None) -> np.ndarray:
    """K(a, b) for prepared points: the one kernel block evaluator.

    The block is a new array, or a view of the flat buffer ``out`` over its
    first len(a) x len(b) entries; a sum passes all its blocks one buffer.
    The gemm a.x @ b.x.T is a linear block.  Other kernels finish it in
    place one row strip at a time (one row if a row is longer than a strip),
    each entry by the same operations whatever the strip, so the block does
    not depend on the strip size.

    Gaussian: exp(min(xr.zr - (|xr|^2/2 + |zr|^2/2), 0)) with xr = x/h.  The
    two norm terms are summed into one outer term before the subtraction,
    so K(X, X) is exactly symmetric; for a power-of-two h the scaling is
    exact and the block is bitwise exp(-max(|x|^2 + |z|^2 - 2 x.z, 0) /
    (2 h^2)).  Polynomial: the gemm to the integral degree by repeated
    squaring, O(log degree) multiplies and no libm ``pow``.
    """
    shape = (a.x.shape[0], b.x.shape[0])
    if out is not None:
        out = out[:shape[0] * shape[1]].reshape(shape)
    K = np.matmul(a.x, b.x.T, out=out)
    if spec.kind == "linear":
        return K
    step = max(1, STRIP_ENTRIES // max(1, K.shape[1]))
    for lo in range(0, K.shape[0], step):
        S = K[lo:lo + step]
        if spec.kind == "gaussian":
            S -= a.t[lo:lo + step, None] + b.t[None, :]
            np.minimum(S, 0.0, out=S)
            np.exp(S, out=S)
            continue
        # S^degree by squaring: S times base^(2^k) for each set bit k of degree - 1
        base, p = S.copy(), int(spec.degree) - 1
        while p:
            if p & 1:
                S *= base
            p >>= 1
            if p:
                base *= base
    return K


def _checked(X, Z) -> tuple[np.ndarray, np.ndarray]:
    X = _as_matrix(X)
    Z = _as_matrix(Z)
    if X.shape[1] != Z.shape[1]:
        raise InputError(f"dimension mismatch: {X.shape[1]} vs {Z.shape[1]}")
    return X, Z


def cross_gram(spec: KernelSpec, X, Z) -> np.ndarray:
    """Kernel matrix K[i, j] = K(X[i], Z[j]) including normalization."""
    X, Z = _checked(X, Z)
    a = _prepare(spec, X)
    # the same prepared array on both sides keeps K(X, X) exactly symmetric
    return _block(spec, a, a if Z is X else _prepare(spec, Z))


@np.errstate(over="ignore")  # as in _block
def diagonal(spec: KernelSpec, X) -> np.ndarray:
    """K(x_i, x_i) for each point: 1 for a bounded kernel."""
    X = _as_matrix(X)
    if spec.bounded:
        return np.ones(X.shape[0])
    sq = np.sum(X * X, axis=1)
    return sq if spec.kind == "linear" else (sq + spec.offset) ** spec.degree


# A sum's matrix-vector passes over a block holding inf (entries beyond the
# float range) give inf or nan, which callers reject as non-finite, not warn of.
@np.errstate(over="ignore", invalid="ignore")
def kernel_sums(spec: KernelSpec, X, Z, coef) -> np.ndarray:
    """K(X, Z) @ coef, evaluated one row block of K at a time.

    Every rectangular kernel sum (scores on other points) goes through here.
    A block is ``max(BLOCK_ROWS, BLOCK_ENTRIES // m)`` rows of K for m
    points in Z, so K(X, Z) is never held whole, and every block is
    evaluated into one buffer of that size.  Z is prepared once per call.
    """
    X, Z = _checked(X, Z)
    coef = np.asarray(coef, dtype=float)
    a, b = _prepare(spec, X), _prepare(spec, Z)
    rows = max(BLOCK_ROWS, BLOCK_ENTRIES // max(1, Z.shape[0]))
    buf = np.empty(min(rows, X.shape[0]) * Z.shape[0])
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], rows):
        out[lo:lo + rows] = _block(spec, a.rows(lo, lo + rows), b, buf) @ coef
    return out


@np.errstate(over="ignore", invalid="ignore")  # as in kernel_sums
def self_sums(spec: KernelSpec, X, coef) -> np.ndarray:
    """K(X, X) @ coef from the upper triangle of K only.

    Each row block B = K(X[lo:hi], X[lo:]) adds B @ coef[lo:] to its own
    rows and its off-diagonal part, transposed, to the later rows.  With r =
    ``max(BLOCK_ROWS, BLOCK_ENTRIES // n)`` rows per block that is at most
    n (n + r) / 2 kernel entries, about half of ``kernel_sums(spec, X, X,
    coef)``'s, in blocks of at most r n entries, each evaluated into one
    buffer of that size.  A support of at most r points, so of at most 512,
    is one square block.
    """
    X = _as_matrix(X)
    coef = np.asarray(coef, dtype=float)
    n = X.shape[0]
    a = _prepare(spec, X)
    rows = max(BLOCK_ROWS, BLOCK_ENTRIES // max(1, n))
    buf = np.empty(min(rows, n) * n)
    out = np.zeros(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        B = _block(spec, a.rows(lo, hi), a.rows(lo, n), buf)
        out[lo:hi] += B @ coef[lo:]
        out[hi:] += B[:, hi - lo:].T @ coef[lo:hi]
    return out


def kernel_rows(spec: KernelSpec, X):
    """The function i -> K(X[i], X), one kernel row, from X prepared once."""
    a = _prepare(spec, _as_matrix(X))
    return lambda i: _block(spec, a.rows(i, i + 1), a)[0]
