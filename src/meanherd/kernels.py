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
stay in cache, and a sum drops each block before it evaluates the next,
so a sum holds one block of at most ``BLOCK_ENTRIES`` entries, a
strip-sized temporary and the prepared points, never n x n.

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

from .errors import InputError

VALID_KINDS = ("linear", "gaussian", "polynomial")
# The parameters each kind uses (gaussian is normalized already: K(x, x) = 1);
# a parameter of another kind must keep its default, so none is ignored.
_PARAMETERS = {"linear": ("normalized",), "gaussian": ("bandwidth",),
               "polynomial": ("degree", "offset", "normalized")}

# Kernel entries per row block in ``kernel_sums`` and ``self_sums``:
# 2**21 float64 = 16 MiB.
BLOCK_ENTRIES = 2**21

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
        unused = [name for name in ("bandwidth", "degree", "offset", "normalized")
                  if name not in _PARAMETERS[kind] and getattr(self, name) not in (None, 0.0, False)]
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
        d = {"kind": self.kind, "normalized": self.normalized}
        if self.kind == "gaussian":
            d["bandwidth"] = self.bandwidth
        if self.kind == "polynomial":
            d["degree"] = self.degree
            d["offset"] = self.offset
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise InputError(f"unknown kernel parameter(s) {unknown}")
        return cls(**d)

    @classmethod
    def parse(cls, text: str) -> "KernelSpec":
        """Parse either a JSON object or the CLI shorthand.

        Shorthand grammar: ``linear``, ``linear:norm``, ``gaussian:<h>``,
        ``poly:<degree>:<offset>`` with an optional trailing ``:norm``.
        """
        text = text.strip()
        if text.startswith("{"):
            try:
                return cls.from_dict(json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                raise InputError(f"bad kernel JSON {text!r}: {exc}") from None
        parts = text.split(":")
        kind, args = parts[0], parts[1:]
        normalized = False
        if args and args[-1] == "norm":
            normalized = True
            args = args[:-1]
        try:
            if kind == "linear":
                if args:
                    raise InputError("linear kernel takes no parameters")
                return cls("linear", normalized=normalized)
            if kind == "gaussian":
                if len(args) != 1:
                    raise InputError("gaussian shorthand is gaussian:<bandwidth>")
                return cls("gaussian", bandwidth=float(args[0]), normalized=normalized)
            if kind in ("poly", "polynomial"):
                if len(args) not in (1, 2):
                    raise InputError("polynomial shorthand is poly:<degree>[:<offset>]")
                degree = int(args[0])
                offset = float(args[1]) if len(args) == 2 else 0.0
                return cls("polynomial", degree=degree, offset=offset, normalized=normalized)
        except ValueError as exc:
            raise InputError(f"bad kernel shorthand {text!r}: {exc}") from exc
        raise InputError(f"unknown kernel shorthand {text!r}")


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[np.newaxis, :]
    if X.ndim != 2:
        raise InputError(f"expected points of shape (n, d), got {X.shape}")
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
        Xr = X / spec.bandwidth
        return _Points(Xr, 0.5 * np.sum(Xr * Xr, axis=1))
    if spec.kind == "polynomial":
        X = np.hstack([X, np.full((X.shape[0], 1), math.sqrt(spec.offset))])
    if spec.normalized:
        X = np.hstack([X, ~X.any(axis=1, keepdims=True)])  # 1 on a zero row only
        X = X / np.max(np.abs(X), axis=1, keepdims=True)
        X /= np.sqrt(np.sum(X * X, axis=1, keepdims=True))
    return _Points(X, None)


def _block(spec: KernelSpec, a: _Points, b: _Points) -> np.ndarray:
    """K(a, b) for prepared points: the one kernel block evaluator.

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
    K = a.x @ b.x.T
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


def eval_kernel(spec: KernelSpec, x, x2) -> float:
    """K(x, x') for a single pair of vectors."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if x.shape != x2.shape:
        raise InputError(f"dimension mismatch: {x.shape} vs {x2.shape}")
    return float(cross_gram(spec, x[np.newaxis], x2[np.newaxis])[0, 0])


def diagonal(spec: KernelSpec, X) -> np.ndarray:
    """K(x_i, x_i) for each point: 1 for a bounded kernel."""
    X = _as_matrix(X)
    if spec.bounded:
        return np.ones(X.shape[0])
    sq = np.sum(X * X, axis=1)
    return sq if spec.kind == "linear" else (sq + spec.offset) ** spec.degree


def kernel_sums(spec: KernelSpec, X, Z, coef) -> np.ndarray:
    """K(X, Z) @ coef, evaluated one row block of K at a time.

    Every rectangular kernel sum (scores on other points) goes through here.
    A block holds at most ``BLOCK_ENTRIES`` kernel entries, so K(X, Z) is
    never held whole.  Z is prepared once per call.
    """
    X, Z = _checked(X, Z)
    coef = np.asarray(coef, dtype=float)
    a, b = _prepare(spec, X), _prepare(spec, Z)
    rows = max(1, BLOCK_ENTRIES // max(1, Z.shape[0]))
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], rows):
        out[lo:lo + rows] = _block(spec, a.rows(lo, lo + rows), b) @ coef
    return out


def self_sums(spec: KernelSpec, X, coef) -> np.ndarray:
    """K(X, X) @ coef from the upper triangle of K only.

    Each row block B = K(X[lo:hi], X[lo:]) adds B @ coef[lo:] to its own
    rows and its off-diagonal part, transposed, to the later rows.  With r =
    ``BLOCK_ENTRIES // n`` rows per block that is at most n (n + r) / 2
    kernel entries, about half of ``kernel_sums(spec, X, X, coef)``'s, in
    blocks of at most ``BLOCK_ENTRIES`` entries.  A support of at most r
    points is one square block.
    """
    X = _as_matrix(X)
    coef = np.asarray(coef, dtype=float)
    n = X.shape[0]
    a = _prepare(spec, X)
    rows = max(1, BLOCK_ENTRIES // max(1, n))
    if rows >= n:
        return _block(spec, a, a) @ coef
    out = np.zeros(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        B = _block(spec, a.rows(lo, hi), a.rows(lo, n))
        out[lo:hi] += B @ coef[lo:]
        out[hi:] += B[:, hi - lo:].T @ coef[lo:hi]
        del B  # so the next block is evaluated with this one freed
    return out


def kernel_rows(spec: KernelSpec, X):
    """The function i -> K(X[i], X), one kernel row, from X prepared once."""
    a = _prepare(spec, _as_matrix(X))
    return lambda i: _block(spec, a.rows(i, i + 1), a)[0]
