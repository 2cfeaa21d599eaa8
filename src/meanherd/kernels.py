"""Kernel functions, label-augmented kernels and blocked kernel sums.

All classifiers in this package score by weighted kernel sums, so every
other module funnels through the evaluators here.  The theory modules
assume bounded feature maps (|K(x,x')| <= 1); the gaussian kernel is
bounded by construction, linear and polynomial kernels only after opting
in to cosine normalization via ``normalized=True``.

Gaussian convention: K(x,x') = exp(-||x - x'||^2 / (2 h^2)) with h the
bandwidth.  This is fixed once here and used everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError

VALID_KINDS = ("linear", "gaussian", "polynomial")

# Kernel entries per row block in ``kernel_sums``: 2**21 float64 = 16 MiB.
BLOCK_ENTRIES = 2**21


@dataclass(frozen=True)
class KernelSpec:
    """Parameterized similarity function with boundedness metadata."""

    kind: str
    bandwidth: float | None = None
    degree: int | None = None
    offset: float = 0.0
    normalized: bool = False

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise InputError(f"unknown kernel kind {self.kind!r}, expected one of {VALID_KINDS}")
        if self.kind == "gaussian":
            if self.bandwidth is None or not (self.bandwidth > 0):
                raise InputError("gaussian kernel requires bandwidth > 0")
        if self.kind == "polynomial":
            if self.degree is None or int(self.degree) < 1:
                raise InputError("polynomial kernel requires degree >= 1")
            if self.offset < 0:
                raise InputError("polynomial offset must be non-negative")

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
        return cls(
            kind=d["kind"],
            bandwidth=d.get("bandwidth"),
            degree=d.get("degree"),
            offset=d.get("offset", 0.0),
            normalized=bool(d.get("normalized", False)),
        )

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


def _raw_cross(spec: KernelSpec, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    if spec.kind == "linear":
        return X @ Z.T
    if spec.kind == "polynomial":
        return (X @ Z.T + spec.offset) ** spec.degree
    # gaussian: exp(-max(|x|^2 + |z|^2 - 2 x.z, 0) / (2 h^2)) with the same
    # operations in the same order, bit for bit, but in place, so a block
    # needs two temporaries of its size instead of three
    sq = np.sum(X * X, axis=1)[:, None] + np.sum(Z * Z, axis=1)[None, :]
    xz = X @ Z.T
    xz *= 2.0
    sq -= xz
    del xz
    np.maximum(sq, 0.0, out=sq)
    np.negative(sq, out=sq)
    sq /= 2.0 * spec.bandwidth**2
    return np.exp(sq, out=sq)


def _raw_diag(spec: KernelSpec, X: np.ndarray) -> np.ndarray:
    if spec.kind == "linear":
        return np.sum(X * X, axis=1)
    if spec.kind == "polynomial":
        return (np.sum(X * X, axis=1) + spec.offset) ** spec.degree
    return np.ones(X.shape[0])


def cross_gram(spec: KernelSpec, X, Z) -> np.ndarray:
    """Kernel matrix K[i, j] = K(X[i], Z[j]) including normalization."""
    X = _as_matrix(X)
    Z = _as_matrix(Z)
    if X.shape[1] != Z.shape[1]:
        raise InputError(f"dimension mismatch: {X.shape[1]} vs {Z.shape[1]}")
    K = _raw_cross(spec, X, Z)
    if spec.normalized and spec.kind != "gaussian":
        dx = _raw_diag(spec, X)
        dz = _raw_diag(spec, Z)
        denom = np.sqrt(np.outer(dx, dz))
        with np.errstate(invalid="ignore", divide="ignore"):
            K = np.where(denom > 0, K / np.where(denom > 0, denom, 1.0), 0.0)
        # A zero-norm point only matches itself: both diagonals zero means
        # both points are the zero vector, so K is defined as 1 there.
        both_zero = np.outer(dx == 0, dz == 0)
        K[both_zero] = 1.0
    return K


def eval_kernel(spec: KernelSpec, x, x2) -> float:
    """K(x, x') for a single pair of vectors."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if x.shape != x2.shape:
        raise InputError(f"dimension mismatch: {x.shape} vs {x2.shape}")
    return float(cross_gram(spec, x[np.newaxis], x2[np.newaxis])[0, 0])


def kernel_sums(spec: KernelSpec, X, Z, coef) -> np.ndarray:
    """K(X, Z) @ coef, evaluated one row block of K at a time.

    Every kernel sum in the package goes through here.  A block holds at
    most ``BLOCK_ENTRIES`` kernel entries, so K(X, Z) is never held whole.
    """
    X = _as_matrix(X)
    Z = _as_matrix(Z)
    coef = np.asarray(coef, dtype=float)
    rows = max(1, BLOCK_ENTRIES // max(1, Z.shape[0]))
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], rows):
        out[lo:lo + rows] = cross_gram(spec, X[lo:lo + rows], Z) @ coef
    return out
