"""Labeled samples, exact finite-support distributions and corruption processes.

A finite distribution is arrays, as a sample is: atom i is the pair
(``instances[i]``, ``labels[i]``) with mass ``probabilities[i]``.  One
check, ``_support``, validates samples, distributions and mean classifiers
alike; only a distribution's atoms must also be distinct (``_distinct``).
Population-level objects (``DiscreteDistribution``) make the label-noise
identities testable to machine precision: every corruption operation
below builds the corrupted distribution as an *exact* finite mixture, and
one merge, ``_merge``, collapses duplicate atoms by exact equality in the
order they first occur.  Empirical noise is obtained by sampling from the
corrupted population (``sample_from``) rather than by a separate in-place
flipper.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InputError, ParseError


def as_labels(values) -> np.ndarray:
    """``values`` as an int array, each checked to be -1 or +1 before the cast."""
    raw = np.asarray(values)
    if not ((raw == 1) | (raw == -1)).all():
        raise InputError("labels must be -1 or +1")
    return raw.astype(int)


def _json_labels(values: list) -> np.ndarray:
    """``as_labels`` of a document's labels, checked before an array would read true as 1."""
    if any(isinstance(v, bool) for v in values):
        raise InputError("labels must be -1 or +1")
    return as_labels(values)


def _merge(keys: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the equal rows of ``keys`` and sum the ``weights`` of each group.

    Rows are equal when their entries are (so -0.0 == 0.0).  Groups come in
    the order their first row occurs, and each sum adds its weights in input
    order, exactly as accumulating into a dict keyed by row tuples would.
    Returns each group's first row index, each row's group and the sums.
    """
    first: dict[tuple, int] = {}
    owner = [first.setdefault(row, i) for i, row in enumerate(map(tuple, keys.tolist()))]
    rows = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    group = np.searchsorted(rows, owner)
    return rows, group, np.bincount(group, weights=weights, minlength=rows.size)


def _support(instances, labels=None, weights=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Checked (m, d) points and (m,) weights: the one rule for a finite weighted support.

    m >= 1 rows, one label per row when ``labels`` is given, every value
    finite (a DataError, found first: nan passes the sign and sum checks),
    and ``weights``, when given, non-negative and summing to 1.
    """
    X = np.asarray(instances, dtype=float)
    w = None if weights is None else np.asarray(weights, dtype=float)
    m = X.shape[0] if X.ndim == 2 else 0
    if m < 1 or any(a is not None and a.shape != (m,) for a in (labels, w)):
        shapes = " and ".join(str(a.shape) for a in (X, labels if w is None else w) if a is not None)
        raise InputError(f"need m > 0 atoms: (m, d) instances, (m,) labels and (m,) "
                         f"probabilities, got shapes {shapes}")
    if not (np.isfinite(X).all() and (w is None or np.isfinite(w).all())):
        raise DataError("instances and probabilities must be finite (found nan or inf)")
    if w is not None and (w < 0).any():
        raise InputError("probabilities must be non-negative")
    if w is not None and abs(w.sum() - 1.0) > 1e-12:
        raise InputError(f"probabilities sum to {float(w.sum())!r}, not 1")
    return X, w


def _distinct(keys: np.ndarray):
    """A finite distribution's atoms (rows of ``keys``) must be pairwise distinct."""
    if len(set(map(tuple, keys.tolist()))) != keys.shape[0]:
        raise InputError("support entries must be pairwise distinct")


class _Rows:
    """The size m and dimension d of a support held as (m, d) ``instances``."""

    def __len__(self) -> int:
        return self.instances.shape[0]

    @property
    def dim(self) -> int:
        return self.instances.shape[1]


@dataclass(frozen=True)
class LabeledSample(_Rows):
    """An ordered sample of (instance, label) rows with labels in {-1, +1}."""

    instances: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        y = as_labels(self.labels)
        X, _ = _support(self.instances, y)
        object.__setattr__(self, "instances", X)
        object.__setattr__(self, "labels", y)

    def subset(self, indices) -> "LabeledSample":
        idx = np.asarray(indices, dtype=int)
        return LabeledSample(self.instances[idx], self.labels[idx])

    def to_distribution(self) -> "DiscreteDistribution":
        """Empirical distribution with weight 1/n per row (duplicates merged)."""
        return _mixture(self.instances, self.labels, np.full(len(self), 1.0 / len(self)))


@dataclass(frozen=True)
class DiscreteDistribution(_Rows):
    """Exact finite-support distribution over (instance, label) pairs.

    ``instances`` is (m, d), ``labels`` (m,) in {-1, +1} and
    ``probabilities`` (m,); the m atoms are pairwise distinct.
    """

    instances: np.ndarray
    labels: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        y = as_labels(self.labels)
        X, p = _support(self.instances, y, self.probabilities)
        _distinct(np.column_stack([X, y]))
        object.__setattr__(self, "instances", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "probabilities", p)

    def instance_marginal(self) -> "InstanceDistribution":
        """Marginal over instances, summing probability across labels."""
        rows, _, mass = _merge(self.instances, self.probabilities)
        return InstanceDistribution(self.instances[rows], mass)

    def eta(self) -> np.ndarray:
        """P(Y = +1 | X = x_i) at every atom i: the posterior of its instance."""
        _, group, mass = _merge(self.instances, self.probabilities)
        pos = np.bincount(group, weights=np.where(self.labels == 1, self.probabilities, 0.0),
                          minlength=mass.size)
        return np.divide(pos, mass, out=np.zeros_like(mass), where=mass > 0)[group]

    def to_dict(self) -> dict:
        return {
            "support": [[x, y] for x, y in zip(self.instances.tolist(), self.labels.tolist())],
            "prob": self.probabilities.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteDistribution":
        atoms = [(list(map(float, x)), y) for x, y in d["support"]]
        return cls(instances=np.array([x for x, _ in atoms]),
                   labels=_json_labels([y for _, y in atoms]),
                   probabilities=np.asarray(d["prob"], dtype=float))


@dataclass(frozen=True)
class InstanceDistribution(_Rows):
    """Finite-support distribution over instances only (no labels)."""

    instances: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        X, p = _support(self.instances, weights=self.probabilities)
        _distinct(X)
        object.__setattr__(self, "instances", X)
        object.__setattr__(self, "probabilities", p)


@dataclass(frozen=True)
class NoiseFunctionTable:
    """Flip probabilities sigma(x, y) in [0, 1/2), one per atom of a distribution."""

    rates: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
        if r.ndim != 1 or not ((r >= 0.0) & (r < 0.5)).all():
            raise InputError(f"need one flip probability in [0, 0.5) per atom, got {r}")
        object.__setattr__(self, "rates", r)

    def min_signal(self) -> float:
        """min over atoms of 1 - 2 sigma."""
        return float(np.min(1.0 - 2.0 * self.rates, initial=1.0))


def sorted_instances(*dists) -> np.ndarray:
    """The distinct instances of the given distributions, in lexicographic order."""
    return np.array(sorted(set(map(tuple, np.vstack([D.instances for D in dists]).tolist()))))


def _mixture(X: np.ndarray, y: np.ndarray, p: np.ndarray) -> DiscreteDistribution:
    """The exact mixture of weighted atoms (X[i], y[i], p[i]), equal atoms merged.

    Zero-probability contributions are dropped first, so that sigma = 0
    reproduces the input.  The merged masses are not renormalized: the
    constructor's sum check catches a corruption op that loses mass.
    """
    keep = p != 0.0
    X, y = X[keep], y[keep]
    rows, _, probs = _merge(np.column_stack([X, y]), p[keep])
    return DiscreteDistribution(X[rows], y[rows], probs)


def _flip(P: DiscreteDistribution, rates) -> DiscreteDistribution:
    """Move the fraction rates[i] of atom i's mass to its flipped label.

    Atom i contributes (x_i, y_i) and then (x_i, -y_i), atom by atom.
    """
    p = P.probabilities
    return _mixture(np.repeat(P.instances, 2, axis=0),
                    np.column_stack([P.labels, -P.labels]).ravel(),
                    np.column_stack([(1.0 - rates) * p, rates * p]).ravel())


def flip_symmetric(P: DiscreteDistribution, sigma: float) -> DiscreteDistribution:
    """Exact mixture (1 - sigma) P + sigma P' with P' the label-flipped P."""
    if not (0.0 <= sigma < 0.5):
        raise InputError(f"sigma must lie in [0, 0.5), got {sigma}")
    return _flip(P, np.full(len(P), sigma))


def flip_class_conditional(
    P: DiscreteDistribution, sigma_neg: float, sigma_pos: float
) -> DiscreteDistribution:
    """Label-dependent flips: rate sigma_pos on y=+1 atoms, sigma_neg on y=-1."""
    if sigma_neg < 0 or sigma_pos < 0 or sigma_neg + sigma_pos >= 1.0:
        raise InputError(
            f"class-conditional rates must be >= 0 with sum < 1, got ({sigma_neg}, {sigma_pos})"
        )
    return _flip(P, np.where(P.labels == 1, sigma_pos, sigma_neg))


def flip_instance_dependent(
    P: DiscreteDistribution, table: NoiseFunctionTable
) -> DiscreteDistribution:
    """Per-atom flip probabilities sigma(x, y) from the table."""
    if len(table.rates) != len(P):
        raise InputError(f"noise table has {len(table.rates)} rates for {len(P)} atoms")
    return _flip(P, table.rates)


def contaminate(
    P: DiscreteDistribution, Q: DiscreteDistribution, sigma: float
) -> DiscreteDistribution:
    """Huber contamination (1 - sigma) P + sigma Q as an exact merged mixture."""
    if not (0.0 <= sigma <= 1.0):
        raise InputError(f"sigma must lie in [0, 1], got {sigma}")
    if P.dim != Q.dim:
        raise InputError(f"dimension mismatch: {P.dim} vs {Q.dim}")
    return _mixture(np.vstack([P.instances, Q.instances]),
                    np.concatenate([P.labels, Q.labels]),
                    np.concatenate([(1.0 - sigma) * P.probabilities, sigma * Q.probabilities]))


def mutually_contaminate(
    P_pos: InstanceDistribution,
    P_neg: InstanceDistribution,
    alpha: float,
    beta: float,
) -> tuple[InstanceDistribution, InstanceDistribution]:
    """Mutual contamination of the two class-conditional instance distributions."""
    if alpha < 0 or beta < 0 or alpha + beta >= 1.0:
        raise InputError(f"need alpha, beta >= 0 with alpha + beta < 1, got ({alpha}, {beta})")
    if P_pos.dim != P_neg.dim:
        raise InputError("the two class-conditional distributions differ in dimension")
    X = np.vstack([P_pos.instances, P_neg.instances])

    def mix(wa: float, wb: float) -> InstanceDistribution:
        p = np.concatenate([wa * P_pos.probabilities, wb * P_neg.probabilities])
        keep = p != 0.0
        rows, _, mass = _merge(X[keep], p[keep])
        return InstanceDistribution(X[keep][rows], mass)

    return mix(1.0 - alpha, alpha), mix(beta, 1.0 - beta)


def sample_from(P: DiscreteDistribution, n: int, seed: int) -> LabeledSample:
    """n i.i.d. draws from P, deterministic given the seed."""
    if n < 1:
        raise InputError("n must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(P), size=n, p=P.probabilities)
    return LabeledSample(P.instances[idx], P.labels[idx])


def synth_blobs(n: int, d: int, separation: float, seed: int) -> LabeledSample:
    """Two isotropic unit-variance clouds centered at +-(separation/2) e_1."""
    if n < 2 or n % 2 != 0:
        raise InputError("n must be even and >= 2")
    if d < 1:
        raise InputError("d must be >= 1")
    if not separation > 0:
        raise InputError("separation must be > 0")
    rng = np.random.default_rng(seed)
    half = n // 2
    center = np.zeros(d)
    center[0] = separation / 2.0
    X_pos = rng.standard_normal((half, d)) + center
    X_neg = rng.standard_normal((half, d)) - center
    X = np.vstack([X_pos, X_neg])
    y = np.concatenate([np.ones(half, dtype=int), -np.ones(half, dtype=int)])
    return LabeledSample(X, y)


def long_servedio(gamma: float) -> DiscreteDistribution:
    """Three-point planar construction defeating convex-potential minimization.

    All atoms are labeled +1.  The southernmost point (gamma, -gamma)
    carries probability 1/2; the large-margin point (1, 0) and the puller
    (gamma, 5 gamma) carry 1/4 each.  Hinge minimization over hyperplanes
    through the origin, run on the symmetric-label-noise corruption of
    this distribution, ends up misclassifying the probability-1/2 point,
    while the mean classifier never does.
    """
    if not (0.0 < gamma < 1.0 / 6.0):
        raise InputError(f"gamma must lie in (0, 1/6), got {gamma}")
    return DiscreteDistribution(
        instances=np.array([[gamma, -gamma], [1.0, 0.0], [gamma, 5.0 * gamma]]),
        labels=np.ones(3, dtype=int),
        probabilities=np.array([0.5, 0.25, 0.25]),
    )


# ---------------------------------------------------------------------------
# File loaders


# Data rows per ``np.array`` conversion in ``load_csv``: only one chunk's
# string tokens are alive at a time (about 1.7 KiB a row for 21 columns of
# 17-digit numbers), not the whole file's.
CSV_CHUNK_ROWS = 2**12


def _lines(path, newline=None):
    """The lines of a UTF-8 text file; bytes that are not UTF-8 are a ParseError naming it."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}", path=path) from None


def _parse_float(token: str, path, line_no) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"non-numeric value {token!r}", path=path, line=line_no) from None


def _remap_labels(raw: list[float], path) -> np.ndarray:
    values = set(raw)
    if values <= {-1.0, 1.0}:
        return np.array(raw, dtype=int)
    if values <= {0.0, 1.0}:
        return np.array([1 if v == 1.0 else -1 for v in raw], dtype=int)
    bad = sorted(values - {-1.0, 0.0, 1.0})
    raise InputError(f"unknown label value(s) {bad} in {path}")


def load_csv(path, label_column: int) -> LabeledSample:
    """Comma-separated numeric rows; header auto-detected by a non-numeric first row.

    The data rows are converted in chunks of ``CSV_CHUNK_ROWS``, each by one
    ``np.array(rows, dtype=float)`` call, which reads every token as
    ``float()`` does; only one chunk's tokens are held at a time.  A chunk
    that does not convert is checked row by row (``_tables``), so the first
    bad line in file order is the one reported, as is a width mismatch
    only when no line is bad.
    """
    tables = []  # converted rows, in file order
    chunk = []   # (line number, tokens) of the data rows not yet converted
    for line_no, row in enumerate(csv.reader(_lines(path, newline="")), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if line_no == 1:
            try:
                [float(tok) for tok in row]
            except ValueError:
                continue  # header row
        chunk.append((line_no, row))
        if len(chunk) == CSV_CHUNK_ROWS:
            tables += _tables(chunk, label_column, path)
            chunk = []
    if chunk:
        tables += _tables(chunk, label_column, path)
    if not tables:
        raise ParseError("no data rows", path=path)
    widths = {t.shape[1] for t in tables}
    if len(widths) != 1:
        # reported as the widths of the feature columns
        raise ParseError(f"inconsistent row widths {sorted(w - 1 for w in widths)}", path=path)
    table = tables[0] if len(tables) == 1 else np.concatenate(tables)
    raw_labels = table[:, label_column].tolist()
    X = np.delete(table, label_column % table.shape[1], axis=1)
    return LabeledSample(X, _remap_labels(raw_labels, path))


def _tables(chunk, label_column: int, path) -> list[np.ndarray]:
    """The rows of ``chunk`` as tables, one width each, in file order.

    A chunk of equal-width numeric rows whose label column is in range is
    one table from one ``np.array`` call.  Otherwise each row is checked
    in file order and the first bad one raises: a label column out of
    range or a non-numeric token, each naming its line.  Rows that pass
    come back one table each, for the caller's width check.
    """
    try:
        table = np.array([row for _, row in chunk], dtype=float)
    except ValueError:
        table = None
    if table is not None and -table.shape[1] <= label_column < table.shape[1]:
        return [table]
    tables = []
    for line_no, row in chunk:
        if label_column >= len(row) or label_column < -len(row):
            raise ParseError(
                f"label column {label_column} out of range for {len(row)} columns",
                path=path, line=line_no,
            )
        tables.append(np.array([[_parse_float(tok, path, line_no) for tok in row]]))
    return tables


def load_sparse(path) -> LabeledSample:
    """Sparse text rows ``<label> <idx>:<val> ...`` with 1-based indices."""
    parsed = []
    raw_labels = []
    max_index = 0
    for line_no, line in enumerate(_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        raw_labels.append(_parse_float(tokens[0], path, line_no))
        entries = []
        prev = 0
        for tok in tokens[1:]:
            if ":" not in tok:
                raise ParseError(f"expected idx:val, got {tok!r}", path=path, line=line_no)
            idx_s, val_s = tok.split(":", 1)
            try:
                idx = int(idx_s)
            except ValueError:
                raise ParseError(f"bad feature index {idx_s!r}", path=path, line=line_no) from None
            if idx < 1:
                raise ParseError(f"feature index {idx} out of range: indices start at 1",
                                 path=path, line=line_no)
            if idx <= prev:
                raise ParseError(
                    f"feature indices must be strictly increasing, got {idx} after {prev}",
                    path=path, line=line_no,
                )
            val = _parse_float(val_s, path, line_no)
            entries.append((idx, val))
            prev = idx
            max_index = max(max_index, idx)
        parsed.append(entries)
    if not parsed:
        raise ParseError("no data rows", path=path)
    d = max(max_index, 1)
    X = np.zeros((len(parsed), d))
    for i, entries in enumerate(parsed):
        for idx, val in entries:
            X[i, idx - 1] = val
    return LabeledSample(X, _remap_labels(raw_labels, path))
