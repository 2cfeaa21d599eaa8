"""Labeled samples, exact finite-support distributions and corruption processes.

Population-level objects (``DiscreteDistribution``) make the label-noise
identities testable to machine precision: every corruption operation
below builds the corrupted distribution as an *exact* finite mixture,
merging duplicate atoms by exact equality.  Empirical noise is obtained
by sampling from the corrupted population (``sample_from``) rather than
by a separate in-place flipper.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InputError, ParseError

Atom = tuple[tuple[float, ...], int]


def as_labels(values) -> np.ndarray:
    """``values`` as an int array, each checked to be -1 or +1 before the cast."""
    raw = np.asarray(values)
    if not np.all(np.isin(raw, (-1, 1))):
        raise InputError("labels must be -1 or +1")
    return raw.astype(int)


@dataclass(frozen=True)
class LabeledSample:
    """An ordered sample of (instance, label) rows with labels in {-1, +1}."""

    instances: np.ndarray
    labels: np.ndarray
    source: str | None = None

    def __post_init__(self):
        X = np.asarray(self.instances, dtype=float)
        y = as_labels(self.labels)
        if X.ndim != 2:
            raise InputError(f"instances must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise InputError("instances and labels have different lengths")
        if X.shape[0] < 1:
            raise InputError("sample must contain at least one point")
        if not np.all(np.isfinite(X)):
            raise DataError("instances must be finite (found nan or inf)")
        object.__setattr__(self, "instances", X)
        object.__setattr__(self, "labels", y)

    def __len__(self) -> int:
        return self.instances.shape[0]

    @property
    def dim(self) -> int:
        return self.instances.shape[1]

    def subset(self, indices) -> "LabeledSample":
        idx = np.asarray(indices, dtype=int)
        return LabeledSample(self.instances[idx], self.labels[idx], source=self.source)

    def to_distribution(self) -> "DiscreteDistribution":
        """Empirical distribution with weight 1/n per row (duplicates merged)."""
        atoms = [(tuple(x), int(y)) for x, y in zip(self.instances, self.labels)]
        p = 1.0 / len(atoms)
        return _merged_distribution([(a, p) for a in atoms])


@dataclass(frozen=True)
class DiscreteDistribution:
    """Exact finite-support distribution over (instance, label) pairs."""

    support: tuple[Atom, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if len(self.support) != p.shape[0]:
            raise InputError("support and probabilities have different lengths")
        if len(self.support) == 0:
            raise InputError("distribution needs non-empty support")
        if not np.all(np.isfinite(p)):
            raise DataError("probabilities must be finite (found nan or inf)")
        if np.any(p < 0):
            raise InputError("probabilities must be non-negative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise InputError(f"probabilities sum to {p.sum()!r}, not 1")
        if len(set(self.support)) != len(self.support):
            raise InputError("support entries must be pairwise distinct")
        for x, y in self.support:
            if y not in (-1, 1):
                raise InputError(f"label must be -1 or +1, got {y!r}")
        object.__setattr__(self, "support", tuple((tuple(map(float, x)), int(y)) for x, y in self.support))
        object.__setattr__(self, "probabilities", p)

    def __len__(self) -> int:
        return len(self.support)

    @property
    def dim(self) -> int:
        return len(self.support[0][0])

    def instances_array(self) -> np.ndarray:
        return np.array([x for x, _ in self.support], dtype=float)

    def labels_array(self) -> np.ndarray:
        return np.array([y for _, y in self.support], dtype=int)

    def instance_marginal(self) -> "InstanceDistribution":
        """Marginal over instances, summing probability across labels."""
        acc: dict[tuple[float, ...], float] = {}
        for (x, _), p in zip(self.support, self.probabilities):
            acc[x] = acc.get(x, 0.0) + p
        return InstanceDistribution(tuple(acc.keys()), np.array(list(acc.values())))

    def eta(self) -> dict[tuple[float, ...], float]:
        """P(Y = +1 | X = x) for every instance appearing in the support."""
        mass: dict[tuple[float, ...], float] = {}
        pos: dict[tuple[float, ...], float] = {}
        for (x, y), p in zip(self.support, self.probabilities):
            mass[x] = mass.get(x, 0.0) + p
            if y == 1:
                pos[x] = pos.get(x, 0.0) + p
        return {x: (pos.get(x, 0.0) / m if m > 0 else 0.0) for x, m in mass.items()}

    def to_dict(self) -> dict:
        return {
            "support": [[list(x), y] for x, y in self.support],
            "prob": [float(p) for p in self.probabilities],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteDistribution":
        support = tuple((tuple(x), y) for x, y in d["support"])
        return cls(support=support, probabilities=np.asarray(d["prob"], dtype=float))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "DiscreteDistribution":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class InstanceDistribution:
    """Finite-support distribution over instances only (no labels)."""

    support: tuple[tuple[float, ...], ...]
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if len(self.support) != p.shape[0] or len(self.support) == 0:
            raise InputError("support and probabilities must be non-empty and aligned")
        if not np.all(np.isfinite(p)):
            raise DataError("probabilities must be finite (found nan or inf)")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise InputError("probabilities must be non-negative and sum to 1")
        if len(set(self.support)) != len(self.support):
            raise InputError("support entries must be pairwise distinct")
        object.__setattr__(self, "support", tuple(tuple(map(float, x)) for x in self.support))
        object.__setattr__(self, "probabilities", p)

    def instances_array(self) -> np.ndarray:
        return np.array(self.support, dtype=float)


@dataclass(frozen=True)
class NoiseFunctionTable:
    """Per-support-atom flip probabilities sigma(x, y) in [0, 1/2)."""

    rates: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for i, s in self.rates.items():
            if not (0.0 <= s < 0.5):
                raise InputError(f"flip probability at index {i} must lie in [0, 0.5), got {s}")

    def rate(self, index: int) -> float:
        if index not in self.rates:
            raise InputError(f"noise table missing entry for support index {index}")
        return self.rates[index]

    def min_signal(self) -> float:
        """min over covered atoms of 1 - 2 sigma."""
        if not self.rates:
            return 1.0
        return min(1.0 - 2.0 * s for s in self.rates.values())


def _merged_distribution(contributions) -> DiscreteDistribution:
    """Merge (atom, probability) contributions by exact atom equality.

    Insertion order of first occurrence is preserved; zero-probability
    contributions are dropped so that sigma = 0 reproduces the input.
    """
    acc: dict[Atom, float] = {}
    for atom, p in contributions:
        if p == 0.0:
            continue
        key = (tuple(atom[0]), int(atom[1]))
        acc[key] = acc.get(key, 0.0) + p
    atoms = tuple(acc.keys())
    probs = np.array(list(acc.values()), dtype=float)
    total = probs.sum()
    if abs(total - 1.0) > 1e-12:
        # Corruption ops only redistribute mass; renormalization here would
        # hide a bug upstream.
        raise InputError(f"merged probabilities sum to {total}, not 1")
    return DiscreteDistribution(support=atoms, probabilities=probs)


def _flip(P: DiscreteDistribution, rates) -> DiscreteDistribution:
    """Move the fraction rates[i] of atom i's mass to its flipped label."""
    out = []
    for (x, y), p, s in zip(P.support, P.probabilities, rates):
        out.append(((x, y), (1.0 - s) * p))
        out.append(((x, -y), s * p))
    return _merged_distribution(out)


def flip_symmetric(P: DiscreteDistribution, sigma: float) -> DiscreteDistribution:
    """Exact mixture (1 - sigma) P + sigma P' with P' the label-flipped P."""
    if not (0.0 <= sigma < 0.5):
        raise InputError(f"sigma must lie in [0, 0.5), got {sigma}")
    return _flip(P, [sigma] * len(P))


def flip_class_conditional(
    P: DiscreteDistribution, sigma_neg: float, sigma_pos: float
) -> DiscreteDistribution:
    """Label-dependent flips: rate sigma_pos on y=+1 atoms, sigma_neg on y=-1."""
    if sigma_neg < 0 or sigma_pos < 0 or sigma_neg + sigma_pos >= 1.0:
        raise InputError(
            f"class-conditional rates must be >= 0 with sum < 1, got ({sigma_neg}, {sigma_pos})"
        )
    return _flip(P, [sigma_pos if y == 1 else sigma_neg for _, y in P.support])


def flip_instance_dependent(
    P: DiscreteDistribution, table: NoiseFunctionTable
) -> DiscreteDistribution:
    """Per-atom flip probabilities sigma(x, y) from the table."""
    return _flip(P, [table.rate(i) for i in range(len(P))])


def contaminate(
    P: DiscreteDistribution, Q: DiscreteDistribution, sigma: float
) -> DiscreteDistribution:
    """Huber contamination (1 - sigma) P + sigma Q as an exact merged mixture."""
    if not (0.0 <= sigma <= 1.0):
        raise InputError(f"sigma must lie in [0, 1], got {sigma}")
    if P.dim != Q.dim:
        raise InputError(f"dimension mismatch: {P.dim} vs {Q.dim}")
    out = [(a, (1.0 - sigma) * p) for a, p in zip(P.support, P.probabilities)]
    out += [(a, sigma * p) for a, p in zip(Q.support, Q.probabilities)]
    return _merged_distribution(out)


def mutually_contaminate(
    P_pos: InstanceDistribution,
    P_neg: InstanceDistribution,
    alpha: float,
    beta: float,
) -> tuple[InstanceDistribution, InstanceDistribution]:
    """Mutual contamination of the two class-conditional instance distributions."""
    if alpha < 0 or beta < 0 or alpha + beta >= 1.0:
        raise InputError(f"need alpha, beta >= 0 with alpha + beta < 1, got ({alpha}, {beta})")

    def mix(A: InstanceDistribution, wa: float, B: InstanceDistribution, wb: float):
        acc: dict[tuple[float, ...], float] = {}
        for x, p in zip(A.support, A.probabilities):
            if wa * p != 0.0:
                acc[x] = acc.get(x, 0.0) + wa * p
        for x, p in zip(B.support, B.probabilities):
            if wb * p != 0.0:
                acc[x] = acc.get(x, 0.0) + wb * p
        return InstanceDistribution(tuple(acc.keys()), np.array(list(acc.values())))

    tilde_pos = mix(P_pos, 1.0 - alpha, P_neg, alpha)
    tilde_neg = mix(P_pos, beta, P_neg, 1.0 - beta)
    return tilde_pos, tilde_neg


def sample_from(P: DiscreteDistribution, n: int, seed: int) -> LabeledSample:
    """n i.i.d. draws from P, deterministic given the seed."""
    if n < 1:
        raise InputError("n must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(P), size=n, p=P.probabilities)
    X = P.instances_array()[idx]
    y = P.labels_array()[idx]
    return LabeledSample(X, y, source=f"sample_from(seed={seed})")


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
    return LabeledSample(X, y, source=f"synth_blobs(seed={seed})")


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
    support = (
        ((gamma, -gamma), 1),
        ((1.0, 0.0), 1),
        ((gamma, 5.0 * gamma), 1),
    )
    return DiscreteDistribution(support=support, probabilities=np.array([0.5, 0.25, 0.25]))


# ---------------------------------------------------------------------------
# File loaders


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
    """Comma-separated numeric rows; header auto-detected by a non-numeric first row."""
    rows = []
    raw_labels = []
    for line_no, row in enumerate(csv.reader(_lines(path, newline="")), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if line_no == 1:
            try:
                [float(tok) for tok in row]
            except ValueError:
                continue  # header row
        if label_column >= len(row) or label_column < -len(row):
            raise ParseError(
                f"label column {label_column} out of range for {len(row)} columns",
                path=path, line=line_no,
            )
        values = [_parse_float(tok, path, line_no) for tok in row]
        label = values[label_column]
        features = [v for i, v in enumerate(values) if i != label_column % len(row)]
        rows.append(features)
        raw_labels.append(label)
    if not rows:
        raise ParseError("no data rows", path=path)
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(f"inconsistent row widths {sorted(widths)}", path=path)
    labels = _remap_labels(raw_labels, path)
    return LabeledSample(np.array(rows, dtype=float), labels, source=str(path))


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
    labels = _remap_labels(raw_labels, path)
    return LabeledSample(X, labels, source=str(path))
