"""Kernel herding: greedy sparse approximation of a mean embedding.

Herding is conditional-gradient (Frank-Wolfe) descent on
||omega_target - omega_tilde||^2 over the convex hull of the candidate
feature vectors, here the label-augmented vectors y phi(x).  Every
quantity is maintained through kernel sums, so the engine never touches
feature space:

    c[j]           = <omega_target, psi(z_j)>
    s[j]           = <omega_tilde,  psi(z_j)>
    b              = <omega_target, omega_tilde>
    q              = ||omega_tilde||^2
    error^2        = ||omega_target||^2 - 2 b + q

The closed-form line search lambda* = <omega_target - omega_tilde,
psi(z*) - omega_tilde> / ||psi(z*) - omega_tilde||^2, clipped to [0, 1],
is the exact minimizer of the quadratic along the segment.

Only c needs a pass over all n^2 kernel entries, done once in row blocks
by ``kernels.kernel_sums``; each iteration then evaluates the single
kernel row it selects.  Memory is one block of kernel entries plus a
few n-vectors, never n x n.

Every herd also carries ``recomputed_error``, the error evaluated exactly
from a target pass c, the herd's weights and its m x m kernel block
instead of through the recurrences for b and q.  A plain herd reuses its
own c, so it makes one n^2 pass in all; parallel and recursive herds make
one exact audit each (``approximation_error``) and report it as both
errors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .classifier import MeanClassifier
from .data import LabeledSample
from .errors import DataError, InputError
from .kernels import KernelSpec, cross_gram, kernel_sums

STEP_RULES = ("line_search", "uniform")

# Improvements below this are indistinguishable from rounding noise;
# treated as stationarity.
_STATIONARY_EPS = 1e-15


@dataclass(frozen=True)
class HerdingConfig:
    tolerance: float = 0.01
    max_iterations: int = 1000
    step_rule: str = "line_search"

    def __post_init__(self):
        if not self.tolerance > 0:
            raise InputError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be >= 1")
        if self.step_rule not in STEP_RULES:
            raise InputError(f"unknown step rule {self.step_rule!r}, expected one of {STEP_RULES}")


@dataclass(frozen=True)
class StageSummary:
    size_before: int
    size_after: int
    error: float
    termination: str


@dataclass(frozen=True)
class Herd:
    """Sparse weighted representative set with its approximation error.

    A herd is a weighted sample, so it is a mean classifier: ``classifier``
    holds the kernel, the weights and the members' labels and points.  For
    bounded kernels its scores lie within ``error`` of the full mean's
    everywhere (Cauchy-Schwarz against ||phi(x)|| <= 1).  ``error`` is the
    tracked error, ``recomputed_error`` the same quantity evaluated exactly.
    """

    classifier: MeanClassifier
    indices: np.ndarray  # the members' indices into the source sample
    error: float
    recomputed_error: float
    trace: tuple[float, ...]
    termination: str
    sizes: tuple[int, ...]  # distinct members per trace entry
    stages: tuple[StageSummary, ...] = field(default=())
    group_errors: tuple[float, ...] = field(default=())

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    def to_dict(self, n_source: int) -> dict:
        """Model document of the sparse classifier, plus the herd's fields.

        ``MeanClassifier.from_dict`` reads it like a ``train`` document.
        """
        doc = self.classifier.to_dict(n_source)
        doc["members"] = [
            {"alpha": float(a), "index": int(i)}
            for a, i in zip(self.classifier.alphas, self.indices)
        ]
        doc["error"] = float(self.error)
        doc["recomputed_error"] = float(self.recomputed_error)
        doc["trace"] = list(self.trace)
        doc["termination"] = self.termination
        if self.group_errors:
            doc["group_errors"] = list(self.group_errors)
        if self.stages:
            doc["stages"] = [asdict(st) for st in self.stages]
        return doc


def _target_weights(n: int, target_weights) -> np.ndarray:
    if target_weights is None:
        return np.full(n, 1.0 / n)
    t = np.asarray(target_weights, dtype=float)
    if t.shape != (n,) or np.any(t < 0) or abs(t.sum() - 1.0) > 1e-10:
        raise InputError("target weights must be a probability vector over the candidates")
    return t


def _finite(v: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise DataError("non-finite kernel values in candidate set")
    return v


def _target_pass(S: LabeledSample, kernel: KernelSpec, t: np.ndarray) -> tuple[np.ndarray, float]:
    """c[j] = <omega_target, psi(z_j)> and ||omega_target||^2: the one n^2 pass."""
    y = S.labels.astype(float)
    c = _finite(y * kernel_sums(kernel, S.instances, S.instances, y * t))
    return c, float(t @ c)


def _exact_error(clf: MeanClassifier, idx: np.ndarray, c: np.ndarray, target_sq: float) -> float:
    """||omega_target - omega_clf|| for the classifier on rows ``idx`` of c's sample.

    target_sq - 2 alpha.c[idx] + (alpha y)' K_mm (alpha y), so given the
    target pass it costs the m^2 kernel entries of the herd alone.
    """
    am = clf.alphas * clf.labels
    herd_sq = float(am @ kernel_sums(clf.kernel, clf.points, clf.points, am))
    cross = float(clf.alphas @ c[idx])
    return float(np.sqrt(max(target_sq - 2.0 * cross + herd_sq, 0.0)))


def herd(
    S: LabeledSample,
    kernel: KernelSpec,
    config: HerdingConfig | None = None,
    target_weights=None,
) -> Herd:
    """Greedy sparse approximation of the (weighted) mean embedding of S.

    The target is sum_j t_j y_j phi(x_j) with t uniform by default, so it
    lies in the convex hull of the candidates and line-search steps enjoy
    the geometric convergence rate.  Ties in the greedy argmax break to
    the lowest candidate index; candidates may be re-selected, in which
    case their weights accumulate.
    """
    config = config or HerdingConfig()
    n = len(S)
    X = S.instances
    y = S.labels.astype(float)
    t = _target_weights(n, target_weights)

    def row(i: int) -> np.ndarray:
        """<psi(z_i), psi(z_j)> for every candidate j: one kernel row."""
        return _finite(y[i] * y * cross_gram(kernel, X[i], X)[0])

    c, target_sq = _target_pass(S, kernel, t)

    w = np.zeros(n)
    first = int(np.argmax(c))
    w[first] = 1.0
    s = row(first)
    b = float(c[first])
    q = float(s[first])

    def current_error() -> float:
        return float(np.sqrt(max(target_sq - 2.0 * b + q, 0.0)))

    trace = [current_error()]
    sizes = [1]
    termination = "tolerance"
    iteration = 1
    while trace[-1] > config.tolerance:
        if iteration >= config.max_iterations:
            termination = "max_iterations"
            break
        z = int(np.argmax(c - s))
        row_z = row(z)
        denom = float(row_z[z]) - 2.0 * float(s[z]) + q
        numer = float(c[z]) - b - float(s[z]) + q
        if config.step_rule == "line_search":
            if denom <= _STATIONARY_EPS or numer <= _STATIONARY_EPS:
                termination = "stationary"
                break
            lam = min(max(numer / denom, 0.0), 1.0)
        else:
            lam = 1.0 / (iteration + 1)
        w *= 1.0 - lam
        w[z] += lam
        q = (1.0 - lam) ** 2 * q + 2.0 * lam * (1.0 - lam) * float(s[z]) + lam**2 * float(row_z[z])
        b = (1.0 - lam) * b + lam * float(c[z])
        s = (1.0 - lam) * s + lam * row_z
        trace.append(current_error())
        sizes.append(int(np.count_nonzero(w)))
        iteration += 1

    members = np.nonzero(w)[0]
    alphas = w[members]
    alphas = alphas / alphas.sum()  # remove accumulated rounding in the simplex sum
    clf = MeanClassifier(kernel, alphas, S.labels[members], X[members])
    return Herd(
        classifier=clf,
        indices=members,
        error=trace[-1],
        recomputed_error=_exact_error(clf, members, c, target_sq),
        trace=tuple(trace),
        termination=termination,
        sizes=tuple(sizes),
    )


class _Members(NamedTuple):
    """The part of a herd that ``approximation_error`` reads."""

    classifier: MeanClassifier
    indices: np.ndarray


def approximation_error(herd_: Herd | _Members, S: LabeledSample) -> float:
    """||omega_S - omega_herd|| recomputed from scratch: one n^2 target pass."""
    n = len(S)
    idx = herd_.indices
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InputError("herd indices out of range for the sample")
    clf = herd_.classifier
    return _exact_error(clf, idx, *_target_pass(S, clf.kernel, np.full(n, 1.0 / n)))


def _audited(S: LabeledSample, kernel: KernelSpec, idx, alphas, **fields) -> Herd:
    """The herd of rows ``idx`` of S weighted by ``alphas``; both errors from one exact audit."""
    members = _Members(MeanClassifier(kernel, alphas, S.labels[idx], S.instances[idx]), idx)
    err = approximation_error(members, S)
    return Herd(*members, error=err, recomputed_error=err, trace=(err,), sizes=(len(idx),),
                **fields)


def parallel_herd(
    S: LabeledSample,
    groups: int,
    kernel: KernelSpec,
    config: HerdingConfig | None = None,
) -> Herd:
    """Herd contiguous near-equal groups independently, then mix by group mass.

    The mean is a mean of means, so combining per-group herds with
    weights n_i / n approximates the full mean to the worst per-group
    tolerance.  The reported error is recomputed exactly against the
    full uniform mean.  Groups are contiguous index blocks so runs are
    reproducible without an RNG.
    """
    config = config or HerdingConfig()
    n = len(S)
    if groups < 1 or groups > n:
        raise InputError(f"groups must lie in [1, {n}], got {groups}")
    blocks = np.array_split(np.arange(n), groups)

    group_idx, group_alphas, group_errors = [], [], []
    terminations = set()
    for block in blocks:
        h = herd(S.subset(block), kernel, config)
        group_idx.append(block[h.indices])
        group_alphas.append(h.classifier.alphas * (len(block) / n))
        group_errors.append(h.error)
        terminations.add(h.termination)
    alphas = np.concatenate(group_alphas)
    return _audited(
        S, kernel, np.concatenate(group_idx), alphas / alphas.sum(),
        termination="tolerance" if terminations == {"tolerance"} else "mixed",
        group_errors=tuple(group_errors),
    )


def recursive_herd(
    S: LabeledSample,
    kernel: KernelSpec,
    min_size: int,
    config: HerdingConfig | None = None,
) -> Herd:
    """Herd the data, then the herd, and so on, until shrinking stops.

    Each stage approximates the previous stage's weighted mean to
    ``config.tolerance`` using only that stage's members as candidates,
    so the total error against the original mean is at most the sum of
    stage errors; the reported error is recomputed exactly.
    """
    if min_size < 1:
        raise InputError("min_size must be >= 1")
    config = config or HerdingConfig()
    n = len(S)
    current_idx = np.arange(n)
    current_w = np.full(n, 1.0 / n)
    stages: list[StageSummary] = []
    while len(current_idx) > min_size:
        sub = S.subset(current_idx)
        h = herd(sub, kernel, config, target_weights=current_w)
        new_idx = current_idx[h.indices]
        new_w = h.classifier.alphas
        stages.append(
            StageSummary(
                size_before=len(current_idx),
                size_after=len(new_idx),
                error=h.error,
                termination=h.termination,
            )
        )
        shrank = len(new_idx) < len(current_idx)
        current_idx, current_w = new_idx, new_w
        if not shrank:
            break

    return _audited(S, kernel, current_idx, current_w, termination="recursive",
                    stages=tuple(stages))


@dataclass(frozen=True)
class ConvergenceReport:
    monotone: bool
    fitted_rate: float


def convergence_report(trace) -> ConvergenceReport:
    """Monotonicity and the fitted exponential rate of an error trace.

    The fitted rate is the least-squares slope of log(error) against
    iteration over the strictly-positive-error prefix; line-search
    herding with an interior target should show a clearly negative rate.
    """
    errors = np.asarray(trace, dtype=float)
    if errors.shape[0] < 3:
        raise InputError("trace must have at least 3 entries")
    monotone = bool(np.all(np.diff(errors) <= 1e-12))
    positive = errors > 0
    if positive.all():
        prefix = errors
    else:
        prefix = errors[: int(np.argmin(positive))]
    if prefix.shape[0] < 2:
        rate = 0.0
    else:
        it = np.arange(prefix.shape[0])
        rate = float(np.polyfit(it, np.log(prefix), 1)[0])
    return ConvergenceReport(monotone=monotone, fitted_rate=rate)
