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

The target is a mean classifier f = sum_j t_j y_j K(x_j, .) over the
candidates, so c[j] = y_j f(x_j): the target's scores on its own
support.  Only c needs a pass over all n^2 kernel entries, done once in
row blocks by ``MeanClassifier.scores``; each iteration then evaluates
the single kernel row it selects.  Memory is one block of kernel entries
plus a few n-vectors, never n x n.

Every herd also carries ``recomputed_error``, the error evaluated exactly
from c and the herd's own norm (its scores on its m members) instead of
through the recurrences for b and q.  So every herd makes one n^2 pass
over the sample: a plain herd and the first stage of a recursive herd
herd from their own c, and a recursive herd takes its final error from
that same c (later stages pass only over the previous stage's members).
A parallel herd makes the uniform pass once for its error, besides each
group's own pass.  ``approximation_error`` is the from-scratch audit of
a herd against a sample; no herding path calls it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .classifier import MeanClassifier, fit
from .data import LabeledSample
from .errors import DataError, InputError
from .kernels import KernelSpec, cross_gram

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


def _finite(v: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise DataError("non-finite kernel values in candidate set")
    return v


def _target_pass(target: MeanClassifier) -> tuple[np.ndarray, float]:
    """c[j] = <omega_target, psi(z_j)> = y_j f(x_j) and ||omega_target||^2: the one n^2 pass."""
    c = _finite(target.labels * target.scores(target.points))
    return c, float(target.alphas @ c)


def _exact_error(clf: MeanClassifier, idx: np.ndarray, c: np.ndarray, target_sq: float) -> float:
    """||omega_target - omega_clf|| for the classifier on rows ``idx`` of c's candidates.

    target_sq - 2 alpha.c[idx] + ||omega_clf||^2, so given the target pass
    it costs the m^2 kernel entries of the herd alone.
    """
    herd_sq = float((clf.alphas * clf.labels) @ clf.scores(clf.points))
    cross = float(clf.alphas @ c[idx])
    return float(np.sqrt(max(target_sq - 2.0 * cross + herd_sq, 0.0)))


def _frank_wolfe(target: MeanClassifier, config: HerdingConfig, c: np.ndarray,
                 target_sq: float) -> Herd:
    """Herd the target's own support points from its target pass (c, target_sq)."""
    kernel = target.kernel
    X = target.points
    y = target.labels.astype(float)

    def row(i: int) -> np.ndarray:
        """<psi(z_i), psi(z_j)> for every candidate j: one kernel row."""
        return _finite(y[i] * y * cross_gram(kernel, X[i], X)[0])

    w = np.zeros(target.n_support)
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
    clf = MeanClassifier(kernel, alphas, target.labels[members], X[members])
    return Herd(
        classifier=clf,
        indices=members,
        error=trace[-1],
        recomputed_error=_exact_error(clf, members, c, target_sq),
        trace=tuple(trace),
        termination=termination,
        sizes=tuple(sizes),
    )


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
    if target_weights is None:
        target = fit(S, kernel)
    else:
        target = MeanClassifier(kernel, target_weights, S.labels, S.instances)
    return _frank_wolfe(target, config or HerdingConfig(), *_target_pass(target))


def approximation_error(herd_: Herd, S: LabeledSample) -> float:
    """||omega_S - omega_herd|| recomputed from scratch: one n^2 target pass."""
    idx = herd_.indices
    if idx.size and (idx.min() < 0 or idx.max() >= len(S)):
        raise InputError("herd indices out of range for the sample")
    clf = herd_.classifier
    return _exact_error(clf, idx, *_target_pass(fit(S, clf.kernel)))


def parallel_herd(
    S: LabeledSample,
    groups: int,
    kernel: KernelSpec,
    config: HerdingConfig | None = None,
) -> Herd:
    """Herd contiguous near-equal groups independently, then mix by group mass.

    The mean is a mean of means, so combining per-group herds with
    weights n_i / n approximates the full mean to the worst per-group
    tolerance.  The reported error is computed exactly against the full
    uniform mean, from one target pass.  Groups are contiguous index
    blocks so runs are reproducible without an RNG.
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
    idx = np.concatenate(group_idx)
    alphas = np.concatenate(group_alphas)
    clf = MeanClassifier(kernel, alphas / alphas.sum(), S.labels[idx], S.instances[idx])
    err = _exact_error(clf, idx, *_target_pass(fit(S, kernel)))
    return Herd(clf, idx, error=err, recomputed_error=err, trace=(err,), sizes=(len(idx),),
                termination="tolerance" if terminations == {"tolerance"} else "mixed",
                group_errors=tuple(group_errors))


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
    stage errors.  The uniform target pass is made once: stage 1 herds
    from it and the reported error is computed exactly from it.
    """
    if min_size < 1:
        raise InputError("min_size must be >= 1")
    config = config or HerdingConfig()
    target = fit(S, kernel)
    full_pass = _target_pass(target)
    idx = np.arange(len(S))
    stages: list[StageSummary] = []
    while target.n_support > min_size:
        h = _frank_wolfe(target, config, *(_target_pass(target) if stages else full_pass))
        stages.append(StageSummary(size_before=target.n_support, size_after=h.size,
                                   error=h.error, termination=h.termination))
        idx, target = idx[h.indices], h.classifier
        if h.size == stages[-1].size_before:
            break

    err = _exact_error(target, idx, *full_pass)
    return Herd(target, idx, error=err, recomputed_error=err, trace=(err,), sizes=(len(idx),),
                termination="recursive", stages=tuple(stages))


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
