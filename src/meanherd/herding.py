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
support.  Only c needs a pass over the n x n kernel matrix, done once by
``kernels.self_sums``, which evaluates its upper triangle, about n^2 / 2
entries, in row blocks; each iteration then evaluates the single kernel
row it selects (``kernels.kernel_rows``, from points prepared once).
Memory is one block of kernel entries plus a few n-vectors, never n x n.

Every herd also carries ``recomputed_error``, the error evaluated exactly
from c and the herd's own squared norm (``embedding.squared_norm`` over its
m members) instead of through the recurrences for b and q, and that squared
norm, which its model document reports as ``meta.norm``.  So every herd
makes one n^2 pass over the sample: a plain herd and the first stage of a
recursive herd herd from their own c, and a recursive herd takes its final
error from that same c (later stages pass only over the previous stage's
members).  A parallel herd makes the uniform pass once for its error,
besides each group's own pass; with one group the two are the same pass.
Groups and stages carry no exact error of their own, so a parallel herd
with one group evaluates exactly the kernel entries of a plain herd.  A
recursive herd with no stage is its target, with error exactly 0 and the
target pass's squared norm, and ends ``tolerance``.  Every Frank-Wolfe run
ends ``tolerance``, ``stationary`` or ``max_iterations`` (the cap); a
parallel or recursive herd ends as the worst of its group or stage runs.
``approximation_error`` is the from-scratch audit of a herd against its
own sample; no herding path calls it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import embedding as emb
from .classifier import MeanClassifier, fit
from .data import LabeledSample
from .errors import DataError, InputError
from .kernels import KernelSpec, kernel_rows, self_sums
from .losses import _affine_fit

STEP_RULES = ("line_search", "uniform")
# How a Frank-Wolfe run ends, worst first (``_worst``)
TERMINATIONS = ("max_iterations", "stationary", "tolerance")

# Improvements below this are indistinguishable from rounding noise;
# treated as stationarity.
_STATIONARY_EPS = 1e-15


@dataclass(frozen=True)
class HerdingConfig:
    tolerance: float = 0.01
    max_iterations: int = 10000
    step_rule: str = "line_search"

    def __post_init__(self):
        if not (0 < self.tolerance < np.inf):
            raise InputError(f"tolerance must be finite and > 0, got {self.tolerance}")
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
    everywhere (Cauchy-Schwarz against ||phi(x)|| <= 1); otherwise only
    within ``error`` sqrt(K(x, x)) at x.  ``error``, the last ``trace`` entry,
    is the tracked error, ``recomputed_error`` the same quantity evaluated
    exactly, and ``squared_norm`` the herd's ||omega||^2 from that evaluation,
    which the model document reports as ``meta.norm``.  ``sizes`` holds the
    distinct members at each ``trace`` entry; the document writes both.
    ``termination`` is the run's, or its worst group's or stage's.
    """

    classifier: MeanClassifier
    indices: np.ndarray  # the members' indices into the source sample
    recomputed_error: float
    squared_norm: float
    trace: tuple[float, ...]
    termination: str
    sizes: tuple[int, ...]
    stages: tuple[StageSummary, ...] = field(default=())
    group_errors: tuple[float, ...] = field(default=())

    @property
    def error(self) -> float:
        return self.trace[-1]

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    def to_dict(self, n_source: int) -> dict:
        """Model document of the sparse classifier, plus the herd's fields.

        ``MeanClassifier.from_dict`` reads it like a ``train`` document.
        """
        doc = self.classifier._document(n_source, self.squared_norm)
        doc["members"] = [{"alpha": a, "index": i} for a, i in
                          zip(self.classifier.alphas.tolist(), self.indices.tolist())]
        doc["error"] = float(self.error)
        doc["recomputed_error"] = float(self.recomputed_error)
        doc["trace"] = list(self.trace)
        doc["sizes"] = list(self.sizes)
        doc["termination"] = self.termination
        if self.group_errors:
            doc["group_errors"] = list(self.group_errors)
        if self.stages:
            doc["stages"] = [asdict(st) for st in self.stages]
        return doc


def _worst(terminations) -> str:
    """The worst of some runs' terminations; ``tolerance`` when there is no run."""
    return min(terminations, key=TERMINATIONS.index, default="tolerance")


def _finite(v: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(v)):
        raise DataError("non-finite kernel values in candidate set")
    return v


def _target_pass(target: MeanClassifier) -> tuple[np.ndarray, float]:
    """c[j] = <omega_target, psi(z_j)> = y_j f(x_j) and ||omega_target||^2: the one n^2 pass."""
    c = _finite(target.labels * self_sums(target.kernel, target.points, target.coef))
    return c, float(target.alphas @ c)


def _exact_error(clf: MeanClassifier, idx: np.ndarray, c: np.ndarray,
                 target_sq: float) -> tuple[float, float]:
    """||omega_target - omega_clf|| and ||omega_clf||^2, for the classifier on rows ``idx``.

    target_sq - 2 alpha.c[idx] + ||omega_clf||^2, so given the target pass
    it costs the kernel entries of the herd's own self-sum alone.
    """
    herd_sq = emb.squared_norm(clf.kernel, clf.points, clf.coef)
    cross = float(clf.alphas @ c[idx])
    return float(np.sqrt(max(target_sq - 2.0 * cross + herd_sq, 0.0))), herd_sq


def _frank_wolfe(target: MeanClassifier, config: HerdingConfig, c: np.ndarray, target_sq: float):
    """Herd the target's own support points from its target pass (c, target_sq).

    Returns (classifier, member indices, trace, sizes, termination): a Herd
    without its exact error, which only ``herd`` computes.
    """
    kernel = target.kernel
    X = target.points
    y = target.labels.astype(float)
    kernel_row = kernel_rows(kernel, X)

    def row(i: int) -> np.ndarray:
        """<psi(z_i), psi(z_j)> for every candidate j: one kernel row."""
        return _finite(y[i] * y * kernel_row(i))

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
    return clf, members, tuple(trace), tuple(sizes), termination


def herd(data, kernel: KernelSpec, config: HerdingConfig | None = None) -> Herd:
    """Greedy sparse approximation of the mean embedding of ``data``.

    The target is ``fit(data, kernel)``: sum_j t_j y_j phi(x_j) with t
    uniform over a ``LabeledSample``, or the atom probabilities of a
    ``DiscreteDistribution``.  It lies in the convex hull of the
    candidates (the sample's rows or the distribution's atoms), so
    line-search steps enjoy the geometric convergence rate.  Ties in the
    greedy argmax break to the lowest candidate index; candidates may be
    re-selected, in which case their weights accumulate.
    """
    target = fit(data, kernel)
    c, target_sq = _target_pass(target)
    clf, members, trace, sizes, end = _frank_wolfe(target, config or HerdingConfig(), c, target_sq)
    err, herd_sq = _exact_error(clf, members, c, target_sq)
    return Herd(clf, members, recomputed_error=err, squared_norm=herd_sq,
                trace=trace, termination=end, sizes=sizes)


def approximation_error(herd_: Herd, S: LabeledSample) -> float:
    """||omega_S - omega_herd|| recomputed from scratch (one n^2 target pass); S must
    be the herd's own sample, and any other sample is an InputError."""
    idx = herd_.indices
    if idx.size and (idx.min() < 0 or idx.max() >= len(S)):
        raise InputError("herd indices out of range for the sample")
    clf = herd_.classifier
    if not (np.array_equal(S.instances[idx], clf.points) and np.array_equal(S.labels[idx], clf.labels)):
        raise InputError("the herd's points and labels are not the sample's rows at its indices")
    return _exact_error(clf, idx, *_target_pass(fit(S, clf.kernel)))[0]


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

    group_idx, group_alphas, group_errors, terminations = [], [], [], []
    for block in blocks:
        target = fit(S.subset(block), kernel)
        group_pass = _target_pass(target)
        clf, members, trace, _, termination = _frank_wolfe(target, config, *group_pass)
        group_idx.append(block[members])
        group_alphas.append(clf.alphas * (len(block) / n))
        group_errors.append(trace[-1])
        terminations.append(termination)
    idx = np.concatenate(group_idx)
    alphas = np.concatenate(group_alphas)
    clf = MeanClassifier(kernel, alphas / alphas.sum(), S.labels[idx], S.instances[idx])
    # One group is the whole sample, so its pass is already the uniform pass.
    full_pass = group_pass if groups == 1 else _target_pass(fit(S, kernel))
    err, herd_sq = _exact_error(clf, idx, *full_pass)
    return Herd(clf, idx, recomputed_error=err, squared_norm=herd_sq,
                trace=(err,), sizes=(len(idx),), termination=_worst(terminations),
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
        clf, members, trace, _, termination = _frank_wolfe(
            target, config, *(_target_pass(target) if stages else full_pass))
        stages.append(StageSummary(size_before=target.n_support, size_after=members.size,
                                   error=trace[-1], termination=termination))
        idx, target = idx[members], clf
        if members.size == stages[-1].size_before:
            break

    # With no stage the herd is the target itself: its error is exactly 0,
    # and its squared norm is the target pass's, clamped as the exact error is.
    err, herd_sq = _exact_error(target, idx, *full_pass) if stages else (0.0, max(full_pass[1], 0.0))
    return Herd(target, idx, recomputed_error=err, squared_norm=herd_sq, trace=(err,), sizes=(len(idx),),
                termination=_worst(st.termination for st in stages), stages=tuple(stages))


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
        rate, _, _ = _affine_fit(np.arange(prefix.shape[0], dtype=float), np.log(prefix))
    return ConvergenceReport(monotone=monotone, fitted_rate=rate)
