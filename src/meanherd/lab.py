"""Brute-force oracles and experiment drivers for the robustness theory.

Every check here runs at the population level on exact finite-support
distributions, so the identities are verified to 1e-10..1e-12 rather
than statistically.  The lab restates none of the library: corrupted
distributions come from ``data``, risks from ``losses.risk`` and every
risk-table minimizer from ``brute_force_min``, the ground-truth oracle over
finite score-table classes that anything cleverer added later must match.
A function on a finite support is its score array, and a class of them is
a score table, so one ``risk`` call scores the whole class; the
surrogate-regret audit scores its many small random distributions as one
table of atoms tagged by trial.

``SUITES`` is the ``check`` command's table: each suite name, in run
order, maps to a function from a seed to the suite's reports.  A suite of
random instances draws them all from one generator,
``np.random.default_rng(seed)``, report after report.  The audits that
fit a kernel mean take no kernel: they run on ``SUITE_KERNEL``, a bounded
kernel, as their theorems assume |K| <= 1; an unbounded kernel would fail
them for a broken hypothesis, not a broken theorem.  The compression suite
herds the mean by plain kernel herding, ``herding.herd`` to each tolerance.
A class is a ``DiscreteDistribution`` whose atoms all carry its label.  Each
report serializes with ``dataclasses.asdict`` plus its ``passed`` verdict.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import combinations, product

import numpy as np

from .classifier import distance, fit
from .data import (
    DiscreteDistribution,
    LabeledSample,
    NoiseFunctionTable,
    flip_instance_dependent,
    flip_symmetric,
    contaminate,
    long_servedio,
    mutually_contaminate,
    sorted_instances,
    synth_blobs,
    _distinct,
    _eta,
    _rates,
)
from .errors import DataError, InputError
from .herding import HerdingConfig, herd
from .kernels import KernelSpec
from .losses import (
    Loss,
    balanced_error,
    hinge_loss,
    linear_loss,
    risk,
    sln_robustness_check,
    zero_one_loss,
)

_ZERO_SCORE_TOL = 1e-12  # scores below this magnitude count as abstentions

# Fixed inputs of the experiments below; each document's ``inputs`` records them.
_REGRET_MAX_SUPPORT = 5
_LONG_SERVEDIO_SIGMAS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)
_BLOB_SEPARATION = 4.0
SUITE_KERNEL = KernelSpec("gaussian", bandwidth=1.0)


@dataclass(frozen=True)
class FiniteFunctionClass:
    """Candidate classifiers as score tables over a fixed instance list."""

    instances: np.ndarray  # (m, d)
    scores: np.ndarray  # (k, m)

    def __post_init__(self):
        object.__setattr__(self, "instances", np.asarray(self.instances, dtype=float))
        s = np.asarray(self.scores, dtype=float)
        if s.ndim != 2 or s.shape[1] != len(self.instances):
            raise InputError("scores must be (k, len(instances))")
        if s.shape[0] < 1:
            raise InputError("function class must be non-empty")
        if not np.all(np.isfinite(s)):
            raise InputError("scores must be finite")
        object.__setattr__(self, "scores", s)

    @property
    def size(self) -> int:
        return self.scores.shape[0]

    def table(self, X) -> np.ndarray:
        """Every member's scores at the rows of X: shape (k, len(X))."""
        column = {inst: j for j, inst in enumerate(map(tuple, self.instances.tolist()))}
        cols = []
        for key in map(tuple, np.asarray(X, dtype=float).tolist()):
            if key not in column:
                raise InputError(f"instance {key} not covered by the function class")
            cols.append(column[key])
        return self.scores[:, cols]


@dataclass
class Assertion:
    name: str
    expected: float | str
    measured: float | str
    tolerance: float
    passed: bool


@dataclass
class ExperimentReport:
    name: str
    inputs: dict
    assertions: list[Assertion] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def _add(self, name, expected, measured, tolerance, ok) -> Assertion:
        self.assertions.append(Assertion(name, expected, measured, tolerance, bool(ok)))
        return self.assertions[-1]

    def check(self, name, expected, measured, tolerance) -> Assertion:
        ok = abs(float(measured) - float(expected)) <= tolerance
        return self._add(name, expected, measured, tolerance, ok)

    def check_le(self, name, measured, limit, tolerance=0.0) -> Assertion:
        ok = float(measured) <= float(limit) + tolerance
        return self._add(name, f"<= {limit}", float(measured), tolerance, ok)

    def check_true(self, name, condition) -> Assertion:
        return self._add(name, "true", "true" if condition else "false", 0.0, condition)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


# ---------------------------------------------------------------------------
# Random instances for audits (documented so runs are reproducible)


def _draw_atoms(rng, max_support):
    """2..max_support standard normal points in the plane, random labels, Dirichlet(1) weights."""
    m = int(rng.integers(2, max_support + 1))
    X = rng.normal(size=(m, 2))
    y = rng.choice((-1, 1), size=m)
    p = rng.dirichlet(np.ones(m))
    return X, y, p


def random_distribution(rng, max_support=6) -> DiscreteDistribution:
    """Support of 2..max_support points in the plane, Dirichlet(1) weights."""
    return DiscreteDistribution(*_draw_atoms(rng, max_support))


def random_function_class(rng, instances, k) -> FiniteFunctionClass:
    """k members with scores drawn uniformly from [-1, 1] at each instance."""
    scores = rng.uniform(-1.0, 1.0, size=(k, len(instances)))
    return FiniteFunctionClass(instances=instances, scores=scores)


# ---------------------------------------------------------------------------
# Oracles


def brute_force_min(loss: Loss, P: DiscreteDistribution, fclass: FiniteFunctionClass):
    """Exhaustive exact minimizer of the population risk over the class.

    Returns (best index, best risk); ties break to the lowest index.
    """
    risks = risk(loss, P, fclass.table(P.instances))
    best = int(np.argmin(risks))
    return best, float(risks[best])


# ---------------------------------------------------------------------------
# Theorem checks


def _regret_gaps(trial, X, y, p, v) -> np.ndarray:
    """Misclassification minus linear regret of each trial, <= 0 when |v| <= 1.

    Row i is atom (X[i], y[i]) of trial ``trial[i]``, with probability p[i]
    and score v[i]; the rows come trial by trial, in increasing trial order.
    """
    if not (np.isfinite(X).all() and np.isfinite(p).all()):
        raise DataError("instances and probabilities must be finite (found nan or inf)")
    if (p < 0).any() or (np.abs(np.bincount(trial, weights=p) - 1.0) > 1e-12).any():
        raise InputError("each trial's probabilities must be non-negative and sum to 1")
    _distinct(np.column_stack([trial, X, y]))
    bayes = np.where(1.0 - 2.0 * _eta(np.column_stack([trial, X]), y, p) >= 0.0, -1.0, 1.0)
    table = np.stack([loss(y, s) for loss in (zero_one_loss, linear_loss) for s in (v, bayes)])
    size = np.bincount(trial)
    risks = np.empty((4, size.size))
    for m in np.unique(size):  # per trial, the sum that ``losses.risk`` takes, bit for bit
        rows = size[trial] == m
        risks[:, size == m] = np.sum((table[:, rows] * p[rows]).reshape(4, -1, m), axis=-1)
    mis_v, mis_bayes, lin_v, lin_bayes = risks
    return (mis_v - mis_bayes) - (lin_v - lin_bayes)


def check_surrogate_regret(trials: int = 1000, seed: int = 0) -> ExperimentReport:
    """Misclassification regret never exceeds linear-loss regret.

    Each seeded trial draws 2 to ``_REGRET_MAX_SUPPORT`` atoms, then one
    function's scores, uniform in [-1, 1] at its distinct instances in
    lexicographic order; ``_regret_gaps`` scores all trials as one table.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    report = ExperimentReport(
        name="surrogate-regret",
        inputs={"trials": trials, "seed": seed, "max_support": _REGRET_MAX_SUPPORT},
    )
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):
        X, y, p = _draw_atoms(rng, _REGRET_MAX_SUPPORT)
        distinct = len(set(map(tuple, X.tolist())))
        draws.append((X, y, p, rng.uniform(-1.0, 1.0, size=(1, distinct))[0]))
    X, y, p, scores = (np.concatenate(a) for a in zip(*draws))
    trial = np.repeat(np.arange(trials), [len(d[1]) for d in draws])
    # the sorted distinct (trial, instance) rows come in the order their scores were drawn
    # (ravel: numpy 2.0.0 returns this inverse as a column)
    _, column = np.unique(np.column_stack([trial, X]), axis=0, return_inverse=True)
    gaps = _regret_gaps(trial, X, y, p, scores[column.ravel()])
    report.check_le("max(mis_regret - lin_regret)", float(np.max(gaps)), 0.0, tolerance=1e-12)
    return report


def check_sln_immunity(P: DiscreteDistribution, sigmas) -> ExperimentReport:
    """Symmetric noise scales the mean embedding by 1 - 2 sigma, labels unchanged."""
    report = ExperimentReport(
        name="sln-immunity", inputs={"sigmas": list(sigmas), "kernel": SUITE_KERNEL.to_dict()}
    )
    X = P.instances
    clean_scores = fit(P, SUITE_KERNEL).scores(X)
    s_clean = np.where(np.abs(clean_scores) <= _ZERO_SCORE_TOL, 0, np.sign(clean_scores))
    for sigma in sigmas:
        P_sigma = flip_symmetric(P, sigma)
        report.check_le(
            f"||omega_noisy - (1-2*{sigma}) omega_clean||",
            distance(SUITE_KERNEL, P_sigma, P, 1.0 - 2.0 * sigma),
            0.0,
            tolerance=1e-12,
        )
        noisy_scores = fit(P_sigma, SUITE_KERNEL).scores(X)
        s_noisy = np.where(np.abs(noisy_scores) <= _ZERO_SCORE_TOL, 0, np.sign(noisy_scores))
        report.check_true(f"labels agree on support (sigma={sigma})", np.array_equal(s_clean, s_noisy))
    return report


def check_contamination(
    P: DiscreteDistribution, Q: DiscreteDistribution, sigma: float
) -> ExperimentReport:
    """Corruption below the smallest score magnitude leaves zero-one risk unchanged.

    Contamination moves the mean embedding by sigma ||omega_P - omega_Q||,
    so with |K| <= 1 no score moves further than that.  When this is below
    the margin min |f(x)| over the atoms of P, no score changes sign.  The
    implication is one-way: otherwise the report only records the
    measurements.
    """
    report = ExperimentReport(
        name="contamination", inputs={"sigma": sigma, "kernel": SUITE_KERNEL.to_dict()}
    )
    X = P.instances
    clean_scores = fit(P, SUITE_KERNEL).scores(X)
    perturbation = sigma * distance(SUITE_KERNEL, P, Q)
    margin = float(np.min(np.abs(clean_scores[P.probabilities > 0])))
    report.extras["perturbation"] = perturbation
    report.extras["margin"] = margin
    if perturbation < margin:
        contaminated = fit(contaminate(P, Q, sigma), SUITE_KERNEL)
        r_clean = risk(zero_one_loss, P, clean_scores)
        r_tilde = risk(zero_one_loss, P, contaminated.scores(X))
        report.check("risk equality under small corruption", r_clean, r_tilde, 1e-12)
    else:
        report.notes.append(
            "hypothesis sigma*||omega_P - omega_Q|| < min |f(x)| fails; the implication is one-way, nothing asserted"
        )
    return report


def _robust_constant(loss: Loss, claim: str) -> float:
    """The sum constant C of a noise-robust loss; an InputError that ``claim`` needs one otherwise."""
    verdict = sln_robustness_check(loss)
    if not verdict.is_robust:
        raise InputError(f"{claim} requires a noise-robust loss; "
                         f"sln_robustness_check({loss.name}) returned {verdict.verdict}")
    return verdict.constant


def check_ber_immunity(
    loss: Loss,
    P_pos: DiscreteDistribution,
    P_neg: DiscreteDistribution,
    alpha: float,
    beta: float,
    fclass: FiniteFunctionClass,
) -> ExperimentReport:
    """Mutual contamination shifts balanced error affinely, preserving argmins;
    ``P_pos`` and ``P_neg`` are the classes, all atoms labelled +1 and -1."""
    C = _robust_constant(loss, "balanced-error immunity")
    report = ExperimentReport(name="ber-immunity", inputs={
        "loss": loss.name, "alpha": alpha, "beta": beta, "class_size": fclass.size})
    t_pos, t_neg = mutually_contaminate(P_pos, P_neg, alpha, beta)
    slope = 1.0 - alpha - beta
    intercept = (alpha + beta) / 2.0 * C

    def ber(A: DiscreteDistribution, B: DiscreteDistribution) -> np.ndarray:
        """The balanced error of every member of the class."""
        return balanced_error(loss, A, B, fclass.table(A.instances), fclass.table(B.instances))

    clean = ber(P_pos, P_neg)
    noisy = ber(t_pos, t_neg)
    worst = float(np.max(np.abs(noisy - (slope * clean + intercept))))
    report.check_le("max affine-identity residual", worst, 0.0, tolerance=1e-10)
    report.check("argmin invariance", int(np.argmin(clean)), int(np.argmin(noisy)), 0.0)
    report.extras["slope"] = slope
    report.extras["intercept"] = intercept
    return report


def check_ghosh_bound(
    P: DiscreteDistribution,
    table: NoiseFunctionTable,
    loss: Loss,
    fclass: FiniteFunctionClass,
) -> ExperimentReport:
    """Instance-dependent noise degrades a robust loss by at most 1/min(1 - 2 sigma)."""
    _robust_constant(loss, "the bound")
    report = ExperimentReport(name="ghosh-bound", inputs={"loss": loss.name, "class_size": fclass.size})
    i_noisy, _ = brute_force_min(loss, flip_instance_dependent(P, table), fclass)
    i_clean, r_clean = brute_force_min(loss, P, fclass)
    report.check_le("clean risk of corrupted minimizer vs bound",
                    risk(loss, P, fclass.table(P.instances)[i_noisy]), r_clean / table.min_signal(), 1e-12)
    report.extras["clean_minimizer"] = i_clean
    report.extras["corrupted_minimizer"] = i_noisy
    return report


def order_reversal_witness(loss: Loss, sigma: float, seed: int = 0, trials: int = 5000):
    """Search for score-label distributions whose loss ordering flips under noise.

    Each trial draws two 2-atom distributions over (score, label) atoms and
    scores each with ``risk``, clean and after ``flip_symmetric(Q, sigma)``;
    sigma obeys ``data``'s flip-rate rule (>= 0 with 2 sigma < 1, nan
    failing it).  Returns a witness dict for a non-robust loss, or None if
    ``trials`` >= 1 random trials find nothing (expected for robust losses).
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    _rates(sigma, sigma)
    rng = np.random.default_rng(seed)

    def expect(atoms, probs):
        """The clean and the noisy expected loss of the distribution of (score, label) atoms."""
        Q = DiscreteDistribution([[v] for v, _ in atoms], [y for _, y in atoms], probs)
        return [risk(loss, D, D.instances[:, 0]) for D in (Q, flip_symmetric(Q, sigma))]

    for _ in range(trials):
        pair = []
        for _q in range(2):
            atoms = [(float(rng.uniform(-3, 3)), int(rng.choice((-1, 1)))) for _ in range(2)]
            p0 = float(rng.uniform(0.05, 0.95))
            pair.append((atoms, (p0, 1.0 - p0)))
        (a1, p1), (a2, p2) = pair
        clean_gap, noisy_gap = np.subtract(expect(a1, p1), expect(a2, p2)).tolist()
        if clean_gap < -1e-9 and noisy_gap > 1e-9:
            return {"Q": (a1, p1), "Q_prime": (a2, p2), "clean_gap": clean_gap, "noisy_gap": noisy_gap}
    return None


# ---------------------------------------------------------------------------
# Long-Servedio reproduction


def _hinge_min_over_hyperplanes(P: DiscreteDistribution, sigma: float):
    """Exact minimizer of the hinge risk on ``flip_symmetric(P, sigma)`` over
    hyperplanes through the origin, for P with planar atoms.

    The risk R(w) = ``risk(hinge_loss, P_sigma, <w, x>)`` is convex piecewise
    linear with kinks on the lines <w, x_i> = +-1.  No two atoms are
    parallel, so R is least at a vertex where the kink lines of two atoms
    cross; all 4 per pair are scored as one class by ``brute_force_min``.
    Tie-break: the first vertex, pairs (i < j) in order, then signs (+,+),
    (+,-), (-,+), (-,-).
    """
    X = P.instances
    A = np.stack([X[[i, j]] for i, j in combinations(range(len(X)), 2)])
    signs = np.array(list(product((1.0, -1.0), repeat=2)))
    W = np.linalg.solve(A[:, np.newaxis], signs[np.newaxis, ..., np.newaxis])[..., 0].reshape(-1, 2)
    i, r = brute_force_min(hinge_loss, flip_symmetric(P, sigma), FiniteFunctionClass(X, W @ X.T))
    return W[i], r


def run_long_servedio(gamma: float) -> ExperimentReport:
    """Hinge minimization collapses to coin flipping under noise; the mean never does.

    Hinge is minimized exactly over hyperplanes through the origin, over
    direction and scale (scale matters for hinge even though classification
    depends only on the direction).  The sweep records every noise level at
    which the hinge minimizer misclassifies the probability-1/2 atom, driving
    its clean zero-one risk to exactly 0.5.  The noise levels are
    ``_LONG_SERVEDIO_SIGMAS``.
    """
    report = ExperimentReport(
        name="long-servedio",
        inputs={"gamma": gamma, "sigma_grid": list(_LONG_SERVEDIO_SIGMAS)},
    )
    P = long_servedio(gamma)
    atoms = P.instances
    kernel = KernelSpec("linear")

    w0, _ = _hinge_min_over_hyperplanes(P, 0.0)
    mis0 = risk(zero_one_loss, P, atoms @ w0)
    report.check("hinge minimizer correct at sigma=0", 0.0, mis0, 0.0)

    failing = []
    mean_ok = True
    for sigma in _LONG_SERVEDIO_SIGMAS:
        w, _ = _hinge_min_over_hyperplanes(P, sigma)
        mis = risk(zero_one_loss, P, atoms @ w)
        if abs(mis - 0.5) <= 1e-12:
            failing.append(sigma)
        mean_clf = fit(flip_symmetric(P, sigma), kernel)
        mean_ok = mean_ok and bool(np.all(mean_clf.scores(atoms) > 0))
    report.check_true("mean classifier correct at every sigma", mean_ok)
    report.check_true(
        "exists sigma where hinge minimizer has zero-one risk 0.5", bool(failing)
    )
    report.extras["failing_sigmas"] = failing
    report.extras["min_failing_sigma"] = failing[0] if failing else None
    return report


# ---------------------------------------------------------------------------
# Compression experiment


def run_compression_experiment(
    eps_list=(0.01,),
    seed: int = 0,
    n: int = 2000,
    dataset_path=None,
) -> ExperimentReport:
    """Test accuracy of herded classifiers versus the full-mean baseline.

    Each tolerance in ``eps_list`` gives one ``herd`` (at most
    ``HerdingConfig``'s default number of steps), so a curve row's exact
    ``error`` is its ``eps`` or less, up to rounding, whenever the herd ends
    ``tolerance``.  The data is an .npz asset with X_train, y_train, X_test
    and y_test when ``dataset_path`` is given, and otherwise a seeded
    two-blob sample with centers ``_BLOB_SEPARATION`` apart.  Emits (herd
    fraction, accuracy) curve rows and asserts the sup-norm audit
    |full score - sparse score| <= herd error on every test point.
    """
    report = ExperimentReport(
        name="compression",
        inputs={
            "kernel": SUITE_KERNEL.to_dict(),
            "eps_list": list(eps_list),
            "seed": seed,
            "dataset": str(dataset_path) if dataset_path else f"blobs(n={n}, sep={_BLOB_SEPARATION})",
        },
    )
    if dataset_path is not None:
        with np.load(dataset_path) as data:
            train = LabeledSample(data["X_train"], data["y_train"])
            test = LabeledSample(data["X_test"], data["y_test"])
    else:
        train = synth_blobs(n, 2, _BLOB_SEPARATION, seed)
        test = synth_blobs(2 * max(1, n // 4), 2, _BLOB_SEPARATION, seed + 1)
    full_scores = fit(train, SUITE_KERNEL).scores(test.instances)
    report.extras["baseline_accuracy"] = float(np.mean(test.labels * full_scores > 0))

    curve = []
    for eps in eps_list:
        h = herd(train, SUITE_KERNEL, HerdingConfig(tolerance=eps))
        err = h.recomputed_error
        sparse_scores = h.classifier.scores(test.instances)
        acc = float(np.mean(test.labels * sparse_scores > 0))
        gap = float(np.max(np.abs(full_scores - sparse_scores)))
        report.check_le(f"sup-norm audit on test points (eps={eps})", gap, err, 1e-9)
        curve.append(
            {"eps": eps, "herd_size": h.size, "fraction": h.size / len(train),
             "accuracy": acc, "error": err}
        )
    report.extras["curve"] = curve
    return report


# ---------------------------------------------------------------------------
# The ``check`` suites


def _each(count: int, draw):
    """A suite of ``count`` reports ``draw(rng)`` from one generator seeded by the seed."""
    def reports(seed):
        rng = np.random.default_rng(seed)
        return [draw(rng) for _ in range(count)]
    return reports


def _ber_immunity(rng) -> ExperimentReport:
    P_pos = random_distribution(rng).instance_marginal(1)
    P_neg = random_distribution(rng).instance_marginal(-1)
    fclass = random_function_class(rng, sorted_instances(P_pos, P_neg), k=8)
    return check_ber_immunity(linear_loss, P_pos, P_neg, float(rng.uniform(0, 0.4)),
                              float(rng.uniform(0, 0.4)), fclass)


def _ghosh(rng) -> ExperimentReport:
    P = random_distribution(rng)
    table = NoiseFunctionTable([float(rng.uniform(0, 0.45)) for _ in range(len(P))])
    fclass = random_function_class(rng, sorted_instances(P), k=10)
    return check_ghosh_bound(P, table, linear_loss, fclass)


def _order_reversal(seed) -> list[ExperimentReport]:
    report = ExperimentReport(name="order-reversal", inputs={"loss": "hinge", "seed": seed})
    witness = order_reversal_witness(hinge_loss, sigma=0.4, seed=seed)
    report.check_true("hinge order-reversal witness found", witness is not None)
    if witness is not None:
        report.extras["witness"] = witness
    return [report]


# Suite name -> its reports for a seed, in the order ``check --suite all`` runs them.
SUITES = {
    "surrogate-regret": lambda seed: [check_surrogate_regret(trials=1000, seed=seed)],
    "sln-immunity": _each(20, lambda rng: check_sln_immunity(
        random_distribution(rng), (0.1, 0.25, 0.4))),
    "contamination": _each(20, lambda rng: check_contamination(
        random_distribution(rng), random_distribution(rng), float(rng.uniform(0, 0.2)))),
    "ber-immunity": _each(20, _ber_immunity),
    "ghosh": _each(50, _ghosh),
    "long-servedio": lambda seed: [run_long_servedio(1.0 / 24.0)],
    "compression": lambda seed: [run_compression_experiment(eps_list=(0.01,), seed=seed)],
    "order-reversal": _order_reversal,
}
