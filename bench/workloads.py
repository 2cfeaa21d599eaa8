"""Seeded inputs and command lists of the three benchmark workloads.

``setup(name, seed, workdir)`` writes a workload's input files and returns
the commands of one pass together with the oracle context their checks
need.  The program sees only the written files; the seed never reaches it.

- compress: herd (plain, --parallel, --recursive) on two Gaussian blobs.
  Kernel n^2 blocks, the Frank-Wolfe loop and the exact audit do almost
  all the work, and memory grows as n^2.
- classify: train, eval with three losses, and mmd from CSV and from the
  same rows as sparse text.  No herding: loaders, rectangular test x
  support kernel blocks, per-row scoring and the embedding norm.
- audit: every check suite on fixed seeds, and the three noise models on
  a seeded distribution file.  Thousands of tiny kernel and exact-mixture
  operations, with interpreter start-up paid per command.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

BANDWIDTH = 4.0
KERNEL = f"gaussian:{BANDWIDTH}"
SEPARATION = 4.0
DIM = 20
N_TRAIN = 4000
N_HELD = 1000
N_TEST = 1000
EPSILON = 0.02
GROUPS = 4            # groups of 1000 points for --parallel
MIN_SIZE = 100
EVAL_LOSSES = ("zero-one", "hinge", "sln-corrected:hinge:0.2")
CHECK_SEEDS = (0, 1)  # every suite passes at these seeds
# check --suite contamination fails at these seeds (and at 4, 5, 10, 16,
# 17, 22-24 and 26 of 0-29) because of the margin fault named in oracles.
CONTAMINATION_FAILING_SEEDS = (2, 3)
DIST_ATOMS = 3000
DIST_DIM = 4
Q_ATOMS = 600

WORKLOADS = ("compress", "classify", "audit")


Verdict = tuple[bool, dict]  # (failed in the known way, counts read from the output)


@dataclass
class Command:
    label: str                 # short name of the command in reports
    metric: str                # the per-command figure it feeds: herd_s, eval_s, ...
    argv: list[str]            # arguments after ``meanherd``
    out: Path
    verify: Callable[[int, dict | None], Verdict]


@dataclass
class Context:
    """Data the oracles need; kernel sums are computed once per run, lazily."""

    h: float
    X: np.ndarray | None = None
    y: np.ndarray | None = None
    X_held: np.ndarray | None = None
    X_test: np.ndarray | None = None
    y_test: np.ndarray | None = None
    _cache: dict = field(default_factory=dict)

    def _sums(self):
        if "target_sq" not in self._cache:
            n = self.X.shape[0]
            pos, neg = self.y == 1, self.y == -1
            gap = pos / max(pos.sum(), 1) - neg / max(neg.sum(), 1)
            target_sq, gap_sq = oracles.quadratic_forms(self.X, [self.y / n, gap], self.h)
            self._cache.update(target_sq=target_sq, mean_gap_sq=gap_sq)
        return self._cache

    @property
    def target_sq(self) -> float:
        return self._sums()["target_sq"]

    @property
    def mean_gap_sq(self) -> float:
        return self._sums()["mean_gap_sq"]

    @property
    def held_scores(self) -> np.ndarray:
        if "held" not in self._cache:
            self._cache["held"] = oracles.kernel_scores(
                self.X_held, self.X, self.y / self.X.shape[0], self.h)
        return self._cache["held"]

    @property
    def test_scores(self) -> np.ndarray:
        if "test" not in self._cache:
            self._cache["test"] = oracles.kernel_scores(
                self.X_test, self.X, self.y / self.X.shape[0], self.h)
        return self._cache["test"]


# ---------------------------------------------------------------------------
# Generators


def blobs(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two unit-variance clouds at +-(SEPARATION/2) e_1, half the points each."""
    half = n // 2
    center = np.zeros(DIM)
    center[0] = SEPARATION / 2.0
    X = np.vstack([rng.standard_normal((half, DIM)) + center,
                   rng.standard_normal((n - half, DIM)) - center])
    y = np.concatenate([np.ones(half), -np.ones(n - half)])
    return X, y


def write_csv(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    # %.17g round-trips every double, so the program reads exactly X.
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", fmt="%.17g")


def write_sparse(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row, label in zip(X, y):
            feats = " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row.tolist()) if v != 0.0)
            fh.write(f"{int(label)} {feats}\n")


def distribution(rng, atoms: int) -> dict:
    """Finite distribution whose instances sit on a coarse grid.

    About a third of the instances carry both labels, so label flips
    produce duplicate atoms that the exact mixtures must merge.
    """
    xs: dict = {}
    while len(xs) < atoms * 3 // 4:
        xs.setdefault(tuple(np.round(rng.normal(size=DIST_DIM), 1).tolist()), None)
    support = []
    for x in xs:
        labels = (1, -1) if rng.random() < 1 / 3 else (int(rng.choice((-1, 1))),)
        support += [[list(x), y] for y in labels]
    support = support[:atoms]
    p = rng.dirichlet(np.ones(len(support)))
    return {"support": support, "prob": p.tolist()}


def read_json(path: Path) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Workloads


def _succeeded(label: str, check: Callable[[dict], dict]):
    def verify(code: int, doc: dict | None) -> Verdict:
        oracles.expect(code == 0 and doc is not None, f"{label} exited {code}")
        return False, check(doc)
    return verify


def _compress(rng, wd: Path) -> list[Command]:
    ctx = Context(h=BANDWIDTH)
    ctx.X, ctx.y = blobs(rng, N_TRAIN)
    ctx.X_held, _ = blobs(rng, N_HELD)
    data = wd / "train.csv"
    write_csv(data, ctx.X, ctx.y)

    def herd(label, metric, mode, extra, groups=1):
        out = wd / f"{label}.json"
        argv = ["herd", "--data", str(data), "--kernel", KERNEL, "--epsilon", str(EPSILON),
                *extra, "--out", str(out)]
        return Command(label, metric, argv, out, _succeeded(
            label, lambda doc: oracles.check_herd(doc, ctx, mode, EPSILON, groups)))

    return [
        herd("herd", "herd_s", "plain", []),
        herd("herd-parallel", "herd_parallel_s", "parallel", ["--parallel", str(GROUPS)], GROUPS),
        herd("herd-recursive", "herd_recursive_s", "recursive",
             ["--recursive", "--min-size", str(MIN_SIZE)]),
    ]


def _classify(rng, wd: Path) -> list[Command]:
    ctx = Context(h=BANDWIDTH)
    ctx.X, ctx.y = blobs(rng, N_TRAIN)
    ctx.X_test, ctx.y_test = blobs(rng, N_TEST)
    csv, sparse, test = wd / "train.csv", wd / "train.txt", wd / "test.csv"
    write_csv(csv, ctx.X, ctx.y)
    write_sparse(sparse, ctx.X, ctx.y)
    write_csv(test, ctx.X_test, ctx.y_test)
    model = wd / "model.json"
    mmd_values = {}

    def check_mmd(fmt, doc):
        oracles.check_mmd(doc, ctx)
        mmd_values[fmt] = doc["mmd"]
        if fmt == "sparse":
            oracles.expect_close(mmd_values["sparse"], mmd_values["csv"], 1e-12,
                                 "mmd from sparse text vs CSV")
        return {}

    cmds = [Command("train", "train_s",
                    ["train", "--data", str(csv), "--kernel", KERNEL, "--out", str(model)],
                    model, _succeeded("train", lambda doc: oracles.check_train(doc, ctx)))]
    for i, loss in enumerate(EVAL_LOSSES):
        out = wd / f"eval{i}.json"
        cmds.append(Command(
            f"eval-{loss}", "eval_s",
            ["eval", "--model", str(model), "--data", str(test), "--loss", loss, "--out", str(out)],
            out, _succeeded(f"eval {loss}", lambda doc, loss=loss: oracles.check_eval(doc, ctx, loss))))
    for fmt, path in (("csv", csv), ("sparse", sparse)):
        out = wd / f"mmd-{fmt}.json"
        cmds.append(Command(
            f"mmd-{fmt}", "mmd_s",
            ["mmd", "--data", str(path), "--kernel", KERNEL, "--out", str(out)],
            out, _succeeded(f"mmd {fmt}", lambda doc, fmt=fmt: check_mmd(fmt, doc))))
    return cmds


def _audit(rng, wd: Path) -> list[Command]:
    P = distribution(rng, DIST_ATOMS)
    # A fifth of Q's atoms are atoms of P, so contamination has to merge them.
    picks = rng.choice(len(P["support"]), size=Q_ATOMS // 5, replace=False)
    atoms = [P["support"][int(i)] for i in picks] + distribution(rng, Q_ATOMS)["support"]
    support = list({(tuple(x), y): [x, y] for x, y in atoms}.values())
    Q = {"support": support, "prob": rng.dirichlet(np.ones(len(support))).tolist()}
    p_path, q_path = wd / "P.json", wd / "Q.json"
    for path, doc in ((p_path, P), (q_path, Q)):
        with open(path, "w") as fh:
            json.dump(doc, fh)

    cmds = []
    runs = [(suite, seed, False) for seed in CHECK_SEEDS for suite in oracles.SUITE_REPORTS]
    runs += [("contamination", seed, True) for seed in CONTAMINATION_FAILING_SEEDS]
    for suite, seed, known in runs:
        out = wd / f"check-{suite}-{seed}.json"
        cmds.append(Command(
            f"check-{suite}-{seed}", "check_s",
            ["check", "--suite", suite, "--seed", str(seed), "--out", str(out)], out,
            lambda code, doc, suite=suite, known=known:
                (oracles.check_check(code, doc, suite, known), {})))

    # The exact mixtures are built on first use, outside set-up time.
    mixtures = {
        "sln": lambda: oracles.symmetric_mixture(P, 0.2),
        "cc": lambda: oracles.class_conditional_mixture(P, 0.1, 0.3),
        "contaminate": lambda: oracles.contamination_mixture(P, Q, 0.15),
    }
    flags = {
        "sln": ["--sigma", "0.2"],
        "cc": ["--sigma-neg", "0.1", "--sigma-pos", "0.3"],
        "contaminate": ["--q", str(q_path), "--sigma", "0.15"],
    }
    expected: dict = {}

    def check_noise(model, doc):
        if model not in expected:
            expected[model] = mixtures[model]()
        return oracles.check_noise(doc, expected[model])

    for model in mixtures:
        out = wd / f"noise-{model}.json"
        cmds.append(Command(
            f"noise-{model}", "noise_s",
            ["noise", "--dist", str(p_path), "--model", model, *flags[model], "--out", str(out)],
            out, _succeeded(f"noise {model}", lambda doc, model=model: check_noise(model, doc))))
    return cmds


_BUILDERS = {"compress": _compress, "classify": _classify, "audit": _audit}


def setup(name: str, seed: int, workdir: Path) -> list[Command]:
    """Write the workload's seeded inputs under ``workdir``; return one pass of commands."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](np.random.default_rng([seed, WORKLOADS.index(name)]), workdir)
