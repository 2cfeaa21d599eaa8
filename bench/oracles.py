"""Independent oracles for the outputs of the ``meanherd`` commands.

Nothing here imports ``meanherd``: every expected value is recomputed from
the definitions in the package README and docstrings, so a fault in the
program cannot hide in the oracle.

Gaussian convention (README): K(x, x') = exp(-||x - x'||^2 / (2 h^2)).
Kernel sums are evaluated in row blocks, so the oracle never holds more
than ``BLOCK_ROWS`` x n kernel entries at once.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 512

# Known fault kept visible in the audit workload: the contamination check
# takes its margin from the smallest *positive* margin, so a misclassified
# atom close to the boundary can flip and change the zero-one risk.
KNOWN_FAILING_ASSERTION = "risk equality under small corruption"

# Reports per check suite, as built by the CLI's suite table.
SUITE_REPORTS = {
    "surrogate-regret": 1,
    "sln-immunity": 20,
    "contamination": 20,
    "ber-immunity": 20,
    "ghosh": 50,
    "long-servedio": 1,
    "compression": 1,
    "order-reversal": 1,
}


class OracleError(AssertionError):
    """A command's output disagrees with the oracle or a stated property."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def expect_close(measured, expected, tol: float, what: str) -> None:
    expect(
        abs(float(measured) - float(expected)) <= tol,
        f"{what}: got {measured!r}, expected {expected!r} (tolerance {tol:g})",
    )


# ---------------------------------------------------------------------------
# Kernel sums


def gaussian_block(A: np.ndarray, B: np.ndarray, h: float) -> np.ndarray:
    """K[i, j] = exp(-||A[i] - B[j]||^2 / (2 h^2))."""
    sq = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :] - 2.0 * (A @ B.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * h * h))


def kernel_scores(X: np.ndarray, Z: np.ndarray, coef: np.ndarray, h: float) -> np.ndarray:
    """s[i] = sum_j coef[j] K(X[i], Z[j]), one row block at a time."""
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], BLOCK_ROWS):
        out[lo:lo + BLOCK_ROWS] = gaussian_block(X[lo:lo + BLOCK_ROWS], Z, h) @ coef
    return out


def quadratic_forms(X: np.ndarray, coefs: list[np.ndarray], h: float) -> list[float]:
    """c^T K c for each coefficient vector c, sharing one blocked pass over K(X, X)."""
    C = np.column_stack(coefs)
    KC = np.empty_like(C)
    for lo in range(0, X.shape[0], BLOCK_ROWS):
        KC[lo:lo + BLOCK_ROWS] = gaussian_block(X[lo:lo + BLOCK_ROWS], X, h) @ C
    return [float(v) for v in np.einsum("ij,ij->j", C, KC)]


def herd_error(X, y, target_sq: float, idx, alphas, h: float) -> float:
    """||omega_S - omega_herd|| with omega_S = (1/n) sum_j y_j phi(x_j)."""
    n = X.shape[0]
    coef = alphas * y[idx]
    cross = float(coef @ kernel_scores(X[idx], X, y / n, h))
    herd_sq = float(coef @ gaussian_block(X[idx], X[idx], h) @ coef)
    return float(np.sqrt(max(target_sq - 2.0 * cross + herd_sq, 0.0)))


# ---------------------------------------------------------------------------
# Losses, from the definitions in ``meanherd.losses``: a score of exactly zero
# is an abstention and costs 1 under zero-one loss.


def zero_one(y, v):
    return np.where((y * v < 0) | (v == 0), 1.0, 0.0)


def hinge(y, v):
    return np.maximum(1.0 - y * v, 0.0)


def sln_corrected(base, sigma: float):
    def loss(y, v):
        return ((1.0 - sigma) * base(y, v) - sigma * base(-y, v)) / (1.0 - 2.0 * sigma)
    return loss


LOSSES = {
    "zero-one": zero_one,
    "hinge": hinge,
    "sln-corrected:hinge:0.2": sln_corrected(hinge, 0.2),
}


# ---------------------------------------------------------------------------
# Exact finite mixtures, merging atoms by exact equality


def merge(contributions) -> dict:
    """Sum (atom, p) contributions per atom in first-seen order, dropping p == 0."""
    acc: dict = {}
    for atom, p in contributions:
        if p != 0.0:
            acc[atom] = acc.get(atom, 0.0) + p
    return acc


def atoms_of(doc: dict):
    return [((tuple(float(v) for v in x), int(y)), float(p))
            for (x, y), p in zip(doc["support"], doc["prob"])]


def symmetric_mixture(P: dict, sigma: float) -> dict:
    out = []
    for (x, y), p in atoms_of(P):
        out += [((x, y), (1.0 - sigma) * p), ((x, -y), sigma * p)]
    return merge(out)


def class_conditional_mixture(P: dict, sigma_neg: float, sigma_pos: float) -> dict:
    out = []
    for (x, y), p in atoms_of(P):
        s = sigma_pos if y == 1 else sigma_neg
        out += [((x, y), (1.0 - s) * p), ((x, -y), s * p)]
    return merge(out)


def contamination_mixture(P: dict, Q: dict, sigma: float) -> dict:
    return merge([(a, (1.0 - sigma) * p) for a, p in atoms_of(P)]
                 + [(a, sigma * p) for a, p in atoms_of(Q)])


# ---------------------------------------------------------------------------
# Per-command checks.  Each raises OracleError on a wrong output and returns
# the facts a workload reports (member counts and the like).


def check_weights(doc: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.array([m["index"] for m in doc["members"]], dtype=int)
    alphas = np.array([m["alpha"] for m in doc["members"]], dtype=float)
    expect(idx.size > 0, "herd has no members")
    expect(bool(np.all((idx >= 0) & (idx < n))), "herd index out of range")
    expect(np.unique(idx).size == idx.size, "herd indices repeat")
    expect(bool(np.all(alphas >= 0)), "negative herd weight")
    expect_close(alphas.sum(), 1.0, 1e-12, "sum of herd weights")
    return idx, alphas


def check_herd(doc: dict, ctx, mode: str, epsilon: float, groups: int = 1) -> dict:
    """Verify a ``herd`` output against the oracle error and the method's bounds.

    ``ctx`` supplies the training data (X, y, h), the cached ||omega_S||^2
    and the held-out points with their full-mean scores.
    """
    X, y, h = ctx.X, ctx.y, ctx.h
    idx, alphas = check_weights(doc, X.shape[0])
    err = herd_error(X, y, ctx.target_sq, idx, alphas, h)
    expect_close(doc["error"], err, 1e-9, f"{mode} herd error vs oracle")
    expect_close(doc["recomputed_error"], err, 1e-9, f"{mode} recomputed_error vs oracle")
    sparse = kernel_scores(ctx.X_held, X[idx], alphas * y[idx], h)
    gap = float(np.max(np.abs(ctx.held_scores - sparse)))
    expect(gap <= doc["error"] + 1e-9,
           f"{mode} herd: held-out score gap {gap!r} exceeds herd error {doc['error']!r}")
    facts = {"members": int(idx.size)}
    if mode == "plain":
        trace = doc["trace"]
        expect(doc["termination"] == "tolerance", f"termination {doc['termination']!r}")
        expect(doc["error"] <= epsilon, f"herd error {doc['error']!r} above epsilon {epsilon}")
        expect(trace[-1] == doc["error"], "last trace entry differs from the herd error")
        expect(all(b <= a + 1e-12 for a, b in zip(trace, trace[1:])), "trace not monotone")
        facts["iterations"] = len(trace) - 1
    elif mode == "parallel":
        sizes = [len(b) for b in np.array_split(np.arange(X.shape[0]), groups)]
        group_errors = doc["group_errors"]
        expect(len(group_errors) == groups, f"{len(group_errors)} group errors for {groups} groups")
        expect(max(group_errors) <= epsilon, "a group herd stopped above epsilon")
        bound = sum(s / X.shape[0] * e for s, e in zip(sizes, group_errors))
        expect(doc["error"] <= bound + 1e-12,
               f"parallel herd error {doc['error']!r} above sum_g (n_g/n) err_g = {bound!r}")
    elif mode == "recursive":
        stages = doc["stages"]
        expect(len(stages) >= 1, "recursive herd has no stages")
        expect(all(st["error"] <= epsilon for st in stages), "a stage stopped above epsilon")
        bound = sum(st["error"] for st in stages)
        expect(doc["error"] <= bound + 1e-12,
               f"recursive herd error {doc['error']!r} above the sum of stage errors {bound!r}")
        expect(stages[-1]["size_after"] == idx.size, "last stage size differs from the herd")
    return facts


def check_train(doc: dict, ctx) -> dict:
    n = ctx.X.shape[0]
    support = doc["support"]
    expect(len(support) == n and doc["meta"]["n_source"] == n, "model support size")
    expect(all(s["y"] == int(t) for s, t in zip(support, ctx.y)), "model labels differ from the data")
    expect(np.array_equal(np.array([s["x"] for s in support]), ctx.X), "model points differ from the data")
    expect(all(abs(s["alpha"] - 1.0 / n) <= 1e-15 for s in support), "model weights are not 1/n")
    norm = float(np.sqrt(ctx.target_sq))
    expect_close(doc["meta"]["norm"], norm, 1e-9, "meta.norm vs ||omega_S||")
    expect_close(doc["meta"]["min_linear_loss"], 1.0 - doc["meta"]["norm"], 1e-12,
                 "min_linear_loss vs 1 - norm")
    return {}


def check_eval(doc: dict, ctx, loss_name: str) -> dict:
    y, v = ctx.y_test, ctx.test_scores
    m = y * v
    expect(doc["n"] == y.size, "eval n")
    expect(doc["loss"] == loss_name, f"eval loss name {doc['loss']!r}")
    expect_close(doc["accuracy"], float(np.mean(m > 0)), 1e-9, "accuracy")
    loss = LOSSES[loss_name]
    vals = np.where(y == 1, loss(1, v), loss(-1, v))
    expect_close(doc["risk"], float(np.mean(vals)), 1e-9, f"{loss_name} risk")
    positive = m[m > 0]
    expect_close(doc["margin"], float(positive.min()) if positive.size else 0.0, 1e-9, "margin")
    expect(doc["abstentions"] == int(np.sum(v == 0.0)), "abstentions")
    return {}


def check_mmd(doc: dict, ctx) -> dict:
    expect(doc["n_pos"] == int(np.sum(ctx.y == 1)) and doc["n_neg"] == int(np.sum(ctx.y == -1)),
           "mmd class sizes")
    expect_close(doc["mmd"], 0.5 * np.sqrt(max(ctx.mean_gap_sq, 0.0)), 1e-9,
                 "mmd vs 0.5 ||mu_pos - mu_neg||")
    return {}


def check_noise(doc: dict, expected: dict) -> dict:
    got = dict(atoms_of(doc))
    expect(len(got) == len(doc["support"]), "noise output repeats an atom")
    expect(got.keys() == expected.keys(), "noise output support differs from the exact mixture")
    worst = max(abs(got[a] - p) for a, p in expected.items())
    expect(worst <= 1e-15, f"noise output probability off by {worst!r}")
    expect_close(sum(got.values()), 1.0, 1e-12, "noise output mass")
    return {"atoms": len(got)}


def check_check(exit_code: int, doc: dict | None, suite: str, known_failure: bool) -> bool:
    """Verify a ``check`` run; returns True when it failed in the known way."""
    expect(doc is not None, f"check --suite {suite} wrote no report (exit {exit_code})")
    reports = doc["reports"]
    expect(len(reports) == SUITE_REPORTS[suite],
           f"check --suite {suite}: {len(reports)} reports, expected {SUITE_REPORTS[suite]}")
    if exit_code == 0 and doc["passed"]:
        expect(all(r["passed"] for r in reports), "passed check holds a failing report")
        return False
    expect(known_failure and suite == "contamination",
           f"check --suite {suite} failed (exit {exit_code}, passed {doc['passed']})")
    expect(exit_code == 1 and not doc["passed"], "failed check must exit 1 with passed false")
    for r in reports:
        for a in r["assertions"]:
            expect(a["passed"] or a["name"] == KNOWN_FAILING_ASSERTION,
                   f"unexpected failing assertion {a['name']!r}")
    return True
