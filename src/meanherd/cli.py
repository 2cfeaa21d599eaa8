"""Batch command-line front end.

Subcommands: train, herd, eval, check, bounds, mmd, noise.  Every run is
deterministic given (inputs, flags, seed); every emitted JSON embeds the
fully resolved run configuration, including the seed even when defaulted.

Flag precedence: explicit flags > JSON config file (``--config``) >
built-in defaults.  Exit codes: 0 success, 1 assertion failure (or
herding stopped by the iteration cap), 2 usage error, 3 I/O or parse
error.  Non-finite data (nan or inf in a sample, a probability or a
model), a file that is not UTF-8 and a JSON input with missing keys or
wrong types exit 3, and no output ever holds a non-finite number, so
every emitted file is strict JSON.

``train`` and ``herd`` write one model format, ``MeanClassifier.to_dict``:
kernel, weighted support points and meta.  A herd document adds the
herd's members (indices into the data file), error, trace, termination
and, for parallel and recursive herds, group errors or stages.  ``eval``
reads either through ``MeanClassifier.from_dict``.

Kernel sums are evaluated in row blocks (``kernels.kernel_sums``), so
memory grows as O(block * n), never n^2.  ``herd`` passes over the n^2
kernel entries once for the herding target and once for the independent
exact audit in ``recomputed_error``; parallel and recursive herds report
the exact error they already recomputed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from . import lab
from .classifier import MeanClassifier, fit, margin_for_error, mmd
from .data import (
    DiscreteDistribution,
    LabeledSample,
    contaminate,
    flip_class_conditional,
    flip_symmetric,
    load_csv,
    load_sparse,
)
from .errors import DataError, InputError, MeanHerdError, ParseError
from .herding import (
    HerdingConfig,
    approximation_error,
    herd,
    parallel_herd,
    recursive_herd,
)
from .kernels import KernelSpec
from .losses import empirical_risk, parse_loss

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_IO = 3

_UNSET = object()


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ParseError("config file must contain a JSON object", path=path)
    return cfg


class _Resolver:
    """Flag > config-file > default, recording every resolved value."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args = args
        self.config = config
        self.resolved: dict = {}

    def get(self, name: str, default=None, cast=None):
        value = getattr(self.args, name.replace("-", "_"), _UNSET)
        if value is _UNSET or value is None:
            value = self.config.get(name, default)
            if cast is not None and value is not None:
                value = cast(value)
        self.resolved[name] = value
        return value


def _load_sample(r: _Resolver, command: str) -> LabeledSample:
    """Resolve --data, --label-column and --format, then load the sample."""
    path = r.get("data")
    if path is None:
        raise InputError(f"{command} requires --data")
    label_column = int(r.get("label-column", -1))
    fmt = r.get("format", "auto")
    if fmt == "auto":
        fmt = "sparse" if str(path).endswith((".txt", ".svm", ".libsvm")) else "csv"
    if fmt == "csv":
        return load_csv(path, label_column)
    if fmt == "sparse":
        return load_sparse(path)
    raise InputError(f"unknown data format {fmt!r}")


def _read_doc(path, from_dict):
    """``from_dict`` of the JSON document in ``path``; a wrong shape is a ParseError."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return from_dict(doc)
    except InputError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed document: {type(exc).__name__}: {exc}", path=path) from None


def _write_json(path, obj):
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DataError(f"non-finite value in output: {exc}") from None
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _kernel_from(r: _Resolver) -> KernelSpec:
    text = r.get("kernel", "linear")
    spec = KernelSpec.parse(text)
    r.resolved["kernel"] = spec.to_dict()
    return spec


# ---------------------------------------------------------------------------
# Subcommands


def cmd_train(args, config) -> int:
    r = _Resolver(args, config)
    kernel = _kernel_from(r)
    out = r.get("out")
    r.get("seed", 0)  # deterministic command; recorded in resolved config only

    S = _load_sample(r, "train")
    doc = fit(S, kernel).to_dict(n_source=len(S))
    doc["config"] = {"subcommand": "train", **r.resolved}
    _write_json(out, doc)
    return EXIT_OK


def cmd_herd(args, config) -> int:
    r = _Resolver(args, config)
    kernel = _kernel_from(r)
    eps = float(r.get("epsilon", 0.01))
    max_iterations = int(r.get("max-iterations", 10000))
    step_rule = r.get("step-rule", "line_search")
    parallel = r.get("parallel")
    recursive = bool(r.get("recursive", False))
    min_size = int(r.get("min-size", 100))
    out = r.get("out")
    trace_out = r.get("trace-out")
    r.get("seed", 0)

    if parallel is not None and recursive:
        raise InputError("--parallel and --recursive are mutually exclusive")
    S = _load_sample(r, "herd")
    hconfig = HerdingConfig(tolerance=eps, max_iterations=max_iterations, step_rule=step_rule)
    if parallel is not None:
        h = parallel_herd(S, int(parallel), kernel, hconfig)
    elif recursive:
        h = recursive_herd(S, kernel, eps, min_size=min_size, config=hconfig)
    else:
        h = herd(S, kernel, hconfig)

    doc = h.to_dict(n_source=len(S))
    # parallel and recursive herds already recompute their error exactly
    exact = parallel is not None or recursive
    doc["recomputed_error"] = h.error if exact else approximation_error(h, S)
    doc["config"] = {"subcommand": "herd", **r.resolved}
    _write_json(out, doc)

    if trace_out is not None:
        with open(trace_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "error", "size"])
            for i, (e, m) in enumerate(zip(h.trace, h.sizes)):
                writer.writerow([i, repr(e), m])

    if h.termination == "max_iterations":
        print(f"iteration cap reached at error {h.error}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_eval(args, config) -> int:
    r = _Resolver(args, config)
    model_path = r.get("model")
    if model_path is None:
        raise InputError("eval requires --model")
    loss = parse_loss(r.get("loss", "linear"))
    out = r.get("out")
    r.get("seed", 0)

    clf = _read_doc(model_path, MeanClassifier.from_dict)
    S = _load_sample(r, "eval")
    if S.dim != clf.dim:
        raise InputError(f"dimension mismatch: data is {S.dim}-D, model is {clf.dim}-D")
    scores = clf.scores(S.instances)
    doc = {
        "accuracy": float(np.mean(S.labels * scores > 0)),
        "risk": empirical_risk(loss, S, scores),
        "loss": loss.name,
        "margin": margin_for_error(S, scores),
        "abstentions": int(np.sum(scores == 0.0)),
        "n": len(S),
        "config": {"subcommand": "eval", **r.resolved},
    }
    _write_json(out, doc)
    return EXIT_OK


def _suite_reports(name: str, seed: int, kernel: KernelSpec) -> list[lab.ExperimentReport]:
    rng = np.random.default_rng(seed)
    if name == "surrogate-regret":
        return [lab.check_surrogate_regret(trials=1000, seed=seed)]
    if name == "sln-immunity":
        reports = []
        for _ in range(20):
            P = lab.random_distribution(rng)
            reports.append(lab.check_sln_immunity(P, (0.1, 0.25, 0.4), kernel))
        return reports
    if name == "contamination":
        reports = []
        for _ in range(20):
            P = lab.random_distribution(rng)
            Q = lab.random_distribution(rng)
            reports.append(lab.check_contamination(P, Q, float(rng.uniform(0, 0.2)), kernel))
        return reports
    if name == "ber-immunity":
        from .losses import linear_loss

        reports = []
        for _ in range(20):
            P_pos = lab.random_distribution(rng).instance_marginal()
            P_neg = lab.random_distribution(rng).instance_marginal()
            instances = tuple(sorted(set(P_pos.support) | set(P_neg.support)))
            fclass = lab.random_function_class(rng, instances, k=8)
            alpha = float(rng.uniform(0, 0.4))
            beta = float(rng.uniform(0, 0.4))
            reports.append(lab.check_ber_immunity(linear_loss, P_pos, P_neg, alpha, beta, fclass))
        return reports
    if name == "ghosh":
        from .data import NoiseFunctionTable
        from .losses import linear_loss

        reports = []
        for _ in range(50):
            P = lab.random_distribution(rng)
            table = NoiseFunctionTable({i: float(rng.uniform(0, 0.45)) for i in range(len(P))})
            instances = tuple(sorted(set(x for x, _ in P.support)))
            fclass = lab.random_function_class(rng, instances, k=10)
            reports.append(lab.check_ghosh_bound(P, table, linear_loss, fclass))
        return reports
    if name == "long-servedio":
        return [lab.run_long_servedio(1.0 / 24.0)]
    if name == "compression":
        return [lab.run_compression_experiment(kernel, eps_list=(0.01,), mode="recursive", seed=seed)]
    if name == "order-reversal":
        from .losses import hinge_loss

        report = lab.ExperimentReport(name="order-reversal", inputs={"loss": "hinge", "seed": seed})
        witness = lab.order_reversal_witness(hinge_loss, sigma=0.4, seed=seed)
        report.check_true("hinge order-reversal witness found", witness is not None)
        if witness is not None:
            report.extras["witness"] = witness
        return [report]
    raise InputError(
        f"unknown suite {name!r}; available: surrogate-regret, sln-immunity, contamination, "
        "ber-immunity, ghosh, long-servedio, compression, order-reversal, all"
    )


ALL_SUITES = (
    "surrogate-regret",
    "sln-immunity",
    "contamination",
    "ber-immunity",
    "ghosh",
    "long-servedio",
    "compression",
    "order-reversal",
)


def cmd_check(args, config) -> int:
    r = _Resolver(args, config)
    suite = r.get("suite")
    if suite is None:
        raise InputError("check requires --suite (or 'all')")
    seed = int(r.get("seed", 0))
    kernel_text = r.get("kernel", "gaussian:1.0")
    kernel = KernelSpec.parse(kernel_text)
    r.resolved["kernel"] = kernel.to_dict()
    out = r.get("out")

    names = ALL_SUITES if suite == "all" else (suite,)
    reports = []
    for name in names:
        for rep in _suite_reports(name, seed, kernel):
            reports.append(rep)
            print(f"{rep.name}: {'pass' if rep.passed else 'FAIL'}", file=sys.stderr)
    passed = all(rep.passed for rep in reports)
    doc = {
        "passed": passed,
        "reports": [rep.to_dict() for rep in reports],
        "config": {"subcommand": "check", **r.resolved},
    }
    _write_json(out, doc)
    return EXIT_OK if passed else EXIT_ASSERTION


_BOUND_KINDS = ("pac-bayes", "pac-bayes-multi", "mean-estimation", "generic-pac-bayes")


def cmd_bounds(args, config) -> int:
    r = _Resolver(args, config)
    kind = r.get("kind")
    if kind not in _BOUND_KINDS:
        raise InputError(f"kind must be one of {_BOUND_KINDS}, got {kind!r}")
    n = int(r.get("n", 0))
    delta = float(r.get("delta", 0.05))
    emp = float(r.get("emp", 0.0))
    out = r.get("out")
    if kind == "pac-bayes":
        value = bounds_mod.bound_pac_bayes(emp, n, delta)
    elif kind == "pac-bayes-multi":
        k = int(r.get("k", 1))
        value = bounds_mod.bound_pac_bayes_multi(emp, n, k, delta)
    elif kind == "mean-estimation":
        value = bounds_mod.bound_mean_estimation(n, delta)
    else:
        kl = float(r.get("kl", 0.0))
        beta = r.get("beta")
        value = bounds_mod.bound_generic_pac_bayes(
            emp, kl, n, delta, beta=None if beta is None else float(beta)
        )
    doc = {"bound": value, "inputs": {"subcommand": "bounds", **r.resolved}}
    doc["config"] = doc["inputs"]
    _write_json(out, doc)
    return EXIT_OK


def cmd_mmd(args, config) -> int:
    r = _Resolver(args, config)
    kernel = _kernel_from(r)
    out = r.get("out")
    S = _load_sample(r, "mmd")
    pos = S.instances[S.labels == 1]
    neg = S.instances[S.labels == -1]
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise DataError("mmd needs both classes present in the data")
    doc = {
        "mmd": mmd(pos, neg, kernel),
        "n_pos": int(pos.shape[0]),
        "n_neg": int(neg.shape[0]),
        "config": {"subcommand": "mmd", **r.resolved},
    }
    _write_json(out, doc)
    return EXIT_OK


def cmd_noise(args, config) -> int:
    r = _Resolver(args, config)
    dist_path = r.get("dist")
    if dist_path is None:
        raise InputError("noise requires --dist (a distribution JSON file)")
    model = r.get("model", "sln")
    out = r.get("out")
    P = _read_doc(dist_path, DiscreteDistribution.from_dict)
    if model == "sln":
        sigma = float(r.get("sigma", 0.0))
        corrupted = flip_symmetric(P, sigma)
    elif model == "cc":
        sigma_neg = float(r.get("sigma-neg", 0.0))
        sigma_pos = float(r.get("sigma-pos", 0.0))
        corrupted = flip_class_conditional(P, sigma_neg, sigma_pos)
    elif model == "contaminate":
        q_path = r.get("q")
        if q_path is None:
            raise InputError("contaminate model requires --q (corruption distribution file)")
        sigma = float(r.get("sigma", 0.0))
        Q = _read_doc(q_path, DiscreteDistribution.from_dict)
        corrupted = contaminate(P, Q, sigma)
    else:
        raise InputError(f"unknown noise model {model!r}; expected sln, cc or contaminate")
    doc = corrupted.to_dict()
    doc["config"] = {"subcommand": "noise", **r.resolved}
    _write_json(out, doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanherd",
        description="Kernel mean classifiers, herding compression and label-noise checks.",
    )
    parser.add_argument("--config", help="JSON file of default flag values")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, data=True):
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0, always recorded)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if data:
            p.add_argument("--data", default=None, help="input data file")
            p.add_argument("--label-column", type=int, default=None, help="CSV label column (default -1)")
            p.add_argument("--format", choices=("auto", "csv", "sparse"), default=None)
            p.add_argument("--kernel", default=None, help='kernel JSON or shorthand, e.g. "gaussian:1.0"')

    p = sub.add_parser("train", help="fit the mean classifier and write a model file")
    common(p)
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("herd", help="compress a sample by kernel herding")
    common(p)
    p.add_argument("--epsilon", type=float, default=None, help="target approximation error")
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--step-rule", choices=("line_search", "uniform"), default=None)
    p.add_argument("--parallel", type=int, default=None, help="herd this many groups independently")
    p.add_argument("--recursive", action="store_true", default=None, help="herd stages until --min-size")
    p.add_argument("--min-size", type=int, default=None)
    p.add_argument("--trace-out", default=None, help="CSV path for (iteration, error, size)")
    p.set_defaults(run=cmd_herd)

    p = sub.add_parser("eval", help="evaluate a model file on data")
    common(p)
    p.add_argument("--model", default=None, help="model JSON file written by train or herd")
    p.add_argument("--loss", default=None, help="loss name (default linear)")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("check", help="run a theorem-check suite")
    common(p, data=False)
    p.add_argument("--suite", default=None, help=f"one of {ALL_SUITES} or 'all'")
    p.add_argument("--kernel", default=None)
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("bounds", help="evaluate a generalization bound")
    common(p, data=False)
    p.add_argument("--kind", choices=_BOUND_KINDS, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--emp", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--kl", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.set_defaults(run=cmd_bounds)

    p = sub.add_parser("mmd", help="maximum mean discrepancy between the two classes")
    common(p)
    p.set_defaults(run=cmd_mmd)

    p = sub.add_parser("noise", help="corrupt a distribution file")
    common(p, data=False)
    p.add_argument("--dist", default=None, help="distribution JSON file")
    p.add_argument("--model", choices=("sln", "cc", "contaminate"), default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--sigma-neg", type=float, default=None)
    p.add_argument("--sigma-pos", type=float, default=None)
    p.add_argument("--q", default=None, help="corruption distribution file (contaminate)")
    p.set_defaults(run=cmd_noise)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config_file(args.config)
        return args.run(args, config)
    except (ParseError, DataError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MeanHerdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
