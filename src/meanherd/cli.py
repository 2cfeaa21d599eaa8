"""Batch command-line front end.

Subcommands: train, herd, eval, check, bounds, mmd, noise.  Every run is
deterministic given its inputs and flags; every emitted JSON embeds the
fully resolved run configuration (``config``: each flag under its
hyphenated name, defaults included, the kernel as a dict).  Only ``check``
draws random numbers, so only ``check`` takes ``--seed``.

Each flag is declared once, in ``build_parser``, with its type, default
and choices.  Flag precedence: explicit flags > JSON config file
(``--config``) > those defaults.  A config entry ``"k": v`` is read as the
token ``--k=v`` by the subcommand's own parser (``true`` as the bare switch
``--k``; ``false`` and ``null`` leave the default), so a config value is
parsed and checked exactly like its flag, and keys that are not the full
name of one of the subcommand's flags are ignored.

Exit codes: 0 success, 1 assertion failure (or herding stopped by the
iteration cap), 2 usage error (a bad flag or config value), 3 I/O or parse
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
kernel entries once, for the herding target; the exact error in
``recomputed_error`` reuses that pass and adds only the herd's own m^2
entries.  A recursive herd shares its one pass between its first stage and
its exact error; a parallel herd makes it once, after its groups' own
passes.
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
    NoiseFunctionTable,
    contaminate,
    flip_class_conditional,
    flip_symmetric,
    load_csv,
    load_sparse,
)
from .errors import DataError, InputError, MeanHerdError, ParseError
from .herding import HerdingConfig, herd, parallel_herd, recursive_herd
from .kernels import KernelSpec
from .losses import empirical_risk, hinge_loss, linear_loss, parse_loss

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_IO = 3

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

_BOUND_KINDS = ("pac-bayes", "pac-bayes-multi", "mean-estimation", "generic-pac-bayes")


def _read_json(path):
    """The JSON document in ``path``; bytes that are not UTF-8 JSON are a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", path=path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"not JSON: {exc}", path=path) from None


def _config_defaults(command: argparse.ArgumentParser, path) -> dict:
    """The config file's values, each parsed by ``command`` as the token ``--key=value``.

    A key names its flag in full: "k" must not set --kernel by abbreviation.
    A value the flag rejects is an InputError naming the file and the key.
    """
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise ParseError("config file must contain a JSON object", path=path)
    tokens = []
    for key, value in cfg.items():
        if value is True:
            tokens.append(f"--{key}")
        elif value is not False and value is not None:
            tokens.append(f"--{key}={value if isinstance(value, str) else json.dumps(value)}")
    command.allow_abbrev = command.exit_on_error = False
    try:
        return vars(command.parse_known_args(tokens)[0])
    except argparse.ArgumentError as exc:
        flags = str(exc.argument_name).split("/")
        key = next((k for k in cfg if f"--{k}" in flags), exc.argument_name)
        raise InputError(f"{path}: config key {key!r}: {exc.message}") from None
    finally:
        command.allow_abbrev = command.exit_on_error = True


def _kernel(text: str) -> KernelSpec:
    """The ``--kernel`` type: a KernelSpec, or a message argparse reports with the flag."""
    try:
        return KernelSpec.parse(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_doc(path, from_dict):
    """``from_dict`` of the JSON document in ``path``; a wrong shape is a ParseError."""
    doc = _read_json(path)
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


def _required(args, flag: str):
    value = getattr(args, flag)
    if value is None:
        raise InputError(f"{args.subcommand} requires --{flag}")
    return value


def _config(args) -> dict:
    """The resolved flags of this run, as every output records them."""
    flags = {k.replace("_", "-"): v for k, v in vars(args).items()
             if k not in ("config", "run", "parser")}
    if "kernel" in flags:
        flags["kernel"] = flags["kernel"].to_dict()
    return flags


def _load_sample(args) -> LabeledSample:
    """Load --data; ``--format auto`` reads .txt/.svm/.libsvm as sparse, the rest as CSV."""
    path = _required(args, "data")
    fmt = args.format
    if fmt == "auto":
        fmt = "sparse" if path.endswith((".txt", ".svm", ".libsvm")) else "csv"
    return load_sparse(path) if fmt == "sparse" else load_csv(path, args.label_column)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_train(args) -> int:
    S = _load_sample(args)
    doc = fit(S, args.kernel).to_dict(n_source=len(S))
    doc["config"] = _config(args)
    _write_json(args.out, doc)
    return EXIT_OK


def cmd_herd(args) -> int:
    if args.parallel is not None and args.recursive:
        raise InputError("--parallel and --recursive are mutually exclusive")
    S = _load_sample(args)
    hconfig = HerdingConfig(
        tolerance=args.epsilon, max_iterations=args.max_iterations, step_rule=args.step_rule
    )
    if args.parallel is not None:
        h = parallel_herd(S, args.parallel, args.kernel, hconfig)
    elif args.recursive:
        h = recursive_herd(S, args.kernel, min_size=args.min_size, config=hconfig)
    else:
        h = herd(S, args.kernel, hconfig)

    doc = h.to_dict(n_source=len(S))
    doc["config"] = _config(args)
    _write_json(args.out, doc)

    if args.trace_out is not None:
        with open(args.trace_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "error", "size"])
            for i, (e, m) in enumerate(zip(h.trace, h.sizes)):
                writer.writerow([i, repr(e), m])

    if h.termination == "max_iterations":
        print(f"iteration cap reached at error {h.error}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_eval(args) -> int:
    model_path = _required(args, "model")
    loss = parse_loss(args.loss)
    clf = _read_doc(model_path, MeanClassifier.from_dict)
    S = _load_sample(args)
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
        "config": _config(args),
    }
    _write_json(args.out, doc)
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
        report = lab.ExperimentReport(name="order-reversal", inputs={"loss": "hinge", "seed": seed})
        witness = lab.order_reversal_witness(hinge_loss, sigma=0.4, seed=seed)
        report.check_true("hinge order-reversal witness found", witness is not None)
        if witness is not None:
            report.extras["witness"] = witness
        return [report]
    raise InputError(f"unknown suite {name!r}; available: {', '.join(ALL_SUITES)}, all")


def cmd_check(args) -> int:
    suite = _required(args, "suite")
    names = ALL_SUITES if suite == "all" else (suite,)
    reports = []
    for name in names:
        for rep in _suite_reports(name, args.seed, args.kernel):
            reports.append(rep)
            print(f"{rep.name}: {'pass' if rep.passed else 'FAIL'}", file=sys.stderr)
    passed = all(rep.passed for rep in reports)
    doc = {
        "passed": passed,
        "reports": [rep.to_dict() for rep in reports],
        "config": _config(args),
    }
    _write_json(args.out, doc)
    return EXIT_OK if passed else EXIT_ASSERTION


def cmd_bounds(args) -> int:
    kind = _required(args, "kind")
    if kind == "pac-bayes":
        value = bounds_mod.bound_pac_bayes(args.emp, args.n, args.delta)
    elif kind == "pac-bayes-multi":
        value = bounds_mod.bound_pac_bayes_multi(args.emp, args.n, args.k, args.delta)
    elif kind == "mean-estimation":
        value = bounds_mod.bound_mean_estimation(args.n, args.delta)
    else:
        value = bounds_mod.bound_generic_pac_bayes(
            args.emp, args.kl, args.n, args.delta, beta=args.beta
        )
    _write_json(args.out, {"bound": value, "config": _config(args)})
    return EXIT_OK


def cmd_mmd(args) -> int:
    S = _load_sample(args)
    pos = S.instances[S.labels == 1]
    neg = S.instances[S.labels == -1]
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise DataError("mmd needs both classes present in the data")
    doc = {
        "mmd": mmd(pos, neg, args.kernel),
        "n_pos": int(pos.shape[0]),
        "n_neg": int(neg.shape[0]),
        "config": _config(args),
    }
    _write_json(args.out, doc)
    return EXIT_OK


def cmd_noise(args) -> int:
    P = _read_doc(_required(args, "dist"), DiscreteDistribution.from_dict)
    if args.model == "sln":
        corrupted = flip_symmetric(P, args.sigma)
    elif args.model == "cc":
        corrupted = flip_class_conditional(P, args.sigma_neg, args.sigma_pos)
    else:
        Q = _read_doc(_required(args, "q"), DiscreteDistribution.from_dict)
        corrupted = contaminate(P, Q, args.sigma)
    doc = corrupted.to_dict()
    doc["config"] = _config(args)
    _write_json(args.out, doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanherd",
        description="Kernel mean classifiers, herding compression and label-noise checks.",
    )
    parser.add_argument("--config", help="JSON file of flag values; explicit flags win")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, run, help, data=False, kernel=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, parser=p)
        p.add_argument("--out", help="output path (default: stdout)")
        if data:
            p.add_argument("--data", help="input data file")
            p.add_argument("--label-column", type=int, default=-1, help="CSV label column (default: last)")
            p.add_argument("--format", choices=("auto", "csv", "sparse"), default="auto")
        if kernel is not None:
            p.add_argument("--kernel", type=_kernel, default=kernel,
                           help=f'kernel JSON or shorthand, e.g. "gaussian:1.0" (default: {kernel})')
        return p

    command("train", cmd_train, "fit the mean classifier and write a model file", data=True, kernel="linear")

    p = command("herd", cmd_herd, "compress a sample by kernel herding", data=True, kernel="linear")
    p.add_argument("--epsilon", type=float, default=0.01, help="target approximation error")
    p.add_argument("--max-iterations", type=int, default=10000)
    p.add_argument("--step-rule", choices=("line_search", "uniform"), default="line_search")
    p.add_argument("--parallel", type=int, help="herd this many groups independently")
    p.add_argument("--recursive", action=argparse.BooleanOptionalAction, default=False,
                   help="herd stages until --min-size")
    p.add_argument("--min-size", type=int, default=100)
    p.add_argument("--trace-out", help="CSV path for (iteration, error, size)")

    p = command("eval", cmd_eval, "evaluate a model file on data", data=True)
    p.add_argument("--model", help="model JSON file written by train or herd")
    p.add_argument("--loss", default="linear", help="loss name (default: linear)")

    p = command("check", cmd_check, "run a theorem-check suite", kernel="gaussian:1.0")
    p.add_argument("--suite", help=f"one of {', '.join(ALL_SUITES)}, or all")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")

    p = command("bounds", cmd_bounds, "evaluate a generalization bound")
    p.add_argument("--kind", choices=_BOUND_KINDS)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--emp", type=float, default=0.0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--kl", type=float, default=0.0)
    p.add_argument("--beta", type=float)

    command("mmd", cmd_mmd, "maximum mean discrepancy between the two classes", data=True, kernel="linear")

    p = command("noise", cmd_noise, "corrupt a distribution file")
    p.add_argument("--dist", help="distribution JSON file")
    p.add_argument("--model", choices=("sln", "cc", "contaminate"), default="sln")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--sigma-neg", type=float, default=0.0)
    p.add_argument("--sigma-pos", type=float, default=0.0)
    p.add_argument("--q", help="corruption distribution file (contaminate)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # the file's values become the subcommand's defaults; explicit flags still win
            args.parser.set_defaults(**_config_defaults(args.parser, args.config))
            args = parser.parse_args(argv)
        return args.run(args)
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MeanHerdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
