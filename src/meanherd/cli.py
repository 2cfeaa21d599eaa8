"""Batch command-line front end.

Subcommands: train, herd, eval, check, bounds, mmd, noise.  Each
``cmd_*`` returns its document and exit code; ``main`` adds the fully
resolved run configuration (``config``: each flag under its hyphenated
name, defaults included, the kernel as a dict) and writes the document,
the one JSON write of a run.  Every run is deterministic given its inputs
and flags.  Only ``check`` draws random numbers, so only ``check`` takes
``--seed``; its suites are ``lab.SUITES``, run in that table's order by
``--suite all``, with one stderr line per report.  ``check`` takes no
``--kernel``: its suites assume |K| <= 1 and run on one bounded kernel,
``lab.SUITE_KERNEL``.

Each flag is declared once, in ``build_parser``, with its type, default
and choices.  Flag precedence: explicit flags > JSON config file
(``--config``) > those defaults.  A config entry ``"k": v`` is read as the
token ``--k=v`` by the subcommand's own parser (``true`` as the bare switch
``--k``; ``false`` and ``null`` leave the default), so a config value is
parsed and checked exactly like its flag, and keys that are not the full
name of one of the subcommand's flags are ignored.

Exit codes: 0 success, 1 assertion failure (or a herd in any mode that
ended ``max_iterations``), 2 usage error (a bad flag or config value), 3 I/O
or parse error.  Non-finite data (nan or inf in a sample, a probability or a
model), a file that is not UTF-8 and a JSON input with missing keys or
wrong types exit 3, and no output ever holds a non-finite number, so every
emitted file is strict JSON: one line ending in a newline, keys sorted,
with the separators ``", "`` and ``": "``.  Every input is read as UTF-8
less a leading byte-order mark.

``train`` and ``herd`` write one model format, ``MeanClassifier.to_dict``:
kernel, weighted support points and meta.  ``meta.min_linear_loss`` is
1 - ``meta.norm``, or null when a support point has K(x, x) > 1: there
|K| <= 1 fails and 1 - ||omega|| is no attainable loss.  A herd document
adds the herd's members (indices into the data file), error, trace, sizes
(distinct members per trace entry), termination and, for parallel and
recursive herds, group errors or stages: the run's one record.  ``eval``
reads either through ``MeanClassifier.from_dict``.

Kernel sums are evaluated in row blocks that never hold the n x n
matrix: the ``kernels`` docstring gives the block sizes, and the
``herding`` docstring the one pass over the kernel matrix that a herd
and its exact error share.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from . import lab
from .classifier import MeanClassifier, fit, margin_for_error, mmd
from .data import (
    DiscreteDistribution,
    LabeledSample,
    _lines,
    contaminate,
    flip_class_conditional,
    flip_symmetric,
    load_csv,
    load_sparse,
)
from .errors import DataError, InputError, MeanHerdError, ParseError
from .herding import STEP_RULES, HerdingConfig, herd, parallel_herd, recursive_herd
from .kernels import KernelSpec, diagonal
from .losses import empirical_risk, parse_loss

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_IO = 3

ALL_SUITES = tuple(lab.SUITES)

# ``bounds --kind`` -> the bound of the run's flags
_BOUNDS = {
    "pac-bayes": lambda a: bounds_mod.bound_pac_bayes(a.emp, a.n, a.delta),
    "pac-bayes-multi": lambda a: bounds_mod.bound_pac_bayes_multi(a.emp, a.n, a.k, a.delta),
    "mean-estimation": lambda a: bounds_mod.bound_mean_estimation(a.n, a.delta),
    "generic-pac-bayes": lambda a: bounds_mod.bound_generic_pac_bayes(a.emp, a.kl, a.n, a.delta,
                                                                      beta=a.beta),
}


def _read_json(path):
    """The JSON document in ``path``, read by ``data._lines``, which drops a leading
    byte-order mark; bytes that are not UTF-8 JSON are a ParseError."""
    try:
        return json.loads("".join(_lines(path)))
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


def _at_least(low: int):
    """The type of an integer flag >= ``low``: a message argparse reports with the flag."""
    def integer(text: str) -> int:
        if not (text.isdecimal() and int(text) >= low):
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return integer


def _tolerance(text: str) -> float:
    """The ``--epsilon`` type: a number that ``HerdingConfig`` accepts as its tolerance."""
    try:
        return HerdingConfig(tolerance=float(text)).tolerance
    except (ValueError, InputError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_doc(path, from_dict):
    """``from_dict`` of the JSON document in ``path``; a wrong shape is a ParseError."""
    doc = _read_json(path)
    try:
        return from_dict(doc)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed document: {type(exc).__name__}: {exc}", path=path) from None


def _write_json(path, obj):
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"
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
    """Load --data; ``--format auto`` reads .txt/.svm/.libsvm in any case as sparse, the rest as CSV."""
    path = _required(args, "data")
    fmt = args.format
    if fmt == "auto":
        fmt = "sparse" if path.lower().endswith((".txt", ".svm", ".libsvm")) else "csv"
    return load_sparse(path) if fmt == "sparse" else load_csv(path, args.label_column)


# ---------------------------------------------------------------------------
# Subcommands: each returns (document, exit code); ``main`` adds ``config`` and writes it


def cmd_train(args) -> tuple[dict, int]:
    S = _load_sample(args)
    return fit(S, args.kernel).to_dict(n_source=len(S)), EXIT_OK


def cmd_herd(args) -> tuple[dict, int]:
    if args.parallel is not None and args.recursive:
        raise InputError("--parallel and --recursive are mutually exclusive")
    S = _load_sample(args)
    if args.parallel is not None and args.parallel > len(S):
        raise InputError(f"--parallel must be at most the {len(S)} data rows, got {args.parallel}")
    hconfig = HerdingConfig(
        tolerance=args.epsilon, max_iterations=args.max_iterations, step_rule=args.step_rule
    )
    if args.parallel is not None:
        h = parallel_herd(S, args.parallel, args.kernel, hconfig)
    elif args.recursive:
        h = recursive_herd(S, args.kernel, min_size=args.min_size, config=hconfig)
    else:
        h = herd(S, args.kernel, hconfig)

    # |f_S(x) - f_herd(x)| <= error ||phi(x)||, which is at most error only where K(x, x) <= 1
    k_max = float(np.max(diagonal(args.kernel, S.instances)))
    if k_max > 1.0:
        print(f"unbounded kernel (max K(x, x) = {k_max:.6g} on the data): herd scores lie "
              f"within error*sqrt(K(x, x)) of the full mean's, not within error", file=sys.stderr)

    capped = h.termination == "max_iterations"
    if capped:
        print(f"iteration cap reached at error {h.error}", file=sys.stderr)
    return h.to_dict(n_source=len(S)), EXIT_ASSERTION if capped else EXIT_OK


def cmd_eval(args) -> tuple[dict, int]:
    model_path = _required(args, "model")
    loss = parse_loss(args.loss)
    clf = _read_doc(model_path, MeanClassifier.from_dict)
    S = _load_sample(args)
    if S.dim != clf.dim:
        raise InputError(f"dimension mismatch: data is {S.dim}-D, model is {clf.dim}-D")
    scores = clf.scores(S.instances)
    # scores beyond the float range are +-inf, and a risk over both signs is nan:
    # the output guard rejects either, so no RuntimeWarning is raised on the way
    with np.errstate(invalid="ignore"):
        return {
            "accuracy": float(np.mean(S.labels * scores > 0)),
            "risk": empirical_risk(loss, S, scores),
            "loss": loss.name,
            "margin": margin_for_error(S, scores),
            "abstentions": int(np.sum(scores == 0.0)),
            "n": len(S),
        }, EXIT_OK


def cmd_check(args) -> tuple[dict, int]:
    suite = _required(args, "suite")
    reports = []
    for name in ALL_SUITES if suite == "all" else (suite,):
        for rep in lab.SUITES[name](args.seed):
            reports.append(rep)
            print(f"{rep.name}: {'pass' if rep.passed else 'FAIL'}", file=sys.stderr)
    passed = all(rep.passed for rep in reports)
    return ({"passed": passed, "reports": [rep.to_dict() for rep in reports]},
            EXIT_OK if passed else EXIT_ASSERTION)


def cmd_bounds(args) -> tuple[dict, int]:
    return {"bound": _BOUNDS[_required(args, "kind")](args)}, EXIT_OK


def cmd_mmd(args) -> tuple[dict, int]:
    S = _load_sample(args)
    pos = S.instances[S.labels == 1]
    neg = S.instances[S.labels == -1]
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise DataError("mmd needs both classes present in the data")
    return {"mmd": mmd(pos, neg, args.kernel), "n_pos": int(pos.shape[0]),
            "n_neg": int(neg.shape[0])}, EXIT_OK


def cmd_noise(args) -> tuple[dict, int]:
    P = _read_doc(_required(args, "dist"), DiscreteDistribution.from_dict)
    if args.model == "sln":
        corrupted = flip_symmetric(P, args.sigma)
    elif args.model == "cc":
        corrupted = flip_class_conditional(P, args.sigma_neg, args.sigma_pos)
    else:
        Q = _read_doc(_required(args, "q"), DiscreteDistribution.from_dict)
        corrupted = contaminate(P, Q, args.sigma)
    return corrupted.to_dict(), EXIT_OK


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
    p.add_argument("--epsilon", type=_tolerance, default=HerdingConfig.tolerance, help="target approximation error")
    p.add_argument("--max-iterations", type=_at_least(1), default=HerdingConfig.max_iterations)
    p.add_argument("--step-rule", choices=STEP_RULES, default=HerdingConfig.step_rule)
    p.add_argument("--parallel", type=_at_least(1), help="herd this many groups independently")
    p.add_argument("--recursive", action=argparse.BooleanOptionalAction, default=False,
                   help="herd stages until --min-size")
    p.add_argument("--min-size", type=_at_least(1), default=100)

    p = command("eval", cmd_eval, "evaluate a model file on data", data=True)
    p.add_argument("--model", help="model JSON file written by train or herd")
    p.add_argument("--loss", default="linear", help="loss name (default: linear)")

    p = command("check", cmd_check, "run a theorem-check suite")
    p.add_argument("--suite", choices=(*ALL_SUITES, "all"), help="suite to run, or all")
    p.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed, an integer >= 0 (default: 0)")

    p = command("bounds", cmd_bounds, "evaluate a generalization bound")
    p.add_argument("--kind", choices=_BOUNDS)
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
    if argv is None:
        # The process runs this one command (``python -m meanherd.cli`` or the
        # ``meanherd`` script): move the import graph out of the collector's
        # reach, so its passes, the final ones at exit included, skip it.
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # the file's values become the subcommand's defaults; explicit flags still win
            args.parser.set_defaults(**_config_defaults(args.parser, args.config))
            args = parser.parse_args(argv)
        doc, code = args.run(args)
        doc["config"] = _config(args)
        _write_json(args.out, doc)
        return code
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MeanHerdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
