"""Golden outputs: each command's document on small fixed inputs, against ``tests/golden``.

Every command of ``COMMANDS`` runs in process through ``cli.main`` on
inputs made from seeded ``synth_blobs``, written as CSV and as sparse
text.  Each sample row appears twice, so the Frank-Wolfe argmax meets
exact ties and the lowest-index rule shows in a herd's members, and the
600 rows are more than one block of ``kernels.self_sums``.  A document
matches its golden when keys, strings, booleans, integers, nulls and the
exit code are equal and every float is within ``REL`` x max(1, |expected|)
of the golden's; ``config`` paths are taken relative to the run directory
first.  A missing golden fails: only ``tests/golden/regen.py`` writes one,
run by a change that moves an output on purpose and says which.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from meanherd.cli import main
from meanherd.data import DiscreteDistribution, synth_blobs

GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-12

_DATA = ["--data", "{csv}"]
_HERD = ["herd", *_DATA, "--kernel", "gaussian:2.0", "--epsilon", "0.05"]

# name -> argv, run in this order: the evals read the train and herd documents
COMMANDS = {
    "train": ["train", *_DATA, "--kernel", "gaussian:2.0"],
    "herd": _HERD,
    "herd-parallel": [*_HERD, "--parallel", "4"],
    "herd-recursive": [*_HERD, "--recursive", "--min-size", "10"],
    "herd-uniform": [*_HERD, "--step-rule", "uniform", "--max-iterations", "200"],
    **{f"eval-{model}-{loss}": ["eval", *_DATA, "--model", f"{{dir}}/{model}.json", "--loss", loss]
       for model in ("train", "herd") for loss in ("linear", "hinge", "zero-one")},
    "mmd-csv": ["mmd", *_DATA, "--kernel", "poly:2:1.0:norm"],
    "mmd-sparse": ["mmd", "--data", "{sparse}", "--kernel", "linear"],
    "noise-sln": ["noise", "--dist", "{dist}", "--model", "sln", "--sigma", "0.2"],
    "noise-cc": ["noise", "--dist", "{dist}", "--model", "cc", "--sigma-neg", "0.1",
                 "--sigma-pos", "0.3"],
    "noise-contaminate": ["noise", "--dist", "{dist}", "--model", "contaminate", "--q", "{q}",
                          "--sigma", "0.25"],
    "check": ["check", "--suite", "all", "--seed", "0"],
    "bounds-pac-bayes": ["bounds", "--kind", "pac-bayes", "--n", "1000", "--emp", "0.1"],
    "bounds-pac-bayes-multi": ["bounds", "--kind", "pac-bayes-multi", "--n", "1000",
                               "--emp", "0.1", "--k", "3"],
    "bounds-mean-estimation": ["bounds", "--kind", "mean-estimation", "--n", "1000",
                               "--delta", "0.01"],
    "bounds-generic-pac-bayes": ["bounds", "--kind", "generic-pac-bayes", "--n", "1000",
                                 "--emp", "0.1", "--kl", "2.0"],
}


def write_inputs(workdir: Path) -> dict:
    """The input files in ``workdir``, by the placeholder names ``COMMANDS`` use."""
    S = synth_blobs(300, 3, 2.0, seed=0)
    X, y = np.vstack([S.instances] * 2), np.concatenate([S.labels] * 2)
    files = {"dir": workdir, "csv": workdir / "data.csv", "sparse": workdir / "data.txt",
             "dist": workdir / "dist.json", "q": workdir / "q.json"}
    files["csv"].write_text("".join(
        ",".join(map(repr, row)) + f",{label}\n" for row, label in zip(X.tolist(), y.tolist())))
    files["sparse"].write_text("".join(
        f"{label} " + " ".join(f"{j}:{v!r}" for j, v in enumerate(row, start=1)) + "\n"
        for row, label in zip(X.tolist(), y.tolist())))
    P = synth_blobs(12, 2, 2.0, seed=1)
    Q = synth_blobs(8, 2, 1.0, seed=2)
    dist = DiscreteDistribution(P.instances, P.labels, np.arange(1.0, 13.0) / 78.0)
    q = DiscreteDistribution(Q.instances, Q.labels, np.full(8, 0.125))
    files["dist"].write_text(json.dumps(dist.to_dict()))
    files["q"].write_text(json.dumps(q.to_dict()))
    return files


def run(name: str, files: dict) -> dict:
    """The exit code and document of command ``name``, its config paths relative to the run directory."""
    workdir = files["dir"]
    out = workdir / f"{name}.json"
    argv = [arg.format(**files) for arg in COMMANDS[name]]
    with contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["config"] = {k: os.path.relpath(v, workdir)
                     if isinstance(v, str) and v.startswith(f"{workdir}{os.sep}") else v
                     for k, v in doc["config"].items()}
    return {"exit": code, "document": doc}


def run_all(workdir: Path) -> dict:
    files = write_inputs(workdir)
    return {name: run(name, files) for name in COMMANDS}


def mismatches(expected, actual, where="$"):
    """The paths at which ``actual`` does not match ``expected`` under the golden rule."""
    if isinstance(expected, float):
        if not (isinstance(actual, float)
                and abs(actual - expected) <= REL * max(1.0, abs(expected))):
            yield f"{where}: expected {expected!r}, got {actual!r}"
    elif isinstance(expected, dict):
        if not isinstance(actual, dict):
            yield f"{where}: expected an object, got {actual!r:.200}"
        elif set(actual) != set(expected):
            yield (f"{where}: keys missing {sorted(set(expected) - set(actual))}, "
                   f"unexpected {sorted(set(actual) - set(expected))}")
        else:
            for key in expected:
                yield from mismatches(expected[key], actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            yield f"{where}: expected {len(expected)} entries, got {actual!r:.200}"
        else:
            for i, (e, a) in enumerate(zip(expected, actual)):
                yield from mismatches(e, a, f"{where}[{i}]")
    elif type(actual) is not type(expected) or actual != expected:
        yield f"{where}: expected {expected!r}, got {actual!r}"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", COMMANDS)
def test_output_matches_its_golden(name, outputs):
    path = GOLDEN / f"{name}.json"
    assert path.exists(), f"no golden {path.name}: tests/golden/regen.py writes it"
    bad = list(mismatches(json.loads(path.read_text()), outputs[name]))
    assert bad == [], "\n".join(bad[:10])


def test_every_golden_has_its_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)


def test_the_rule_tells_floats_within_the_tolerance_from_other_changes():
    assert list(mismatches({"a": [1.0, 2e6]}, {"a": [1.0 + 1e-13, 2e6 * (1 + 5e-13)]})) == []
    assert len(list(mismatches({"a": [1.0, 2e6]}, {"a": [1.0 + 2e-12, 2e6 * (1 + 2e-12)]}))) == 2
    assert len(list(mismatches({"n": 1, "b": True, "s": "x", "z": None},
                               {"n": 1.0, "b": 1, "s": "y", "z": 0.0}))) == 4
    assert list(mismatches({"a": 1}, {"a": 1, "b": 2})) != []
