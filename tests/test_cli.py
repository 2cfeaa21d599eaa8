import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from meanherd import bounds, herding, kernels, lab
from meanherd.classifier import margin_for_error
from meanherd.cli import ALL_SUITES, _write_json, build_parser, main
from meanherd.data import DiscreteDistribution, flip_symmetric, load_csv, synth_blobs
from meanherd.errors import DataError
from meanherd.herding import (
    HerdingConfig,
    herd,
    parallel_herd,
    recursive_herd,
)
from meanherd.kernels import KernelSpec
from meanherd.losses import empirical_risk, parse_loss


@pytest.fixture
def toy_csv(tmp_path):
    f = tmp_path / "toy.csv"
    f.write_text("1.0,0.0,1\n-1.0,0.0,-1\n")
    return f


@pytest.fixture
def blob_csv(tmp_path):
    S = synth_blobs(200, 2, 4.0, seed=0)
    f = tmp_path / "blobs.csv"
    rows = "\n".join(
        f"{float(x[0])!r},{float(x[1])!r},{y}" for x, y in zip(S.instances, S.labels)
    )
    f.write_text(rows + "\n")
    return f


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_train_writes_model(toy_csv, tmp_path):
    out = tmp_path / "model.json"
    code = main(["train", "--data", str(toy_csv), "--kernel", "linear", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert len(doc["support"]) == 2
    assert all(s["alpha"] == 0.5 for s in doc["support"])
    assert doc["meta"]["n_source"] == 2
    assert doc["meta"]["norm"] == pytest.approx(1.0, abs=1e-12)
    assert doc["meta"]["min_linear_loss"] == pytest.approx(0.0, abs=1e-12)
    assert doc["config"]["subcommand"] == "train"
    assert doc["config"]["label-column"] == -1  # defaults recorded, never implicit
    assert "seed" not in doc["config"]  # train draws no random numbers


@pytest.mark.parametrize("command, message", [
    ("herd", "non-finite kernel values in candidate set"),
    ("train", "non-finite value in output"),
    ("mmd", "non-finite value in output"),
])
def test_a_kernel_sum_that_overflows_exits_3_without_a_warning(command, message, blob_csv,
                                                                tmp_path, capsys):
    # (x.z + 1)^400 is beyond the float range on the blobs, so the blocks hold
    # inf, and a pass over coefficients of both signs sums inf - inf = nan:
    # a non-finite value that exits 3, with no RuntimeWarning on the way
    out = tmp_path / "out.json"
    assert main([command, "--data", str(blob_csv), "--kernel", "poly:400:1.0",
                 "--out", str(out)]) == 3
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_train_with_an_unbounded_kernel_writes_no_min_linear_loss(blob_csv, tmp_path):
    # the blobs have K(x, x) = |x|^2 > 1 under the linear kernel, where 1 - ||omega|| is no loss
    out = tmp_path / "model.json"
    code = main(["train", "--data", str(blob_csv), "--kernel", "linear", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["meta"]["min_linear_loss"] is None
    assert doc["meta"]["norm"] > 1.0


@pytest.mark.parametrize("kernel, warned", [("linear", True), ("gaussian:1.0", False)])
def test_herd_warns_once_when_the_kernel_exceeds_one_on_the_data(kernel, warned, blob_csv,
                                                                  tmp_path, capsys):
    # scores lie within error * sqrt(K(x, x)) of the full mean's, which is more than error
    # where K(x, x) = |x|^2 > 1; the document and the exit code do not change
    out = tmp_path / "herd.json"
    code = main(["herd", "--data", str(blob_csv), "--kernel", kernel, "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    if warned:
        assert err.count("\n") == 1 and "error*sqrt(K(x, x))" in err
        assert read_json(out)["meta"]["min_linear_loss"] is None
    else:
        assert err == ""


def test_train_is_byte_deterministic(toy_csv, tmp_path):
    a = tmp_path / "a.json"
    main(["train", "--data", str(toy_csv), "--kernel", "gaussian:1.0", "--out", str(a)])
    first = a.read_bytes()
    main(["train", "--data", str(toy_csv), "--kernel", "gaussian:1.0", "--out", str(a)])
    assert a.read_bytes() == first


def test_train_missing_file_exit_3(tmp_path):
    code = main(["train", "--data", str(tmp_path / "absent.csv"), "--out", "-"])
    assert code == 3


def test_bad_kernel_exit_2(toy_csv):
    code = run_cli(["train", "--data", str(toy_csv), "--kernel", "fourier:1"])
    assert code == 2


def test_unknown_subcommand_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_herd_outputs_and_trace(blob_csv, tmp_path):
    out = tmp_path / "herd.json"
    code = main([
        "herd", "--data", str(blob_csv), "--kernel", "gaussian:1.0",
        "--epsilon", "0.05", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out)
    assert doc["error"] <= 0.05
    assert doc["recomputed_error"] == pytest.approx(doc["error"], abs=1e-8)
    assert doc["termination"] == "tolerance"
    # the document is the run's one record: the trace and its member counts
    assert doc["trace"] == sorted(doc["trace"], reverse=True)
    assert doc["trace"][-1] == doc["error"]
    sizes = doc["sizes"]
    assert len(sizes) == len(doc["trace"])
    assert sizes[0] == 1 and sizes[-1] == len(doc["members"])
    assert all(b - a <= 1 for a, b in zip(sizes, sizes[1:]))  # a step adds at most one member


@pytest.mark.parametrize("mode", ["plain", "parallel", "parallel-1", "recursive",
                                  "recursive-no-stage"])
def test_herd_makes_one_n_squared_pass(mode, blob_csv, tmp_path, monkeypatch):
    # Every kernel block goes through kernels._block.  A self-sum over k
    # points with r = BLOCK_ENTRIES // k rows per block evaluates at most
    # tri(k) = k (k + r) / 2 entries (k^2 when one block holds them all).
    # plain: the target pass, one kernel row per trace entry, and the exact
    # error's self-sum over the m members, whose squared norm is also the
    # document's; parallel: each group's plain herd without its exact error,
    # then one uniform pass for the combined herd's exact error; with one
    # group that group's pass is the uniform pass, so the count is a plain
    # herd's.  recursive: stage 1 and the final error share one uniform
    # pass; later stages pass only over the previous stage's members.  With
    # no stage the herd is the sample itself: its error is 0 and its norm
    # the target pass's, so the target pass is all.
    n = 200
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 25 * n)  # n spans 8 blocks of 25 rows
    monkeypatch.setattr(kernels, "BLOCK_ROWS", 1)
    entries, rows = [], []
    block, kernel_rows = kernels._block, herding.kernel_rows

    def counted(spec, a, b, out=None):
        K = block(spec, a, b, out)
        entries.append(K.size)
        return K

    def counted_rows(spec, X):
        row = kernel_rows(spec, X)

        def counted_row(i):
            v = row(i)
            rows.append(v.size)
            return v
        return counted_row

    def tri(k):
        return k * (k + min(k, kernels.BLOCK_ENTRIES // k)) // 2

    monkeypatch.setattr(kernels, "_block", counted)
    monkeypatch.setattr(herding, "kernel_rows", counted_rows)
    flags = {"plain": [], "parallel": ["--parallel", "4"], "parallel-1": ["--parallel", "1"],
             "recursive": ["--recursive", "--min-size", "20"],
             "recursive-no-stage": ["--recursive", "--min-size", "200"]}[mode]
    out = tmp_path / "herd.json"
    assert main(["herd", "--data", str(blob_csv), "--kernel", "gaussian:1.0",
                 "--epsilon", "0.05", *flags, "--out", str(out)]) == 0
    used, made = sum(entries), list(rows)  # before the reference herds below add to them
    doc = read_json(out)
    m = len(doc["members"])
    if mode == "plain":
        assert doc["termination"] == "tolerance"
        assert made == [n] * len(doc["trace"])
        assert used <= tri(n) + len(doc["trace"]) * n + tri(m)
    elif mode == "parallel":
        # T_g: group g's trace entries, one kernel row of n_g entries each
        S = load_csv(blob_csv, -1)
        kernel, cfg = KernelSpec("gaussian", bandwidth=1.0), HerdingConfig(tolerance=0.05)
        blocks = np.array_split(np.arange(n), 4)
        TN = sum(len(herd(S.subset(g), kernel, cfg).trace) * len(g) for g in blocks)
        assert doc["termination"] == "tolerance"
        assert sum(made) == TN
        assert used <= tri(n) + sum(tri(len(g)) for g in blocks) + TN + tri(m)
    elif mode == "parallel-1":
        S = load_csv(blob_csv, -1)
        T = len(herd(S, KernelSpec("gaussian", bandwidth=1.0), HerdingConfig(tolerance=0.05)).trace)
        assert doc["termination"] == "tolerance"
        assert made == [n] * T
        assert used <= tri(n) + T * n + tri(m)
    elif mode == "recursive":
        stages = [st["size_before"] for st in doc["stages"]]
        assert stages[0] == n and set(made) <= set(stages)
        assert used - sum(made) <= tri(n) + sum(tri(k) for k in stages[1:]) + tri(m)
        assert used < tri(n) + 0.5 * n * n
    else:
        assert "stages" not in doc and doc["recomputed_error"] == 0.0
        assert made == [] and used <= tri(n)


def test_herd_huge_epsilon_single_member(blob_csv, tmp_path):
    out = tmp_path / "herd.json"
    main(["herd", "--data", str(blob_csv), "--kernel", "gaussian:1.0",
          "--epsilon", "10", "--out", str(out)])
    assert len(read_json(out)["members"]) == 1


def test_herd_iteration_cap_exit_1(blob_csv, tmp_path):
    code = main([
        "herd", "--data", str(blob_csv), "--kernel", "gaussian:1.0",
        "--epsilon", "1e-9", "--max-iterations", "3", "--out", str(tmp_path / "h.json"),
    ])
    assert code == 1


def _write_csv(path, X, y):
    path.write_text("".join(",".join(repr(float(v)) for v in x) + f",{int(t)}\n" for x, t in zip(X, y)))
    return path


@pytest.mark.parametrize("flags", [[], ["--parallel", "2"], ["--recursive", "--min-size", "10"]],
                         ids=["plain", "parallel", "recursive"])
def test_herd_iteration_cap_exits_1_in_every_mode(flags, tmp_path, capsys):
    # a parallel herd ends as its worst group, a recursive one as its worst stage:
    # here every run stops at the cap, so each mode ends max_iterations and exits 1
    S = synth_blobs(200, 2, 2.0, seed=0)
    data, out = _write_csv(tmp_path / "blobs.csv", S.instances, S.labels), tmp_path / "h.json"
    code = main(["herd", "--data", str(data), "--kernel", "gaussian:1.0", "--epsilon", "1e-6",
                 "--max-iterations", "5", *flags, "--out", str(out)])
    assert code == 1
    assert "iteration cap reached at error" in capsys.readouterr().err
    assert read_json(out)["termination"] == "max_iterations"


@pytest.mark.parametrize("command", ["train", "mmd", "herd"])
def test_large_scale_linear_data_is_not_reported_indefinite(command, tmp_path):
    # points at the 1e6 scale and their 1e-3 perturbations: the squared norms
    # round to about -1e-6, rounding at the scale of their terms (about 1e13),
    # which the PSD check clamps instead of exiting 3
    rng = np.random.default_rng(3)
    A = rng.standard_normal((50, 3)) * 1e6
    B = A + rng.standard_normal((50, 3)) * 1e-3
    data = _write_csv(tmp_path / "scaled.csv", np.vstack([A, B]), [1] * 50 + [-1] * 50)
    out = tmp_path / "out.json"
    assert main([command, "--data", str(data), "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["mmd"] >= 0.0 if command == "mmd" else doc["meta"]["norm"] >= 0.0


def test_herd_parallel_flag(blob_csv, tmp_path):
    out = tmp_path / "herd.json"
    code = main([
        "herd", "--data", str(blob_csv), "--kernel", "gaussian:1.0",
        "--epsilon", "0.025", "--parallel", "4", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out)
    assert doc["error"] <= 0.025 + 1e-12
    assert len(doc["group_errors"]) == 4


def test_herd_recursive_flag(blob_csv, tmp_path):
    out = tmp_path / "herd.json"
    code = main([
        "herd", "--data", str(blob_csv), "--kernel", "gaussian:1.0",
        "--epsilon", "0.05", "--recursive", "--min-size", "20", "--out", str(out),
    ])
    assert code == 0
    assert read_json(out)["stages"]


@pytest.mark.parametrize("flags, named", [
    (["--epsilon", "inf"], "argument --epsilon: tolerance must be finite and > 0, got inf"),
    (["--max-iterations", "0"], "argument --max-iterations: expected an integer >= 1, got '0'"),
    (["--parallel", "0"], "argument --parallel: expected an integer >= 1, got '0'"),
    (["--parallel", "201"], "--parallel must be at most the 200 data rows, got 201"),
    (["--recursive", "--min-size", "0"], "argument --min-size: expected an integer >= 1, got '0'"),
])
def test_herd_usage_errors_name_the_flag(flags, named, blob_csv, tmp_path, capsys):
    out = tmp_path / "herd.json"
    assert run_cli(["herd", "--data", str(blob_csv), *flags, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_herd_flag_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["herd"])
    config = HerdingConfig()
    assert (args.epsilon, args.max_iterations, args.step_rule) == (
        config.tolerance, config.max_iterations, config.step_rule)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_herd_parallel_and_recursive_exit_2(source, blob_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recursive": True}))
    out = tmp_path / "herd.json"
    argv = {"flag": ["herd", "--recursive"], "config": ["--config", str(cfg), "herd"]}[source]
    assert main([*argv, "--data", str(blob_csv), "--parallel", "2", "--out", str(out)]) == 2
    assert not out.exists()
    assert "--parallel and --recursive are mutually exclusive" in capsys.readouterr().err


def test_eval_on_training_data(toy_csv, tmp_path):
    model = tmp_path / "model.json"
    main(["train", "--data", str(toy_csv), "--kernel", "linear", "--out", str(model)])
    out = tmp_path / "metrics.json"
    code = main([
        "eval", "--model", str(model), "--data", str(toy_csv),
        "--loss", "zero-one", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out)
    assert doc["accuracy"] == 1.0
    assert doc["risk"] == 0.0
    assert doc["abstentions"] == 0
    assert doc["margin"] > 0


@pytest.mark.parametrize("mode", ["plain", "parallel", "recursive"])
def test_eval_reads_herd_output(mode, blob_csv, tmp_path):
    flags = {"plain": [], "parallel": ["--parallel", "4"], "parallel-1": ["--parallel", "1"],
             "recursive": ["--recursive", "--min-size", "20"],
             "recursive-no-stage": ["--recursive", "--min-size", "200"]}[mode]
    model = tmp_path / "herd.json"
    assert main(["herd", "--data", str(blob_csv), "--kernel", "gaussian:1.0",
                 "--epsilon", "0.05", *flags, "--out", str(model)]) == 0
    out = tmp_path / "metrics.json"
    assert main(["eval", "--model", str(model), "--data", str(blob_csv),
                 "--loss", "hinge", "--out", str(out)]) == 0
    doc = read_json(out)

    S = load_csv(blob_csv, -1)
    kernel = KernelSpec("gaussian", bandwidth=1.0)
    cfg = HerdingConfig(tolerance=0.05, max_iterations=10000)
    h = {"plain": lambda: herd(S, kernel, cfg),
         "parallel": lambda: parallel_herd(S, 4, kernel, cfg),
         "recursive": lambda: recursive_herd(S, kernel, min_size=20, config=cfg)}[mode]()
    assert [m["index"] for m in read_json(model)["members"]] == h.indices.tolist()
    scores = h.classifier.scores(S.instances)
    assert doc["accuracy"] == pytest.approx(float(np.mean(S.labels * scores > 0)), abs=1e-12)
    assert doc["risk"] == pytest.approx(empirical_risk(parse_loss("hinge"), S, scores), abs=1e-12)
    assert doc["margin"] == pytest.approx(margin_for_error(S, scores), abs=1e-12)


def test_eval_dimension_mismatch_exit_2(toy_csv, tmp_path):
    model = tmp_path / "model.json"
    main(["train", "--data", str(toy_csv), "--kernel", "linear", "--out", str(model)])
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0,3.0,1\n-1.0,0.0,0.0,-1\n")
    assert main(["eval", "--model", str(model), "--data", str(bad)]) == 2


def test_unknown_labels_exit_2_with_a_short_message(tmp_path, capsys):
    # 1000 distinct bad labels: the message names the first five sorted and the count
    data = tmp_path / "labels.csv"
    data.write_text("".join(f"{i + 0.5!r},0.5\n" for i in range(1000)))
    assert main(["train", "--data", str(data), "--label-column", "0"]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 300
    assert err == (f"usage error: unknown label value(s) [0.5, 1.5, 2.5, 3.5, 4.5, ...] "
                   f"(1000 distinct) in {data}\n")


@pytest.mark.parametrize("command", ["train", "herd", "mmd"])
def test_a_csv_of_labels_alone_exits_2(command, tmp_path, capsys):
    # the label column is the only column, so each row has no feature
    data = tmp_path / "labels.csv"
    data.write_text("1\n-1\n1\n")
    out = tmp_path / "out.json"
    assert main([command, "--data", str(data), "--kernel", "gaussian:1.0", "--out", str(out)]) == 2
    assert "got shapes (3, 0) and (3,)" in capsys.readouterr().err
    assert not out.exists()


def test_a_file_of_labels_alone_exits_2_alike_as_csv_and_sparse_text(tmp_path, capsys):
    errors = []
    for suffix in (".csv", ".txt"):
        data = tmp_path / f"labels{suffix}"
        data.write_text("1\n-1\n1\n")
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "model.json")]) == 2
        errors.append(capsys.readouterr().err.replace(str(data), "FILE"))
    assert errors[0] == errors[1]
    assert "need m > 0 atoms of d > 0 features" in errors[0]
    assert "got shapes (3, 0) and (3,)" in errors[0]
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("label", [1.7, True])
@pytest.mark.parametrize("command", ["eval", "noise"])
def test_label_not_plus_or_minus_one_exit_2(command, label, toy_csv, tmp_path, capsys):
    # neither "y": 1.7 nor "y": true is a +1 label, in a model or in a distribution
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(toy_csv), "--out", str(model)]) == 0
    doc = read_json(model)
    doc["support"][0]["y"] = label
    model.write_text(json.dumps(doc))
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"support": [[[0.0], label], [[1.0], -1]], "prob": [0.5, 0.5]}))
    out = tmp_path / "out.json"
    argv = {"eval": ["eval", "--model", str(model), "--data", str(toy_csv)],
            "noise": ["noise", "--dist", str(dist), "--sigma", "0.1"]}[command]
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert "-1 or +1" in capsys.readouterr().err


def test_check_surrogate_regret_suite(tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "--suite", "surrogate-regret", "--seed", "0", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["passed"] is True
    assert doc["config"]["seed"] == 0


def test_check_takes_no_kernel(tmp_path, capsys):
    # the suites assume |K| <= 1 and fit lab.SUITE_KERNEL; a config file's
    # "kernel" names no check flag, so it is ignored like any such key
    assert run_cli(["check", "--suite", "ghosh", "--kernel", "gaussian:1.0"]) == 2
    assert "unrecognized arguments: --kernel gaussian:1.0" in capsys.readouterr().err
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({"kernel": "linear"}))
    assert main(["--config", str(cfg), "check", "--suite", "compression", "--out", str(out)]) == 0
    doc = read_json(out)
    assert "kernel" not in doc["config"]
    assert doc["reports"][0]["inputs"]["kernel"] == lab.SUITE_KERNEL.to_dict() == {
        "kind": "gaussian", "bandwidth": 1.0, "normalized": False}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("suite", ALL_SUITES)
def test_check_suite_passes(suite, seed, tmp_path):
    out = tmp_path / "report.json"
    assert main(["check", "--suite", suite, "--seed", str(seed), "--out", str(out)]) == 0
    assert read_json(out)["passed"] is True


@pytest.mark.parametrize("seed", [2, 3])
def test_check_contamination_suite_passes(seed, tmp_path):
    # margin = min |f(x)| over the atoms: a misclassified atom near the
    # boundary counts too, so no score can change sign under the hypothesis
    out = tmp_path / "report.json"
    code = main(["check", "--suite", "contamination", "--seed", str(seed), "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["passed"] is True
    assert any(rep["assertions"] for rep in doc["reports"])


def test_check_output_is_byte_identical(capsys):
    runs = []
    for _ in range(2):
        assert main(["check", "--suite", "sln-immunity"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_check_unknown_suite_exit_2():
    assert run_cli(["check", "--suite", "nonesuch"]) == 2


def test_check_unknown_suite_in_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "nonesuch"}))
    assert main(["--config", str(cfg), "check"]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "'suite'" in err


@pytest.mark.parametrize("value", [-1, 1.5, "abc"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_check_bad_seed_exit_2(source, value, tmp_path, capsys):
    # numpy's generators take integers >= 0 only; -1 used to end in a ValueError traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": value}))
    out = tmp_path / "report.json"
    argv = {"flag": ["check", f"--seed={value}"], "config": ["--config", str(cfg), "check"]}[source]
    assert run_cli([*argv, "--suite", "order-reversal", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err and "integer >= 0" in err
    if source == "config":
        assert str(cfg) in err and "'seed'" in err


def test_check_long_servedio_suite(tmp_path):
    out = tmp_path / "report.json"
    code = main(["check", "--suite", "long-servedio", "--out", str(out)])
    assert code == 0
    rep = read_json(out)["reports"][0]
    assert rep["extras"]["failing_sigmas"]


def test_bounds_worked_values(capsys):
    assert main(["bounds", "--kind", "pac-bayes", "--n", "1000", "--delta", "0.05"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert f"{doc['bound']:.5g}" == "0.089395"
    assert main(["bounds", "--kind", "mean-estimation", "--n", "100", "--delta", "0.05"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert f"{doc['bound']:.5g}" == "0.33581"


def test_bounds_multi_k1_reduces(capsys):
    main(["bounds", "--kind", "pac-bayes-multi", "--n", "500", "--k", "1", "--delta", "0.1"])
    multi = json.loads(capsys.readouterr().out)["bound"]
    main(["bounds", "--kind", "pac-bayes", "--n", "500", "--delta", "0.1"])
    single = json.loads(capsys.readouterr().out)["bound"]
    assert multi == single


def test_bounds_invalid_params_exit_2():
    assert main(["bounds", "--kind", "pac-bayes", "--n", "0", "--delta", "0.05"]) == 2


@pytest.mark.parametrize("kind, flag", [("pac-bayes", "--emp"), ("pac-bayes-multi", "--emp"),
                                        ("generic-pac-bayes", "--emp"),
                                        ("generic-pac-bayes", "--kl"),
                                        ("generic-pac-bayes", "--beta")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bounds_non_finite_params_exit_2(kind, flag, value, capsys):
    assert main(["bounds", "--kind", kind, "--n", "10", f"{flag}={value}"]) == 2
    assert flag[2:] in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["--kind", "generic-pac-bayes", "--beta", "1e-320"], "beta=1e-320"),
    (["--kind", "pac-bayes", "--delta", "1e-320"], "delta=1e-320"),
    (["--kind", "generic-pac-bayes", "--kl", "1e308", "--beta", "1e-10"], "kl=1e+308"),
    (["--kind", "mean-estimation", "--delta", "1e-320"], "delta=1e-320"),
])
def test_bounds_overflow_exit_2(argv, named, capsys):
    # finite inputs whose bound overflows to inf name those inputs
    assert main(["bounds", "--n", "10", *argv]) == 2
    err = capsys.readouterr().err
    assert named in err and "non-finite value in output" not in err


def test_mmd_command(blob_csv, capsys):
    code = main(["mmd", "--data", str(blob_csv), "--kernel", "gaussian:1.0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.0 < doc["mmd"] <= 1.0
    assert doc["n_pos"] == doc["n_neg"] == 100


def test_mmd_on_one_class_exit_3(tmp_path, capsys):
    data = tmp_path / "one-class.csv"
    data.write_text("1.0,0.0,1\n-1.0,0.0,1\n")
    out = tmp_path / "mmd.json"
    assert main(["mmd", "--data", str(data), "--out", str(out)]) == 3
    assert not out.exists()
    assert "mmd needs both classes present in the data" in capsys.readouterr().err


def test_noise_command_sln(tmp_path, capsys):
    P = DiscreteDistribution(
        instances=np.array([[0.0], [1.0]]), labels=np.array([1, -1]),
        probabilities=np.array([0.5, 0.5]),
    )
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(P.to_dict()))
    code = main(["noise", "--dist", str(dist), "--model", "sln", "--sigma", "0.25"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    back = DiscreteDistribution.from_dict(doc)
    atoms = zip(map(tuple, back.instances.tolist()), back.labels.tolist())
    probs = dict(zip(atoms, back.probabilities))
    assert probs[((0.0,), -1)] == pytest.approx(0.125, abs=1e-15)


def test_noise_command_requires_q_for_contamination(tmp_path):
    P = DiscreteDistribution(np.array([[0.0]]), np.array([1]), np.array([1.0]))
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps(P.to_dict()))
    assert main(["noise", "--dist", str(dist), "--model", "contaminate"]) == 2


@pytest.mark.parametrize("case", ["train-nan", "mmd-nan", "train-inf", "noise-nan-prob",
                                  "noise-nan-point", "noise-inf-point",
                                  "eval-nan-alpha", "eval-inf-alpha", "eval-nan-point"])
def test_non_finite_input_exit_3(case, toy_csv, tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text(("inf" if case.endswith("inf") else "nan") + ",0.5,-1\n1.0,0.0,1\n")
    dist = tmp_path / "dist.json"
    # two nan atoms that are otherwise equal: finiteness is checked before distinctness
    dist.write_text({
        "noise-nan-point": '{"support": [[[NaN], 1], [[NaN], 1]], "prob": [0.5, 0.5]}',
        "noise-inf-point": '{"support": [[[Infinity], 1], [[1.0], -1]], "prob": [0.5, 0.5]}',
    }.get(case, '{"support": [[[0.0], 1], [[1.0], -1]], "prob": [NaN, 1.0]}'))
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(toy_csv), "--out", str(model)]) == 0
    doc = read_json(model)
    atom = doc["support"][0]
    if case == "eval-nan-alpha":
        atom["alpha"] = float("nan")
    elif case == "eval-inf-alpha":
        atom["alpha"] = float("inf")
    elif case == "eval-nan-point":
        atom["x"][0] = float("nan")
    model.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    argv = {
        "train-nan": ["train", "--data", str(data)],
        "mmd-nan": ["mmd", "--data", str(data)],
        "train-inf": ["train", "--data", str(data)],
    }.get(case, ["eval", "--model", str(model), "--data", str(toy_csv)])
    if case.startswith("noise"):
        argv = ["noise", "--dist", str(dist), "--model", "sln", "--sigma", "0.1"]
    assert main([*argv, "--out", str(out)]) == 3
    assert not out.exists()
    # a bad model is rejected when read, not by the guard on the output
    assert "non-finite value in output" not in capsys.readouterr().err


def run_child(argv) -> subprocess.CompletedProcess:
    """``python -m meanherd.cli`` with ``argv`` in a child process, ``src`` first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    return subprocess.run([sys.executable, "-m", "meanherd.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("command", ["train", "eval", "sparse", "noise", "config"])
def test_non_utf8_input_exit_3(command, toy_csv, tmp_path):
    binary = tmp_path / "bin.csv"
    binary.write_bytes(b"\xff\xfe1.0,0.0,1\n")
    argv = {"train": ["train", "--data", str(binary)],
            "eval": ["eval", "--model", str(binary), "--data", str(toy_csv)],
            "sparse": ["mmd", "--data", str(binary), "--format", "sparse"],
            "noise": ["noise", "--dist", str(binary)],
            "config": ["--config", str(binary), "train", "--data", str(toy_csv)]}[command]
    proc = run_child(argv)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert str(binary) in proc.stderr


def test_a_child_process_writes_what_main_writes_in_process(blob_csv, tmp_path):
    # the child freezes its import graph out of the collector; main(argv) does not
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    out = tmp_path / "herd.json"
    argv = ["herd", "--data", str(blob_csv), "--kernel", "gaussian:1.0", "--epsilon", "0.05",
            "--out", str(out)]
    assert main(argv) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    inside = out.read_bytes()
    assert run_child(argv).returncode == 0
    assert out.read_bytes() == inside


@pytest.mark.parametrize("reader", ["config", "model", "dist"])
def test_json_inputs_may_start_with_a_byte_order_mark(reader, toy_csv, tmp_path):
    model, out = tmp_path / "model.json", tmp_path / "out.json"
    assert main(["train", "--data", str(toy_csv), "--out", str(model)]) == 0
    marked = tmp_path / "marked.json"
    text = {"config": '{"kernel": "linear"}', "model": model.read_text(),
            "dist": '{"support": [[[0.0], 1], [[1.0], -1]], "prob": [0.5, 0.5]}'}[reader]
    marked.write_text("\ufeff" + text, encoding="utf-8")
    argv = {"config": ["--config", str(marked), "train", "--data", str(toy_csv)],
            "model": ["eval", "--model", str(marked), "--data", str(toy_csv)],
            "dist": ["noise", "--dist", str(marked)]}[reader]
    assert main([*argv, "--out", str(out)]) == 0
    if reader == "config":
        assert read_json(out)["config"]["kernel"] == {"kind": "linear", "normalized": False}


@pytest.mark.parametrize("suffix", [".txt", ".TXT", ".Svm", ".LIBSVM"])
def test_format_auto_reads_a_sparse_suffix_in_any_case(suffix, tmp_path):
    data, out = tmp_path / f"train{suffix}", tmp_path / "mmd.json"
    data.write_text("1 1:1.37\n-1 1:-0.5\n1 1:2.0\n")
    assert main(["mmd", "--data", str(data), "--out", str(out)]) == 0
    assert read_json(out)["n_pos"] == 2


@pytest.mark.parametrize("argv, named", [
    (["eval", "--loss", "margin:nan"], "margin must be finite and >= 0, got nan"),
    (["eval", "--loss", "cc-corrected:hinge:nan:0.1"], "rates must be >= 0 with sum < 1, got (nan, 0.1)"),
    (["noise", "--model", "cc", "--sigma-neg", "nan", "--sigma-pos", "0.1"],
     "rates must be >= 0 with sum < 1, got (nan, 0.1)"),
    (["herd", "--epsilon", "inf"], "tolerance must be finite and > 0, got inf"),
])
def test_a_non_finite_parameter_exits_2_and_names_it(argv, named, toy_csv, tmp_path, capsys):
    model, dist, out = tmp_path / "model.json", tmp_path / "dist.json", tmp_path / "out.json"
    assert main(["train", "--data", str(toy_csv), "--out", str(model)]) == 0
    dist.write_text('{"support": [[[0.0], 1], [[1.0], -1]], "prob": [0.5, 0.5]}')
    inputs = {"eval": ["--model", str(model), "--data", str(toy_csv)], "herd": ["--data", str(toy_csv)],
              "noise": ["--dist", str(dist)]}[argv[0]]
    assert run_cli([*argv, *inputs, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bandwidth", [1e-200, 5e-324])
def test_a_gaussian_bandwidth_too_small_for_the_data_exits_3(bandwidth, toy_csv, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kernel": {"kind": "gaussian", "bandwidth": bandwidth},
                                 "support": [{"x": [1.0, 0.0], "alpha": 1.0, "y": 1}]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", "--model", str(model), "--data", str(toy_csv)]) == 3
    assert not caught
    assert f"gaussian bandwidth {bandwidth!r} is too small" in capsys.readouterr().err


def test_eval_exits_3_when_losses_overflow_to_both_signs(tmp_path, capsys):
    # (1 + x.z)^647 = 3^647 overflows on both rows: linear losses -inf and +inf have a nan mean,
    # which the output guard rejects without a RuntimeWarning
    data = tmp_path / "data.csv"
    data.write_text("1.0,0.0,1\n-1.0,2.0,-1\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kernel": {"kind": "polynomial", "degree": 647, "offset": 1.0},
                                 "support": [{"x": [2.0, 2.0], "alpha": 1.0, "y": 1}]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", "--model", str(model), "--data", str(data)]) == 3
    assert not caught
    assert "non-finite value in output" in capsys.readouterr().err


def test_herd_takes_no_trace_out_and_writes_no_document(blob_csv, tmp_path):
    # the document holds the trace and its sizes, so --trace-out is an unknown flag
    out = tmp_path / "doc.json"
    argv = ["herd", "--data", str(blob_csv), "--trace-out", str(tmp_path / "t.csv"), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not out.exists() and not (tmp_path / "t.csv").exists()


def test_write_json_rejects_non_finite(tmp_path):
    out = tmp_path / "out.json"
    with pytest.raises(DataError):
        _write_json(out, {"value": float("nan")})
    assert not out.exists()


def test_non_finite_output_exit_3(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bounds, "bound_mean_estimation", lambda n, delta: float("inf"))
    out = tmp_path / "out.json"
    assert main(["bounds", "--kind", "mean-estimation", "--n", "10", "--out", str(out)]) == 3
    assert not out.exists()
    assert "non-finite value in output" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_kernel_value_beyond_the_float_range_exits_3(command, tmp_path, capsys):
    # (1 + x.z)^513 = 5^513 overflows: an inf, not a RuntimeWarning, reaches the output guard
    data = tmp_path / "data.csv"
    data.write_text("1.0,0.0,1\n-1.0,2.0,-1\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kernel": {"kind": "polynomial", "degree": 513, "offset": 1.0},
                                 "support": [{"x": [0.0, 2.0], "alpha": 1.0, "y": 1}]}))
    argv = {"train": ["train", "--kernel", "poly:513:1.0"],
            "eval": ["eval", "--model", str(model)]}[command]
    assert main([*argv, "--data", str(data)]) == 3
    assert "non-finite value in output" in capsys.readouterr().err


TWO_POINTS = [{"alpha": 0.5, "y": 1, "x": [1.0, 0.0]}, {"alpha": 0.5, "y": -1, "x": [-1.0, 0.0]}]


@pytest.mark.parametrize("command, entry, value, code", [
    # a string is not read as its characters ("12" as the point [1.0, 2.0]) nor true as 1.0
    ("eval", "x", "12", 3),
    ("eval", "x", ["1.5", True], 3),
    ("eval", "alpha", "0.5", 3),
    ("eval", "x", [1, 0], 0),
    ("noise", "support", [["12", 1], [[0.0, 0.0], -1]], 3),
    ("noise", "prob", [0.5, "0.5"], 3),
    ("noise", "support", [[[1, 0], 1], [[0, 0], -1]], 0),
])
def test_documents_take_json_numbers_only(command, entry, value, code, toy_csv, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    if command == "eval":
        support = [dict(TWO_POINTS[0], **{entry: value}), TWO_POINTS[1]]
        doc.write_text(json.dumps({"kernel": {"kind": "linear"}, "meta": {}, "support": support}))
        argv = ["eval", "--model", str(doc), "--data", str(toy_csv)]
    else:
        dist = {"support": [[[1.0, 0.0], 1], [[0.0, 0.0], -1]], "prob": [0.5, 0.5], entry: value}
        doc.write_text(json.dumps(dist))
        argv = ["noise", "--dist", str(doc), "--model", "sln", "--sigma", "0.1"]
    assert main(argv) == code
    if code:
        assert f"{doc}: malformed document: TypeError" in capsys.readouterr().err


# What the indented writer wrote for ``toy3.csv``, parsed: the one-line layout
# changed the whitespace only.
TOY3_TRAIN = {
    "config": {"data": "toy3.csv", "format": "auto", "label-column": -1, "out": "out.json",
               "subcommand": "train",
               "kernel": {"bandwidth": 1.0, "kind": "gaussian", "normalized": False}},
    "kernel": {"bandwidth": 1.0, "kind": "gaussian", "normalized": False},
    "meta": {"min_linear_loss": 0.3797186820913979, "n_source": 3, "norm": 0.6202813179086021},
    "support": [{"alpha": 0.3333333333333333, "x": [1.0, 0.0], "y": 1},
                {"alpha": 0.3333333333333333, "x": [-1.0, 0.5], "y": -1},
                {"alpha": 0.3333333333333333, "x": [0.25, -0.0], "y": 1}],
}
TOY3_HERD = {
    "config": {"data": "toy3.csv", "epsilon": 0.3, "format": "auto", "label-column": -1,
               "max-iterations": 10000, "min-size": 100, "out": "out.json", "parallel": None,
               "recursive": False, "step-rule": "line_search", "subcommand": "herd",
               "kernel": {"bandwidth": 1.0, "kind": "gaussian", "normalized": False}},
    "error": 0.2332442466388378,
    "kernel": {"bandwidth": 1.0, "kind": "gaussian", "normalized": False},
    "members": [{"alpha": 0.6725391572495109, "index": 0},
                {"alpha": 0.32746084275048915, "index": 1}],
    "meta": {"min_linear_loss": 0.2880070090053425, "n_source": 3, "norm": 0.7119929909946575},
    "recomputed_error": 0.2332442466388378,
    "sizes": [1, 2],
    "support": [{"alpha": 0.6725391572495109, "x": [1.0, 0.0], "y": 1},
                {"alpha": 0.32746084275048915, "x": [-1.0, 0.5], "y": -1}],
    "termination": "tolerance",
    "trace": [0.5426581098613018, 0.2332442466388378],
}


@pytest.mark.parametrize("argv, expected", [
    (["train"], TOY3_TRAIN), (["herd", "--epsilon", "0.3"], TOY3_HERD),
])
def test_documents_parse_as_the_indented_writer_wrote_them(argv, expected, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("toy3.csv").write_text("1.0,0.0,1\n-1.0,0.5,-1\n0.25,-0.0,1\n")
    assert main([*argv, "--data", "toy3.csv", "--kernel", "gaussian:1.0", "--out", "out.json"]) == 0
    doc = read_json("out.json")
    assert doc == expected
    # and -0.0 stays -0.0, which == does not tell from 0.0
    points = [[math.copysign(1.0, v) for v in atom["x"]] for atom in doc["support"]]
    assert points == [[math.copysign(1.0, v) for v in atom["x"]] for atom in expected["support"]]


@pytest.mark.parametrize("argv", [
    ["train", "--data", "{data}"],
    ["herd", "--data", "{data}", "--kernel", "gaussian:1.0", "--epsilon", "0.1"],
    ["herd", "--data", "{data}", "--kernel", "gaussian:1.0", "--epsilon", "0.1", "--parallel", "2"],
    ["herd", "--data", "{data}", "--kernel", "gaussian:1.0", "--epsilon", "0.1", "--recursive",
     "--min-size", "20"],
    ["eval", "--data", "{data}", "--model", "{model}"],
    ["mmd", "--data", "{data}", "--kernel", "gaussian:1.0"],
    ["noise", "--dist", "{dist}", "--model", "sln", "--sigma", "0.25"],
    ["noise", "--dist", "{dist}", "--model", "cc", "--sigma-neg", "0.1", "--sigma-pos", "0.2"],
    ["noise", "--dist", "{dist}", "--model", "contaminate", "--q", "{q}", "--sigma", "0.3"],
    ["check", "--suite", "long-servedio"],
    ["bounds", "--kind", "pac-bayes", "--n", "100", "--emp", "0.1"],
])
def test_every_document_is_one_line_with_sorted_keys(argv, blob_csv, tmp_path):
    files = {"data": blob_csv, "model": tmp_path / "model.json", "dist": tmp_path / "dist.json",
             "q": tmp_path / "q.json"}
    assert main(["train", "--data", str(blob_csv), "--out", str(files["model"])]) == 0
    P = DiscreteDistribution(np.array([[0.0, 1.0], [0.5, -0.0], [2.0, 3.0]]), np.array([1, -1, 1]),
                             np.array([0.25, 0.25, 0.5]))
    files["dist"].write_text(json.dumps(P.to_dict()))
    files["q"].write_text(json.dumps(flip_symmetric(P, 0.4).to_dict()))
    out = tmp_path / "out.json"
    assert main([a.format(**files) for a in argv] + ["--out", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


@pytest.mark.parametrize("role, content, message", [
    ("config", b"\xff\xfe{}", "not UTF-8 text"),
    ("config", b'{"kernel": ', "not JSON"),
    ("config", b"[1, 2]", "config file must contain a JSON object"),
    ("model", b"\xff\xfe{}", "not UTF-8 text"),
    ("model", b'{"kernel": ', "not JSON"),
])
def test_unreadable_json_input_exit_3(role, content, message, toy_csv, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_bytes(content)
    out = tmp_path / "out.json"
    argv = {"config": ["--config", str(doc), "train"], "model": ["eval", "--model", str(doc)]}[role]
    assert main([*argv, "--data", str(toy_csv), "--out", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert str(doc) in err and message in err


@pytest.mark.parametrize("case", ["eval-empty", "eval-list", "eval-scalar-x", "noise-empty",
                                  "noise-bad-atom"])
def test_malformed_document_exit_3(case, toy_csv, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    scalar_x = {"kernel": {"kind": "linear"}, "meta": {},
                "support": [{"alpha": 0.5, "y": 1, "x": 1.0}, {"alpha": 0.5, "y": -1, "x": 2.0}]}
    doc.write_text({"eval-list": "[1, 2]",
                    "eval-scalar-x": json.dumps(scalar_x),
                    "noise-bad-atom": '{"support": [[[0.0], 1, 7]], "prob": [1.0]}'}.get(case, "{}"))
    out = tmp_path / "out.json"
    if case.startswith("eval"):
        argv = ["eval", "--model", str(doc), "--data", str(toy_csv)]
    else:
        argv = ["noise", "--dist", str(doc), "--model", "sln"]
    assert main([*argv, "--out", str(out)]) == 3
    assert not out.exists()
    assert str(doc) in capsys.readouterr().err


@pytest.mark.parametrize("ragged", ["dist", "q"])
def test_ragged_support_exit_3(ragged, tmp_path, capsys):
    # atoms of different dimension are a malformed document, as P and as Q
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"support": [[[0.0], 1], [[2.0], -1]], "prob": [0.5, 0.5]}')
    bad.write_text('{"support": [[[0.0, 1.0], 1], [[2.0], -1]], "prob": [0.5, 0.5]}')
    out = tmp_path / "out.json"
    P, Q = (bad, good) if ragged == "dist" else (good, bad)
    argv = ["noise", "--dist", str(P), "--model", "contaminate", "--q", str(Q), "--sigma", "0.5"]
    assert main([*argv, "--out", str(out)]) == 3
    assert not out.exists()
    assert str(bad) in capsys.readouterr().err


def test_config_file_precedence(toy_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kernel": "gaussian:2.0", "format": "csv"}))
    code = main(["--config", str(cfg), "train", "--data", str(toy_csv)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["kernel"]["kind"] == "gaussian"
    assert doc["config"]["format"] == "csv"
    # explicit flag beats the config file
    main(["--config", str(cfg), "train", "--data", str(toy_csv), "--kernel", "linear"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["kernel"]["kind"] == "linear"


def run_cli(argv) -> int:
    """``main``'s exit code, whether it returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("entry", [{"epsilon": "abc"}, {"recursive": "no"}, {"format": "xml"},
                                   {"parallel": True}, {"kernel": {"kind": "gaussian"}},
                                   {"epsilon": "inf"}])
def test_config_value_rejected_like_its_flag(entry, blob_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    out = tmp_path / "herd.json"
    argv = ["--config", str(cfg), "herd", "--data", str(blob_csv), "--out", str(out)]
    assert run_cli(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (key,) = entry  # a value the flag's parser rejects names the file and the key
    assert str(cfg) in err and repr(key) in err


def test_switch_from_config_turned_off_by_flag(toy_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"recursive": True}))
    out = tmp_path / "herd.json"
    assert main(["--config", str(cfg), "herd", "--data", str(toy_csv), "--parallel", "2",
                 "--no-recursive", "--out", str(out)]) == 0
    doc = read_json(out)
    assert len(doc["group_errors"]) == 2
    assert doc["config"]["recursive"] is False


def test_config_supplies_flags_and_flags_win(blob_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": str(blob_csv), "kernel": "gaussian:1.0", "epsilon": 0.2,
                               "recursive": True, "min-size": 20}))
    out = tmp_path / "herd.json"
    assert main(["--config", str(cfg), "herd", "--epsilon", "0.05", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["stages"]
    assert doc["config"]["data"] == str(blob_csv)
    assert (doc["config"]["epsilon"], doc["config"]["min-size"]) == (0.05, 20)


def test_config_json_kernel_and_foreign_keys(toy_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    kernel = {"kind": "gaussian", "bandwidth": 2.0}
    # herd's --epsilon, check's --seed and bounds' --k are not train flags: ignored,
    # and "k" is no abbreviation of --kernel
    cfg.write_text(json.dumps({"kernel": kernel, "epsilon": "abc", "seed": 7, "k": 3,
                               "recursive": False}))
    assert main(["--config", str(cfg), "train", "--data", str(toy_csv)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kernel"] == doc["config"]["kernel"] == {**kernel, "normalized": False}
    assert "seed" not in doc["config"] and "epsilon" not in doc["config"]


@pytest.mark.parametrize("argv", [["train", "--seed", "1"], ["eval", "--kernel", "linear"],
                                  ["bounds", "--seed", "1"], ["herd", "--seed", "1"]])
def test_removed_flags_exit_2(argv, capsys):
    assert run_cli(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("kernel", ['{"kind": "polynomial", "degree": "3"}',
                                    '{"kind": "polynomial", "degree": 2.5}', "gaussian:1.0:norm",
                                    '{"kind": "linear", "degree": 3, "bandwidth": -1}'])
def test_kernel_parameters_that_break_or_do_nothing_exit_2(kernel, toy_csv, tmp_path, capsys):
    out = tmp_path / "model.json"
    assert run_cli(["train", "--data", str(toy_csv), "--kernel", kernel, "--out", str(out)]) == 2
    assert not out.exists()
    assert "argument --kernel" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "herd", "mmd"])
def test_bad_json_kernel_exit_2(command, toy_csv, capsys):
    argv = [command, "--data", str(toy_csv)]
    assert run_cli([*argv, "--kernel", '{"kind": "gaussian", "bandwidth": "wide"}']) == 2
    assert "bad kernel JSON" in capsys.readouterr().err
