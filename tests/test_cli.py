import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meanherd import herding, kernels
from meanherd.classifier import margin_for_error
from meanherd.cli import ALL_SUITES, _write_json, main
from meanherd.data import DiscreteDistribution, load_csv, synth_blobs
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
    trace = tmp_path / "trace.csv"
    code = main([
        "herd", "--data", str(blob_csv), "--kernel", "gaussian:1.0",
        "--epsilon", "0.05", "--out", str(out), "--trace-out", str(trace),
    ])
    assert code == 0
    doc = read_json(out)
    assert doc["error"] <= 0.05
    assert doc["recomputed_error"] == pytest.approx(doc["error"], abs=1e-8)
    assert doc["termination"] == "tolerance"
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "error", "size"]
    errors = [float(r[1]) for r in rows[1:]]
    assert errors == sorted(errors, reverse=True)


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
    entries, rows = [], []
    block, kernel_rows = kernels._block, herding.kernel_rows

    def counted(spec, a, b):
        K = block(spec, a, b)
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


@pytest.mark.parametrize("command", ["train", "eval", "sparse", "noise", "config"])
def test_non_utf8_input_exit_3(command, toy_csv, tmp_path):
    binary = tmp_path / "bin.csv"
    binary.write_bytes(b"\xff\xfe1.0,0.0,1\n")
    argv = {"train": ["train", "--data", str(binary)],
            "eval": ["eval", "--model", str(binary), "--data", str(toy_csv)],
            "sparse": ["mmd", "--data", str(binary), "--format", "sparse"],
            "noise": ["noise", "--dist", str(binary)],
            "config": ["--config", str(binary), "train", "--data", str(toy_csv)]}[command]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    proc = subprocess.run([sys.executable, "-m", "meanherd.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert str(binary) in proc.stderr


def test_write_json_rejects_non_finite(tmp_path):
    out = tmp_path / "out.json"
    with pytest.raises(DataError):
        _write_json(out, {"value": float("nan")})
    assert not out.exists()


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
                                   {"parallel": True}, {"kernel": {"kind": "gaussian"}}])
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


@pytest.mark.parametrize("command", ["train", "check"])
def test_bad_json_kernel_exit_2(command, toy_csv, capsys):
    argv = {"train": ["train", "--data", str(toy_csv)], "check": ["check", "--suite", "ghosh"]}[command]
    assert run_cli([*argv, "--kernel", '{"kind": "gaussian", "bandwidth": "wide"}']) == 2
    assert "bad kernel JSON" in capsys.readouterr().err
