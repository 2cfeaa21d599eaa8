"""Benchmark of the ``meanherd`` command-line tool.

    python3 bench/run.py --workload compress|classify|audit --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  Set-up writes the workload's
seeded inputs under ``.bench_work/<workload>/``.

``--trace 0`` runs passes over the workload's command list, each command
as its own ``python -m meanherd.cli`` child with ``src`` on PYTHONPATH,
one at a time, until the next pass would end after ``--seconds``.  Every
output is checked against the oracles in ``oracles.py``.  It prints the
end-to-end metrics.

``--trace 1`` prints the per-layer metrics instead.  It runs one child
pass, then calls ``meanherd.cli.main(argv)`` in this process for an
untraced pass, a pass with spans around each layer's public functions
(``tracing.py``), a second untraced pass and a pass under tracemalloc.  The spans are written to
``.bench_work/<workload>/spans-<seed>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The metric names and units come
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# One BLAS thread for the children and for this process: on two shared
# cores it is both faster and steadier than two (see README).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIB = 1024.0 * 1024.0
SUBCOMMANDS = ("herd", "train", "eval", "mmd", "check", "noise")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Tally:
    """Operations attempted and failed, and whether every output was right."""

    def __init__(self, log):
        self.log = log
        self.attempted = self.failed = 0
        self.correct = True
        self.facts: dict[str, dict] = {}

    def record(self, cmd: workloads.Command, code: int) -> None:
        self.attempted += 1
        try:
            known_failure, facts = cmd.verify(code, workloads.read_json(cmd.out))
        except (oracles.OracleError, KeyError, TypeError, ValueError, IndexError) as exc:
            print(f"WRONG OUTPUT {cmd.label}: {exc!r}", file=sys.stderr)
            self.correct = False
            return
        self.failed += known_failure
        # Counts must repeat exactly from pass to pass.
        if self.facts.setdefault(cmd.label, facts) != facts:
            print(f"WRONG OUTPUT {cmd.label}: {facts} differs from {self.facts[cmd.label]}",
                  file=sys.stderr)
            self.correct = False


def run_child(argv: list[str], log) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MiB) of one ``meanherd`` child."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "meanherd.cli", *argv], cwd=ROOT,
                            env=child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=log)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def child_pass(cmds, tally: Tally) -> list[tuple[float, float]]:
    rows = []
    for cmd in cmds:
        cmd.out.unlink(missing_ok=True)
        code, wall, rss = run_child(cmd.argv, tally.log)
        tally.record(cmd, code)
        rows.append((wall, rss))
    return rows


def run_inprocess(cli, argv: list[str], log) -> int:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)
    except Exception:  # an uncaught error ends a real run with exit code 1
        traceback.print_exc(file=log)
        return 1
    finally:
        log.write(sink.getvalue())


def set_up(workload: str, seed: int):
    """Generate the inputs SETUP_REPEATS times; (commands, median seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cmds = workloads.setup(workload, seed, WORK / workload)
        times.append(time.perf_counter() - t0)
    return cmds, statistics.median(times)


# ---------------------------------------------------------------------------
# End-to-end run


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally):
    cmds, setup_s = set_up(workload, seed)
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(child_pass(cmds, tally))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break

    per_cmd = [statistics.median(p[i][0] for p in passes) for i in range(len(cmds))]
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(per_cmd),
        "peak_rss_mib": statistics.median(max(r for _, r in p) for p in passes),
        "cmd_max_s": max(per_cmd),
    }

    # Per-command figures, for the table printed above the result line.
    detail = {}
    for name in dict.fromkeys(c.metric for c in cmds):
        detail[name] = (statistics.median(
            p[i][0] for p in passes for i, c in enumerate(cmds) if c.metric == name), "s")
    for name, label, fact in (("herd_members", "herd", "members"),
                              ("herd_iterations", "herd", "iterations"),
                              ("parallel_members", "herd-parallel", "members")):
        if fact in tally.facts.get(label, {}):
            detail[name] = (tally.facts[label][fact], "count")
    detail["pass_walls"] = (" ".join(f"{sum(w for w, _ in p):.3f}" for p in passes), "s")
    return metrics, detail


# ---------------------------------------------------------------------------
# Traced run


def import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import meanherd.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def traced(workload: str, seed: int, tally: Tally):
    cmds, _ = set_up(workload, seed)
    metrics = {"cli.import_s": import_seconds()}
    child = [wall for wall, _ in child_pass(cmds, tally)]

    sys.path.insert(0, str(SRC))
    import meanherd.cli as cli

    def timed_pass(hook=None) -> list[float]:
        walls = []
        for cmd in cmds:
            cmd.out.unlink(missing_ok=True)
            if hook:
                hook(cmd, "before")
            t0 = time.perf_counter()
            code = run_inprocess(cli, cmd.argv, tally.log)
            walls.append(time.perf_counter() - t0)
            if hook:
                hook(cmd, "after")
            tally.record(cmd, code)
        return walls

    first_plain = timed_pass()

    tracer = tracing.Tracer()
    rows = []

    def span_hook(cmd, when):
        if when == "before":
            rows.append({"label": cmd.label, "argv": cmd.argv, "first_span": len(tracer.spans),
                         "entries": tracer.kernel_entries})
        else:
            row = rows[-1]
            row["self_s"] = dict(tracer.self_times(row["first_span"]))
            row["calls"] = dict(tracer.calls(row["first_span"]))
            row["kernel_entries"] = tracer.kernel_entries - row.pop("entries")

    tracer.install()
    try:
        t_base = time.perf_counter()
        traced_walls = timed_pass(span_hook)
    finally:
        tracer.uninstall()
    # Untraced passes on both sides of the traced one, so that warm-up and
    # drift do not count as tracing overhead.
    plain = [statistics.mean(p) for p in zip(first_plain, timed_pass())]

    peaks = dict.fromkeys(SUBCOMMANDS, 0.0)

    def memory_hook(cmd, when):
        if when == "before":
            tracemalloc.start()
        else:
            sub = cmd.argv[0]
            peaks[sub] = max(peaks[sub], tracemalloc.get_traced_memory()[1] / MIB)
            tracemalloc.stop()

    timed_pass(memory_hook)

    self_s = tracer.self_times()
    calls = tracer.calls()
    for name in tracing.TRACED.values():
        metrics[f"{name}.s"] = self_s.get(name, 0.0)
    for name in tracing.COUNTED:
        metrics[f"{name}.calls"] = calls.get(name, 0)
    metrics["kernels.entries"] = tracer.kernel_entries
    metrics["kernels.largest_block_mib"] = tracer.largest_block * 8 / MIB
    metrics["herding.herd.iterations"] = tracer.iterations
    for sub, peak in peaks.items():
        metrics[f"cli.{sub}.traced_peak_mib"] = peak
    metrics["trace.overhead_s"] = sum(traced_walls) - sum(plain)
    metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / sum(plain)
    metrics["trace.coverage_pct"] = 100.0 * sum(plain) / sum(child)

    for row, c, p, t in zip(rows, child, plain, traced_walls):
        row.update(child_s=c, inprocess_s=p, traced_s=t, overhead_s=t - p,
                   coverage_pct=100.0 * p / c)
    spans_path = WORK / workload / f"spans-{seed}.json"
    with open(spans_path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "commands": rows,
                   "spans": [[n, a - t_base, b - t_base, parent]
                             for n, a, b, parent in tracer.spans]}, fh)

    detail = {}
    for row in rows:
        top = sorted(row["self_s"].items(), key=lambda kv: -kv[1])[:3]
        detail[row["label"]] = (
            f"child {row['child_s']:.3f} s, in-process {row['inprocess_s']:.3f} s, "
            f"traced {row['traced_s']:.3f} s, coverage {row['coverage_pct']:.1f}%, "
            f"cross_gram x{row['calls'].get('kernels.cross_gram', 0)}, top "
            + ", ".join(f"{n} {s:.3f}" for n, s in top), "")
    detail["spans"] = (str(spans_path.relative_to(ROOT)), "")
    return metrics, detail


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the meanherd CLI.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "meanherd" / "cli.py").is_file():
        print(f"error: no meanherd sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    (WORK / args.workload).mkdir(parents=True, exist_ok=True)
    with open(WORK / args.workload / "commands.log", "w") as log:
        tally = Tally(log)
        if args.trace:
            metrics, detail = traced(args.workload, args.seed, tally)
        else:
            metrics, detail = end_to_end(args.workload, args.seed, args.seconds, tally)

    if set(metrics) != {m["name"] for m in declared}:
        print(f"error: measured metrics {sorted(metrics)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    for name, (value, unit) in detail.items():
        print(f"{name:<40} {value} {unit}".rstrip())
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
