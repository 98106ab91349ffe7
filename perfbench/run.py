"""Benchmark for realgw: four workloads through the CLI and the library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cover-cold, cover-warm, signs-sweep, graph-fuzz, or ``all``
(every workload in turn).  Load comes from this one process as a closed
loop with a single client: each operation starts after the previous one
has ended.  An operation is one ``realgw`` CLI process (cover-cold,
signs-sweep, graph-fuzz) or one library call in a long-lived library
process (cover-warm).  All inputs are generated from the seed before the
clock starts; children receive only argv and stdin.  Every output is
checked.  Runs measure whole cycles of a fixed composition (see
workloads.py) until S seconds have passed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

  setup_s      median wall time of a fresh interpreter importing realgw
               and realgw.cli (for cover-warm: starting the library process
               through its untimed warm-up pass), several times per run
  items_per_s  items completed per second, the median over the run's cycles
  op_p50_ms    median operation latency
  op_tail_ms   latency at the highest of p90/p99 with at least ten samples
               beyond it (below 100 operations: the 11th-largest latency);
               finer tails on a shared two-core host measure the neighbours
  peak_rss_mb  peak resident memory of the children (for cover-warm: of
               the library process, through its first pass)

fail_ratio (operations that exited non-zero or printed a wrong result, over
operations attempted) is printed with them and is the ``failed`` and
``attempted`` fields of the last line.

With ``--trace 1`` each cycle runs untraced and then again with every
request in a fresh interpreter under ``shim.py`` (cover-warm: a traced pass
in the library process), and the last line carries the per-layer metrics of
tracer.py.  The trace.overhead_ratio metric is traced over untraced wall
time of the same requests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import LayerTotals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-trace"
WORKLOADS = ("cover-cold", "cover-warm", "signs-sweep", "graph-fuzz")
SETUP_PROBES = 5
OP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "series.build_s": "s/op",
    "series.coeffs_built": "count/op",
    "series.useful_ratio": "ratio",
    "series.wire_s": "s/op",
    "multicover.coeff_calls": "count/op",
    "multicover.coeff_distinct": "count/proc",
    "multicover.coeff_us": "us",
    "multicover.transform_s": "s/op",
    "signs.calls": "count/op",
    "signs.self_s": "s/op",
    "signs.call_ns": "ns",
    "verify.tuples": "count/op",
    "verify.self_s": "s/op",
    **{f"verify.{identity}_s": "s" for identity in workloads.IDENTITIES},
    "graphs.generated": "count/op",
    "graphs.gen_s": "s/op",
    "graphs.check_s": "s/op",
    "graphs.json_s": "s/op",
    "graphs.graph_us": "us",
    "cli.processes": "count",
    "cli.startup_s": "s",
    "cli.main_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    """The children's environment: the checkout's sources, no REALGW_ORDER."""
    env = {k: v for k, v in os.environ.items() if k not in ("REALGW_ORDER", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


ENV = child_env()


def run_process(cmd: list[str], stdin: str | None) -> tuple[float, int | None, str]:
    """Run one child to completion: (wall seconds, exit code, stdout)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, input=stdin or "", capture_output=True, text=True,
            env=ENV, cwd=ROOT, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, ""
    return time.perf_counter() - start, proc.returncode, proc.stdout


def corrupt(text: str) -> str:
    """Change the last digit of an output, for the checker self-test."""
    for i in range(len(text) - 1, -1, -1):
        if text[i].isdigit():
            return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    return text + "x"


class Run:
    """Operation records of one run."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.self_test_failures: list[str] = []
        self._self_tested: set[str] = set()

    def record(self, request, wall_s, code, stdout, previous) -> None:
        ok = code == 0 and workloads.check_output(request, stdout, previous)
        self.attempted += 1
        self.latencies_ms.append(wall_s * 1e3)
        self.by_kind.setdefault(request.kind, []).append(wall_s * 1e3)
        if ok:
            self.items += request.items
            if request.kind not in self._self_tested:
                self._self_tested.add(request.kind)
                if workloads.check_output(request, corrupt(stdout), previous):
                    self.self_test_failures.append(request.kind)
        else:
            self.failed += 1


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) per the op_tail_ms definition above."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n >= 1000:
        pct = 99.0
    elif n >= 100:
        pct = 90.0
    else:
        pct = 100.0 * max(n - 10, 1) / n
    return ordered[max(math.ceil(pct * n / 100) - 1, 0)], pct


IMPORT_CMD = [sys.executable, "-c", "import realgw, realgw.cli"]


def setup_probe_cli() -> list[float]:
    run_process(IMPORT_CMD, None)  # untimed: fills the bytecode cache of a fresh checkout
    times = []
    for _ in range(SETUP_PROBES):
        wall, code, _ = run_process(IMPORT_CMD, None)
        if code != 0:
            raise RuntimeError("importing realgw.cli failed")
        times.append(wall)
    return times


class TraceLog:
    """What the traced requests of a run left behind."""

    def __init__(self) -> None:
        self.totals = LayerTotals()
        self.walls: list[float] = []
        self.stdout_bytes = 0


def run_cycle(cycle, run: Run, trace: TraceLog | None = None) -> float:
    """Run one cycle of CLI requests; returns the summed wall time."""
    previous = None
    total = 0.0
    for request in cycle:
        stdin = previous if request.feed else request.stdin
        if trace is None:
            cmd = [sys.executable, "-m", "realgw", *request.argv]
        else:
            request_id = len(trace.walls)
            spans = TRACE_DIR / f"{request_id}.bin"
            cmd = [sys.executable, str(BENCH_DIR / "shim.py"), str(spans), str(request_id),
                   *request.argv]
        wall, code, stdout = run_process(cmd, stdin)
        run.record(request, wall, code, stdout, previous)
        total += wall
        if trace is not None:
            trace.walls.append(wall)
            trace.stdout_bytes += len(stdout.encode())
            if spans.exists():
                trace.totals.fold_file(str(spans))
                spans.unlink()
        previous = stdout
    return total


def run_cli_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    # Twice the cycles a run is expected to need, so windows stay disjoint.
    cycles = workloads.cli_cycles(name, seed, count=2 * seconds + 4)
    digest_source = [[r.argv, r.stdin, r.feed] for cycle in cycles for r in cycle]
    setup = setup_probe_cli()
    run = Run()
    trace = TraceLog() if traced else None
    untraced_s = traced_s = 0.0
    throughputs: list[float] = []
    done = 0
    start = time.perf_counter()
    while True:
        cycle = cycles[done % len(cycles)]
        items, cycle_start = run.items, time.perf_counter()
        untraced_s += run_cycle(cycle, run)
        throughputs.append((run.items - items) / (time.perf_counter() - cycle_start))
        if trace is not None:
            traced_s += run_cycle(cycle, run, trace)
        done += 1
        if time.perf_counter() - start >= seconds:
            break
    result = {
        "run": run, "cycles": done, "digest_source": digest_source,
        "setup": setup, "throughputs": throughputs,
        "rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if trace is not None:
        result["layers"] = trace.totals.metrics(
            len(trace.walls), trace.walls, trace.stdout_bytes, traced_s / untraced_s)
    return result


def start_worker(warm_line: str):
    """Start the library process through its warm-up; (process, set-up seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "libworker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=ENV, cwd=ROOT,
    )
    proc.stdin.write(warm_line)
    proc.stdin.flush()
    ready = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if ready.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("library process failed during warm-up")
    return proc, elapsed


def run_cover_warm(seed: int, seconds: int, traced: bool) -> dict:
    warm, pool = workloads.cover_warm_pool(seed)
    warm_line = json.dumps(warm) + "\n"
    run_process(IMPORT_CMD, None)  # untimed: fills the bytecode cache
    setup = []
    for _ in range(SETUP_PROBES - 1):
        proc, elapsed = start_worker(warm_line)
        proc.stdin.close()
        proc.wait(timeout=OP_TIMEOUT_S)
        setup.append(elapsed)
    proc, elapsed = start_worker(warm_line)
    setup.append(elapsed)
    job = {"pool": pool, "seconds": seconds, "trace": traced,
           "spans_prefix": str(TRACE_DIR / "pass")}
    try:
        out, _ = proc.communicate(json.dumps(job) + "\n", timeout=seconds + OP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"library process exited with {proc.returncode}")
    doc = json.loads(out.strip().splitlines()[-1])

    run = Run()
    run.latencies_ms = doc["latencies_ms"]
    run.attempted = doc["calls"]
    run.failed = doc["failed"]
    run.items = doc["items"]
    oracle = workloads.CoverOracle(order=8)

    def forward_ok(item, actual) -> bool:
        c1b, convention, entries = item
        counts = {int(h): Fraction(v) for h, v in entries.items()}
        expected = oracle.forward(counts, c1b, convention)
        return actual == {str(g): workloads.fmt(v) for g, v in expected.items()}

    outputs = doc["first_outputs"]
    run.failed += sum(not forward_ok(item, out) for item, out in zip(pool, outputs))
    run.failed += len(pool) - len(outputs)
    if outputs:
        top = str(len(outputs[0]) - 1)
        if forward_ok(pool[0], {**outputs[0], top: corrupt(outputs[0][top])}):
            run.self_test_failures.append("forward_transform")

    result = {
        "run": run, "cycles": doc["passes"], "digest_source": [warm, pool],
        "setup": setup, "throughputs": doc["pass_items_per_s"], "rss_kb": doc["rss_kb"],
    }
    if traced:
        totals = LayerTotals()
        for index in range(doc["passes"]):
            path = TRACE_DIR / f"pass{index}.bin"
            totals.fold_file(str(path))
            path.unlink()
        ops = 2 * len(pool) * doc["passes"]
        result["layers"] = totals.metrics(ops, [], 0, doc["traced_s"] / doc["wall_s"])
    return result


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "realgw").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_one(name: str, seed: int, seconds: int, traced: bool) -> int:
    TRACE_DIR.mkdir(exist_ok=True)
    try:
        if name == "cover-warm":
            result = run_cover_warm(seed, seconds, traced)
        else:
            result = run_cli_workload(name, seed, seconds, traced)
    finally:
        shutil.rmtree(TRACE_DIR, ignore_errors=True)
    run: Run = result["run"]
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "input_digest": hashlib.sha256(
            json.dumps(result["digest_source"]).encode()).hexdigest()[:16],
        "git_commit": git_commit(), "source_digest": source_digest(),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "cycles": result["cycles"], "operations": run.attempted,
        "cycle_items_per_s": [float(f"{x:.4g}") for x in result.get("throughputs", ())],
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"fail_ratio      {run.failed / max(run.attempted, 1):.6g}  "
          f"({run.failed} of {run.attempted} operations)")
    for kind, latencies in run.by_kind.items():
        print(f"kind {kind:<14} {len(latencies):>6} operations  "
              f"p50 {statistics.median(latencies):.4g} ms  max {max(latencies):.4g} ms")
    if run.self_test_failures:
        print("checker self-test FAILED: corrupted output accepted for "
              + ", ".join(run.self_test_failures))
    if traced:
        metrics = {name: result["layers"].get(name, 0.0) for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        tail_ms, tail_pct = tail(run.latencies_ms)
        metrics = {
            "setup_s": statistics.median(result["setup"]),
            "items_per_s": statistics.median(result["throughputs"]),
            "op_p50_ms": statistics.median(run.latencies_ms),
            "op_tail_ms": tail_ms,
            "peak_rss_mb": result["rss_kb"] / 1024,
        }
        units = END_TO_END_UNITS
    for metric, value in metrics.items():
        note = ""
        if metric == "op_tail_ms":
            note = f"  (p{tail_pct:.4g} of {len(run.latencies_ms)} operations)"
        print(f"{metric:<40} {value:.6g} {units[metric]}{note}")
    correct = run.failed == 0 and not run.self_test_failures
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: int, traced: bool) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "realgw" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no realgw sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("REALGW_ORDER", None)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
