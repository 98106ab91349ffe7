"""Long-lived library process for the cover-warm workload.

Protocol on stdin, one JSON document per line:

1. the warm-up job, a list of ``[c1B, convention, max_genus]``; the worker
   runs one untimed ``forward_transform`` per entry, then prints ``ready``;
2. the timed job ``{"pool", "seconds", "trace", "spans_prefix"}``, where
   ``pool`` lists ``[c1B, convention, {genus: "p/q"}]``.  End of input
   instead of this line ends the worker after set-up.

The timed job calls ``forward_transform`` and then ``invert_transform`` on
its result for every pool vector, in whole passes over the pool, until
``seconds`` have passed.  Each call is one operation; the round trip must
give back the input vector.  The result is one JSON line on stdout.  With
``trace`` set, untraced and traced passes alternate and each traced pass
writes its spans to ``<spans_prefix><pass>.bin``.
"""

import json
import resource
import sys
import time
from fractions import Fraction

import realgw
import realgw.cli  # noqa: F401  (part of the set-up every user pays)

from tracer import Tracer

mc = realgw.multicover


def _warm_up(job) -> None:
    for c1b, convention, max_genus in job:
        ones = {genus: Fraction(1) for genus in range(max_genus + 1)}
        mc.forward_transform(mc.InvariantVector(ones, c1b), mc.Convention(convention))


def _run_pass(pool, latencies, first_outputs):
    """One pass over the pool; returns (items, failed)."""
    clock = time.perf_counter_ns
    items = failed = 0
    for vector, convention in pool:
        t0 = clock()
        gw = mc.forward_transform(vector, convention)
        t1 = clock()
        back = mc.invert_transform(gw, convention)
        t2 = clock()
        if latencies is not None:
            latencies.append((t1 - t0) / 1e6)
            latencies.append((t2 - t1) / 1e6)
        if first_outputs is not None:
            first_outputs.append(gw.to_string_map())
        items += 2 * (vector.max_genus + 1)
        if back.entries != vector.entries or back.c1b != vector.c1b:
            failed += 1
    return items, failed


def main() -> int:
    _warm_up(json.loads(sys.stdin.readline()))
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0
    job = json.loads(line)
    pool = [
        (mc.InvariantVector.from_string_map(entries, c1b), mc.Convention(convention))
        for c1b, convention, entries in job["pool"]
    ]
    result = {"items": 0, "failed": 0, "calls": 0, "passes": 0, "pass_items_per_s": []}
    first_outputs: list = []
    latencies: list = []
    untraced_s = traced_s = 0.0
    tracer = Tracer() if job["trace"] else None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        items, failed = _run_pass(
            pool, None if tracer else latencies, first_outputs if not result["passes"] else None
        )
        untraced_s += time.perf_counter() - t0
        result["pass_items_per_s"].append(items / (time.perf_counter() - t0))
        result["items"] += items
        result["failed"] += failed
        result["calls"] += 2 * len(pool)
        if tracer is not None:
            tracer.install()
            t0 = time.perf_counter()
            for request, (vector, convention) in enumerate(pool):
                tracer.request = request
                mc.invert_transform(mc.forward_transform(vector, convention), convention)
            traced_s += time.perf_counter() - t0
            tracer.uninstall()
            tracer.dump(f"{job['spans_prefix']}{result['passes']}.bin")
            tracer.reset()
        if not result["passes"]:
            # Peak memory through the first pass: later passes only grow the
            # benchmark's own latency record.
            result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["passes"] += 1
        if time.perf_counter() - start >= job["seconds"]:
            break
    result.update(
        wall_s=untraced_s,
        traced_s=traced_s,
        latencies_ms=latencies,
        first_outputs=first_outputs,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
