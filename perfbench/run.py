"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {explore,browse,ingest_live} \\
        --seed N --seconds S --trace {0,1}

Each workload generates its tables and requests from ``--seed``, starts
the server from ``src/`` in a process of its own (``perfbench/serve.py``)
and drives it over HTTP from this process with at most two threads.
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` repeats the workload with the benchmark's calls into each
layer wrapped in in-memory spans and reports the per-layer metrics, the
self time per layer along the blocking path, and the tracing overhead.
Spans are written to ``.perfbench_out/spans-<workload>.json``.

Every workload reports every metric of ``BENCHMARK.json``; a metric it
could not measure is a failed check.  End to end: ``setup_s``,
``query_p50_ms`` and ``query_tail_ms`` (the workload's insight requests),
``throughput_rps`` (explore: queries per second of query time, one user
waiting for each; browse: the open-loop rate at which the tail reaches
the latency limit; ingest_live: durable appends per second of ack time),
``recall_at_10`` and ``server_rss_mb``.  ``ingest_live`` also prints
``append_ack_p50_ms``, ``append_ack_tail_ms``, ``replica_visible_p50_ms``
and ``recovery_s`` above the result line; they are not in the result,
which holds the metrics every workload has.  Per layer, each traced run
covers the read path (``sketch``, ``core``, ``service``, ``server``,
``obs``) on its own table and requests, and the durable write path
(``ingest``, ``data``, ``replication``): ``ingest_live`` with its own
batches, ``explore`` and ``browse`` with a short tail of drifted batches
appended to a durable copy of their table in process.

Every answer is checked; the lines above the last describe the run (its
environment, every metric with its unit and sample count, the problems
found), and the last line is the JSON result.  The exit code is 0 only
when every check passed; without ``src/repro`` it is 2 and nothing is
printed on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explore", "browse", "ingest_live")


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro in this checkout; nothing to "
              "measure", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import common

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    module = __import__(args.workload)
    result = common.Result(args.workload)
    result.report["environment"] = common.environment(args.seed)
    os.makedirs(common.OUT, exist_ok=True)
    # The servers' stderr, kept for the last run only.
    open(os.path.join(common.OUT, "server.log"), "wb").close()
    try:
        module.run(args.seed, args.seconds, bool(args.trace), result)
    finally:
        scratch = os.path.join(common.OUT, args.workload)
        shutil.rmtree(scratch, ignore_errors=True)
    if result.recorders:
        path = os.path.join(common.OUT, f"spans-{args.workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({phase: [span.as_dict() for span in recorder.spans]
                       for phase, recorder in result.recorders}, handle)
        result.report["spans"] = os.path.relpath(path, ROOT)
    for name in names:
        if name not in result.metrics:
            result.fail(f"{name}: not measured")

    print(f"# workload {args.workload} (trace={args.trace})")
    for key, value in result.report.items():
        print(f"# {key}: {json.dumps(value, default=str)}")
    for name, metric in result.metrics.items():
        note = result.notes.get(name)
        print(f"{name} = {metric['value']:.6g} {metric['unit']}"
              + (f"  {json.dumps(note)}" if note else "")
              + ("" if name in names else "  (not in the result)"))
    print(f"# checks: attempted={result.attempted} failed={result.failed}")
    for problem in result.problems:
        print(f"# FAILED: {problem}")
    print(result.final_line(names))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
