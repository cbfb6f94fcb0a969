"""SERVE — serving-layer benchmark (cold vs cached, shared + parallel execution).

Exercises the Workspace/DTO serving path end to end and reports:

1. preprocessing time (engine build on first use of a lazily-loaded dataset),
   serial vs parallel per-column sketch building;
2. cold request latency (cache miss: full plan → enumerate → score → rank)
   and cached request latency (LRU hit on the identical canonical request);
3. multi-class execution with shared candidate enumeration vs the legacy
   per-class loop that re-enumerates for every insight class;
4. **parallel speedup** — the scoring-bound workload (exact-mode
   univariate metrics over a wide table) under ``max_workers=1`` vs
   ``max_workers=4`` sharded scoring, plus request throughput (ops/sec)
   for a sequential handle loop vs ``Workspace.handle_many``.

Alongside the human-readable tables it emits ``BENCH_service.json`` (in
the working directory, overridable via ``BENCH_SERVICE_JSON``) so CI can
archive the perf trajectory across PRs.

Designed as a CI smoke benchmark: it runs in seconds on a laptop-scale
workload and exits non-zero if the serving layer misbehaves (cache miss on
a repeat request, shared enumeration or scoring not engaging, parallel
results diverging from serial).  Speedups below target print a warning
rather than failing, since CI machines may be single-core.

Run with::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import ExecutorConfig, InsightRequest, Workspace  # noqa: E402
from repro.core.query import InsightQuery  # noqa: E402
from repro.data.datasets import make_numeric_table  # noqa: E402
from repro.core.pipeline import PipelineStats  # noqa: E402
from repro.viz.ascii import render_table  # noqa: E402

N_ROWS = 20_000
N_COLUMNS = 40
MULTI_CLASS = ("dispersion", "skew", "heavy_tails", "outliers",
               "normality", "multimodality")
REPEATS = 5
PARALLEL_WORKERS = 4
#: Minimum acceptable sharded-scoring speedup on a multi-core machine.
TARGET_SPEEDUP = 1.3
#: Distinct requests in the throughput batch (mix of classes and top_k).
BATCH_SIZE = 12


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _best_of(fn, repeats: int = REPEATS) -> float:
    return min(_timed(fn)[1] for _ in range(repeats))


def _make_table():
    return make_numeric_table(n_rows=N_ROWS, n_columns=N_COLUMNS,
                              block_correlation=0.6, seed=7)


def _batch_requests() -> list[InsightRequest]:
    """Distinct (uncacheable against each other) requests for throughput."""
    requests = []
    for i in range(BATCH_SIZE):
        classes = MULTI_CLASS[: 2 + (i % (len(MULTI_CLASS) - 1))]
        requests.append(
            InsightRequest(dataset="bench", insight_classes=classes,
                           top_k=3 + (i % 4), mode="exact")
        )
    return requests


def main() -> int:
    ok = True
    table = _make_table()

    serial_ws = Workspace(executor=ExecutorConfig(max_workers=1))
    serial_ws.register("bench", lambda: table)
    parallel_ws = Workspace(executor=ExecutorConfig(max_workers=PARALLEL_WORKERS))
    parallel_ws.register("bench", lambda: table)

    _, preprocess_serial = _timed(serial_ws.engine, "bench")
    _, preprocess_parallel = _timed(parallel_ws.engine, "bench")
    engine = serial_ws.engine("bench")
    parallel_engine = parallel_ws.engine("bench")

    # -- cold vs cached ------------------------------------------------------
    request = InsightRequest(dataset="bench", insight_classes=MULTI_CLASS, top_k=5)
    cold, cold_seconds = _timed(serial_ws.handle, request)
    warm, warm_seconds = _timed(serial_ws.handle, request)
    warm_best = _best_of(lambda: serial_ws.handle(request))
    if cold.provenance["cache"] != "miss" or warm.provenance["cache"] != "hit":
        print("FAIL: repeat request was not served from cache", file=sys.stderr)
        ok = False

    # -- shared enumeration vs per-class re-enumeration ----------------------
    queries = [InsightQuery(name, top_k=5) for name in MULTI_CLASS]
    shared_stats = PipelineStats()
    engine.rank_many(queries, stats=shared_stats)
    shared_seconds = _best_of(lambda: engine.rank_many(queries))
    legacy_seconds = _best_of(lambda: [engine.query(q) for q in queries])
    if shared_stats.enumerations != 1:
        print(
            f"FAIL: expected 1 shared enumeration for {len(MULTI_CLASS)} "
            f"same-arity classes, got {shared_stats.enumerations}",
            file=sys.stderr,
        )
        ok = False

    # -- sharded scoring: serial vs parallel on the scoring-bound workload ---
    scoring_queries = [InsightQuery(name, top_k=5, mode="exact")
                       for name in MULTI_CLASS]
    serial_results = engine.rank_many(scoring_queries)
    parallel_stats = PipelineStats()
    parallel_results = parallel_engine.rank_many(scoring_queries,
                                                 stats=parallel_stats)
    if [r.attribute_sets() for r in serial_results] != \
            [r.attribute_sets() for r in parallel_results]:
        print("FAIL: parallel scoring changed the rankings", file=sys.stderr)
        ok = False
    if parallel_stats.score_shards == 0:
        print("FAIL: sharded scoring did not engage under max_workers="
              f"{PARALLEL_WORKERS}", file=sys.stderr)
        ok = False
    scoring_serial = _best_of(lambda: engine.rank_many(scoring_queries), 3)
    scoring_parallel = _best_of(lambda: parallel_engine.rank_many(scoring_queries), 3)
    scoring_speedup = scoring_serial / max(scoring_parallel, 1e-9)

    # -- request throughput: sequential handle loop vs handle_many -----------
    batch = _batch_requests()

    def _serial_batch():
        serial_ws.invalidate("bench")
        for item in batch:
            serial_ws.handle(item)

    def _parallel_batch():
        parallel_ws.invalidate("bench")
        parallel_ws.handle_many(batch, max_workers=PARALLEL_WORKERS)

    serial_batch_seconds = _best_of(_serial_batch, 3)
    parallel_batch_seconds = _best_of(_parallel_batch, 3)
    ops_serial = len(batch) / serial_batch_seconds
    ops_parallel = len(batch) / parallel_batch_seconds
    throughput_speedup = ops_parallel / max(ops_serial, 1e-9)

    # -- cache hit rate over a warm batch ------------------------------------
    # Delta the counters around the warm run: lifetime totals would mix in
    # the deliberately-cold timing phases above.
    before = parallel_ws.cache_info()
    parallel_ws.handle_many(batch)  # all hits now: nothing invalidated since
    info = parallel_ws.cache_info()
    warm_hits = info["hits"] - before["hits"]
    warm_misses = info["misses"] - before["misses"]
    hit_rate = warm_hits / max(warm_hits + warm_misses, 1)
    if hit_rate < 1.0:
        print(f"FAIL: warm batch expected 100% cache hits, got {hit_rate:.2f}",
              file=sys.stderr)
        ok = False

    # -- report ---------------------------------------------------------------
    rows = [
        {"metric": "preprocess serial (1 worker)", "seconds": f"{preprocess_serial:.4f}"},
        {"metric": f"preprocess parallel ({PARALLEL_WORKERS} workers)",
         "seconds": f"{preprocess_parallel:.4f}"},
        {"metric": "cold request (cache miss)", "seconds": f"{cold_seconds:.4f}"},
        {"metric": "cached request (first hit)", "seconds": f"{warm_seconds:.4f}"},
        {"metric": "cached request (best of 5)", "seconds": f"{warm_best:.6f}"},
        {"metric": "multi-class, shared enumeration", "seconds": f"{shared_seconds:.4f}"},
        {"metric": "multi-class, per-class loop", "seconds": f"{legacy_seconds:.4f}"},
        {"metric": "scoring-bound workload, serial", "seconds": f"{scoring_serial:.4f}"},
        {"metric": f"scoring-bound workload, {PARALLEL_WORKERS} workers",
         "seconds": f"{scoring_parallel:.4f}"},
        {"metric": f"batch of {len(batch)} cold requests, sequential",
         "seconds": f"{serial_batch_seconds:.4f}"},
        {"metric": f"batch of {len(batch)} cold requests, handle_many",
         "seconds": f"{parallel_batch_seconds:.4f}"},
    ]
    print()
    print(f"== SERVE: {N_ROWS} rows x {N_COLUMNS} cols, "
          f"{len(MULTI_CLASS)} insight classes ==")
    print(render_table(rows))
    print(f"cache speedup: {cold_seconds / max(warm_best, 1e-9):.0f}x   "
          f"shared-enumeration speedup: {legacy_seconds / max(shared_seconds, 1e-9):.2f}x   "
          f"enumerations: {shared_stats.enumerations} "
          f"(shared queries: {shared_stats.shared_queries})")
    print()
    print("== parallel speedup ==")
    print(f"sharded scoring ({PARALLEL_WORKERS} workers, "
          f"{parallel_stats.score_shards} shards): {scoring_speedup:.2f}x   "
          f"handle_many throughput: {ops_serial:.1f} -> {ops_parallel:.1f} ops/sec "
          f"({throughput_speedup:.2f}x)   cache hit rate: {hit_rate:.2f}")
    if scoring_speedup < TARGET_SPEEDUP:
        print(f"WARN: sharded-scoring speedup {scoring_speedup:.2f}x is below the "
              f"{TARGET_SPEEDUP}x target (single-core CI machine?)", file=sys.stderr)

    payload = {
        "benchmark": "service_throughput",
        "workload": {
            "n_rows": N_ROWS,
            "n_columns": N_COLUMNS,
            "insight_classes": list(MULTI_CLASS),
            "batch_size": len(batch),
            "parallel_workers": PARALLEL_WORKERS,
        },
        "preprocess_seconds": {
            "serial": preprocess_serial,
            "parallel": preprocess_parallel,
        },
        "latency_seconds": {
            "cold": cold_seconds,
            "cached_first": warm_seconds,
            "cached_best": warm_best,
            "multi_class_shared": shared_seconds,
            "multi_class_legacy": legacy_seconds,
            "scoring_serial": scoring_serial,
            "scoring_parallel": scoring_parallel,
        },
        "throughput": {
            "ops_sec_serial": ops_serial,
            "ops_sec_parallel": ops_parallel,
            "speedup": throughput_speedup,
        },
        "parallel_scoring": {
            "speedup": scoring_speedup,
            "score_shards": parallel_stats.score_shards,
            "target_speedup": TARGET_SPEEDUP,
            "meets_target": scoring_speedup >= TARGET_SPEEDUP,
        },
        "cache": {
            "hit_rate": hit_rate,
            **info,
        },
        "ok": ok,
    }
    out_path = Path(os.environ.get("BENCH_SERVICE_JSON", "BENCH_service.json"))
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
