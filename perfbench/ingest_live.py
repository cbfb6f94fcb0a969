"""``ingest_live``: durable appends while a reader and a replica keep up.

The server holds a durable workspace (``data_dir``; fsync, background
rebuild and the rest of ``IngestConfig`` at their defaults) over a base
table of 20k x (12 numeric + 2 categorical) rows.  One closed-loop writer
POSTs 200-row batches; the rows come from a differently seeded generator
with stronger correlations between other column pairs, because live data
drifts.  The batch count (8 per second of run, at least 60) crosses the
first background rebuild and leaves rows delta-merged on top of it, which
is where a stale correlation sketch shows in ``recall_at_10``.  One reader
issues approximate queries meanwhile.  After each ack an in-process
``ReplicaWorkspace(LocalFeedSource)`` syncs and serves that ``seq``.  At
the end the server is killed and restarted on the same ``data_dir``.

Every read follows a write, so the time sits in cache invalidation, the
delta merge, the journal commit, replication and replay.  The reader's
latency is ``query_p50_ms``/``query_tail_ms``, and ``throughput_rps`` is
appends per second of ack time.  The ack percentiles, the replica's
visibility lag and the restart's recovery time are printed as well, but
are not in the result line, which holds the metrics every workload has.
"""

from __future__ import annotations

import os
import random
import threading
import time

import layers
from common import (OUT, Http, Result, ServerProcess, canonical_payload,
                    drifted_batches, first_answer, metrics_doc, percentile,
                    recall_at_k, recall_requests, response_problems,
                    start_server)

DATASET = "live"
ROWS, NUMERIC, CATEGORICAL = 20_000, 12, 2
BATCHES_PER_SECOND = 8
MIN_BATCHES = 60
SETUP_LAUNCHES = 3
RECALL_CLASSES = ("linear_relationship", "outliers", "skew", "dependence")
#: Attributes whose ``linear_relationship`` partners also count.
RECALL_FIXED = ("attr_001", "attr_004", "attr_007", "attr_010")
RECALL = recall_requests(DATASET, RECALL_CLASSES, RECALL_FIXED)
#: The replica-visibility probe (cheap, so the probe measures the feed).
PROBE = {"protocol": 1, "dataset": DATASET,
         "insight_classes": ["skew", "outliers"], "top_k": 3}
WORKDIR = os.path.join(OUT, "ingest_live")
#: HTTP hits on ``PROBE`` the traced run times, and the hit pairs for
#: ``obs.hit_overhead_pct``.
PROBE_HITS = 50
OBS_PAIRS = 400


def batch_count(seconds: float) -> int:
    return max(MIN_BATCHES, int(BATCHES_PER_SECOND * seconds))


def reader_requests(seed: int) -> list[dict]:
    rng = random.Random(seed + 1)
    numeric = [f"attr_{j:03d}" for j in range(NUMERIC)]
    return [
        {"protocol": 1, "dataset": DATASET,
         "insight_classes": ["linear_relationship"], "top_k": 10},
        {"protocol": 1, "dataset": DATASET,
         "insight_classes": ["linear_relationship", "monotonic_relationship"],
         "fixed": [rng.choice(numeric)], "top_k": 5},
        {"protocol": 1, "dataset": DATASET,
         "insight_classes": ["dependence"], "fixed": ["cat_00"], "top_k": 5},
        {"protocol": 1, "dataset": DATASET,
         "insight_classes": ["skew", "heavy_tails", "outliers"],
         "top_k": rng.choice([3, 5])},
    ]


def reader(port: int, requests, stop: threading.Event, result: Result,
           latencies: list) -> None:
    """Closed loop over ``requests`` until the writer is done.  Snapshots
    a reader sees must never go backwards."""
    client = Http(port)
    last = (1, 0)
    try:
        for turn in range(10**9):
            if stop.is_set():
                return
            request = requests[turn % len(requests)]
            status, payload, elapsed = client.call("POST", "/v1/insights",
                                                   request)
            problems = response_problems(status, payload, request)
            if not problems:
                state = (payload["dataset_version"], payload["dataset_seq"])
                if state[0] != 1 or state < last:
                    problems.append(f"snapshot {state} after {last}")
                last = max(last, state)
            ok = result.check(not problems, f"reader: {problems}")
            latencies.append(1000.0 * elapsed if ok else None)
    finally:
        client.close()


def dataset_status(client: Http) -> dict:
    _, payload, _ = client.call("GET", "/v1/datasets")
    return next(d for d in payload["datasets"] if d["name"] == DATASET)


def write_phase(port, data_dir, batches, requests, result) -> dict:
    """The writer, the reader thread and the replica; returns samples."""
    from repro.service.replica import LocalFeedSource, ReplicaWorkspace

    replica = ReplicaWorkspace(LocalFeedSource(data_dir))
    replica.sync()
    client = Http(port)
    stop = threading.Event()
    reads: list[float] = []
    thread = threading.Thread(target=reader, name="ingest-reader",
                              args=(port, requests, stop, result, reads))
    acks, visible, seqs = [], [], []
    thread.start()
    try:
        for rows in batches:
            start = time.perf_counter()
            status, ack, _ = client.call(
                "POST", f"/v1/datasets/{DATASET}/rows", {"rows": rows})
            acked = time.perf_counter()
            if not result.check(status == 200 and ack.get("version") == 1,
                                f"append answered {status}: {ack}"):
                acks.append(None)
                continue
            acks.append(1000.0 * (acked - start))
            seqs.append(ack["seq"])
            replica.sync()
            response = replica.handle(PROBE).to_dict()
            visible.append(1000.0 * (time.perf_counter() - acked))
            result.check(response["dataset_seq"] >= ack["seq"],
                         f"replica at seq {response['dataset_seq']} after "
                         f"ack {ack['seq']}")
            status, primary, _ = client.call("POST", "/v1/insights", PROBE)
            if (status == 200 and primary["dataset_seq"]
                    == response["dataset_seq"]):
                result.check(canonical_payload(primary)
                             == canonical_payload(response),
                             f"replica payload differs at seq "
                             f"{response['dataset_seq']}")
    finally:
        stop.set()
        thread.join()
    return {"replica": replica, "client": client, "acks": acks,
            "visible": visible, "seqs": seqs, "reads": reads}


def settle(client: Http, timeout: float = 120.0) -> dict:
    """Wait for the background rebuild to finish; the dataset's status."""
    deadline = time.monotonic() + timeout
    while True:
        status = dataset_status(client)
        if not status["rebuild_running"] or time.monotonic() > deadline:
            return status
        time.sleep(0.05)


def check_seqs(seqs, status, result: Result) -> None:
    """Acked seqs rise by one per append, plus one per background swap."""
    counters = status["ingest"]
    swaps = sum(b - a - 1 for a, b in zip([0] + seqs, seqs))
    swaps += status["seq"] - seqs[-1]
    result.check(all(b > a for a, b in zip([0] + seqs, seqs)),
                 f"append seqs not monotone: {seqs[:20]}")
    result.check(swaps == counters["bg_rebuilds"],
                 f"seq gaps ({swaps}) != background swaps "
                 f"({counters['bg_rebuilds']})")
    result.check(counters["bg_rebuilds"] >= 1,
                 "the appends crossed no background rebuild")


def run(seed: int, seconds: float, trace: bool, result: Result) -> None:
    batches = drifted_batches(seed, NUMERIC, CATEGORICAL, batch_count(seconds))
    requests = reader_requests(seed)
    launches = iter(range(SETUP_LAUNCHES + 1))
    data_dir = None

    def launch():
        nonlocal data_dir
        data_dir = os.path.join(WORKDIR, f"data-{next(launches)}")
        return ServerProcess(DATASET, ROWS, NUMERIC, CATEGORICAL, seed,
                             data_dir=data_dir)

    server = start_server(result, 1 if trace else SETUP_LAUNCHES, launch)
    phase = None
    try:
        if trace:
            client = Http(server.port)
            before = metrics_doc(client)
            client.close()
        phase = write_phase(server.port, data_dir, batches, requests, result)
        client = phase["client"]
        if trace:
            layers.report_server(before, metrics_doc(client), result)
        status = settle(client)
        final = (status["version"], status["seq"])
        check_seqs(phase["seqs"], status, result)
        rows_since_build = status["ingest"]["rows_since_rebuild"]
        result.report["final_snapshot"] = {
            "state": final, "batches": len(batches),
            "rows_since_full_build": rows_since_build,
            "base_rows": status["ingest"]["base_rows"]}
        acks = [ms for ms in phase["acks"] if ms is not None]
        reads = [ms for ms in phase["reads"] if ms is not None]
        if not trace:
            result.latency("append_ack", acks, sent=len(phase["acks"]),
                           ok=len(acks), failed=len(phase["acks"]) - len(acks))
            result.metric("throughput_rps", 1000.0 * len(acks) / sum(acks),
                          "1/s", per="second of append ack time",
                          n=len(acks))
            result.metric("replica_visible_p50_ms",
                          percentile(phase["visible"], 50), "ms",
                          n=len(phase["visible"]))
            result.latency("query", reads, sent=len(phase["reads"]),
                           ok=len(reads), failed=len(phase["reads"]) - len(reads))
            result.metric("recall_at_10",
                          recall_at_k(client, result, RECALL, final),
                          "ratio", classes=list(RECALL_CLASSES),
                          fixed_linear=list(RECALL_FIXED),
                          rows_since_full_build=rows_since_build)
        replica_matches(phase["replica"], client, final, result)
        probe_ms = []
        for _ in range(PROBE_HITS if trace else 1):
            status_code, before_kill, elapsed = client.call(
                "POST", "/v1/insights", PROBE)
            result.check(status_code == 200, "probe before the kill failed")
            probe_ms.append(1000.0 * elapsed)
        client.close()
        if not trace:
            result.metric("server_rss_mb", server.peak_rss_mb(), "MB")
    finally:
        server.stop()
        if phase is not None:
            phase["replica"].close()

    restarted = ServerProcess(DATASET, data_dir=data_dir, restart=True)
    try:
        restarted.start()
        recovery_s, payload = first_answer(restarted, "/v1/insights", PROBE)
    finally:
        restarted.stop()
    problems = response_problems(200, payload, PROBE, final)
    result.check(not problems, f"restart: {problems}")
    result.check(canonical_payload(payload) == canonical_payload(before_kill),
                 "restart changed the answer at the same (version, seq)")
    if not trace:
        result.metric("recovery_s", recovery_s, "s")
        return
    traced_layers(seed, batches, requests, percentile(probe_ms, 50), result)


def replica_matches(replica, client, final, result: Result) -> None:
    """At the final snapshot the replica answers byte for byte like the
    primary, for every approximate list ``recall_at_10`` judges."""
    replica.sync()
    for base in RECALL:
        request = {**base, "top_k": 10}
        mine = replica.handle(request).to_dict()
        status, theirs, _ = client.call("POST", "/v1/insights", request)
        result.check(status == 200 and (mine["dataset_version"],
                                        mine["dataset_seq"]) == final
                     and canonical_payload(mine) == canonical_payload(theirs),
                     f"replica differs from the primary for {request} at "
                     f"{final}")


def traced_layers(seed, batches, requests, http_hit_ms, result) -> None:
    """Per-layer numbers from the same batches and reads in process.

    ``layers.write_path`` appends the batches to a durable workspace over
    the same base table, with a replica synced after each append and the
    reader's requests (and the all-class carousel) answered in between,
    next to an untraced twin for the tracing overhead; its journal is then
    reopened and replayed.  ``server.overhead_ms`` is the HTTP latency of
    a hit on ``PROBE`` less an in-process hit.
    """
    from repro.core.registry import default_registry
    from repro.data.datasets import make_mixed_table

    table = make_mixed_table(n_rows=ROWS, n_numeric=NUMERIC,
                             n_categorical=CATEGORICAL, seed=seed)
    carousel = {"protocol": 1, "dataset": DATASET,
                "insight_classes": default_registry().names(), "top_k": 5}
    recorder = layers.write_path(DATASET, table, batches, WORKDIR, result,
                                 reads=requests + [carousel], twin=True)
    layers.obs_hit_overhead(DATASET, table, PROBE, OBS_PAIRS, result)
    hit_ms = result.metrics["service.handle_hit_ms"]["value"]
    result.metric("server.overhead_ms", http_hit_ms - hit_ms, "ms",
                  http_hit_p50_ms=http_hit_ms)
    own = recorder.self_times()
    result.report["blocking_path"] = {
        "end_to_end": "append ack (throughput_rps)",
        "in_process_append_mean_ms": result.report.pop(
            "in_process_append_mean_ms"),
        "append_self_ms": result.report.pop("append_self_ms"),
        "replica_self_ms": {
            name: 1000.0 * percentile(
                [own[span.span_id] for span in recorder.named(name)], 50)
            for name in ("replication.sync", "replication.poll")}}
    result.recorders = [("write", recorder)]
