"""``browse``: many independent users re-opening popular carousels.

A 20k x (24 numeric + 4 categorical) table behind the server.  Requests
are drawn from a Zipf distribution over 40 distinct requests and sent
open-loop on a seeded Poisson schedule, one rung of a short ladder of
fixed rates after another, by two sender threads with a connection each.
Latency counts from when a request was due, so a stall also delays the
requests queued behind it; how late the generator sent is reported.  The
40 requests are answered once before the ladder, so the ladder is served
from the result cache: ``server`` transport, admission, the coalescer and
``obs`` bookkeeping dominate, and ``core`` barely runs.  The first rung's
latency is ``query_p50_ms``/``query_tail_ms``; ``throughput_rps`` is the
rate at which the tail would reach the latency limit.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
from statistics import median

import layers
from common import (OUT, Http, Result, ServerProcess, canonical_payload,
                    drifted_batches, metrics_doc, percentile, recall_at_k,
                    recall_requests, response_problems, start_server, tail)
from spans import SpanRecorder

DATASET = "browse"
ROWS, NUMERIC, CATEGORICAL = 20_000, 24, 4
SETUP_LAUNCHES = 3
DISTINCT = 40
ZIPF_EXPONENT = 1.1
#: Offered rates (requests/s) and their shares of the run, lowest first.
#: The first rung is the reference whose latency is reported, and gets the
#: largest share for a steady tail.
RATES = ((80, 0.5), (160, 0.25), (320, 0.25))
REFERENCE_RATE = RATES[0][0]
#: A rung meets the objective when its tail latency is within this limit
#: and its backlog is not growing: the sends of its last quarter are not
#: half the limit late.  ``slo_rps`` interpolates between rungs.
LIMIT_MS = 50.0
RECALL_CLASSES = ("linear_relationship", "outliers", "skew", "dependence")
#: Attributes whose ``linear_relationship`` partners also count.
RECALL_FIXED = ("attr_001", "attr_008", "attr_013", "attr_021")
RECALL = recall_requests(DATASET, RECALL_CLASSES, RECALL_FIXED)
#: Drifted batches the traced run appends to a durable copy of the table.
WRITE_TAIL = 8


def distinct_requests(seed: int, all_classes) -> list[dict]:
    """40 distinct popular carousels from a few seeded templates."""
    rng = random.Random(seed)
    numeric = [f"attr_{j:03d}" for j in range(NUMERIC)]
    categorical = [f"cat_{j:02d}" for j in range(CATEGORICAL)]
    templates = [
        lambda: {"insight_classes": ["linear_relationship",
                                     "monotonic_relationship"],
                 "fixed": [rng.choice(numeric)], "top_k": 5},
        lambda: {"insight_classes": ["skew", "heavy_tails", "outliers"],
                 "top_k": rng.choice([3, 5, 8, 10])},
        lambda: {"insight_classes": ["dependence"],
                 "fixed": [rng.choice(categorical)],
                 "top_k": rng.choice([5, 10])},
        lambda: {"insight_classes": ["linear_relationship"],
                 "metric_min": round(rng.uniform(0.1, 0.5), 2),
                 "top_k": rng.choice([5, 10])},
        lambda: {"insight_classes": ["heterogeneous_frequencies",
                                     "dispersion"],
                 "top_k": rng.choice([3, 5, 8])},
    ]
    requests = [{"protocol": 1, "dataset": DATASET,
                 "insight_classes": list(all_classes), "top_k": 5}]
    keys = {repr(sorted(requests[0].items()))}
    index = 0
    while len(requests) < DISTINCT:
        request = {"protocol": 1, "dataset": DATASET,
                   **templates[index % len(templates)]()}
        index += 1
        key = repr(sorted(request.items()))
        if key not in keys:
            keys.add(key)
            requests.append(request)
    return requests


def schedule(seed: int, rate: float, seconds: float) -> list[tuple[float, int]]:
    """Poisson arrivals at ``rate`` for ``seconds``: (due offset, request).

    The count is fixed at ``rate * seconds`` and the times are uniform,
    which is a Poisson process conditioned on its count: every seed
    offers the same load.  Request ``i`` has Zipf popularity rank ``i``.
    """
    rng = random.Random(seed * 1_000_003 + int(rate))
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(DISTINCT)]
    count = int(rate * seconds)
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    picks = rng.choices(range(DISTINCT), weights, k=count)
    return list(zip(offsets, picks))


def open_loop(port: int, arrivals, requests) -> list[tuple]:
    """Send every arrival at its due time from two threads (this one and a
    helper), one connection each.

    Returns ``(due, sent, done, index, status, body bytes)`` per request;
    bodies are decoded and checked afterwards, off the timed path.
    """
    records: list[tuple] = []
    lock = threading.Lock()
    cursor = iter(range(len(arrivals)))
    start = time.perf_counter() + 0.05

    def sender() -> None:
        client = Http(port)
        try:
            while True:
                with lock:
                    position = next(cursor, None)
                if position is None:
                    return
                offset, index = arrivals[position]
                due = start + offset
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                status, payload, _ = client.call("POST", "/v1/insights",
                                                 requests[index],
                                                 decode=False)
                done = time.perf_counter()
                with lock:
                    records.append((due, sent, done, index, status, payload))
        finally:
            client.close()

    helper = threading.Thread(target=sender, name="browse-sender")
    helper.start()
    try:
        sender()
    finally:
        helper.join()
    return records


def rung_summary(rate, records, expected, result: Result) -> dict:
    """Latency, lateness and objective for one rung, checking each answer."""
    records.sort(key=lambda record: record[0])
    latency = []
    for due, _, done, index, status, raw in records:
        payload = json.loads(raw) if raw else None
        problems = response_problems(status, payload, expected[index][0],
                                     (1, 0))
        good = (result.check(not problems, f"browse: {problems}")
                and result.check(canonical_payload(payload)
                                 == expected[index][1],
                                 "browse: a cached answer changed"))
        # A failed request misses any latency limit.
        latency.append(1000.0 * (done - due) if good else math.inf)
    ok = sum(1 for value in latency if value != math.inf)
    service = [1000.0 * (done - sent) for _, sent, done, *_ in records]
    lateness = [1000.0 * (sent - due) for due, sent, *_ in records]
    quarter = max(1, len(records) // 4)
    growing = median(lateness[-quarter:]) > LIMIT_MS / 2
    tail_p, tail_ms = tail(latency)
    span = records[-1][2] - records[0][0]
    return {"rate": rate, "sent": len(records), "ok": ok,
            "failed": len(records) - ok,
            "achieved_rps": len(records) / span,
            "p50_ms": percentile(latency, 50), "tail_p": tail_p,
            "tail_ms": tail_ms, "service_p50_ms": percentile(service, 50),
            "lateness_p50_ms": percentile(lateness, 50),
            "lateness_max_ms": max(lateness), "backlog_growing": growing,
            "meets": tail_ms <= LIMIT_MS and not growing,
            "latency": latency}


def ladder(port, seed, seconds, requests, expected, result) -> list[dict]:
    rungs = []
    for rate, share in RATES:
        arrivals = schedule(seed, rate, seconds * share)
        rungs.append(rung_summary(rate, open_loop(port, arrivals, requests),
                                  expected, result))
    return rungs


def warm(port, requests, result) -> list[tuple[dict, str]]:
    """Answer every distinct request once; their answers are the expected
    payloads of every later hit."""
    client = Http(port)
    expected = []
    try:
        for request in requests:
            status, payload, _ = client.call("POST", "/v1/insights", request)
            problems = response_problems(status, payload, request, (1, 0))
            result.check(not problems, f"browse warm-up: {problems}")
            expected.append((request, canonical_payload(payload)
                             if not problems else None))
    finally:
        client.close()
    return expected


def run(seed: int, seconds: float, trace: bool, result: Result) -> None:
    from repro.core.registry import default_registry

    requests = distinct_requests(seed, default_registry().names())

    def launch():
        return ServerProcess(DATASET, ROWS, NUMERIC, CATEGORICAL, seed)

    server = start_server(result, 1 if trace else SETUP_LAUNCHES, launch)
    try:
        expected = warm(server.port, requests, result)
        client = Http(server.port)
        try:
            before = metrics_doc(client)
            client.close()  # reopened on the next call: two senders only
            rungs = ladder(server.port, seed, seconds, requests, expected,
                           result)
            after = metrics_doc(client)
            if not trace:
                report_end_to_end(rungs, result)
                result.metric("recall_at_10",
                              recall_at_k(client, result, RECALL, (1, 0)),
                              "ratio", classes=list(RECALL_CLASSES),
                              fixed_linear=list(RECALL_FIXED))
                result.metric("server_rss_mb", server.peak_rss_mb(), "MB")
        finally:
            client.close()
    finally:
        server.stop()
    if trace:
        layers.report_server(before, after, result)
        traced_layers(seed, requests, rungs, result)


def report_end_to_end(rungs, result: Result) -> None:
    reference = next(r for r in rungs if r["rate"] == REFERENCE_RATE)
    result.latency("query", reference["latency"], rate=REFERENCE_RATE,
                   sent=reference["sent"], ok=reference["ok"],
                   failed=reference["failed"])
    rate, highest = slo_rate(rungs)
    result.metric("throughput_rps", rate, "1/s",
                  highest_passing_rung=highest, limit_ms=LIMIT_MS)
    result.report["ladder"] = [{k: (round(v, 3) if isinstance(v, float) else v)
                                for k, v in r.items() if k != "latency"}
                               for r in rungs]


def slo_rate(rungs) -> tuple[float, float | None]:
    """The offered rate at which the tail reaches ``LIMIT_MS``, and the
    highest rung below the first one that misses the objective.

    The rate is interpolated linearly in tail latency between that rung
    and the one that misses (a miss by backlog alone adds nothing), so a
    small change in capacity moves it a little instead of a whole rung.
    When the first rung misses already, its rate is scaled by how far its
    tail is over the limit.
    """
    for index, rung in enumerate(rungs):
        if rung["meets"]:
            continue
        if index == 0:
            return rung["rate"] * min(1.0, LIMIT_MS / rung["tail_ms"]), None
        below = rungs[index - 1]
        fraction = 0.0
        if rung["tail_ms"] > LIMIT_MS:
            fraction = ((LIMIT_MS - below["tail_ms"])
                        / (rung["tail_ms"] - below["tail_ms"]))
        rate = below["rate"] + fraction * (rung["rate"] - below["rate"])
        return rate, below["rate"]
    return rungs[-1]["rate"], rungs[-1]["rate"]


def traced_layers(seed, requests, rungs, result) -> None:
    """In process on the same table: the distinct requests answered once
    (misses) and then in the reference rung's order (hits), with the read
    path wrapped in spans and traced/untraced pairs for the tracing
    overhead; default vs disabled ``ObsConfig`` pairs on the most popular
    request; and ``WRITE_TAIL`` drifted batches through the durable write
    path."""
    from repro.data.datasets import make_mixed_table
    from repro.service.workspace import Workspace

    table = make_mixed_table(n_rows=ROWS, n_numeric=NUMERIC,
                             n_categorical=CATEGORICAL, seed=seed)
    arrivals = [index for _, index in schedule(seed, REFERENCE_RATE, 30.0)]
    recorder = SpanRecorder()
    workspace = Workspace()
    workspace.register(DATASET, table)
    timings = {True: [], False: []}
    try:
        layers.install_read_path(recorder)
        with recorder.span("setup") as setup:
            store = workspace.engine(DATASET).store
        roots = [layers.traced_read(recorder, workspace, request)[0]
                 for request in requests]
        for turn, index in enumerate(arrivals):
            for enabled in ((True, False) if turn % 2 else (False, True)):
                recorder.enabled = enabled
                start = time.perf_counter()
                if enabled:
                    roots.append(layers.traced_read(recorder, workspace,
                                                    requests[index])[0])
                else:
                    workspace.handle(requests[index])
                timings[enabled].append(time.perf_counter() - start)
        recorder.enabled = True
        recorder.restore()
        layers.obs_hit_overhead(DATASET, table, requests[0], len(arrivals),
                                result, workspace=workspace)
    finally:
        recorder.restore()
        workspace.close()
    layers.report_sketch(recorder, setup.trace_id, store, result)
    layers.report_core(recorder, roots, result)
    hit_ms = result.metrics["service.handle_hit_ms"]["value"]
    reference = next(r for r in rungs if r["rate"] == REFERENCE_RATE)
    result.metric("server.overhead_ms", reference["service_p50_ms"] - hit_ms,
                  "ms", http_service_p50_ms=reference["service_p50_ms"])
    result.metric("trace.overhead_pct", 100.0 * (
        percentile(timings[True], 50) / percentile(timings[False], 50)
        - 1.0), "%")
    result.report["blocking_path"] = {
        "end_to_end": "query_p50_ms",
        "end_to_end_ms": reference["p50_ms"],
        "self_ms": {"server (HTTP service - handle)":
                    reference["service_p50_ms"] - hit_ms,
                    "generator lateness": reference["lateness_p50_ms"],
                    "service.handle (hit)": hit_ms}}
    writes = layers.write_path(
        DATASET, table, drifted_batches(seed, NUMERIC, CATEGORICAL,
                                        WRITE_TAIL),
        os.path.join(OUT, DATASET), result)
    result.recorders = [("read", recorder), ("write", writes)]
