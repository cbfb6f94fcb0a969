"""``explore``: one analyst on the paper's interactive scale.

A ``make_mixed_table`` of 100k rows x 120 numeric + 4 categorical columns
behind the server.  One closed-loop client (it waits for each reply)
replays a seeded session over HTTP: the all-class carousel first, then
rounds of single- and multi-class queries with ``fixed``, metric-range and
``top_k`` constraints, a quarter of them revisits.  Almost every request
misses the result cache, so the time sits in ``core`` scoring and
``sketch`` reads; transport, journal and coalescer barely matter.

The session has a fixed number of rounds (0.6 per second of run, at least
9), so every run measures the same requests.  Each round has the same
composition; only attributes, bounds, page sizes and order come from the
seed, so medians compare across seeds and across commits.
``throughput_rps`` is the session's queries per second of query time: one
user, waiting for each answer.
"""

from __future__ import annotations

import itertools
import os
import random
import time

import layers
from common import (OUT, Http, Result, ServerProcess, canonical_payload,
                    drifted_batches, metrics_doc, percentile, recall_at_k,
                    recall_requests, response_problems, start_server)
from spans import SpanRecorder

DATASET = "explore"
ROWS, NUMERIC, CATEGORICAL = 100_000, 120, 4
SETUP_LAUNCHES = 3
#: Session length: rounds per second of run, and at least enough rounds
#: for a 90th-percentile tail (100 requests).
ROUNDS_PER_SECOND = 0.6
MIN_ROUNDS = 9
#: ``max_candidates`` of the capped univariate carousel.
SHAPE_CANDIDATES = 24
#: Classes whose exact mode answers within a few seconds at this size.
RECALL_CLASSES = ("linear_relationship", "outliers", "skew")
#: Attributes whose ``linear_relationship`` partners also count.
RECALL_FIXED = ("attr_002", "attr_027", "attr_052", "attr_077", "attr_102")
RECALL = recall_requests(DATASET, RECALL_CLASSES, RECALL_FIXED)
#: Hit pairs for ``obs.hit_overhead_pct``, and the drifted batches the
#: traced run appends to a durable copy of the table.
OBS_PAIRS = 400
WRITE_TAIL = 8


def _request(**fields) -> dict:
    return {"protocol": 1, "dataset": DATASET, **fields}


def rounds_for(seconds: float) -> int:
    return max(MIN_ROUNDS, round(ROUNDS_PER_SECOND * seconds))


def session(seed: int, all_classes: list[str], rounds: int):
    """``(kind, request)`` pairs: the all-class carousel, then ``rounds``
    rounds of nine new requests and three revisits in seeded order.

    Per round, five requests are cheap (the revisits, the moment and
    fixed-shape queries), three cost tens of milliseconds and four cost
    hundreds, two of them ``dependence`` by a categorical column; so the
    median falls in the middle group and the tail in the slowest kind.
    """
    rng = random.Random(seed)
    # Attributes are drawn without replacement, and the requests fixing a
    # categorical column carry a seeded bound, so a new request never
    # repeats an old one by chance: only the revisits hit the cache.
    numeric = [f"attr_{j:03d}" for j in range(NUMERIC)]
    rng.shuffle(numeric)
    attributes = itertools.cycle(numeric)
    categorical = [f"cat_{j:02d}" for j in range(CATEGORICAL)]
    seen = [_request(insight_classes=all_classes, top_k=5)]
    yield "carousel", seen[0]
    for _ in range(rounds):
        a, b, c, d = (next(attributes) for _ in range(4))
        cat_a, cat_b = rng.sample(categorical, 2)
        fresh = [
            ("moments-min", _request(
                insight_classes=["skew", "heavy_tails", "dispersion"],
                metric_min=round(rng.uniform(0.1, 0.5), 3),
                top_k=rng.choice([5, 10]))),
            ("shape-fixed", _request(
                insight_classes=["outliers", "normality", "multimodality"],
                fixed=[a], top_k=3)),
            ("linear-range", _request(
                insight_classes=["linear_relationship"],
                metric_min=round(rng.uniform(0.2, 0.4), 3),
                metric_max=round(rng.uniform(0.6, 0.9), 3), top_k=10)),
            ("dependence-num", _request(
                insight_classes=["dependence", "linear_relationship"],
                fixed=[b], top_k=5)),
            ("dependence-num", _request(
                insight_classes=["dependence", "linear_relationship"],
                fixed=[c], top_k=8)),
            ("pair-fixed", _request(
                insight_classes=["linear_relationship",
                                 "monotonic_relationship"],
                fixed=[d], top_k=5)),
            ("shape-capped", _request(
                insight_classes=["normality", "multimodality", "outliers"],
                metric_min=round(rng.uniform(0.0, 0.05), 4),
                max_candidates=SHAPE_CANDIDATES,
                top_k=rng.choice([5, 8, 10]))),
            ("dependence-cat", _request(
                insight_classes=["dependence"], fixed=[cat_a],
                metric_min=round(rng.uniform(0.0, 0.01), 6),
                top_k=rng.choice([5, 8]))),
            ("dependence-cat", _request(
                insight_classes=["dependence"], fixed=[cat_b],
                metric_min=round(rng.uniform(0.0, 0.01), 6), top_k=10)),
        ]
        rng.shuffle(fresh)
        steps = fresh[:]
        for _ in range(3):
            steps.insert(rng.randrange(1, len(steps) + 1), None)
        for step in steps:
            if step is None:
                yield "revisit", rng.choice(seen)
            else:
                seen.append(step[1])
                yield step


def replay(port: int, seed: int, all_classes, rounds: int,
           result: Result) -> list[tuple[dict, float, str]]:
    """Closed-loop HTTP replay of the session.

    Returns ``(request, seconds, canonical payload)`` per request.  Each
    answer is checked, and a revisit must repeat its first answer.
    """
    client = Http(port)
    log = []
    first: dict[str, str] = {}
    kinds: dict[str, list[float]] = {}
    try:
        for kind, request in session(seed, all_classes, rounds):
            status, payload, elapsed = client.call("POST", "/v1/insights",
                                                   request)
            problems = response_problems(status, payload, request, (1, 0))
            if not result.check(not problems, f"explore: {problems}"):
                continue
            key = repr(sorted(request.items()))
            body = canonical_payload(payload)
            if key in first:
                result.check(first[key] == body,
                             "explore: a revisit changed its answer")
            first.setdefault(key, body)
            log.append((request, elapsed, body))
            kinds.setdefault(kind, []).append(1000.0 * elapsed)
    finally:
        client.close()
    result.report["latency_by_kind_ms"] = {
        kind: {"n": len(ms), "p50": round(percentile(ms, 50), 2)}
        for kind, ms in kinds.items()}
    return log


def run(seed: int, seconds: float, trace: bool, result: Result) -> None:
    from repro.core.registry import default_registry

    all_classes = default_registry().names()

    def launch():
        return ServerProcess(DATASET, ROWS, NUMERIC, CATEGORICAL, seed)

    phases = result.report.setdefault("phase_s", {})
    started = time.perf_counter()
    server = start_server(result, 1 if trace else SETUP_LAUNCHES, launch)
    phases["setup"] = time.perf_counter() - started
    client = Http(server.port)
    try:
        before = metrics_doc(client) if trace else None
        client.close()  # reopened by the next call, after the session
        log = replay(server.port, seed, all_classes, rounds_for(seconds),
                     result)
        phases["session"] = time.perf_counter() - started - phases["setup"]
        if trace:
            layers.report_server(before, metrics_doc(client), result)
        else:
            latencies = [1000.0 * elapsed for _, elapsed, _ in log]
            result.latency("query", latencies, sent=len(log))
            result.metric("throughput_rps", 1000.0 * len(latencies)
                          / sum(latencies), "1/s", n=len(latencies))
            result.metric("recall_at_10",
                          recall_at_k(client, result, RECALL, (1, 0)),
                          "ratio", classes=list(RECALL_CLASSES),
                          fixed_linear=list(RECALL_FIXED))
            result.metric("server_rss_mb", server.peak_rss_mb(), "MB")
    finally:
        client.close()
        stopping = time.perf_counter()
        server.stop()
        phases["stop"] = time.perf_counter() - stopping
        phases["total"] = time.perf_counter() - started
    if trace:
        traced_layers(seed, seconds, log, result)
        phases["traced"] = time.perf_counter() - started - phases["total"]


def traced_layers(seed: int, seconds: float, log, result: Result) -> None:
    """Replay the same session in process with every layer wrapped.

    The table is regenerated from the seed, built into a store under
    ``sketch.*`` spans and queried request by request, each in its own
    trace.  Then every distinct miss runs again in traced/untraced pairs
    (alternating which goes first) for the tracing overhead, the fastest
    request's hit runs in default/disabled ``ObsConfig`` pairs, and
    ``WRITE_TAIL`` drifted batches go through the durable write path.
    """
    from repro.data.datasets import make_mixed_table
    from repro.service.workspace import Workspace

    table = make_mixed_table(n_rows=ROWS, n_numeric=NUMERIC,
                             n_categorical=CATEGORICAL, seed=seed)
    recorder = SpanRecorder()
    workspace = Workspace()
    workspace.register(DATASET, table)
    try:
        layers.install_read_path(recorder)
        with recorder.span("setup") as setup:
            store = workspace.engine(DATASET).store
        traces = []
        for request, http_seconds, body in log:
            root, response = layers.traced_read(recorder, workspace, request)
            root.attrs["http_ms"] = 1000.0 * http_seconds
            result.check(canonical_payload(response.to_dict()) == body,
                         "explore: in-process answer differs from HTTP")
            traces.append(root)
        mark = len(recorder.spans)
        overhead = overhead_pairs(recorder, workspace, log, budget=seconds / 2)
        del recorder.spans[mark:]
        recorder.restore()
        fastest = min(log, key=lambda entry: entry[1])[0]
        layers.obs_hit_overhead(DATASET, table, fastest, OBS_PAIRS, result,
                                workspace=workspace)
    finally:
        recorder.restore()
        workspace.close()
    layers.report_sketch(recorder, setup.trace_id, store, result)
    layers.report_core(recorder, traces, result)
    result.metric("server.overhead_ms", percentile(
        [root.attrs["http_ms"] - 1000.0 * root.seconds for root in traces],
        50), "ms")
    result.metric("trace.overhead_pct", overhead, "%")
    result.report["blocking_path"] = blocking_path(recorder, traces,
                                                   recorder.self_times())
    writes = layers.write_path(
        DATASET, table, drifted_batches(seed, NUMERIC, CATEGORICAL,
                                        WRITE_TAIL),
        os.path.join(OUT, DATASET), result)
    result.recorders = [("read", recorder), ("write", writes)]


def overhead_pairs(recorder, workspace, log, budget: float) -> float:
    """Percent by which the wrappers slow the session's distinct misses,
    from as many traced/untraced pairs as fit in ``budget`` seconds."""
    distinct = {}
    for request, _, _ in log:
        distinct.setdefault(repr(sorted(request.items())), request)
    totals = {True: 0.0, False: 0.0}
    deadline = time.perf_counter() + budget
    for index, request in enumerate(distinct.values()):
        if time.perf_counter() > deadline:
            break
        for enabled in ((True, False) if index % 2 else (False, True)):
            workspace.invalidate(DATASET)
            recorder.enabled = enabled
            start = time.perf_counter()
            workspace.handle(request)
            totals[enabled] += time.perf_counter() - start
    recorder.enabled = True
    return 100.0 * (totals[True] - totals[False]) / totals[False]


def blocking_path(recorder, traces, own) -> dict:
    """Self time per layer for the median-latency request, next to its
    HTTP latency (the end-to-end time those layers should explain)."""
    ordered = sorted(traces, key=lambda root: root.attrs["http_ms"])
    median_root = ordered[(len(ordered) - 1) // 2]
    layers_ms = {"server (HTTP - handle)":
                 median_root.attrs["http_ms"] - 1000.0 * median_root.seconds}
    for span in recorder.spans:
        if span.trace_id == median_root.trace_id and span.name != "request":
            layer = span.name
            layers_ms[layer] = layers_ms.get(layer, 0.0) + 1000.0 * own[span.span_id]
    return {"end_to_end": "query_p50_ms",
            "end_to_end_ms": median_root.attrs["http_ms"],
            "request": {k: v for k, v in median_root.attrs.items()},
            "self_ms": layers_ms}
