"""Which public functions of each layer the traced run wraps in spans.

Span names are ``<layer>.<function>``; the per-layer metrics are read
back from them by name.  ``install_*`` returns nothing: the recorder keeps
what it needs to restore the originals.
"""

from __future__ import annotations

import os
import time

from common import percentile
from spans import SpanRecorder


def install_core(recorder: SpanRecorder, registry) -> None:
    """``QueryPipeline`` stages plus each insight class's ``score_all``."""
    from repro.core.pipeline import QueryPipeline

    def count_enumerated(span, args, kwargs, enumerations):
        span.attrs["enumerated"] = sum(e.n_candidates for e in enumerations)
        span.attrs["admissible"] = sum(len(e.admissible)
                                       for e in enumerations)

    def count_scored(span, args, kwargs, scored):
        span.attrs["candidates"] = len(args[1])

    recorder.wrap_method(QueryPipeline, "plan", "core.plan")
    recorder.wrap_method(QueryPipeline, "enumerate", "core.enumerate",
                         count_enumerated)
    recorder.wrap_method(QueryPipeline, "score", "core.score")
    recorder.wrap_method(QueryPipeline, "rank", "core.rank")
    for insight_class in registry:
        recorder.wrap_method(type(insight_class), "score_all",
                             f"core.score.{insight_class.name}",
                             count_scored)


def install_sketch(recorder: SpanRecorder) -> None:
    """Store construction and the two sketch families it is slowest on."""
    from repro.sketch.countmin import CountMinSketch
    from repro.sketch.hyperplane import HyperplaneSketcher
    from repro.sketch.store import SketchStore

    recorder.wrap_method(SketchStore, "__init__", "sketch.build")
    recorder.wrap_method(CountMinSketch, "update_many", "sketch.countmin")
    recorder.wrap_method(HyperplaneSketcher, "sketch_matrix",
                         "sketch.hyperplane")


def install_service(recorder: SpanRecorder) -> None:
    """``Workspace.handle``, tagged hit or miss from the response."""
    from repro.service.workspace import Workspace

    def tag_cache(span, args, kwargs, response):
        span.attrs["cache"] = response.provenance.get("cache")

    recorder.wrap_method(Workspace, "handle", "service.handle", tag_cache)


def install_ingest(recorder: SpanRecorder) -> None:
    """The append path (validate, concat, partials, merge, journal),
    rebuilds, and journal load + replay."""
    import repro.ingest.durable as durable
    import repro.ingest.maintenance as maintenance
    import repro.service.workspace as workspace
    from repro.data.table import DataTable
    from repro.ingest.delta import DeltaBatch

    recorder.wrap_method(workspace.Workspace, "append", "service.append")
    recorder.wrap_method(DeltaBatch, "from_records", "ingest.validate")
    recorder.wrap_method(DataTable, "concat", "data.concat")
    recorder.wrap_function([maintenance, workspace, durable],
                           "build_delta_partials", "ingest.partials")
    recorder.wrap_function([maintenance, workspace, durable], "merge_delta",
                           "ingest.merge")
    recorder.wrap_method(durable.DatasetJournal, "append",
                         "ingest.journal_append")
    recorder.wrap_method(durable.DatasetJournal, "load",
                         "ingest.journal_load")
    recorder.wrap_function([durable, workspace], "replay_state",
                           "ingest.replay")

    def tag_workspace(span, args, kwargs, outcome):
        span.attrs["workspace"] = id(args[0])

    recorder.wrap_method(workspace.Workspace, "rebuild", "ingest.rebuild",
                         tag_workspace)


def install_replication(recorder: SpanRecorder) -> None:
    from repro.ingest.durable import JournalFeed
    from repro.service.replica import ReplicaWorkspace

    recorder.wrap_method(JournalFeed, "poll", "replication.poll")
    recorder.wrap_method(ReplicaWorkspace, "sync", "replication.sync")


def median_ms(recorder: SpanRecorder, name: str, predicate=None) -> float:
    """Median duration of the spans called ``name``, in milliseconds."""
    seconds = [span.seconds for span in recorder.named(name)
               if predicate is None or predicate(span)]
    return 1000.0 * percentile(seconds, 50) if seconds else float("nan")


def per_trace_ms(recorder: SpanRecorder, name: str, trace_ids) -> float:
    """Mean total duration of ``name`` spans per trace, in milliseconds."""
    total = sum(span.seconds for span in recorder.named(name)
                if span.trace_id in trace_ids)
    return 1000.0 * total / max(1, len(trace_ids))


# ---------------------------------------------------------------------------
# Per-layer metrics every workload reports
# ---------------------------------------------------------------------------
#: Classes the traced runs report a score time for.
SCORED_CLASSES = ("normality", "multimodality", "monotonic_relationship",
                  "outliers", "dependence", "linear_relationship")


def install_read_path(recorder: SpanRecorder) -> None:
    """``sketch``, ``service`` and ``core``, the layers a query crosses."""
    from repro.core.registry import default_registry

    install_sketch(recorder)
    install_service(recorder)
    install_core(recorder, default_registry())


def traced_read(recorder: SpanRecorder, workspace, request: dict):
    """``workspace.handle(request)`` as a trace of its own; returns the
    root span (tagged hit or miss) and the response."""
    with recorder.span("request") as root:
        response = workspace.handle(request)
    root.attrs["cache"] = response.provenance["cache"]
    return root, response


def report_sketch(recorder: SpanRecorder, setup_trace: int, store,
                  result) -> None:
    """``sketch.*`` from the store build inside the trace ``setup_trace``."""
    def total(name):
        return sum(span.seconds for span in recorder.named(name)
                   if span.trace_id == setup_trace)

    result.metric("sketch.build_s", total("sketch.build"), "s")
    result.metric("sketch.countmin_s", total("sketch.countmin"), "s")
    result.metric("sketch.hyperplane_s", total("sketch.hyperplane"), "s")
    result.metric("sketch.bytes", store.memory_bytes(), "bytes")


def report_core(recorder: SpanRecorder, roots, result) -> None:
    """``core.*`` and ``service.handle_*`` from the request traces
    ``roots`` (spans made by ``traced_read``)."""
    misses = {root.trace_id for root in roots if root.attrs["cache"] == "miss"}
    for stage in ("enumerate", "score", "rank"):
        result.metric(f"core.{stage}_ms",
                      per_trace_ms(recorder, f"core.{stage}", misses),
                      "ms", per="miss request", n=len(misses))
    for name in SCORED_CLASSES:
        result.metric(f"core.score_ms.{name}",
                      median_ms(recorder, f"core.score.{name}"), "ms",
                      per="score_all call")
    scored = [s for s in recorder.spans if s.name.startswith("core.score.")]
    result.metric("core.candidates_scored",
                  sum(s.attrs["candidates"] for s in scored), "count")
    enumerated = recorder.named("core.enumerate")
    result.metric("core.admitted_ratio",
                  sum(s.attrs["admissible"] for s in enumerated)
                  / max(1, sum(s.attrs["enumerated"] for s in enumerated)),
                  "ratio")
    for cache in ("miss", "hit"):
        result.metric(f"service.handle_{cache}_ms", median_ms(
            recorder, "service.handle",
            lambda s, cache=cache: s.attrs.get("cache") == cache), "ms")


def report_server(before: dict, after: dict, result) -> None:
    """``service.cache_hit_ratio`` and ``server.coalesce_batch_mean`` from
    two ``/metrics`` documents taken around the measured phase."""
    cache = [doc["workspace"]["cache"] for doc in (before, after)]
    hits = cache[1]["hits"] - cache[0]["hits"]
    misses = cache[1]["misses"] - cache[0]["misses"]
    result.metric("service.cache_hit_ratio", hits / max(1, hits + misses),
                  "ratio", hits=hits, misses=misses)
    coalesce = [doc["server"]["coalesce"] for doc in (before, after)]
    batches = coalesce[1]["batches"] - coalesce[0]["batches"]
    riders = (coalesce[1]["coalesced_requests"]
              - coalesce[0]["coalesced_requests"])
    result.metric("server.coalesce_batch_mean", riders / max(1, batches),
                  "count", batches=batches)


def obs_hit_overhead(dataset: str, table, request: dict, pairs: int,
                     result, workspace=None) -> None:
    """``obs.hit_overhead_pct``: hits on ``request`` under the default
    ``ObsConfig`` against ``ObsConfig(enabled=False)``, alternating which
    goes first.  ``workspace`` (default ``ObsConfig``, holding ``table``)
    saves building a second engine."""
    from repro.obs.config import ObsConfig
    from repro.service.workspace import Workspace

    off = Workspace(obs=ObsConfig(enabled=False))
    on = workspace if workspace is not None else Workspace()
    try:
        for side in (off, on):
            if dataset not in side:
                side.register(dataset, table)
            side.handle(request)
        timings = {id(off): [], id(on): []}
        for turn in range(pairs):
            for side in ((off, on) if turn % 2 else (on, off)):
                start = time.perf_counter()
                side.handle(request)
                timings[id(side)].append(time.perf_counter() - start)
    finally:
        off.close()
        if workspace is None:
            on.close()
    result.metric("obs.hit_overhead_pct", 100.0 * (
        percentile(timings[id(on)], 50) / percentile(timings[id(off)], 50)
        - 1.0), "%", pairs=pairs)


def write_path(dataset: str, table, batches, workdir: str, result,
               reads=(), twin: bool = False) -> SpanRecorder:
    """The durable write path in process, with ``ingest``, ``replication``
    (and, for ``reads``, ``core``/``service``) wrapped in spans.

    ``table`` is registered in a durable workspace under ``workdir`` and
    ``batches`` are appended one by one, each in a trace of its own; an
    in-process ``ReplicaWorkspace(LocalFeedSource)`` syncs after each.
    With ``reads``, request ``reads[i % len(reads)]`` is then answered
    twice (a miss, then a hit).  With ``twin``, a second durable workspace
    takes the same batches untraced, alternating which goes first, for
    ``trace.overhead_pct``.  When no background rebuild ran, one rebuild
    is made; then the workspace is closed and reopened, and the journal
    load and replay of that reopening give ``ingest.replay_s``.  Reports
    every ``ingest.*`` and ``replication.*`` metric, with ``reads`` the
    ``sketch``, ``core`` and ``service.handle_*`` ones too (the store
    build at registration, the reads), and returns the recorder.
    """
    from repro.service.replica import LocalFeedSource, ReplicaWorkspace
    from repro.service.workspace import Workspace

    recorder = SpanRecorder()
    read_roots = []
    install_ingest(recorder)
    install_replication(recorder)
    if reads:
        install_read_path(recorder)
    labels = ("traced", "untraced") if twin else ("traced",)
    dirs = {label: os.path.join(workdir, f"write-{label}") for label in labels}
    spaces = {}
    replica = None
    appends: set[int] = set()
    totals = dict.fromkeys(labels, 0.0)
    try:
        try:
            recorder.enabled = False
            for label in labels:
                spaces[label] = Workspace(data_dir=dirs[label])
                if label != "traced":
                    spaces[label].register(dataset, table)
                    spaces[label].engine(dataset)
            recorder.enabled = True
            traced = spaces["traced"]
            with recorder.span("setup") as setup:
                traced.register(dataset, table)
                store = traced.engine(dataset).store
            recorder.enabled = False  # the replica's bootstrap is not a sync
            replica = ReplicaWorkspace(LocalFeedSource(dirs["traced"]))
            replica.sync()
            recorder.enabled = True
            for turn, rows in enumerate(batches):
                for label in (labels if turn % 2 else labels[::-1]):
                    recorder.enabled = label == "traced"
                    start = time.perf_counter()
                    if label == "traced":
                        with recorder.span("append") as root:
                            spaces[label].append(dataset, rows)
                        appends.add(root.trace_id)
                    else:
                        spaces[label].append(dataset, rows)
                    totals[label] += time.perf_counter() - start
                recorder.enabled = True
                replica.sync()
                if reads:
                    for _ in range(2):
                        root, _ = traced_read(recorder, traced,
                                              reads[turn % len(reads)])
                        read_roots.append(root)
            for workspace in spaces.values():
                workspace.wait_for_rebuilds(timeout=120)
            rows_since_build = (traced.ingest_stats()["datasets"][dataset]
                                ["rows_since_rebuild"])
            if not any(span.attrs["workspace"] == id(traced)
                       for span in recorder.named("ingest.rebuild")):
                traced.rebuild(dataset)
            rebuilds = [span.seconds
                        for span in recorder.named("ingest.rebuild")
                        if span.attrs["workspace"] == id(traced)]
        finally:
            recorder.enabled = True
            if replica is not None:
                replica.close()
            for workspace in spaces.values():
                workspace.close()
        with recorder.span("recover") as recover:
            reopened = Workspace(data_dir=dirs["traced"])
            reopened.engine(dataset)
        reopened.close()
    finally:
        recorder.restore()

    def median_in(name):
        seconds = [span.seconds for span in recorder.named(name)
                   if span.trace_id in appends]
        return 1000.0 * percentile(seconds, 50) if seconds else float("nan")

    result.metric("ingest.validate_ms", median_in("ingest.validate"), "ms")
    result.metric("data.concat_ms", median_in("data.concat"), "ms")
    result.metric("ingest.partials_ms", median_in("ingest.partials"), "ms")
    result.metric("ingest.merge_ms", median_in("ingest.merge"), "ms")
    result.metric("ingest.journal_append_ms",
                  median_in("ingest.journal_append"), "ms")
    result.metric("ingest.rebuild_s", percentile(rebuilds, 50), "s",
                  n=len(rebuilds))
    result.metric("ingest.replay_s", sum(
        span.seconds for span in recorder.spans
        if span.trace_id == recover.trace_id
        and span.name in ("ingest.journal_load", "ingest.replay")), "s")
    rows = sum(len(batch) for batch in batches)
    disk = sum(os.path.getsize(os.path.join(base, name))
               for base, _, names in os.walk(dirs["traced"]) for name in names)
    result.metric("ingest.bytes_per_row", disk / rows, "bytes",
                  disk_bytes=disk)
    result.metric("ingest.rows_since_build", rows_since_build, "count",
                  batches=len(batches))
    result.metric("replication.poll_ms",
                  median_ms(recorder, "replication.poll"), "ms")
    result.metric("replication.sync_ms",
                  median_ms(recorder, "replication.sync"), "ms")
    if twin:
        result.metric("trace.overhead_pct", 100.0 * (
            totals["traced"] / totals["untraced"] - 1.0), "%")
    own = recorder.self_times()
    path: dict[str, float] = {}
    for span in recorder.spans:
        if span.trace_id in appends and span.name != "append":
            path[span.name] = (path.get(span.name, 0.0)
                               + 1000.0 * own[span.span_id] / len(appends))
    result.report["append_self_ms"] = path
    result.report["in_process_append_mean_ms"] = (
        1000.0 * totals["traced"] / len(batches))
    if reads:
        report_sketch(recorder, setup.trace_id, store, result)
        report_core(recorder, read_roots, result)
    return recorder
