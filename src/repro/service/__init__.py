"""The serving layer: Workspace, DTO protocol, result cache, query pipeline.

This package separates the *serving interface* from the *execution
engine*: any transport (HTTP handler, RPC server, CLI, notebook) can park
a :class:`Workspace` behind it and exchange versioned, JSON-serialisable
:class:`InsightRequest` / :class:`InsightResponse` DTOs, while the staged
:class:`QueryPipeline` (plan → enumerate → score → rank) executes the
queries with shared candidate enumeration and the :class:`ResultCache`
absorbs repeated traffic.

The whole path is safe under concurrent callers: the cache is locked,
engine builds are single-flight, and :meth:`Workspace.handle_many` fans a
batch of requests out over a thread pool configured by
:class:`ExecutorConfig` (re-exported from :mod:`repro.core.executor`).
"""

from repro.core.executor import Executor, ExecutorConfig
from repro.core.pipeline import (
    Enumeration,
    ExecutionPlan,
    PipelineStats,
    PlannedQuery,
    QueryPipeline,
    RankingResult,
    ScoredBatch,
)
from repro.service.cache import ResultCache
from repro.service.cursor import decode_cursor, encode_cursor
from repro.service.dto import (
    PROTOCOL_VERSION,
    InsightRequest,
    InsightResponse,
    SessionState,
    error_envelope,
    error_envelope_json,
    is_error_envelope,
)
from repro.ingest.maintenance import IngestConfig
from repro.service.replica import FeedSource, LocalFeedSource, ReplicaWorkspace
from repro.service.workspace import AppendResult, Workspace

__all__ = [
    "AppendResult",
    "Enumeration",
    "FeedSource",
    "IngestConfig",
    "ExecutionPlan",
    "Executor",
    "ExecutorConfig",
    "InsightRequest",
    "InsightResponse",
    "LocalFeedSource",
    "PROTOCOL_VERSION",
    "PipelineStats",
    "PlannedQuery",
    "QueryPipeline",
    "RankingResult",
    "ReplicaWorkspace",
    "ResultCache",
    "ScoredBatch",
    "SessionState",
    "Workspace",
    "decode_cursor",
    "encode_cursor",
    "error_envelope",
    "error_envelope_json",
    "is_error_envelope",
]
