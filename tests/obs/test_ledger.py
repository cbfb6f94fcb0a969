"""The memory ledger against its recursive-walk oracle.

The ledger's incremental counters (re-sized only at mutation points)
must stay within tolerance of :func:`repro.obs.ledger.deep_sizeof` —
a full recursive ``getsizeof`` walk — after append/rebuild/eviction
churn, and the on-disk rows must match ``stat()`` exactly.  This is
the PR's acceptance criterion for the ``/v1/debug`` memory surface.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np
import pytest

from repro.data.datasets import make_mixed_table
from repro.obs.ledger import MemoryLedger, deep_sizeof, table_bytes
from repro.obs.watchdog import LockWaitWatchdog
from repro.service import InsightRequest, Workspace


class TestMemoryLedger:
    def test_set_get_add(self):
        ledger = MemoryLedger()
        ledger.set("table", 1000, dataset="demo")
        ledger.add("table", 500, dataset="demo")
        assert ledger.get("table", dataset="demo") == 1500
        assert ledger.get("table", dataset="other") == 0

    def test_snapshot_aggregates_components_and_datasets(self):
        ledger = MemoryLedger()
        ledger.set("table", 100, dataset="a")
        ledger.set("table", 200, dataset="b")
        ledger.set("sketches", 50, dataset="a")
        snap = ledger.snapshot()
        assert snap["components"] == {"sketches": 50, "table": 300}
        assert snap["datasets"] == {"a": {"sketches": 50, "table": 100},
                                    "b": {"table": 200}}
        assert snap["total_bytes"] == 350

    def test_snapshot_merges_extra_components(self):
        ledger = MemoryLedger()
        ledger.set("table", 100, dataset="a")
        snap = ledger.snapshot(extra={"result_cache": 40, "trace_ring": 10})
        assert snap["components"]["result_cache"] == 40
        assert snap["components"]["trace_ring"] == 10
        assert snap["total_bytes"] == 150

    def test_forget_dataset_drops_every_row(self):
        ledger = MemoryLedger()
        ledger.set("table", 100, dataset="gone")
        ledger.set("sketches", 50, dataset="gone")
        ledger.set("table", 7, dataset="kept")
        ledger.forget_dataset("gone")
        snap = ledger.snapshot()
        assert snap["datasets"] == {"kept": {"table": 7}}
        assert snap["total_bytes"] == 7


class TestDeepSizeof:
    def test_counts_a_shared_base_once(self):
        base = np.zeros((1000, 4))
        views = [base[:, i] for i in range(4)]
        total = deep_sizeof(views)
        assert total >= base.nbytes
        assert total < base.nbytes * 2

    def test_owning_array_not_double_counted(self):
        array = np.zeros(10_000, dtype=np.float64)
        total = deep_sizeof(array)
        assert array.nbytes <= total < array.nbytes * 1.1

    def test_skips_machinery(self):
        # A lock created under the lock instrumentation is a proxy whose
        # observer holds the whole static site table: still machinery.
        watchdog = LockWaitWatchdog(threshold_ms=50.0).install()
        try:
            instrumented = threading.Lock()
        finally:
            watchdog.uninstall()
        obj = {"lock": threading.Lock(), "instrumented": instrumented,
               "fn": deep_sizeof, "n": 1}
        assert deep_sizeof(obj) < 1000

    def test_cycle_safe(self):
        node: dict = {"n": 1}
        node["self"] = node
        assert deep_sizeof(node) > 0


class TestTableBytesOracle:
    def test_table_bytes_within_tolerance_of_walk(self):
        table = make_mixed_table(n_rows=4000, n_numeric=4,
                                 n_categorical=2, seed=3)
        incremental = table_bytes(table)
        oracle = deep_sizeof(table)
        # The incremental sizer skips constant Python metadata (Field
        # objects, dicts); the numpy payload dominates at this size.
        assert incremental == pytest.approx(oracle, rel=0.10)


class TestWorkspaceLedgerUnderChurn:
    """The acceptance criterion: ledger vs oracle after real churn."""

    @pytest.fixture()
    def workspace(self, tmp_path):
        table = make_mixed_table(n_rows=2000, n_numeric=4,
                                 n_categorical=2, seed=11)
        workspace = Workspace(data_dir=str(tmp_path))
        workspace.register("demo", lambda: table)
        yield workspace
        workspace.close()

    @staticmethod
    def _churn(workspace: Workspace) -> None:
        delta = make_mixed_table(n_rows=400, n_numeric=4, n_categorical=2,
                                 seed=12).to_records()
        for start in range(0, 1200, 400):
            workspace.append("demo", delta[:200])
            workspace.handle(InsightRequest(
                dataset="demo", insight_classes=("skew", "outliers"),
                top_k=3 + start // 400))
        workspace.rebuild("demo")
        workspace.handle(InsightRequest(dataset="demo",
                                        insight_classes=("skew",), top_k=2))

    def test_table_row_tracks_the_oracle(self, workspace):
        self._churn(workspace)
        memory = workspace.debug_info()["memory"]
        row = memory["datasets"]["demo"]["table"]
        oracle = deep_sizeof(workspace.table("demo"))
        assert row == pytest.approx(oracle, rel=0.12)

    def test_sketches_row_is_the_stores_payload(self, workspace):
        self._churn(workspace)
        memory = workspace.debug_info()["memory"]
        row = memory["datasets"]["demo"]["sketches"]
        store = workspace.engine("demo").store
        assert row == store.memory_bytes()
        # The prebuilt row sample is part of the store's payload.
        sketches = sum(bundle.memory_bytes()
                       for bundle in store.column_map().values())
        assert row == sketches + table_bytes(store.sample_table())
        assert row == store.stats.total_sketch_bytes
        # The payload accounting is a documented lower bound on the
        # full allocation walk (it excludes Python object overhead).
        assert 0 < row <= deep_sizeof(store)

    def test_disk_rows_match_stat_exactly(self, workspace, tmp_path):
        self._churn(workspace)
        workspace.flush("demo")
        memory = workspace.debug_info()["memory"]
        demo = memory["datasets"]["demo"]
        directory = Path(tmp_path, "demo")
        journal = sum(p.stat().st_size
                      for p in directory.glob("journal-*.seg"))
        snapshots = sum(p.stat().st_size
                        for p in directory.glob("snapshot-*"))
        assert demo["journal_disk"] == journal
        assert demo["snapshot_disk"] == snapshots
        assert journal > 0

    def test_result_cache_row_tracks_cached_values(self, workspace):
        self._churn(workspace)
        cache = workspace.cache
        reported = workspace.debug_info()["memory"]["components"][
            "result_cache"]
        assert reported == cache.info()["bytes"]
        oracle = sum(deep_sizeof(cache.get(key)) for key in cache.keys())
        assert reported == pytest.approx(oracle, rel=0.25)
        # Eviction churn: invalidation returns the counter to zero.
        workspace.invalidate("demo")
        assert workspace.debug_info()["memory"]["components"][
            "result_cache"] == 0

    def test_total_is_the_component_sum(self, workspace):
        self._churn(workspace)
        memory = workspace.debug_info()["memory"]
        assert memory["total_bytes"] == sum(memory["components"].values())

    def test_disabled_resources_keep_the_ledger_empty(self, tmp_path):
        from repro.obs.config import ObsConfig

        table = make_mixed_table(n_rows=200, n_numeric=2, n_categorical=1,
                                 seed=13)
        workspace = Workspace(obs=ObsConfig(resources_enabled=False))
        try:
            workspace.register("demo", lambda: table)
            workspace.handle(InsightRequest(dataset="demo",
                                            insight_classes=("skew",),
                                            top_k=2))
            memory = workspace.debug_info()["memory"]
            assert memory["datasets"] == {}
            assert workspace.debug_info()["costs"]["requests_total"] == 0
        finally:
            workspace.close()
