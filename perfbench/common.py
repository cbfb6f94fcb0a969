"""Shared pieces of the benchmark: percentiles, results, server processes,
HTTP exchanges and the output checks every workload applies."""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import platform
import random
import select
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SERVE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve.py")

#: Tail percentiles, highest first; ``tail`` takes the first one that
#: leaves at least ``TAIL_BEYOND`` samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
#: Rows per appended batch.
BATCH_ROWS = 200


# ---------------------------------------------------------------------------
# Percentiles (the one helper every metric uses)
# ---------------------------------------------------------------------------
def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with ``TAIL_BEYOND`` samples beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            return p
    return 50.0


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the tail picked by sample count."""
    p = tail_percentile(len(values))
    return p, percentile(values, p)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
class Result:
    """Metrics, report lines and the attempted/failed tally of one run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: dict[str, dict] = {}
        self.notes: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Extra report sections (environment, blocking path, ...).
        self.report: dict[str, object] = {}
        #: The traced run's ``(phase, SpanRecorder)`` pairs, written out
        #: at the end.
        self.recorders: list[tuple[str, object]] = []

    def metric(self, name: str, value: float, unit: str, **note) -> None:
        if math.isnan(value):
            self.fail(f"{name}: nothing was measured")
            return
        self.metrics[name] = {"value": float(value), "unit": unit}
        if note:
            self.notes[name] = note

    def latency(self, prefix: str, samples_ms: list[float], **note) -> None:
        """``<prefix>_p50_ms`` and ``<prefix>_tail_ms`` from one sample set."""
        if not samples_ms:
            self.fail(f"{prefix}: no samples")
            return
        p, value = tail(samples_ms)
        self.metric(f"{prefix}_p50_ms", percentile(samples_ms, 50), "ms",
                    n=len(samples_ms), **note)
        self.metric(f"{prefix}_tail_ms", value, "ms", n=len(samples_ms),
                    percentile=p, **note)

    def check(self, ok: bool, problem: str) -> bool:
        """Count one output check against the attempts."""
        self.attempted += 1
        if not ok:
            self.fail(problem)
        return ok

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def final_line(self, names) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: self.metrics[name] for name in names
                        if name in self.metrics},
        })


def environment(seed: int) -> dict:
    """What a result needs to be reproduced: machine, versions, source."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "seed": seed,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` (None outside a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def src_digest() -> str:
    """SHA-1 over every source file, which identifies a commit's code even
    in a checkout without git metadata."""
    digest = hashlib.sha1()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------
class ServerProcess:
    """``serve.py`` in its own process; ``start`` returns once it listens."""

    def __init__(self, name: str, rows: int = 0, numeric: int = 0,
                 categorical: int = 0, seed: int = 0,
                 data_dir: str | None = None, restart: bool = False):
        self.args = [sys.executable, "-u", SERVE, "--name", name,
                     "--rows", str(rows), "--numeric", str(numeric),
                     "--categorical", str(categorical), "--seed", str(seed)]
        if data_dir is not None:
            self.args += ["--data-dir", data_dir]
        if restart:
            self.args.append("--restart")
        self.proc: subprocess.Popen | None = None
        self._log = None
        self.port = 0
        self.gen_s = 0.0
        self.spawned_at = 0.0

    def start(self, timeout: float = 120.0) -> "ServerProcess":
        """Spawn and wait for the listening line; kills the process if it
        never comes."""
        try:
            return self._start(timeout)
        except BaseException:
            self.stop()
            raise

    def _start(self, timeout: float) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        os.makedirs(OUT, exist_ok=True)
        self._log = open(os.path.join(OUT, "server.log"), "ab")
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(self.args, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        pending = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not listen in time")
            if not select.select([fd], [], [], remaining)[0]:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("server exited before listening; "
                                   "see .perfbench_out/server.log")
            pending += chunk
            while b"\n" in pending:
                raw, pending = pending.split(b"\n", 1)
                line = raw.decode("utf-8", "replace")
                if line.startswith("{"):
                    self.gen_s = json.loads(line)["gen_s"]
                elif "listening on http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    self.port = int(address.rsplit(":", 1)[1])
                    return self

    def peak_rss_mb(self) -> float:
        """Peak resident set size of the server process (VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Kill the process and wait for it to end.

        SIGKILL, not SIGINT: a benchmark started from a background job
        inherits SIGINT as ignored, and nothing here needs a graceful
        shutdown (the durable workload kills the server on purpose).
        """
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            self.proc = None
        if self._log is not None:
            self._log.close()
            self._log = None


class Http:
    """One keep-alive connection; ``call`` returns (status, payload, seconds)."""

    def __init__(self, port: int, timeout: float = 120.0):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=timeout)

    def call(self, method: str, path: str, body=None, decode: bool = True):
        """One exchange; ``decode=False`` leaves the body as bytes."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data else {}
        start = time.perf_counter()
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - start
        payload = (json.loads(raw) if raw else None) if decode else raw
        return response.status, payload, elapsed

    def close(self) -> None:
        self.conn.close()


def metrics_doc(client: Http) -> dict:
    """The server's ``/metrics`` JSON document."""
    status, payload, _ = client.call("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return payload


def drifted_batches(seed: int, numeric: int, categorical: int,
                    batches: int) -> list[list[dict]]:
    """``batches`` batches of ``BATCH_ROWS`` rows for a ``make_mixed_table``
    of ``numeric`` + ``categorical`` columns, drifted from it as live data
    does: another seed, tighter correlation blocks, and the numeric
    columns shuffled so that new pairs become correlated."""
    from repro.data.datasets import make_mixed_table

    drifted = make_mixed_table(n_rows=batches * BATCH_ROWS,
                               n_numeric=numeric, n_categorical=categorical,
                               seed=seed + 7919, block_correlation=0.95)
    names = [f"attr_{j:03d}" for j in range(numeric)]
    shuffled = names[:]
    random.Random(seed).shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    rows = [{rename.get(key, key): value for key, value in record.items()}
            for record in drifted.to_records()]
    return [rows[i:i + BATCH_ROWS] for i in range(0, len(rows), BATCH_ROWS)]


def first_answer(server: ServerProcess, path: str = "/healthz",
                 body=None) -> tuple[float, object]:
    """Seconds from spawn to the first answered request, less table
    generation, and that answer's payload."""
    client = Http(server.port)
    try:
        status, payload, _ = client.call("POST" if body else "GET", path, body)
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"first request answered {status}: {payload}")
    return time.perf_counter() - server.spawned_at - server.gen_s, payload


def start_server(result: Result, launches: int, make_server) -> ServerProcess:
    """Start the server ``launches`` times, each to its first answered
    request; the last one keeps running for the workload.  With more than
    one launch the median set-up time is recorded as ``setup_s``."""
    times = []
    for attempt in range(launches):
        server = make_server()
        try:
            server.start()
            seconds, _ = first_answer(server)
        except BaseException:
            server.stop()
            raise
        times.append(seconds)
        if attempt < launches - 1:
            server.stop()
    if launches > 1:
        result.metric("setup_s", percentile(times, 50), "s", n=len(times),
                      samples=[round(t, 3) for t in times])
    return server


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
def response_problems(status, payload, request: dict,
                      state: tuple[int, int] | None = None) -> list[str]:
    """What is wrong with one insight response, if anything.

    Every response must name its dataset and the ``(version, seq)``
    snapshot it was computed from (``state`` pins the expected pair), carry
    one carousel per requested class in order, and honour ``top_k``,
    ``fixed`` and the metric range, ranked by descending score.
    """
    if status != 200 or not isinstance(payload, dict):
        return [f"HTTP {status}: {str(payload)[:200]}"]
    problems = []
    if payload.get("dataset") != request["dataset"]:
        problems.append(f"dataset {payload.get('dataset')!r}")
    version, seq = payload.get("dataset_version"), payload.get("dataset_seq")
    if not isinstance(version, int) or not isinstance(seq, int):
        problems.append(f"snapshot ({version!r}, {seq!r}) is not named")
    elif state is not None and (version, seq) != tuple(state):
        problems.append(f"snapshot ({version}, {seq}) != {tuple(state)}")
    classes = request["insight_classes"]
    carousels = payload.get("carousels") or []
    if [c.get("insight_class") for c in carousels] != list(classes):
        problems.append("carousels do not match the requested classes")
        return problems
    lo = request.get("metric_min")
    hi = request.get("metric_max")
    for carousel in carousels:
        insights = carousel["insights"]
        if len(insights) > request.get("top_k", 5):
            problems.append(f"{carousel['insight_class']}: more than top_k")
        scores = [insight["score"] for insight in insights]
        if scores != sorted(scores, reverse=True):
            problems.append(f"{carousel['insight_class']}: not ranked")
        for insight in insights:
            if any(f not in insight["attributes"]
                   for f in request.get("fixed", ())):
                problems.append(f"{carousel['insight_class']}: fixed "
                                f"attribute missing")
            if ((lo is not None and insight["score"] < lo)
                    or (hi is not None and insight["score"] > hi)):
                problems.append(f"{carousel['insight_class']}: score "
                                f"{insight['score']} outside the range")
    return problems


#: Provenance entries stamped per serve, not computed from the snapshot.
SERVE_ANNOTATIONS = ("cache", "coalesced", "batch", "cost")


def canonical_payload(payload: dict) -> str:
    """Response bytes that must repeat for one ``(version, seq)``: the
    canonical JSON without wall-clock timing and per-serve annotations."""
    body = dict(payload)
    body.pop("timing", None)
    body["provenance"] = {key: value for key, value
                          in (body.get("provenance") or {}).items()
                          if key not in SERVE_ANNOTATIONS}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def top_attributes(payload: dict) -> list[tuple[str, ...]]:
    return [tuple(insight["attributes"])
            for insight in payload["carousels"][0]["insights"]]


def recall_at_k(client: Http, result: Result, requests,
                state: tuple[int, int], k: int = 10) -> float:
    """Top-``k`` overlap of approximate and exact answers, pooled over
    ``requests`` (single-class, without ``mode``): the shared top-``k``
    insights over all exact top-``k`` insights.

    Both modes are asked for the same snapshot; each must come back at
    ``state``, which keeps the comparison on one ``(version, seq)``.
    """
    shared = total = 0
    by_class: dict[str, list[int]] = {}
    for base in requests:
        tops = {}
        for mode in ("approximate", "exact"):
            request = {**base, "top_k": k, "mode": mode}
            status, payload, _ = client.call("POST", "/v1/insights", request)
            problems = response_problems(status, payload, request, state)
            if not result.check(not problems, f"recall {request}: "
                                              f"{problems}"):
                return float("nan")
            tops[mode] = set(top_attributes(payload))
        overlap = len(tops["exact"] & tops["approximate"])
        shared += overlap
        total += len(tops["exact"])
        counts = by_class.setdefault(base["insight_classes"][0], [0, 0])
        counts[0] += overlap
        counts[1] += len(tops["exact"])
    result.report["recall_at_10_by_class"] = {
        name: round(hit / max(1, seen), 3)
        for name, (hit, seen) in by_class.items()}
    return shared / max(1, total)


def recall_requests(dataset: str, classes, fixed_linear=()) -> list[dict]:
    """Unconstrained top lists of ``classes`` plus ``linear_relationship``
    partners of each attribute in ``fixed_linear``."""
    requests = [{"protocol": 1, "dataset": dataset,
                 "insight_classes": [name]} for name in classes]
    requests += [{"protocol": 1, "dataset": dataset,
                  "insight_classes": ["linear_relationship"],
                  "fixed": [attribute]} for attribute in fixed_linear]
    return requests
