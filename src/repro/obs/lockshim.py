"""One lock-instrumentation shim: a proxy, a factory patch, a site table.

Two opt-in observers watch the locks this repository creates:

* the lock-order tracker (:class:`repro.analysis.runtime.LockTracker`,
  behind ``REPRO_DEBUG_LOCKS=1``) checks every successful acquisition
  against the declared lock hierarchy;
* the lock-wait watchdog (:class:`repro.obs.watchdog.LockWaitWatchdog`,
  behind ``ObsConfig.lock_wait_ms > 0``) reports blocking acquisitions
  that had to wait past its threshold.

While either is installed, ``threading.Lock`` / ``threading.RLock`` are
replaced by factories that wrap each new lock in one
:class:`InstrumentedLock`, bound to the observers installed at that
moment — with both installed a lock still gets a single proxy layer.
Only locks created after installation are instrumented.  Uninstalling
the last observer, in either order, restores the factories that were in
place before the first install.  Installing a second observer of the
same kind (a test's tracker inside the session tracker) binds new locks
to the newer one until it is uninstalled.

Both observers name a lock by resolving the acquiring source line
against the statically extracted site table
(:func:`repro.analysis.locks.collect_lock_sites`).  :func:`site_table`
parses it once per ``(roots, config)`` and hands the same
:class:`SiteTable` to both; the analyzer import is deferred to that
call, so importing :mod:`repro.obs` never loads the AST machinery.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Iterable

__all__ = ["InstrumentedLock", "SiteTable", "install", "installed", "site_table", "uninstall"]

_MAX_FRAMES = 20


class InstrumentedLock:
    """Transparent proxy over a real lock, reporting to its observers.

    ``order`` (a tracker) sees every successful acquisition and every
    release; ``wait`` (a watchdog) sees blocking acquisitions that were
    contended.  Uncontended acquisitions cost the wait observer one
    try-acquire and no clock read; without a wait observer there is no
    try-acquire at all.
    """

    __slots__ = ("_inner", "_order", "_wait")

    def __init__(self, inner, order=None, wait=None):
        self._inner = inner
        self._order = order
        self._wait = wait

    def acquire(self, blocking: bool = True, timeout: float = -1):
        inner = self._inner
        wait = self._wait
        if wait is None or not blocking:
            ok = inner.acquire(blocking, timeout)
        elif inner.acquire(False):
            ok = True
        else:
            started = time.perf_counter()
            ok = inner.acquire(True, timeout)
            waited = time.perf_counter() - started
            if ok and waited * 1000.0 >= wait.threshold_ms:
                wait._on_wait(waited)
        if ok and self._order is not None:
            self._order._on_acquire(self, blocking)
        return ok

    def release(self):
        if self._order is not None:
            self._order._on_release(self)
        self._inner.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False

    def locked(self):
        return self._inner.locked()

    def __getattr__(self, name):
        # Everything else (e.g. Condition's _acquire_restore/_release_save
        # and _is_owned) goes straight to the raw lock, deliberately
        # unobserved.
        return getattr(self._inner, name)

    def __repr__(self):
        return f"<instrumented {self._inner!r}>"


class SiteTable:
    """Static acquisition sites, and the resolver from a frame to a role."""

    __slots__ = ("sites", "files", "_realpaths")

    def __init__(self, sites: dict[tuple[str, int], Any]):
        self.sites = sites
        self.files = {path for path, _line in sites}
        self._realpaths: dict[str, str] = {}

    def resolve(self, frame) -> tuple[str | None, str]:
        """``(role, "path:line")`` of the first package frame from ``frame`` up.

        The walk stops at the first frame in a file the table covers: a
        declared site names its role, any other line there resolves to
        ``(None, "")``, as do frames the table does not cover at all
        (test helpers, third-party code) — locks are never guessed at.
        """
        for _ in range(_MAX_FRAMES):
            if frame is None:
                break
            code_file = frame.f_code.co_filename
            filename = self._realpaths.get(code_file)
            if filename is None:
                filename = self._realpaths[code_file] = os.path.realpath(code_file)
            if filename in self.files:
                site = self.sites.get((filename, frame.f_lineno))
                if site is not None and site.lock_id is not None:
                    return site.lock_id, f"{site.path}:{site.line}"
                return None, ""
            frame = frame.f_back
        return None, ""


_cached_table: tuple[tuple[str, ...], Any, SiteTable] | None = None


def site_table(roots: Iterable[Path] | None = None, config=None) -> SiteTable:
    """The site table for ``roots`` (default: the installed package).

    Parsed on first use and reused while the roots and config stay the
    same, so installing both observers parses the package once.
    """
    global _cached_table
    from repro.analysis.locks import collect_lock_sites
    from repro.analysis.project import DEFAULT_CONFIG

    config = config or DEFAULT_CONFIG
    if roots is None:
        import repro

        roots = [Path(repro.__file__).parent]
    roots = [Path(root).resolve() for root in roots]
    key = tuple(str(root) for root in roots)
    cached = _cached_table
    if cached is not None and cached[0] == key and cached[1] is config:
        return cached[2]
    table = SiteTable(collect_lock_sites(roots, config))
    _cached_table = (key, config, table)
    return table


# Installed observers per kind, newest last; new locks bind to the newest.
_observers: dict[str, list] = {"order": [], "wait": []}
_bound: tuple = (None, None)
_originals: tuple = ()
_active = False


def _make_lock():
    return InstrumentedLock(_originals[0](), *_bound)


def _make_rlock():
    return InstrumentedLock(_originals[1](), *_bound)


def _refresh() -> None:
    global _bound, _originals, _active
    order = _observers["order"][-1] if _observers["order"] else None
    wait = _observers["wait"][-1] if _observers["wait"] else None
    _bound = (order, wait)
    active = order is not None or wait is not None
    if active == _active:
        return
    if active:
        _originals = (threading.Lock, threading.RLock)
        factories = (_make_lock, _make_rlock)
    else:
        factories = _originals
    threading.Lock, threading.RLock = factories  # type: ignore[misc]
    _active = active


def install(kind: str, observer) -> None:
    """Bind locks created from now on to ``observer`` (``"order"``/``"wait"``)."""
    if observer not in _observers[kind]:
        _observers[kind].append(observer)
    _refresh()


def uninstall(kind: str, observer) -> None:
    """Stop binding new locks to ``observer``; idempotent."""
    if observer in _observers[kind]:
        _observers[kind].remove(observer)
    _refresh()


def installed(kind: str, observer) -> bool:
    return observer in _observers[kind]
