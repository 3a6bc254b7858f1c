"""Server metrics: queue depths, per-tenant throughput, latency quantiles.

One registry per server, shared by the HTTP tier and the CLI.  Queue
state is not shadowed here: per-tenant ``pending`` / ``inflight`` are read
off the service's admission queue when a snapshot is rendered.  The
counters are guarded by a single lock — touched a handful of times per
query, never per tick, so contention is negligible — and
:meth:`ServerMetrics.snapshot` renders the whole registry as the JSON
document ``GET /metrics`` returns.  The ``repro serve`` CLI prints *from
this snapshot*, so the human-readable summary and the endpoint cannot
drift.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional


def percentile(values: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile; None on an empty population.

    The nearest-rank definition: the smallest value with at least
    ``fraction`` of the population at or below it, i.e. the element at
    1-based rank ``ceil(fraction * n)``.  (``int(fraction * n)`` is the
    classic off-by-one: p50 of ``[a, b]`` would return the max.)
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    index = min(len(ordered) - 1, max(0, rank - 1))
    return ordered[index]


class LatencyReservoir:
    """A bounded sample of query latencies (seconds, admission→terminal)."""

    def __init__(self, capacity: int = 10000) -> None:
        self.capacity = capacity
        self.count = 0
        self._values: List[float] = []

    def record(self, seconds: float) -> None:
        self.count += 1
        if len(self._values) < self.capacity:
            self._values.append(seconds)
        else:
            # Deterministic reservoir: overwrite round-robin.  Good enough
            # for p50/p99 over a load run without unbounded memory.
            self._values[self.count % self.capacity] = seconds

    def quantiles(self) -> Dict[str, Optional[float]]:
        values = list(self._values)
        return {
            "count": self.count,
            "p50_seconds": percentile(values, 0.50),
            "p99_seconds": percentile(values, 0.99),
        }


class TenantMetrics:
    """Counters for one tenant (created on first touch)."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.first_seen = clock()
        self.submitted = 0
        self.throttled = 0
        self.completed: Counter = Counter()
        self.ticks = 0

    def to_dict(self, now: float,
                load: Dict[str, int]) -> Dict[str, object]:
        elapsed = max(now - self.first_seen, 1e-9)
        return {
            "submitted": self.submitted,
            "throttled": self.throttled,
            "completed": dict(self.completed),
            "ticks": self.ticks,
            "ticks_per_second": self.ticks / elapsed,
            "inflight": load.get("inflight", 0),
            "pending": load.get("pending", 0),
        }


class ServerMetrics:
    """The server-wide registry behind ``GET /metrics``."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self.started_at = clock()
        self.ws_opened = 0
        self.ws_closed = 0
        self.http_requests = 0
        self.latency = LatencyReservoir()
        self.tenants: Dict[str, TenantMetrics] = {}

    def _tenant(self, tenant: str) -> TenantMetrics:
        state = self.tenants.get(tenant)
        if state is None:
            state = self.tenants[tenant] = TenantMetrics(self._clock)
        return state

    # -- recording ---------------------------------------------------------------

    def record_request(self) -> None:
        with self._lock:
            self.http_requests += 1

    def record_submitted(self, tenant: str) -> None:
        with self._lock:
            self._tenant(tenant).submitted += 1

    def record_throttled(self, tenant: str) -> None:
        with self._lock:
            self._tenant(tenant).throttled += 1

    def record_completed(self, tenant: str, state_name: str, *,
                         ticks: int = 0,
                         latency_seconds: Optional[float] = None) -> None:
        with self._lock:
            state = self._tenant(tenant)
            state.completed[state_name] += 1
            state.ticks += ticks
            if latency_seconds is not None:
                self.latency.record(latency_seconds)

    def record_ws_open(self) -> None:
        with self._lock:
            self.ws_opened += 1

    def record_ws_close(self) -> None:
        with self._lock:
            self.ws_closed += 1

    # -- rendering ---------------------------------------------------------------

    def snapshot(
        self, load: Optional[Dict[str, Dict[str, int]]] = None,
        first_paint_pending: int = 0,
    ) -> Dict[str, object]:
        """The registry as ``GET /metrics`` renders it; ``load`` is the
        admission queue's per-tenant ``pending`` / ``inflight``."""
        load = load or {}
        now = self._clock()
        with self._lock:
            elapsed = max(now - self.started_at, 1e-9)
            tenants = self.tenants.values()
            total_ticks = sum(t.ticks for t in tenants)
            return {
                "uptime_seconds": now - self.started_at,
                "http_requests": self.http_requests,
                "ws_connections": {
                    "open": self.ws_opened - self.ws_closed,
                    "opened": self.ws_opened,
                    "closed": self.ws_closed,
                },
                "queries": {
                    "submitted": sum(t.submitted for t in tenants),
                    "throttled": sum(t.throttled for t in tenants),
                    "completed": dict(sum(
                        (t.completed for t in tenants), Counter(),
                    )),
                },
                "ticks": total_ticks,
                "ticks_per_second": total_ticks / elapsed,
                "latency": self.latency.quantiles(),
                "queue_depths": {
                    "tenant:%s" % name: counts["pending"]
                    for name, counts in sorted(load.items())
                },
                # streams still owed a first estimate: worker threads give
                # way at every tick batch while this is non-zero, so a
                # value that stays up with no query arriving is a leak
                "first_paint_pending": first_paint_pending,
                "tenants": {
                    name: tenant.to_dict(now, load.get(name, {}))
                    for name, tenant in sorted(self.tenants.items())
                },
            }
