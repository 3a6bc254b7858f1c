"""Server configuration: one object, consumed whole.

:class:`ServerConfig` carries the bind address, the per-tenant quotas and —
crucially — a single :class:`~repro.options.ExecutionOptions` for every
execution knob, so the server resolves engine/backend/pool sizing
through exactly the same path as ``repro.connect``.  A tenant without a
``quotas`` entry gets ``TenantQuota(max_pending=options.queue_depth,
max_inflight=options.max_workers)``.  No ``REPRO_*``
environment variable is read here; that is :meth:`ExecutionOptions.resolve`'s
job, at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence

from repro.options import ExecutionOptions
from repro.service.admission import TenantQuota


@dataclass
class ServerConfig:
    """Everything the network tier needs to come up."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests); the bound port is readable off
    #: the running server
    port: int = 0
    options: ExecutionOptions = field(default_factory=ExecutionOptions)
    #: per-tenant quota overrides (tenant name -> quota)
    quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    #: observability sinks receiving the service's events (query_queued,
    #: tenant_admitted / tenant_throttled, query_start, query_end, ...)
    sinks: Sequence = ()
    #: default per-query deadline in seconds (None: unlimited)
    default_deadline: Optional[float] = None
    #: cap on an HTTP request body (a POSTed SQL text) in bytes
    max_body_bytes: int = 1 << 20

    def resolved(self) -> "ServerConfig":
        """A copy whose execution options are fully resolved."""
        return replace(
            self, options=self.options.resolve(), quotas=dict(self.quotas),
            sinks=tuple(self.sinks),
        )
