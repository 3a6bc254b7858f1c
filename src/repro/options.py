"""`ExecutionOptions`: the single resolution path for every execution knob.

One frozen dataclass carries every knob, and one
:meth:`ExecutionOptions.resolve` method fills unset fields from the
environment and validates the result.  **This module is the only place in
the package that reads a ``REPRO_*`` environment variable.**  The facade
(``repro.connect``), the runner, the query service, the CLI and the network
server all consume it; there is no other resolver.

The module sits at the very bottom of the import graph (stdlib +
:mod:`repro.errors` only) so that the engine, runner and service layers can
all import it without cycles.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence, Tuple, Union

from repro.errors import (
    BoundsConfigError,
    ExecutionError,
    ProgressError,
    ServiceError,
)

#: the execution engines (see ``docs/engine.md``); all observationally
#: identical, so the choice is purely a throughput knob
ENGINES = ("fused", "interpreted", "columnar")

#: the query-service execution backends: GIL-shared worker threads, or
#: worker processes for real multi-core parallelism
BACKENDS = ("thread", "process")

#: the registered bound providers (see ``docs/bounds.md``); kept as a static
#: list so this module stays at the bottom of the import graph — a test
#: asserts it matches :func:`repro.core.bounds.provider_names`
BOUND_PROVIDERS = ("degree_seq", "paper2005")

#: the default bound-provider stack: the paper's own rules, no overlays
DEFAULT_BOUNDS = ("paper2005",)

_FALLBACKS = {
    "engine": "fused",
    "backend": "thread",
}

#: sizing defaults applied by :meth:`ExecutionOptions.resolve`
DEFAULT_TARGET_SAMPLES = 200
DEFAULT_MAX_WORKERS = 4
DEFAULT_QUEUE_DEPTH = 16


def _validate_bounds(bounds: Tuple[str, ...]) -> None:
    """Name-level validation of a bound-provider stack.

    Mirrors :func:`repro.core.bounds.resolve_providers` (which re-validates
    when the trackers are built) against the static name list, so a typo'd
    ``REPRO_BOUNDS`` fails at resolve time, not mid-query.
    """
    if not bounds:
        raise BoundsConfigError("bounds must name at least one provider")
    if len(set(bounds)) != len(bounds):
        raise BoundsConfigError("duplicate bound providers: %s" % (list(bounds),))
    for name in bounds:
        if name not in BOUND_PROVIDERS:
            raise BoundsConfigError(
                "unknown bound provider %r (choose from: %s)"
                % (name, ", ".join(BOUND_PROVIDERS))
            )
    if "paper2005" not in bounds:
        raise BoundsConfigError(
            "bounds must include 'paper2005' (overlay providers tighten the "
            "paper rules, they do not replace them)"
        )


@dataclass(frozen=True)
class ExecutionOptions:
    """Every execution knob, resolvable in one step.

    ``None`` fields mean "use the default": resolution order is explicit
    value → ``$REPRO_<FIELD>`` environment variable → built-in fallback.
    Instances are frozen; :meth:`resolve` and :meth:`merged` return new
    instances, so an ``ExecutionOptions`` can be shared freely between a
    session, a service and a server config.

    ========================  =======================  ==================
    field                     environment variable     fallback
    ========================  =======================  ==================
    ``engine``                ``REPRO_ENGINE``         ``"fused"``
    ``backend``               ``REPRO_BACKEND``        ``"thread"``
    ``start_method``          ``REPRO_START_METHOD``   ``fork``/``spawn``
    ``bounds``                ``REPRO_BOUNDS``         ``("paper2005",)``
    ``target_samples``        —                        ``200``
    ``max_workers``           —                        ``4``
    ``queue_depth``           —                        ``16``
    ========================  =======================  ==================

    ``bounds`` names the bound-provider stack (a sequence of
    :data:`BOUND_PROVIDERS` entries; the environment variable takes a
    comma-separated list, e.g. ``REPRO_BOUNDS=paper2005,degree_seq``).
    """

    engine: Optional[str] = None
    backend: Optional[str] = None
    start_method: Optional[str] = None
    bounds: Optional[Union[Tuple[str, ...], Sequence[str]]] = None
    target_samples: Optional[int] = None
    max_workers: Optional[int] = None
    queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        # Normalize: lists (e.g. a to_dict round-trip or a CLI split) and
        # tuples compare and hash alike once canonicalized.
        if self.bounds is not None and not isinstance(self.bounds, tuple):
            object.__setattr__(self, "bounds", tuple(self.bounds))

    # -- construction ------------------------------------------------------------

    def merged(self, **overrides) -> "ExecutionOptions":
        """A copy with the non-``None`` ``overrides`` applied.

        The merge idiom for layered configuration: a base options object
        (server config, session default) overridden by per-call keywords.
        Unknown keys raise, mirroring ``dataclasses.replace``.
        """
        filtered = {
            key: value for key, value in overrides.items() if value is not None
        }
        return replace(self, **filtered) if filtered else self

    # -- resolution --------------------------------------------------------------

    def resolve(self) -> "ExecutionOptions":
        """Fill every unset field from the environment and validate.

        Idempotent: resolving a resolved instance is a no-op.  This is the
        **only** code path in the package that reads ``REPRO_*`` variables,
        and it reads them at call time (never import time) so long-lived
        processes and test matrices can flip defaults per invocation.
        """
        engine = self.engine or self._env("REPRO_ENGINE") or _FALLBACKS["engine"]
        if engine not in ENGINES:
            raise ExecutionError(
                "unknown engine %r (expected one of %s)" % (engine, ENGINES)
            )
        backend = (
            self.backend or self._env("REPRO_BACKEND") or _FALLBACKS["backend"]
        )
        if backend not in BACKENDS:
            raise ServiceError(
                "unknown backend %r (expected one of %s)" % (backend, BACKENDS)
            )
        available_methods = multiprocessing.get_all_start_methods()
        start_method = (
            self.start_method or self._env("REPRO_START_METHOD")
            or ("fork" if "fork" in available_methods else "spawn")
        )
        if start_method not in available_methods:
            raise ServiceError(
                "unknown start method %r (available on this platform: %s)"
                % (start_method, available_methods)
            )
        if self.bounds is not None:
            bounds = tuple(self.bounds)
        else:
            env_bounds = self._env("REPRO_BOUNDS")
            bounds = (
                tuple(
                    name.strip() for name in env_bounds.split(",")
                    if name.strip()
                )
                if env_bounds
                else DEFAULT_BOUNDS
            )
        _validate_bounds(bounds)
        target_samples = (
            self.target_samples if self.target_samples is not None
            else DEFAULT_TARGET_SAMPLES
        )
        if target_samples < 1:
            raise ProgressError("target_samples must be >= 1")
        max_workers = (
            self.max_workers if self.max_workers is not None
            else DEFAULT_MAX_WORKERS
        )
        if max_workers < 1:
            raise ServiceError("max_workers must be >= 1")
        queue_depth = (
            self.queue_depth if self.queue_depth is not None
            else DEFAULT_QUEUE_DEPTH
        )
        if queue_depth < 1:
            raise ServiceError("queue_depth must be >= 1")
        return ExecutionOptions(
            engine=engine,
            backend=backend,
            start_method=start_method,
            bounds=bounds,
            target_samples=target_samples,
            max_workers=max_workers,
            queue_depth=queue_depth,
        )

    @property
    def resolved(self) -> bool:
        """True when every field is concrete (i.e. ``resolve`` ran)."""
        return all(
            getattr(self, field.name) is not None for field in fields(self)
        )

    @staticmethod
    def _env(name: str) -> Optional[str]:
        # Empty strings count as unset for every knob, so e.g.
        # ``REPRO_ENGINE= pytest …`` behaves like an absent variable.
        return os.environ.get(name) or None

    def to_dict(self) -> dict:
        values = {
            field.name: getattr(self, field.name) for field in fields(self)
        }
        if values["bounds"] is not None:
            # JSON-friendly: the wire formats (server config, procpool
            # payloads) round-trip lists, not tuples.
            values["bounds"] = list(values["bounds"])
        return values
