"""The service's execution monitor: cooperative control at tick boundaries.

The engine is pure Python, so "stopping a query" means raising out of its
own getnext stream.  Every counted tick (interpreted engine) and every
coalesced tick batch (fused engine) funnels through
:meth:`ExecutionMonitor.record` / :meth:`ExecutionMonitor.record_batch`;
this subclass calls its control check right there, so a cancel lands
within one tick (row-at-a-time) or one observer-cadence batch (fused) —
and the fused engine's batches are already capped at the observer
cadence, so responsiveness does not degrade with batching.  Finish and
rewind events are checked as well: a ⋈NL rescan over an already-filtered
inner emits long finish/rewind trains with no counted tick in between, and
those must not stretch the cancel bound.  Both backends run this one
class; only the control callable differs (:func:`handle_control` here, a
worker process's own in :mod:`repro.service.procpool`).

The monitor holds no lock.  Only the thread executing the query records
on it, and only that thread's cadence observer reads the bounds tracker
and the estimators; other threads read progress from the samples the
observer publishes (:meth:`~repro.service.handle.QueryHandle.progress`),
never from the tracker itself.

The control check is also where a CPU-bound worker thread gives way to a
waiting client.  Under the GIL every hand-off to another thread (event
loop, client) waits out CPython's 5 ms switch interval behind
a worker that never blocks; a query's first estimate needs about fifteen
such hand-offs to reach its client.  :class:`FirstPaintPending` counts the
streams whose first estimate is still owed; while it is non-zero — a few
milliseconds per query — each control check releases the GIL, so a
hand-off costs a fraction of a millisecond.  At zero the check costs one
attribute read and steady-state batching is untouched.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.engine.monitor import ExecutionMonitor
from repro.service.handle import QueryHandle, cancelled_error, timeout_error


class FirstPaintPending:
    """How many accepted streams still wait for their first estimate.

    Owned by the :class:`~repro.service.service.QueryService`.  The front
    door raises it when it accepts a query with a watcher and lowers it —
    exactly once per raise — when that stream's first ``sample`` frame has
    been written or the stream closes.  Worker monitors only read
    :attr:`count`, so the hot path takes no lock.
    """

    def __init__(self) -> None:
        self.count = 0
        self._lock = threading.Lock()

    def raise_(self) -> None:
        with self._lock:
            self.count += 1

    def lower(self) -> None:
        with self._lock:
            self.count -= 1


class ServiceExecutionMonitor(ExecutionMonitor):
    """An :class:`ExecutionMonitor` with a control check.

    ``control`` runs at every recording entry point and raises
    :class:`repro.errors.QueryCancelled` /
    :class:`repro.errors.QueryTimeout` to stop the query.

    Each query has exactly one monitored execution, so this is the *only*
    place control is checked.
    """

    def __init__(self, control: Callable[[], None]) -> None:
        super().__init__()
        self._check_control = control

    # -- recording entry points, control-checked ----------------------------------

    def record(self, operator_id: int) -> None:
        self._check_control()
        super().record(operator_id)

    def record_batch(self, operator_id: int, n: int) -> None:
        self._check_control()
        super().record_batch(operator_id, n)

    def record_finish(self, operator_id: int) -> None:
        # Finish events are control-checked too: a rewind-heavy ⋈NL rescan
        # emits long finish/rewind trains between counted ticks, and
        # skipping the check there would defer a cancel past the documented
        # one-tick/one-batch bound.
        self._check_control()
        super().record_finish(operator_id)

    def record_rewind(self, operator_id: int) -> None:
        self._check_control()
        super().record_rewind(operator_id)


def handle_control(
    handle: QueryHandle,
    clock: Callable[[], float] = time.monotonic,
    first_paint: Optional[FirstPaintPending] = None,
) -> Callable[[], None]:
    """The thread backend's control check: give way while a first paint
    is pending, then honour the handle's cancel flag and deadline."""
    def control() -> None:
        if first_paint is not None and first_paint.count:
            # Some client is waiting for its first estimate: let the event
            # loop or client thread run now instead of at the end of this
            # thread's switch interval.
            time.sleep(0)
        if handle.cancel_requested:
            raise cancelled_error(handle.name)
        deadline = handle.deadline_at
        if deadline is not None and clock() >= deadline:
            raise timeout_error(handle.name, handle.deadline_seconds)

    return control
