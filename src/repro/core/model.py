"""The GetNext model of work (§2.2) and the μ statistic (§5.2).

``total(Q)`` is the number of counted getnext calls a full execution of the
plan performs; ``progress`` of a prefix is the fraction of those calls done.
μ is the average work per *input* tuple — ``total(Q)`` divided by the summed
cardinalities of the leaves that are scanned exactly once — and is the knob
that controls pmax's worst-case ratio error (Theorem 5: prog ≤ pmax ≤ μ·prog).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.engine.executor import measure_total_work
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators.base import ExecutionContext
from repro.engine.plan import Plan
from repro.errors import ProgressError


def total_work(plan: Plan, engine: Optional[str] = None) -> int:
    """``total(Q)``: counted getnext calls over a full run of ``plan``.

    ``engine`` resolves like everywhere else (explicit argument, then
    ``$REPRO_ENGINE``, then the built-in default); totals are identical
    across engines, but the resolution keeps measurement on the engine the
    caller benchmarks.
    """
    return measure_total_work(plan, engine=engine)


def scanned_input_cardinality(plan: Plan) -> int:
    """``Σ L_i`` over the scanned leaves ``L_s`` of the plan (§5.2)."""
    return sum(leaf.base_cardinality() for leaf in plan.scanned_leaves())


def mu(plan: Plan, total: Optional[int] = None,
       engine: Optional[str] = None) -> float:
    """The paper's μ: total work per scanned input tuple.

    Runs the plan once (on the resolved ``engine``) if ``total`` is not
    supplied.  Raises when the plan has no scanned leaves (μ is undefined
    there).
    """
    denominator = scanned_input_cardinality(plan)
    if denominator == 0:
        raise ProgressError("mu undefined: plan %s has no scanned leaves" % (plan.name,))
    if total is None:
        total = total_work(plan, engine=engine)
    return total / denominator


@dataclass
class DriverWorkProfile:
    """Per-driver-tuple work for a single-pipeline query (§4.2).

    ``work[i]`` is the number of getnext calls attributable to the i-th
    tuple retrieved from the driver node (including the call that retrieved
    it).  ``mean`` and ``variance`` are the μ and *var* of Theorem 3's
    analysis of dne.
    """

    work: List[int]

    @property
    def mean(self) -> float:
        if not self.work:
            return 0.0
        return sum(self.work) / len(self.work)

    @property
    def variance(self) -> float:
        if len(self.work) < 2:
            return 0.0
        mean = self.mean
        return sum((w - mean) ** 2 for w in self.work) / len(self.work)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def is_c_predictive(self, c: float, fraction: float = 0.5) -> bool:
        """§4.2's predictive-order test.

        True when, after ``fraction`` of the driver tuples, the average work
        per tuple so far is within a factor ``c`` of the overall mean μ.
        """
        if c < 1:
            raise ProgressError("predictiveness factor c must be >= 1")
        if not self.work:
            return True
        half = max(1, math.ceil(len(self.work) * fraction))
        partial_mean = sum(self.work[:half]) / half
        overall = self.mean
        if overall == 0:
            return partial_mean == 0
        if partial_mean == 0:
            return False
        ratio = partial_mean / overall
        return 1.0 / c <= ratio <= c


def driver_work_profile(plan: Plan, driver) -> DriverWorkProfile:
    """Measure the work vector of a pipeline by running ``plan`` once.

    ``driver`` is the driver operator (e.g. the outer table scan).  Work
    between two consecutive driver getnext calls — plus trailing work after
    the last driver tuple — is attributed to the earlier tuple, matching the
    paper's "number of getnext calls performed for a given tuple of D".
    """
    monitor = ExecutionMonitor()
    boundaries: List[int] = []

    # Record the global tick count at each driver-row retrieval.
    driver_id = driver.operator_id

    def tick_observer(m: ExecutionMonitor) -> None:
        # Called on every tick; cheap check for driver ticks.
        if m.count_for(driver_id) > len(boundaries):
            boundaries.append(m.total_ticks)

    monitor.add_observer(tick_observer, every=1)
    context = ExecutionContext(monitor)
    for _ in plan.root.iterate(context):
        pass
    if not boundaries:
        return DriverWorkProfile([])
    work: List[int] = []
    for i, start in enumerate(boundaries):
        end = boundaries[i + 1] if i + 1 < len(boundaries) else monitor.total_ticks + 1
        work.append(end - start)
    return DriverWorkProfile(work)


def progress_of(curr: int, total: int) -> float:
    """``progress(s) = |s| / total(Q)`` (guarding the empty query)."""
    if total <= 0:
        return 1.0
    return curr / total
