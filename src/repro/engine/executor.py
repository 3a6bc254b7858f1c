"""Executor: run a plan to completion under a monitored context.

The executor is the only place that wires plans, contexts and monitors
together; everything above it (the progress runner, the benchmark harness)
goes through :func:`execute` or :func:`measure_total_work`.

Three engines produce identical results (rows, per-operator counts, observer
firing instants, event streams — see ``tests/engine/test_compiled_engine``):

* ``"fused"`` (default) — the pipeline compiler in
  :mod:`repro.engine.compiled`: one generated loop per pipeline,
  expressions inlined, accounting batched between observer cadence points;
* ``"interpreted"`` — the row-at-a-time Volcano reference path;
* ``"columnar"`` — the batch engine in :mod:`repro.engine.columnar`:
  whole-column kernels (NumPy when available, lists otherwise) with a
  tick-exact replay of the work model; unsupported operators fall back
  per-subtree to the fused compilers.

``REPRO_ENGINE=interpreted`` in the environment flips the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.engine.operators.base import ExecutionContext, Operator
from repro.engine.plan import Plan
from repro.options import ENGINES, ExecutionOptions
from repro.storage.table import Row


def _engine_choice(engine: Optional[str]) -> str:
    """Internal resolution: explicit value → ``$REPRO_ENGINE`` → fused."""
    return ExecutionOptions(engine=engine).resolve().engine


def pipeline_boundary_operators(plan: Plan) -> Set[int]:
    """Operator ids whose ``finish`` event is a pipeline boundary.

    A blocking operator finishing means the pipeline it drives has ended;
    one of its inputs finishing means the pipeline feeding it has been fully
    drained (the build of a hash join, the input of a sort).  Both are the
    blocking-operator transitions progress observers must not miss, so the
    monitor forces an observer round when any of them finishes.
    """
    boundary: Set[int] = set()
    for operator in plan.blocking_operators():
        boundary.add(operator.operator_id)
        for child in operator.children:
            boundary.add(child.operator_id)
    return boundary


@dataclass
class ExecutionResult:
    """The rows a plan produced plus its work-model accounting."""

    rows: List[Row]
    total_getnext: int
    per_operator: Dict[str, int] = field(default_factory=dict)

    @property
    def row_count(self) -> int:
        return len(self.rows)


def run_root(
    root: Operator, context: ExecutionContext, engine: str,
    keep_rows: bool = True, prepared=None,
) -> Optional[List[Row]]:
    """Open, run and close ``root`` on the resolved ``engine``.

    With ``keep_rows`` the root's rows come back in order.  Without it the
    root consumer counts its rows and keeps none, and None comes back:
    every operator still runs, so ticks, observer instants, events and
    raised errors are the same either way.  Callers that only want the
    work accounting (the progress runner, :func:`measure_total_work`)
    drain.  ``prepared`` keeps the fused engine's generated program
    between runs of one plan (see
    :func:`repro.engine.compiled.run_fused`); the other engines generate
    nothing to keep.
    """
    if engine == "fused":
        from repro.engine.compiled import run_fused

        return run_fused(root, context, keep_rows, prepared)
    if engine == "columnar":
        from repro.engine.columnar import run_columnar

        return run_columnar(root, context, keep_rows)
    if keep_rows:
        return root.run(context)
    for _ in root.iterate(context):
        pass
    return None


def execute(
    plan: Plan,
    context: Optional[ExecutionContext] = None,
    engine: Optional[str] = None,
) -> ExecutionResult:
    """Run ``plan`` to completion; return rows and getnext accounting."""
    engine = _engine_choice(engine)
    context = context or ExecutionContext()
    context.monitor.mark_pipeline_boundaries(pipeline_boundary_operators(plan))
    rows = run_root(plan.root, context, engine)
    monitor = context.monitor
    per_operator = {
        monitor.label_for(operator_id): ticks
        for operator_id, ticks in monitor.counts().items()
    }
    return ExecutionResult(rows, monitor.total_ticks, per_operator)


def measure_total_work(plan: Plan, engine: Optional[str] = None) -> int:
    """``total(Q)``: the exact number of counted getnext calls for ``plan``.

    Runs the plan once on a private monitor.  This is the oracle quantity a
    progress estimator is *not* allowed to precompute (it would require
    running the query, §2.4); it exists for evaluation only.

    This is the explicit standalone oracle: an instrumented run never calls
    it (truth is labeled from the run's own final tick count).  Call it
    directly when you want ``total(Q)`` without an instrumented run.

    Pipeline boundaries are marked exactly as :func:`execute` marks them, so
    an observer attached to the private monitor (none by default) would see
    the same boundary-forced rounds on either entry point.
    """
    engine = _engine_choice(engine)
    context = ExecutionContext()
    context.monitor.mark_pipeline_boundaries(pipeline_boundary_operators(plan))
    run_root(plan.root, context, engine, keep_rows=False)
    return context.monitor.total_ticks
