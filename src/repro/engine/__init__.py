"""Execution engine: expressions, physical operators, plans and executor."""

from repro.engine.executor import (
    ENGINES,
    ExecutionResult,
    execute,
    measure_total_work,
    pipeline_boundary_operators,
)
from repro.engine.monitor import ExecutionMonitor
from repro.engine.plan import Plan

__all__ = [
    "ENGINES",
    "ExecutionMonitor",
    "ExecutionResult",
    "Plan",
    "execute",
    "measure_total_work",
    "pipeline_boundary_operators",
]

