"""The safe estimator (§5.3): ``Curr / √(LB·UB)``.

safe takes the geometric middle road between the two attainable extremes of
``total(Q)``, so its ratio error is at most ``√(UB/LB)`` — and Theorem 6
shows no estimator can guarantee better in the worst case.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.core.estimators.base import Observation, ProgressEstimator, clamp_progress


def _safe(observation: Observation) -> float:
    lower = observation.bounds.lower
    upper = observation.bounds.upper
    if lower <= 0 or upper <= 0:
        return 0.0
    return clamp_progress(observation.curr / math.sqrt(lower * upper))


class SafeEstimator(ProgressEstimator):
    """``Curr/√(LB·UB)`` — worst-case optimal."""

    name = "safe"

    def estimate(self, observation: Observation) -> float:
        return observation.shared(_safe)

    def interval(self, observation: Observation) -> Tuple[float, float]:
        """The truth lies in ``[Curr/UB, Curr/LB]``; safe is its geometric
        midpoint."""
        lower = observation.bounds.lower
        upper = observation.bounds.upper
        low = observation.curr / upper if upper > 0 else 0.0
        high = observation.curr / lower if lower > 0 else 1.0
        return clamp_progress(low), clamp_progress(high)

    def guaranteed_ratio_error(self, observation: Observation) -> float:
        """``√(UB/LB)`` at this instant."""
        ratio = observation.bounds.ratio
        return math.sqrt(ratio) if ratio != float("inf") else float("inf")
