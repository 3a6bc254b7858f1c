"""The pmax estimator (§5.2): ``Curr / LB``.

pmax assumes the remaining execution does the *least* possible work, so it
always over-estimates progress (Property 4: prog ≤ pmax) and its ratio error
is bounded by μ, the average work per scanned input tuple (Theorem 5:
prog ≤ pmax ≤ μ·prog).
"""

from __future__ import annotations

from typing import Tuple

from repro.core.estimators.base import Observation, ProgressEstimator, clamp_progress


def _pmax(observation: Observation) -> float:
    lower = observation.bounds.lower
    if lower <= 0:
        return 0.0
    return clamp_progress(observation.curr / lower)


class PmaxEstimator(ProgressEstimator):
    """``Curr/LB`` — a guaranteed upper bound on the true progress."""

    name = "pmax"

    def estimate(self, observation: Observation) -> float:
        return observation.shared(_pmax)

    def interval(self, observation: Observation) -> Tuple[float, float]:
        """pmax is one-sided: the truth lies in ``[Curr/UB, pmax]``."""
        upper_bound = self.estimate(observation)
        total_upper = observation.bounds.upper
        lower_bound = observation.curr / total_upper if total_upper > 0 else 0.0
        return clamp_progress(lower_bound), upper_bound
