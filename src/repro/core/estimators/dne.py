"""The dne (driver-node) estimator of [5, 13], reviewed in §4 of the paper.

For a single pipeline, dne returns the fraction of the driver node's input
consumed.  For multi-pipeline plans it follows the approach of [5]: each
pipeline's local driver fraction is weighted by that pipeline's (estimated)
share of the total work, with weights refined to exact tick counts as
pipelines finish.

The clamped variant additionally constrains dne to the interval
``[Curr/UB, Curr/LB]`` implied by the runtime bounds — the adjustment §5.4
uses to give dne a worst-case guarantee on scan-based plans.
"""

from __future__ import annotations

from repro.core.estimators.base import (
    Observation,
    ProgressEstimator,
    clamp_progress,
    progress_interval,
    require_sound_bounds,
)


def _dne(observation: Observation) -> float:
    states = observation.pipeline_states
    if not states:
        return 0.0
    if len(states) == 1:
        return clamp_progress(states[0].driver_fraction)
    total_weight = 0.0
    achieved = 0.0
    for state, weight in zip(states, observation.pipeline_weights):
        total_weight += weight
        achieved += weight * state.driver_fraction
    if total_weight <= 0:
        return 0.0
    return clamp_progress(achieved / total_weight)


class DneEstimator(ProgressEstimator):
    """Driver-node estimator ("dne"): per-pipeline input fractions."""

    name = "dne"

    def estimate(self, observation: Observation) -> float:
        return observation.shared(_dne)


class DneBoundedEstimator(ProgressEstimator):
    """dne clamped into the progress interval implied by the bounds.

    Since ``LB ≤ total(Q) ≤ UB``, the true progress lies in
    ``[Curr/UB, Curr/LB]``; constraining dne to that interval gives it the
    same worst-case ratio bound as the interval width (Property 6's
    "constraining dne to be within the upper and lower bounds").

    By default degenerate bounds (zero, infinite, inverted, stale) simply do
    not constrain — the interval widens and the raw dne answer survives.
    With ``strict=True`` they raise :class:`repro.errors.DegenerateBoundsError`
    instead, the typed signal the query service's degradation path catches.
    """

    name = "dne+bounds"

    def __init__(self, *, strict: bool = False) -> None:
        self._dne = DneEstimator()
        self.strict = strict

    def estimate(self, observation: Observation) -> float:
        if self.strict:
            require_sound_bounds(observation.curr, observation.bounds)
        raw = self._dne.estimate(observation)
        low, high = progress_interval(observation.curr, observation.bounds)
        return clamp_progress(min(max(raw, low), high))
