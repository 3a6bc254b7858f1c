"""The threshold interface of §2.5, as a user-facing API.

"An interface that tells the user if the query progress is greater or less
than 50% could certainly be useful."  :class:`ThresholdMonitor` wraps any
estimator and answers exactly that question, with the paper's grey area δ:
answers are ABOVE, BELOW, or UNSURE (inside τ ± δ, or whenever the sound
bound interval straddles the threshold).

Theorem 1 says no monitor can be right for every instance; this one is
honest about it — when the guaranteed interval ``[Curr/UB, Curr/LB]``
contains τ, it reports UNSURE rather than guessing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.estimators.base import Observation, ProgressEstimator
from repro.core.metrics import ProgressTrace
from repro.errors import ProgressError


class ThresholdAnswer(enum.Enum):
    BELOW = "below"
    ABOVE = "above"
    UNSURE = "unsure"


@dataclass(frozen=True)
class ThresholdReading:
    """One answer plus the evidence it was based on."""

    answer: ThresholdAnswer
    estimate: float
    guaranteed_low: float
    guaranteed_high: float


class ThresholdMonitor:
    """Answers "is the progress above τ?" with a δ grey area."""

    def __init__(
        self,
        estimator: ProgressEstimator,
        tau: float = 0.5,
        delta: float = 0.05,
        trust_bounds: bool = True,
    ) -> None:
        if not 0 < tau < 1:
            raise ProgressError("tau must be in (0, 1)")
        if delta < 0 or tau - delta <= 0 or tau + delta >= 1:
            raise ProgressError("delta must keep tau±delta inside (0, 1)")
        self.estimator = estimator
        self.tau = tau
        self.delta = delta
        self.trust_bounds = trust_bounds

    def read(self, observation: Observation) -> ThresholdReading:
        estimate = self.estimator.estimate(observation)
        bounds = observation.bounds
        low = observation.curr / bounds.upper if bounds.upper > 0 else 0.0
        high = observation.curr / bounds.lower if bounds.lower > 0 else 1.0
        high = min(high, 1.0)
        if self.trust_bounds:
            # The guaranteed interval can settle the question outright.
            if high < self.tau:
                return ThresholdReading(ThresholdAnswer.BELOW, estimate, low, high)
            if low > self.tau:
                return ThresholdReading(ThresholdAnswer.ABOVE, estimate, low, high)
        if estimate < self.tau - self.delta:
            return ThresholdReading(ThresholdAnswer.BELOW, estimate, low, high)
        if estimate > self.tau + self.delta:
            return ThresholdReading(ThresholdAnswer.ABOVE, estimate, low, high)
        return ThresholdReading(ThresholdAnswer.UNSURE, estimate, low, high)


def threshold_accuracy(
    trace: ProgressTrace, name: str, tau: float, delta: float
) -> dict:
    """Post-hoc scoring of an estimator's trace against the (τ, δ) contract.

    Returns counts of correct / wrong / grey-area samples, where "wrong"
    means the estimator placed the progress on the wrong side of τ while
    the truth was outside the grey area.
    """
    correct = wrong = grey = 0
    for sample in trace.samples:
        estimate = sample.estimates[name]
        if tau - delta <= sample.actual <= tau + delta:
            grey += 1
        elif sample.actual < tau - delta:
            if estimate < tau:
                correct += 1
            else:
                wrong += 1
        else:
            if estimate > tau:
                correct += 1
            else:
                wrong += 1
    return {"correct": correct, "wrong": wrong, "grey": grey}
