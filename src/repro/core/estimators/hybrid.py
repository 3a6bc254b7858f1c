"""Heuristic estimator combinations (§6.4).

Theorems 7 and 8 prove that the "right" estimator cannot be *detected*:
μ cannot be estimated within any factor, and predictive orders cannot be
recognized.  So any combination is a heuristic.  This module implements the
two the paper sketches:

* :class:`HybridMuEstimator` — "uses the safe estimator but switches to the
  pmax estimator ... if the value of μ is small", where "μ" is the observed
  average work per consumed input tuple (μ̂), a quantity with no guarantee.
* :class:`HybridVarianceEstimator` — watches the running variance of
  per-input-tuple work over a sliding window and prefers dne when it is
  small ("for queries involving simple filter predicates and key lookup
  joins, the variance in per-tuple costs is likely to be low").
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.core.estimators.base import Observation, ProgressEstimator, clamp_progress
from repro.core.estimators.dne import DneEstimator
from repro.core.estimators.pmax import PmaxEstimator
from repro.core.estimators.safe import SafeEstimator
from repro.errors import EstimatorConfigError


class HybridMuEstimator(ProgressEstimator):
    """safe by default; pmax while the *observed* μ̂ stays small.

    μ̂ = Curr / (input tuples consumed from scanned leaves).  Theorem 7 says
    μ̂ guarantees nothing about μ — switching on it is explicitly heuristic.
    """

    name = "hybrid-mu"

    def __init__(self, mu_threshold: float = 3.0, warmup_fraction: float = 0.02) -> None:
        self.mu_threshold = mu_threshold
        self.warmup_fraction = warmup_fraction
        self._pmax = PmaxEstimator()
        self._safe = SafeEstimator()

    def observed_mu(self, observation: Observation) -> Optional[float]:
        consumed = observation.leaf_input_consumed
        if consumed <= 0:
            return None
        return observation.curr / consumed

    def estimate(self, observation: Observation) -> float:
        mu_hat = self.observed_mu(observation)
        warmed_up = (
            observation.bounds.lower > 0
            and observation.curr >= self.warmup_fraction * observation.bounds.lower
        )
        if mu_hat is not None and warmed_up and mu_hat <= self.mu_threshold:
            return self._pmax.estimate(observation)
        return self._safe.estimate(observation)


class HybridVarianceEstimator(ProgressEstimator):
    """dne while the sliding-window work variance is small, else safe.

    The window holds the per-driver-tuple work of the last ``window`` input
    tuples; "small" means coefficient of variation below ``cv_threshold``.
    """

    name = "hybrid-var"

    def __init__(self, window: int = 64, cv_threshold: float = 0.5) -> None:
        if window < 2:
            # A 1-sample window has no variance to watch, and the
            # ``len >= window // 2`` readiness guard would pass on an
            # *empty* window, dividing by zero in the mean.
            raise EstimatorConfigError("window must be >= 2")
        self.window = window
        self.cv_threshold = cv_threshold
        self._dne = DneEstimator()
        self._safe = SafeEstimator()
        #: work per consumed input tuple over each of the last ``window``
        #: observation-to-observation steps that consumed input
        self._samples: Deque[float] = deque(maxlen=window)
        self._last: Optional[Tuple[int, int]] = None

    def prepare(self, plan) -> None:  # noqa: D102 - documented on base
        self._samples.clear()
        self._last = None

    def _update_window(self, observation: Observation) -> None:
        point = (observation.leaf_input_consumed, observation.curr)
        if self._last is not None:
            consumed_delta = point[0] - self._last[0]
            work_delta = point[1] - self._last[1]
            if consumed_delta > 0:
                self._samples.append(work_delta / consumed_delta)
        self._last = point

    def _window_cv(self) -> Optional[float]:
        # max(1, ...) keeps the empty-window path unreachable even if the
        # window shrinks: no samples, no variance verdict.
        rates = self._samples
        if len(rates) < max(1, self.window // 2):
            return None
        mean = sum(rates) / len(rates)
        if mean <= 0:
            return None
        variance = sum([(rate - mean) ** 2 for rate in rates]) / len(rates)
        return variance ** 0.5 / mean

    def estimate(self, observation: Observation) -> float:
        self._update_window(observation)
        cv = self._window_cv()
        if cv is not None and cv <= self.cv_threshold:
            return self._dne.estimate(observation)
        return self._safe.estimate(observation)
