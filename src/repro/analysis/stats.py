"""Statistical tests used by the compliance analysis.

The paper uses a paired z-test for difference in proportions to decide
whether a bot's compliance rate changed between the baseline
robots.txt and a directive deployment (§4.2, Table 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..exceptions import ConfigError

#: Significance level used throughout the paper's figures.
ALPHA = 0.05


@dataclass(frozen=True)
class ProportionSample:
    """A count sample: ``successes`` out of ``trials``."""

    successes: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 0 or self.successes < 0:
            raise ValueError("counts must be non-negative")
        if self.successes > self.trials:
            raise ValueError("successes cannot exceed trials")

    @property
    def proportion(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


@dataclass(frozen=True)
class ZTestResult:
    """Outcome of a two-proportion z-test.

    Attributes:
        z: test statistic (positive when the second sample's
            proportion exceeds the first's).
        p_value: two-sided p-value.
        valid: False when either sample was too small to test (the
            paper reports these cells as N/A).
    """

    z: float
    p_value: float
    valid: bool = True

    @property
    def significant(self) -> bool:
        return self.valid and self.p_value <= ALPHA


#: Returned when a test cannot be computed.
INVALID_TEST = ZTestResult(z=float("nan"), p_value=float("nan"), valid=False)

#: Minimum trials per arm before we report a test at all (mirrors the
#: paper's N/A cells for sparse bots).
MIN_TRIALS = 5


def two_proportion_z_test(
    baseline: ProportionSample, treatment: ProportionSample
) -> ZTestResult:
    """Pooled two-proportion z-test: did the rate change?

    Args:
        baseline: counts under the default robots.txt.
        treatment: counts under the directive deployment.

    Returns:
        a :class:`ZTestResult`; invalid when either arm has fewer than
        :data:`MIN_TRIALS` trials or the pooled variance is zero (both
        arms all-success or all-failure).

    The two-sided p-value is ``erfc(|z| / sqrt(2))``, i.e.
    ``2 * (1 - Phi(|z|))`` computed in the tail without cancellation.
    For ``|z| <= 37.5`` it agrees with ``2 * scipy.stats.norm.sf(|z|)``
    to within 5e-13 relative, so ``.2e`` renders are identical; above
    that band the two differ only in how the tail underflows (scipy
    returns ``0.0`` or a subnormal).
    """
    if baseline.trials < MIN_TRIALS or treatment.trials < MIN_TRIALS:
        return INVALID_TEST
    pooled = (baseline.successes + treatment.successes) / (
        baseline.trials + treatment.trials
    )
    variance = pooled * (1.0 - pooled) * (1.0 / baseline.trials + 1.0 / treatment.trials)
    if variance <= 0.0:
        # Identical degenerate proportions: no detectable change.
        return ZTestResult(z=0.0, p_value=1.0, valid=True)
    z = (treatment.proportion - baseline.proportion) / math.sqrt(variance)
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    return ZTestResult(z=z, p_value=p_value)


def weighted_average(values: list[float], weights: list[float]) -> float:
    """Access-weighted mean, the paper's category aggregation (§4.3).

    Raises:
        ConfigError: on length mismatch or all-zero weights.
    """
    if len(values) != len(weights):
        raise ConfigError("values and weights must have equal length")
    total = sum(weights)
    if total <= 0:
        raise ConfigError("weights must sum to a positive value")
    return sum(value * weight for value, weight in zip(values, weights)) / total
