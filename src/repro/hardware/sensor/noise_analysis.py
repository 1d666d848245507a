"""Functional-error analysis of the analog eventification path.

Sec. V states that "the analog readout circuits ... are carefully
designed such that [their] read noise does not introduce functional
errors to the binary eventification and ADC quantization."  This module
provides the analysis a circuit designer runs to verify that: given a
comparator input-referred noise, an eventification threshold sigma, and
the scene's inter-frame difference statistics, what are the false-event
and missed-event probabilities — and how much comparator noise can the
design tolerate before the ROI predictor's input degrades?

The comparator decision is ``(dF + n) > sigma`` with ``n ~ N(0,
noise_rms)``; errors occur for pixels whose true |dF| is near the
threshold.  Closed-form Gaussian expressions are exact for this model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EventificationErrorModel", "adc_code_error_probability"]


def _norm():
    """``scipy.stats.norm``, imported on the first Gaussian-tail query.

    scipy is an *optional* extra (install blisscam-repro[analysis]) and
    this offline analysis module is its only consumer; importing it
    lazily keeps its ~1 s import out of ``import repro``.
    """
    try:
        from scipy.stats import norm
    except ImportError as exc:
        raise ImportError(
            "the eventification noise analysis needs scipy; install the "
            "optional extra: pip install blisscam-repro[analysis]"
        ) from exc
    return norm


@dataclass(frozen=True)
class EventificationErrorModel:
    """Error probabilities of the thresholded comparator decision."""

    #: Input-referred comparator noise, RMS, in normalized full-scale units.
    noise_rms: float
    #: Eventification threshold (normalized; paper: 15/255).
    sigma: float

    def __post_init__(self):
        if self.noise_rms < 0:
            raise ValueError(f"noise must be non-negative: {self.noise_rms}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive: {self.sigma}")

    def false_event_probability(self, true_diff: float = 0.0) -> float:
        """P(event fires) for a pixel whose true |difference| < sigma.

        The bipolar check fires when ``diff + n > sigma`` or
        ``diff + n < -sigma``.
        """
        if self.noise_rms == 0:
            return 0.0 if abs(true_diff) <= self.sigma else 1.0
        norm = _norm()
        upper = norm.sf((self.sigma - true_diff) / self.noise_rms)
        lower = norm.cdf((-self.sigma - true_diff) / self.noise_rms)
        return float(upper + lower)

    def missed_event_probability(self, true_diff: float) -> float:
        """P(no event) for a pixel whose true |difference| > sigma."""
        if abs(true_diff) <= self.sigma:
            raise ValueError(
                f"|diff|={abs(true_diff)} is below sigma={self.sigma}; "
                "not a true event"
            )
        return 1.0 - self.false_event_probability(true_diff)

    def expected_false_events(
        self, num_pixels: int, background_diff_rms: float = 0.0
    ) -> float:
        """Expected spurious events per frame over a static background.

        ``background_diff_rms`` models residual temporal noise of the
        scene itself (photon shot noise across the two frames).
        """
        if num_pixels < 0:
            raise ValueError("negative pixel count")
        total_rms = float(np.hypot(self.noise_rms, background_diff_rms))
        model = EventificationErrorModel(total_rms, self.sigma)
        return num_pixels * model.false_event_probability(0.0)

    def max_tolerable_noise(
        self, false_rate_budget: float = 1e-4
    ) -> float:
        """Largest comparator noise meeting a per-pixel false-event budget.

        Solves ``2 * Q(sigma / noise) = budget`` — the design margin the
        paper's "carefully designed" claim corresponds to.
        """
        if not 0 < false_rate_budget < 1:
            raise ValueError("budget must be in (0, 1)")
        z = _norm().isf(false_rate_budget / 2)
        return self.sigma / z


def adc_code_error_probability(noise_rms: float, bit_depth: int = 10) -> float:
    """P(single-slope ADC code off by >= 1 LSB) due to comparator noise."""
    if noise_rms < 0:
        raise ValueError("noise must be non-negative")
    if bit_depth < 1:
        raise ValueError("bit depth must be >= 1")
    if noise_rms == 0:
        return 0.0
    lsb = 1.0 / (2**bit_depth - 1)
    # The ramp crossing shifts by n; an error needs |n| > LSB/2.
    return float(2 * _norm().sf((lsb / 2) / noise_rms))
