"""The paper's two closed-form results, in plain floats.

The twirl average of the second-order Magnus term amplifies the drive
amplitude by the sinc-law factor

    f(tau) = 1 + (1 - sinc(2 tau)) / 2 * sum_h2,

with sum_h2 the summed squares of the error amplitudes that anticommute
with the drive; `calibrate_tau` inverts tau * f(tau) = theta / 2 for the
drive duration.  Neither needs a matrix, so this module imports only
`math` and `pstlab.errors`, and the ``overrotation`` and ``calibrate``
commands run without numpy.
"""

from __future__ import annotations

import math

from .errors import CalibrationError

__all__ = [
    "calibrate_tau",
    "over_rotation_factor",
    "sinc",
]


def sinc(x: float) -> float:
    """sin(x)/x with a series fallback near 0, and its limit 0 at +-inf."""
    if math.isinf(x):
        return 0.0
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return math.sin(x) / x


def over_rotation_factor(tau: float, sum_h2: float) -> float:
    """Amplitude amplification 1 + (1 - sinc(2 tau))/2 * sum_h2; always >= 1."""
    if not math.isfinite(tau) or tau < 0:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if not math.isfinite(sum_h2) or sum_h2 < 0:
        raise ValueError(f"sum_h2 must be finite and >= 0, got {sum_h2}")
    return 1.0 + (1.0 - sinc(2.0 * tau)) / 2.0 * sum_h2


def _check_calibration_domain(theta: float, sum_h2: float) -> None:
    """Raise ValueError unless `calibrate_tau` accepts ``theta`` and ``sum_h2``."""
    if not math.isfinite(theta) or theta <= 0 or theta > math.pi:
        raise ValueError(
            f"target angle must satisfy 0 < theta <= pi so theta/2 lands in"
            f" (0, pi/2]; got {theta}"
        )
    if not math.isfinite(sum_h2) or sum_h2 < 0:
        raise ValueError(f"sum_h2 must be finite and >= 0, got {sum_h2}")


def calibrate_tau(theta: float, sum_h2: float) -> float:
    """Invert the calibration relation tau * factor(tau, sum_h2) = theta / 2.

    The left side is strictly increasing in tau (derivative
    1 + sum_h2/2 - sum_h2 cos(2 tau)/2 >= 1), so bisection on (0, theta/2]
    converges to the unique root; the returned residual is at machine
    level, far below the 1e-12 contract.  Without errors the result is
    exactly theta / 2.
    """
    _check_calibration_domain(theta, sum_h2)
    target = theta / 2.0

    def residual(tau: float) -> float:
        return tau * over_rotation_factor(tau, sum_h2) - target

    low, high = 0.0, target
    if residual(high) < 0:
        # Impossible while the factor stays >= 1; guarded anyway.
        raise CalibrationError(
            "calibration bracket (0, theta/2] does not straddle the root"
        )
    for _ in range(200):
        mid = 0.5 * (low + high)
        if mid <= low or mid >= high:
            break
        if residual(mid) < 0:
            low = mid
        else:
            high = mid
    return high if abs(residual(high)) <= abs(residual(low)) else low
