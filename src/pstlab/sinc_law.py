"""The paper's two closed-form results, in plain floats.

The twirl average of the second-order Magnus term amplifies the drive
amplitude by the sinc-law factor

    f(tau) = 1 + (1 - sinc(2 tau)) / 2 * sum_h2,

with sum_h2 the summed squares of the error amplitudes that anticommute
with the drive; `calibrate_tau` inverts tau * f(tau) = theta / 2 for the
drive duration.  Neither needs a matrix, so this module imports only
`math` and `pstlab.errors`, and the ``overrotation`` and ``calibrate``
commands run without numpy.

The coefficient (1 - sinc(2 tau)) / 2 is evaluated in one place,
`_sinc_coefficient`, which `magnus.omega2_avg_closed` shares.  Below
|2 tau| = 0.5 the subtraction cancels (every digit is lost once 2 tau
falls below about 3e-8), so there it sums the Taylor series
x^2/12 - x^4/240 + ... in x = 2 tau instead, to a relative error below
3e-16 for 2 tau from 1e-150 up; above, the direct formula's error stays
below 1e-14.
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


def _sinc_coefficient(tau: float) -> float:
    """(1 - sinc(2 tau)) / 2, from its Taylor series where |2 tau| < 0.5."""
    x = 2.0 * tau
    if abs(x) >= 0.5:
        return (1.0 - sinc(x)) / 2.0
    # Term k of the series is (-1)^(k+1) x^(2k) / (2 (2k+1)!); past k = 7
    # the terms fall below 1e-18 of the first.
    series = 1.0
    for k in range(7, 1, -1):
        series = 1.0 - x * x / (2 * k * (2 * k + 1)) * series
    return x * x / 12.0 * series


def over_rotation_factor(tau: float, sum_h2: float) -> float:
    """Amplitude amplification 1 + (1 - sinc(2 tau))/2 * sum_h2; always >= 1."""
    if not math.isfinite(tau) or tau < 0:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if not math.isfinite(sum_h2) or sum_h2 < 0:
        raise ValueError(f"sum_h2 must be finite and >= 0, got {sum_h2}")
    return 1.0 + _sinc_coefficient(tau) * sum_h2


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
    converges to the unique root.  The bracket is halved until it stops
    shrinking, about log2(theta / tau) + 53 times for a root tau, so a root
    near 0 (1e-100 at sum_h2 = 1e300) is resolved too; the returned
    residual is at machine level, far below the 1e-12 contract.  Without
    errors the result is exactly theta / 2.
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
    while low < (mid := 0.5 * (low + high)) < high:
        if residual(mid) < 0:
            low = mid
        else:
            high = mid
    return high if abs(residual(high)) <= abs(residual(low)) else low
