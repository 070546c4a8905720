"""Unit conventions.

Internally time is in nanoseconds and every frequency-like quantity is an
angular frequency in rad/ns.  User-facing inputs are ordinary frequencies
in MHz (f = omega/2pi), converted by omega = 2pi * f * 1e-3.

Decay and dephasing rates are the exception: a rate quoted as "2.4 MHz"
means 2.4e6 events per second, i.e. 2.4e-3 per ns, with no 2pi.  This is
the convention under which the measured rates reproduce the observed
transfer efficiency; see the README for details.
"""

import math

TWO_PI = 2.0 * math.pi


def mhz_to_rad_ns(f_mhz: float) -> float:
    """Ordinary frequency in MHz -> angular frequency in rad/ns."""
    return TWO_PI * f_mhz * 1e-3


def rate_mhz_to_per_ns(rate_mhz: float) -> float:
    """Decay/dephasing rate in MHz (1e6/s) -> 1/ns.  No 2pi factor."""
    return rate_mhz * 1e-3
