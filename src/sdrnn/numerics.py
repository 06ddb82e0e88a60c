"""Saturating 24-bit state arithmetic and exponential-decay kernels.

The kernels work on whole arrays of states; the neuron update that calls
them, the only one in the package, is snn_sim.sigma_delta_kernel.

All compartment variables of the spiking simulator live in the signed range
[-2**23, +2**23]. Additions clip at the rails (never wrap) and clipping is
flagged, so overflow is detectable instead of silently corrupting dynamics.

Decay implements x -> x - x/tau. In reference mode this is real arithmetic.
In fixed-point mode it is evaluated multiplicatively on the magnitude, which
keeps the sign and keeps 0 a fixed point. Rounding "round" (the compiler's
default) keeps (|x| (tau - 1) + tau // 2) // tau, the nearest integer, halves
up: within half an LSB of reference mode per step, but magnitudes of at most
tau // 2 stop decaying. "trunc" keeps (|x| (tau - 1)) // tau: up to one LSB
faster per step, but (unlike subtracting trunc(x/tau), which stalls for
0 < |x| < tau) it drains any state to exactly 0 in finitely many steps.
The rounding offset, tau // 2 or 0, is decay_offset(tau, rounding); the
neuron kernel decays by the same taus at every step, so it computes the
offset once per run and passes it to decay_array instead of the rounding.

The array kernels take float64 states, integer-valued in fixed-point mode
(exact below 2**53). For integers |a| < 2**52 and tau >= 1, a / tau is an
integer or lies at least 1/tau below one, a relative gap wider than one
rounding, so floor(a / tau) in float64 is the integer floor division.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

#: Magnitude bound of every fixed-point state variable (24-bit signed range).
STATE_LIMIT = 1 << 23


def decay_offset(tau, rounding: str):
    """The rounding offset of the fixed-point decay by tau: tau // 2 for
    "round", 0 for "trunc"."""
    if rounding == "trunc":
        return 0.0
    if rounding == "round":
        return np.floor_divide(tau, 2)
    raise ConfigError(f"unknown decay rounding mode {rounding!r}")


def decay_array(x: np.ndarray, tau, *, fixed: bool = False, rounding: str = "trunc",
                out: np.ndarray | None = None, offset=None) -> np.ndarray:
    """One decay step of every element; tau is a scalar or broadcasts against
    x. The result goes to out if given, which must not be x. In fixed point
    the rounding offset is decay_offset(tau, rounding); a caller that decays
    by the same taus at every step computes it once and passes it as
    offset, which then stands in for rounding."""
    if not fixed:
        out = np.divide(x, tau, out=out)
        return np.subtract(x, out, out=out)  # x / inf is 0: an infinite tau keeps x
    if offset is None:
        offset = decay_offset(tau, rounding)
    # kept magnitude (|x| (tau - 1) + offset) // tau, written as
    # |x| + (offset - |x|) // tau, with the sign of x: x + sign(x) * floor,
    # which is x - copysign(floor, x) as floor <= 0 (offset < tau), and +0 at x = 0
    out = np.abs(x, out=out, dtype=np.float64)
    np.subtract(offset, out, out=out)
    np.divide(out, tau, out=out)
    np.floor(out, out=out)
    np.copysign(out, x, out=out)
    return np.subtract(x, out, out=out)


def sat_add_array(x: np.ndarray, delta, out: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Saturating add at +/-2**23, into out if given; returns (result,
    n_clipped). The clip runs only when the sum leaves the range."""
    total = np.add(x, delta, out=out)
    if not total.size or (total.min() >= -STATE_LIMIT and total.max() <= STATE_LIMIT):
        return total, 0
    count = int(np.count_nonzero(np.abs(total) > STATE_LIMIT))
    return np.clip(total, -STATE_LIMIT, STATE_LIMIT, out=total), count


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer with ties away from zero (np.round ties to even)."""
    x = np.asarray(x)
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
