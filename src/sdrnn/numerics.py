"""Saturating 24-bit state arithmetic and exponential-decay kernels.

All compartment variables of the spiking simulator live in the signed range
[-2**23, +2**23]. Additions clip at the rails (never wrap) and clipping is
flagged, so overflow is detectable instead of silently corrupting dynamics.

Decay implements x -> x - x/tau. In reference mode this is real arithmetic.
In fixed-point mode it is evaluated multiplicatively as
trunc_toward_zero(x * (tau - 1) / tau), which never flips the sign, keeps 0 a
fixed point, and (unlike subtracting trunc(x/tau), which stalls for
0 < |x| < tau) drains any state to exactly 0 in finitely many steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

#: Magnitude bound of every fixed-point state variable (24-bit signed range).
STATE_LIMIT = 1 << 23


@dataclass(frozen=True)
class DecayConstant:
    """A decay time constant in simulator steps.

    In reference mode tau is any positive real (math.inf disables decay).
    In fixed-point mode tau must be an integer >= 1; tau < 1 would
    over-decay in a single step.
    """

    tau: float
    fixed: bool = False

    def __post_init__(self):
        if self.fixed:
            if not float(self.tau).is_integer() or self.tau < 1:
                raise ConfigError(
                    f"fixed-point decay constant must be an integer >= 1, got {self.tau}"
                )
        elif not self.tau > 0:
            raise ConfigError(f"decay constant must be positive, got {self.tau}")


@dataclass
class FixedState:
    """One saturating 24-bit accumulator cell."""

    value: int
    saturation_flag: bool = False

    def __post_init__(self):
        if abs(self.value) > STATE_LIMIT:
            raise ConfigError(f"state value {self.value} outside +/-{STATE_LIMIT}")


def sat_add(a: FixedState, b: int) -> FixedState:
    """Add b into a, clipping at +/-2**23 and flagging any clip."""
    total = a.value + b
    clipped = min(max(total, -STATE_LIMIT), STATE_LIMIT)
    return FixedState(clipped, a.saturation_flag or clipped != total)


def _decay_fixed_int(x: int, tau: int, rounding: str) -> int:
    mag = abs(x)
    if rounding == "trunc":
        kept = (mag * (tau - 1)) // tau
    elif rounding == "round":
        kept = (mag * (tau - 1) + tau // 2) // tau
    else:
        raise ConfigError(f"unknown decay rounding mode {rounding!r}")
    return kept if x >= 0 else -kept


def decay_step(x, tau, rounding: str = "trunc"):
    """One decay step x -> x - x/tau.

    Accepts a FixedState (fixed-point semantics, integer tau) or a plain
    real (reference semantics, fractional and infinite tau allowed).
    """
    t = tau.tau if isinstance(tau, DecayConstant) else tau
    if isinstance(x, FixedState):
        if not float(t).is_integer() or t < 1:
            raise ConfigError(f"fixed-point decay needs integer tau >= 1, got {t}")
        return FixedState(_decay_fixed_int(x.value, int(t), rounding), x.saturation_flag)
    if not t > 0:
        raise ConfigError(f"decay constant must be positive, got {t}")
    if math.isinf(t):
        return float(x)
    return x - x / t


# Vectorized kernels used by the simulation engine. States are float64 in
# reference mode and int64 in fixed-point mode.


def decay_array(x: np.ndarray, tau, *, fixed: bool = False, rounding: str = "trunc") -> np.ndarray:
    """One decay step of every element; tau is a scalar or one per element."""
    if not fixed:
        return x - x / tau  # x / inf is 0: an infinite tau keeps x
    tau = np.asarray(tau, dtype=np.int64)
    if rounding == "trunc":
        half = 0
    elif rounding == "round":
        half = tau // 2
    else:
        raise ConfigError(f"unknown decay rounding mode {rounding!r}")
    # kept magnitude (|x| (tau - 1) + half) // tau, written as
    # |x| + (half - |x|) // tau, with the sign of x
    return x + np.sign(x) * ((half - np.abs(x)) // tau)


def sat_add_array(x: np.ndarray, delta) -> tuple[np.ndarray, int]:
    """Saturating add on an int64 state array; returns (result, n_clipped).
    The clip runs only when the sum leaves the range."""
    total = x + delta
    if not total.size or (total.min() >= -STATE_LIMIT and total.max() <= STATE_LIMIT):
        return total, 0
    clipped = np.clip(total, -STATE_LIMIT, STATE_LIMIT)
    return clipped, int(np.count_nonzero(clipped != total))


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer with ties away from zero (np.round ties to even)."""
    x = np.asarray(x)
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
