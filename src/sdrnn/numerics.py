"""Saturating 24-bit state arithmetic and exponential-decay kernels.

The kernels work on whole arrays of states; the neuron update that calls
them, the only one in the package, is snn_sim.sigma_delta_kernel.

All compartment variables of the spiking simulator live in the signed range
[-2**23, +2**23]. Additions clip at the rails (never wrap) and clipping is
flagged, so overflow is detectable instead of silently corrupting dynamics.

Decay implements x -> x - x/tau. In reference mode this is real arithmetic
(decay_array). In fixed-point mode (decay_by) it is evaluated
multiplicatively on the magnitude, which keeps the sign and keeps 0 a fixed
point: it keeps (|x| (tau - 1) + tau // 2) // tau, the nearest integer,
halves up, within half an LSB of reference mode per step (magnitudes of at
most tau // 2 stop decaying).

The array kernels take float64 states, integer-valued in fixed-point mode,
and the fixed-point decay is one rounded multiply, rint(x k), plus 0.0 so
that a -0.0 becomes +0, which matters only at tau 1 (k = 0, where a
negative x gives -0.0): for tau >= 2, k > 1/2, so rint(x k) of an integer
x is 0 only for x = 0, and +0 for x = +0. The neuron kernel therefore drops
the + 0.0 for a run in which no tau is 1. Here

    k = fl(fl((tau - 1) / tau) * (1 + 2**-50)),

which decay_factor(tau) computes. The fixed-point decay is
decay_by(x, decay_factor(tau)); the neuron kernel decays by the same taus
at every step, so it computes k once per run. The nudge makes x k exceed
the exact quotient: it sends even-tau ties away from zero and lifts exact
multiples just above their integer, which is what the integer floor
division does. It is exact for every integer |x| <= 2**23 (the range of
every state) and every integer tau in [1, TAU_LIMIT = 2**25]. Proof: let
a = |x|, y = a (tau - 1) / tau = n + r / tau with 0 <= r < tau. The kept
magnitude is n + [2r >= tau]. Each of the three float64 roundings (the
quotient, the nudged product, a k) errs by at most 2**-53 relatively, so
fl(a k) = y (1 + e) with 4 * 2**-53 < e < 2**-49, and for y > 0

    y < fl(a k) < y + 2**23 * 2**-49 = y + 2**-26 <= y + 1 / (2 tau).

When 2r < tau, y lies at least 1 / (2 tau) below n + 1/2, so rint gives n.
When 2r >= tau, fl(a k) lies strictly above n + 1/2 (a tie 2r = tau is
lifted) and below n + 1, which y lies at least 1 / tau below, so rint gives
n + 1. At y = 0 (x = 0 or tau = 1, where k = 0) the product is exactly 0.
rint is odd, so a negative x decays to minus its magnitude's result. The
test suite checks every integer |x| <= 2**23 at seven taus against the
integer formula. A tau outside the proof's range, or not an integer, is a
ConfigError in fixed point; reference mode takes any positive tau,
infinity included.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

#: Magnitude bound of every fixed-point state variable (24-bit signed range).
STATE_LIMIT = 1 << 23


#: Largest fixed-point decay tau for which decay_by is proven exact.
TAU_LIMIT = 1 << 25

def decay_factor(tau) -> np.ndarray:
    """The multiplier k of the fixed-point decay by tau (see the module
    docstring); ConfigError unless every tau is an integer in [1, TAU_LIMIT]."""
    tau = np.asarray(tau, dtype=np.float64)
    if not ((tau >= 1) & (tau <= TAU_LIMIT) & (tau == np.floor(tau))).all():
        raise ConfigError(f"a fixed-point decay tau must be an integer in [1, {TAU_LIMIT}]")
    return (tau - 1) / tau * (1 + 2.0 ** -50)


def decay_by(x: np.ndarray, k, out: np.ndarray | None = None) -> np.ndarray:
    """One fixed-point decay step of every element of x, into out if given:
    rint(x k) + 0.0, with k = decay_factor(tau)."""
    out = np.multiply(x, k, out=out)
    np.rint(out, out=out)
    return np.add(out, 0.0, out=out)


def decay_array(x: np.ndarray, tau, *, out: np.ndarray | None = None) -> np.ndarray:
    """One reference-mode decay step, x - x / tau, of every element; tau is a
    scalar or broadcasts against x. The result goes to out if given, which
    must not be x. The fixed-point decay is decay_by."""
    out = np.divide(x, tau, out=out)
    return np.subtract(x, out, out=out)  # x / inf is 0: an infinite tau keeps x


def sat_add_array(x: np.ndarray, delta, out: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Saturating add at +/-2**23, into out if given; returns (result,
    n_clipped). The clip runs only when the sum leaves the range."""
    total = np.add(x, delta, out=out)
    if not total.size or (total.min() >= -STATE_LIMIT and total.max() <= STATE_LIMIT):
        return total, 0
    count = int(np.count_nonzero(np.abs(total) > STATE_LIMIT))
    return np.clip(total, -STATE_LIMIT, STATE_LIMIT, out=total), count


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer with ties away from zero (np.round ties to
    even), in float64: a value beyond the int64 range stays as it is."""
    x = np.asarray(x)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)
