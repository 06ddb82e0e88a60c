"""Sigma-delta spiking neuron: step dynamics, analog encoding, reconstruction.

The neuron holds four filtered state variables. u integrates synaptic or
analog input current, i integrates u (plus any bias current), s integrates
the neuron's own spikes weighted by w_fb, and imem accumulates the mismatch
i - s. A spike is emitted when imem exceeds the threshold, imem is then
hard-reset to 0, and the feedback increment w_fb lands in s within the same
step. Spikes are therefore produced exactly when the feedback estimate s has
fallen too far behind the input drive i, which lets s track i with error
bounded by w_fb and makes the spike train a sigma-delta code of the drive.

Update order within one step (decay-then-add, so an increment is never
decayed in the step it arrives and the DC gain of each stage is its tau):

    u    <- decay(u, tau_u)     + spike drive + analog drive
    i    <- decay(i, tau_i)     + u + bias
    s    <- decay(s, tau_s)
    imem <- decay(imem, tau_mem) + i - s
    spike = imem > threshold;  on spike: imem <- 0, s <- s + w_fb

Feedback is same-step; propagation to other neurons (one step to the next
layer, a per-layer delay on recurrent synapses) and the weight exponent
that scales u into i are handled by the network engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .containers import FeatureSequence, SpikeRaster
from .errors import ConfigError, DataError
from .numerics import decay_step

_DEFAULT_TAU_S = 100.0


@dataclass(frozen=True)
class NeuronParams:
    """Parameters of one sigma-delta neuron population.

    Defaults describe a unit-gain reference neuron: the analog encoder drives
    i toward the raw input value and one spike is worth w_fb = 1/tau_s, so a
    neuron spiking every step sustains s = 1.0 = clamp_ceiling.
    """

    tau_mem: float = 1.0
    tau_s: float = _DEFAULT_TAU_S
    tau_i: float = _DEFAULT_TAU_S
    tau_u: float = 2.0
    threshold: float = 1.0 / _DEFAULT_TAU_S
    w_fb: float = 1.0 / _DEFAULT_TAU_S
    clamp_ceiling: float = 1.0

    def __post_init__(self):
        if not self.threshold > 0:
            raise ConfigError("threshold must be positive")
        if not self.w_fb > 0:
            raise ConfigError("w_fb must be positive")
        for name in ("tau_mem", "tau_s", "tau_i", "tau_u"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if not self.clamp_ceiling > 0:
            raise ConfigError("clamp_ceiling must be positive")


@dataclass
class NeuronState:
    u: float = 0.0
    i: float = 0.0
    s: float = 0.0
    imem: float = 0.0


def neuron_step(state: NeuronState, weighted_spike_input: float, analog_input: float,
                params: NeuronParams) -> tuple[NeuronState, bool]:
    """Advance one neuron by one step in reference (real-valued) mode.

    weighted_spike_input is the already-summed synaptic drive for this step;
    analog_input is a raw current added to u. By convention a layer receives
    one or the other, never both (input layers are analog-driven, hidden
    layers spike-driven).
    """
    u = decay_step(state.u, params.tau_u) + weighted_spike_input + analog_input
    i = decay_step(state.i, params.tau_i) + u
    s = decay_step(state.s, params.tau_s)
    imem = decay_step(state.imem, params.tau_mem) + i - s
    spike = imem > params.threshold
    if spike:
        imem = 0.0
        s = s + params.w_fb
    return NeuronState(u=u, i=i, s=s, imem=imem), bool(spike)


def encode_analog(signal: FeatureSequence, params: NeuronParams, oversample: int) -> SpikeRaster:
    """Encode an analog feature sequence into spikes, one neuron per feature.

    Each frame is held constant for `oversample` simulator steps. The drive
    is pre-scaled by 1/(tau_u * tau_i) so the stage gains cancel and i
    settles at the raw input value; signals must lie in [0, clamp_ceiling].
    """
    if not (isinstance(oversample, (int, np.integer)) and oversample >= 1):
        raise ConfigError(f"oversample must be a positive integer, got {oversample}")
    if math.isinf(params.tau_u) or math.isinf(params.tau_i):
        raise ConfigError("analog encoding requires finite tau_u and tau_i")
    data = signal.data
    if np.any(data < 0):
        raise DataError("analog encoder accepts nonnegative signals only")
    if np.any(data > params.clamp_ceiling):
        raise DataError(f"signal exceeds clamp ceiling {params.clamp_ceiling}")

    n_frames, n_units = data.shape
    duration = n_frames * oversample
    drive = data / (params.tau_u * params.tau_i)

    u = np.zeros(n_units)
    i = np.zeros(n_units)
    s = np.zeros(n_units)
    imem = np.zeros(n_units)
    times, units = [], []
    ku_u, ku_i = 1.0 - 1.0 / params.tau_u, 1.0 - 1.0 / params.tau_i
    ku_s, ku_m = 1.0 - 1.0 / params.tau_s, 1.0 - 1.0 / params.tau_mem
    for t in range(duration):
        u = u * ku_u + drive[t // oversample]
        i = i * ku_i + u
        s = s * ku_s
        imem = imem * ku_m + i - s
        fired = imem > params.threshold
        if fired.any():
            imem[fired] = 0.0
            s[fired] += params.w_fb
            idx = np.nonzero(fired)[0]
            times.append(np.full(idx.size, t, dtype=np.int64))
            units.append(idx.astype(np.int64))
    if times:
        times = np.concatenate(times)
        units = np.concatenate(units)
    else:
        times = np.empty(0, dtype=np.int64)
        units = np.empty(0, dtype=np.int64)
    return SpikeRaster(times, units, duration, n_units,
                       dt=signal.frame_period / oversample)


def reconstruct(raster: SpikeRaster, params: NeuronParams, fixed: bool = False,
                rounding: str = "trunc") -> FeatureSequence:
    """Decode a raster back to analog traces by replaying the s dynamics.

    Replays exactly the decay/increment path of the simulator (decay by
    tau_s, add w_fb in the step a spike occurs), so a neuron's own raster
    reconstructs its s trace bit-for-bit.
    """
    s = np.zeros(raster.population)
    trace = np.zeros((raster.duration, raster.population))
    spikes_at = np.zeros(raster.population)
    w_fb = int(params.w_fb) if fixed else params.w_fb
    # group events by timestep for the replay loop
    by_step = np.zeros(raster.duration + 1, dtype=np.int64)
    np.add.at(by_step, raster.times + 1, 1)
    offsets = np.cumsum(by_step)
    from .numerics import decay_array

    for t in range(raster.duration):
        s = decay_array(s, params.tau_s, fixed=fixed, rounding=rounding)
        lo, hi = offsets[t], offsets[t + 1]
        if hi > lo:
            spikes_at[:] = 0
            np.add.at(spikes_at, raster.units[lo:hi], 1)
            s = s + w_fb * spikes_at
        trace[t] = s
    return FeatureSequence(trace, frame_period=raster.dt)
