"""Sigma-delta spiking neuron: one-neuron steps, analog encoding, reconstruction.

The neuron is the compiled one, the package's only neuron: three decaying
stages and a membrane. u integrates synaptic or analog input current, i
integrates u (plus any bias current), s integrates the neuron's own spikes
weighted by w_fb, and imem is the mismatch i - s. A spike is emitted when
imem exceeds w_fb, imem is then hard-reset to 0, and the feedback increment
w_fb lands in s within the same step. Spikes are therefore produced exactly
when the feedback estimate s has fallen too far behind the input drive i,
which lets s track i with error bounded by w_fb and makes the spike train a
sigma-delta code of the drive.

Update order within one step (decay-then-add, so an increment is never
decayed in the step it arrives and the DC gain of each stage is its tau):

    u    <- decay(u, tau_u) + spike drive + analog drive
    i    <- decay(i, tau_s) + u + bias
    s    <- decay(s, tau_s)
    imem <- i - s
    spike = imem > w_fb;  on spike: s <- s + w_fb, imem reads 0 (the reset)

i decays by tau_s, the tau of s, so that s tracks i. The membrane's tau is
1, and a decay by tau 1 is exactly 0 (x - x / 1, or in fixed point rint
of x * 0), so imem keeps nothing of its last value: it needs no decay and
its state is not an input of the step, nor is the reset part of it:
neuron_step reports imem as 0.0 after a spike, as the engine's probe does.

Feedback is same-step; propagation to other neurons (one step to the next
layer, a per-layer delay on recurrent synapses) and the weight exponent
that scales u into i are handled by the network engine. The update itself
is the engine's, snn_sim.sigma_delta_kernel: neuron_step runs one neuron on
it and encode_analog a population of uncoupled ones, with no bias and
weight exponent 0, in reference mode.

At 1-40 uncoupled neurons every numpy call of a step is overhead, so the
codec spends none it can spare. The kernel sees, once per run, that every
exponent and bias is 0 and drops the scale (u * 1 is u) and the bias add
(+ 0.0 changes only -0.0, which a sum with a decayed state never is), so i
is di + u. encode_analog hands the step each frame's held drive as a ready
[1, n] row, and reconstruct decays each row into one buffer with the
reference decay's two ufuncs, three numpy calls a step. Rasters and
traces are bit-identical to a step-by-step loop of the update above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .containers import FeatureSequence, SpikeRaster
from .errors import ConfigError, DataError
from .snn_sim import sigma_delta_kernel

_DEFAULT_TAU_S = 100.0


@dataclass(frozen=True)
class NeuronParams:
    """Parameters of one sigma-delta neuron population.

    tau_s is the tau of both the i stage and the feedback filter s, and
    tau_i reads it. A neuron spiking every step sustains s = w_fb * tau_s,
    its largest value (the compiler's full-rate activation). Defaults
    describe a unit-gain reference neuron: the analog encoder drives i
    toward the raw input value and one spike is worth w_fb = 1/tau_s, so
    that s is 1.0.
    """

    tau_s: float = _DEFAULT_TAU_S
    tau_u: float = 2.0
    w_fb: float = 1.0 / _DEFAULT_TAU_S

    def __post_init__(self):
        if not self.w_fb > 0:
            raise ConfigError("w_fb must be positive")
        for name in ("tau_s", "tau_u"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")

    @property
    def tau_i(self) -> float:
        return self.tau_s


@dataclass
class NeuronState:
    u: float = 0.0
    i: float = 0.0
    s: float = 0.0
    imem: float = 0.0


def _population(params: NeuronParams, size: int):
    """(state, step) of `size` uncoupled neurons of one population, in
    reference mode."""
    taus = np.array([params.tau_u, params.tau_s])[:, None, None]
    state, _, step = sigma_delta_kernel((1, size), taus, bias=0.0, w_fb=params.w_fb, exps=0)
    return state, step


def neuron_step(state: NeuronState, weighted_spike_input: float, analog_input: float,
                params: NeuronParams) -> tuple[NeuronState, bool]:
    """Advance one neuron by one step in reference (real-valued) mode.

    weighted_spike_input is the already-summed synaptic drive for this step;
    analog_input is a raw current added to u. By convention a layer receives
    one or the other, never both (input layers are analog-driven, hidden
    layers spike-driven).
    """
    states, step = _population(params, 1)
    states[:, 0, 0] = (state.u, state.i, state.s, state.imem)
    fired = bool(step(weighted_spike_input + analog_input)[0, 0])
    u, i, s, imem = states[:, 0, 0].tolist()
    return NeuronState(u, i, s, 0.0 if fired else imem), fired  # the kernel leaves the reset


def encode_analog(signal: FeatureSequence, params: NeuronParams, oversample: int) -> SpikeRaster:
    """Encode an analog feature sequence into spikes, one neuron per feature.

    Each frame is held constant for `oversample` simulator steps. The drive
    is pre-scaled by 1/(tau_u * tau_s) so the stage gains cancel and i
    settles at the raw input value; signals must lie in [0, w_fb * tau_s],
    up to the s of a neuron spiking every step.
    """
    if not (isinstance(oversample, (int, np.integer)) and oversample >= 1):
        raise ConfigError(f"oversample must be a positive integer, got {oversample}")
    if math.isinf(params.tau_u) or math.isinf(params.tau_s):
        raise ConfigError("analog encoding requires finite tau_u and tau_s")
    data = signal.data
    # NaN passes both range checks below
    if not np.isfinite(data).all():
        raise DataError("analog encoder accepts finite signals only")
    if np.any(data < 0):
        raise DataError("analog encoder accepts nonnegative signals only")
    if np.any(data > (top := params.w_fb * params.tau_s)):
        raise DataError(f"signal exceeds {top}, the full-rate s = w_fb * tau_s")

    n_frames, n_units = data.shape
    duration = n_frames * oversample
    # each frame's held drive, a [1, n] row of the population's shape
    drive = (data / (params.tau_u * params.tau_s))[:, None, :]
    _, step = _population(params, n_units)
    spikes = np.zeros((n_frames, oversample, n_units), dtype=bool)
    for held, frame in zip(drive, spikes):
        for t in range(oversample):
            frame[t] = step(held)
    # flat index (frame * oversample + t) * n_units + unit: time * n_units + unit
    return SpikeRaster(*np.divmod(np.flatnonzero(spikes), n_units), duration, n_units,
                       dt=signal.frame_period / oversample)


def reconstruct(raster: SpikeRaster, params: NeuronParams) -> FeatureSequence:
    """Decode a raster back to analog traces by replaying the s dynamics.

    Replays exactly the decay/increment path of the simulator in reference
    mode (decay by tau_s, add w_fb in the step a spike occurs), so a
    neuron's own raster reconstructs its s trace bit-for-bit.
    """
    # row t + 1 starts as the increments of step t and ends as s after it
    trace = np.zeros((raster.duration + 1, raster.population))
    np.add.at(trace, (raster.times + 1, raster.units), params.w_fb)
    # numerics.decay_array's two ufuncs written out: three calls a step
    decayed, tau = np.empty(raster.population), params.tau_s
    for prev, row in zip(trace, trace[1:]):
        np.divide(prev, tau, out=decayed)
        row += np.subtract(prev, decayed, out=decayed)
    return FeatureSequence(trace[1:], frame_period=raster.dt)
