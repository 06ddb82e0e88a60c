"""Clock-driven simulation of compiled spiking networks.

Every neuron is a two-compartment unit: the dendritic compartment filters
weighted presynaptic spikes into u and relays its potential i (which also
receives the bias current) into the somatic compartment, whose potential
imem integrates i minus the feedback current s; s integrates the neuron's
own spikes through an inhibitory self-synapse. u enters i scaled by
2**-weight_exp, the layer's power-of-two weight exponent (a rounded
arithmetic shift in fixed-point mode). Spikes reach the next layer with one
step of synaptic delay and a layer's own recurrent synapses with rec_delay
steps (the lead of the u stage in networks the compiler emits); the
self-feedback increment lands in the same step the spike is emitted.
sigma_delta_kernel is the package's one neuron update: the engine advances
the whole network with it once per step, and sigma_delta runs its single
neuron and its analog encoder on it.

Two arithmetic modes share one engine: reference (real arithmetic, overflow
impossible) and fixed_point (integer states saturating at +/-2**23, rounded
multiplicative decay). The network parameters (weights, biases, feedback
weights, integer time constants) are identical in both modes, so the modes differ
only in state arithmetic. Both hold states in float64, fixed point as
integers (exact below 2**53) rounded where the hardware rounds: the decay
(numerics.decay_array), u into i as floor((u + half) * 2**-weight_exp), the
rounded shift since scaling by a power of two is exact, and the drive by
truncation. Every other operation sums integers exactly, so the states equal
an int64 evaluation's; they start at +0 and a sum that cancels is +0, so
none is ever -0.0.

One step advances the whole network. The four states u, i, s and imem are
the rows of one [4, batch, N] array with the layers' neurons side by side;
taus are stacked to [4, 1, N] so one call decays all four, and bias,
w_fb (also the threshold) and weight exponent are per-neuron vectors. The decay
writes a second stack, from which the sums are written back in place, so a
step allocates no state-sized temporary, and the peak |state| is
max(-min, max) of the stack. Every synapse reads spikes of an earlier
step, so no update depends on another within a step: the drive is
spikes(t-1) @ W_1 plus spikes(t-d) @ W_d for each other recurrent delay d,
where W_1 holds every layer's w_in below the diagonal and the delay-1 w_rec
blocks on it. Spikes of the last max(rec_delay) steps wait in one
[depth, batch, N] ring. The analog encoder drive overwrites the
encoder's columns; a spike raster replaces the encoder, whose columns are
then left out of the update. Rasters, frame-end s, spike counts, probes and
the readout are column slices of the flat state. Batched samples advance in
lockstep on the same arrays.

The flat step is bit-identical to a layer-by-layer one: weights are
integers and spikes 0/1, so the float64 block products are exact integer
sums in any order, and every other operation is elementwise. Its cost is one
dense N x N matrix per distinct delay, whatever the sparsity of the layer
graph: cheap for the networks of about 100 neurons used here; measure
before relying on it above about 1k neurons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .containers import FeatureSequence, SpikeRaster
from .convert import TAU_MEM, SnnNetwork
from .errors import ConfigError, DataError
from .numerics import STATE_LIMIT, decay_array, round_half_away, sat_add_array

_MAX_SAT_LOG = 1000


@dataclass
class SimulationResult:
    """Outcome of a simulation run. simulate_batch's arrays lead with the
    batch axis; simulate returns one sample's, without it. Rasters and
    probes record the first sample only."""

    scores: np.ndarray                 # [batch, n_classes], the readout
    spikes_per_sample: np.ndarray      # [batch]
    spike_counts: list[np.ndarray]     # per layer [batch, size]
    frame_s: list[np.ndarray]          # per layer [batch, n_frames, size], s at frame ends
    rasters: list[SpikeRaster | None]
    saturation_events: list[tuple]     # (step, layer, var, count), capped log
    saturation_total: int
    peak_state: float
    mode: str
    probes: dict = field(default_factory=dict)


def sigma_delta_kernel(shape, taus, bias, threshold, w_fb, exps, fixed: bool = False,
                       rounding: str = "round"):
    """The decay-then-add update of a population of sigma-delta neurons.

    Returns (state, clips, step). state is the zeroed stack (u, i, s, imem)
    of shape [4, *shape]; step(drive) advances it one step in place and
    returns the spike mask:

        u    <- decay(u, tau_u) + drive
        i    <- decay(i, tau_i) + u * 2**-exps + bias
        imem <- decay(imem, tau_mem) + i - decay(s, tau_s)
        s    <- decay(s, tau_s), plus w_fb where imem > threshold (imem <- 0)

    taus broadcast against the stack ([4, 1, n] per neuron); bias,
    threshold, w_fb and exps are per neuron or scalars. In fixed point the
    adds saturate, and each clipping add appends (var, clips per neuron) to
    clips, which the caller clears."""
    state, decayed = np.zeros((4, *shape)), np.zeros((4, *shape))
    u, i, s, imem = state
    du, di, ds, dimem = decayed
    tmp, fired = np.zeros(shape), np.zeros(shape, dtype=bool)
    scale = np.ldexp(1.0, -exps)  # u enters i as u * 2**-exps, and in fixed
    half = (1 << exps) >> 1       # point as floor((u + half) * 2**-exps)
    clips: list[tuple] = []

    def add(x, delta, into, var):
        if not fixed:
            np.add(x, delta, out=into)
            return
        _, count = sat_add_array(x, delta, out=into)
        if count:
            clips.append((var, (np.abs(x + delta) > STATE_LIMIT).sum(axis=0)))

    def step(drive) -> np.ndarray:
        decay_array(state, taus, fixed=fixed, rounding=rounding, out=decayed)
        add(du, drive, u, "u")
        if fixed:
            np.floor(np.multiply(np.add(u, half, out=tmp), scale, out=tmp), out=tmp)
        else:
            np.multiply(u, scale, out=tmp)
        np.add(di, tmp, out=di)
        add(di, bias, i, "i")
        if fixed:
            add(dimem, np.subtract(i, ds, out=tmp), imem, "imem")
        else:
            np.subtract(np.add(dimem, i, out=imem), ds, out=imem)
        np.greater(imem, threshold, out=fired)
        np.putmask(imem, fired, 0.0)
        add(ds, np.multiply(w_fb, fired, out=tmp), s, "s")
        return fired

    return state, clips, step


def _mode_flag(mode: str) -> bool:
    if mode in ("fixed", "fixed_point"):
        return True
    if mode == "reference":
        return False
    raise ConfigError(f"unknown simulation mode {mode!r}")


def _engine(net: SnnNetwork, x: np.ndarray | None, input_raster: SpikeRaster | None,
            mode: str, record_rasters: bool = False,
            probe: dict | None = None) -> SimulationResult:
    fixed = _mode_flag(mode)
    oversample = net.oversample
    layers = net.layers
    starts = np.cumsum([0] + [l.size for l in layers])  # layer li: columns starts[li]:starts[li + 1]
    n0, n = int(starts[1]), int(starts[-1])

    if input_raster is not None:
        if input_raster.population != n0:
            raise DataError(f"raster population {input_raster.population} != encoder size {n0}")
        if input_raster.duration % oversample:
            raise DataError("raster duration must be a multiple of the oversample ratio")
        batch = 1
        duration = input_raster.duration
        input_spikes = input_raster.dense().astype(np.float64)  # [duration, n0]
    else:
        if x.ndim != 3:
            raise DataError("input must be [batch, frames, features]")
        batch, n_frames_in, width = x.shape
        if n_frames_in == 0:
            raise DataError("empty sequence rejected")
        enc = layers[0]
        if enc.enc_w is None:
            raise DataError("network has no analog encoder layer; feed a spike raster")
        if width != enc.enc_w.shape[1]:
            raise DataError(f"feature width {width} != encoder input width {enc.enc_w.shape[1]}")
        if not np.isfinite(x).all():
            raise DataError("input features must be finite (NaN or inf found)")
        duration = n_frames_in * oversample
        drive_all = (np.einsum("btd,nd->tbn", x, enc.enc_w)
                     * (net.f / (enc.tau_u_fx * enc.tau_s_fx)))
        enc_drive = round_half_away(drive_all) if fixed else drive_all
    # a raster stands in for the encoder, whose columns are then not updated
    first = 0 if input_raster is None else 1
    lo = int(starts[first])

    n_frames = duration // oversample
    shape = (batch, n - lo)  # the updated columns

    def per_neuron(attr):
        return np.concatenate([np.broadcast_to(getattr(l, attr), l.size)
                               for l in layers])[lo:].astype(np.float64)

    # both modes run on the integer network constants; reference mode is
    # real-valued state arithmetic on the same network. The i stage shares
    # tau_s and a neuron fires above its w_fb.
    tau_u, tau_s, w_fb = per_neuron("tau_u_fx"), per_neuron("tau_s_fx"), per_neuron("w_fb")
    taus = np.stack([tau_u, tau_s, tau_s, np.full_like(tau_s, TAU_MEM)])[:, None, :]
    state, clips, step = sigma_delta_kernel(
        shape, taus, per_neuron("bias"), w_fb, w_fb,
        per_neuron("weight_exp").astype(np.int64), fixed, net.config.decay_rounding)
    s = state[2]

    # one [n, n] block matrix per distinct synaptic delay, presynaptic rows
    delays = {1} | {l.rec_delay for l in layers if l.w_rec is not None}
    mats = {d: np.zeros((n, n)) for d in delays}
    for li in range(1, len(layers)):
        cols = slice(starts[li], starts[li + 1])
        mats[1][starts[li - 1]:starts[li], cols] = layers[li].w_in.T
        if layers[li].w_rec is not None:
            mats[layers[li].rec_delay][cols, cols] = layers[li].w_rec.T
    mats = {d: np.ascontiguousarray(m[:, lo:]) for d, m in mats.items()}
    w_1 = mats.pop(1)
    # slot t % depth of the ring holds the spikes of step t
    depth = max(delays)
    ring = np.zeros((depth, batch, n))

    drive, tmp = np.zeros(shape), np.zeros(shape)
    counts = np.zeros((batch, n))
    frame_s = np.zeros((batch, n_frames, n))
    spiked = np.zeros((duration if record_rasters else 0, n - lo), dtype=bool)
    out = slice(int(starts[-2]) - lo, None)
    window = max(1, math.ceil(net.source_model.readout_fraction * duration))
    acc = np.zeros((batch, layers[-1].size))
    acc_start = duration - window
    sat_events: list[tuple] = []
    sat_total = 0
    peak = 0.0
    probe = probe or {}
    probes = {(li, var): np.zeros((duration, len(ids)))
              for li, ids in probe.items() for var in ("u", "i", "s", "imem")}
    probe_cols = {li: int(starts[li]) - lo + np.asarray(ids, dtype=np.int64)
                  for li, ids in probe.items() if li >= first}

    for t in range(duration):
        np.matmul(ring[(t - 1) % depth], w_1, out=drive)
        for d, w in mats.items():
            drive += np.matmul(ring[(t - d) % depth], w, out=tmp)
        if fixed:
            np.trunc(drive, out=drive)
        if not lo:
            drive[:, :n0] = enc_drive[t // oversample]
        fired = step(drive)
        peak = max(peak, -float(state.min()), float(state.max()))
        slot = ring[t % depth]
        slot[:, lo:] = fired
        if lo:
            slot[:, :lo] = input_spikes[t]
        counts += slot
        if record_rasters:
            spiked[t] = fired[0]
        if clips:
            per_layer = [(var, np.add.reduceat(over, starts[first:-1] - lo))
                         for var, over in clips]
            sat_total += sum(int(c.sum()) for _, c in per_layer)
            sat_events += [(t, first + k, var, int(c[k])) for k in range(len(layers) - first)
                           for var, c in per_layer if c[k]][:_MAX_SAT_LOG - len(sat_events)]
            clips.clear()
        if (t + 1) % oversample == 0:
            frame_s[:, t // oversample, lo:] = s
        if t >= acc_start:
            acc += s[:, out]
        for li, cols in probe_cols.items():
            for var, v in zip(("u", "i", "s", "imem"), state):
                probes[(li, var)][t] = v[0, cols]

    counts = counts.astype(np.int64)

    def per_layer(a):
        return np.split(a, starts[1:-1], axis=-1)

    rasters: list[SpikeRaster | None] = [None] * len(layers)
    if record_rasters:
        rasters = [input_raster if li < first else
                   SpikeRaster(*np.nonzero(spiked[:, starts[li] - lo:starts[li + 1] - lo]),
                               duration, layer.size, net.timing.t_snn)
                   for li, layer in enumerate(layers)]
    return SimulationResult(
        scores=acc / window / net.f, spikes_per_sample=counts.sum(axis=1),
        spike_counts=per_layer(counts), frame_s=per_layer(frame_s), rasters=rasters,
        saturation_events=sat_events, saturation_total=sat_total, peak_state=peak,
        mode=mode, probes=probes)


def simulate(net: SnnNetwork, inp, mode: str = "reference",
             probe: dict | None = None, record_rasters: bool = True) -> SimulationResult:
    """Simulate one input: a FeatureSequence through the analog encoder, or a
    SpikeRaster of pre-encoded input spikes that replaces the encoder output."""
    if isinstance(inp, FeatureSequence):
        result = _engine(net, inp.data[None, :, :], None, mode, record_rasters, probe)
    elif isinstance(inp, SpikeRaster):
        result = _engine(net, None, inp, mode, record_rasters, probe)
    else:
        raise DataError(f"unsupported input type {type(inp).__name__}")
    return replace(result, scores=result.scores[0],
                   spikes_per_sample=result.spikes_per_sample[0],
                   spike_counts=[c[0] for c in result.spike_counts],
                   frame_s=[fs[0] for fs in result.frame_s])


def simulate_batch(net: SnnNetwork, x: np.ndarray, mode: str = "reference") -> SimulationResult:
    """Simulate a stack of equal-length feature sequences [batch, frames, dim]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] < 1:
        raise DataError("simulate_batch expects [batch >= 1, frames, features]")
    return _engine(net, x, None, mode)


def readout(result: SimulationResult, net: SnnNetwork) -> np.ndarray:
    """Class scores: output-layer s averaged over the trailing readout window
    and rescaled to source-network units by 1/f, as the engine accumulated
    them."""
    return result.scores


def compare_activations(ann_traces: list[np.ndarray], result: SimulationResult,
                        net: SnnNetwork) -> dict:
    """Per-layer error metrics between source-network activations and the
    decoded spiking activations (frame-sampled s rescaled by 1/f). Traces of
    a batched result lead with the batch axis, and then each per-layer
    figure is a list with one entry per sample."""
    if len(ann_traces) != len(net.layers):
        raise DataError(f"expected {len(net.layers)} layer traces, got {len(ann_traces)}")
    report = {"per_layer": [], "oversample": net.oversample, "mode": result.mode}
    for li, (ann, layer) in enumerate(zip(ann_traces, net.layers)):
        snn = result.frame_s[li] / net.f
        if ann.shape != snn.shape:
            raise DataError(f"layer {li}: trace shape mismatch {ann.shape} vs {snn.shape}")
        batched = ann.ndim == 3
        rel_mse, deviation = [], []
        for a, b in (zip(ann, snn) if batched else [(ann, snn)]):
            diff = a - b
            num, den = float((diff ** 2).sum()), float((a ** 2).sum())
            rel_mse.append(num / den if den > 0 else (0.0 if num == 0.0 else math.inf))
            deviation.append(float(np.abs(diff).max()))
        report["per_layer"].append({
            "layer": li,
            "kind": layer.kind,
            "relative_mse": rel_mse if batched else rel_mse[0],
            "max_abs_deviation": deviation if batched else deviation[0],
            "spike_count": result.spike_counts[li].sum(axis=-1).tolist(),
        })
    report["total_spikes"] = int(sum(np.sum(e["spike_count"]) for e in report["per_layer"]))
    report["saturation_events"] = result.saturation_total
    return report
