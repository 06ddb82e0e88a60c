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

Two arithmetic modes share one engine: reference (float64, real time
constants, overflow impossible) and fixed_point (int64 states saturating at
+/-2**23, truncated multiplicative decay, integer time constants). The
network parameters (weights, biases, thresholds) are identical integers in
both modes, so the modes differ only in state arithmetic.

One step advances the whole network. Each of the four states is a single
[batch, N] array with the layers' neurons side by side, and taus, bias,
threshold, w_fb and weight exponent are per-neuron vectors. Every synapse
reads spikes of an earlier step, so no update depends on another within a
step: the drive is spikes(t-1) @ W_1 plus spikes(t-d) @ W_d for each other
recurrent delay d, where W_1 holds every layer's w_in below the diagonal
and the delay-1 w_rec blocks on it. Spikes of the last max(rec_delay) steps
wait in one [depth, batch, N] ring. The analog encoder drive overwrites the
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
from dataclasses import dataclass, field

import numpy as np

from .containers import FeatureSequence, SpikeRaster
from .convert import SnnNetwork
from .errors import ConfigError, DataError
from .numerics import STATE_LIMIT, decay_array, round_half_away, sat_add_array

_MAX_SAT_LOG = 1000


@dataclass
class SimulationTrace:
    """Outcome of a single-sample simulation run."""

    rasters: list[SpikeRaster | None]
    frame_s: list[np.ndarray]          # per layer [n_frames, size], s at frame ends
    out_s_steps: np.ndarray            # [duration, n_classes]
    spike_counts: list[np.ndarray]     # per layer [size]
    saturation_events: list[tuple]     # (step, layer, var, count), capped log
    saturation_total: int
    peak_state: float
    mode: str
    duration: int
    oversample: int
    probes: dict = field(default_factory=dict)


@dataclass
class BatchResult:
    """Outcome of a batched simulation (no rasters, readout pre-accumulated)."""

    scores: np.ndarray                 # [batch, n_classes]
    spikes_per_sample: np.ndarray      # [batch]
    spike_counts: list[np.ndarray]     # per layer [batch, size]
    frame_s: list[np.ndarray]          # per layer [batch, n_frames, size]
    saturation_total: int
    peak_state: float
    mode: str


def _mode_flag(mode: str) -> bool:
    if mode in ("fixed", "fixed_point"):
        return True
    if mode == "reference":
        return False
    raise ConfigError(f"unknown simulation mode {mode!r}")


def _engine(net: SnnNetwork, x: np.ndarray | None, input_raster: SpikeRaster | None,
            mode: str, single: bool, record_rasters: bool = False, probe: dict | None = None):
    fixed = _mode_flag(mode)
    oversample = net.oversample
    layers = net.layers
    rounding = net.config.decay_rounding
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
                     * (net.f / (enc.tau_u_fx * enc.tau_i_fx)))
        enc_drive = round_half_away(drive_all) if fixed else drive_all
    # a raster stands in for the encoder, whose columns are then not updated
    first = 0 if input_raster is None else 1
    lo = int(starts[first])

    n_frames = duration // oversample
    dtype = np.int64 if fixed else np.float64

    def per_neuron(attr, kind=dtype):
        return np.concatenate([np.broadcast_to(getattr(l, attr), l.size)
                               for l in layers])[lo:].astype(kind)

    # both modes run on the integer network constants; reference mode is
    # real-valued state arithmetic on the same network
    taus = [per_neuron(a) for a in ("tau_u_fx", "tau_i_fx", "tau_s_fx", "tau_mem_fx")]
    bias = per_neuron("bias")
    threshold = per_neuron("threshold", np.int64)
    w_fb = per_neuron("w_fb", np.int64)
    exps = per_neuron("weight_exp", np.int64)
    half = (1 << exps) >> 1        # u enters i as (u + half) >> exps in fixed point
    scale = np.ldexp(1.0, -exps)   # and as u * 2**-exps in reference mode
    gain = float(net.config.weight_gain)

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

    u, i, s, imem = (np.zeros((batch, n - lo), dtype=dtype) for _ in range(4))
    counts = np.zeros((batch, n))
    frame_s = np.zeros((batch, n_frames, n))
    out = slice(int(starts[-2]) - lo, None)
    out_hist = np.zeros((duration, layers[-1].size)) if single else None
    window = max(1, math.ceil(net.source_model.readout_fraction * duration))
    acc = np.zeros((batch, layers[-1].size))
    acc_start = duration - window
    events: list[tuple] = []
    sat_events: list[tuple] = []
    sat_total = 0
    peak = 0.0
    probe = probe or {}
    probes = {(li, var): np.zeros((duration, len(ids)))
              for li, ids in probe.items() for var in ("u", "i", "s", "imem")}
    probe_cols = {li: int(starts[li]) - lo + np.asarray(ids, dtype=np.int64)
                  for li, ids in probe.items() if li >= first}
    clips: list[tuple] = []  # (var, clips per updated layer) of the current step

    def sat(x, delta, var):
        total, count = sat_add_array(x, delta)
        if count:
            over = (np.abs(x + delta) > STATE_LIMIT).sum(axis=0)
            clips.append((var, np.add.reduceat(over, starts[first:-1] - lo)))
        return total

    for t in range(duration):
        drive = ring[(t - 1) % depth] @ w_1
        for d, w in mats.items():
            drive += ring[(t - d) % depth] @ w
        drive *= gain
        if fixed:
            drive = drive.astype(np.int64)
        if not lo:
            drive[:, :n0] = enc_drive[t // oversample]
        u, i, s, imem = (decay_array(v, tau, fixed=fixed, rounding=rounding)
                         for v, tau in zip((u, i, s, imem), taus))
        if fixed:
            u = sat(u, drive, "u")
            i = sat(i, ((u + half) >> exps) + bias, "i")
            imem = sat(imem, i - s, "imem")
        else:
            u = u + drive
            i = i + u * scale + bias
            imem = imem + i - s
        fired = imem > threshold
        imem = np.where(fired, 0, imem)
        s = sat(s, w_fb * fired, "s") if fixed else s + w_fb * fired
        peak = max(peak, float(np.abs(np.concatenate((u, i, s, imem))).max()))
        slot = ring[t % depth]
        slot[:, lo:] = fired
        if lo:
            slot[:, :lo] = input_spikes[t]
        counts += slot
        if record_rasters:
            idx = np.flatnonzero(fired[0])
            if idx.size:
                events.append((t, idx))
        if clips:
            for k in range(len(layers) - first):
                for var, per_layer in clips:
                    if per_layer[k]:
                        sat_total += int(per_layer[k])
                        if len(sat_events) < _MAX_SAT_LOG:
                            sat_events.append((t, first + k, var, int(per_layer[k])))
            clips.clear()
        if (t + 1) % oversample == 0:
            frame_s[:, t // oversample, lo:] = s
        if single:
            out_hist[t] = s[0, out]
        if t >= acc_start:
            acc += s[:, out]
        for li, cols in probe_cols.items():
            for var, v in (("u", u), ("i", i), ("s", s), ("imem", imem)):
                probes[(li, var)][t] = v[0, cols]

    counts = counts.astype(np.int64)

    def per_layer(a):
        return np.split(a, starts[1:-1], axis=-1)

    if not single:
        return BatchResult(scores=acc / window / net.f, spikes_per_sample=counts.sum(axis=1),
                           spike_counts=per_layer(counts), frame_s=per_layer(frame_s),
                           saturation_total=sat_total, peak_state=peak, mode=mode)
    rasters: list[SpikeRaster | None] = [None] * len(layers)
    if record_rasters:
        times = np.concatenate([np.full(idx.size, t, dtype=np.int64) for t, idx in events]
                               or [np.empty(0, dtype=np.int64)])
        units = np.concatenate([idx for _, idx in events]
                               or [np.empty(0, dtype=np.int64)]).astype(np.int64) + lo
        for li, layer in enumerate(layers):
            mine = (units >= starts[li]) & (units < starts[li + 1])
            rasters[li] = (input_raster if li < first else
                           SpikeRaster(times[mine], units[mine] - starts[li], duration,
                                       layer.size, net.timing.t_snn))
    return SimulationTrace(
        rasters=rasters, frame_s=per_layer(frame_s[0]), out_s_steps=out_hist,
        spike_counts=per_layer(counts[0]), saturation_events=sat_events,
        saturation_total=sat_total, peak_state=peak, mode=mode, duration=duration,
        oversample=oversample, probes=probes)


def simulate(net: SnnNetwork, inp, mode: str = "reference",
             probe: dict | None = None, record_rasters: bool = True) -> SimulationTrace:
    """Simulate one input: a FeatureSequence through the analog encoder, or a
    SpikeRaster of pre-encoded input spikes that replaces the encoder output."""
    if isinstance(inp, FeatureSequence):
        return _engine(net, inp.data[None, :, :], None, mode, True, record_rasters, probe)
    if isinstance(inp, SpikeRaster):
        return _engine(net, None, inp, mode, True, record_rasters, probe)
    raise DataError(f"unsupported input type {type(inp).__name__}")


def simulate_batch(net: SnnNetwork, x: np.ndarray, mode: str = "reference") -> BatchResult:
    """Simulate a stack of equal-length feature sequences [batch, frames, dim]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] < 1:
        raise DataError("simulate_batch expects [batch >= 1, frames, features]")
    return _engine(net, x, None, mode, single=False)


def readout(trace: SimulationTrace, net: SnnNetwork) -> np.ndarray:
    """Class scores: output-layer s averaged over the trailing readout window
    and rescaled to source-network units by 1/f."""
    if trace.out_s_steps is None or trace.out_s_steps.shape[0] != trace.duration:
        raise DataError("trace does not cover the full duration")
    window = max(1, math.ceil(net.source_model.readout_fraction * trace.duration))
    return trace.out_s_steps[-window:].mean(axis=0) / net.f


def compare_activations(ann_traces: list[np.ndarray], snn_trace: SimulationTrace,
                        net: SnnNetwork) -> dict:
    """Per-layer error metrics between source-network activations and the
    decoded spiking activations (frame-sampled s rescaled by 1/f)."""
    if len(ann_traces) != len(net.layers):
        raise DataError(f"expected {len(net.layers)} layer traces, got {len(ann_traces)}")
    report = {"per_layer": [], "oversample": snn_trace.oversample, "mode": snn_trace.mode}
    for li, (ann, layer) in enumerate(zip(ann_traces, net.layers)):
        snn = snn_trace.frame_s[li] / net.f
        if ann.shape != snn.shape:
            raise DataError(f"layer {li}: trace shape mismatch {ann.shape} vs {snn.shape}")
        diff = ann - snn
        denom = float((ann ** 2).sum())
        num = float((diff ** 2).sum())
        rel_mse = num / denom if denom > 0 else (0.0 if num == 0.0 else math.inf)
        report["per_layer"].append({
            "layer": li,
            "kind": layer.kind,
            "relative_mse": rel_mse,
            "max_abs_deviation": float(np.abs(diff).max()),
            "spike_count": int(snn_trace.spike_counts[li].sum()),
        })
    report["total_spikes"] = int(sum(e["spike_count"] for e in report["per_layer"]))
    report["saturation_events"] = snn_trace.saturation_total
    return report
