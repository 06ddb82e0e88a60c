"""Clock-driven simulation of compiled spiking networks.

Every neuron is a two-compartment unit: the dendritic compartment filters
weighted presynaptic spikes into u and relays its potential i (which also
receives the bias current) into the somatic compartment, whose potential
imem is i minus the feedback current s; s integrates the neuron's own
spikes through an inhibitory self-synapse, and the neuron fires when imem
exceeds w_fb. The soma's tau is 1, and a decay by tau 1 is exactly +0 in
both modes, so imem keeps nothing of its last value and is never decayed:
imem <- i - s. u enters i scaled by 2**-weight_exp, the layer's
power-of-two weight exponent (a rounded arithmetic shift in fixed-point
mode). Spikes reach the next layer with one step of synaptic delay and a
layer's own recurrent synapses with rec_delay steps (the lead of the u
stage in networks the compiler emits); the self-feedback increment lands
in the same step the spike is emitted.
sigma_delta_kernel is the package's one neuron update: the engine advances
the whole network with it once per step, and sigma_delta runs its single
neuron and its analog encoder on it.

Two arithmetic modes share one engine: reference (real arithmetic, overflow
impossible) and fixed_point (integer states saturating at +/-2**23, rounded
multiplicative decay). The network parameters (weights, biases, feedback
weights, integer time constants) are identical in both modes, so the modes differ
only in state arithmetic. Both hold states in float64, fixed point as
integers (exact below 2**53) rounded where the hardware rounds: the decay
(numerics.decay_by, one rounded multiply), u into i as
floor((u + half) * 2**-weight_exp), the rounded shift since scaling by a
power of two is exact, and the encoder's drive half away from zero, kept
in float64 so that a huge one saturates u like any other sum. The
synaptic drive is an integer already (see below). Every other operation
sums integers exactly, so the states equal an int64 evaluation's; they
start at +0, the decay adds 0.0, and a sum that cancels and the reset
(imem - imem) are +0, so none is ever -0.0.

Saturation is checked once per step. A fixed-point step runs its adds
unclipped, exactly as reference mode does, then takes the min and max of
the whole state stack, with imem before its reset: an imem that left the
range and fired is 0 afterwards. Only if some sum left +/-2**23 does the
step run the adds again from the decayed states and the drive, which the
first run left as they were, each clipped at the rails by
numerics.sat_add_array and its clips logged. The clipped re-run is the
saturating arithmetic, and a step that clips nothing equals it.

One step advances the whole network. The four states u, i, s and imem are
the rows of one [4, batch, N] array with the layers' neurons side by side.
The kernel lays every per-neuron constant (taus, the fixed-point decay
multipliers, bias, w_fb, which is also the threshold, and the shift scale) out
once per run as a contiguous array of the full shape it meets, so a step
broadcasts nothing, and one call decays the u, i and s rows. The decay
writes a second stack, from which the sums are written back in place, so a
step allocates no state-sized temporary, and the peak |state| is
max(-min, max) of the stack, in fixed point the bound check's. Every
synapse reads spikes of an earlier step, so no update depends on another
within a step. Each distinct synaptic delay d (one step for every layer's
w_in, rec_delay for its w_rec) has a block matrix W_d, presynaptic rows by
the non-encoder columns, cut to the span of its nonzero rows: a tap. The
cuts stack into one matrix w, and the taps' rows into the columns of a
delay line of max(rec_delay) slots: the spikes of step t enter each tap's
segment of slot (t + d) % depth, so the drive of step t is the one product
line[t % depth] @ w. A rec_delay of 1 shares the feed-forward tap. The
analog encoder's drive is written into its columns at frame starts only,
and nothing else writes them; a spike raster replaces the encoder, whose
columns are then left out of the update (and cannot be probed). Rasters,
frame-end s, spike counts, probes and the readout are column slices of
the flat state. Batched samples advance in lockstep on the same arrays.

The synaptic drive is exact in float32. Spikes are 0/1 and weights
integers, so every partial sum of a drive column, in any order and over
all delays, is an integer no larger than the column's absolute-weight sum.
If no column's sum exceeds 2**24 (float32 holds every integer up to
2**24), the line, w and the product are float32; otherwise float64, exact
to 2**53. The network alone decides, once per run. So the flat step is
bit-identical to a layer-by-layer one, whatever the order of the sums, and
every other operation is elementwise. Its cost is one dense product per
step over the stacked row spans, whatever the sparsity inside them: cheap
for the networks of about 100 neurons used here; measure before relying on
it above about 1k neurons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .containers import FeatureSequence, SpikeRaster
from .convert import SnnNetwork
from .errors import ConfigError, DataError
from .numerics import (STATE_LIMIT, decay_array, decay_by, decay_factor, round_half_away,
                       rounder, sat_add_array)

_MAX_SAT_LOG = 1000
#: Integers up to this magnitude are exact in float32.
_FLOAT32_EXACT = 1 << 24


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


def sigma_delta_kernel(shape, taus, bias, w_fb, exps, fixed: bool = False,
                       rounding: str = "round", peak: list | None = None):
    """The decay-then-add update of a population of compiled neurons.

    Returns (state, clips, step). state is the zeroed stack (u, i, s, imem)
    of shape [4, *shape]; step(drive) advances it one step in place and
    returns the spike mask:

        u    <- decay(u, tau_u) + drive
        i    <- decay(i, tau_i) + u * 2**-exps + bias
        imem <- i - decay(s, tau_s)
        s    <- decay(s, tau_s), plus w_fb where imem > w_fb (imem <- 0)

    taus, the rows (tau_u, tau_i, tau_s), broadcast against [3, *shape]
    ([3, 1, n] per neuron); bias, w_fb and exps are per neuron or scalars.
    imem has tau 1, and a decay by tau 1 is exactly +0 in both modes (x -
    x / 1, and rint or trunc of x * 0), so imem keeps nothing of its last
    value and is not decayed. In fixed point the adds saturate, and each
    clipping add appends (var, clips per neuron) to clips, which the caller
    clears.

    The constants are laid out once, contiguous at the full shape they meet
    in the step, so no step broadcasts. Two passes that cannot change a
    value are dropped for the run. When every exponent is 0 the scale goes:
    u * 1 is u, and in fixed point floor(u + 0) is the integer u. When every
    bias is 0 the bias add goes: + 0.0 changes only -0.0, and di + u *
    2**-exps is never -0.0, since a decayed state never is and a sum is -0.0
    only if both its terms are; i <- di + u is written straight into i. The
    clipped re-run forms the same sum and adds the bias, clipped.

    A fixed-point step runs the adds unclipped, as reference mode does (on
    integers below 2**53 every sum is exact), then bounds the stack once,
    before the reset so that an imem that left the range and fired counts.
    Only if some sum left +/-2**23 does it run the adds again, each clipped
    and logged by sat_add_array, from the decayed rows and the drive, which
    the first run left as they were.

    peak, if given, is a one-element list that each step raises to the
    largest |state| after it. In fixed point with w_fb >= 0, the bound
    check's min and max serve: s >= 0, so imem = i - s <= i, and a neuron
    that fires has imem > w_fb >= 0, whose reset to 0 moves neither
    extreme. Otherwise the step reduces the stack after the reset."""
    taus = np.ascontiguousarray(np.broadcast_to(taus, (3, *shape)), dtype=np.float64)
    if fixed:
        factor, rnd = decay_factor(taus), rounder(rounding)

    def laid_out(value):
        return np.ascontiguousarray(np.broadcast_to(value, shape), dtype=np.float64)

    bias, w_fb = laid_out(bias), laid_out(w_fb)
    exps = np.asarray(exps, dtype=np.int64)
    # u enters i as u * 2**-exps, and in fixed point as floor((u + half) * 2**-exps)
    scale, half = laid_out(np.ldexp(1.0, -exps)), laid_out((1 << exps) >> 1)
    state, decayed = np.zeros((4, *shape)), np.zeros((3, *shape))
    u, i, s, imem = state
    du, di, ds = decayed
    live = state[:3]
    tmp, fired, spikes = np.zeros(shape), np.zeros(shape, dtype=bool), np.zeros(shape)
    clips: list[tuple] = []
    checked_peak = fixed and (w_fb >= 0).all()
    # passes that change no value, dropped for the run (docstring)
    unit_scale, no_bias = (exps == 0).all(), not bias.any()

    def into_i(out):
        """di + u * 2**-exps (rounded in fixed point), in out."""
        if unit_scale:
            return np.add(di, u, out=out)
        if fixed:
            np.floor(np.multiply(np.add(u, half, out=tmp), scale, out=tmp), out=tmp)
        else:
            np.multiply(u, scale, out=tmp)
        return np.add(di, tmp, out=out)

    def sat_add(x, delta, into, var):
        # into aliases neither operand: the clip count sums them again
        _, count = sat_add_array(x, delta, out=into)
        if count:
            clips.append((var, (np.abs(x + delta) > STATE_LIMIT).sum(axis=0)))

    def fire():
        """The spike mask, also as 0.0/1.0 in spikes, and w_fb * spikes in tmp."""
        np.greater(imem, w_fb, out=fired)
        np.copyto(spikes, fired)
        return np.multiply(w_fb, spikes, out=tmp)

    def saturating(drive):
        """The adds of the step again, each clipped and its clips logged."""
        sat_add(du, drive, u, "u")
        sat_add(into_i(tmp), bias, i, "i")
        sat_add(i, np.negative(ds, out=tmp), imem, "imem")  # i + -ds is i - ds
        sat_add(ds, fire(), s, "s")

    def step(drive) -> np.ndarray:
        if fixed:
            decay_by(live, factor, rnd, out=decayed)
        else:
            decay_array(live, taus, out=decayed)
        np.add(du, drive, out=u)
        if no_bias:
            into_i(i)
        else:
            np.add(into_i(tmp), bias, out=i)
        np.subtract(i, ds, out=imem)
        np.add(ds, fire(), out=s)
        if fixed:
            low, high = state.min(), state.max()
            if not (low >= -STATE_LIMIT and high <= STATE_LIMIT):
                saturating(drive)
                low, high = state.min(), state.max()
        # the reset: imem - imem is +0 whatever the sign of imem, and
        # imem - (+/-0) is imem
        np.subtract(imem, np.multiply(imem, spikes, out=tmp), out=imem)
        if peak is not None:
            if not checked_peak:
                low, high = state.min(), state.max()
            peak[0] = max(peak[0], -float(low), float(high))
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
        batch, n_frames_in, width = x.shape
        enc = layers[0]
        if width != enc.enc_w.shape[1]:
            raise DataError(f"feature width {width} != encoder input width {enc.enc_w.shape[1]}")
        duration = n_frames_in * oversample
        with np.errstate(over="ignore", invalid="ignore"):
            drive_all = (np.einsum("btd,nd->tbn", x, enc.enc_w)
                         * (net.f / (enc.tau_u_fx * enc.tau_s_fx)))
        if not np.isfinite(drive_all).all():
            raise DataError("the encoder drive is not finite: NaN or inf features, or "
                            "features too large for the encoder weights and f")
        # held in float64, a huge drive saturates u like any other sum
        enc_drive = round_half_away(drive_all) if fixed else drive_all
    if duration == 0:
        raise DataError("empty sequence rejected")
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
    peak = [0.0]
    state, clips, step = sigma_delta_kernel(
        shape, np.stack([tau_u, tau_s, tau_s])[:, None, :], per_neuron("bias"), w_fb,
        per_neuron("weight_exp").astype(np.int64), fixed, net.config.decay_rounding, peak)
    s = state[2]

    # one block matrix W_d per distinct synaptic delay d: presynaptic rows,
    # the synaptic (non-encoder) columns
    delays = sorted({1} | {l.rec_delay for l in layers if l.w_rec is not None})
    mats = np.zeros((len(delays), n, n - n0))
    for li in range(1, len(layers)):
        cols = slice(starts[li] - n0, starts[li + 1] - n0)
        mats[0, starts[li - 1]:starts[li], cols] = layers[li].w_in.T
        if layers[li].w_rec is not None:
            k = delays.index(layers[li].rec_delay)
            mats[k, starts[li]:starts[li + 1], cols] = layers[li].w_rec.T
    # W_d cut to the span of its nonzero rows is a tap; the stacked cuts w are
    # exact in float32 while no column's absolute sum exceeds 2**24 (docstring)
    spans = [np.flatnonzero(m.any(axis=1)) for m in mats]
    spans = [slice(r[0], r[-1] + 1) if r.size else slice(0, 0) for r in spans]
    w = np.concatenate([m[rows] for m, rows in zip(mats, spans)])
    dtype = np.float32 if np.abs(w).sum(axis=0).max(initial=0) <= _FLOAT32_EXACT else np.float64
    w = w.astype(dtype)
    # slot t % depth of the delay line holds, in each tap's segment, the
    # tap's rows of the spikes of step t - d; one view per tap and slot
    now = np.zeros((batch, n), dtype=dtype)  # the spikes of step t
    line = np.zeros((delays[-1], batch, len(w)), dtype=dtype)
    depth = len(line)
    cuts = np.cumsum([rows.stop - rows.start for rows in spans])[:-1]
    taps = [(d, now[:, rows], list(segments))
            for d, rows, segments in zip(delays, spans, np.split(line, cuts, axis=2))]

    drive = np.zeros(shape)  # the encoder's columns are written at frame starts
    synaptic = drive[:, n0 - lo:]
    # a count grows by at most 1 per step
    counts = np.zeros((batch, n), dtype=dtype if duration <= _FLOAT32_EXACT else np.float64)
    frame_s = np.zeros((batch, n_frames, n))
    spiked = np.zeros((duration if record_rasters else 0, n - lo), dtype=bool)
    out = slice(int(starts[-2]) - lo, None)
    window = max(1, math.ceil(net.source_model.readout_fraction * duration))
    acc = np.zeros((batch, layers[-1].size))
    acc_start = duration - window
    sat_events: list[tuple] = []
    sat_total = 0
    probe = probe or {}
    for li, ids in probe.items():
        if not (0 <= li < len(layers) and all(0 <= k < layers[li].size for k in ids)):
            raise ConfigError(f"probe of layer {li} names no neuron of it: {ids}")
        if li < first:
            raise ConfigError("a spike raster stands in for the encoder, which therefore "
                              "has no states to probe")
    probes = {(li, var): np.zeros((duration, len(ids)))
              for li, ids in probe.items() for var in ("u", "i", "s", "imem")}
    probe_cols = {li: int(starts[li]) - lo + np.asarray(ids, dtype=np.int64)
                  for li, ids in probe.items()}

    for t in range(duration):
        np.matmul(line[t % depth], w, out=synaptic)
        if not lo and t % oversample == 0:
            drive[:, :n0] = enc_drive[t // oversample]
        fired = step(drive)
        now[:, lo:] = fired
        if lo:
            now[:, :lo] = input_spikes[t]
        counts += now
        for d, rows, segments in taps:
            segments[(t + d) % depth][...] = rows
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
        saturation_events=sat_events, saturation_total=sat_total, peak_state=peak[0],
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
