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
synaptic drive is an integer already (see below). Fixed point takes integer
drives, biases and w_fb, as the engine's are; every other operation then
sums integers exactly, so the states equal an int64 evaluation's. They
start at +0, a sum that cancels is +0, and a decay is never -0.0: by a tau
>= 2, rint(x k) is 0 only for x = +0, and at tau 1 (k = 0) the decay adds
0.0 to the -0.0 of a negative x. So no state is ever -0.0. A step drops
four passes that cannot change a value, each decided once per run (proofs
in sigma_delta_kernel): the scale when every weight exponent is 0, the
bias add when every bias is 0, and in fixed point the decay's + 0.0 when
no tau is 1 and the bias add, folded into the shift's offset, while that
offset stays below 2**52. No step reads imem (imem <- i - s overwrites it),
so none resets it: the kernel leaves imem as the spike test compared it,
and the readers that report it (the probes, sigma_delta.neuron_step) give
+0.0 where the neuron fired.

Saturation is checked once per step. A fixed-point step runs its adds
unclipped, exactly as reference mode does, then takes the max of its u and
i rows and the min of its u and imem rows (imem unreset). Only if one of
them left +/-2**23 does the step run the adds again from the decayed states
and the drive, which the first run left as they were, each clipped at the
rails by numerics.sat_add_array and its clips logged. The clipped re-run
is the saturating arithmetic, and a step that clips nothing equals it.
Those rows hold the extremes of the whole stack while every w_fb is finite
and >= 0 and every tau_s >= 1 (a fixed-point tau is an integer >= 1), with
the states starting at +0; otherwise both reductions read the whole stack.
Proof: the decay keeps a state's sign and shrinks it, and a spike adds
w_fb >= 0, so s >= 0 and ds = decay(s) is in [0, s]. So imem = fl(i - ds)
<= i. A spike needs fl(i - ds) > w_fb, which holds exactly when i - ds >
w_fb, so s = fl(ds + w_fb) <= i; without a spike s = ds <= s_prev. Over a
run, then, s stays in [0, max(0, max i)] and min i >= min imem. In one
fixed-point step the sums are exact integers and s_prev is in [0, 2**23],
so s leaves the range only above i, when i does, and i leaves it below
only when imem does.

One step advances the whole network. The four states u, i, s and imem are
the rows of one [4, batch, N] array with the layers' neurons side by side.
The kernel lays every per-neuron constant (taus, the fixed-point decay
multipliers, bias, w_fb, which is also the threshold, and the shift scale) out
once per run as a contiguous array of the full shape it meets, so a step
broadcasts nothing, and one call decays the u, i and s rows. The decay
writes a second stack, from which the sums are written back in place, so a
step allocates no state-sized temporary. The peak |state| in both modes is
max(-min, max) of the unreset stack over the run, from the same rows: in
fixed point the bound check's per step, in reference mode two running
elementwise extremes that the run reduces once at its end. Every
synapse reads spikes of an earlier step, so no update depends on another
within a step. Each distinct synaptic delay d (one step for every layer's
w_in, rec_delay for its w_rec) has a block matrix W_d, presynaptic rows by
the non-encoder columns, cut to the span of its nonzero rows: a tap. The
cuts stack into one matrix w, and the taps' rows into the columns of a
delay line of max(rec_delay) slots: the spikes of step t enter each tap's
segment of slot (t + d) % depth, so the drive of step t is the one product
line[t % depth] @ w. A rec_delay of 1 shares the feed-forward tap. The
time loop runs frame by frame: the analog encoder's drive is written into
its columns at each frame's start, and nothing else writes them, and s is
taken at the frame's end, after its last step. Rasters, frame-end s, spike
counts, probes and the readout are column slices of the flat state.
Batched samples advance in lockstep.

Every array a step writes, and every constant the kernel lays out for it,
is allocated once per run by _aligned, its data on a 64-byte boundary;
numpy aligns to 16 bytes only. A ufunc whose output starts off a boundary
splits each 64-byte vector store across two cache lines: on an AVX-512
Xeon, np.multiply of two [3, 64, 100] float64 arrays took 6.1 us with the
output aligned and 11.6-13.2 us with it 16, 32 or 48 bytes past a boundary
(6.2 us with only the inputs off one). The stacks' rows need no padding: a
row holds batch * N * 8 bytes, a multiple of 64 whenever batch * N is a
multiple of 8, so at batch 64 every row starts on a boundary once the stack
does. At batch <= 3 (the f search) a step is bound by call overhead, and
the layout moves nothing there.

The synaptic drive is exact in float32 for integer weights, as the
compiler emits. Spikes are 0/1, so every partial sum of a drive column, in
any order and over all delays, is then an integer no larger than the
column's absolute-weight sum. If every weight is an integer and no
column's sum exceeds 2**24 (float32 holds every integer up to 2**24), the
line, w and the product are float32; otherwise float64, exact to 2**53 for
integers. The network alone decides, once per run. So the flat step is
bit-identical to a layer-by-layer one, whatever the order of the sums, and
every other operation is elementwise. np.dot writes the product into a
contiguous buffer of that dtype, which is then copied into the drive's
synaptic columns: a product written straight into those strided float64
columns goes through a casting temporary. Its cost is one dense product per
step over the stacked row spans, whatever the sparsity inside them: cheap
for the networks of about 100 neurons used here; measure before relying on
it above about 1k neurons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .containers import FeatureSequence, SpikeRaster
from .errors import ConfigError, DataError, same_period
from .numerics import (STATE_LIMIT, decay_array, decay_by, decay_factor, round_half_away,
                       sat_add_array)

if TYPE_CHECKING:  # for annotations only: convert imports this module
    from .convert import SnnNetwork

_MAX_SAT_LOG = 1000
#: Integers up to this magnitude are exact in float32.
_FLOAT32_EXACT = 1 << 24
#: The byte boundary on which the step's arrays start (module docstring).
_ALIGN = 64


def _aligned(shape: tuple, dtype=np.float64) -> np.ndarray:
    """A zeroed C-contiguous array of shape and dtype whose data start on an
    _ALIGN-byte boundary (numpy aligns to 16 bytes only)."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.zeros(nbytes + _ALIGN, dtype=np.uint8)
    # cut in two steps: numpy keeps the base address of an empty slice raw[a:a]
    return raw[-raw.ctypes.data % _ALIGN:][:nbytes].view(dtype).reshape(shape)


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
                       peak: list | None = None):
    """The decay-then-add update of a population of compiled neurons.

    Returns (state, clips, step). state is the zeroed stack (u, i, s, imem)
    of shape [4, *shape]; step(drive) advances it one step in place and
    returns the spike mask:

        u    <- decay(u, tau_u) + drive
        i    <- decay(i, tau_s) + u * 2**-exps + bias
        imem <- i - decay(s, tau_s)
        s    <- decay(s, tau_s), plus w_fb where imem > w_fb (imem not reset)

    taus, the rows (tau_u, tau_s), broadcast against [2, *shape] ([2, 1, n]
    per neuron); i and s share tau_s, and the kernel lays out the decay rows
    of u, i and s from them. bias, w_fb and exps are per neuron or scalars.
    imem has tau 1, and a decay by tau 1 is exactly +0 in both modes (x -
    x / 1, and rint of x * 0), so imem keeps nothing of its last value and
    is not decayed. In fixed point the adds saturate, and each clipping add
    appends (var, clips per neuron) to clips, which the caller clears.

    The constants are laid out once, contiguous at the full shape they meet
    in the step, so no step broadcasts. Each is written straight into its
    one array, and like the stacks and the scratch arrays it starts on a
    64-byte boundary, where a vector store meets one cache line (module
    docstring); the stacks' rows start on one too when [*shape] spans a
    multiple of 64 bytes, as at batch 64.

    In fixed point the drive, bias and w_fb must be integers, as the
    engine's are; the states are then integers, and the four drops below
    rest on it. Each pass that cannot change a value is dropped
    for the run:
    1. When every exponent is 0 the scale goes: u * 1 is u, and in fixed
       point floor(u + 0) is the integer u.
    2. When every bias is 0 the bias add goes: + 0.0 changes only -0.0, and
       di + u * 2**-exps is never -0.0, since a decayed state never is and a
       sum is -0.0 only if both its terms are; it is written straight into i.
    3. In fixed point, when no tau_u or tau_s is 1, the decay is rint(x k)
       without decay_by's + 0.0. For tau >= 2, k > 1/2 (k = 0.5 + 2**-51 at
       tau 2), so for an integer x, rint(x k) is 0 only for x = 0, and then
       +0 for x = +0. No state is -0.0: each starts at +0, and each sum of
       the step has a term that is never -0.0 (a decayed state, or i). At
       tau 1, k = 0 and a negative x decays to -0.0, so runs with a tau of 1
       keep the pass.
    4. In fixed point, when some exponent is nonzero and every bias b is an
       integer with |b| 2**e + half < 2**52 (half = 2**(e - 1), 0 at e = 0),
       the bias rides in the shift's offset: i <- di + floor((u + half +
       b 2**e) 2**-e). While |u| <= 2**23 the inner sum is an integer below
       2**53, so exact, as is the power-of-two scale, and floor(y + b) =
       floor(y) + b: this equals di + floor((u + half) 2**-e) + b. The
       offset is never -0.0, so neither form yields -0.0. A u beyond the
       rails lies in both rows of the bound check, so that step runs again
       clipped.
    The clipped re-run forms di + u * 2**-exps (with the offset half) and
    adds the bias, clipped.

    A fixed-point step runs the adds unclipped, as reference mode does (on
    integers below 2**53 every sum is exact), then bounds the stack once,
    by the max of its (u, i) rows and the min of its (u, imem) rows while
    every w_fb is finite and >= 0 and every tau_s >= 1 (those rows then hold
    its extremes: proof in the module docstring), else by the whole stack.
    Only if one left +/-2**23 does it rerun the adds, clipped and logged by
    sat_add_array, on the decayed rows and drive that the first run kept.

    peak, if given, is a list [0.0] that records max(-min, max) of the
    stack, imem unreset, over the run. A fixed-point step raises peak[0]
    from the bound check's extremes (the whole stack's after a clipped
    re-run). A reference step folds the same rows into two running
    elementwise extremes, hi (max) and lo (min), which the kernel appends
    to peak; fmax and fmin keep an infinity that a later NaN (inf - inf in
    a decay) would hide. _peak_of(peak) reduces them once at the end, to
    max(peak[0], -lo.min(), hi.max()). For w_fb >= 0 the peak is also the
    largest |state| after a reset: a neuron that fires has imem > w_fb >= 0,
    whose reset to 0 moves neither extreme."""
    def laid_out(*rows):
        """The rows, each broadcast to shape, in one float64 array; stacked
        if there are several."""
        out = _aligned((len(rows), *shape))
        for row, value in zip(out, rows):
            row[...] = value
        return out if len(rows) > 1 else out[0]

    # the decay rows of u, i and s, which share tau_s; decay_factor is
    # elementwise, so the multipliers are formed before they are laid out
    u_row, s_row = np.broadcast_to(decay_factor(taus) if fixed else taus, (2, *shape))
    if fixed:
        factor = laid_out(u_row, s_row, s_row)
    else:
        taus = laid_out(u_row, s_row, s_row)
    bias, w_fb = laid_out(bias), laid_out(w_fb)
    exps = np.asarray(exps, dtype=np.int64)
    # u enters i as u * 2**-exps, and in fixed point as floor((u + half) * 2**-exps)
    scale, half = laid_out(np.ldexp(1.0, -exps)), laid_out((1 << exps) >> 1)
    state, decayed = _aligned((4, *shape)), _aligned((3, *shape))
    u, i, s, imem = state
    du, di, ds = decayed
    live = state[:3]
    # the rows that can hold the stack's max and min (docstring); a fixed
    # tau_s is an integer >= 1 already
    if ((w_fb >= 0) & (w_fb < np.inf)).all() and (fixed or (taus[2] >= 1).all()):
        top, bottom = state[:2], state[::3]
    else:
        top = bottom = state
    tmp, fired, spikes = _aligned(shape), _aligned(shape, bool), _aligned(shape)
    clips: list[tuple] = []
    if peak is not None and not fixed:
        hi, lo = _aligned(top.shape), _aligned(bottom.shape)
        peak += hi, lo
    # passes that change no value, dropped for the run (docstring): the
    # scale, the decay's + 0.0 unless some tau is 1 (factor 0), and the bias
    # add, which in fixed point rides in the shift's offset while exact
    unit_scale = (exps == 0).all()
    zero_pass = fixed and not factor.all()
    fold = (fixed and not unit_scale and (bias == np.rint(bias)).all()
            and (np.abs(bias) < (2.0 ** 52 - half) * scale).all())
    offset = laid_out(half + np.ldexp(bias, exps)) if fold else half
    bias_add = bias.any() and not fold

    def into_i(out, offset=half):
        """di + u * 2**-exps, in fixed point di + floor((u + offset) *
        2**-exps) with the rounding offset half unless given, in out."""
        if unit_scale:
            return np.add(di, u, out=out)
        if fixed:
            np.floor(np.multiply(np.add(u, offset, out=tmp), scale, out=tmp), out=tmp)
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
        if not fixed:
            decay_array(live, taus, out=decayed)
        elif zero_pass:
            decay_by(live, factor, out=decayed)
        else:
            np.rint(np.multiply(live, factor, out=decayed), out=decayed)
        np.add(du, drive, out=u)
        if bias_add:
            np.add(into_i(tmp), bias, out=i)
        else:
            into_i(i, offset)
        np.subtract(i, ds, out=imem)
        np.add(ds, fire(), out=s)
        if fixed:
            low, high = np.minimum.reduce(bottom, None), np.maximum.reduce(top, None)
            if not (low >= -STATE_LIMIT and high <= STATE_LIMIT):
                saturating(drive)
                low, high = state.min(), state.max()
            if peak is not None:
                peak[0] = max(peak[0], -float(low), float(high))
        elif peak is not None:
            np.fmax(hi, top, out=hi)
            np.fmin(lo, bottom, out=lo)
        return fired

    return state, clips, step


def _peak_of(peak: list) -> float:
    """The peak |state| of a run from sigma_delta_kernel's peak list: its
    first element, raised by a reference run's running extremes if the
    kernel appended them."""
    p, *extremes = peak
    if extremes:
        hi, lo = extremes
        p = max(p, -float(lo.min()), float(hi.max()))
    return p


def _mode_flag(mode: str) -> bool:
    if mode in ("fixed", "fixed_point"):
        return True
    if mode == "reference":
        return False
    raise ConfigError(f"unknown simulation mode {mode!r}")


def _engine(net: SnnNetwork, x: np.ndarray, mode: str, record_rasters: bool = False,
            probe: dict | None = None) -> SimulationResult:
    fixed = _mode_flag(mode)
    oversample = net.oversample
    layers = net.layers
    starts = np.cumsum([0] + [l.size for l in layers])  # layer li: columns starts[li]:starts[li + 1]
    n0, n = int(starts[1]), int(starts[-1])

    batch, n_frames, width = x.shape
    enc = layers[0]
    if width != enc.enc_w.shape[1]:
        raise DataError(f"feature width {width} != encoder input width {enc.enc_w.shape[1]}")
    if n_frames == 0:
        raise DataError("empty sequence rejected")
    duration = n_frames * oversample
    with np.errstate(over="ignore", invalid="ignore"):
        drive_all = (np.einsum("btd,nd->tbn", x, enc.enc_w)
                     * (net.f / (enc.tau_u_fx * enc.tau_s_fx)))
    if not np.isfinite(drive_all).all():
        raise DataError("the encoder drive is not finite: NaN or inf features, or "
                        "features too large for the encoder weights and f")
    # held in float64, a huge drive saturates u like any other sum
    enc_drive = round_half_away(drive_all) if fixed else drive_all
    shape = (batch, n)

    # both modes run on the integer network constants; reference mode is
    # real-valued state arithmetic on the same network
    tau_u, tau_s, w_fb, exps = np.repeat(
        [[l.tau_u_fx, l.tau_s_fx, l.w_fb, l.weight_exp] for l in layers],
        [l.size for l in layers], axis=0).T
    peak = [0.0]
    state, clips, step = sigma_delta_kernel(
        shape, np.stack([tau_u, tau_s])[:, None, :], np.concatenate([l.bias for l in layers]),
        w_fb, exps.astype(np.int64), fixed, peak)
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
    # exact in float32 while they are integers and no column's absolute sum
    # exceeds 2**24 (docstring)
    spans = [np.flatnonzero(m.any(axis=1)) for m in mats]
    spans = [slice(r[0], r[-1] + 1) if r.size else slice(0, 0) for r in spans]
    w = np.concatenate([m[rows] for m, rows in zip(mats, spans)])
    exact32 = np.abs(w).sum(axis=0).max(initial=0) <= _FLOAT32_EXACT and (w == np.rint(w)).all()
    dtype = np.float32 if exact32 else np.float64
    w = w.astype(dtype)
    # slot t % depth of the delay line holds, in each tap's segment, the
    # tap's rows of the spikes of step t - d; one view per tap and slot
    now = _aligned((batch, n), dtype)  # the spikes of step t
    line = _aligned((delays[-1], batch, len(w)), dtype)
    depth = len(line)
    cuts = np.cumsum([rows.stop - rows.start for rows in spans])[:-1]
    taps = [(d, now[:, rows], list(segments))
            for d, rows, segments in zip(delays, spans, np.split(line, cuts, axis=2))]

    drive = _aligned(shape)  # the encoder's columns are written at frame starts
    synaptic = drive[:, n0:]
    product = _aligned(synaptic.shape, dtype)  # line[t % depth] @ w, then copied to synaptic
    # a count grows by at most 1 per step
    counts = _aligned((batch, n), dtype if duration <= _FLOAT32_EXACT else np.float64)
    frame_s = np.zeros((batch, n_frames, n))
    spiked = np.zeros((duration if record_rasters else 0, n), dtype=bool)
    out = slice(int(starts[-2]), None)
    window = max(1, math.ceil(net.source_model.readout_fraction * duration))
    acc = np.zeros((batch, layers[-1].size))
    acc_start = duration - window
    sat_events: list[tuple] = []
    sat_total = 0
    probe = probe or {}
    for li, ids in probe.items():
        if not (0 <= li < len(layers) and all(0 <= k < layers[li].size for k in ids)):
            raise ConfigError(f"probe of layer {li} names no neuron of it: {ids}")
    probes = {(li, var): np.zeros((duration, len(ids)))
              for li, ids in probe.items() for var in ("u", "i", "s", "imem")}
    probe_cols = {li: int(starts[li]) + np.asarray(ids, dtype=np.int64)
                  for li, ids in probe.items()}

    for frame, held in enumerate(enc_drive):
        drive[:, :n0] = held
        for t in range(frame * oversample, (frame + 1) * oversample):
            np.dot(line[t % depth], w, out=product)
            synaptic[...] = product
            now[...] = fired = step(drive)
            counts += now
            for d, rows, segments in taps:
                segments[(t + d) % depth][...] = rows
            if record_rasters:
                spiked[t] = now[0]
            if clips:
                per_layer = [(var, np.add.reduceat(over, starts[:-1])) for var, over in clips]
                sat_total += sum(int(c.sum()) for _, c in per_layer)
                sat_events += [(t, k, var, int(c[k])) for k in range(len(layers))
                               for var, c in per_layer if c[k]][:_MAX_SAT_LOG - len(sat_events)]
                clips.clear()
            if t >= acc_start:
                acc += s[:, out]
            for li, cols in probe_cols.items():
                for var, v in zip(("u", "i", "s", "imem"), state):
                    probes[(li, var)][t] = v[0, cols]
                probes[(li, "imem")][t, fired[0, cols]] = 0.0  # the reset (module docstring)
        frame_s[:, frame] = s

    totals = counts.astype(np.int64)

    def per_layer(a):
        return np.split(a, starts[1:-1], axis=-1)

    rasters: list[SpikeRaster | None] = [None] * len(layers)
    if record_rasters:
        # each raster's events in (time, unit) order, as np.nonzero gives them
        rasters = [SpikeRaster(*np.divmod(np.flatnonzero(spiked[:, starts[li]:starts[li + 1]]),
                                          layer.size), duration, layer.size, net.timing.t_snn)
                   for li, layer in enumerate(layers)]
    return SimulationResult(
        scores=acc / window / net.f, spikes_per_sample=totals.sum(axis=1),
        spike_counts=per_layer(totals), frame_s=per_layer(frame_s), rasters=rasters,
        saturation_events=sat_events, saturation_total=sat_total, peak_state=_peak_of(peak),
        mode=mode, probes=probes)


def simulate(net: SnnNetwork, inp: FeatureSequence, mode: str = "reference",
             probe: dict | None = None, record_rasters: bool = True) -> SimulationResult:
    """Simulate one FeatureSequence of the network's frame period through
    the analog encoder."""
    if not isinstance(inp, FeatureSequence):
        raise DataError(f"unsupported input type {type(inp).__name__}")
    if not same_period(inp.frame_period, net.timing.t_ann):
        raise DataError(f"frame period {inp.frame_period!r} s != the network's frame "
                        f"period t_ann {net.timing.t_ann!r} s")
    result = _engine(net, inp.data[None, :, :], mode, record_rasters, probe)
    return replace(result, scores=result.scores[0],
                   spikes_per_sample=result.spikes_per_sample[0],
                   spike_counts=[c[0] for c in result.spike_counts],
                   frame_s=[fs[0] for fs in result.frame_s])


def simulate_batch(net: SnnNetwork, x: np.ndarray, mode: str = "reference") -> SimulationResult:
    """Simulate a stack of equal-length feature sequences [batch, frames, dim]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] < 1:
        raise DataError("simulate_batch expects [batch >= 1, frames, features]")
    return _engine(net, x, mode)


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
