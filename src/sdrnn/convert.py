"""ANN-to-SNN compiler: time-constant derivation, weight/bias mapping, scale
factor selection, and assembly of the spiking network description.

Per-layer smoothing coefficients translate to time constants via
tau = -T_s / ln(alpha), re-expressed in simulator steps of the finer spiking
timestep. Quantized weights and biases map to hardware integers as

    W_snn = round(2**e * f * W_ann / (tau_u * tau_i * gain))
    b_snn = round(f * b_ann / tau_i)

where gain is the synaptic accumulation gain of the hardware (each spike
deposits gain * W_snn into u), e >= 0 is the layer's power-of-two weight
exponent (u enters i scaled by 2**-e) and the tau factors cancel the DC
gains of the u and i filter stages, so a presynaptic spike rate r yields a
steady drive i = f * W_ann * r. The global gain f trades integer weight
precision against headroom below the 24-bit state bound. The peak state
scales with f like every on-chip quantity, so one reference simulation
predicts f and a second verifies it (select_scale_factor).

Timing. The source network is a frame recursion: layer l at frame t reads
its sender at the end of frame t and itself at the end of frame t-1
(W_rec y_{t-1}). The spiking network runs on the fine step, so a receiving
layer sees its sender rise through the frame, and each of its low-pass
stages lags like a continuous filter, not like the recursion. The compiler
maps the recursion's timing as follows.

- tau_i is the layer's own alpha-derived constant: it applies the layer's
  smoothing.
- The feedback filter tau_s defines the activation readout s and, inverted
  by the spike-generation loop, puts a lead of tau_s into the emitted spike
  duty. A u stage of the sender's tau_s would cancel that lead exactly and
  leave the continuous filter's delay of -1/ln(alpha) frames per layer,
  where the recursion has alpha/(1-alpha). The u stage of a spike-driven
  layer is therefore shortened by the difference, frame_lag(alpha):
  tau_u = tau_s - round(frame_lag(alpha) * oversample), with the layer's
  own tau_s (the sender's when consecutive layers share alpha, an
  approximation otherwise). With a shared alpha that is
  oversample * alpha / (1 - alpha) steps.
- The u stage is shared with the recurrent synapses, which deliver
  rec_delay = tau_s - tau_u steps late: the delay takes the lead back out
  of the recurrent input, so the recurrent drive follows the layer's
  current output, as with tau_u = tau_s. A slow-signal expansion of the
  recursion (which reads y_{t-1}) asks for a whole frame of delay instead.
  That suits weakly recurrent layers, but trained networks have recurrent
  eigenvalues of magnitude near 2 with large imaginary parts, and there
  the added loop delay costs accuracy: on the synthetic keyword task's
  net (three 24-unit layers, alpha 0.6, oversample 50) it raised the
  output layer's mean tracking error from 0.022 to 0.078 and flipped 2 of
  100 test clips, where rec_delay = tau_s - tau_u flips none.

The match is first order in the input's rate of change, not exact: on a
four-stage linear feed-forward chain at oversample 100 the last stage's
relative MSE against the recursion falls from about 1e-2 (tau_u = tau_s,
one-step recurrence) to about 1e-3. The analog encoder layer is driven by
frame-held input, which a continuous stage follows exactly at frame ends,
so its tau_u stays a short constant. The feedback weight is tied to
w_fb = f / tau_s so a neuron spiking every step saturates s at f * 1.0,
making spike rate equal activation on the [0, clamp_ceiling] scale.

Precision. The 24-bit state budget must cover f times the mapped weight
resolution times tau_u * tau_i * gain. With two alpha-derived stages the
hardware's native synaptic gain of 64 leaves sub-integer weight steps at
realistic time constants, so the compiler defaults to gain 1 and keeps the
gain a config value used consistently by the mapping formula and the
simulator. Where the state budget, not the weight range, binds f (high
oversample), the mapped weights would shrink as 1/oversample**2; the weight
exponent e, the largest that keeps every mapped weight of the layer within
weight_limit, keeps their precision (Loihi's weight exponent). u then
peaks near 2**e * f * z / tau_i, so 2**e <= tau_i keeps it within the
budget that i = f * z already needs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .containers import FeatureSequence
from .errors import ConfigError, DataError, NumericError, reading
from .lprnn import (KIND_INPUT, KIND_RECURRENT, LpRnnLayer, LpRnnModel, load_model,
                    save_model)
from .numerics import STATE_LIMIT, round_half_away


@dataclass(frozen=True)
class TimingConfig:
    """Frame period of the source network and step of the spiking simulator."""

    t_ann: float
    t_snn: float

    def __post_init__(self):
        if not (self.t_ann > 0 and self.t_snn > 0):
            raise ConfigError("t_ann and t_snn must be positive")
        ratio = self.t_ann / self.t_snn
        if abs(ratio - round(ratio)) > 1e-6 * ratio or round(ratio) < 1:
            raise ConfigError(
                f"t_ann/t_snn must be a positive integer, got {ratio}")

    @property
    def oversample(self) -> int:
        return int(round(self.t_ann / self.t_snn))


@dataclass(frozen=True)
class CompileConfig:
    """Hardware-model knobs.

    tau_u applies to the analog encoder layer only. A spike-driven layer gets
    tau_i = tau_s = its alpha-derived constant and tau_u = tau_s minus the
    frame lag of its alpha (module docstring). weight_limit bounds every
    mapped integer weight, and with it each layer's weight exponent.
    weight_gain is the synaptic accumulation gain: the hardware's native
    value is 64, but 1 buys integer weight resolution inside the 24-bit
    budget (see module docstring). decay_rounding "round"
    keeps fixed-point spike counts within a couple of spikes of reference
    mode; "trunc" decays slightly faster per step (half an LSB of systematic
    bias) but drains any state to exactly zero.
    """

    tau_u: float = 2.0
    tau_mem: float = 1.0
    weight_gain: int = 1
    weight_limit: int = 255
    safety_margin: float = 0.5
    decay_rounding: str = "round"


def alpha_to_tau(alpha: float, t_s: float) -> float:
    """Time constant (seconds) equivalent to smoothing coefficient alpha at
    sampling interval t_s: tau = -t_s / ln(alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie strictly in (0, 1), got {alpha}")
    if not t_s > 0:
        raise ConfigError("t_s must be positive")
    return -t_s / math.log(alpha)


def tau_to_alpha(tau: float, t_s: float) -> float:
    """Inverse of alpha_to_tau."""
    if not tau > 0:
        raise ConfigError("tau must be positive")
    return math.exp(-t_s / tau)


def rescale_tau(tau_ann: float, timing: TimingConfig) -> float:
    """Re-express a time constant in simulator steps of the finer timestep:
    tau_snn = (t_ann / t_snn) * tau_ann, with tau_ann measured in frames."""
    if not tau_ann > 0:
        raise ConfigError(f"tau_ann must be positive, got {tau_ann}")
    tau_steps = tau_ann * timing.oversample / timing.t_ann
    if tau_steps < 1.0:
        raise ConfigError(
            f"tau of {tau_ann} s is below one simulator step ({timing.t_snn} s)")
    return tau_steps


def map_weights(w_ann: np.ndarray, f: float, tau_u: float, tau_i: float,
                weight_gain: int = 64, weight_limit: int = 255,
                weight_exp: int = 0) -> np.ndarray:
    """Map real weights onto hardware integers:
    round(2**weight_exp * f * W / (tau_u * tau_i * gain)), nearest with ties
    away from zero. Zero weights map to exactly 0."""
    if not f > 0:
        raise ConfigError("scale factor f must be positive")
    mapped = round_half_away(f * 2.0 ** weight_exp * np.asarray(w_ann, dtype=np.float64)
                             / (tau_u * tau_i * weight_gain))
    if np.any(np.abs(mapped) > weight_limit):
        bad = np.argwhere(np.abs(mapped) > weight_limit)
        offenders = ", ".join(
            f"({', '.join(str(int(v)) for v in idx)}) -> {int(mapped[tuple(idx)])}"
            for idx in bad[:5])
        raise NumericError(
            f"{bad.shape[0]} mapped weights exceed the hardware range "
            f"+/-{weight_limit}; first offenders: {offenders}")
    return mapped


def map_bias(b_ann: np.ndarray, f: float, tau_i: float,
             limit: int = STATE_LIMIT) -> np.ndarray:
    """Map biases onto integer currents: round(f*b/tau_i), injected into the
    input-current variable i once per simulator step."""
    if not f > 0:
        raise ConfigError("scale factor f must be positive")
    mapped = round_half_away(f * np.asarray(b_ann, dtype=np.float64) / tau_i)
    if np.any(np.abs(mapped) > limit):
        bad = np.argwhere(np.abs(mapped) > limit)[:, 0]
        raise NumericError(
            f"{bad.shape[0]} mapped biases exceed +/-{limit}; first offenders: "
            + ", ".join(f"({int(i)}) -> {int(mapped[int(i)])}" for i in bad[:5]))
    return mapped


@dataclass
class SnnLayer:
    """Compiled description of one spiking layer.

    w_in/w_rec/bias are hardware integers; enc_w/enc_bias keep the quantized
    real-valued weights of an analog-driven encoder layer (run off-chip).
    tau_* are the real-valued constants (provenance), tau_*_fx their integer
    counterparts, on which both simulation modes run. rec_delay is the
    delay of the recurrent synapses in steps (feed-forward synapses take
    one step), weight_exp the power-of-two exponent of the weights: u
    enters i scaled by 2**-weight_exp. The defaults describe networks
    compiled before either existed.
    """

    kind: str  # encoder | recurrent | output
    size: int
    w_in: np.ndarray | None
    w_rec: np.ndarray | None
    bias: np.ndarray
    enc_w: np.ndarray | None
    tau_s: float
    tau_i: float
    tau_u: float
    tau_mem: float
    tau_s_fx: int
    tau_i_fx: int
    tau_u_fx: int
    tau_mem_fx: int
    w_fb: int
    threshold: int
    rec_delay: int = 1
    weight_exp: int = 0


@dataclass
class SnnNetwork:
    """Compiled spiking network plus provenance of the source model."""

    layers: list[SnnLayer]
    f: float
    timing: TimingConfig
    config: CompileConfig
    source_model: LpRnnModel
    notes: dict = field(default_factory=dict)

    @property
    def oversample(self) -> int:
        return self.timing.oversample

    @property
    def n_classes(self) -> int:
        return self.layers[-1].size


def _int_tau(tau: float) -> int:
    fx = int(round(tau))
    if fx < 1:
        raise ConfigError(f"tau {tau} rounds below 1 simulator step")
    return fx


def frame_lag(alpha: float) -> float:
    """Frames by which a continuous low-pass stage of tau = -1/ln(alpha)
    frames lags the recursion y_t = alpha*y_{t-1} + (1-alpha)*x_t: the
    difference of their low-frequency group delays,
    -1/ln(alpha) - alpha/(1-alpha)."""
    return -1.0 / math.log(alpha) - alpha / (1.0 - alpha)


class LayerConstants(NamedTuple):
    """Time constants (tau_i is tau_s), recurrent delay and weight range of one layer.

    weight_cap is the largest f at which exponent 0 keeps every mapped
    weight of the layer within weight_limit (inf for an encoder, whose
    weights stay off-chip, or a layer whose weights are all zero);
    weight_exp is the layer's exponent at the f the constants were derived
    for (0 when none was given).
    """

    tau_s: float
    tau_u: float
    tau_s_fx: int
    tau_u_fx: int
    rec_delay: int
    weight_cap: float
    weight_exp: int


def layer_constants(layer: LpRnnLayer, w_in_q: np.ndarray, w_rec_q: np.ndarray | None,
                    timing: TimingConfig, config: CompileConfig,
                    f: float | None = None) -> LayerConstants:
    """Constants of one compiled layer with effective weights w_in_q and
    w_rec_q (module docstring): taus from the alpha mapping and the
    frame-lag rule, the recurrent delay, the weight-range cap and,
    given f, the weight exponent: the largest e >= 0 with
    2**e * f <= weight_cap and 2**e <= tau_s_fx."""
    tau_s = rescale_tau(alpha_to_tau(layer.alpha, timing.t_ann), timing)
    # the network's operating constants are the integer-rounded taus (the
    # hardware description); the real-valued taus are kept as provenance.
    # Mapping with the integer constants keeps the filter-gain
    # cancellation exact in both simulation modes.
    tau_s_fx = _int_tau(tau_s)
    rec_delay = 1
    if layer.kind == KIND_INPUT:
        tau_u = config.tau_u  # analog drive: no presynaptic lead to cancel
        tau_u_fx = _int_tau(tau_u)
        tensors = ()  # encoder weights stay real-valued off-chip
    else:
        lag = frame_lag(layer.alpha) * timing.oversample
        tau_u = max(1.0, tau_s - lag)
        tau_u_fx = max(1, tau_s_fx - int(round(lag)))
        if w_rec_q is not None:
            rec_delay = max(1, tau_s_fx - tau_u_fx)
        tensors = (w_in_q, w_rec_q)
    cap = math.inf
    for w in tensors:
        peak = 0.0 if w is None else float(np.abs(w).max())
        if peak > 0.0:
            cap = min(cap, (config.weight_limit + 0.499) *
                      tau_u_fx * tau_s_fx * config.weight_gain / peak)
    exp = 0
    if f is not None and tensors:
        while f * 2.0 ** (exp + 1) <= cap and 2 ** (exp + 1) <= tau_s_fx:
            exp += 1
    return LayerConstants(tau_s=tau_s, tau_u=tau_u, tau_s_fx=tau_s_fx, tau_u_fx=tau_u_fx,
                          rec_delay=rec_delay, weight_cap=cap, weight_exp=exp)


def compile_network(model: LpRnnModel, timing: TimingConfig, f: float,
                    config: CompileConfig = CompileConfig()) -> SnnNetwork:
    """Compile a trained, quantized model into a spiking network description.

    A pure function of (model, timing, f, config): per-layer constants from
    layer_constants, integer weights and biases from the mapping formulas,
    and w_fb = threshold = round(f / tau_s)."""
    if not (f > 0 and math.isfinite(f)):
        raise ConfigError("scale factor f must be positive and finite")
    layers = []
    for idx, layer in enumerate(model.layers):
        w_in_q, w_rec_q = model.effective_weights(layer)
        if layer.alpha <= 0.0:
            raise ConfigError(
                f"layer {idx}: alpha = {layer.alpha} has no finite time constant")
        c = layer_constants(layer, w_in_q, w_rec_q, timing, config, f)
        w_fb = math.floor(f / c.tau_s_fx + 0.5)  # round half away: f > 0
        if w_fb < 1:
            raise NumericError(
                f"layer {idx}: f = {f} gives feedback weight below 1 "
                f"(f/tau_s = {f / c.tau_s_fx:.3g}); increase f")
        bias = map_bias(layer.bias, f, c.tau_s_fx)

        def mapped(w):
            return map_weights(w, f, c.tau_u_fx, c.tau_s_fx, config.weight_gain,
                               config.weight_limit, c.weight_exp)

        if layer.kind == KIND_INPUT:
            kind = "encoder"
            w_in = None
            enc_w = w_in_q
        else:
            kind = "recurrent" if layer.kind == KIND_RECURRENT else "output"
            w_in = mapped(w_in_q)
            enc_w = None
        layers.append(SnnLayer(
            kind=kind, size=layer.size, w_in=w_in,
            w_rec=None if w_rec_q is None else mapped(w_rec_q), bias=bias,
            enc_w=enc_w, tau_s=c.tau_s, tau_i=c.tau_s, tau_u=c.tau_u,
            tau_mem=config.tau_mem, tau_s_fx=c.tau_s_fx,
            tau_i_fx=c.tau_s_fx, tau_u_fx=c.tau_u_fx,
            tau_mem_fx=_int_tau(config.tau_mem), w_fb=w_fb, threshold=w_fb,
            rec_delay=c.rec_delay, weight_exp=c.weight_exp))
    return SnnNetwork(layers=layers, f=f, timing=timing, config=config,
                      source_model=model.copy())


def _weight_cap(model: LpRnnModel, timing: TimingConfig, config: CompileConfig) -> float:
    """Largest f for which every mapped weight stays within the hardware range."""
    return min(layer_constants(layer, *model.effective_weights(layer), timing, config).weight_cap
               for layer in model.layers)


def probe_peak_state(model: LpRnnModel, probes: list[FeatureSequence],
                     timing: TimingConfig, f: float,
                     config: CompileConfig = CompileConfig()) -> float:
    """Peak |state| over a reference-mode simulation of the mapped network:
    one batched run per group of equal-shape probes."""
    from .snn_sim import simulate_batch  # deferred: snn_sim imports this module

    net = compile_network(model, timing, f, config)
    groups: dict[tuple, list[np.ndarray]] = {}
    for probe in probes:
        groups.setdefault(probe.data.shape, []).append(probe.data)
    return max((simulate_batch(net, np.stack(group)).peak_state for group in groups.values()),
               default=0.0)


def select_scale_factor(model: LpRnnModel, probes: list[FeatureSequence],
                        timing: TimingConfig,
                        config: CompileConfig = CompileConfig(),
                        grid: float = 0.02, return_trace: bool = False):
    """Largest f, within the margin grid, whose simulated peak state stays
    below bound = STATE_LIMIT * safety_margin on the probe inputs.

    In reference mode the encoder drive, biases, weights and w_fb scale
    with f up to integer rounding, so the spike pattern, and with it
    peak/f, barely depends on f. From the weight-range cap, while the peak
    p at f exceeds the bound, the search steps to f * bound / p / (1 + grid):
    the linear prediction less a margin for rounding. Each step lowers f by
    at least 1 + grid, and the f returned passed a simulation; when the
    first prediction holds that costs two. return_trace adds the (f, peak)
    pairs, sorted by f.
    """
    if not probes:
        raise ConfigError("probe set must be non-empty")
    bound = STATE_LIMIT * config.safety_margin
    f = _weight_cap(model, timing, config)
    if math.isinf(f):
        f = bound  # all on-chip weights are zero; only state headroom binds
    trace: list[tuple[float, float]] = []
    for _ in range(60):
        try:
            peak = probe_peak_state(model, probes, timing, f, config)
        except NumericError:
            if not trace:
                raise  # infeasible at the weight cap itself
            break  # w_fb fell below 1: no feasible f further down
        trace.append((f, peak))
        if peak <= bound:
            break
        f *= bound / peak / (1.0 + grid)
    if trace[-1][1] > bound:
        raise NumericError(
            f"no feasible scale factor: even tiny f overflows "
            f"(best peak state {min(p for _, p in trace):.3g} vs bound {bound:.3g})")
    if return_trace:
        return f, sorted(trace)
    return f


# Network container format mirrors the model format: JSON metadata entry +
# integer payloads, with the source model embedded for paired evaluation.

def save_network(net: SnnNetwork, path) -> None:
    import io as _io

    meta = {
        "format": "sdrnn-net-v1",
        "f": net.f,
        "t_ann": net.timing.t_ann,
        "t_snn": net.timing.t_snn,
        "config": {
            "tau_u": net.config.tau_u, "tau_mem": net.config.tau_mem,
            "weight_gain": net.config.weight_gain,
            "weight_limit": net.config.weight_limit,
            "safety_margin": net.config.safety_margin,
            "decay_rounding": net.config.decay_rounding,
        },
        "notes": net.notes,
        "layers": [{
            "kind": l.kind, "size": l.size,
            "tau_s": l.tau_s, "tau_i": l.tau_i, "tau_u": l.tau_u,
            "tau_mem": l.tau_mem, "tau_s_fx": l.tau_s_fx, "tau_i_fx": l.tau_i_fx,
            "tau_u_fx": l.tau_u_fx, "tau_mem_fx": l.tau_mem_fx,
            "w_fb": l.w_fb, "threshold": l.threshold,
            "rec_delay": l.rec_delay, "weight_exp": l.weight_exp,
        } for l in net.layers],
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for li, layer in enumerate(net.layers):
        arrays[f"l{li}_bias"] = layer.bias
        if layer.w_in is not None:
            arrays[f"l{li}_w_in"] = layer.w_in
        if layer.w_rec is not None:
            arrays[f"l{li}_w_rec"] = layer.w_rec
        if layer.enc_w is not None:
            arrays[f"l{li}_enc_w"] = layer.enc_w
    buf = _io.BytesIO()
    save_model(net.source_model, buf)
    arrays["source_model"] = np.frombuffer(buf.getvalue(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_network(path) -> SnnNetwork:
    import io as _io

    with reading(path), np.load(path) as data:
        if "meta" not in data:
            raise DataError(f"{path}: not a network file (missing metadata)")
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("format") != "sdrnn-net-v1":
            raise DataError(f"{path}: unsupported network format {meta.get('format')!r}")
        # the tau overrides are gone; older files record them as null
        overrides = {k: meta["config"].pop(k, None) for k in ("tau_u_override", "tau_i_override")}
        if any(v is not None for v in overrides.values()):
            raise DataError(f"{path}: tau overrides {overrides} are not supported")
        if (set(meta["config"]) - {f.name for f in fields(CompileConfig)}
                or meta["config"].get("decay_rounding") not in ("round", "trunc")):
            raise DataError(f"{path}: unsupported compile config {meta['config']}")
        cfg = CompileConfig(**meta["config"])
        layers = []
        for li, lmeta in enumerate(meta["layers"]):
            # files written before these fields: one step, no exponent
            rec_delay = lmeta.get("rec_delay", 1)
            weight_exp = lmeta.get("weight_exp", 0)
            if not (type(rec_delay) is int and rec_delay >= 1
                    and type(weight_exp) is int and weight_exp >= 0):
                raise DataError(f"{path}: layer {li}: invalid rec_delay {rec_delay!r} "
                                f"or weight_exp {weight_exp!r}")
            taus = {k: lmeta[k] for k in ("tau_s_fx", "tau_i_fx", "tau_u_fx", "tau_mem_fx")}
            if not all(type(v) is int and v >= 1 for v in taus.values()):
                raise DataError(f"{path}: layer {li}: time constants {taus} "
                                "must be integers >= 1")
            layers.append(SnnLayer(
                kind=lmeta["kind"], size=lmeta["size"],
                w_in=data[f"l{li}_w_in"] if f"l{li}_w_in" in data else None,
                w_rec=data[f"l{li}_w_rec"] if f"l{li}_w_rec" in data else None,
                bias=data[f"l{li}_bias"],
                enc_w=data[f"l{li}_enc_w"] if f"l{li}_enc_w" in data else None,
                tau_s=lmeta["tau_s"], tau_i=lmeta["tau_i"], tau_u=lmeta["tau_u"],
                tau_mem=lmeta["tau_mem"], **taus, w_fb=lmeta["w_fb"],
                threshold=lmeta["threshold"], rec_delay=rec_delay, weight_exp=weight_exp))
        source = load_model(_io.BytesIO(bytes(data["source_model"])))
        return SnnNetwork(layers=layers, f=meta["f"],
                          timing=TimingConfig(meta["t_ann"], meta["t_snn"]), config=cfg,
                          source_model=source, notes=meta.get("notes", {}))


def compile_report(net: SnnNetwork, peak_states: dict | None = None) -> str:
    """Human-readable compile summary: scale factor, per-layer constants and
    integer-weight histograms, and predicted peak states when available."""
    lines = [
        "spiking network compile report",
        f"  scale factor f       : {net.f:.6g}",
        f"  frame period         : {net.timing.t_ann} s",
        f"  simulator step       : {net.timing.t_snn} s (oversample {net.oversample})",
        f"  synaptic gain        : {net.config.weight_gain}",
        f"  state bound          : +/-{STATE_LIMIT} (safety margin {net.config.safety_margin})",
        "",
    ]
    for li, layer in enumerate(net.layers):
        lines.append(f"layer {li} [{layer.kind}] size {layer.size}")
        lines.append(f"  tau_s {layer.tau_s:.2f}  tau_i {layer.tau_i:.2f}  "
                     f"tau_u {layer.tau_u:.2f}  tau_mem {layer.tau_mem:.2f}  "
                     f"w_fb {layer.w_fb}  threshold {layer.threshold}")
        lines.append(f"  recurrent delay {layer.rec_delay} steps  "
                     f"weight exponent {layer.weight_exp}")
        for name, w in (("w_in", layer.w_in), ("w_rec", layer.w_rec)):
            if w is None:
                continue
            values, counts = np.unique(w, return_counts=True)
            hist = ", ".join(f"{int(v)}:{int(c)}" for v, c in zip(values, counts))
            lines.append(f"  {name} histogram: {hist}")
        if layer.enc_w is not None:
            lines.append(f"  analog encoder weights: {layer.enc_w.shape[1]} -> "
                         f"{layer.enc_w.shape[0]} (off-chip, real-valued)")
        if peak_states and li in peak_states:
            lines.append(f"  predicted peak |state|: {peak_states[li]:.4g}")
        lines.append("")
    return "\n".join(lines)
