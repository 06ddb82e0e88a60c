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
scales with f like every on-chip quantity, and the source network predicts
it: each layer's i stage low-passes f times the layer's pre-activation, as
the recursion low-passes the clamped one. The f search starts where that
prediction meets the bound and verifies it with one reference simulation
(select_scale_factor).

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
realistic time constants, so the compiler maps with gain 1. Where the state
budget, not the weight range, binds f (high oversample), the mapped weights
would shrink as 1/oversample**2; the weight exponent e, the largest that
keeps every mapped weight of the layer within the weight limit, keeps their
precision (Loihi's weight exponent). u then peaks near 2**e * f * z / tau_i,
so 2**e <= tau_i keeps it within the budget that i = f * z already needs.

Hardware constants. The target is one fixed compartment chain, so these
are not options: the analog encoder's u stage has tau ENCODER_TAU_U = 2
steps, imem has TAU_MEM = 1, a spike deposits WEIGHT_GAIN = 1 times its
weight, a mapped weight lies within +/-WEIGHT_LIMIT = 255, a layer's i stage
has its tau_s and it fires above w_fb. Older files that record these load
when they hold these values (RETIRED_KEYS).

A network file loads only as the compiler's output: load_network compiles
the file's source model again and requires every stored layer to equal the
compiled one.
"""

from __future__ import annotations

import io
import math
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .containers import FeatureSequence
from .errors import ConfigError, DataError, NumericError, npz_file, npz_meta, npz_write
from .lprnn import (KIND_INPUT, KIND_RECURRENT, LpRnnLayer, LpRnnModel, _finite_positive,
                    forward_batch, load_model, save_model)
from .numerics import STATE_LIMIT, round_half_away


@dataclass(frozen=True)
class TimingConfig:
    """Frame period of the source network and step of the spiking simulator."""

    t_ann: float
    t_snn: float

    def __post_init__(self):
        if not (_finite_positive(self.t_ann) and _finite_positive(self.t_snn)):
            raise ConfigError(f"t_ann and t_snn must be finite positive numbers, not "
                              f"{self.t_ann!r} and {self.t_snn!r}")
        ratio = self.t_ann / self.t_snn
        if not (ratio < math.inf and abs(ratio - round(ratio)) <= 1e-6 * ratio
                and round(ratio) >= 1):
            raise ConfigError(
                f"t_ann/t_snn must be a positive integer, got {ratio}")

    @property
    def oversample(self) -> int:
        return int(round(self.t_ann / self.t_snn))


#: Hardware constants of the mapping (module docstring).
ENCODER_TAU_U = 2.0
TAU_MEM = 1
WEIGHT_GAIN = 1
WEIGHT_LIMIT = 255

#: Keys that files written before the constants above were fixed still
#: hold, with the value each must have: a constant, or the name of the
#: layer key it restated. "config" covers a network's compile config and
#: the convert command's config file.
RETIRED_KEYS = {
    "config": {"tau_u": ENCODER_TAU_U, "tau_mem": TAU_MEM, "weight_gain": WEIGHT_GAIN,
               "weight_limit": WEIGHT_LIMIT, "tau_u_override": None, "tau_i_override": None},
    "layer": {"tau_i": "tau_s", "tau_i_fx": "tau_s_fx", "threshold": "w_fb",
              "tau_mem": TAU_MEM, "tau_mem_fx": TAU_MEM},
}


def pop_retired(entries: dict, section: str) -> str | None:
    """Remove the retired keys of `section` from entries. Returns a message
    naming the first that holds another value than the one it takes now,
    or None."""
    for key, now in RETIRED_KEYS[section].items():
        if key in entries:
            value = entries.pop(key)
            expected = entries.get(now) if isinstance(now, str) else now
            if value != expected:
                return f"{key} = {value!r} is no longer supported (it is {expected!r} now)"
    return None


@dataclass(frozen=True)
class CompileConfig:
    """The options of a compile; the hardware constants are fixed (module
    docstring).

    safety_margin is the share of the 24-bit state bound that the f search
    lets the probes' peak state reach. decay_rounding "round" keeps
    fixed-point spike counts within a couple of spikes of reference mode;
    "trunc" decays slightly faster per step (half an LSB of systematic bias)
    but drains any state to exactly zero.
    """

    safety_margin: float = 0.5
    decay_rounding: str = "round"

    def __post_init__(self):
        if not _finite_positive(self.safety_margin):
            raise ConfigError(f"safety_margin must be a finite positive number, not "
                              f"{self.safety_margin!r}")
        if self.decay_rounding not in ("round", "trunc"):
            raise ConfigError(f"decay_rounding must be 'round' or 'trunc', not "
                              f"{self.decay_rounding!r}")


def alpha_to_tau(alpha: float, t_s: float) -> float:
    """Time constant (seconds) equivalent to smoothing coefficient alpha at
    sampling interval t_s: tau = -t_s / ln(alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie strictly in (0, 1), got {alpha}")
    if not t_s > 0:
        raise ConfigError("t_s must be positive")
    return -t_s / math.log(alpha)


def rescale_tau(tau_ann: float, timing: TimingConfig) -> float:
    """Re-express a time constant in simulator steps of the finer timestep:
    tau_snn = (t_ann / t_snn) * tau_ann, with tau_ann measured in frames."""
    if not tau_ann > 0:
        raise ConfigError(f"tau_ann must be positive, got {tau_ann}")
    tau_steps = tau_ann * timing.oversample / timing.t_ann
    if not 1.0 <= tau_steps < math.inf:
        raise ConfigError(f"tau of {tau_ann} s is {tau_steps} simulator steps of "
                          f"{timing.t_snn} s, not a finite number >= 1")
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
            f"({', '.join(str(int(v)) for v in idx)}) -> {mapped[tuple(idx)]:.10g}"
            for idx in bad[:5])
        raise NumericError(
            f"{bad.shape[0]} mapped weights exceed the hardware range "
            f"+/-{weight_limit}; first offenders: {offenders}")
    return mapped.astype(np.int64)


def map_bias(b_ann: np.ndarray, f: float, tau_i: float) -> np.ndarray:
    """Map biases onto integer currents: round(f*b/tau_i), injected into the
    input-current variable i once per simulator step."""
    if not f > 0:
        raise ConfigError("scale factor f must be positive")
    mapped = round_half_away(f * np.asarray(b_ann, dtype=np.float64) / tau_i)
    if np.any(np.abs(mapped) > STATE_LIMIT):
        bad = np.argwhere(np.abs(mapped) > STATE_LIMIT)[:, 0]
        raise NumericError(
            f"{bad.shape[0]} mapped biases exceed +/-{STATE_LIMIT}; first offenders: "
            + ", ".join(f"({int(i)}) -> {mapped[int(i)]:.10g}" for i in bad[:5]))
    return mapped.astype(np.int64)


@dataclass
class SnnLayer:
    """Compiled description of one spiking layer: what the engine runs on.

    w_in/w_rec/bias are hardware integers; enc_w keeps the quantized
    real-valued weights of an analog-driven encoder layer (run off-chip).
    tau_s and tau_u are the real-valued constants (provenance), tau_s_fx
    and tau_u_fx their integer counterparts, on which both simulation modes
    run. tau_s sets both the i stage and the feedback filter s, and imem
    has tau TAU_MEM = 1. w_fb is the feedback weight and the firing
    threshold: a neuron fires when imem exceeds it. rec_delay is the delay
    of the recurrent synapses in steps (feed-forward synapses take one
    step), weight_exp the power-of-two exponent of the weights: u enters i
    scaled by 2**-weight_exp.
    """

    kind: str  # encoder | recurrent | output
    size: int
    w_in: np.ndarray | None
    w_rec: np.ndarray | None
    bias: np.ndarray
    enc_w: np.ndarray | None
    tau_s: float
    tau_u: float
    tau_s_fx: int
    tau_u_fx: int
    w_fb: int
    rec_delay: int
    weight_exp: int


#: The SnnLayer fields that a network file stores as arrays, and the rest,
#: which it stores in the metadata.
_LAYER_ARRAYS = ("w_in", "w_rec", "bias", "enc_w")
_LAYER_SCALARS = tuple(f.name for f in fields(SnnLayer) if f.name not in _LAYER_ARRAYS)


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
                    timing: TimingConfig, f: float | None = None) -> LayerConstants:
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
    tau_s_fx = round(tau_s)  # >= 1: rescale_tau gives tau_s >= 1
    rec_delay = 1
    if layer.kind == KIND_INPUT:
        tau_u = ENCODER_TAU_U  # analog drive: no presynaptic lead to cancel
        tau_u_fx = round(tau_u)
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
            cap = min(cap, (WEIGHT_LIMIT + 0.499) * tau_u_fx * tau_s_fx * WEIGHT_GAIN / peak)
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
    and the feedback weight w_fb = round(f / tau_s), also the firing
    threshold."""
    if not _finite_positive(f):
        raise ConfigError(f"scale factor f must be a finite positive number, not {f!r}")
    layers = []
    for idx, layer in enumerate(model.layers):
        w_in_q, w_rec_q = model.effective_weights(layer)
        c = layer_constants(layer, w_in_q, w_rec_q, timing, f)
        w_fb = math.floor(f / c.tau_s_fx + 0.5)  # round half away: f > 0
        if w_fb < 1:
            raise NumericError(
                f"layer {idx}: f = {f} gives feedback weight below 1 "
                f"(f/tau_s = {f / c.tau_s_fx:.3g}); increase f")
        bias = map_bias(layer.bias, f, c.tau_s_fx)

        def mapped(w):
            return map_weights(w, f, c.tau_u_fx, c.tau_s_fx, WEIGHT_GAIN, WEIGHT_LIMIT,
                               c.weight_exp)

        encoder = layer.kind == KIND_INPUT  # its weights stay real-valued, off-chip
        layers.append(SnnLayer(
            kind={KIND_INPUT: "encoder", KIND_RECURRENT: "recurrent"}.get(layer.kind, "output"),
            size=layer.size, w_in=None if encoder else mapped(w_in_q),
            w_rec=None if w_rec_q is None else mapped(w_rec_q), bias=bias,
            enc_w=w_in_q if encoder else None, tau_s=c.tau_s, tau_u=c.tau_u, tau_s_fx=c.tau_s_fx,
            tau_u_fx=c.tau_u_fx, w_fb=w_fb, rec_delay=c.rec_delay, weight_exp=c.weight_exp))
    return SnnNetwork(layers=layers, f=f, timing=timing, config=config,
                      source_model=model.copy())


def _weight_cap(model: LpRnnModel, timing: TimingConfig,
                config: CompileConfig | None = None) -> float:
    """Largest f for which every mapped weight stays within the hardware
    range; no option of config bears on it."""
    return min(layer_constants(layer, *model.effective_weights(layer), timing).weight_cap
               for layer in model.layers)


def _probe_batches(probes: list[FeatureSequence]) -> list[np.ndarray]:
    """The probes stacked into one batch per shape."""
    groups: dict[tuple, list[np.ndarray]] = {}
    for probe in probes:
        groups.setdefault(probe.data.shape, []).append(probe.data)
    return [np.stack(group) for group in groups.values()]


def probe_peak_state(model: LpRnnModel, probes: list[FeatureSequence],
                     timing: TimingConfig, f: float,
                     config: CompileConfig = CompileConfig()) -> float:
    """Peak |state| over a reference-mode simulation of the mapped network:
    one batched run per group of equal-shape probes."""
    from .snn_sim import simulate_batch  # deferred: snn_sim imports this module

    net = compile_network(model, timing, f, config)
    return max((simulate_batch(net, batch).peak_state for batch in _probe_batches(probes)),
               default=0.0)


def predicted_peak(model: LpRnnModel, probes: list[FeatureSequence]) -> float:
    """P, the peak state per unit f that the source network predicts: the
    largest |y| over layers, frames and probes of y <- alpha*y + (1-alpha)*z,
    each layer's recursion run on its pre-activation z without the clamp. A
    layer's i stage low-passes f * z with the layer's own time constant and
    holds the layer's peak state; the u stage before it only smooths
    further."""
    peak = 0.0
    for batch in _probe_batches(probes):
        _, cache = forward_batch(model, batch, keep=True)
        for layer, z in zip(model.layers, cache["zs"]):  # z is [T, B, n], the pass's own
            z *= 1.0 - layer.alpha
            for prev, z_t in zip(z, z[1:]):
                z_t += layer.alpha * prev
            peak = max(peak, float(np.abs(z).max()))
    return peak


def select_scale_factor(model: LpRnnModel, probes: list[FeatureSequence],
                        timing: TimingConfig,
                        config: CompileConfig = CompileConfig(),
                        grid: float = 0.02, return_trace: bool = False,
                        predicted: float | None = None):
    """Largest f, within the margin grid, whose simulated peak state stays
    below bound = STATE_LIMIT * safety_margin on the probe inputs.

    In reference mode the encoder drive, biases, weights and w_fb scale
    with f up to integer rounding, so the spike pattern, and with it
    peak/f, barely depends on f, and the source network predicts it:
    peak/f is about P = predicted_peak(model, probes) (or `predicted`, a P
    the caller already has). The search starts at f = min(weight-range cap,
    bound / (P * (1 + grid))), or at the cap when P is 0 or not finite, and
    simulates the probes there. While the peak p at f exceeds the bound, it
    steps to f * bound / p / (1 + grid): the linear prediction less a
    margin for rounding. Each step lowers f by at least 1 + grid, and the f
    returned passed a simulation; when P holds within the margin that
    costs one. return_trace adds the (f, peak) pairs, sorted by f.
    """
    if not probes:
        raise ConfigError("probe set must be non-empty")
    bound = STATE_LIMIT * config.safety_margin
    f = _weight_cap(model, timing)
    if math.isinf(f):
        f = bound  # all on-chip weights are zero; only state headroom binds
    if predicted is None:
        predicted = predicted_peak(model, probes)
    if 0.0 < predicted < math.inf:
        f = min(f, bound / (predicted * (1.0 + grid)))
    trace: list[tuple[float, float]] = []
    for _ in range(60):
        try:
            peak = probe_peak_state(model, probes, timing, f, config)
        except NumericError:
            if not trace:
                raise  # infeasible where the search starts
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

NET_FORMAT = "sdrnn-net-v1"


def save_network(net: SnnNetwork, path) -> None:
    meta = {
        "format": NET_FORMAT,
        "f": net.f,
        "t_ann": net.timing.t_ann,
        "t_snn": net.timing.t_snn,
        "config": asdict(net.config),
        "notes": net.notes,
        "layers": [{name: getattr(l, name) for name in _LAYER_SCALARS} for l in net.layers],
    }
    buf = io.BytesIO()
    save_model(net.source_model, buf)
    npz_write(path, meta, net.layers, _LAYER_ARRAYS,
              source_model=np.frombuffer(buf.getvalue(), dtype=np.uint8))


def load_network(path) -> SnnNetwork:
    """The network saved at path, which loads only as the compiler's output:
    the file's source model is compiled again at its t_ann, t_snn, f and
    compile config, and each stored layer must equal the compiled one, each
    scalar in type and value and each array in presence, dtype, shape and
    value. Returns the compiled network with the file's notes. DataError for
    a damaged file, one whose values do not compile, and one whose stored
    layers differ, naming the layer and its first field that differs."""
    with npz_file(path) as data:
        meta = npz_meta(data, path, NET_FORMAT)
        config = meta.get("config")
        if not isinstance(config, dict):
            raise DataError(f"{path}: the compile config must be a JSON object, not {config!r}")
        if bad := pop_retired(config, "config"):
            raise DataError(f"{path}: {bad}")
        if not isinstance(notes := meta.get("notes", {}), dict):
            raise DataError(f"{path}: notes must be a JSON object, not {notes!r}")
        source = load_model(io.BytesIO(bytes(data["source_model"])))
        f, t_ann, t_snn = meta.get("f"), meta.get("t_ann"), meta.get("t_snn")
        at = f"f {f!r}, t_ann {t_ann!r} and t_snn {t_snn!r}"
        try:
            net = compile_network(source, TimingConfig(t_ann, t_snn), f, CompileConfig(**config))
        except (ConfigError, NumericError, TypeError) as exc:  # TypeError: a key that is no option
            raise DataError(f"{path}: the source model does not compile at {at} ({exc})") from None
        stored = meta.get("layers")
        if not (isinstance(stored, list) and len(stored) == len(net.layers)):
            raise DataError(f"{path}: layers must list the {len(net.layers)} layers of the source "
                            "model")
        for li, (lmeta, layer) in enumerate(zip(stored, net.layers)):
            if not isinstance(lmeta, dict):
                raise DataError(f"{path}: layer {li} must be a JSON object, not {lmeta!r}")
            if bad := pop_retired(lmeta, "layer"):
                raise DataError(f"{path}: layer {li}: {bad}")
            if extra := sorted(set(lmeta) - set(_LAYER_SCALARS)):
                raise DataError(f"{path}: layer {li}: {extra[0]!r} is no field of a layer")
            for name in _LAYER_SCALARS + _LAYER_ARRAYS:
                got = _compared(lmeta.get(name, "missing") if name in _LAYER_SCALARS
                                else data.get(f"l{li}_{name}"))
                if got != (want := _compared(getattr(layer, name))):
                    raise DataError(f"{path}: layer {li}: {name} is {got[-1]}, not {want[-1]} as "
                                    f"compiled from the source model at {at}")
        net.notes = notes
        return net


def _compared(value) -> tuple:
    """A layer field as load_network compares it: an array by dtype, shape
    and bytes, anything else by type and value; a description last."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes(), f"{value.dtype} {value.shape}"
    return type(value), value, repr(value)


def compile_report(net: SnnNetwork) -> str:
    """Human-readable compile summary: scale factor, the f search that chose
    it (from the network's notes), per-layer constants and integer-weight
    histograms."""
    bound = STATE_LIMIT * net.config.safety_margin
    lines = [
        "spiking network compile report",
        f"  scale factor f       : {net.f:.6g}",
        f"  frame period         : {net.timing.t_ann} s",
        f"  simulator step       : {net.timing.t_snn} s (oversample {net.oversample})",
        f"  synaptic gain        : {WEIGHT_GAIN}",
        f"  state bound          : +/-{STATE_LIMIT} (safety margin {net.config.safety_margin})",
    ]
    trace = net.notes.get("f_search_trace")
    if not trace:
        lines.append("  f search             : none (f given)")
    else:
        lines.append(f"  f search             : predicted peak state / f P = "
                     f"{net.notes.get('f_search_predicted_peak', math.nan):.6g}, "
                     f"{len(trace)} evaluation(s)")
        for k, (f, peak) in enumerate(sorted(trace, reverse=True), 1):
            lines.append(f"    evaluation {k}: f {f:.6g}  peak/bound {peak / bound:.4f}")
    lines.append("")
    for li, layer in enumerate(net.layers):
        lines.append(f"layer {li} [{layer.kind}] size {layer.size}")
        lines.append(f"  tau_s {layer.tau_s:.2f}  tau_u {layer.tau_u:.2f}  "
                     f"w_fb {layer.w_fb} (also the threshold)")
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
        lines.append("")
    return "\n".join(lines)
