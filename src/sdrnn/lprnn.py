"""Low-pass RNN: cell dynamics, quantization-aware BPTT training, pruning.

The cell computes y_t = alpha * y_{t-1} + (1 - alpha) * sigma(W_rec y_{t-1}
+ W_in x_t + b) with sigma a clamped ReLU, so the state is an exponentially
smoothed mixture whose memory is set by alpha. Networks stack a feedforward
low-pass input layer, recurrent low-pass layers, and a non-recurrent
low-pass output layer; class scores are the output state averaged over the
trailing fraction of frames.

Weights are trained quantization-aware: every forward pass sees the 3-bit
quantized view of the weights while gradients pass straight through the
quantizer to the full-precision master copy. LpRnnModel.effective_weights is
that one view, for training, the compiler and the benchmark models alike.
Pruning is an invariant that LpRnnLayer checks where it is built: a mask is
a 0/1 array of its weight's shape, and the weights under its 0s are zero. A
masked gradient is +-0, so Adam's moments and update stay +0 and a pruned
weight never moves.

Histories are frame-major [T, B, n]. The forward pass writes each layer's
drive for all frames into one buffer, then scans the frames in place. A pass
that keeps no histories (checkpoint selection, final and ANN logits) runs
all layers in two buffers that the layers take in turn, so each layer's
drive and state overwrite the states of the layer two below. The backward
pass runs layer by layer, top first: the error from the layer above, the
gates and the weight-gradient terms come for all frames at once, and the
reverse frame loop carries only alpha * delta + e @ W_rec. A layer without
W_rec carries only alpha * delta and takes its gate once over all frames
after the loop. The per-frame recurrent products go through np.dot, which
gives np.matmul's products bit for bit without its ufunc dispatch. Both
passes equal a frame-by-frame loop bit for bit: each product is the BLAS
call the loop makes (per sample or per frame; one gemm over all T*B rows
rounds differently where BLAS switches kernels), elementwise operations keep
their operands and order, and gradients add the per-frame terms last frame
first.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .containers import FeatureSequence
from .errors import ConfigError, DataError, NumericError, npz_file, npz_meta, npz_write
from .numerics import round_half_away

KIND_INPUT = "input_lowpass"
KIND_RECURRENT = "recurrent"
KIND_OUTPUT = "output"

#: Largest quantizer bit width: levels are stored as int8.
MAX_BITS = 8


def _real(value) -> bool:
    """Whether value is a real number and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite_positive(value) -> bool:
    """Whether value is a real number, not a bool, in (0, the largest float]."""
    return _real(value) and 0 < value <= sys.float_info.max


def clamped_relu(x: np.ndarray, ceiling: float) -> np.ndarray:
    """Elementwise min(max(x, 0), ceiling)."""
    if not ceiling > 0:
        raise ConfigError("clamp ceiling must be positive")
    return np.clip(x, 0.0, ceiling)


def quantize_levels(w: np.ndarray, bits: int = 3) -> tuple[np.ndarray, float]:
    """Integer levels and per-tensor scale of the symmetric quantization grid.

    Levels lie in [-(2**(bits-1)-1), +(2**(bits-1)-1)]; scale is max|w| over
    the top level so the largest magnitude maps exactly onto the grid edge.
    Rounding is half away from zero. Scale is 1.0 if peak / top is 0 (all zero or tiny).
    """
    if bits < 2:
        raise ConfigError("quantizer needs at least 2 bits")
    top = (1 << (bits - 1)) - 1
    peak = float(np.abs(w).max()) if w.size else 0.0
    scale = peak / top if peak / top > 0 else 1.0
    levels = round_half_away(w / scale)
    # np.clip's dispatch costs more than the two ufuncs on small tensors
    levels = np.minimum(np.maximum(levels, -top), top)
    return levels.astype(np.int8), scale


def ste_quantize(w: np.ndarray, bits: int = 3) -> np.ndarray:
    """Forward value of the straight-through quantizer (levels * scale).

    The backward contract is identity on entries inside the clip range and
    zero outside; see ste_grad_mask.
    """
    levels, scale = quantize_levels(w, bits)
    return levels.astype(np.float64) * scale


def ste_grad_mask(w: np.ndarray, bits: int = 3) -> np.ndarray:
    """1.0 where the quantizer did not clip, 0.0 where it did, on the scale
    of quantize_levels."""
    _, scale = quantize_levels(w, bits)
    top = (1 << (bits - 1)) - 1
    return (np.abs(w) <= (top + 0.5) * scale).astype(np.float64)


@dataclass
class LpRnnLayer:
    """One low-pass layer. w_rec is None for feedforward (input/output) layers.

    alpha = 1.0 is accepted here only as a degenerate test value; model
    construction rejects it because it freezes the state permanently.
    """

    kind: str
    w_in: np.ndarray
    w_rec: np.ndarray | None
    bias: np.ndarray
    alpha: float
    mask_in: np.ndarray | None = None
    mask_rec: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (KIND_INPUT, KIND_RECURRENT, KIND_OUTPUT):
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if not (_real(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if self.kind == KIND_RECURRENT:
            if self.w_rec is None:
                raise ConfigError("recurrent layer needs w_rec")
            if self.w_rec.shape != (self.size, self.size):
                raise ConfigError("w_rec must be square [size, size]")
        elif self.w_rec is not None:
            raise ConfigError(f"{self.kind} layer must not have w_rec")
        if self.bias.shape != (self.size,):
            raise ConfigError("bias shape mismatch")
        for name, w, mask in (("mask_in", self.w_in, self.mask_in),
                              ("mask_rec", self.w_rec, self.mask_rec)):
            if mask is not None and not (
                    isinstance(mask, np.ndarray) and w is not None and mask.shape == w.shape
                    and mask.dtype.kind in "biuf" and ((mask == 0) | (mask == 1)).all()):
                raise ConfigError(f"{name} must be a 0/1 array of its weight's shape "
                                  f"{getattr(w, 'shape', None)}")
            if mask is not None and (w[mask == 0] != 0).any():
                raise ConfigError(f"{name} has a nonzero weight under a 0")

    @property
    def size(self) -> int:
        return self.w_in.shape[0]

    @property
    def fan_in(self) -> int:
        return self.w_in.shape[1]


@dataclass
class LpRnnModel:
    """Stack of low-pass layers: input_lowpass, recurrent*, output."""

    layers: list[LpRnnLayer]
    t_ann: float
    clamp_ceiling: float = 1.0
    bits: int = 3
    readout_fraction: float = 0.25
    quantize: bool = True
    norm_stats: dict | None = None
    label_names: list[str] | None = None

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("model needs at least one layer")
        if self.layers[0].kind != KIND_INPUT or self.layers[-1].kind != KIND_OUTPUT:
            raise ConfigError("layer stack must start with input_lowpass and end with output")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.fan_in != prev.size:
                raise ConfigError(
                    f"layer width mismatch: {prev.size} -> expected fan-in, got {cur.fan_in}")
        for layer in self.layers:
            if layer.alpha >= 1.0:
                raise ConfigError("alpha must be < 1 in a model (alpha = 1 freezes the state)")
        if not (_real(self.readout_fraction) and 0 < self.readout_fraction <= 1):
            raise ConfigError(f"readout_fraction must lie in (0, 1], not "
                              f"{self.readout_fraction!r}")
        if not (_finite_positive(self.t_ann) and _finite_positive(self.clamp_ceiling)):
            raise ConfigError(f"t_ann and clamp_ceiling must be finite positive numbers, "
                              f"not {self.t_ann!r} and {self.clamp_ceiling!r}")
        if not (isinstance(self.bits, numbers.Integral) and not isinstance(self.bits, bool)
                and 2 <= self.bits <= MAX_BITS):
            raise ConfigError(f"bits must be an integer in [2, {MAX_BITS}], not {self.bits!r}")
        if not isinstance(self.quantize, (bool, np.bool_)):
            raise ConfigError(f"quantize must be a boolean, not {self.quantize!r}")

    @property
    def n_classes(self) -> int:
        return self.layers[-1].size

    @property
    def n_features(self) -> int:
        return self.layers[0].fan_in

    def effective_weights(self, layer: LpRnnLayer) -> tuple[np.ndarray, np.ndarray | None]:
        """Weights as seen by the forward pass (quantized when enabled)."""
        w_in, w_rec = layer.w_in, layer.w_rec
        if self.quantize:
            w_in = ste_quantize(w_in, self.bits)
            if w_rec is not None:
                w_rec = ste_quantize(w_rec, self.bits)
        return w_in, w_rec

    def copy(self) -> "LpRnnModel":
        def copied(a):
            return None if a is None else a.copy()
        layers = [LpRnnLayer(l.kind, copied(l.w_in), copied(l.w_rec), copied(l.bias), l.alpha,
                             copied(l.mask_in), copied(l.mask_rec)) for l in self.layers]
        return replace(self, layers=layers)


def init_model(n_features: int, hidden: tuple[int, ...], n_classes: int,
               alphas: tuple[float, ...], t_ann: float, seed: int = 0,
               clamp_ceiling: float = 1.0, bits: int = 3,
               readout_fraction: float = 0.25) -> LpRnnModel:
    """Fresh model with uniform Glorot-style init and zero biases."""
    sizes = [n_features, *hidden, n_classes]
    kinds = [KIND_INPUT] + [KIND_RECURRENT] * (len(hidden) - 1) + [KIND_OUTPUT]
    if len(hidden) < 1:
        raise ConfigError("need at least one hidden layer")
    if min(sizes) < 1:
        raise ConfigError(f"layer widths must be at least 1, got {sizes}")
    if len(alphas) != len(kinds):
        raise ConfigError(f"need one alpha per layer ({len(kinds)}), got {len(alphas)}")
    rng = np.random.default_rng(seed)
    layers = []
    for idx, kind in enumerate(kinds):
        fan_in, size = sizes[idx], sizes[idx + 1]
        r = np.sqrt(6.0 / (fan_in + size))
        w_in = rng.uniform(-r, r, size=(size, fan_in))
        w_rec = None
        if kind == KIND_RECURRENT:
            rr = np.sqrt(6.0 / (2 * size))
            w_rec = rng.uniform(-rr, rr, size=(size, size))
        layers.append(LpRnnLayer(kind, w_in, w_rec, np.zeros(size), alphas[idx]))
    return LpRnnModel(layers, t_ann=t_ann, clamp_ceiling=clamp_ceiling, bits=bits,
                      readout_fraction=readout_fraction)


def cell_forward(y_prev: np.ndarray, x_t: np.ndarray, layer: LpRnnLayer,
                 ceiling: float = 1.0) -> np.ndarray:
    """One step of the low-pass cell for a single layer, on the layer's
    weights as they are (a model's view of them is effective_weights)."""
    z = x_t @ layer.w_in.T + layer.bias
    if layer.w_rec is not None:
        z = z + y_prev @ layer.w_rec.T
    return layer.alpha * y_prev + (1.0 - layer.alpha) * clamped_relu(z, ceiling)


def forward_batch(model: LpRnnModel, x: np.ndarray, keep: bool = False):
    """Run the full stack over a batch [B, T, D].

    Returns (logits [B, C], cache). With keep=True (needed for the backward
    pass and traces) the cache holds per-layer y and z histories, frame-major
    [T, B, n]; with keep=False it holds none, and the layers take turns in
    two buffers, each layer writing its drive and then its state over the
    states of the layer two below.
    """
    if x.ndim != 3:
        raise DataError("batch input must be [batch, frames, features]")
    b, t, d = x.shape
    if t == 0:
        raise DataError("empty sequence rejected")
    if d != model.n_features:
        raise DataError(f"feature width {d} != input layer width {model.n_features}")
    c = model.clamp_ceiling
    ys, zs = [], []
    weights = [model.effective_weights(layer) for layer in model.layers]
    if not keep:
        # one block for both buffers: glibc raises its mmap threshold, and the
        # heap's trim threshold with it, to the largest mapped block freed, so
        # after a large pass the heap keeps the pages of bptt_grads' arrays
        # between training steps instead of returning them and faulting
        # them in again
        widest = max(layer.size for layer in model.layers)
        buffers = np.empty((2, t * b * widest))
    h = x
    for li, (layer, (w_in, w_rec)) in enumerate(zip(model.layers, weights)):
        n, alpha = layer.size, layer.alpha
        if keep:
            z, y = np.empty((t, b, n)), np.empty((t, b, n))
            ys.append(y)
            zs.append(z)
        else:
            z = y = buffers[li % 2][:t * b * n].reshape(t, b, n)
        np.matmul(h, w_in.T, out=np.swapaxes(z, 0, 1))
        z += layer.bias
        # y_t = alpha * y_{t-1} + a_t, the product in tmp: on the
        # feed-forward path a_t is y_t
        prev, tmp = np.zeros((b, n)), np.empty((b, n))
        if w_rec is None:
            a = np.clip(z, 0.0, c, out=y)
            a *= 1.0 - alpha
            for a_t, y_t in zip(a, y):
                prev = np.add(np.multiply(prev, alpha, out=tmp), a_t, out=y_t)
        else:
            rec, a, w_rec_t = np.empty((b, n)), np.empty((b, n)), w_rec.T
            for z_t, y_t in zip(z, y):
                np.add(z_t, np.dot(prev, w_rec_t, out=rec), out=z_t)
                np.minimum(np.maximum(z_t, 0.0, out=a), c, out=a)
                a *= 1.0 - alpha
                prev = np.add(np.multiply(prev, alpha, out=tmp), a, out=y_t)
        h = np.swapaxes(y, 0, 1)
    window = max(1, int(np.ceil(model.readout_fraction * t)))
    logits = y[t - window:].mean(axis=0)
    cache = {"x": x, "ys": ys, "zs": zs, "weights": weights, "window": window}
    return logits, cache


def forward_sequence(model: LpRnnModel, features: FeatureSequence):
    """Single-sequence forward pass.

    Returns (logits [C], traces) with traces a list of per-layer [T, n]
    state histories, retained for comparison against the spiking network.
    """
    logits, cache = forward_batch(model, features.data[None, :, :], keep=True)
    traces = [y[:, 0, :].copy() for y in cache["ys"]]
    return logits[0], traces


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    p = softmax(logits)
    n = logits.shape[0]
    return float(-np.log(p[np.arange(n), labels] + 1e-300).mean())


def _frame_sum_back(e: np.ndarray, h: np.ndarray | None) -> np.ndarray:
    """Sum over frames of e[t].T @ h[t] (of e[t].sum(axis=0) when h is None),
    added last frame first as a reverse frame loop adds them."""
    t, _, n = e.shape
    if h is None:
        terms = np.sum(e[::-1], axis=1, out=np.empty((t, n)))
    else:
        terms = np.matmul(e[::-1].transpose(0, 2, 1), h[::-1],
                          out=np.empty((t, n, h.shape[2])))
    return np.add.reduce(terms, axis=0)


def _layer_errors(gain: np.ndarray, alpha: float, w_rec: np.ndarray | None,
                  above: np.ndarray | None, d_out: np.ndarray, window: int) -> np.ndarray:
    """One layer's errors e [T, B, n] by the reverse frame loop, which carries
    only alpha * delta + e @ W_rec. The error from above is `above`, or for
    the output layer d_out over the readout window. The loops' frame views
    end with this call, so they keep no array of this layer alive while the
    next one is worked."""
    t, b, n = gain.shape
    e = np.empty((t, b, n))
    carry = np.zeros((b, n))
    if w_rec is None:
        # e holds the deltas until the loop ends, then takes the gain
        terms = above[::-1] if above is not None else [d_out] * window + [None] * (t - window)
        for e_t, term in zip(e[::-1], terms):
            if term is None:
                e_t[...] = carry
            else:
                np.add(carry, term, out=e_t)
            np.multiply(e_t, alpha, out=carry)
        e *= gain
    else:
        rec = np.empty((b, n))
        for e_t, above_t, gain_t in zip(e[::-1], above[::-1], gain[::-1]):
            np.add(carry, above_t, out=carry)
            np.multiply(carry, gain_t, out=e_t)
            carry *= alpha
            carry += np.dot(e_t, w_rec, out=rec)
    return e


def bptt_grads(model: LpRnnModel, batch: tuple[np.ndarray, np.ndarray]):
    """Exact reverse-mode gradients of the cross-entropy loss through the
    unrolled stack, with the straight-through contract at the quantizers and
    clamped-ReLU subgradient 0 at both rails.

    batch is (features [B, T, D], labels [B]). Returns (grads, loss) where
    grads is a per-layer list of dicts with keys w_in, w_rec, bias.
    """
    x, labels = batch
    if x.shape[0] == 0:
        raise DataError("empty batch")
    logits, cache = forward_batch(model, x, keep=True)
    loss = cross_entropy(logits, labels)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss}")
    b = x.shape[0]
    c = model.clamp_ceiling
    window = cache["window"]

    dlogits = softmax(logits)
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    d_out = dlogits / window

    grads = [None] * len(model.layers)
    above = None  # error from the layer above, every frame [T, B, n]
    for li in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[li]
        w_in, w_rec = cache["weights"][li]
        alpha = layer.alpha
        # clamp subgradient 0 at both rails; since the gate is 0 or 1,
        # delta * (1 - alpha) * gate == delta * ((1 - alpha) * gate)
        z = cache["zs"][li]
        gain = (1.0 - alpha) * ((z > 0.0) & (z < c))
        e = _layer_errors(gain, alpha, w_rec, above, d_out, window)
        h = np.swapaxes(x, 0, 1) if li == 0 else cache["ys"][li - 1]
        grads[li] = {"w_in": _frame_sum_back(e, h),
                     "w_rec": None if w_rec is None
                     else _frame_sum_back(e[1:], cache["ys"][li][:-1]),
                     "bias": _frame_sum_back(e, None)}
        if li > 0:
            above = np.matmul(e, w_in)

    # straight-through mapping back to the full-precision masters
    for layer, g in zip(model.layers, grads):
        for name, mask in (("w_in", layer.mask_in), ("w_rec", layer.mask_rec)):
            if g[name] is None:
                continue
            if model.quantize:
                g[name] *= ste_grad_mask(getattr(layer, name), model.bits)
            if mask is not None:
                g[name] *= mask
    return grads, loss


@dataclass
class TrainConfig:
    epochs: int = 50
    lr: float = 3e-3
    batch_size: int = 32
    seed: int = 0


#: Adam's moment decay rates and denominator offset.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _model_accuracy(model: LpRnnModel, x: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    correct, total, loss_sum, batch = 0, 0, 0.0, 256
    for lo in range(0, x.shape[0], batch):
        logits, _ = forward_batch(model, x[lo:lo + batch])
        pred = logits.argmax(axis=1)
        sel = labels[lo:lo + batch]
        correct += int((pred == sel).sum())
        loss_sum += cross_entropy(logits, sel) * len(sel)
        total += len(sel)
    return correct / total, loss_sum / total


def train(model: LpRnnModel, dataset: dict, config: TrainConfig) -> LpRnnModel:
    """Adam training loop, deterministic given config.seed.

    dataset holds 'train': (X [N,T,D], y [N]) and optionally 'val'. Returns
    the checkpoint with the best validation accuracy (training split is used
    for checkpoint selection when no validation split is given).
    """
    model = model.copy()
    x_tr, y_tr = dataset["train"]
    x_tr = np.asarray(x_tr, dtype=np.float64)
    y_tr = np.asarray(y_tr, dtype=np.int64)
    val = dataset.get("val")
    rng = np.random.default_rng(config.seed)

    # (name, layer) of every trained tensor, in the order of the Adam state
    params = [(name, layer) for layer in model.layers for name in ("w_in", "w_rec", "bias")
              if getattr(layer, name) is not None]
    m_state = [np.zeros_like(getattr(l, name)) for name, l in params]
    v_state = [np.zeros_like(getattr(l, name)) for name, l in params]

    best = model.copy()
    best_acc, best_loss = -1.0, np.inf
    step_count = 0
    for _epoch in range(config.epochs):
        order = rng.permutation(len(x_tr))
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            grads, loss = bptt_grads(model, (x_tr[idx], y_tr[idx]))
            step_count += 1
            flat = [g[name] for g in grads for name in ("w_in", "w_rec", "bias")
                    if g[name] is not None]
            for k, ((name, layer), g) in enumerate(zip(params, flat)):
                m_state[k] = ADAM_BETA1 * m_state[k] + (1 - ADAM_BETA1) * g
                v_state[k] = ADAM_BETA2 * v_state[k] + (1 - ADAM_BETA2) * g * g
                m_hat = m_state[k] / (1 - ADAM_BETA1 ** step_count)
                v_hat = v_state[k] / (1 - ADAM_BETA2 ** step_count)
                upd = config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                setattr(layer, name, getattr(layer, name) - upd)
        if val is not None:
            acc, vloss = _model_accuracy(model, np.asarray(val[0]), np.asarray(val[1]))
        else:
            acc, vloss = _model_accuracy(model, x_tr, y_tr)
        if acc > best_acc or (acc == best_acc and vloss < best_loss):
            best, best_acc, best_loss = model.copy(), acc, vloss
    return best if config.epochs > 0 else model


def magnitude_prune(model: LpRnnModel, sparsity: float) -> LpRnnModel:
    """Zero and freeze the smallest-magnitude fraction of each weight tensor."""
    if not 0.0 <= sparsity < 1.0:
        raise ConfigError("sparsity must lie in [0, 1)")
    model = model.copy()
    if sparsity == 0.0:
        return model
    for layer in model.layers:
        for attr, mask_attr in (("w_in", "mask_in"), ("w_rec", "mask_rec")):
            w = getattr(layer, attr)
            if w is None:
                continue
            flat = np.abs(w).ravel()
            k = int(round(sparsity * flat.size))
            mask = np.ones(flat.size)
            mask[np.argsort(flat, kind="stable")[:k]] = 0.0
            mask = mask.reshape(w.shape)
            if (old := getattr(layer, mask_attr)) is not None:
                mask = mask * old
            setattr(layer, mask_attr, mask)
            setattr(layer, attr, w * mask)
    return model


# Model container format: a .npz holding a JSON metadata entry plus, per
# layer, the full-precision tensors and any pruning masks.

MODEL_FORMAT = "sdrnn-model-v1"


def save_model(model: LpRnnModel, path) -> None:
    meta = {
        "format": MODEL_FORMAT,
        "t_ann": model.t_ann,
        "clamp_ceiling": model.clamp_ceiling,
        "bits": model.bits,
        "readout_fraction": model.readout_fraction,
        "quantize": model.quantize,
        "norm_stats": model.norm_stats,
        "label_names": model.label_names,
        "layers": [{"kind": l.kind, "size": l.size, "fan_in": l.fan_in, "alpha": l.alpha}
                   for l in model.layers],
    }
    npz_write(path, meta, model.layers, ("w_in", "bias", "w_rec", "mask_in", "mask_rec"))


def load_model(path) -> LpRnnModel:
    """Read a model file: a path or an open binary file."""
    with npz_file(path) as data:
        meta = npz_meta(data, path, MODEL_FORMAT)
        norm_stats, label_names = meta["norm_stats"], meta["label_names"]
        if not (isinstance(meta["layers"], list)
                and all(isinstance(lmeta, dict) for lmeta in meta["layers"])):
            raise DataError(f"{path}: layers must be a list of JSON objects")
        if not (norm_stats is None or isinstance(norm_stats, dict)):
            raise DataError(f"{path}: norm_stats must be a JSON object or null")
        if not (label_names is None or (isinstance(label_names, list)
                                        and all(isinstance(n, str) for n in label_names))):
            raise DataError(f"{path}: label_names must be a list of strings or null")
        # the model checks the other values' types (a ConfigError, read as a DataError)
        layers = []
        for li, lmeta in enumerate(meta["layers"]):
            layers.append(LpRnnLayer(lmeta["kind"], data[f"l{li}_w_in"], data.get(f"l{li}_w_rec"),
                                     data[f"l{li}_bias"], lmeta["alpha"],
                                     data.get(f"l{li}_mask_in"), data.get(f"l{li}_mask_rec")))
        return LpRnnModel(layers, t_ann=meta["t_ann"], clamp_ceiling=meta["clamp_ceiling"],
                          bits=meta["bits"], readout_fraction=meta["readout_fraction"],
                          quantize=meta["quantize"], norm_stats=norm_stats,
                          label_names=label_names)
