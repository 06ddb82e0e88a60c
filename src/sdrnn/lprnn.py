"""Low-pass RNN: cell dynamics, quantization-aware BPTT training, pruning.

The cell computes y_t = alpha * y_{t-1} + (1 - alpha) * sigma(W_rec y_{t-1}
+ W_in x_t + b) with sigma a clamped ReLU, so the state is an exponentially
smoothed mixture whose memory is set by alpha. The ReLU's ceiling is the
constant CLAMP_CEILING = 1.0: a compiled neuron carries its activation as a
spike rate, and one spiking every step holds s = f, activation 1.0. Networks
stack a feedforward low-pass input layer, recurrent low-pass layers, and a
non-recurrent low-pass output layer; class scores are the output state
averaged over the trailing fraction of frames.

Weights are trained quantization-aware: every forward pass sees the 3-bit
quantized view of the weights. The quantizer clips nothing, so each
full-precision master weight receives its quantized weight's gradient, apart
from the pruning mask. LpRnnModel.effective_weights is that one view, for
training, the compiler and the benchmark models alike. LpRnnLayer checks its
arrays where it is built: the weights and bias hold finite real numbers, a
mask is a 0/1 array of its weight's shape, and the weights under its 0s are
zero (pruning). A masked gradient is +-0, so Adam's moments and update stay
+0 and a pruned weight never moves.

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

import copy
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .containers import FeatureSequence
from .errors import (ConfigError, DataError, NumericError, _finite_positive, _real, npz_file,
                     exact_keys, npz_layers, npz_meta, npz_write)
from .numerics import round_half_away

KIND_INPUT = "input_lowpass"
KIND_RECURRENT = "recurrent"
KIND_OUTPUT = "output"

#: Largest quantizer bit width: levels are stored as int8.
MAX_BITS = 8
#: The clamped ReLU's ceiling, the full-rate activation (module docstring).
CLAMP_CEILING = 1.0


def clamped_relu(x: np.ndarray) -> np.ndarray:
    """Elementwise min(max(x, 0), CLAMP_CEILING)."""
    return np.clip(x, 0.0, CLAMP_CEILING)


def quantize_levels(w: np.ndarray, bits: int = 3) -> tuple[np.ndarray, float]:
    """Integer levels and per-tensor scale of the symmetric quantization grid.

    The scale is max|w| over the top level 2**(bits-1)-1, or 1.0 where that
    quotient is not a normal float (then every level is 0). Levels are
    round_half_away(w / scale) with no clip: |w / scale| <= top * (1 + 2**-51)
    < top + 1/2, so they lie in [-top, top].
    """
    if bits < 2:
        raise ConfigError("quantizer needs at least 2 bits")
    top = (1 << (bits - 1)) - 1
    peak = float(np.abs(w, dtype=np.float64).max()) if w.size else 0.0  # no integer wrap
    scale = peak / top if peak / top >= sys.float_info.min else 1.0
    return round_half_away(w / scale).astype(np.int8), scale


def ste_quantize(w: np.ndarray, bits: int = 3) -> np.ndarray:
    """Forward value of the straight-through quantizer (levels * scale).

    The quantizer clips nothing (see quantize_levels), so its backward pass
    is the identity.
    """
    levels, scale = quantize_levels(w, bits)
    return levels.astype(np.float64) * scale


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
        for name, ndim in (("w_in", 2), ("w_rec", 2), ("bias", 1)):
            value = getattr(self, name)
            if (value is not None or name != "w_rec") and not (
                    isinstance(value, np.ndarray) and value.ndim == ndim
                    and value.dtype.kind in "iuf" and np.isfinite(value).all()):
                raise ConfigError(f"{name} must be a {ndim}-D array of finite real numbers, "
                                  f"not {getattr(value, 'dtype', type(value))} "
                                  f"{getattr(value, 'shape', '')}")
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
    bits: int = 3
    readout_fraction: float = 0.25
    quantize: bool = True
    norm_stats: dict | None = None
    label_names: list[str] | None = None

    def __post_init__(self):
        kinds = [layer.kind for layer in self.layers]
        if kinds != [KIND_INPUT] + [KIND_RECURRENT] * (len(kinds) - 2) + [KIND_OUTPUT]:
            raise ConfigError(f"layer stack must be {KIND_INPUT}, then {KIND_RECURRENT} layers, "
                              f"then {KIND_OUTPUT}, not {kinds}")
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
        if not _finite_positive(self.t_ann):
            raise ConfigError(f"t_ann must be a finite positive number, not {self.t_ann!r}")
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
        """A copy with arrays of its own. It runs no check, so weights that
        went non-finite in training reach the loss check."""
        dup = copy.copy(self)
        dup.layers = [copy.copy(layer) for layer in self.layers]
        for layer in dup.layers:
            for name in ("w_in", "w_rec", "bias", "mask_in", "mask_rec"):
                if (array := getattr(layer, name)) is not None:
                    setattr(layer, name, array.copy())
        return dup


def init_model(n_features: int, hidden: tuple[int, ...], n_classes: int,
               alphas: tuple[float, ...], t_ann: float, seed: int = 0, bits: int = 3,
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
    return LpRnnModel(layers, t_ann=t_ann, bits=bits, readout_fraction=readout_fraction)


def cell_forward(y_prev: np.ndarray, x_t: np.ndarray, layer: LpRnnLayer) -> np.ndarray:
    """One step of the low-pass cell for a single layer, on the layer's
    weights as they are (a model's view of them is effective_weights)."""
    z = x_t @ layer.w_in.T + layer.bias
    if layer.w_rec is not None:
        z = z + y_prev @ layer.w_rec.T
    return layer.alpha * y_prev + (1.0 - layer.alpha) * clamped_relu(z)


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
            a = np.clip(z, 0.0, CLAMP_CEILING, out=y)
            a *= 1.0 - alpha
            for a_t, y_t in zip(a, y):
                prev = np.add(np.multiply(prev, alpha, out=tmp), a_t, out=y_t)
        else:
            rec, a, w_rec_t = np.empty((b, n)), np.empty((b, n)), w_rec.T
            for z_t, y_t in zip(z, y):
                np.add(z_t, np.dot(prev, w_rec_t, out=rec), out=z_t)
                np.minimum(np.maximum(z_t, 0.0, out=a), CLAMP_CEILING, out=a)
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
    unrolled stack, with clamped-ReLU subgradient 0 at both rails. The
    quantizers pass gradients through unchanged, so each master weight takes
    its quantized weight's gradient, times its pruning mask.

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
        gain = (1.0 - alpha) * ((z > 0.0) & (z < CLAMP_CEILING))
        e = _layer_errors(gain, alpha, w_rec, above, d_out, window)
        h = np.swapaxes(x, 0, 1) if li == 0 else cache["ys"][li - 1]
        grads[li] = {"w_in": _frame_sum_back(e, h),
                     "w_rec": None if w_rec is None
                     else _frame_sum_back(e[1:], cache["ys"][li][:-1]),
                     "bias": _frame_sum_back(e, None)}
        if li > 0:
            above = np.matmul(e, w_in)

    # the pruning masks; LpRnnLayer allows one only for a weight that exists
    for layer, g in zip(model.layers, grads):
        for name, mask in (("w_in", layer.mask_in), ("w_rec", layer.mask_rec)):
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


# A model file's metadata ("format", these fields, "layers"), each layer's,
# and each layer's full-precision tensors and pruning masks, as written.
MODEL_FORMAT = "sdrnn-model-v1"
_MODEL_FIELDS = ("t_ann", "bits", "readout_fraction", "quantize", "norm_stats", "label_names")
_LAYER_FIELDS = ("kind", "size", "fan_in", "alpha")
_LAYER_ARRAYS = ("w_in", "bias", "w_rec", "mask_in", "mask_rec")


def save_model(model: LpRnnModel, path) -> None:
    meta = {"format": MODEL_FORMAT, **{key: getattr(model, key) for key in _MODEL_FIELDS},
            "layers": [{key: getattr(l, key) for key in _LAYER_FIELDS} for l in model.layers]}
    npz_write(path, meta, model.layers, _LAYER_ARRAYS)


def load_model(path) -> LpRnnModel:
    """Read a model file, a path or an open binary file: a classifier of at
    least two classes. It holds "meta" and, of each layer that meta lists,
    the _LAYER_ARRAYS that the layer has; another entry is a DataError."""
    with npz_file(path) as data:
        meta = npz_meta(data, path, MODEL_FORMAT)
        exact_keys(meta, ("format", *_MODEL_FIELDS, "layers"), path, "a model file")
        norm_stats, label_names = meta["norm_stats"], meta["label_names"]
        if not (norm_stats is None or isinstance(norm_stats, dict)):
            raise DataError(f"{path}: norm_stats must be a JSON object or null")
        if not (label_names is None or (isinstance(label_names, list)
                                        and all(isinstance(n, str) for n in label_names))):
            raise DataError(f"{path}: label_names must be a list of strings or null")
        # the model checks the other values' types (a ConfigError, read as a DataError)
        stored, _ = npz_layers(data, meta, path, "model", _LAYER_FIELDS, _LAYER_ARRAYS)
        layers = []
        for li, (lmeta, arrays) in enumerate(stored):
            layer = LpRnnLayer(lmeta["kind"], alpha=lmeta["alpha"], **arrays)
            for key in ("size", "fan_in"):
                got, want = lmeta[key], getattr(layer, key)
                if type(got) is not int or got != want:  # a bool is no size
                    raise DataError(f"{path}: layer {li}: {key} is {got!r}, not the {want} of "
                                    "its w_in")
            layers.append(layer)
        model = LpRnnModel(layers, **{key: meta[key] for key in _MODEL_FIELDS})
    if model.n_classes < 2:
        raise DataError(f"{path}: the output layer has {model.n_classes} unit(s); a classifier "
                        "needs at least two")
    return model
