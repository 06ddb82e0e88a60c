"""Low-pass RNN: cell dynamics, quantization-aware BPTT training, pruning.

The cell computes y_t = alpha * y_{t-1} + (1 - alpha) * sigma(W_rec y_{t-1}
+ W_in x_t + b) with sigma a clamped ReLU, so the state is an exponentially
smoothed mixture whose memory is set by alpha. Networks stack a feedforward
low-pass input layer, recurrent low-pass layers, and a non-recurrent
low-pass output layer; class scores are the output state averaged over the
trailing fraction of frames.

Weights are trained quantization-aware: every forward pass sees the 3-bit
quantized view of the weights while gradients pass straight through the
quantizer to the full-precision master copy.

Histories are frame-major [T, B, n]. The forward pass writes each layer's
drive for all frames into one buffer, then scans the frames in place. The
backward pass runs layer by layer, top first: the error from the layer
above, the gates and the weight-gradient terms come for all frames at once,
and the reverse frame loop carries only alpha * delta + e @ W_rec. Both equal
a frame-by-frame loop bit for bit: each product is the BLAS call the loop
makes (per sample or per frame; one gemm over all T*B rows rounds
differently where BLAS switches kernels), elementwise operations keep their
order, and gradients add the per-frame terms last frame first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .containers import FeatureSequence
from .errors import ConfigError, DataError, NumericError, npz_file

KIND_INPUT = "input_lowpass"
KIND_RECURRENT = "recurrent"
KIND_OUTPUT = "output"


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
    raw = w / scale
    levels = np.sign(raw) * np.floor(np.abs(raw) + 0.5)
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
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.kind == KIND_RECURRENT:
            if self.w_rec is None:
                raise ConfigError("recurrent layer needs w_rec")
            if self.w_rec.shape != (self.size, self.size):
                raise ConfigError("w_rec must be square [size, size]")
        elif self.w_rec is not None:
            raise ConfigError(f"{self.kind} layer must not have w_rec")
        if self.bias.shape != (self.size,):
            raise ConfigError("bias shape mismatch")

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
        if not 0 < self.readout_fraction <= 1:
            raise ConfigError("readout_fraction must lie in (0, 1]")
        if not self.t_ann > 0:
            raise ConfigError("t_ann must be positive")

    @property
    def n_classes(self) -> int:
        return self.layers[-1].size

    @property
    def n_features(self) -> int:
        return self.layers[0].fan_in

    def effective_weights(self, layer: LpRnnLayer) -> tuple[np.ndarray, np.ndarray | None]:
        """Weights as seen by the forward pass (quantized when enabled, pruned zeros kept)."""
        w_in, w_rec = layer.w_in, layer.w_rec
        if layer.mask_in is not None:
            w_in = w_in * layer.mask_in
        if w_rec is not None and layer.mask_rec is not None:
            w_rec = w_rec * layer.mask_rec
        if self.quantize:
            w_in = ste_quantize(w_in, self.bits)
            if w_rec is not None:
                w_rec = ste_quantize(w_rec, self.bits)
        return w_in, w_rec

    def copy(self) -> "LpRnnModel":
        layers = [LpRnnLayer(l.kind, l.w_in.copy(),
                             None if l.w_rec is None else l.w_rec.copy(),
                             l.bias.copy(), l.alpha,
                             None if l.mask_in is None else l.mask_in.copy(),
                             None if l.mask_rec is None else l.mask_rec.copy())
                  for l in self.layers]
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
                 ceiling: float = 1.0, quantize: bool = False, bits: int = 3) -> np.ndarray:
    """One step of the low-pass cell for a single layer."""
    w_in, w_rec = layer.w_in, layer.w_rec
    if quantize:
        w_in = ste_quantize(w_in, bits)
        w_rec = None if w_rec is None else ste_quantize(w_rec, bits)
    z = x_t @ w_in.T + layer.bias
    if w_rec is not None:
        z = z + y_prev @ w_rec.T
    return layer.alpha * y_prev + (1.0 - layer.alpha) * clamped_relu(z, ceiling)


def _readout_window(n_frames: int, fraction: float) -> int:
    return max(1, int(np.ceil(fraction * n_frames)))


def forward_batch(model: LpRnnModel, x: np.ndarray, keep: bool = False):
    """Run the full stack over a batch [B, T, D].

    Returns (logits [B, C], cache) where the cache holds per-layer y and, when
    keep=True (needed for the backward pass and traces), z histories, both
    frame-major [T, B, n].
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
    h = x
    for layer, (w_in, w_rec) in zip(model.layers, weights):
        n, alpha = layer.size, layer.alpha
        z = np.empty((t, b, n))
        np.matmul(h, w_in.T, out=np.swapaxes(z, 0, 1))
        z += layer.bias
        y = np.empty((t, b, n))
        prev = np.zeros((b, n))
        if w_rec is None:
            a = clamped_relu(z, c)
            a *= 1.0 - alpha
            for step in range(t):
                prev = np.add(np.multiply(prev, alpha, out=y[step]), a[step], out=y[step])
        else:
            rec, a = np.empty((b, n)), np.empty((b, n))
            for step in range(t):
                zt = np.add(z[step], np.matmul(prev, w_rec.T, out=rec), out=z[step])
                np.minimum(np.maximum(zt, 0.0, out=a), c, out=a)
                a *= 1.0 - alpha
                prev = np.add(np.multiply(prev, alpha, out=y[step]), a, out=y[step])
        ys.append(y)
        zs.append(z if keep else None)
        h = np.swapaxes(y, 0, 1)
    window = _readout_window(t, model.readout_fraction)
    logits = ys[-1][t - window:].mean(axis=0)
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
    b, t, _ = x.shape
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
        n, alpha = layer.size, layer.alpha
        # clamp subgradient 0 at both rails; since the gate is 0 or 1,
        # delta * (1 - alpha) * gate == delta * ((1 - alpha) * gate)
        z = cache["zs"][li]
        gain = (1.0 - alpha) * ((z > 0.0) & (z < c))
        e = np.empty((t, b, n))
        carry, delta, rec = np.zeros((b, n)), np.empty((b, n)), np.empty((b, n))
        for step in range(t - 1, -1, -1):
            if above is not None:
                dl = np.add(carry, above[step], out=delta)
            elif step >= t - window:
                dl = np.add(carry, d_out, out=delta)
            else:
                dl = carry
            np.multiply(dl, gain[step], out=e[step])
            np.multiply(dl, alpha, out=carry)
            if w_rec is not None:
                carry += np.matmul(e[step], w_rec, out=rec)
        h = np.swapaxes(x, 0, 1) if li == 0 else cache["ys"][li - 1]
        grads[li] = {"w_in": _frame_sum_back(e, h),
                     "w_rec": None if w_rec is None
                     else _frame_sum_back(e[1:], cache["ys"][li][:-1]),
                     "bias": _frame_sum_back(e, None)}
        if li > 0:
            above = np.matmul(e, w_in)

    # straight-through mapping back to the full-precision masters
    for layer, g in zip(model.layers, grads):
        if model.quantize:
            g["w_in"] *= ste_grad_mask(layer.w_in if layer.mask_in is None
                                       else layer.w_in * layer.mask_in, model.bits)
            if g["w_rec"] is not None:
                w = layer.w_rec if layer.mask_rec is None else layer.w_rec * layer.mask_rec
                g["w_rec"] *= ste_grad_mask(w, model.bits)
        if layer.mask_in is not None:
            g["w_in"] *= layer.mask_in
        if g["w_rec"] is not None and layer.mask_rec is not None:
            g["w_rec"] *= layer.mask_rec
    return grads, loss


@dataclass
class TrainConfig:
    epochs: int = 50
    lr: float = 3e-3
    batch_size: int = 32
    seed: int = 0


#: Adam's moment decay rates and denominator offset.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _model_accuracy(model: LpRnnModel, x: np.ndarray, labels: np.ndarray,
                    batch: int = 256) -> tuple[float, float]:
    correct, total, loss_sum = 0, 0, 0.0
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
            if not np.isfinite(loss):
                raise NumericError("training diverged (non-finite loss)")
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
            for layer in model.layers:
                if layer.mask_in is not None:
                    layer.w_in *= layer.mask_in
                if layer.mask_rec is not None:
                    layer.w_rec *= layer.mask_rec
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
            if k > 0:
                order = np.argsort(flat, kind="stable")
                mask[order[:k]] = 0.0
            mask = mask.reshape(w.shape)
            old = getattr(layer, mask_attr)
            if old is not None:
                mask = mask * old
            setattr(layer, mask_attr, mask)
            setattr(layer, attr, w * mask)
    return model


# Model container format: a .npz holding a JSON metadata entry plus, per
# layer, the full-precision tensors and any pruning masks.

def save_model(model: LpRnnModel, path) -> None:
    meta = {
        "format": "sdrnn-model-v1",
        "t_ann": model.t_ann,
        "clamp_ceiling": model.clamp_ceiling,
        "bits": model.bits,
        "readout_fraction": model.readout_fraction,
        "quantize": model.quantize,
        "norm_stats": model.norm_stats,
        "label_names": model.label_names,
        "layers": [{"kind": l.kind, "size": l.size, "fan_in": l.fan_in, "alpha": l.alpha,
                    "pruned": l.mask_in is not None} for l in model.layers],
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for li, layer in enumerate(model.layers):
        arrays[f"l{li}_w_in"] = layer.w_in
        arrays[f"l{li}_bias"] = layer.bias
        if layer.w_rec is not None:
            arrays[f"l{li}_w_rec"] = layer.w_rec
        if layer.mask_in is not None:
            arrays[f"l{li}_mask_in"] = layer.mask_in
        if layer.mask_rec is not None:
            arrays[f"l{li}_mask_rec"] = layer.mask_rec
    if hasattr(path, "write"):
        np.savez(path, **arrays)
    else:
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)


def load_model(path) -> LpRnnModel:
    """Read a model file: a path or an open binary file."""
    with npz_file(path) as data:
        if "meta" not in data:
            raise DataError(f"{path}: not a model file (missing metadata)")
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("format") != "sdrnn-model-v1":
            raise DataError(f"{path}: unsupported model format {meta.get('format')!r}")
        layers = []
        for li, lmeta in enumerate(meta["layers"]):
            w_rec = data[f"l{li}_w_rec"] if f"l{li}_w_rec" in data else None
            mask_in = data[f"l{li}_mask_in"] if f"l{li}_mask_in" in data else None
            mask_rec = data[f"l{li}_mask_rec"] if f"l{li}_mask_rec" in data else None
            layers.append(LpRnnLayer(lmeta["kind"], data[f"l{li}_w_in"], w_rec,
                                     data[f"l{li}_bias"], lmeta["alpha"],
                                     mask_in, mask_rec))
        return LpRnnModel(layers, t_ann=meta["t_ann"], clamp_ceiling=meta["clamp_ceiling"],
                          bits=meta["bits"], readout_fraction=meta["readout_fraction"],
                          quantize=meta["quantize"], norm_stats=meta["norm_stats"],
                          label_names=meta["label_names"])
