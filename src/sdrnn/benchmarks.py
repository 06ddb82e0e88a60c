"""Random well-conditioned models and smooth probe signals for fidelity
benchmarking of the spiking conversion.

Conversion error has a floor set by the spike-feedback granularity
(w_fb / f = 1 / tau_s per layer), so relative-error benchmarks need layers
whose activations sit comfortably above that floor. The generator draws
random 3-bit-quantized weights and then calibrates per-unit biases so mean
pre-activations land in the active region of the clamped ReLU, the regime
trained networks occupy (low-activity units are what magnitude pruning
removes before conversion).

Constants: a probe is a tanh-squashed random walk (steps of sd 0.2) at
0.5 +- 0.4 that rises over an 8-frame onset. Weights are normal, sd 0.8 /
sqrt(fan_in) in and 0.5 / sqrt(size) recurrent; mean pre-activations are
steered into (0.2, 0.45), the output layer's into (0.1, 0.55). Every layer
has alpha 0.6, and frames are 10 ms.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .lprnn import LpRnnModel, cell_forward, init_model


def make_smooth_input(rng: np.random.Generator, frames: int, dims: int) -> np.ndarray:
    """Smooth random trajectories in [0, 1] with a smooth onset ramp.

    A bounded random walk squashed through tanh, multiplied by a raised-cosine
    onset over the first 8 frames so the signal rises from rest instead
    of stepping at frame zero (a spiking cascade starts silent and cannot
    match a discontinuous onset).
    """
    walk = np.cumsum(rng.normal(0.0, 0.2, size=(frames, dims)), axis=0)
    sig = 0.5 + 0.4 * np.tanh(walk / 3.0)
    t = np.arange(frames)[:, None]
    env = np.where(t < 8, 0.5 * (1.0 - np.cos(np.pi * t / 8)), 1.0)
    return sig * env


def _run_layer(layer, h: np.ndarray) -> np.ndarray:
    y = np.zeros((1, layer.size))
    out = np.empty((h.shape[0], layer.size))
    for t in range(h.shape[0]):
        y = cell_forward(y, h[t][None], layer)
        out[t] = y[0]
    return out


def make_random_model(rng: np.random.Generator, n_in: int = 8,
                      hidden: tuple[int, ...] = (32, 32, 32), n_out: int = 4,
                      calib_frames: int = 30) -> LpRnnModel:
    """Random quantized model with biases calibrated on a smooth probe.

    One shared alpha (the usual hyperparameter setup); per-unit mean
    pre-activations are steered into their target range by two bias passes,
    the second folding in the recurrent drive observed after the first.
    """
    model = init_model(n_in, hidden, n_out, (0.6,) * (len(hidden) + 1),
                       t_ann=0.01, seed=int(rng.integers(1 << 30)))
    h = make_smooth_input(rng, calib_frames, n_in)
    for layer in model.layers:
        layer.w_in = rng.normal(0.0, 0.8 / np.sqrt(layer.fan_in), size=layer.w_in.shape)
        if layer.w_rec is not None:
            layer.w_rec = rng.normal(0.0, 0.5 / np.sqrt(layer.size), size=layer.w_rec.shape)
        target_range = (0.1, 0.55) if layer is model.layers[-1] else (0.2, 0.45)
        target = rng.uniform(*target_range, size=layer.size)
        layer.bias = np.zeros(layer.size)
        w_in, w_rec = model.effective_weights(layer)
        for _ in range(2):
            y_trace = _run_layer(replace(layer, w_in=w_in, w_rec=w_rec), h)
            z_mean = (h @ w_in.T).mean(axis=0) + layer.bias
            if w_rec is not None:
                z_mean = z_mean + (y_trace @ w_rec.T).mean(axis=0)
            layer.bias = layer.bias + (target - z_mean)
        h = _run_layer(replace(layer, w_in=w_in, w_rec=w_rec), h)
    return model
