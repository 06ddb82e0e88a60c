import io
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sdrnn.errors import ConfigError, DataError, NumericError
from sdrnn.lprnn import (KIND_INPUT, KIND_OUTPUT, KIND_RECURRENT, LpRnnLayer,
                         LpRnnModel, TrainConfig, bptt_grads, cell_forward,
                         clamped_relu, cross_entropy, forward_batch,
                         forward_sequence, init_model, load_model,
                         magnitude_prune, quantize_levels, save_model,
                         softmax, ste_grad_mask, ste_quantize, train)
from sdrnn.containers import FeatureSequence


def scalar_cell_oracle(y_prev, x_t, w_in, w_rec, bias, alpha, ceiling):
    """Element-by-element evaluation of the low-pass cell, loops only."""
    n = len(bias)
    out = np.zeros(n)
    for j in range(n):
        z = bias[j]
        for k in range(len(x_t)):
            z += w_in[j, k] * x_t[k]
        if w_rec is not None:
            for k in range(n):
                z += w_rec[j, k] * y_prev[k]
        a = min(max(z, 0.0), ceiling)
        out[j] = alpha * y_prev[j] + (1.0 - alpha) * a
    return out


def random_model(rng, n_in=3, hidden=(4, 4, 4), n_out=3, alphas=None, quantize=False,
                 weight_scale=1.0, bias_scale=0.3, readout_fraction=0.25):
    alphas = alphas or (0.6, 0.7, 0.8, 0.5)
    model = init_model(n_in, hidden, n_out, alphas, t_ann=0.01, seed=int(rng.integers(1 << 30)))
    model.quantize = quantize
    for layer in model.layers:
        layer.w_in = rng.normal(0.0, weight_scale / np.sqrt(layer.fan_in),
                                size=layer.w_in.shape)
        if layer.w_rec is not None:
            layer.w_rec = rng.normal(0.0, weight_scale / np.sqrt(layer.size),
                                     size=layer.w_rec.shape)
        layer.bias = rng.normal(0.0, bias_scale, size=layer.bias.shape)
    model.readout_fraction = readout_fraction
    return model


def loop_forward_batch(model, x):
    """Frame-by-frame forward pass, one frame and one layer at a time: the
    independent oracle for the frame-major forward_batch."""
    b, t, _ = x.shape
    c = model.clamp_ceiling
    ys, zs = [], []
    weights = [model.effective_weights(layer) for layer in model.layers]
    h = x
    for layer, (w_in, w_rec) in zip(model.layers, weights):
        n = layer.size
        y = np.zeros((b, n))
        y_hist, z_hist = np.empty((t, b, n)), np.empty((t, b, n))
        drive = np.swapaxes(h @ w_in.T + layer.bias, 0, 1)
        for step in range(t):
            z = drive[step]
            if w_rec is not None:
                z = z + y @ w_rec.T
            y = layer.alpha * y + (1.0 - layer.alpha) * np.clip(z, 0.0, c)
            z_hist[step] = z
            y_hist[step] = y
        ys.append(y_hist)
        zs.append(z_hist)
        h = np.swapaxes(y_hist, 0, 1)
    window = max(1, int(np.ceil(model.readout_fraction * t)))
    logits = ys[-1][t - window:].mean(axis=0)
    return logits, {"ys": ys, "zs": zs, "weights": weights, "window": window}


def loop_bptt_grads(model, x, labels):
    """Reverse frame loop with every layer inside each frame: the independent
    oracle for the layer-outer bptt_grads."""
    logits, cache = loop_forward_batch(model, x)
    loss = cross_entropy(logits, labels)
    b, t, _ = x.shape
    c = model.clamp_ceiling
    n_layers = len(model.layers)
    window = cache["window"]
    dlogits = softmax(logits)
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    grads = [{"w_in": np.zeros_like(l.w_in),
              "w_rec": None if l.w_rec is None else np.zeros_like(l.w_rec),
              "bias": np.zeros_like(l.bias)} for l in model.layers]
    carry = [np.zeros((b, l.size)) for l in model.layers]
    e_same_frame = [None] * n_layers
    for step in range(t - 1, -1, -1):
        for li in range(n_layers - 1, -1, -1):
            layer = model.layers[li]
            w_in, w_rec = cache["weights"][li]
            delta = carry[li]
            if li == n_layers - 1 and step >= t - window:
                delta = delta + dlogits / window
            if li + 1 < n_layers:
                delta = delta + e_same_frame[li + 1] @ cache["weights"][li + 1][0]
            z = cache["zs"][li][step]
            gate = ((z > 0.0) & (z < c)).astype(z.dtype)
            e = delta * (1.0 - layer.alpha) * gate
            e_same_frame[li] = e
            h_prev = x[:, step, :] if li == 0 else cache["ys"][li - 1][step]
            y_prev = cache["ys"][li][step - 1] if step > 0 else np.zeros((b, layer.size))
            grads[li]["w_in"] += e.T @ h_prev
            if w_rec is not None:
                grads[li]["w_rec"] += e.T @ y_prev
            grads[li]["bias"] += e.sum(axis=0)
            new_carry = layer.alpha * delta
            if w_rec is not None:
                new_carry = new_carry + e @ w_rec
            carry[li] = new_carry
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
    return logits, cache, grads, loss


class TestClampedRelu:
    def test_zero(self):
        assert np.all(clamped_relu(np.zeros(4), 1.0) == 0.0)

    def test_floor(self):
        assert clamped_relu(np.array([-5.0]), 1.0)[0] == 0.0

    def test_ceiling(self):
        assert clamped_relu(np.array([3.7]), 1.0)[0] == 1.0

    @given(arrays(np.float64, (7,), elements=st.floats(-10, 10)), st.floats(0.1, 5.0))
    def test_bounds(self, x, c):
        out = clamped_relu(x, c)
        assert np.all(out >= 0.0) and np.all(out <= c)


class TestCellForward:
    def test_alpha_one_is_identity(self):
        rng = np.random.default_rng(1)
        layer = LpRnnLayer(KIND_RECURRENT, rng.normal(size=(4, 3)), rng.normal(size=(4, 4)),
                           rng.normal(size=4), alpha=1.0)
        y_prev = rng.uniform(0, 1, size=(1, 4))
        out = cell_forward(y_prev, rng.normal(size=(1, 3)), layer)
        np.testing.assert_array_equal(out, y_prev)

    def test_alpha_zero_no_recurrence_is_feedforward(self):
        rng = np.random.default_rng(2)
        layer = LpRnnLayer(KIND_INPUT, rng.normal(size=(4, 3)), None, rng.normal(size=4),
                           alpha=0.0)
        x = rng.normal(size=(1, 3))
        out = cell_forward(np.zeros((1, 4)), x, layer)
        expected = clamped_relu(x @ layer.w_in.T + layer.bias, 1.0)
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            alpha = float(rng.uniform(0, 0.99))
            layer = LpRnnLayer(KIND_RECURRENT, rng.normal(size=(n, m)),
                               rng.normal(size=(n, n)), rng.normal(size=n), alpha)
            y_prev = rng.uniform(0, 1, size=n)
            x_t = rng.normal(size=m)
            got = cell_forward(y_prev[None, :], x_t[None, :], layer)[0]
            want = scalar_cell_oracle(y_prev, x_t, layer.w_in, layer.w_rec,
                                      layer.bias, alpha, 1.0)
            np.testing.assert_allclose(got, want, rtol=1e-12)


class TestForwardSequence:
    def test_zero_features_zero_bias_zero_logits(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, bias_scale=0.0)
        feats = FeatureSequence(np.zeros((10, 3)), frame_period=0.01)
        logits, traces = forward_sequence(model, feats)
        assert np.all(logits == 0.0)
        assert all(np.all(tr == 0.0) for tr in traces)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        with pytest.raises(DataError):
            forward_batch(model, np.zeros((1, 0, 3)))

    def test_one_frame_alpha_zero_is_mlp(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, alphas=(0.0, 0.0, 0.0, 0.0), readout_fraction=1.0)
        x = rng.uniform(0, 1, size=(1, 3))
        logits, _ = forward_sequence(model, FeatureSequence(x, frame_period=0.01))
        h = x
        for layer in model.layers:
            z = h @ layer.w_in.T + layer.bias
            if layer.w_rec is not None:
                z = z + np.zeros((1, layer.size)) @ layer.w_rec.T
            h = clamped_relu(z, 1.0)
        np.testing.assert_allclose(logits, h[0], rtol=1e-12)

    def test_matches_cell_forward_chaining(self):
        rng = np.random.default_rng(7)
        model = random_model(rng)
        feats = rng.uniform(0, 1, size=(20, 3))
        logits, traces = forward_sequence(model, FeatureSequence(feats, frame_period=0.01))
        states = [np.zeros((1, l.size)) for l in model.layers]
        ys = [[] for _ in model.layers]
        for t in range(20):
            h = feats[t][None, :]
            for li, layer in enumerate(model.layers):
                states[li] = cell_forward(states[li], h, layer, model.clamp_ceiling)
                ys[li].append(states[li][0].copy())
                h = states[li]
        for li in range(len(model.layers)):
            np.testing.assert_allclose(traces[li], np.array(ys[li]), rtol=1e-12)
        window = int(np.ceil(0.25 * 20))
        np.testing.assert_allclose(logits, np.array(ys[-1])[-window:].mean(axis=0), rtol=1e-12)

    @given(st.integers(0, 1 << 16))
    @settings(max_examples=15, deadline=None)
    def test_state_stays_in_clamp_range(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, weight_scale=3.0, bias_scale=1.0)
        feats = rng.normal(0.0, 2.0, size=(12, 3))
        _, traces = forward_sequence(model, FeatureSequence(feats, frame_period=0.01))
        for tr in traces:
            assert np.all(tr >= 0.0) and np.all(tr <= model.clamp_ceiling)

    def test_constant_input_monotone_convergence_feedforward(self):
        # low-pass property: the input layer's state approaches its fixed
        # point monotonically for a held input
        rng = np.random.default_rng(8)
        layer = LpRnnLayer(KIND_INPUT, rng.normal(size=(5, 3)), None,
                           rng.normal(size=5), alpha=0.9)
        x = rng.uniform(0, 1, size=(1, 3))
        y = np.zeros((1, 5))
        prev_gap = None
        target = clamped_relu(x @ layer.w_in.T + layer.bias, 1.0)
        for _ in range(60):
            y = cell_forward(y, x, layer)
            gap = np.abs(target - y)
            if prev_gap is not None:
                assert np.all(gap <= prev_gap + 1e-15)
            prev_gap = gap


class TestSteQuantize:
    def test_zero_tensor(self):
        out = ste_quantize(np.zeros((3, 3)))
        assert np.all(out == 0.0)

    def test_subnormal_peak(self):
        # max|w| / top underflows to 0: scale falls back to 1.0, as for an
        # all-zero tensor, instead of 0/0 -> NaN -> int8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levels, scale = quantize_levels(np.array([0.0, 5e-324, -5e-324]))
            out = ste_quantize(np.array([0.0, 5e-324, -5e-324]))
        assert scale > 0
        assert levels.tolist() == [0, 0, 0]
        assert np.all(np.isfinite(out))

    def test_grad_mask_at_subnormal_peak_clips_nothing(self):
        # quantize_levels takes scale 1.0 here and clips nothing, so the
        # straight-through mask passes every gradient
        w = np.array([5e-324, -5e-324, 0.0])
        levels, _ = quantize_levels(w)
        assert levels.tolist() == [0, 0, 0]
        assert ste_grad_mask(w).tolist() == [1.0, 1.0, 1.0]

    def test_grid_fixed_point(self):
        s = 0.37
        w = np.array([-3, -2, -1, 0, 1, 2, 3], dtype=np.float64) * s
        np.testing.assert_allclose(ste_quantize(w), w, rtol=1e-12)

    def test_round_half_away(self):
        # values at 0.49 and 0.51 of one grid step land on 0 and 1 steps
        w = np.array([0.49, 0.51, 3.0])
        s = 1.0  # max|w| = 3 over top level 3
        out = ste_quantize(w)
        np.testing.assert_allclose(out, [0.0, s, 3.0], rtol=1e-12)

    @given(arrays(np.float64, (4, 4), elements=st.floats(-5, 5, allow_nan=False)))
    def test_idempotent(self, w):
        once = ste_quantize(w)
        twice = ste_quantize(once)
        np.testing.assert_allclose(twice, once, rtol=1e-12, atol=1e-15)

    def test_level_count(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(32, 32))
        levels, scale = quantize_levels(w, bits=3)
        assert set(np.unique(levels)) <= set(range(-3, 4))
        assert scale == pytest.approx(np.abs(w).max() / 3)


def model_loss(model, batch):
    logits, _ = forward_batch(model, batch[0])
    return cross_entropy(logits, batch[1])


def finite_difference_grads(model, batch, h=1e-6):
    grads = []
    for layer in model.layers:
        entry = {}
        for name in ("w_in", "w_rec", "bias"):
            w = getattr(layer, name)
            if w is None:
                entry[name] = None
                continue
            g = np.zeros_like(w)
            flat = w.ravel()
            gflat = g.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                lp = model_loss(model, batch)
                flat[k] = orig - h
                lm = model_loss(model, batch)
                flat[k] = orig
                gflat[k] = (lp - lm) / (2 * h)
            entry[name] = g
        grads.append(entry)
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for ga, gn in zip(analytic, numeric):
        for name in ("w_in", "w_rec", "bias"):
            if ga[name] is None:
                continue
            a, n = ga[name], gn[name]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestBpttGrads:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            model = random_model(rng, n_in=2, hidden=(3, 3, 3), n_out=2,
                                 alphas=tuple(rng.uniform(0.2, 0.9, size=4)))
            x = rng.uniform(0, 1, size=(2, 6, 2))
            labels = rng.integers(0, 2, size=2)
            analytic, _ = bptt_grads(model, (x, labels))
            numeric = finite_difference_grads(model, (x, labels))
            assert max_rel_error(analytic, numeric) < 1e-4

    def test_symmetric_bias_gradients(self):
        # zero weights and a shared positive bias make every unit of a layer
        # identical, so their bias gradients must match exactly
        model = init_model(2, (3, 3, 3), 2, (0.5, 0.5, 0.5, 0.5), t_ann=0.01, seed=0)
        model.quantize = False
        for layer in model.layers:
            layer.w_in[:] = 0.0
            if layer.w_rec is not None:
                layer.w_rec[:] = 0.0
            layer.bias[:] = 0.1
        x = np.random.default_rng(11).uniform(0, 1, size=(4, 5, 2))
        labels = np.array([0, 1, 0, 1])
        grads, _ = bptt_grads(model, (x, labels))
        for g in grads[:-1]:  # hidden layers: all units tied
            assert np.allclose(g["bias"], g["bias"][0], rtol=0, atol=1e-15)

    def test_ste_contract_on_grid(self):
        # with master weights already on the quantization grid, gradients with
        # the quantizer enabled equal gradients with it disabled
        rng = np.random.default_rng(12)
        model = random_model(rng, quantize=True)
        for layer in model.layers:
            layer.w_in = ste_quantize(layer.w_in)
            if layer.w_rec is not None:
                layer.w_rec = ste_quantize(layer.w_rec)
        x = rng.uniform(0, 1, size=(2, 5, 3))
        labels = rng.integers(0, 3, size=2)
        g_q, _ = bptt_grads(model, (x, labels))
        model.quantize = False
        g_f, _ = bptt_grads(model, (x, labels))
        for a, b in zip(g_q, g_f):
            for name in ("w_in", "w_rec", "bias"):
                if a[name] is not None:
                    np.testing.assert_allclose(a[name], b[name], rtol=1e-12)

    def test_nonfinite_loss_aborts(self):
        rng = np.random.default_rng(13)
        model = random_model(rng)
        model.layers[0].bias[:] = np.nan
        x = rng.uniform(0, 1, size=(1, 4, 3))
        with pytest.raises(NumericError):
            bptt_grads(model, (x, np.array([0])))
        # train has no loss check of its own: its first step raises the same
        with pytest.raises(NumericError, match="non-finite loss nan"):
            train(model, {"train": (x, np.array([0]))}, TrainConfig(epochs=1))


class TestFrameLoopOracle:
    """forward_batch and bptt_grads equal the frame loops bit for bit."""

    def check(self, model, x, labels):
        logits, cache = forward_batch(model, x, keep=True)
        grads, loss = bptt_grads(model, (x, labels))
        o_logits, o_cache, o_grads, o_loss = loop_bptt_grads(model, x, labels)
        assert np.array_equal(logits, o_logits)
        assert loss == o_loss
        assert cache["window"] == o_cache["window"]
        for key in ("ys", "zs"):
            for got, want in zip(cache[key], o_cache[key], strict=True):
                assert got.shape == want.shape and np.array_equal(got, want)
        for got, want in zip(grads, o_grads, strict=True):
            for name in ("w_in", "w_rec", "bias"):
                if want[name] is None:
                    assert got[name] is None
                else:
                    assert np.array_equal(got[name], want[name]), name

    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("pruned", [False, True])
    @pytest.mark.parametrize("b", [1, 5])
    @pytest.mark.parametrize("t", [1, 7])
    @pytest.mark.parametrize("readout_fraction", [1.0, 0.25])
    @pytest.mark.parametrize("alphas", [(0.6, 0.6, 0.6, 0.6), (0.0, 0.9, 0.35, 0.75)])
    def test_matches_loop_oracle(self, quantize, pruned, b, t, readout_fraction, alphas):
        rng = np.random.default_rng([b, t, int(quantize), int(pruned)])
        # weight scale 2 drives units onto both clamp rails, so the gate is mixed
        model = random_model(rng, n_in=4, hidden=(6, 5, 5), n_out=3, alphas=alphas,
                             quantize=quantize, weight_scale=2.0,
                             readout_fraction=readout_fraction)
        if pruned:
            model = magnitude_prune(model, 0.4)
        x = rng.uniform(-1.0, 1.0, size=(b, t, 4))
        self.check(model, x, rng.integers(0, 3, size=b))

    @pytest.mark.parametrize("b, t", [(32, 101), (8, 101), (32, 30)])
    def test_matches_loop_oracle_at_training_size(self, b, t):
        # the CLI's shapes: 40 mel bands, 24x3 hidden, batches of 32 and the
        # last one of 8; at 30 frames BLAS takes its small-matrix kernel for
        # the per-sample input products
        rng = np.random.default_rng([14, b, t])
        model = random_model(rng, n_in=40, hidden=(24, 24, 24), n_out=4, quantize=True)
        x = rng.normal(size=(b, t, 40))
        self.check(model, x, rng.integers(0, 4, size=b))


class TestForwardWithoutHistories:
    """keep=False runs the layers in two shared buffers; its logits equal
    keep=True's and the frame loop's bit for bit."""

    @pytest.mark.parametrize("equal_widths", [True, False])
    @given(b=st.integers(1, 40), t=st.integers(1, 60),
           widths=st.lists(st.integers(1, 9), min_size=3, max_size=5),
           quantize=st.booleans(), seed=st.integers(0, 1 << 16))
    @settings(max_examples=25, deadline=None)
    def test_logits_match_keep_and_loop_oracle(self, equal_widths, b, t, widths, quantize,
                                               seed):
        # equal widths make each layer's buffer view the same span as the
        # states of the layer two below it
        if equal_widths:
            widths = [widths[0]] * len(widths)
        n_in, *hidden, n_out = widths
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_in=n_in, hidden=tuple(hidden), n_out=n_out,
                             alphas=tuple(rng.uniform(0.0, 0.9, size=len(widths) - 1)),
                             quantize=quantize, weight_scale=2.0)
        x = rng.uniform(-1.0, 1.0, size=(b, t, n_in))
        logits, cache = forward_batch(model, x)
        assert cache["ys"] == [] and cache["zs"] == []
        assert np.array_equal(logits, forward_batch(model, x, keep=True)[0])
        assert np.array_equal(logits, loop_forward_batch(model, x)[0])


class TestTrain:
    def make_task(self, rng, n=16):
        # two constant feature levels, trivially separable
        x = np.zeros((n, 8, 2))
        labels = np.zeros(n, dtype=np.int64)
        for k in range(n):
            labels[k] = k % 2
            x[k] = 0.2 if labels[k] == 0 else 0.8
            x[k] += rng.normal(0, 0.01, size=(8, 2))
        return np.clip(x, 0, 1), labels

    def test_zero_epochs_returns_initial_model(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, n_in=2, n_out=2)
        x, labels = self.make_task(rng)
        out = train(model, {"train": (x, labels)}, TrainConfig(epochs=0))
        for a, b in zip(out.layers, model.layers):
            np.testing.assert_array_equal(a.w_in, b.w_in)

    def test_zero_lr_keeps_weights(self):
        rng = np.random.default_rng(15)
        model = random_model(rng, n_in=2, n_out=2)
        x, labels = self.make_task(rng)
        out = train(model, {"train": (x, labels)}, TrainConfig(epochs=2, lr=0.0))
        for a, b in zip(out.layers, model.layers):
            np.testing.assert_array_equal(a.w_in, b.w_in)
            np.testing.assert_array_equal(a.bias, b.bias)

    def test_learns_separable_task_deterministically(self):
        rng = np.random.default_rng(16)
        model = init_model(2, (6, 6), 2, (0.5, 0.5, 0.5), t_ann=0.01, seed=3)
        x, labels = self.make_task(rng, n=32)
        cfg = TrainConfig(epochs=12, lr=2e-2, batch_size=8, seed=1)
        out1 = train(model, {"train": (x, labels)}, cfg)
        out2 = train(model, {"train": (x, labels)}, cfg)
        logits, _ = forward_batch(out1, x)
        acc = (logits.argmax(axis=1) == labels).mean()
        assert acc == 1.0
        for a, b in zip(out1.layers, out2.layers):
            np.testing.assert_array_equal(a.w_in, b.w_in)


class TestMagnitudePrune:
    def test_zero_sparsity_identity(self):
        rng = np.random.default_rng(17)
        model = random_model(rng)
        out = magnitude_prune(model, 0.0)
        for a, b in zip(out.layers, model.layers):
            np.testing.assert_array_equal(a.w_in, b.w_in)
            assert a.mask_in is None

    def test_half_sparsity_keeps_largest(self):
        model = init_model(5, (2, 2), 2, (0.5,) * 3, t_ann=0.01, seed=0)
        w = np.array([[0.1, -0.9, 0.3, -0.2, 0.8],
                      [0.05, 0.6, -0.4, 0.7, -0.01]])
        model.layers[0].w_in = w.copy()
        out = magnitude_prune(model, 0.5)
        pruned = out.layers[0].w_in
        assert np.count_nonzero(pruned) == 5
        surviving = set(np.abs(pruned[pruned != 0.0]))
        assert surviving == set(np.sort(np.abs(w).ravel())[-5:])

    def test_pruned_zeros_stay_on_quantizer_grid(self):
        rng = np.random.default_rng(18)
        model = random_model(rng, quantize=True)
        out = magnitude_prune(model, 0.4)
        layer = out.layers[1]
        q = ste_quantize(layer.w_in * layer.mask_in)
        assert np.all(q[layer.mask_in == 0.0] == 0.0)

    def test_pruning_a_pruned_model_keeps_its_zeros(self):
        # the second, lower sparsity masks no fewer weights than the first
        once = magnitude_prune(random_model(np.random.default_rng(26)), 0.5)
        twice = magnitude_prune(once, 0.25)
        for a, b in zip(twice.layers, once.layers):
            for name in ("mask_in", "mask_rec"):
                if getattr(b, name) is not None:
                    np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_sparsity_validation(self):
        rng = np.random.default_rng(19)
        with pytest.raises(ConfigError):
            magnitude_prune(random_model(rng), 1.0)

    def test_prune_survives_training(self):
        rng = np.random.default_rng(20)
        model = random_model(rng)
        pruned = magnitude_prune(model, 0.5)
        x = rng.uniform(0, 1, size=(8, 6, 3))
        labels = rng.integers(0, 3, size=8)
        out = train(pruned, {"train": (x, labels)}, TrainConfig(epochs=3, lr=1e-2, seed=0))
        for layer in out.layers:
            if layer.mask_in is not None:
                assert np.all(layer.w_in[layer.mask_in == 0.0] == 0.0)


class TestPruningInvariant:
    @pytest.mark.parametrize("edit, match", [
        (lambda w, m: (w, m[:, :-1]), "shape"),
        (lambda w, m: (w, m * 0.5), "0/1"),
        (lambda w, m: (w, np.where(m == 0, np.nan, m)), "0/1"),
        (lambda w, m: (w, m.astype(str)), "0/1"),
        (lambda w, m: (w, m.tolist()), "0/1"),
        (lambda w, m: (np.where(m == 0, 0.25, w), m), "nonzero weight under a 0")],
        ids=["shape", "halves", "nan", "strings", "list", "weight-under-zero"])
    def test_layer_rejects_a_mask_that_breaks_the_invariant(self, edit, match):
        layer = magnitude_prune(random_model(np.random.default_rng(23)), 0.5).layers[1]
        for name in ("in", "rec"):
            w, mask = edit(getattr(layer, f"w_{name}"), getattr(layer, f"mask_{name}"))
            with pytest.raises(ConfigError, match=f"mask_{name}.*{match}"):
                replace(layer, **{f"w_{name}": w, f"mask_{name}": mask})

    def test_mask_without_its_weight_rejected(self):
        rng = np.random.default_rng(24)
        with pytest.raises(ConfigError, match="mask_rec"):
            LpRnnLayer(KIND_INPUT, rng.normal(size=(4, 3)), None, np.zeros(4), 0.5,
                       np.ones((4, 3)), np.ones((4, 4)))

    def test_a_masked_weight_never_moves(self):
        # a masked gradient is +-0, so Adam's moments and update stay +0 and
        # the pruned weights keep their bytes, the sign of a -0.0 among them
        rng = np.random.default_rng(25)
        pruned = magnitude_prune(random_model(rng, quantize=True), 0.5)
        x = rng.uniform(0, 1, size=(8, 6, 3))
        labels = rng.integers(0, 3, size=8)
        out = train(pruned, {"train": (x, labels)}, TrainConfig(epochs=3, lr=1e-2, seed=0))
        negative_zeros = 0
        for a, b in zip(out.layers, pruned.layers):
            for name, mask in (("w_in", b.mask_in), ("w_rec", b.mask_rec)):
                if mask is not None:
                    before, after = getattr(b, name)[mask == 0], getattr(a, name)[mask == 0]
                    assert before.tobytes() == after.tobytes()
                    negative_zeros += int(np.signbit(before).sum())
        assert negative_zeros > 0


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        model = random_model(rng, quantize=True)
        model.norm_stats = {"min": [0.0] * 3, "max": [1.0] * 3}
        model.label_names = ["a", "b", "c"]
        model = magnitude_prune(model, 0.25)
        path = tmp_path / "model.npz"
        save_model(model, path)
        back = load_model(path)
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
        assert [sorted(lmeta) for lmeta in meta["layers"]] == [
            ["alpha", "fan_in", "kind", "size"]] * len(model.layers)
        assert back.label_names == ["a", "b", "c"]
        assert back.quantize and back.bits == 3
        for a, b in zip(back.layers, model.layers):
            assert a.kind == b.kind and a.alpha == b.alpha
            np.testing.assert_array_equal(a.w_in, b.w_in)
            if b.w_rec is not None:
                np.testing.assert_array_equal(a.w_rec, b.w_rec)
            np.testing.assert_array_equal(a.mask_in, b.mask_in)

    def test_file_with_quantized_copies_loads(self, tmp_path):
        # files written before save_model dropped the unread l{k}_*_q and
        # l{k}_*_scale arrays and each layer's "pruned" flag load to the
        # same model
        rng = np.random.default_rng(22)
        model = random_model(rng, quantize=True)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as data:
            arrays = dict(data)
        assert not any(k.endswith(("_q", "_scale")) for k in arrays)
        for li, layer in enumerate(model.layers):
            for name, w in (("w_in", layer.w_in), ("w_rec", layer.w_rec)):
                if w is not None:
                    q, scale = quantize_levels(w, model.bits)
                    arrays[f"l{li}_{name}_q"] = q
                    arrays[f"l{li}_{name}_scale"] = np.array(scale)
        meta = json.loads(bytes(arrays["meta"]).decode())
        for lmeta, layer in zip(meta["layers"], model.layers):
            lmeta["pruned"] = layer.mask_in is not None
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        old = tmp_path / "old.npz"
        np.savez(old, **arrays)
        a, b = load_model(path), load_model(old)
        assert (a.t_ann, a.bits, a.quantize) == (b.t_ann, b.bits, b.quantize)
        for la, lb in zip(a.layers, b.layers):
            assert (la.kind, la.alpha) == (lb.kind, lb.alpha)
            for name in ("w_in", "w_rec", "bias", "mask_in", "mask_rec"):
                np.testing.assert_array_equal(getattr(la, name), getattr(lb, name))

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(DataError):
            load_model(path)


def model_file(**meta) -> io.BytesIO:
    """A saved model whose metadata meta has changed."""
    saved = io.BytesIO()
    save_model(random_model(np.random.default_rng(0)), saved)
    with np.load(io.BytesIO(saved.getvalue())) as data:
        arrays = dict(data)
    edited = json.loads(bytes(arrays["meta"]).decode()) | meta
    arrays["meta"] = np.frombuffer(json.dumps(edited).encode(), dtype=np.uint8)
    out = io.BytesIO()
    np.savez(out, **arrays)
    out.seek(0)
    return out


def bare_layer(kind, w_in=np.zeros((2, 2)), w_rec=None, bias=np.zeros(2), alpha=0.5):
    return LpRnnLayer(kind, w_in, w_rec, bias, alpha)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: clamped_relu(np.zeros(2), 0.0), ConfigError, "clamp ceiling",
                 id="clamp-ceiling"),
    pytest.param(lambda: quantize_levels(np.ones(2), bits=1), ConfigError, "2 bits",
                 id="quantizer-bits"),
    pytest.param(lambda: bare_layer(KIND_RECURRENT, w_rec=np.zeros((2, 3))), ConfigError, "square",
                 id="w_rec-not-square"),
    pytest.param(lambda: bare_layer(KIND_INPUT, w_rec=np.zeros((2, 2))), ConfigError,
                 "must not have w_rec", id="feedforward-w_rec"),
    pytest.param(lambda: bare_layer(KIND_INPUT, bias=np.zeros(3)), ConfigError, "bias shape",
                 id="bias-shape"),
    pytest.param(lambda: LpRnnModel([bare_layer(KIND_OUTPUT)], t_ann=0.01), ConfigError,
                 "layer stack", id="stack-order"),
    pytest.param(lambda: LpRnnModel([bare_layer(KIND_INPUT, np.zeros((3, 2)), bias=np.zeros(3)),
                                     bare_layer(KIND_OUTPUT)], t_ann=0.01),
                 ConfigError, "width mismatch", id="width-mismatch"),
    pytest.param(lambda: LpRnnModel([bare_layer(KIND_INPUT, alpha=1.0), bare_layer(KIND_OUTPUT)],
                                    t_ann=0.01), ConfigError, "alpha must be < 1",
                 id="alpha-one"),
    pytest.param(lambda: init_model(2, (), 2, (0.5,), t_ann=0.01), ConfigError,
                 "hidden layer", id="no-hidden-layer"),
    pytest.param(lambda: init_model(2, (3,), 2, (0.5,), t_ann=0.01), ConfigError,
                 "one alpha per layer", id="alpha-count"),
    pytest.param(lambda: forward_batch(random_model(np.random.default_rng(0)), np.zeros((2, 3))),
                 DataError, "batch input", id="batch-rank"),
    pytest.param(lambda: forward_batch(random_model(np.random.default_rng(0)),
                                       np.zeros((1, 3, 5))),
                 DataError, "feature width", id="feature-width"),
    pytest.param(lambda: bptt_grads(random_model(np.random.default_rng(0)),
                                    (np.zeros((0, 3, 3)), np.zeros(0, dtype=np.int64))),
                 DataError, "empty batch", id="empty-batch"),
    pytest.param(lambda: load_model(model_file(label_names=[1, 2, 3])), DataError,
                 "label_names", id="label-names"),
])
def test_input_check(call, error, match):
    with pytest.raises(error, match=match):
        call()
