import json
import math

import numpy as np
import pytest

from sdrnn.containers import FeatureSequence, SpikeRaster
from sdrnn.convert import (CompileConfig, TimingConfig, compile_network, load_network,
                           probe_peak_state, save_network)
from sdrnn.errors import ConfigError, DataError
from sdrnn.lprnn import forward_sequence, init_model
from sdrnn.numerics import STATE_LIMIT
from sdrnn.sigma_delta import NeuronParams, reconstruct
from sdrnn.snn_sim import (compare_activations, readout, sigma_delta_kernel, simulate,
                           simulate_batch)

TIMING = TimingConfig(t_ann=0.01, t_snn=0.001)  # oversample 10 keeps tests fast


def toy_model(rng, n_in=2, hidden=(3, 3), n_out=2, alphas=(0.85, 0.9, 0.8),
              weight_scale=0.9, bias_scale=0.1, t_ann=TIMING.t_ann):
    model = init_model(n_in, hidden, n_out, alphas, t_ann=t_ann,
                       seed=int(rng.integers(1 << 30)))
    for layer in model.layers:
        layer.w_in = rng.normal(0.0, weight_scale / np.sqrt(layer.fan_in),
                                size=layer.w_in.shape)
        if layer.w_rec is not None:
            layer.w_rec = rng.normal(0.0, weight_scale / np.sqrt(layer.size),
                                     size=layer.w_rec.shape)
        layer.bias = rng.uniform(0.0, bias_scale, size=layer.bias.shape)
    return model


def three_tap_net(config: CompileConfig = CompileConfig()):
    """Two recurrent layers of different alpha, with rec_delay 5 and 4: with
    the feed-forward synapses, three distinct synaptic delays."""
    rng = np.random.default_rng(48)
    model = toy_model(rng, hidden=(3, 3, 3), alphas=(0.85, 0.9, 0.5, 0.8))
    return compile_network(model, TIMING, f=2.5e4, config=config), rng


def output_probe(net) -> dict:
    """A probe of every output neuron at every step."""
    return {len(net.layers) - 1: list(range(net.layers[-1].size))}


def flat_loop_sim(net, feats: np.ndarray, mode: str, sat_log: list | None = None,
                  traces: dict | None = None):
    """Independent scalar-loop duplicate of the engine semantics.

    Python floats / ints only, no vectorization: decay-then-add per stage,
    u into i scaled by 2**-weight_exp (rounded half up by shift in fixed
    point), bias into i, one-step feed-forward delay, rec_delay-step
    recurrent delay, same-step self-feedback. The i stage decays with tau_s,
    imem with tau 1, a neuron fires when imem exceeds w_fb, and a spike
    deposits its weight times a gain of 1. In fixed point each sum is
    clipped to +/-STATE_LIMIT before the next stage reads it (s after its
    feedback increment); sat_log, if given, receives one (step, layer, var,
    count) entry per clipping (layer, var) of a step, vars in the order u,
    i, imem, s. traces, if given, receives each layer's four states after
    every step, keyed (layer, var) as the engine's probes are.
    """
    oversample = net.oversample
    n_frames = feats.shape[0]
    duration = n_frames * oversample
    fixed = mode in ("fixed", "fixed_point")
    layers = net.layers
    states = []
    for layer in layers:
        zero = 0 if fixed else 0.0
        states.append({"u": [zero] * layer.size, "i": [zero] * layer.size,
                       "s": [zero] * layer.size, "imem": [zero] * layer.size})
    # history[li][d] holds layer li's spikes of d + 1 steps ago
    history = [[[0] * layer.size for _ in range(layer.rec_delay)] for layer in layers]
    events = [[] for _ in layers]
    s_traces = [[] for _ in layers]

    rounding = net.config.decay_rounding

    def decay(value, tau):
        if fixed:
            tau = int(round(tau))
            mag = abs(value)
            if rounding == "round":
                kept = (mag * (tau - 1) + tau // 2) // tau
            else:
                kept = (mag * (tau - 1)) // tau
            return kept if value >= 0 else -kept
        return value - value / tau

    def clip(value, var, clipped):
        if not fixed or -STATE_LIMIT <= value <= STATE_LIMIT:
            return value
        clipped[var] += 1
        return max(-STATE_LIMIT, min(STATE_LIMIT, value))

    for t in range(duration):
        new_prev = []
        for li, layer in enumerate(layers):
            clipped = dict.fromkeys(("u", "i", "imem", "s"), 0)
            st = states[li]
            tau_u = layer.tau_u_fx if fixed else float(layer.tau_u_fx)
            tau_i = layer.tau_s_fx if fixed else float(layer.tau_s_fx)
            tau_s = layer.tau_s_fx if fixed else float(layer.tau_s_fx)
            tau_m = 1 if fixed else 1.0
            fired_now = []
            for j in range(layer.size):
                if layer.kind == "encoder":
                    raw = 0.0
                    for k in range(layer.enc_w.shape[1]):
                        raw += layer.enc_w[j, k] * feats[t // oversample, k]
                    drive = raw * net.f / (layer.tau_u_fx * layer.tau_s_fx)
                    if fixed:
                        drive = int(np.sign(drive) * np.floor(abs(drive) + 0.5))
                else:
                    acc = 0
                    for k in range(layers[li - 1].size):
                        acc += int(layer.w_in[j, k]) * history[li - 1][0][k]
                    if layer.w_rec is not None:
                        for k in range(layer.size):
                            acc += int(layer.w_rec[j, k]) * history[li][-1][k]
                    drive = acc
                u = clip(decay(st["u"][j], tau_u) + drive, "u", clipped)
                e = layer.weight_exp
                if e == 0:
                    u_in = u
                elif fixed:
                    u_in = (u + 2 ** (e - 1)) // 2 ** e
                else:
                    u_in = u / 2 ** e
                i = clip(decay(st["i"][j], tau_i) + u_in + int(layer.bias[j]), "i", clipped)
                s = decay(st["s"][j], tau_s)
                imem = clip(decay(st["imem"][j], tau_m) + i - s, "imem", clipped)
                spike = imem > layer.w_fb
                if spike:
                    imem = 0 if fixed else 0.0
                    s = clip(s + layer.w_fb, "s", clipped)
                    events[li].append((t, j))
                st["u"][j], st["i"][j], st["s"][j], st["imem"][j] = u, i, s, imem
                fired_now.append(1 if spike else 0)
            new_prev.append(fired_now)
            if sat_log is not None:
                sat_log.extend((t, li, var, n) for var, n in clipped.items() if n)
        for li in range(len(layers)):
            history[li] = [new_prev[li]] + history[li][:-1]
        for li in range(len(layers)):
            s_traces[li].append(list(states[li]["s"]))
            if traces is not None:
                for var, values in states[li].items():
                    traces.setdefault((li, var), []).append(list(values))
    return events, s_traces


class TestEngineAgainstFlatLoop:
    @pytest.mark.parametrize("mode, rounding", [
        pytest.param("reference", "round", id="reference"),
        pytest.param("fixed_point", "round", id="fixed_point"),
        pytest.param("reference", "trunc", id="reference-trunc"),
        pytest.param("fixed_point", "trunc", id="fixed_point-trunc"),
    ])
    def test_identical_rasters_and_traces(self, mode, rounding):
        rng = np.random.default_rng(42)
        model = toy_model(rng)
        net = compile_network(model, TIMING, f=5e4, config=CompileConfig(decay_rounding=rounding))
        feats = rng.uniform(0.0, 1.0, size=(12, 2))
        trace = simulate(net, FeatureSequence(feats, TIMING.t_ann), mode=mode,
                         probe={1: list(range(3))})
        events, s_traces = flat_loop_sim(net, feats, mode)
        for li in range(len(net.layers)):
            got = list(zip(trace.rasters[li].times.tolist(),
                           trace.rasters[li].units.tolist()))
            assert got == sorted(events[li]), f"layer {li} rasters differ"
        # probe s trace of layer 1 matches the scalar loop exactly
        oracle_s = np.array([row for row in np.array(s_traces[1])])
        if mode == "reference":
            np.testing.assert_allclose(trace.probes[(1, "s")], oracle_s, rtol=0, atol=0)
        else:
            np.testing.assert_array_equal(trace.probes[(1, "s")], oracle_s)

    def test_file_without_delay_and_exponent(self, tmp_path):
        # a network file written before rec_delay and weight_exp existed
        # was compiled with one step of recurrent delay, exponent 0 and no
        # frame lag in tau_u, which the compiler no longer emits: it does
        # not load
        path = tmp_path / "net.npz"
        save_network(compile_network(toy_model(np.random.default_rng(43)), TIMING, f=5e4), path)
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        for lmeta in meta["layers"]:
            del lmeta["rec_delay"], lmeta["weight_exp"]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(DataError, match="layer 0: rec_delay is 'missing'"):
            load_network(path)


    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    @pytest.mark.parametrize("zeroed", ["edges", "all"])
    def test_recurrent_block_with_zero_rows_and_columns(self, mode, zeroed):
        # the engine cuts a delay's block matrix to the span of its nonzero
        # rows, which an all-zero block leaves empty: zero the first row
        # (no recurrent input to neuron 0) and the last column (no
        # recurrent output of neuron 2), or the whole block
        rng = np.random.default_rng(44)
        net = compile_network(toy_model(rng), TIMING, f=5e4)
        layer = net.layers[1]
        assert layer.rec_delay > 1 and np.count_nonzero(layer.w_rec[1:, :-1]) > 1
        layer.w_rec = layer.w_rec.copy()
        if zeroed == "edges":
            layer.w_rec[0, :] = 0
            layer.w_rec[:, -1] = 0
        else:
            layer.w_rec[:] = 0
        feats = rng.uniform(0.0, 1.0, size=(12, 2))
        trace = simulate(net, FeatureSequence(feats, TIMING.t_ann), mode=mode,
                         probe=output_probe(net))
        events, s_traces = flat_loop_sim(net, feats, mode)
        for li in range(len(net.layers)):
            got = list(zip(trace.rasters[li].times.tolist(),
                           trace.rasters[li].units.tolist()))
            assert got == sorted(events[li]), f"layer {li} rasters differ"
        assert events[1] and events[2]
        np.testing.assert_array_equal(trace.probes[(2, "s")], np.array(s_traces[-1]))


def assert_matches_flat_loop(net, feats: np.ndarray, mode: str, raster_input: bool = False):
    """Run the engine on feats, or on the encoder spikes of the scalar loop
    as a raster, and require every raster and every state of each
    spike-driven layer to equal the loop's. Returns the loop's events."""
    traces = {}
    events, _ = flat_loop_sim(net, feats, mode, traces=traces)
    if raster_input:
        times, units = np.array(events[0], dtype=np.int64).reshape(-1, 2).T
        inp = SpikeRaster(times, units, feats.shape[0] * net.oversample, net.layers[0].size,
                          net.timing.t_snn)
    else:
        inp = FeatureSequence(feats, net.timing.t_ann)
    first = 1 if raster_input else 0
    result = simulate(net, inp, mode=mode,
                      probe={li: list(range(l.size)) for li, l in enumerate(net.layers)
                             if li >= first})
    for li in range(len(net.layers)):
        got = list(zip(result.rasters[li].times.tolist(), result.rasters[li].units.tolist()))
        assert got == sorted(events[li]), f"layer {li} rasters differ"
    # the encoder's drive is a float sum in another order than the loop's
    for li in range(1, len(net.layers)):
        for var in ("u", "i", "s", "imem"):
            np.testing.assert_array_equal(result.probes[(li, var)],
                                          np.array(traces[(li, var)]), err_msg=f"{li} {var}")
    return events


class TestDriveProducts:
    """The engine forms the synaptic drive with one float32 product per step
    when every drive column's absolute-weight sum is at most 2**24, and in
    float64 above it, over a delay line of one tap per synaptic delay; the
    encoder's drive is written at frame starts only."""

    @staticmethod
    def twin_net(big: int, small: int):
        # layer 1's neurons 0 and 1 get the same input, so they spike
        # together, and output neuron 0 reads them with weights big and
        # -small only: a drive of big - small per spike of the pair
        rng = np.random.default_rng(45)
        net = compile_network(toy_model(rng), TIMING, f=5e4)
        hidden, out = net.layers[1], net.layers[2]
        for name in ("w_in", "w_rec", "bias"):
            a = getattr(hidden, name).copy()
            a[1] = a[0]
            setattr(hidden, name, a)
        out.w_in = out.w_in.copy()
        out.w_in[0] = (big, -small, 0)
        return net, rng.uniform(0.0, 1.0, size=(12, 2))

    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    def test_column_sum_above_2_24_falls_back_to_float64(self, mode):
        # 2**24 + 1 has no float32: a float32 block would drop the 1
        net, feats = self.twin_net(2 ** 24 + 1, 2 ** 24)
        events = assert_matches_flat_loop(net, feats, mode)
        assert {j for _, j in events[1]} >= {0, 1}

    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    def test_column_sum_of_exactly_2_24_in_float32(self, mode):
        net, feats = self.twin_net(2 ** 23 + 1, 2 ** 23 - 1)
        assert np.abs(net.layers[2].w_in).sum(axis=1).max() == 2 ** 24
        events = assert_matches_flat_loop(net, feats, mode)
        assert {j for _, j in events[1]} >= {0, 1}

    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    @pytest.mark.parametrize("zeroed", [(2,), (1, 2)], ids=["output", "every"])
    def test_layer_with_all_zero_w_in(self, mode, zeroed):
        # with every w_in zero, the feed-forward tap has no row and only
        # the delay-5 recurrent tap drives the product
        rng = np.random.default_rng(46)
        net = compile_network(toy_model(rng), TIMING, f=5e4)
        for li in zeroed:
            net.layers[li].w_in = np.zeros_like(net.layers[li].w_in)
        events = assert_matches_flat_loop(net, rng.uniform(0.0, 1.0, size=(12, 2)), mode)
        assert events[0] and events[1]

    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    def test_raster_input(self, mode):
        rng = np.random.default_rng(48)
        net = compile_network(toy_model(rng), TIMING, f=5e4)
        events = assert_matches_flat_loop(net, rng.uniform(0.0, 1.0, size=(12, 2)), mode,
                                          raster_input=True)
        assert events[0] and events[2]

    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    @pytest.mark.parametrize("raster_input", [False, True], ids=["features", "raster"])
    def test_three_synaptic_delays(self, mode, raster_input):
        net, rng = three_tap_net()
        assert {1} | {l.rec_delay for l in net.layers} == {1, 4, 5}
        events = assert_matches_flat_loop(net, rng.uniform(0.0, 1.0, size=(12, 2)), mode,
                                          raster_input=raster_input)
        assert all(events)

    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    def test_recurrent_delay_of_one_step(self, mode):
        # the recurrent synapses share the feed-forward synapses' delay
        rng = np.random.default_rng(50)
        net = compile_network(toy_model(rng), TIMING, f=5e4)
        net.layers[1].rec_delay = 1
        events = assert_matches_flat_loop(net, rng.uniform(0.0, 1.0, size=(12, 2)), mode)
        assert all(events)

    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    def test_oversample_1_starts_a_frame_every_step(self, mode):
        timing = TimingConfig(t_ann=0.01, t_snn=0.01)
        rng = np.random.default_rng(49)
        net = compile_network(toy_model(rng, t_ann=timing.t_ann), timing, f=5e3)
        assert net.oversample == 1
        events = assert_matches_flat_loop(net, rng.uniform(0.0, 1.0, size=(60, 2)), mode)
        assert events[0] and events[2]


class TestKernel:
    @pytest.mark.parametrize("rounding", ["round", "trunc"])
    def test_fixed_point_kernel_matches_integer_loop(self, rounding):
        # each neuron against Python integers: decay-then-add, the rounded
        # shift of u into i, the bias, clips at the rails, imem = i - s with
        # tau 1 (no decay), the reset and same-step feedback
        tau_u, tau_s = [2, 3, 5, 7, 4], [9, 6, 10, 4, 3]
        exps, bias, w_fb = [0, 1, 2, 3, 0], [3, -2, 0, 5, 1], [40, 25, 60, 30, 20]
        n = len(tau_u)
        taus = np.array([tau_u, tau_s, tau_s], dtype=np.float64)[:, None, :]
        state, clips, step = sigma_delta_kernel(
            (1, n), taus, np.array(bias, dtype=np.float64), np.array(w_fb, dtype=np.float64),
            np.array(exps), fixed=True, rounding=rounding)

        def decay(x, tau):
            kept = (abs(x) * (tau - 1) + (tau // 2 if rounding == "round" else 0)) // tau
            return kept if x >= 0 else -kept

        def clip(x):
            return max(-STATE_LIMIT, min(STATE_LIMIT, x))

        rng = np.random.default_rng(15)
        oracle = [[0, 0, 0, 0] for _ in range(n)]
        n_clips = 0
        for t in range(300):
            drive = [int(d) for d in rng.integers(-60, 61, size=n)]
            if t % 60 == 11:
                drive[t % n] = STATE_LIMIT
            fired = step(np.array([drive], dtype=np.float64))[0]
            for j in range(n):
                u, i, s, imem = oracle[j]
                u = clip(decay(u, tau_u[j]) + drive[j])
                i = clip(decay(i, tau_s[j]) + ((u + ((1 << exps[j]) >> 1)) >> exps[j])
                         + bias[j])
                s = decay(s, tau_s[j])
                imem = clip(i - s)
                spike = imem > w_fb[j]
                if spike:
                    imem, s = 0, clip(s + w_fb[j])
                oracle[j] = [u, i, s, imem]
                assert bool(fired[j]) == spike, (t, j)
            np.testing.assert_array_equal(state[:, 0, :], np.array(oracle).T, err_msg=str(t))
            n_clips += len(clips)
            clips.clear()
        assert n_clips > 0

    def test_fixed_point_constants_outside_the_exact_decay_rejected(self):
        # the fixed-point decay is proven exact for integer taus up to
        # numerics.TAU_LIMIT; the kernel checks its taus and rounding once
        taus = np.array([2.0, 9.0, 9.0])[:, None, None]
        args = ((1, 1), taus, 0.0, 10.0, 0)
        for bad in (2.0 ** 26, 2.5):
            wide = taus.copy()
            wide[1] = bad
            with pytest.raises(ConfigError, match="tau"):
                sigma_delta_kernel((1, 1), wide, *args[2:], fixed=True)
            sigma_delta_kernel((1, 1), wide, *args[2:])  # reference mode takes it
        with pytest.raises(ConfigError, match="rounding"):
            sigma_delta_kernel(*args, fixed=True, rounding="floor")


class TestBasics:
    def test_zero_input_silent(self):
        rng = np.random.default_rng(0)
        model = toy_model(rng, bias_scale=0.0)
        net = compile_network(model, TIMING, f=5e4)
        trace = simulate(net, FeatureSequence(np.zeros((10, 2)), TIMING.t_ann),
                         probe=output_probe(net))
        assert all(r.times.size == 0 for r in trace.rasters)
        assert trace.peak_state == 0.0
        assert np.all(trace.probes[(2, "s")] == 0.0)

    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    def test_peak_state_is_largest_probed_magnitude(self, mode):
        # with every neuron of every layer probed, the peak |state| is the
        # largest magnitude in the probes
        rng = np.random.default_rng(16)
        net = compile_network(toy_model(rng), TIMING, f=5e4)
        feats = FeatureSequence(rng.uniform(0, 1, size=(12, 2)), TIMING.t_ann)
        trace = simulate(net, feats, mode=mode,
                         probe={li: list(range(l.size)) for li, l in enumerate(net.layers)})
        assert len(trace.probes) == 4 * len(net.layers)
        peak = max(float(np.abs(v).max()) for v in trace.probes.values())
        assert peak > 0 and trace.peak_state == peak

    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    @pytest.mark.parametrize("case", ["clipping", "negative_w_fb"])
    def test_peak_state_where_the_bound_check_cannot_give_it(self, mode, case):
        # a fixed-point step takes the peak from its bound check, taken
        # again after a clipping re-run; with a negative w_fb a fired
        # imem can exceed every state after the reset, so the step
        # reduces the stack after the reset instead
        rng = np.random.default_rng(16)
        net = compile_network(toy_model(rng), TIMING, f=5e4)
        if case == "clipping":
            net.layers[1].bias = net.layers[1].bias + STATE_LIMIT
        else:
            net.layers[2].w_fb = -5000
        feats = FeatureSequence(rng.uniform(0, 1, size=(12, 2)), TIMING.t_ann)
        trace = simulate(net, feats, mode=mode,
                         probe={li: list(range(l.size)) for li, l in enumerate(net.layers)})
        assert (trace.saturation_total > 0) == (case == "clipping" and mode == "fixed_point")
        peak = max(float(np.abs(v).max()) for v in trace.probes.values())
        assert trace.peak_state == peak

    def test_fixed_point_outputs_are_integers_without_negative_zero(self):
        # fixed-point states are integers held in float64; a -0.0 would
        # compare equal to 0 but change the raw bytes that digests hash
        rng = np.random.default_rng(14)
        model = toy_model(rng)
        for layer in model.layers:
            layer.bias = rng.uniform(-0.1, 0.1, size=layer.bias.shape)
        net = compile_network(model, TIMING, f=5e4)
        x = rng.uniform(0, 1, size=(3, 12, 2))
        trace = simulate(net, FeatureSequence(x[0], TIMING.t_ann), mode="fixed_point",
                         probe={li: list(range(l.size)) for li, l in enumerate(net.layers)})
        batch = simulate_batch(net, x, mode="fixed_point")
        arrays = [*trace.frame_s, *trace.probes.values(), *batch.frame_s]
        assert any((a < 0).any() for a in arrays)
        for a in arrays:
            np.testing.assert_array_equal(a, np.round(a))
            assert not np.signbit(a[a == 0]).any()

    def test_determinism(self):
        rng = np.random.default_rng(1)
        model = toy_model(rng)
        net = compile_network(model, TIMING, f=5e4)
        feats = FeatureSequence(rng.uniform(0, 1, size=(15, 2)), TIMING.t_ann)
        t1 = simulate(net, feats, mode="fixed_point", probe=output_probe(net))
        t2 = simulate(net, feats, mode="fixed_point", probe=output_probe(net))
        for r1, r2 in zip(t1.rasters, t2.rasters):
            np.testing.assert_array_equal(r1.times, r2.times)
            np.testing.assert_array_equal(r1.units, r2.units)
        np.testing.assert_array_equal(t1.probes[(2, "s")], t2.probes[(2, "s")])

    def test_one_step_causality(self):
        rng = np.random.default_rng(2)
        model = toy_model(rng, bias_scale=0.0)
        net = compile_network(model, TIMING, f=5e4)
        t0 = 7
        raster = SpikeRaster(np.array([t0]), np.array([0]), duration=30,
                             population=3, dt=TIMING.t_snn)
        trace = simulate(net, raster, probe={1: [0, 1, 2]})
        u1 = trace.probes[(1, "u")]
        assert np.all(u1[:t0 + 1] == 0.0)
        assert np.any(u1[t0 + 1] != 0.0)

    def test_raster_input_reproduces_feature_run(self):
        rng = np.random.default_rng(3)
        model = toy_model(rng)
        net = compile_network(model, TIMING, f=5e4)
        feats = FeatureSequence(rng.uniform(0, 1, size=(12, 2)), TIMING.t_ann)
        full = simulate(net, feats)
        replay = simulate(net, full.rasters[0])
        for li in range(1, len(net.layers)):
            np.testing.assert_array_equal(full.rasters[li].times, replay.rasters[li].times)
            np.testing.assert_array_equal(full.rasters[li].units, replay.rasters[li].units)

    def test_probe_of_a_layer_the_run_does_not_update_rejected(self):
        # a raster stands in for the encoder, whose states are then never
        # computed; probes of neurons a layer does not have are as wrong
        rng = np.random.default_rng(3)
        net = compile_network(toy_model(rng), TIMING, f=5e4)
        feats = FeatureSequence(rng.uniform(0, 1, size=(4, 2)), TIMING.t_ann)
        raster = simulate(net, feats).rasters[0]
        assert simulate(net, raster, probe={1: [0]}).probes[(1, "u")].any()
        with pytest.raises(ConfigError, match="raster"):
            simulate(net, raster, probe={0: [0], 1: [0]})
        for bad in ({3: [0]}, {-1: [0]}, {1: [3]}, {2: [-1]}):
            with pytest.raises(ConfigError):
                simulate(net, feats, probe=bad)

    def test_dimension_mismatch_fatal(self):
        rng = np.random.default_rng(4)
        net = compile_network(toy_model(rng), TIMING, f=5e4)
        with pytest.raises(DataError):
            simulate(net, FeatureSequence(np.zeros((5, 3)), TIMING.t_ann))
        # simulate_batch's own shape check is the engine's only one
        for x in (np.zeros((5, 2)), np.zeros((0, 5, 2))):
            with pytest.raises(DataError, match="simulate_batch expects"):
                simulate_batch(net, x)


class TestTrackingBehavior:
    def test_single_neuron_staircase(self):
        # constant drive: after the transient, s tracks i within w_fb
        model = init_model(1, (1,), 1, (0.9, 0.9), t_ann=TIMING.t_ann, seed=0)
        model.layers[0].w_in[:] = 1.0
        model.layers[0].bias[:] = 0.0
        model.layers[1].w_in[:] = 0.1
        model.layers[1].bias[:] = 0.0
        net = compile_network(model, TIMING, f=1e5)
        frames = 80
        feats = FeatureSequence(np.full((frames, 1), 0.7), TIMING.t_ann)
        trace = simulate(net, feats, probe={0: [0]})
        tau_s = net.layers[0].tau_s
        settle = int(5 * tau_s)
        s = trace.probes[(0, "s")][settle:, 0]
        i = trace.probes[(0, "i")][settle:, 0]
        assert s.size > 100
        assert np.abs(s - i).max() <= net.layers[0].w_fb

    def test_linear_chain_tracks_frame_cascade(self):
        # four unit-weight low-pass stages with no recurrence and activations
        # inside the ReLU's linear range: the source network is the discrete
        # cascade y_t = a*y_{t-1} + (1-a)*x_t per stage. Mapping each stage
        # with tau_u = tau_s (lead cancellation only, no frame-lag
        # compensation) tracks the last stage with relative MSE 1.1e-2 here.
        timing = TimingConfig(t_ann=0.01, t_snn=0.0001)
        model = init_model(1, (1, 1, 1), 1, (0.6,) * 4, t_ann=timing.t_ann)
        for layer in model.layers:
            layer.w_in[:] = 1.0
            layer.bias[:] = 0.0
            if layer.w_rec is not None:
                layer.w_rec[:] = 0.0
        from sdrnn.benchmarks import make_smooth_input

        feats = FeatureSequence(make_smooth_input(np.random.default_rng(0), 30, 1),
                                timing.t_ann)
        _, ann_traces = forward_sequence(model, feats)
        net = compile_network(model, timing, f=2.0 ** 21)
        trace = simulate(net, feats, record_rasters=False)
        last = compare_activations(ann_traces, trace, net)["per_layer"][-1]
        assert last["relative_mse"] < 1.1e-2 / 3, last

    def test_reconstruct_matches_engine_s_trace(self):
        rng = np.random.default_rng(5)
        model = toy_model(rng)
        net = compile_network(model, TIMING, f=5e4)
        feats = FeatureSequence(rng.uniform(0, 1, size=(10, 2)), TIMING.t_ann)
        trace = simulate(net, feats, probe={1: [0, 1, 2]})
        layer = net.layers[1]
        params = NeuronParams(tau_s=layer.tau_s_fx, tau_i=layer.tau_s_fx,
                              tau_u=layer.tau_u_fx, w_fb=layer.w_fb, clamp_ceiling=net.f)
        decoded = reconstruct(trace.rasters[1], params)
        np.testing.assert_array_equal(decoded.data, trace.probes[(1, "s")])

    def test_fixed_point_states_bounded_and_logged(self):
        # force saturation with absurd constants and check clipping, not
        # wrap, and the clip log against the scalar oracle's
        for force in ("bias", "every_var"):
            rng = np.random.default_rng(6)
            model = toy_model(rng)
            net = compile_network(model, TIMING, f=5e4)
            net.layers[1].bias = net.layers[1].bias + STATE_LIMIT // 2
            if force == "every_var":
                # u of layer 1 by huge weights; imem and s of layer 2 by a
                # large negative self-feedback, also the threshold, that
                # fires at every step
                net.layers[1].w_in = net.layers[1].w_in * 40000
                net.layers[2].bias = net.layers[2].bias + STATE_LIMIT // 4
                net.layers[2].w_fb = -(STATE_LIMIT - 5)
            feats = FeatureSequence(rng.uniform(0.5, 1.0, size=(10, 2)), TIMING.t_ann)
            trace = simulate(net, feats, mode="fixed_point", probe={1: [0, 1, 2]})
            assert trace.saturation_total > 0
            assert len(trace.saturation_events) > 0
            for var in ("u", "i", "s", "imem"):
                assert np.abs(trace.probes[(1, var)]).max() <= STATE_LIMIT
            sat_log: list = []
            flat_loop_sim(net, feats.data, "fixed_point", sat_log)
            assert trace.saturation_events == sat_log[:1000], force
            assert trace.saturation_total == sum(entry[3] for entry in sat_log), force
        assert {var for _, _, var, _ in sat_log} == {"u", "i", "imem", "s"}


class TestReadout:
    def test_silent_output_zero_scores(self):
        rng = np.random.default_rng(7)
        model = toy_model(rng, bias_scale=0.0)
        net = compile_network(model, TIMING, f=5e4)
        trace = simulate(net, FeatureSequence(np.zeros((10, 2)), TIMING.t_ann))
        assert np.all(readout(trace, net) == 0.0)

    def test_hidden_permutation_invariance(self):
        rng = np.random.default_rng(8)
        model = toy_model(rng)
        net = compile_network(model, TIMING, f=5e4)
        feats = FeatureSequence(rng.uniform(0, 1, size=(12, 2)), TIMING.t_ann)
        base = readout(simulate(net, feats), net)
        perm = np.array([2, 0, 1])
        l1, l2 = net.layers[1], net.layers[2]
        l1.w_in = l1.w_in[perm]
        l1.w_rec = l1.w_rec[perm][:, perm]
        l1.bias = l1.bias[perm]
        l2.w_in = l2.w_in[:, perm]
        permuted = readout(simulate(net, feats), net)
        np.testing.assert_allclose(permuted, base, rtol=0, atol=0)


class TestSaturationCheck:
    """A fixed-point step bounds its unclipped sums once and runs the adds
    again, clipped, only on a step where one left the range."""

    @staticmethod
    def rarely_clipping_net():
        """Layer 2's negative feedback weight, also its threshold, holds s
        near -STATE_LIMIT / 2 and fires at every step, so its imem, i - s,
        passes +STATE_LIMIT on the few steps where i peaks, and fires and
        is reset in the same step; no other state of that step clips. A
        strongly negative input weight drives u of layer 1 below
        -STATE_LIMIT on a few other steps, and a larger weight exponent keeps
        its i in range."""
        rng = np.random.default_rng(6)
        net = compile_network(toy_model(rng), TIMING, f=5e4)
        l1, l2 = net.layers[1], net.layers[2]
        l1.w_in = l1.w_in.copy()
        l1.w_in[0] = [-(STATE_LIMIT // 8), 0, 0]
        l1.weight_exp = 7
        l2.w_fb = -(STATE_LIMIT // (2 * l2.tau_s_fx))
        l2.bias = np.full(l2.size, int(0.45 * STATE_LIMIT / l2.tau_s_fx))
        l2.w_in = l2.w_in * 1000
        return net, rng.uniform(0.0, 1.0, size=(12, 2))

    def test_rare_clips_match_the_scalar_loop(self):
        net, feats = self.rarely_clipping_net()
        trace = simulate(net, FeatureSequence(feats, TIMING.t_ann), mode="fixed_point",
                         probe={li: list(range(l.size)) for li, l in enumerate(net.layers)})
        sat_log: list = []
        traces: dict = {}
        flat_loop_sim(net, feats, "fixed_point", sat_log, traces)
        assert trace.saturation_events == sat_log
        assert trace.saturation_total == sum(entry[3] for entry in sat_log)
        for key, values in traces.items():
            np.testing.assert_array_equal(trace.probes[key], np.array(values), err_msg=str(key))
        clipped: dict = {}
        for t, li, var, _ in sat_log:
            clipped.setdefault(t, set()).add((li, var))
        duration = feats.shape[0] * net.oversample
        assert 0 < len(clipped) < duration // 8
        fired = set(trace.rasters[2].times.tolist())
        assert any(vars_ == {(2, "imem")} and t in fired for t, vars_ in clipped.items())
        assert any((1, "u") in vars_ for vars_ in clipped.values())
        assert trace.probes[(1, "u")].min() == -STATE_LIMIT

    @pytest.mark.parametrize("rounding", ["round", "trunc"])
    def test_no_state_is_ever_negative_zero(self, rounding):
        # negative feedback weights, the thresholds, fire negative imem,
        # whose reset must give +0, and small negative states decay to 0;
        # every state after every step, whether the step clipped or not,
        # holds no -0.0
        n = 6
        taus = np.array([[2, 3, 5, 7, 4, 2], [9, 6, 10, 4, 3, 2], [9, 6, 10, 4, 3, 2]],
                        dtype=np.float64)[:, None, :]
        state, clips, step = sigma_delta_kernel(
            (3, n), taus, np.array([3.0, -2.0, 0.0, -5.0, 1.0, 0.0]),
            np.array([40.0, -25.0, 60.0, -30.0, -1.0, 20.0]), np.array([0, 1, 2, 3, 0, 1]),
            fixed=True, rounding=rounding)
        rng = np.random.default_rng(21)
        zeros = 0
        for t in range(400):
            drive = np.round(rng.normal(0.0, 40.0, size=(3, n)))
            if t % 97 == 5:
                drive[t % 3, t % n] = -2 * STATE_LIMIT
            fired = step(drive)
            assert not np.signbit(state[state == 0]).any(), t
            zeros += int((state == 0).sum())
            assert fired.dtype == bool
            clips.clear()
        assert zeros


class TestBatchedRuns:
    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_batch_matches_single_runs(self, mode, batch_size):
        rng = np.random.default_rng(9)
        model = toy_model(rng)
        net = compile_network(model, TIMING, f=5e4)
        x = rng.uniform(0, 1, size=(3, 10, 2))[:batch_size]
        batch = simulate_batch(net, x, mode=mode)
        for b in range(batch_size):
            trace = simulate(net, FeatureSequence(x[b], TIMING.t_ann), mode=mode)
            np.testing.assert_allclose(batch.scores[b], readout(trace, net), rtol=0, atol=0)
            for li in range(len(net.layers)):
                np.testing.assert_array_equal(batch.spike_counts[li][b],
                                              trace.spike_counts[li])
                np.testing.assert_array_equal(batch.frame_s[li][b], trace.frame_s[li])


class TestBadInput:
    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, mode, bad):
        rng = np.random.default_rng(13)
        model = toy_model(rng)
        net = compile_network(model, TIMING, f=5e4)
        x = rng.uniform(0, 1, size=(2, 10, 2))
        x[1, 4, 0] = bad
        with pytest.raises(DataError):
            simulate(net, FeatureSequence(x[1], TIMING.t_ann), mode=mode)
        with pytest.raises(DataError):
            simulate_batch(net, x, mode=mode)
        if mode == "reference":
            # the f search's probes run in reference mode: a non-finite peak
            # must not be dropped by its max
            with pytest.raises(DataError):
                probe_peak_state(model, [FeatureSequence(x[1], TIMING.t_ann)], TIMING, 5e4)

    def test_huge_finite_features_saturate_in_fixed_point(self):
        # features of 1e300 are finite: their rounded drive stays in float64
        # and clips u at either rail, counted and logged like any other clip,
        # as the scalar loop does, with no warning from a cast to int64 (the
        # test configuration turns warnings into errors)
        rng = np.random.default_rng(13)
        net = compile_network(toy_model(rng), TIMING, f=5e4)
        feats = rng.uniform(0, 1, size=(10, 2))
        feats[3:5] = 1e300
        trace = simulate(net, FeatureSequence(feats, TIMING.t_ann), mode="fixed_point",
                         probe={0: [0, 1, 2]})
        batch = simulate_batch(net, feats[None], mode="fixed_point")
        sat_log: list = []
        traces: dict = {}
        flat_loop_sim(net, feats, "fixed_point", sat_log, traces)
        assert trace.saturation_events == sat_log[:1000]
        assert trace.saturation_total == batch.saturation_total == sum(e[3] for e in sat_log)
        np.testing.assert_array_equal(trace.probes[(0, "u")], np.array(traces[(0, "u")]))
        assert {-STATE_LIMIT, STATE_LIMIT} <= set(trace.probes[(0, "u")].ravel().tolist())

    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    def test_zero_step_raster_is_an_empty_sequence(self, mode):
        # a raster of 0 steps returned all-zero scores, where 0 frames of
        # features are a DataError
        net = compile_network(toy_model(np.random.default_rng(13)), TIMING, f=5e4)
        empty = SpikeRaster([], [], 0, net.layers[0].size, net.timing.t_snn)
        with pytest.raises(DataError, match="empty sequence"):
            simulate(net, empty, mode=mode)
        with pytest.raises(DataError, match="empty sequence"):
            simulate(net, FeatureSequence(np.zeros((0, 2)), TIMING.t_ann), mode=mode)

    @pytest.mark.parametrize("enc_w, mode", [
        pytest.param(1e290, "fixed_point", id="saturating-fixed"),
        pytest.param(1e308, "fixed_point", id="overflowing-fixed"),
        pytest.param(1e308, "reference", id="overflowing-reference")])
    def test_huge_encoder_weights(self, enc_w, mode):
        # finite encoder weights whose drive saturates u in fixed point,
        # counted like any other clip, or overflows float64, a data error
        rng = np.random.default_rng(13)
        net = compile_network(toy_model(rng), TIMING, f=5e4)
        net.layers[0].enc_w = np.full_like(net.layers[0].enc_w, enc_w)
        x = rng.uniform(0, 1, size=(2, 10, 2))
        if enc_w < 1e300:
            assert simulate_batch(net, x, mode=mode).saturation_total > 0
        else:
            with pytest.raises(DataError, match="drive"):
                simulate_batch(net, x, mode=mode)

    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    def test_drive_that_overflows_rejected(self, mode):
        # finite features whose encoder drive overflows float64
        rng = np.random.default_rng(13)
        net = compile_network(toy_model(rng), TIMING, f=5e4)
        x = rng.uniform(0, 1, size=(2, 10, 2))
        x[1, 4, 0] = 1e308
        with pytest.raises(DataError, match="drive"):
            simulate(net, FeatureSequence(x[1], TIMING.t_ann), mode=mode)
        with pytest.raises(DataError, match="drive"):
            simulate_batch(net, x, mode=mode)


class TestCompareActivations:
    def test_self_comparison_zero_error(self):
        rng = np.random.default_rng(10)
        model = toy_model(rng)
        net = compile_network(model, TIMING, f=5e4)
        feats = FeatureSequence(rng.uniform(0, 1, size=(10, 2)), TIMING.t_ann)
        trace = simulate(net, feats)
        fake_ann = [fs / net.f for fs in trace.frame_s]
        report = compare_activations(fake_ann, trace, net)
        for entry in report["per_layer"]:
            assert entry["relative_mse"] == 0.0
            assert entry["max_abs_deviation"] == 0.0

    def test_batched_silent_ann_layer(self):
        # a layer silent in the source network has relative MSE 0 where the
        # spiking layer is silent too and inf where it spikes; the batched
        # figures equal the single-sample ones
        rng = np.random.default_rng(11)
        net = compile_network(toy_model(rng, bias_scale=0.0), TIMING, f=5e4)
        x = np.stack([np.zeros((10, 2)), rng.uniform(0, 1, size=(10, 2))])
        batch = simulate_batch(net, x)
        assert not batch.frame_s[1][0].any() and batch.frame_s[1][1].any()
        ann = [fs / net.f for fs in batch.frame_s]
        ann[1] = np.zeros_like(ann[1])
        report = compare_activations(ann, batch, net)
        assert [e["relative_mse"] for e in report["per_layer"]] == [
            [0.0, 0.0], [0.0, math.inf], [0.0, 0.0]]
        for b in range(2):
            single = compare_activations([a[b] for a in ann],
                                         simulate(net, FeatureSequence(x[b], TIMING.t_ann)), net)
            assert [e["relative_mse"] for e in single["per_layer"]] == [
                e["relative_mse"][b] for e in report["per_layer"]]

    def test_shape_mismatch_fatal(self):
        rng = np.random.default_rng(11)
        model = toy_model(rng)
        net = compile_network(model, TIMING, f=5e4)
        feats = FeatureSequence(rng.uniform(0, 1, size=(10, 2)), TIMING.t_ann)
        trace = simulate(net, feats)
        bad = [np.zeros((3, 3))] * len(net.layers)
        with pytest.raises(DataError):
            compare_activations(bad, trace, net)

    def test_ann_snn_tracking_small_model(self):
        # miniature version of the mapping-fidelity gate: oversample 100,
        # smooth ramped input, per-layer relative MSE well under 1e-2. One
        # shared alpha per model, so each layer's tau_u cancels its sender's
        # tau_s lead up to the frame-lag compensation, which is first order
        # in the input's rate of change, not exact.
        from sdrnn.benchmarks import make_random_model, make_smooth_input
        from sdrnn.convert import select_scale_factor

        timing = TimingConfig(t_ann=0.01, t_snn=0.0001)
        rng = np.random.default_rng(12)
        model = make_random_model(rng, n_in=2, hidden=(6, 6), n_out=2)
        feats = FeatureSequence(make_smooth_input(rng, 25, 2), timing.t_ann)
        _, ann_traces = forward_sequence(model, feats)
        f = select_scale_factor(model, [feats], timing)
        net = compile_network(model, timing, f)
        trace = simulate(net, feats, record_rasters=False)
        report = compare_activations(ann_traces, trace, net)
        for entry in report["per_layer"]:
            assert entry["relative_mse"] < 1e-2, report


def toy_net():
    return compile_network(toy_model(np.random.default_rng(13)), TIMING, f=5e4)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: simulate_batch(toy_net(), np.zeros((1, 3, 2)), mode="bogus"),
                 ConfigError, "unknown simulation mode", id="unknown-mode"),
    pytest.param(lambda: simulate(toy_net(), SpikeRaster([], [], 10, 2, TIMING.t_snn)),
                 DataError, "raster population", id="raster-population"),
    pytest.param(lambda: simulate(toy_net(), SpikeRaster([], [], 15, 3, TIMING.t_snn)),
                 DataError, "multiple of the oversample", id="raster-duration"),
    pytest.param(lambda: simulate(toy_net(), np.zeros((3, 2))), DataError,
                 "unsupported input type", id="input-type"),
    pytest.param(lambda: compare_activations(
        [], simulate(toy_net(), FeatureSequence(np.zeros((3, 2)), TIMING.t_ann)), toy_net()),
                 DataError, "layer traces", id="trace-count"),
])
def test_input_check(call, error, match):
    with pytest.raises(error, match=match):
        call()
