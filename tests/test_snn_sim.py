import json
import math

import numpy as np
import pytest

from sdrnn.containers import FeatureSequence, SpikeRaster
from sdrnn.convert import (CompileConfig, TimingConfig, compile_network, load_network,
                           probe_peak_state, save_network)
from sdrnn.errors import DataError
from sdrnn.lprnn import forward_sequence, init_model
from sdrnn.numerics import STATE_LIMIT
from sdrnn.sigma_delta import NeuronParams, reconstruct
from sdrnn.snn_sim import compare_activations, readout, simulate, simulate_batch

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


def output_probe(net) -> dict:
    """A probe of every output neuron at every step."""
    return {len(net.layers) - 1: list(range(net.layers[-1].size))}


def flat_loop_sim(net, feats: np.ndarray, mode: str, sat_log: list | None = None):
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
    i, imem, s.
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

    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    def test_file_without_delay_and_exponent(self, mode, tmp_path):
        # a network file written before rec_delay and weight_exp existed
        # loads with one step of recurrent delay and exponent 0, the
        # semantics it was compiled for, and runs them
        rng = np.random.default_rng(43)
        path = tmp_path / "net.npz"
        save_network(compile_network(toy_model(rng), TIMING, f=5e4), path)
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        for lmeta in meta["layers"]:
            del lmeta["rec_delay"], lmeta["weight_exp"]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        net = load_network(path)
        assert [(l.rec_delay, l.weight_exp) for l in net.layers] == [(1, 0)] * 3
        feats = rng.uniform(0.0, 1.0, size=(12, 2))
        trace = simulate(net, FeatureSequence(feats, TIMING.t_ann), mode=mode,
                         probe=output_probe(net))
        events, s_traces = flat_loop_sim(net, feats, mode)
        for li in range(len(net.layers)):
            got = list(zip(trace.rasters[li].times.tolist(),
                           trace.rasters[li].units.tolist()))
            assert got == sorted(events[li]), f"layer {li} rasters differ"
        np.testing.assert_array_equal(trace.probes[(2, "s")], np.array(s_traces[-1]))


class TestBasics:
    def test_zero_input_silent(self):
        rng = np.random.default_rng(0)
        model = toy_model(rng, bias_scale=0.0)
        net = compile_network(model, TIMING, f=5e4)
        trace = simulate(net, FeatureSequence(np.zeros((10, 2)), TIMING.t_ann),
                         probe=output_probe(net))
        assert all(r.n_spikes == 0 for r in trace.rasters)
        assert trace.peak_state == 0.0
        assert np.all(trace.probes[(2, "s")] == 0.0)

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

    def test_dimension_mismatch_fatal(self):
        rng = np.random.default_rng(4)
        net = compile_network(toy_model(rng), TIMING, f=5e4)
        with pytest.raises(DataError):
            simulate(net, FeatureSequence(np.zeros((5, 3)), TIMING.t_ann))


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
                              tau_u=layer.tau_u_fx, tau_mem=1,
                              threshold=layer.w_fb, w_fb=layer.w_fb,
                              clamp_ceiling=net.f)
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
        model = make_random_model(rng, n_in=2, hidden=(6, 6), n_out=2,
                                  alpha=0.6, t_ann=timing.t_ann)
        feats = FeatureSequence(make_smooth_input(rng, 25, 2), timing.t_ann)
        _, ann_traces = forward_sequence(model, feats)
        f = select_scale_factor(model, [feats], timing)
        net = compile_network(model, timing, f)
        trace = simulate(net, feats, record_rasters=False)
        report = compare_activations(ann_traces, trace, net)
        for entry in report["per_layer"]:
            assert entry["relative_mse"] < 1e-2, report
