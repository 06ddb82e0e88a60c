import json
import math
from dataclasses import fields

import numpy as np
import pytest

from sdrnn import convert
from sdrnn.benchmarks import make_random_model, make_smooth_input
from sdrnn.containers import FeatureSequence
from sdrnn.convert import (CompileConfig, SnnLayer, TimingConfig, alpha_to_tau,
                           compile_network, compile_report, load_network, map_bias,
                           map_weights, rescale_tau, save_network, select_scale_factor)
from sdrnn.errors import ConfigError, DataError, NumericError
from sdrnn.lprnn import init_model, ste_quantize
from sdrnn.numerics import STATE_LIMIT
from sdrnn.snn_sim import simulate_batch

TIMING = TimingConfig(t_ann=0.01, t_snn=0.0001)


def quantized_model(rng, n_in=2, hidden=(4, 4, 4), n_out=2, alphas=(0.85, 0.9, 0.9, 0.8),
                    weight_scale=0.8, bias_scale=0.1):
    model = init_model(n_in, hidden, n_out, alphas, t_ann=TIMING.t_ann,
                       seed=int(rng.integers(1 << 30)))
    for layer in model.layers:
        layer.w_in = rng.normal(0.0, weight_scale / np.sqrt(layer.fan_in),
                                size=layer.w_in.shape)
        if layer.w_rec is not None:
            layer.w_rec = rng.normal(0.0, weight_scale / np.sqrt(layer.size),
                                     size=layer.w_rec.shape)
        layer.bias = rng.uniform(0.0, bias_scale, size=layer.bias.shape)
    return model


class TestTimingConfig:
    def test_oversample(self):
        assert TIMING.oversample == 100

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ConfigError):
            TimingConfig(t_ann=0.01, t_snn=0.003)

    def test_snn_coarser_than_ann_rejected(self):
        with pytest.raises(ConfigError):
            TimingConfig(t_ann=0.01, t_snn=0.02)


class TestAlphaToTau:
    def test_exp_minus_one(self):
        # ln(e^-1) = -1, so tau equals the sampling interval exactly
        assert alpha_to_tau(math.exp(-1.0), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_alpha_09_at_10ms(self):
        expected = -0.010 / math.log(0.9)  # independent evaluation, ~94.91 ms
        assert alpha_to_tau(0.9, 0.010) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.09491, abs=5e-6)

    def test_alpha_to_zero_limit(self):
        assert alpha_to_tau(1e-12, 1.0) < 0.04

    def test_rejects_out_of_range(self):
        for alpha in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ConfigError):
                alpha_to_tau(alpha, 1.0)


class TestRescaleTau:
    def test_oversample_one_identity(self):
        timing = TimingConfig(t_ann=0.01, t_snn=0.01)
        # tau re-expressed in steps of t_snn = t_ann: one step per frame
        assert rescale_tau(0.02, timing) == pytest.approx(2.0, rel=1e-12)

    def test_two_frames_oversample_100(self):
        tau_ann = 2 * TIMING.t_ann
        assert rescale_tau(tau_ann, TIMING) == pytest.approx(200.0, rel=1e-12)

    def test_zero_tau_rejected(self):
        with pytest.raises(ConfigError):
            rescale_tau(0.0, TIMING)

    def test_subunit_tau_rejected(self):
        with pytest.raises(ConfigError):
            rescale_tau(TIMING.t_snn / 2, TIMING)

    def test_tau_beyond_the_float_range_rejected(self):
        # a step so fine that the tau in steps overflows to inf ended in an
        # OverflowError when the compiler rounded it
        with pytest.raises(ConfigError, match="finite"):
            rescale_tau(0.02, TimingConfig(t_ann=0.01, t_snn=1e-310))


class TestMapWeights:
    def test_zero_maps_to_zero(self):
        out = map_weights(np.zeros((3, 3)), f=100.0, tau_u=2, tau_i=4)
        assert np.all(out == 0)

    def test_worked_value(self):
        # 512 * 1.0 / (2 * 4 * 64) = 1
        out = map_weights(np.array([[1.0]]), f=512.0, tau_u=2, tau_i=4)
        assert out[0, 0] == 1

    def test_scale_linearity(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 4))
        for c in (0.5, 2.0, 3.0):
            left = map_weights(c * w, f=300.0, tau_u=2, tau_i=4)
            right = map_weights(w, f=c * 300.0, tau_u=2, tau_i=4)
            np.testing.assert_array_equal(left, right)

    def test_range_error_names_entries(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(NumericError) as err:
            map_weights(w, f=10_000_000.0, tau_u=2, tau_i=4, weight_limit=255)
        assert "(0, 0)" in str(err.value)

    def test_weights_beyond_int64_are_range_errors(self):
        # the rounded weights are beyond int64 too: the range check sees
        # them before the cast, which would wrap them past it
        with pytest.raises(NumericError, match=r"\(0, 1\) -> 9\.765625e\+296"):
            map_weights(np.array([[1.0, 0.5]]), f=1e300, tau_u=2, tau_i=4)

    def test_ties_round_away_from_zero(self):
        # f/(tau_u*tau_i*gain) = 0.5 exactly
        out = map_weights(np.array([[1.0, -1.0, 3.0]]), f=256.0, tau_u=2, tau_i=4)
        assert out.tolist() == [[1, -1, 2]]


class TestMapBias:
    def test_zero(self):
        assert np.all(map_bias(np.zeros(4), f=8.0, tau_i=4) == 0)

    def test_worked_value(self):
        # 8 * 2.0 / 4 = 4
        assert map_bias(np.array([2.0]), f=8.0, tau_i=4)[0] == 4

    def test_scale_linearity(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=6)
        np.testing.assert_array_equal(map_bias(2.0 * b, f=50.0, tau_i=4),
                                      map_bias(b, f=100.0, tau_i=4))

    def test_range_check(self):
        with pytest.raises(NumericError):
            map_bias(np.array([1.0]), f=1e9, tau_i=1)

    def test_bias_beyond_int64_is_a_range_error(self):
        with pytest.raises(NumericError):
            map_bias(np.array([1.0]), f=1e300, tau_i=4)


class TestCompile:
    def test_bookkeeping_round_trip(self):
        rng = np.random.default_rng(3)
        model = quantized_model(rng)
        f = 2e5
        net = compile_network(model, TIMING, f)
        assert net.f == f
        for layer_model, layer_net in zip(model.layers, net.layers):
            tau_expected = rescale_tau(alpha_to_tau(layer_model.alpha, TIMING.t_ann), TIMING)
            assert layer_net.tau_s == pytest.approx(tau_expected, rel=1e-12)
            assert layer_net.w_fb == int(round(f / layer_net.tau_s_fx))
            # a network file's load compares each scalar by type
            assert type(layer_net.tau_s_fx) is int and type(layer_net.tau_u_fx) is int

    def test_alpha_09_tau_in_steps(self):
        # chained formula: (-0.010 / ln 0.9) s expressed in 0.1 ms steps
        model = quantized_model(np.random.default_rng(4), alphas=(0.9, 0.9, 0.9, 0.9))
        net = compile_network(model, TIMING, f=1e5)
        expected_steps = (-0.010 / math.log(0.9)) / 0.0001
        assert net.layers[0].tau_s == pytest.approx(expected_steps, rel=1e-12)
        assert net.layers[0].tau_s == pytest.approx(949.122, abs=1e-3)

    def test_integer_weights_and_mapping(self):
        rng = np.random.default_rng(5)
        model = quantized_model(rng)
        net = compile_network(model, TIMING, f=2e5)
        for li, layer in enumerate(net.layers):
            if layer.w_in is not None:
                alpha = model.layers[li].alpha
                # u stage: the tau_s lead cancellation minus the lag of the
                # fine-step filter behind the frame recursion, in steps
                lag = (-1.0 / math.log(alpha) - alpha / (1.0 - alpha)) * TIMING.oversample
                assert layer.tau_u_fx == layer.tau_s_fx - round(lag)
                tensors = [(layer.w_in, model.layers[li].w_in)]
                if layer.w_rec is not None:
                    tensors.append((layer.w_rec, model.layers[li].w_rec))
                    # the recurrent input is delayed by the u stage's lead,
                    # which the feed-forward input keeps
                    assert layer.rec_delay == round(lag)
                for mapped, w in tensors:
                    w_q = ste_quantize(w, model.bits)
                    expected = map_weights(w_q, net.f, layer.tau_u_fx, layer.tau_s_fx,
                                           convert.WEIGHT_GAIN, convert.WEIGHT_LIMIT,
                                           layer.weight_exp)
                    np.testing.assert_array_equal(mapped, expected)
                # the exponent is the largest the weight range and 2**e <= tau_i allow
                assert layer.weight_exp > 0  # f = 2e5 is far below the weight cap
                assert 2 ** layer.weight_exp <= layer.tau_s_fx
                if 2 ** (layer.weight_exp + 1) <= layer.tau_s_fx:
                    with pytest.raises(NumericError):
                        for _, w in tensors:
                            map_weights(ste_quantize(w, model.bits), net.f, layer.tau_u_fx,
                                        layer.tau_s_fx, convert.WEIGHT_GAIN,
                                        convert.WEIGHT_LIMIT, layer.weight_exp + 1)
            assert layer.bias.dtype.kind == "i"

    def test_compile_is_deterministic(self):
        rng = np.random.default_rng(6)
        model = quantized_model(rng)
        a = compile_network(model, TIMING, f=1.5e5)
        b = compile_network(model, TIMING, f=1.5e5)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.bias, lb.bias)
            if la.w_in is not None:
                np.testing.assert_array_equal(la.w_in, lb.w_in)
            assert (la.tau_s, la.w_fb) == (lb.tau_s, lb.w_fb)

    def test_infeasible_feedback_weight(self):
        rng = np.random.default_rng(7)
        model = quantized_model(rng)
        with pytest.raises(NumericError):
            compile_network(model, TIMING, f=10.0)  # f/tau_s < 1

    @pytest.mark.parametrize("f", [math.inf, math.nan, 0.0, -1.0, True, "abc", None])
    def test_invalid_f_rejected(self, f):
        # a string or None ended in a TypeError, and True was taken for f = 1
        with pytest.raises(ConfigError, match="scale factor f"):
            compile_network(quantized_model(np.random.default_rng(7)), TIMING, f=f)

    @pytest.mark.parametrize("option, value", [
        ("safety_margin", math.inf), ("safety_margin", math.nan), ("safety_margin", 0.0),
        ("safety_margin", -1.0), ("safety_margin", True), ("safety_margin", "0.5"),
        ("decay_rounding", "bogus"), ("decay_rounding", None)])
    def test_invalid_compile_config_rejected(self, option, value):
        with pytest.raises(ConfigError, match=option):
            CompileConfig(**{option: value})


class TestSelectScaleFactor:
    def test_zero_probes_cap_by_weight_range(self):
        rng = np.random.default_rng(8)
        model = quantized_model(rng)
        probes = [FeatureSequence(np.zeros((5, 2)), TIMING.t_ann)]
        f, trace = select_scale_factor(model, probes, TIMING, return_trace=True)
        # with silent probes only the weight range binds: the largest mapped
        # magnitude sits at the hardware limit
        net = compile_network(model, TIMING, f)
        peak_w = max(int(np.abs(l.w_in).max()) for l in net.layers if l.w_in is not None)
        assert peak_w == 255
        assert len(trace) == 1

    def test_all_zero_on_chip_weights_start_at_the_state_bound(self):
        # no mapped weight caps f, and silent probes without biases predict
        # no peak: the state bound is the one f the search simulates
        model = quantized_model(np.random.default_rng(18), bias_scale=0.0)
        for layer in model.layers[1:]:
            layer.w_in = np.zeros_like(layer.w_in)
            if layer.w_rec is not None:
                layer.w_rec = np.zeros_like(layer.w_rec)
        assert math.isinf(convert._weight_cap(model, TIMING))
        probes = [FeatureSequence(np.zeros((5, 2)), TIMING.t_ann)]
        f, trace = select_scale_factor(model, probes, TIMING, return_trace=True)
        assert trace == [(STATE_LIMIT * CompileConfig().safety_margin, 0.0)]
        assert f == trace[0][0]

    def test_single_neuron_closed_form(self):
        # one encoder unit with unit weight driven at constant v: the peak
        # state is the drive i = f * v, so the bound gives f = limit/2 / v
        model = init_model(1, (1,), 1, (0.9, 0.9), t_ann=TIMING.t_ann, seed=0)
        model.layers[0].w_in[:] = 1.0
        model.layers[0].bias[:] = 0.0
        model.layers[1].w_in[:] = 0.03
        model.layers[1].bias[:] = 0.0
        v = 0.8
        probes = [FeatureSequence(np.full((40, 1), v), TIMING.t_ann)]
        f = select_scale_factor(model, probes, TIMING)
        expected = STATE_LIMIT * 0.5 / v
        assert f == pytest.approx(expected, rel=0.03)

    def test_doubling_amplitude_halves_f(self):
        # without biases the drive, and so the peak state, is proportional
        # to the input amplitude (a bias would not double with it)
        rng = np.random.default_rng(9)
        model = quantized_model(rng, bias_scale=0.0)
        base = rng.uniform(0.2, 0.5, size=(20, 2))
        probes1 = [FeatureSequence(base, TIMING.t_ann)]
        probes2 = [FeatureSequence(np.clip(2 * base, 0, 1), TIMING.t_ann)]
        f1 = select_scale_factor(model, probes1, TIMING)
        f2 = select_scale_factor(model, probes2, TIMING)
        assert f2 / f1 == pytest.approx(0.5, rel=0.06)

    def test_search_trace_monotone_in_f(self):
        rng = np.random.default_rng(10)
        model = quantized_model(rng)
        probes = [FeatureSequence(rng.uniform(0.3, 1.0, size=(15, 2)), TIMING.t_ann)]
        _, trace = select_scale_factor(model, probes, TIMING, return_trace=True)
        fs = [f for f, _ in trace]
        peaks = [p for _, p in trace]
        assert all(p1 <= p2 for p1, p2 in zip(peaks, peaks[1:])), (fs, peaks)

    def test_empty_probe_set_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ConfigError):
            select_scale_factor(quantized_model(rng), [], TIMING)

    def test_random_model_takes_at_most_two_evaluations(self):
        # criterion 4's first model and inputs: peak/f holds across f, so the
        # step from the cap lands on a verified f at once
        rng = np.random.default_rng(44)
        model = make_random_model(rng)
        probes = [FeatureSequence(make_smooth_input(rng, 30, model.n_features), TIMING.t_ann)
                  for _ in range(3)]
        f, trace = select_scale_factor(model, probes, TIMING, return_trace=True)
        assert len(trace) <= 2
        assert dict(trace)[f] <= STATE_LIMIT * CompileConfig().safety_margin

    def test_offset_peak_takes_more_steps(self, monkeypatch):
        # a peak with a part that does not scale with f falls slower than f,
        # so the linear prediction overshoots: the search steps again until
        # a simulated peak is within the bound
        bound = STATE_LIMIT * CompileConfig().safety_margin
        model = quantized_model(np.random.default_rng(14))
        cap = convert._weight_cap(model, TIMING, CompileConfig())
        monkeypatch.setattr(convert, "probe_peak_state",
                            lambda model, probes, timing, f, config: bound * (0.5 + 2.0 * f / cap))
        probes = [FeatureSequence(np.zeros((5, 2)), TIMING.t_ann)]
        f, trace = select_scale_factor(model, probes, TIMING, return_trace=True)
        assert len(trace) > 2
        assert dict(trace)[f] <= bound
        assert all(p > bound for g, p in trace if g > f)

    def test_worst_criterion_4_model_takes_one_evaluation(self):
        # criterion 4's model 6 and its inputs: the predicted peak starts the
        # search at an f that the one simulation verifies
        rng = np.random.default_rng(44)
        for _ in range(7):
            model = make_random_model(rng)
            probes = [FeatureSequence(make_smooth_input(rng, 30, model.n_features),
                                      TIMING.t_ann) for _ in range(3)]
        f, trace = select_scale_factor(model, probes, TIMING, return_trace=True)
        assert len(trace) == 1
        assert dict(trace)[f] <= STATE_LIMIT * CompileConfig().safety_margin

    def test_under_prediction_falls_back_to_stepping(self, monkeypatch):
        # half the predicted P starts the search at twice the f that the
        # bound allows: it steps down as from the cap, and the f returned is
        # one it simulated
        rng = np.random.default_rng(44)
        model = make_random_model(rng)
        probes = [FeatureSequence(make_smooth_input(rng, 30, model.n_features), TIMING.t_ann)
                  for _ in range(3)]
        predicted = convert.predicted_peak(model, probes)
        monkeypatch.setattr(convert, "predicted_peak", lambda model, probes: predicted / 2)
        simulated = {}
        probe = convert.probe_peak_state

        def recorded(model, probes, timing, f, config):
            simulated[f] = probe(model, probes, timing, f, config)
            return simulated[f]

        monkeypatch.setattr(convert, "probe_peak_state", recorded)
        bound = STATE_LIMIT * CompileConfig().safety_margin
        f, trace = select_scale_factor(model, probes, TIMING, return_trace=True)
        assert len(trace) >= 2 and trace[-1][1] > bound
        assert simulated[f] == dict(trace)[f] <= bound

    @pytest.mark.parametrize("predicted", [0.0, math.inf, math.nan])
    def test_prediction_of_zero_or_not_finite_starts_at_the_cap(self, monkeypatch, predicted):
        model = quantized_model(np.random.default_rng(16))
        monkeypatch.setattr(convert, "predicted_peak", lambda model, probes: predicted)
        probes = [FeatureSequence(np.full((10, 2), 0.5), TIMING.t_ann)]
        _, trace = select_scale_factor(model, probes, TIMING, return_trace=True)
        assert trace[-1][0] == convert._weight_cap(model, TIMING)

    def test_predicted_peak_of_a_held_input(self):
        # one encoder unit of weight 1 held at v for T frames: its recursion
        # reaches v * (1 - alpha**T), and the output layer's weight of 0.03
        # keeps its own far below
        model = init_model(1, (1,), 1, (0.9, 0.9), t_ann=TIMING.t_ann, seed=0)
        model.layers[0].w_in[:] = 1.0
        model.layers[1].w_in[:] = 0.03
        probes = [FeatureSequence(np.full((40, 1), 0.8), TIMING.t_ann),
                  FeatureSequence(np.full((20, 1), 0.8), TIMING.t_ann)]
        assert convert.predicted_peak(model, probes) == pytest.approx(0.8 * (1 - 0.9 ** 40))

    @pytest.mark.parametrize("infeasible_from, match", [
        (math.inf, "no feasible scale factor"), (1, "no feasible scale factor"),
        (0, "feedback weight below 1")],
        ids=["peak-over-bound", "w_fb-below-1-after-a-step", "w_fb-below-1-at-the-start"])
    def test_peak_never_within_bound_raises(self, monkeypatch, infeasible_from, match):
        # each simulated peak is over the bound, and from the evaluation
        # after the first infeasible_from ones on, w_fb is below 1: no f is
        # feasible, and an infeasible first f is raised as it is
        bound = STATE_LIMIT * CompileConfig().safety_margin
        calls = []

        def peak(model, probes, timing, f, config):
            calls.append(f)
            if len(calls) > infeasible_from:
                raise NumericError(f"f = {f} gives feedback weight below 1")
            return 2.0 * bound

        monkeypatch.setattr(convert, "probe_peak_state", peak)
        model = quantized_model(np.random.default_rng(15))
        probes = [FeatureSequence(np.zeros((5, 2)), TIMING.t_ann)]
        with pytest.raises(NumericError, match=match):
            select_scale_factor(model, probes, TIMING)


class TestNetworkFile:
    def test_roundtrip_and_report(self, tmp_path):
        rng = np.random.default_rng(12)
        model = quantized_model(rng)
        net = compile_network(model, TIMING, f=2e5)
        net.notes["probe_peak"] = 123.0
        path = tmp_path / "net.npz"
        save_network(net, path)
        back = load_network(path)
        assert back.f == net.f
        assert back.timing == net.timing
        assert back.notes["probe_peak"] == 123.0
        for la, lb in zip(back.layers, net.layers):
            assert la.kind == lb.kind and la.w_fb == lb.w_fb
            assert (la.rec_delay, la.weight_exp) == (lb.rec_delay, lb.weight_exp)
            np.testing.assert_array_equal(la.bias, lb.bias)
            if lb.w_rec is not None:
                np.testing.assert_array_equal(la.w_rec, lb.w_rec)
            if lb.enc_w is not None:
                np.testing.assert_allclose(la.enc_w, lb.enc_w, rtol=0)
        # embedded source model survives for paired evaluation
        assert back.source_model.n_classes == model.n_classes
        report = compile_report(back)
        assert "scale factor" in report and "histogram" in report
        assert f"weight exponent {net.layers[1].weight_exp}" in report

    def test_round_trip_keeps_every_field(self, tmp_path):
        # a field that the file format dropped would come back as its
        # default, or fail to load
        config = CompileConfig(safety_margin=0.3, decay_rounding="trunc")
        net = compile_network(quantized_model(np.random.default_rng(16)), TIMING, f=2e5,
                              config=config)
        assert all(l.rec_delay > 1 and l.weight_exp > 0 for l in net.layers[1:3])
        path = tmp_path / "net.npz"
        save_network(net, path)
        back = load_network(path)
        for f in fields(CompileConfig):
            assert getattr(back.config, f.name) == getattr(config, f.name), f.name
        for la, lb in zip(back.layers, net.layers):
            for f in fields(SnnLayer):
                a, b = getattr(la, f.name), getattr(lb, f.name)
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype, f.name
                    np.testing.assert_array_equal(a, b, err_msg=f.name)
                else:
                    assert (type(a), a) == (type(b), b), f.name

    @staticmethod
    def with_retired_keys(meta):
        """meta as the compiler wrote it while these keys were options or
        restated another field, with the values they always took."""
        meta["config"].update(tau_u=2.0, tau_mem=1.0, weight_gain=1, weight_limit=255)
        for lmeta in meta["layers"]:
            lmeta.update(tau_i=lmeta["tau_s"], tau_mem=1.0, tau_i_fx=lmeta["tau_s_fx"],
                         tau_mem_fx=1, threshold=lmeta["w_fb"])

    @pytest.mark.parametrize("mode", ["reference", "fixed_point"])
    def test_file_with_retired_keys_simulates_the_same(self, tmp_path, mode):
        net, path = self.saved_with_meta(tmp_path, self.with_retired_keys)
        back = load_network(path)
        assert back.config == net.config
        x = np.random.default_rng(17).uniform(0.0, 1.0, size=(2, 6, 2))
        a, b = simulate_batch(net, x, mode), simulate_batch(back, x, mode)
        for li in range(len(net.layers)):
            np.testing.assert_array_equal(a.spike_counts[li], b.spike_counts[li])
            np.testing.assert_array_equal(a.frame_s[li], b.frame_s[li])

    @pytest.mark.parametrize("section, key, value", [
        ("config", "tau_u", 3.0), ("config", "tau_mem", 2.0), ("config", "weight_gain", 64),
        ("config", "weight_limit", 127), ("layer", "tau_i", 30.0), ("layer", "tau_i_fx", 7),
        ("layer", "threshold", 3), ("layer", "tau_mem", 2.0), ("layer", "tau_mem_fx", 2),
    ])
    def test_retired_key_with_another_value_rejected(self, tmp_path, section, key, value):
        def edit(meta):
            self.with_retired_keys(meta)
            (meta["config"] if section == "config" else meta["layers"][1])[key] = value

        _, path = self.saved_with_meta(tmp_path, edit)
        with pytest.raises(DataError, match=key):
            load_network(path)

    @staticmethod
    def saved_with_meta(tmp_path, edit, edit_arrays=None):
        """A compiled network and the path of its saved file, whose metadata
        edit() has changed, and its arrays edit_arrays(), if given."""
        net = compile_network(quantized_model(np.random.default_rng(13)), TIMING, f=2e5)
        path = tmp_path / "net.npz"
        save_network(net, path)
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        edit(meta)
        if edit_arrays is not None:
            edit_arrays(arrays)
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return net, path

    @staticmethod
    def set_array(name, value):
        def edit(arrays):
            arrays[name] = value(arrays[name])
        return edit

    @pytest.mark.parametrize("edit, edit_arrays, match", [
        # the layer's size disagrees with all of its arrays
        (lambda meta: meta["layers"][1].update(size=meta["layers"][1]["size"] + 1), None,
         "layer 1: size"),
        (lambda meta: None, set_array("l2_w_in", lambda w: w[:, :-1]), "layer 2: w_in"),
        (lambda meta: None, set_array("l1_w_rec", lambda w: w[:, :-1]), "layer 1: w_rec"),
        (lambda meta: None, set_array("l3_bias", lambda b: b[:-1]), "layer 3: bias"),
        (lambda meta: None, set_array("l0_enc_w", lambda w: w[:-1]), "layer 0: enc_w"),
        (lambda meta: None, set_array("l1_w_in", lambda w: w + 0.5), "layer 1: w_in"),
        (lambda meta: None, set_array("l2_w_rec", lambda w: w + 0.5), "layer 2: w_rec"),
        (lambda meta: None, set_array("l2_bias", lambda b: np.where(np.arange(b.size) == 1,
                                                                    np.nan, b)),
         "layer 2: bias"),
        (lambda meta: None, set_array("l0_enc_w", lambda w: np.full_like(w, np.inf)),
         "layer 0: enc_w"),
        (lambda meta: meta["layers"][1].update(w_fb=0), None, "layer 1: w_fb"),
        (lambda meta: meta["layers"][2].update(w_fb=12.5), None, "layer 2: w_fb"),
    ], ids=["size-plus-one", "w_in-columns", "w_rec-columns", "bias-length", "enc_w-rows",
            "w_in-half-integers", "w_rec-half-integers", "nan-bias", "inf-enc_w",
            "w_fb-zero", "w_fb-fractional"])
    def test_arrays_that_disagree_with_the_layer_rejected(self, tmp_path, edit, edit_arrays,
                                                          match):
        # a layer's arrays must have the shapes its size and the size of
        # the layer below give, and the engine's exact integer sums need
        # finite integer weights and biases and an integer w_fb >= 1
        _, path = self.saved_with_meta(tmp_path, edit, edit_arrays)
        with pytest.raises(DataError, match=match):
            load_network(path)

    @staticmethod
    def edited(value, how):
        """A stored field changed: `how` "value" moves a scalar by one (a
        kind to another kind) or one element of an array, "type" stores the
        value as another JSON type or dtype, "absent" drops an array."""
        if isinstance(value, np.ndarray):
            if how == "absent":
                return None
            if how == "type":
                return value.astype(np.float64 if value.dtype.kind == "i" else np.float32)
            value = value.copy()
            value.flat[0] += 1
            return value
        if isinstance(value, str):
            return {"value": "output", "type": [value]}[how]
        return {"value": value + 1, "type": float(value) if type(value) is int else str(value)}[how]

    @pytest.mark.parametrize("name, how", [
        (f.name, how) for f in fields(SnnLayer)
        for how in (("value", "type", "absent") if f.name in convert._LAYER_ARRAYS
                    else ("value", "type"))])
    def test_each_field_that_differs_from_the_compile_is_named(self, tmp_path, name, how):
        # the stored layer must be the compiler's, field by field: scalars
        # in type and value, arrays in presence, dtype, shape and value
        li = 0 if name == "enc_w" else 1
        key = f"l{li}_{name}"

        def edit(meta):
            if name not in convert._LAYER_ARRAYS:
                meta["layers"][li][name] = self.edited(meta["layers"][li][name], how)

        def edit_arrays(arrays):
            if name in convert._LAYER_ARRAYS:
                if (value := self.edited(arrays.pop(key), how)) is not None:
                    arrays[key] = value

        _, path = self.saved_with_meta(tmp_path, edit, edit_arrays)
        with pytest.raises(DataError, match=f"layer {li}: {name} is "):
            load_network(path)

    def test_invalid_delay_rejected(self, tmp_path):
        _, path = self.saved_with_meta(
            tmp_path, lambda meta: meta["layers"][1].update(rec_delay=0))
        with pytest.raises(DataError):
            load_network(path)

    @pytest.mark.parametrize("edit", [
        lambda meta: meta["layers"][1].update(tau_u_fx=0),
        lambda meta: meta["layers"][2].update(tau_s_fx=2.5),
        lambda meta: meta["config"].update(decay_rounding="bogus"),
        lambda meta: meta["config"].update(bogus=1),
        lambda meta: meta["config"].update(safety_margin=math.inf),
        lambda meta: meta.update(notes=[1]),
        lambda meta: meta["layers"][1].update(bogus=1),
    ], ids=["tau-zero", "fractional-tau", "decay-rounding", "unknown-config-key",
            "infinite-safety-margin", "notes-list", "unknown-layer-key"])
    def test_invalid_constants_rejected(self, tmp_path, edit):
        # time constants are integers >= 1, decay_rounding is round or
        # trunc, every config and layer key is known, and the notes are a
        # JSON object
        _, path = self.saved_with_meta(tmp_path, edit)
        with pytest.raises(DataError):
            load_network(path)

    def test_null_tau_overrides_load(self, tmp_path):
        # files written while the compiler had tau overrides record them as null
        net, path = self.saved_with_meta(
            tmp_path, lambda meta: meta["config"].update(tau_u_override=None,
                                                         tau_i_override=None))
        back = load_network(path)
        assert back.f == net.f and back.config == net.config

    @pytest.mark.parametrize("key", ["tau_u_override", "tau_i_override"])
    def test_tau_override_rejected(self, tmp_path, key):
        _, path = self.saved_with_meta(tmp_path, lambda meta: meta["config"].update({key: 50.0}))
        with pytest.raises(DataError, match=key):
            load_network(path)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: alpha_to_tau(0.5, 0.0), "t_s", id="frame-period"),
    pytest.param(lambda: map_weights(np.ones(2), 0.0, 2.0, 2.0), "scale factor",
                 id="weight-scale-factor"),
    pytest.param(lambda: map_bias(np.ones(2), 0.0, 2.0), "scale factor",
                 id="bias-scale-factor"),
])
def test_input_check(call, match):
    with pytest.raises(ConfigError, match=match):
        call()
