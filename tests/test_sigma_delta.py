import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdrnn.containers import FeatureSequence, SpikeRaster
from sdrnn.errors import ConfigError, DataError
from sdrnn.sigma_delta import NeuronParams, NeuronState, encode_analog, neuron_step, reconstruct

DEFAULTS = NeuronParams()


def scalar_neuron_step(state, drive, params):
    """One reference-mode step of one neuron in Python floats: u, i and s
    decay as x - x / tau, then take their increments; imem is i - s."""
    u, i, s, imem = state
    u = u - u / params.tau_u + drive
    i = i - i / params.tau_i + u
    s = s - s / params.tau_s
    imem = i - s
    spike = imem > params.w_fb
    if spike:
        imem = 0.0
        s = s + params.w_fb
    return (u, i, s, imem), spike


def dense(raster: SpikeRaster) -> np.ndarray:
    """The raster as a boolean [duration, population] mask."""
    mask = np.zeros((raster.duration, raster.population), dtype=bool)
    mask[raster.times, raster.units] = True
    return mask


def drive_constant(value, steps, params=DEFAULTS):
    """Reference loop driving one neuron with constant analog value at unit
    i-gain; returns (i trace, s trace, spike list)."""
    state = NeuronState()
    cur = value / (params.tau_u * params.tau_i)
    i_tr, s_tr, spikes = [], [], []
    for t in range(steps):
        state, spike = neuron_step(state, 0.0, cur, params)
        i_tr.append(state.i)
        s_tr.append(state.s)
        if spike:
            spikes.append(t)
    return np.array(i_tr), np.array(s_tr), spikes


class TestNeuronParams:
    def test_taus_must_be_positive(self):
        # a time constant is any positive real; an infinite one disables decay
        for name in ("tau_s", "tau_u"):
            with pytest.raises(ConfigError):
                NeuronParams(**{name: 0.0})
        assert NeuronParams(tau_s=math.inf).tau_s == math.inf
        assert NeuronParams(tau_s=7.0).tau_i == 7.0  # the i stage shares tau_s

    def test_fields(self):
        # the full-rate s, w_fb * tau_s, is derived, not set
        assert [f.name for f in fields(NeuronParams)] == ["tau_s", "tau_u", "w_fb"]
        assert DEFAULTS.w_fb * DEFAULTS.tau_s == 1.0


class TestNeuronStep:
    def test_zero_state_zero_input_stays_zero(self):
        state = NeuronState()
        for _ in range(100):
            state, spike = neuron_step(state, 0.0, 0.0, DEFAULTS)
            assert not spike
        assert state.u == state.i == state.s == state.imem == 0.0

    def test_hand_simulated_accumulation_and_reset(self):
        # decays disabled: imem is i - s, which crosses the threshold w_fb
        # and resets to exactly 0
        params = NeuronParams(tau_s=math.inf, tau_u=math.inf, w_fb=1.0)
        state = NeuronState(i=params.w_fb + 1.0)
        state, spike = neuron_step(state, 0.0, 0.0, params)
        # hand simulation: imem = (w_fb + 1) - 0 = 2.0 > 1.0
        assert spike
        assert state.imem == 0.0
        assert state.s == params.w_fb  # same-step feedback

    def test_update_order_decay_then_add(self):
        # a fresh input is not decayed in its arrival step: u == input exactly
        params = NeuronParams(tau_u=4.0, tau_s=4.0, w_fb=100.0)
        state, _ = neuron_step(NeuronState(), 0.0, 1.0, params)
        assert state.u == 1.0
        assert state.i == 1.0  # i receives the fresh u undecayed
        state, _ = neuron_step(state, 0.0, 1.0, params)
        assert state.u == 1.0 - 1.0 / 4.0 + 1.0

    def test_staircase_tracking_of_constant_input(self):
        # after the transient the feedback estimate stays within w_fb of the
        # drive for a held input
        steps = int(10 * DEFAULTS.tau_s)
        i_tr, s_tr, spikes = drive_constant(0.6, steps)
        settle = int(5 * DEFAULTS.tau_s)
        gap = np.abs(s_tr[settle:] - i_tr[settle:])
        assert gap.max() <= DEFAULTS.w_fb + 1e-12
        assert len(spikes) > 0

    def test_reset_is_exact(self):
        params = NeuronParams()
        state = NeuronState()
        cur = 0.8 / (params.tau_u * params.tau_i)
        for _ in range(2000):
            state, spike = neuron_step(state, 0.0, cur, params)
            if spike:
                assert state.imem == 0.0

    def test_imem_is_zero_after_a_spike_and_i_minus_s_otherwise(self):
        # the kernel leaves imem as the spike test compared it, and
        # neuron_step reports the reset: +0.0 after a spike
        state, spikes = NeuronState(), 0
        cur = 0.7 / (DEFAULTS.tau_u * DEFAULTS.tau_i)
        for _ in range(600):
            state, spike = neuron_step(state, 0.0, cur, DEFAULTS)
            if spike:
                spikes += 1
                assert state.imem == 0.0 and math.copysign(1.0, state.imem) == 1.0
            else:
                assert state.imem == state.i - state.s
        assert 0 < spikes < 600

    @given(st.floats(0.05, 0.45), st.floats(0.5, 1.0))
    @settings(max_examples=10, deadline=None)
    def test_monotone_spike_count(self, low, high):
        steps = 1500
        _, _, spikes_low = drive_constant(low, steps)
        _, _, spikes_high = drive_constant(high, steps)
        assert len(spikes_low) <= len(spikes_high)


class TestEncodeAnalog:
    def test_zero_signal_empty_raster(self):
        sig = FeatureSequence(np.zeros((20, 3)), frame_period=0.01)
        raster = encode_analog(sig, DEFAULTS, oversample=10)
        assert raster.times.size == 0
        assert raster.duration == 200
        assert raster.population == 3

    def test_negative_signal_rejected(self):
        sig = FeatureSequence(np.full((5, 2), -0.1), frame_period=0.01)
        with pytest.raises(DataError):
            encode_analog(sig, DEFAULTS, oversample=4)

    def test_nan_signal_rejected(self):
        # NaN passes both range checks, and was encoded as a silent neuron
        sig = FeatureSequence(np.array([[np.nan, 0.5]]), frame_period=0.01)
        with pytest.raises(DataError, match="finite"):
            encode_analog(sig, DEFAULTS, oversample=4)

    def test_constant_signal_rate_and_roundtrip(self):
        v = 0.5
        frames = 12 * int(DEFAULTS.tau_s)
        sig = FeatureSequence(np.full((frames, 1), v), frame_period=0.001)
        raster = encode_analog(sig, DEFAULTS, oversample=1)
        # steady-state spike rate approximates the encoded value: each spike
        # is worth w_fb and s leaks s/tau_s = v * w_fb per step at v
        settle = 6 * int(DEFAULTS.tau_s)
        late = raster.times[raster.times >= settle]
        rate = late.size / (frames - settle)
        assert rate == pytest.approx(v, abs=0.05)
        decoded = reconstruct(raster, DEFAULTS)
        tail = decoded.data[settle:, 0]
        assert tail.mean() == pytest.approx(v, abs=DEFAULTS.w_fb)

    def test_signal_up_to_the_full_rate_s(self):
        # w_fb 0.02 and tau_s 100: a neuron spiking every step holds s = 2.0,
        # so 1.5 encodes (the fixed ceiling 1.0 rejected it), s tracks i within
        # w_fb once settled, and a signal above 2.0 is rejected
        params = NeuronParams(w_fb=0.02)
        steps = int(10 * params.tau_s)
        sig = FeatureSequence(np.full((steps, 1), 1.5), frame_period=0.001)
        raster = encode_analog(sig, params, oversample=1)
        i_tr, s_tr, spikes = drive_constant(1.5, steps, params)
        assert raster.times.tolist() == spikes
        decoded = reconstruct(raster, params).data[:, 0]
        np.testing.assert_array_equal(decoded, s_tr)
        settle = int(5 * params.tau_s)
        assert np.abs(decoded[settle:] - i_tr[settle:]).max() <= params.w_fb
        with pytest.raises(DataError, match="full-rate"):
            encode_analog(FeatureSequence(np.full((2, 1), 2.01), 0.001), params, 4)

    def test_encode_matches_neuron_step_loop(self):
        # the encoder's raster and neuron_step's states against a scalar
        # Python-float loop of the reference update
        rng = np.random.default_rng(0)
        frames = rng.uniform(0.0, 1.0, size=(7, 2))
        sig = FeatureSequence(frames, frame_period=0.01)
        oversample = 5
        raster = encode_analog(sig, DEFAULTS, oversample)
        mask = dense(raster)
        for unit in range(2):
            state, oracle = NeuronState(), (0.0, 0.0, 0.0, 0.0)
            for t in range(raster.duration):
                cur = frames[t // oversample, unit] / (DEFAULTS.tau_u * DEFAULTS.tau_i)
                oracle, oracle_spike = scalar_neuron_step(oracle, cur, DEFAULTS)
                state, spike = neuron_step(state, 0.0, cur, DEFAULTS)
                assert mask[t, unit] == spike == oracle_spike
                assert (state.u, state.i, state.s, state.imem) == oracle


class TestReconstruct:
    def test_empty_raster_zero_trace(self):
        raster = SpikeRaster(np.array([]), np.array([]), duration=50, population=4, dt=1e-4)
        out = reconstruct(raster, DEFAULTS)
        assert out.data.shape == (50, 4)
        assert np.all(out.data == 0.0)

    def test_single_spike_exponential_bump(self):
        t0 = 7
        raster = SpikeRaster(np.array([t0]), np.array([0]), duration=40, population=1, dt=1e-4)
        out = reconstruct(raster, DEFAULTS).data[:, 0]
        # closed form: zero before the spike, w_fb at the spike step, then
        # geometric decay by (1 - 1/tau_s) per step
        assert np.all(out[:t0] == 0.0)
        expected = DEFAULTS.w_fb * (1.0 - 1.0 / DEFAULTS.tau_s) ** np.arange(40 - t0)
        np.testing.assert_allclose(out[t0:], expected, rtol=1e-12)


class TestRasterSerialization:
    @pytest.mark.parametrize("duration, population, dt", [
        (-5, 2, 1e-4), (10, -1, 1e-4), (10, 2, 0.0), (10, 2, -1e-4), (10, 2, math.nan)])
    def test_rejects_negative_sizes_and_a_step_that_is_not_positive(self, duration,
                                                                    population, dt):
        with pytest.raises(DataError, match="raster"):
            SpikeRaster(np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                        duration, population, dt)

    def test_rejects_out_of_range_events(self):
        with pytest.raises(DataError):
            SpikeRaster(np.array([10]), np.array([0]), duration=10, population=1, dt=1e-4)

    def test_integer_valued_floats_are_integers(self):
        raster = SpikeRaster(np.array([2.0, 1.0]), np.array([0.0, 1.0]), 10.0, 2.0, 1e-4)
        assert raster.times.tolist() == [1, 2] and raster.units.tolist() == [1, 0]
        assert (raster.duration, raster.population) == (10, 2)
        assert type(raster.duration) is int and type(raster.population) is int

    @pytest.mark.parametrize("times, units", [([3, 1, 3, 0], [0, 2, 1, 4]),
                                              ([5, 5, 2, 9], [2, 0, 1, 0])])
    def test_unsorted_events_come_out_sorted(self, times, units):
        raster = SpikeRaster(times, units, 10, 5, 1e-4)
        assert list(zip(raster.times.tolist(), raster.units.tolist())) == sorted(
            zip(times, units))

    @pytest.mark.parametrize("times, units", [([1, 3, 3, 4], [0, 1, 1, 2]),
                                              ([3, 1, 3, 0], [1, 0, 1, 2])],
                             ids=["sorted", "unsorted"])
    def test_repeated_event_fails_sorted_or_not(self, times, units):
        with pytest.raises(DataError, match="more than once"):
            SpikeRaster(times, units, 10, 5, 1e-4)

    def test_raster_too_large_for_an_int64_key(self):
        # duration * population >= 2**63: time * population + unit would
        # wrap, and 2 * 2**62 wraps to -2**63, so an unsorted pair would
        # look sorted; a few events validate without a dense allocation
        raster = SpikeRaster([2, 1, 3], [0, 0, 2 ** 62 - 1], 4, 2 ** 62, 1e-4)
        assert raster.times.tolist() == [1, 2, 3]
        assert raster.units.tolist() == [0, 0, 2 ** 62 - 1]
        huge = SpikeRaster([2 ** 40 - 1, 0, 7], [5, 2 ** 30 - 1, 3], 2 ** 40, 2 ** 30, 1e-4)
        assert huge.times.tolist() == [0, 7, 2 ** 40 - 1]
        for times in ([2, 1, 2], [1, 2, 2]):
            with pytest.raises(DataError, match="more than once"):
                SpikeRaster(times, [0, 0, 0], 4, 2 ** 62, 1e-4)

    def test_int64_events_are_not_copied(self):
        times, units = np.array([1, 4], dtype=np.int64), np.array([2, 0], dtype=np.int64)
        raster = SpikeRaster(times, units, 10, 5, 1e-4)
        assert raster.times is times and raster.units is units

    def test_repeated_event_is_data_error(self):
        # a dense mask would count one spike where reconstruct added w_fb twice
        with pytest.raises(DataError, match="more than once"):
            SpikeRaster([3, 3], [1, 1], 10, 2, 1e-4)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: NeuronParams(w_fb=0.0), ConfigError, "w_fb", id="w_fb"),
    pytest.param(lambda: encode_analog(FeatureSequence(np.zeros((2, 1)), 0.01), DEFAULTS, 0),
                 ConfigError, "oversample", id="oversample"),
    pytest.param(lambda: encode_analog(FeatureSequence(np.zeros((2, 1)), 0.01),
                                       NeuronParams(tau_u=math.inf), 4),
                 ConfigError, "finite tau", id="infinite-tau"),
    pytest.param(lambda: encode_analog(FeatureSequence(np.full((2, 1), 1.5), 0.01), DEFAULTS, 4),
                 DataError, "full-rate", id="above-ceiling"),
])
def test_input_check(call, error, match):
    with pytest.raises(error, match=match):
        call()


#: Periods that are no finite positive real number.
PERIODS = [("string", "0.01"), ("bool", True), ("inf", np.inf), ("nan", np.nan)]


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: FeatureSequence(np.zeros(3), 0.01), "2-D", id="feature-rank"),
    pytest.param(lambda: FeatureSequence(np.zeros((3, 2)), 0.0), "frame_period",
                 id="frame-period"),
    pytest.param(lambda: SpikeRaster([0, 1], [0], 5, 2, 1e-3), "equal length",
                 id="raster-lengths"),
    pytest.param(lambda: SpikeRaster([0], [2], 5, 2, 1e-3), "unit id", id="raster-unit"),
    # times [1.5, 2.7] were stored as [1, 2], and a duration of 10.5 was kept
    pytest.param(lambda: SpikeRaster([1.5, 2.7], [0, 1], 10, 2, 1e-3),
                 "raster times must be integer-valued", id="raster-fractional-times"),
    pytest.param(lambda: SpikeRaster([np.nan], [0], 10, 2, 1e-3), "raster times",
                 id="raster-nan-time"),
    pytest.param(lambda: SpikeRaster([np.inf], [0], 10, 2, 1e-3), "raster times",
                 id="raster-inf-time"),
    pytest.param(lambda: SpikeRaster([1, 2], [0, 0.5], 10, 2, 1e-3),
                 "raster units must be integer-valued", id="raster-fractional-units"),
    pytest.param(lambda: SpikeRaster([1, 2], [0, 1], 10.5, 2, 1e-3),
                 "raster duration must be integer-valued", id="raster-fractional-duration"),
    pytest.param(lambda: SpikeRaster([1, 2], [0, 1], "10", 2, 1e-3), "raster duration",
                 id="raster-string-duration"),
    pytest.param(lambda: SpikeRaster([1, 2], [0, 1], 10, 2.5, 1e-3),
                 "raster population must be integer-valued", id="raster-fractional-population"),
    pytest.param(lambda: SpikeRaster([1, 2], [0, 1], 10, True, 1e-3), "raster population",
                 id="raster-bool-population"),
    # a string period raised a bare TypeError, and True and inf were kept
    *[pytest.param(lambda p=period: FeatureSequence(np.zeros((3, 2)), p), "frame_period",
                   id=f"frame-period-{name}") for name, period in PERIODS],
    *[pytest.param(lambda p=period: SpikeRaster([1], [0], 10, 2, p), "finite positive dt",
                   id=f"raster-dt-{name}") for name, period in PERIODS],
])
def test_container_input_check(call, match):
    with pytest.raises(DataError, match=match):
        call()
