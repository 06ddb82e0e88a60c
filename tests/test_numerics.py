import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdrnn.errors import ConfigError
from sdrnn.numerics import (STATE_LIMIT, DecayConstant, FixedState, decay_array,
                            decay_step, round_half_away, sat_add, sat_add_array)


class TestSatAdd:
    def test_zero(self):
        out = sat_add(FixedState(0), 0)
        assert out.value == 0 and not out.saturation_flag

    def test_clip_at_positive_rail(self):
        out = sat_add(FixedState(STATE_LIMIT), 1)
        assert out.value == STATE_LIMIT and out.saturation_flag

    def test_plain_sum(self):
        # independent integer evaluation: 5000 + (-12000) = -7000
        out = sat_add(FixedState(5000), -12000)
        assert out.value == -7000 and not out.saturation_flag

    def test_flag_is_sticky(self):
        out = sat_add(sat_add(FixedState(STATE_LIMIT), 1), -5)
        assert out.value == STATE_LIMIT - 5 and out.saturation_flag

    @given(st.integers(-STATE_LIMIT, STATE_LIMIT), st.integers(-STATE_LIMIT, STATE_LIMIT))
    def test_commutative_numeric_effect(self, a, b):
        # swapping cell and increment leaves the clipped sum unchanged
        assert sat_add(FixedState(a), b).value == sat_add(FixedState(b), a).value

    @given(st.integers(0, 1 << 30))
    def test_idempotent_at_rails(self, b):
        top = sat_add(FixedState(STATE_LIMIT), b)
        assert top.value == STATE_LIMIT
        bottom = sat_add(FixedState(-STATE_LIMIT), -b)
        assert bottom.value == -STATE_LIMIT


class TestDecay:
    def test_zero_fixed_point_of_decay(self):
        assert decay_step(FixedState(0), 5).value == 0
        assert decay_step(0.0, 3.7) == 0.0

    def test_full_decay_at_tau_one(self):
        assert decay_step(FixedState(4096), 1).value == 0

    def test_reference_integer_evaluation(self):
        # 4096 - 4096/4 = 3072
        assert decay_step(FixedState(4096), 4).value == 3072
        assert decay_step(4096.0, 4.0) == pytest.approx(3072.0, abs=0)

    def test_infinite_tau_disables_reference_decay(self):
        assert decay_step(123.456, math.inf) == 123.456

    def test_fixed_rejects_fractional_tau(self):
        with pytest.raises(ConfigError):
            decay_step(FixedState(10), 2.5)

    @given(st.integers(-STATE_LIMIT, STATE_LIMIT), st.integers(1, 10000))
    def test_sign_preserved_and_contracting(self, x, tau):
        out = decay_step(FixedState(x), tau).value
        assert out == 0 or np.sign(out) == np.sign(x)
        assert abs(out) <= abs(x)

    @given(st.floats(-1e6, 1e6), st.floats(1.0, 1e6))
    def test_reference_contraction(self, x, tau):
        out = decay_step(x, tau)
        assert abs(out) <= abs(x) + 1e-12
        if x != 0:
            assert np.sign(out) in (0, np.sign(x))

    @given(st.integers(-STATE_LIMIT, STATE_LIMIT), st.integers(1, 5000))
    @settings(max_examples=50)
    def test_reaches_zero_in_finite_steps(self, x, tau):
        state = FixedState(x)
        for _ in range(abs(x) + 1):
            if state.value == 0:
                break
            state = decay_step(state, tau)
        assert state.value == 0

    def test_strict_decrement_even_below_tau(self):
        # magnitudes below tau still drain instead of stalling
        state = FixedState(5)
        state = decay_step(state, 1000)
        assert state.value == 4


class TestDecayConstant:
    def test_fixed_requires_integer_at_least_one(self):
        with pytest.raises(ConfigError):
            DecayConstant(0.5, fixed=True)
        with pytest.raises(ConfigError):
            DecayConstant(2.5, fixed=True)
        assert DecayConstant(3, fixed=True).tau == 3

    def test_reference_requires_positive(self):
        with pytest.raises(ConfigError):
            DecayConstant(0.0)
        assert DecayConstant(math.inf).tau == math.inf


class TestArrayKernels:
    def test_decay_array_matches_scalar(self):
        xs = np.array([-4096, -5, 0, 5, 4096], dtype=np.int64)
        out = decay_array(xs, 4, fixed=True)
        expected = [decay_step(FixedState(int(x)), 4).value for x in xs]
        assert out.tolist() == expected
        # one tau per element, as the engine passes them: each element decays
        # as a scalar call with its own tau, in both modes and both roundings
        xs = np.array([[-4096, -7, 0, 7, 4096, 999], [5, -5, 3, -3, 1, -1]], dtype=np.int64)
        taus = np.array([1, 2, 3, 4, 7, 150], dtype=np.int64)
        for rounding in ("trunc", "round"):
            out = decay_array(xs, taus, fixed=True, rounding=rounding)
            expected = [[decay_step(FixedState(int(x)), int(t), rounding).value
                         for x, t in zip(row, taus)] for row in xs]
            assert out.tolist() == expected
        out = decay_array(xs.astype(np.float64), taus.astype(np.float64))
        expected = [[decay_step(float(x), float(t)) for x, t in zip(row, taus)] for row in xs]
        assert out.tolist() == expected

    @pytest.mark.parametrize("rounding", ["trunc", "round"])
    def test_float_held_decay_matches_integer_floor_division(self, rounding):
        # every tau in 1..4096 (the tau_*_fx the compiler emits at oversample
        # <= 200 for alpha up to 0.95, and tau_mem = 1, tau_u = 2) plus 64
        # larger ones up to 2**23, at the edge magnitudes of each tau and a
        # random sample of the 24-bit range: the float64 kernel on integer
        # values equals the int64 floor division (|x| (tau - 1) + half) // tau
        # with the sign of x, and makes no -0.0
        taus = np.concatenate([np.arange(1, 4097),
                               np.geomspace(4097, STATE_LIMIT, 64).astype(np.int64)])[:, None]
        half = taus // 2 if rounding == "round" else np.zeros_like(taus)
        h = taus // 2
        edges = np.concatenate([np.broadcast_to(np.array([0, 1, STATE_LIMIT - 1, STATE_LIMIT]),
                                                (taus.size, 4)),
                                h - 1, h, h + 1, taus - 1, taus, taus + 1], axis=1)
        sample = np.random.default_rng(0).integers(-STATE_LIMIT, STATE_LIMIT + 1, size=512)
        xs = np.concatenate([edges.clip(0), -edges.clip(0),
                             np.broadcast_to(sample, (taus.size, sample.size))], axis=1)
        expected = np.sign(xs) * ((np.abs(xs) * (taus - 1) + half) // taus)
        got = decay_array(xs.astype(np.float64), taus.astype(np.float64), fixed=True,
                          rounding=rounding, out=np.empty(xs.shape))
        np.testing.assert_array_equal(got, expected)
        assert not np.signbit(got[got == 0]).any()

    def test_float_held_shift_matches_arithmetic_shift(self):
        # u enters i as floor((u + half) * 2**-e), the rounded arithmetic
        # shift (u + half) >> e, negative odd u included
        us = np.concatenate([np.arange(-4099, 4100),
                             [-STATE_LIMIT, -STATE_LIMIT + 1, STATE_LIMIT - 1, STATE_LIMIT]])
        for e in range(9):
            half = (1 << e) >> 1
            got = np.floor((us.astype(np.float64) + half) * np.ldexp(1.0, -e))
            np.testing.assert_array_equal(got, (us + half) >> e)

    def test_sat_add_array_counts_clips(self):
        xs = np.array([STATE_LIMIT - 1, 0, -STATE_LIMIT + 1], dtype=np.int64)
        out, clipped = sat_add_array(xs, np.array([10, 10, -10]))
        assert clipped == 2
        assert out.tolist() == [STATE_LIMIT, 10, -STATE_LIMIT]
        # sums that reach the rails exactly are not clips
        out, clipped = sat_add_array(xs, np.array([1, 10, -1]))
        assert clipped == 0
        assert out.tolist() == [STATE_LIMIT, 10, -STATE_LIMIT]

    def test_round_half_away(self):
        xs = np.array([-1.5, -0.5, -0.49, 0.49, 0.5, 1.5, 2.5])
        assert round_half_away(xs).tolist() == [-2, -1, 0, 0, 1, 2, 3]
