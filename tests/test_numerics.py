import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdrnn.errors import ConfigError
from sdrnn.numerics import (STATE_LIMIT, TAU_LIMIT, decay_array, decay_by, decay_factor,
                            round_half_away, sat_add_array)


def sat_add(a, b):
    """sat_add_array on two scalars: (clipped sum, clips)."""
    out, clipped = sat_add_array(np.array([float(a)]), float(b))
    return out[0], clipped


def fixed_decay(x, tau, out=None):
    """The fixed-point decay by tau: decay_by with tau's factor."""
    return decay_by(x, decay_factor(tau), out=out)


def decay(x, tau, fixed=True):
    """fixed_decay, or decay_array in reference mode, on one scalar."""
    x = np.array([float(x)])
    return (fixed_decay(x, float(tau)) if fixed else decay_array(x, float(tau)))[0]


class TestSatAdd:
    def test_zero(self):
        assert sat_add(0, 0) == (0, 0)

    def test_clip_at_positive_rail(self):
        assert sat_add(STATE_LIMIT, 1) == (STATE_LIMIT, 1)

    def test_plain_sum(self):
        # independent integer evaluation: 5000 + (-12000) = -7000
        assert sat_add(5000, -12000) == (-7000, 0)

    @given(st.integers(-STATE_LIMIT, STATE_LIMIT), st.integers(-STATE_LIMIT, STATE_LIMIT))
    def test_commutative_numeric_effect(self, a, b):
        # swapping state and increment leaves the clipped sum unchanged
        assert sat_add(a, b) == sat_add(b, a)

    @given(st.integers(0, 1 << 30))
    def test_idempotent_at_rails(self, b):
        assert sat_add(STATE_LIMIT, b)[0] == STATE_LIMIT
        assert sat_add(-STATE_LIMIT, -b)[0] == -STATE_LIMIT


class TestDecay:
    def test_zero_fixed_point_of_decay(self):
        assert decay(0, 5) == 0
        assert decay(0.0, 3.7, fixed=False) == 0.0

    def test_full_decay_at_tau_one(self):
        assert decay(4096, 1) == 0

    def test_reference_integer_evaluation(self):
        # 4096 - 4096/4 = 3072
        assert decay(4096, 4) == 3072
        assert decay(4096.0, 4.0, fixed=False) == 3072.0

    def test_infinite_tau_disables_reference_decay(self):
        assert decay(123.456, math.inf, fixed=False) == 123.456

    @given(st.integers(-STATE_LIMIT, STATE_LIMIT), st.integers(1, 10000))
    def test_sign_preserved_and_contracting(self, x, tau):
        out = decay(x, tau)
        assert out == 0 or np.sign(out) == np.sign(x)
        assert abs(out) <= abs(x)

    @given(st.integers(-STATE_LIMIT, STATE_LIMIT), st.integers(1, 10000))
    def test_holds_at_most_half_tau_and_shrinks_above(self, x, tau):
        # the rounded decay keeps a magnitude of at most tau // 2 and takes
        # at least one off every larger one
        out = decay(x, tau)
        if abs(x) <= tau // 2:
            assert out == x
        else:
            assert abs(out) < abs(x)

    def test_settles_within_half_tau_in_finite_steps(self):
        # 64 states over the 24-bit range with taus up to 5000 each settle,
        # within max|x| steps, at a magnitude of at most tau // 2
        rng = np.random.default_rng(0)
        xs = rng.integers(-STATE_LIMIT, STATE_LIMIT + 1, size=64).astype(np.float64)
        taus = rng.integers(1, 5001, size=64).astype(np.float64)
        state, steps = xs, 0
        while steps <= np.abs(xs).max():
            nxt = fixed_decay(state, taus)
            if np.array_equal(nxt, state):
                break
            state, steps = nxt, steps + 1
        assert np.array_equal(fixed_decay(state, taus), state)
        assert (np.abs(state) <= taus // 2).all()
        assert (np.sign(state) * np.sign(xs) >= 0).all()

    @given(st.floats(-1e6, 1e6), st.floats(1.0, 1e6))
    def test_reference_contraction(self, x, tau):
        out = decay(x, tau, fixed=False)
        assert abs(out) <= abs(x) + 1e-12
        if x != 0:
            assert np.sign(out) in (0, np.sign(x))


class TestArrayKernels:
    def test_decay_array_matches_scalar(self):
        # one tau per element, as the engine passes them: each element decays
        # as the integer (|x| (tau - 1) + half) // tau with the sign of x in
        # fixed point, and as x - x / tau in reference mode
        xs = np.array([[-4096, -7, 0, 7, 4096, 999], [5, -5, 3, -3, 1, -1]])
        taus = [1, 2, 3, 4, 7, 150]
        out = fixed_decay(xs.astype(np.float64), np.array(taus, dtype=np.float64))
        expected = [[int(math.copysign((abs(int(x)) * (t - 1) + t // 2) // t, x))
                     for x, t in zip(row, taus)] for row in xs]
        assert out.tolist() == expected
        out = decay_array(xs.astype(np.float64), np.array(taus, dtype=np.float64))
        expected = [[float(x) - float(x) / t for x, t in zip(row, taus)] for row in xs]
        assert out.tolist() == expected

    def test_float_held_decay_matches_integer_floor_division(self):
        # every tau in 1..4096 (the tau_*_fx the compiler emits at oversample
        # <= 200 for alpha up to 0.95, and tau_mem = 1, tau_u = 2) plus 64
        # larger ones up to 2**23, at the edge magnitudes of each tau and a
        # random sample of the 24-bit range: the float64 kernel on integer
        # values equals the int64 floor division (|x| (tau - 1) + half) // tau
        # with the sign of x, and makes no -0.0
        taus = np.concatenate([np.arange(1, 4097),
                               np.geomspace(4097, STATE_LIMIT, 64).astype(np.int64)])[:, None]
        h = taus // 2
        edges = np.concatenate([np.broadcast_to(np.array([0, 1, STATE_LIMIT - 1, STATE_LIMIT]),
                                                (taus.size, 4)),
                                h - 1, h, h + 1, taus - 1, taus, taus + 1], axis=1)
        sample = np.random.default_rng(0).integers(-STATE_LIMIT, STATE_LIMIT + 1, size=512)
        xs = np.concatenate([edges.clip(0), -edges.clip(0),
                             np.broadcast_to(sample, (taus.size, sample.size))], axis=1)
        expected = np.sign(xs) * ((np.abs(xs) * (taus - 1) + h) // taus)
        got = fixed_decay(xs.astype(np.float64), taus.astype(np.float64), out=np.empty(xs.shape))
        np.testing.assert_array_equal(got, expected)
        assert not np.signbit(got[got == 0]).any()

    def test_decay_exact_over_the_whole_state_range(self):
        # every integer |x| <= 2**23, both signs, at taus from 1 to past
        # 2**24: the rounded multiply equals the int64 floor division
        # (|x| (tau - 1) + half) // tau with the sign of x, bit for bit
        # (int64 views, so a -0.0 for +0 fails too)
        chunk = 1 << 20
        x, got, want = np.empty(chunk), np.empty(chunk), np.empty(chunk)
        for start in range(0, STATE_LIMIT + 1, chunk):
            a = np.arange(start, min(start + chunk, STATE_LIMIT + 1))
            n = a.size
            for tau in (1, 2, 3, 98, 100, 4096, (1 << 24) + 3):
                w = want[:n]
                w[...] = (a * (tau - 1) + tau // 2) // tau
                for sign in (1.0, -1.0):
                    g = fixed_decay(np.multiply(a, sign, out=x[:n]), float(tau), out=got[:n])
                    if sign < 0:
                        np.add(np.negative(w, out=w), 0.0, out=w)
                    assert np.array_equal(g.view(np.int64), w.view(np.int64)), (tau, start)

    def test_rounded_multiply_needs_no_zero_pass_from_tau_2(self):
        # for tau >= 2, k > 1/2, so rint(x k) is 0 only for x = +0: over
        # every integer |x| <= 2**23 it holds no -0.0 and equals decay_by bit
        # for bit (int64 views), so a run without a tau of 1 drops the + 0.0
        chunk = 1 << 20
        x, plain, want = np.empty(chunk), np.empty(chunk), np.empty(chunk)
        for start in range(-STATE_LIMIT, STATE_LIMIT + 1, chunk):
            n = min(chunk, STATE_LIMIT + 1 - start)
            xs, p, w = x[:n], plain[:n], want[:n]
            xs[...] = np.arange(start, start + n)
            for tau in (2, 3, 4, 196, TAU_LIMIT):
                k = decay_factor(float(tau))
                np.rint(np.multiply(xs, k, out=p), out=p)
                assert not np.signbit(p[p == 0]).any(), (tau, start)
                assert np.array_equal(p.view(np.int64), decay_by(xs, k, out=w).view(np.int64)), (
                    tau, start)

    def test_tau_one_decays_a_negative_state_to_minus_zero_without_the_zero_pass(self):
        # k = 0 at tau 1, and rint(x * 0) of a negative x is -0.0: a run with
        # a tau of 1 keeps decay_by's + 0.0
        xs, k = np.array([-STATE_LIMIT, -1.0, 0.0, 1.0]), decay_factor(1.0)
        assert np.signbit(np.rint(xs * k)).tolist() == [True, True, False, False]
        assert not np.signbit(decay_by(xs, k)).any()

    @pytest.mark.parametrize("tau", [0.0, 0.5, 2.5, TAU_LIMIT + 1.0, math.inf, math.nan])
    def test_fixed_point_tau_outside_the_proven_range_rejected(self, tau):
        with pytest.raises(ConfigError, match="tau"):
            fixed_decay(np.array([5.0, -5.0]), np.array([3.0, tau]))
        # reference mode takes any positive tau
        if tau > 0:
            decay_array(np.array([5.0, -5.0]), np.array([3.0, tau]))

    def test_largest_proven_tau(self):
        # at TAU_LIMIT a magnitude below tau / 2 keeps its value
        xs = np.array([STATE_LIMIT, -1.0, 0.0])
        assert fixed_decay(xs, float(TAU_LIMIT)).tolist() == [STATE_LIMIT, -1, 0]

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

    def test_round_half_away_keeps_values_beyond_int64(self):
        out = round_half_away(np.array([1e300, -1e300, 2.0 ** 63 + 2.0 ** 11]))
        assert out.dtype == np.float64
        assert out.tolist() == [1e300, -1e300, 2.0 ** 63 + 2.0 ** 11]
