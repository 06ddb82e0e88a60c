"""Golden digests of the simulation engine and its neuron kernel.

Each case hashes every field of a SimulationResult (scores, spike counts,
frame_s, rasters, probes, peak_state and the saturation log), or every
state and clip of a bare sigma_delta_kernel run, and compares the SHA-256
with the digest this engine produced when the table was written. A change
that is meant to leave the arithmetic alone must leave every digest as it
is; one that changes the arithmetic on purpose rewrites the table and says
why in CHANGES.md. The block products are exact integer sums, so the
digests do not depend on their order; the analog encoder's drive is a
float einsum, which another numpy build may sum in another order.
"""

import hashlib

import numpy as np
import pytest

from sdrnn.containers import FeatureSequence
from sdrnn.convert import TimingConfig, compile_network
from sdrnn.numerics import STATE_LIMIT
from sdrnn.sigma_delta import NeuronParams, encode_analog, reconstruct
from sdrnn.snn_sim import sigma_delta_kernel, simulate, simulate_batch

from test_snn_sim import TIMING, three_tap_net, toy_model

#: The simulation modes; each GOLDEN key also names the rounding of the
#: fixed-point decay, "round".
MODES = ["reference", "fixed_point"]


class Hasher:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                arr = np.ascontiguousarray(item)
                self._h.update(f"{arr.dtype}{arr.shape}".encode())
                self._h.update(arr.tobytes())
            else:
                self._h.update(repr(item).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def result_digest(result) -> str:
    h = Hasher()
    h.add(result.mode, result.scores, result.spikes_per_sample, *result.spike_counts,
          *result.frame_s, result.saturation_events, result.saturation_total,
          float(result.peak_state).hex())
    for raster in result.rasters:
        h.add(None if raster is None else (raster.duration, raster.population, raster.dt))
        if raster is not None:
            h.add(raster.times, raster.units)
    for key in sorted(result.probes):
        h.add(key, result.probes[key])
    return h.hexdigest()


def toy_net(seed: int = 42):
    """The toy network of the flat-loop tests: rec_delay 5 on the recurrent
    layer and nonzero weight exponents."""
    rng = np.random.default_rng(seed)
    return compile_network(toy_model(rng), TIMING, f=5e4), rng


def every_probe(net) -> dict:
    return {li: list(range(layer.size)) for li, layer in enumerate(net.layers)}


def single_run(mode):
    net, rng = toy_net()
    feats = FeatureSequence(rng.uniform(0.0, 1.0, size=(12, 2)), TIMING.t_ann)
    return simulate(net, feats, mode=mode, probe=every_probe(net))


def batch_run(mode):
    net, rng = toy_net()
    return simulate_batch(net, rng.uniform(0.0, 1.0, size=(3, 12, 2)), mode=mode)


def three_tap_run(mode):
    # synaptic delays 1, 4 and 5
    net, rng = three_tap_net()
    feats = FeatureSequence(rng.uniform(0.0, 1.0, size=(12, 2)), TIMING.t_ann)
    return simulate(net, feats, mode=mode, probe=every_probe(net))


def tau_one_run(mode):
    # alpha 0.3 at oversample 2 compiles layer 1 to tau_u_fx 1, so a
    # fixed-point run keeps the decay's + 0.0 pass (sigma_delta_kernel)
    timing = TimingConfig(t_ann=0.01, t_snn=0.005)
    rng = np.random.default_rng(48)
    net = compile_network(toy_model(rng, alphas=(0.85, 0.3, 0.8)), timing, f=700.0)
    assert net.layers[1].tau_u_fx == 1
    feats = FeatureSequence(rng.uniform(0.0, 1.0, size=(40, 2)), timing.t_ann)
    return simulate(net, feats, mode=mode, probe=every_probe(net))


def saturating_run(mode):
    # the every_var case of test_fixed_point_states_bounded_and_logged: u,
    # i, imem and s all clip in fixed point
    net, rng = toy_net(seed=6)
    net.layers[1].bias = net.layers[1].bias + STATE_LIMIT // 2
    net.layers[1].w_in = net.layers[1].w_in * 40000
    net.layers[2].bias = net.layers[2].bias + STATE_LIMIT // 4
    net.layers[2].w_fb = -(STATE_LIMIT - 5)
    feats = FeatureSequence(rng.uniform(0.5, 1.0, size=(10, 2)), TIMING.t_ann)
    return simulate(net, feats, mode=mode, probe=every_probe(net))


def kernel_digest(mode, exps=(0, 1, 2, 3, 0, 1), bias=(3.0, -2.0, 0.0, 5.0, 1.0, 0.0),
                  taus=((2, 3, 5, 7, 2, 9), (9, 6, 10, 4, 3, 8))) -> str:
    """A bare kernel run with per-neuron taus (tau_u, tau_s), weight
    exponents 0-3 (or the given ones) and a drive large enough to clip in
    fixed point."""
    rng = np.random.default_rng(77)
    fixed = mode == "fixed_point"
    shape = (2, 6)
    taus = np.array(taus, dtype=np.float64)[:, None, :]
    exps, bias = np.asarray(exps), np.asarray(bias, dtype=np.float64)
    w_fb = np.array([40.0, 25.0, 60.0, 30.0, 20.0, 50.0])
    state, clips, step = sigma_delta_kernel(shape, taus, bias, w_fb, exps, fixed)
    h = Hasher()
    for t in range(200):
        drive = np.round(rng.normal(0.0, 30.0, size=shape))
        if t % 50 == 7:
            drive[0, t % 6] = STATE_LIMIT
        fired = step(drive)
        # the kernel leaves imem as the spike test compared it; hashed with
        # the reset its readers apply, as when the kernel reset it itself
        reported = state.copy()
        reported[3][fired] = 0.0
        h.add(fired, reported)
        for var, count in clips:
            h.add(var, count)
        clips.clear()
    return h.hexdigest()


def encoder_raster():
    """encode_analog's population at the default parameters."""
    rng = np.random.default_rng(78)
    return encode_analog(FeatureSequence(rng.uniform(0.0, 1.0, size=(20, 5)), 0.01),
                         NeuronParams(), oversample=20)


def encoder_digest() -> str:
    raster = encoder_raster()
    h = Hasher()
    h.add(raster.times, raster.units, raster.duration, raster.population, raster.dt)
    return h.hexdigest()


def reconstruct_digest() -> str:
    """reconstruct's traces of the encoder case's raster."""
    decoded = reconstruct(encoder_raster(), NeuronParams())
    h = Hasher()
    h.add(decoded.data, decoded.frame_period)
    return h.hexdigest()


RUNS = {"single": single_run, "batch": batch_run, "saturating": saturating_run,
        "three_tap": three_tap_run, "tau_one": tau_one_run}

GOLDEN = {
    ('single', 'reference', 'round'):
        "cc2570e4dfb86eb4c0363647aaa0a7ebb50fee978c04faef7cc3b9c80b2d086f",
    ('single', 'fixed_point', 'round'):
        "0defada0b6f1b84ce7140a9e8c0a1ba4de812b15e95a5e15a6b652a08d74e5eb",
    ('batch', 'reference', 'round'):
        "b2d0ed64bd2b4e666fb9d2943c1ddec7c30fb672e4fd5068004c4fe34b3dcbd2",
    ('batch', 'fixed_point', 'round'):
        "07031373c82c3d7bd6737d56f276240b7905325875e7d1d31991aa0f87257446",
    ('saturating', 'reference', 'round'):
        "a9828e476d62570a03078b084c050d9b20dd22e1aa067174fc2fa8cd2b7a5d25",
    ('saturating', 'fixed_point', 'round'):
        "9dc876a865e6632944353f3946740b7ad52759959efb55cf8d8540c24b4c265b",
    ('kernel', 'reference', 'round'):
        "57a2ba32b3902b8ee0a6e66e4a8dcc77f91ec3b40f75bfa1c8d6d3e5f1b9f8c0",
    ('kernel', 'fixed_point', 'round'):
        "6ceaab1fa47bc8568767cbaf9699341be7c5345bd806dd1184d6a5b9e1408af4",
    ('encoder',):
        "fd7080e19851183c9d8da97a7982ca3473aa2830064bd81b3bba23467cfed575",
    ('three_tap', 'reference', 'round'):
        "1ffb4ab65f47646a6fc103d8d0129a61e51bf6a95bb4f732164e79830ce1ce87",
    ('three_tap', 'fixed_point', 'round'):
        "23cae098f2dddc2c7430df57d415528afaab7eafd58c3ac74f5e63a34d5ccdd9",
    ('unit_kernel', 'reference', 'round'):
        "474295d92f118d4bd85b35c1e32015ee9b49b0259b874bffd7ecea50d2e19bf9",
    ('unit_kernel', 'fixed_point', 'round'):
        "ea9d63c14c48f1a3d29a3ec5557bf98e95364476ce36e04fe27649ba26d54b64",
    ('reconstruct',):
        "2a39e5256067ec15fa934159b33bbc5fbd61a907ccbe308bd37b60efa5664819",
    ('tau_one', 'reference', 'round'):
        "40d29b09ba4994f33292d2bdd674bccad1cba1119ee4352f2e55ce39bd936da7",
    ('tau_one', 'fixed_point', 'round'):
        "82fb05474026d42517cfe7abe6be1b162c3dd8627312c4c65ae9d72f725c0388",
    ('tau_one_kernel', 'reference', 'round'):
        "e85813c1163ac4154c226d32629557e8905aab1f17440805eb4a5f9da280f62c",
    ('tau_one_kernel', 'fixed_point', 'round'):
        "d017e627c09c1d7543b9bf2ca3f07ad27b90a418771f6692c83a1f0c7540957d",
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", list(RUNS))
def test_engine_result_digest(case, mode):
    assert result_digest(RUNS[case](mode)) == GOLDEN[(case, mode, "round")]


@pytest.mark.parametrize("mode", MODES)
def test_kernel_digest(mode):
    assert kernel_digest(mode) == GOLDEN[("kernel", mode, "round")]


def test_encoder_digest():
    assert encoder_digest() == GOLDEN[("encoder",)]


@pytest.mark.parametrize("mode", MODES)
def test_unit_kernel_digest(mode):
    # every weight exponent and bias 0, as in the analog encoder's
    # population: the kernel drops the scale and the bias add
    assert kernel_digest(mode, exps=0, bias=0.0) == GOLDEN[("unit_kernel", mode, "round")]


@pytest.mark.parametrize("mode", MODES)
def test_tau_one_kernel_digest(mode):
    # a tau of 1 decays a negative state to -0.0 in fixed point, and the
    # drives np.round makes hold -0.0 too, so u keeps a -0.0 unless the
    # decay's + 0.0 pass runs: this digest changes if that pass is dropped
    taus = ((1, 3, 1, 7, 2, 9), (9, 1, 10, 4, 1, 8))
    assert kernel_digest(mode, taus=taus) == GOLDEN[("tau_one_kernel", mode, "round")]


def test_reconstruct_digest():
    assert reconstruct_digest() == GOLDEN[("reconstruct",)]
