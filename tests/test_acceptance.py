"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Criterion 8 (full-dataset reproduction) is explicitly not desk-scale: it
runs only when SDRNN_HD_MANIFEST and SDRNN_HD_MODEL point at a prepared
spoken-digit dataset and trained checkpoint, and is skipped otherwise.
"""

import csv
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from sdrnn.benchmarks import make_random_model, make_smooth_input
from sdrnn.containers import FeatureSequence
from sdrnn.convert import (TimingConfig, alpha_to_tau, compile_network, map_bias,
                           map_weights, rescale_tau, select_scale_factor)
from sdrnn.lprnn import bptt_grads, forward_batch, forward_sequence
from sdrnn.sigma_delta import NeuronParams, NeuronState, neuron_step
from sdrnn.snn_sim import compare_activations, readout, simulate


def _report(criterion, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -----------------------------------------------------------------------
# 1. Sigma-delta tracking fidelity
# -----------------------------------------------------------------------

def test_criterion_1_tracking_fidelity():
    t0 = time.time()
    params = NeuronParams()
    rng = np.random.default_rng(11)
    transient = int(5 * params.tau_s)
    worst = 0.0
    for _run in range(50):
        n_segments = int(rng.integers(5, 9))
        lengths = rng.integers(80, 260, size=n_segments)
        values = rng.uniform(0.1, 1.0, size=n_segments)
        state = NeuronState()
        step_idx = 0
        for seg in range(n_segments):
            current = values[seg] / (params.tau_u * params.tau_i)
            for _ in range(int(lengths[seg])):
                state, _spike = neuron_step(state, 0.0, current, params)
                if step_idx >= transient:
                    worst = max(worst, abs(state.s - state.i))
                step_idx += 1
    elapsed = time.time() - t0
    ok = worst <= params.w_fb and elapsed < 10.0
    _report(1, ok, f"max |s - i| = {worst:.6f} (bound w_fb = {params.w_fb}), "
                   f"50 runs in {elapsed:.1f}s (< 10s)")


# -----------------------------------------------------------------------
# 2. Gradient correctness (BPTT vs central finite differences)
# -----------------------------------------------------------------------

def _fd_grads(model, batch, h=1e-6):
    from sdrnn.lprnn import cross_entropy

    def loss():
        logits, _ = forward_batch(model, batch[0])
        return cross_entropy(logits, batch[1])

    out = []
    for layer in model.layers:
        entry = {}
        for name in ("w_in", "w_rec", "bias"):
            w = getattr(layer, name)
            if w is None:
                entry[name] = None
                continue
            g = np.zeros_like(w)
            flat, gflat = w.ravel(), g.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                lp = loss()
                flat[k] = orig - h
                lm = loss()
                flat[k] = orig
                gflat[k] = (lp - lm) / (2 * h)
            entry[name] = g
        out.append(entry)
    return out


def test_criterion_2_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(22)
    worst = 0.0
    for _trial in range(100):
        n_in = int(rng.integers(2, 5))
        units = int(rng.integers(2, 9))
        n_out = int(rng.integers(2, 5))
        frames = int(rng.integers(3, 11))
        alphas = tuple(rng.uniform(0.2, 0.9, size=3))
        from sdrnn.lprnn import init_model

        model = init_model(n_in, (units, units), n_out, alphas, t_ann=0.01,
                           seed=int(rng.integers(1 << 30)))
        model.quantize = False  # the quantizer's straight-through gradient is
        # a defined contract, not a derivative finite differences can probe
        for layer in model.layers:
            layer.w_in = rng.normal(0, 0.6 / np.sqrt(layer.fan_in), layer.w_in.shape)
            if layer.w_rec is not None:
                layer.w_rec = rng.normal(0, 0.6 / np.sqrt(layer.size), layer.w_rec.shape)
            layer.bias = rng.normal(0, 0.2, layer.bias.shape)
        x = rng.uniform(0, 1, size=(1, frames, n_in))
        labels = rng.integers(0, n_out, size=1)
        analytic, _ = bptt_grads(model, (x, labels))
        numeric = _fd_grads(model, (x, labels))
        for ga, gn in zip(analytic, numeric):
            for name in ("w_in", "w_rec", "bias"):
                if ga[name] is None:
                    continue
                denom = np.maximum(np.maximum(np.abs(ga[name]), np.abs(gn[name])), 1e-6)
                worst = max(worst, float(np.max(np.abs(ga[name] - gn[name]) / denom)))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _report(2, ok, f"max relative gradient error {worst:.2e} (< 1e-4) over 100 "
                   f"models in {elapsed:.0f}s (< 60s)")


# -----------------------------------------------------------------------
# 3. Conversion formula unit suite
# -----------------------------------------------------------------------

def test_criterion_3_conversion_formulas():
    checks = []
    tau = alpha_to_tau(math.exp(-1.0), 1.0)
    checks.append(abs(tau - 1.0) <= 1e-12 * 1.0)
    expected = -0.010 / math.log(0.9)
    checks.append(abs(alpha_to_tau(0.9, 0.010) - expected) <= 1e-12 * expected)
    timing = TimingConfig(t_ann=0.01, t_snn=0.0001)
    checks.append(abs(rescale_tau(2 * 0.01, timing) - 200.0) <= 1e-12 * 200.0)
    checks.append(int(map_weights(np.array([[1.0]]), f=512.0, tau_u=2, tau_i=4,
                                  weight_gain=64)[0, 0]) == 1)
    checks.append(int(map_bias(np.array([2.0]), f=8.0, tau_i=4)[0]) == 4)
    ok = all(checks)
    _report(3, ok, f"{sum(checks)}/5 worked conversion values exact "
                   "(integers bit-exact, reals to 1e-12)")


# -----------------------------------------------------------------------
# 4 + 6. Mapping fidelity and fixed-point soundness (shared networks)
# -----------------------------------------------------------------------

N_MODELS = 20
INPUTS_PER_MODEL = 3
TIMING_100 = TimingConfig(t_ann=0.01, t_snn=0.0001)


@pytest.fixture(scope="module")
def fidelity_runs():
    t0 = time.time()
    rng = np.random.default_rng(44)
    runs = []
    for _m in range(N_MODELS):
        model = make_random_model(rng)
        inputs = [FeatureSequence(make_smooth_input(rng, 30, model.n_features),
                                  TIMING_100.t_ann) for _ in range(INPUTS_PER_MODEL)]
        f = select_scale_factor(model, inputs, TIMING_100)
        net = compile_network(model, TIMING_100, f)
        per_input = []
        for feats in inputs:
            logits, ann_traces = forward_sequence(model, feats)
            trace = simulate(net, feats, record_rasters=False)
            report = compare_activations(ann_traces, trace, net)
            scores = readout(trace, net)
            ordered = np.sort(logits)
            per_input.append({
                "rel_mse": [e["relative_mse"] for e in report["per_layer"]],
                "margin": float(ordered[-1] - ordered[-2]),
                "agree": bool(scores.argmax() == logits.argmax()),
            })
        fx = simulate(net, inputs[0], mode="fixed_point", record_rasters=False)
        ref = simulate(net, inputs[0], mode="reference", record_rasters=False)
        runs.append({"per_input": per_input, "fx": fx, "ref": ref})
    return {"runs": runs, "elapsed": time.time() - t0}


def test_criterion_4_mapping_fidelity(fidelity_runs):
    worst_mse = 0.0
    agree, qualifying = 0, 0
    for run in fidelity_runs["runs"]:
        for entry in run["per_input"]:
            worst_mse = max(worst_mse, max(entry["rel_mse"]))
            if entry["margin"] > 0.1:
                qualifying += 1
                agree += int(entry["agree"])
    agreement = agree / qualifying if qualifying else 1.0
    elapsed = fidelity_runs["elapsed"]
    ok = (worst_mse <= 1e-2 and qualifying >= 5 and agreement >= 0.95
          and elapsed < 300.0)
    _report(4, ok, f"worst per-layer relative MSE {worst_mse:.2e} (<= 1e-2) over "
                   f"{N_MODELS} models x {INPUTS_PER_MODEL} inputs; argmax "
                   f"agreement {agree}/{qualifying} on margins > 0.1 (>= 95%); "
                   f"{elapsed:.0f}s (< 300s)")


def test_criterion_6_fixed_point_soundness(fidelity_runs):
    saturations = 0
    worst_excess = 0.0
    for run in fidelity_runs["runs"]:
        saturations += run["fx"].saturation_total
        for cr, cf in zip(run["ref"].spike_counts, run["fx"].spike_counts):
            diff = np.abs(cr - cf)
            # integer counts: 2% of the reference with a one-spike floor
            tol = np.maximum(0.02 * cr, 1.0)
            worst_excess = max(worst_excess, float(np.max(diff - tol)))
    ok = saturations == 0 and worst_excess <= 0.0
    _report(6, ok, f"saturation events {saturations} (= 0); per-neuron spike "
                   f"counts within max(2%, 1 spike) of reference "
                   f"(worst excess {worst_excess:.1f})")


# -----------------------------------------------------------------------
# 5. Oversample monotonicity
# -----------------------------------------------------------------------

def test_criterion_5_oversample_monotonicity():
    oversamples = [10, 25, 50, 100, 200]
    rng = np.random.default_rng(55)
    violations, pairs = 0, 0
    for _trial in range(20):
        model = make_random_model(rng, n_in=4, hidden=(8, 8), n_out=2,
                                  calib_frames=20)
        feats = FeatureSequence(make_smooth_input(rng, 20, 4), 0.01)
        _, ann_traces = forward_sequence(model, feats)
        errors = []
        for k in oversamples:
            timing = TimingConfig(0.01, 0.01 / k)
            f = select_scale_factor(model, [feats], timing, grid=0.05)
            net = compile_network(model, timing, f)
            trace = simulate(net, feats, record_rasters=False)
            report = compare_activations(ann_traces, trace, net)
            errors.append(max(e["relative_mse"] for e in report["per_layer"]))
        for lo, hi in zip(errors[1:], errors[:-1]):
            pairs += 1
            if lo > hi:
                violations += 1
    ok = violations <= 0.05 * pairs
    _report(5, ok, f"tracking error non-increasing over oversample sweep "
                   f"{oversamples}: {violations}/{pairs} violations (<= 5%)")


# -----------------------------------------------------------------------
# 7. Desk-scale end-to-end task
# -----------------------------------------------------------------------

def test_criterion_7_end_to_end(tmp_path):
    from sdrnn.cli import main
    from sdrnn.synthetic import generate_dataset

    t0 = time.time()
    manifest = generate_dataset(tmp_path / "data", n_train=200, n_test=100, seed=7)
    features = tmp_path / "cache"
    model = tmp_path / "run" / "model.npz"
    net = tmp_path / "run" / "net.npz"
    assert main(["features", "--manifest", str(manifest),
                 "--features", str(features), "--workers", "2"]) == 0
    assert main(["train", "--features", str(features), "--out", str(model),
                 "--hidden", "24", "24", "24",
                 "--alpha", "0.6", "0.6", "0.6", "0.6",
                 "--epochs", "40", "--lr", "0.01", "--seed", "0"]) == 0
    assert main(["convert", "--model", str(model), "--out", str(net),
                 "--t-snn", "0.0002", "--features", str(features),
                 "--probes", "6"]) == 0
    ann_out = tmp_path / "ann.json"
    snn_out = tmp_path / "snn.json"
    assert main(["evaluate", "--input", str(model), "--features", str(features),
                 "--split", "test", "--out", str(ann_out)]) == 0
    assert main(["evaluate", "--input", str(net), "--features", str(features),
                 "--split", "test", "--mode", "fixed", "--out", str(snn_out)]) == 0
    ann_acc = json.loads(ann_out.read_text())["accuracy"]
    snn_acc = json.loads(snn_out.read_text())["accuracy"]
    # the bounds in exact arithmetic, on clip counts: in floats 1.0 - 0.98
    # is 0.020000000000000018, above 0.02
    (ann_right, n), (snn_right, n_snn) = _correct_clips(ann_out), _correct_clips(snn_out)
    assert n == n_snn
    elapsed = time.time() - t0
    ok = 100 * ann_right >= 95 * n and 50 * abs(ann_right - snn_right) <= n and elapsed < 600.0
    _report(7, ok, f"synthetic 4-class task: ANN test accuracy {ann_acc:.3f} "
                   f"(>= 0.95), fixed-point SNN {snn_acc:.3f} (within 2 points); "
                   f"{elapsed:.0f}s (< 600s)")


def _correct_clips(out) -> tuple[int, int]:
    """(correctly classified clips, clips) of an evaluate run, counted from
    its per-sample CSV."""
    with open(str(out) + ".samples.csv") as fh:
        rows = list(csv.DictReader(fh))
    return sum(row["label"] == row["prediction"] for row in rows), len(rows)


# -----------------------------------------------------------------------
# 8. Optional full-dataset smoke test (requires prepared data + checkpoint)
# -----------------------------------------------------------------------

HD_MANIFEST = os.environ.get("SDRNN_HD_MANIFEST")
HD_MODEL = os.environ.get("SDRNN_HD_MODEL")


@pytest.mark.skipif(not (HD_MANIFEST and HD_MODEL),
                    reason="set SDRNN_HD_MANIFEST and SDRNN_HD_MODEL to run "
                           "the spoken-digit smoke test (needs the dataset "
                           "as 16 kHz mono WAVs and a trained checkpoint)")
def test_criterion_8_spoken_digit_smoke(tmp_path):
    from sdrnn.cli import main

    features = tmp_path / "cache"
    net = tmp_path / "net.npz"
    assert main(["features", "--manifest", HD_MANIFEST,
                 "--features", str(features), "--workers", "4"]) == 0
    assert main(["convert", "--model", HD_MODEL, "--out", str(net),
                 "--t-snn", "0.0002", "--features", str(features),
                 "--probes", "8"]) == 0
    from sdrnn.cli import _load_split
    from sdrnn.convert import load_network

    x, labels, _names, t_ann, _ = _load_split(features, "test")
    x = x[:100]
    network = load_network(net)
    model = network.source_model
    logits, _ = forward_batch(model, x)
    agree = 0
    encoder_spikes = []
    for k in range(x.shape[0]):
        trace = simulate(network, FeatureSequence(x[k], t_ann),
                         mode="fixed_point", record_rasters=False)
        agree += int(readout(trace, network).argmax() == logits[k].argmax())
        encoder_spikes.append(int(trace.spike_counts[0].sum()))
    agreement = agree / x.shape[0]
    mean_spikes = float(np.mean(encoder_spikes))
    ok = agreement >= 0.99 and abs(mean_spikes - 5600) <= 0.25 * 5600
    _report(8, ok, f"spoken-digit smoke: agreement {agreement:.3f} (>= 0.99), "
                   f"encoder spikes/sample {mean_spikes:.0f} (5600 +/- 25%)")


# -----------------------------------------------------------------------
# 9. audio frontend checks
# -----------------------------------------------------------------------

def test_criterion_9_audio_frontend():
    from sdrnn.audio_frontend import (AudioClip, MelConfig, filter_center_freqs,
                                      hann_window, mel_spectrogram, stft_magnitude)

    t0 = time.time()
    checks = []
    impulse = np.zeros(256)
    impulse[0] = 1.0
    checks.append(np.allclose(np.fft.rfft(impulse), 1.0, atol=1e-12))
    rng = np.random.default_rng(99)
    for n in (64, 512, 4096):
        x = rng.normal(size=n)
        back = np.fft.irfft(np.fft.rfft(x), n=n)
        checks.append(np.max(np.abs(back - x)) / np.max(np.abs(x)) < 1e-10)
    cfg = MelConfig()
    samples = rng.normal(size=3200)
    mag = stft_magnitude(samples, cfg.n_fft, cfg.hop_length)
    window = hann_window(cfg.n_fft)
    parseval_ok = True
    for fr in range(mag.shape[0]):
        frame = samples[fr * cfg.hop_length:fr * cfg.hop_length + cfg.n_fft] * window
        full = mag[fr, 0] ** 2 + mag[fr, -1] ** 2 + 2 * (mag[fr, 1:-1] ** 2).sum()
        energy = cfg.n_fft * (frame ** 2).sum()
        parseval_ok &= abs(full - energy) / energy < 1e-6
    checks.append(parseval_ok)
    centers = filter_center_freqs(cfg)
    t = np.arange(16000) / cfg.sample_rate
    sine_ok = True
    for k in (0, 13, 27, 39):
        clip = AudioClip(0.5 * np.sin(2 * np.pi * centers[k] * t), cfg.sample_rate)
        sine_ok &= int(mel_spectrogram(clip, cfg).data.mean(axis=0).argmax()) == k
    checks.append(sine_ok)
    elapsed = time.time() - t0
    ok = all(checks) and elapsed < 10.0
    _report(9, ok, f"FFT impulse/round-trip, pre-mel energy conservation "
                   f"(1e-6), sine-to-bin geometry: {sum(checks)}/{len(checks)} "
                   f"in {elapsed:.1f}s (< 10s)")
