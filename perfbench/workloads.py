"""The three benchmark workloads: kws_e2e, sim_kernel and conversion_fidelity.

Each workload is a closed loop driven from one process: the next operation
starts when the previous one has finished. Every workload reports the same
end-to-end metrics, each measured on that workload's own operations; see
README.md for what each metric means per workload and why each workload
exists. Inputs come from the seed alone; the program receives only the
generated inputs.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import resource
import signal
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sdrnn import audio_frontend, cli, convert, lprnn, numerics, sigma_delta, snn_sim
from sdrnn.benchmarks import make_random_model, make_smooth_input
from sdrnn.containers import FeatureSequence
from sdrnn.synthetic import generate_dataset

#: Criterion-4 timing: 10 ms frames, oversample 100.
TIMING_100 = convert.TimingConfig(t_ann=0.01, t_snn=0.0001)
#: Models come from criterion 4's generator, default_rng(44); the run's seed
#: draws the inputs. Tracking error, spike counts and agreement are
#: properties of the random model and differ by up to 4x between models, so
#: a model drawn per seed would make them spread far beyond any bound.
MODEL_SEED = 44
#: sim_kernel compiles at this f instead of searching it. The search picks
#: f ~ 4.5e6 for these random models, where the reference peak state is
#: about 0.94 f; at 2**21 the fixed-point peak stays near a quarter of the
#: 24-bit bound, so fixed mode never saturates.
SIM_F = float(2 ** 21)
FRAMES = 30
BATCH = 64
#: conversion_fidelity converts criterion 4's known worst case: model 6
#: tracks its output layer with relative MSE 1.2e-2, above the 1e-2 bound.
#: One f search takes ~15 s here, so a run has time for one model.
FIDELITY_MODEL = 6
INPUTS_PER_MODEL = 3
#: kws_e2e trains on criterion 7's clips. Trained from seed 0 for 40
#: epochs, the net learns only 3 of the 4 classes (test accuracy 0.75) on
#: the clips of dataset seeds 0, 1, 2, 8 and 11, so a training set drawn
#: from the run's seed would fail criterion 7's bound in about half the runs.
TRAIN_DATA_SEED = 7
#: Test clips come from seed + 1000, which never equals 7 for a
#: non-negative seed, so they never repeat a training clip.
TEST_SEED_OFFSET = 1000
#: Simulator per-step times come from rounds of short runs of about this
#: many steps (10 frames at oversample 100, 20 at oversample 50). One core's
#: speed drifts over seconds on a shared host, so many short runs spread
#: over the run give a steadier median than a few long ones.
PROBE_STEPS = 1000
#: Every workload probes the simulator for the run's --seconds after its
#: fixed operations, and for at least PROBE_MIN_ROUNDS rounds.
PROBE_MIN_ROUNDS = 3
#: A codec round trip of a 30-frame input takes ~60 ms and its cost grows
#: with the input's spike count, so each round times several inputs together.
CODEC_PER_ROUND = 4


# ---------------------------------------------------------------------------
# Timing and bookkeeping shared by the workloads
# ---------------------------------------------------------------------------

class SpeedProbe:
    """Samples the speed of the core running the workload, so that times can
    be scaled to a nominal machine.

    The cores of a shared host switch between a fast and a slow state: one
    fixed simulation took 1.65x longer in the slow state, and the state
    changed every few tens of seconds, which made identical runs spread by
    up to 50%. While the probe is active, an interval timer's signal handler
    runs a fixed kernel every PERIOD_S on the main thread, the thread doing
    the work, and records the kernel's CPU time. The kernel is half Python
    arithmetic and half small-array numpy calls: between the two states the
    first slowed less than the simulator and the second more. Over ten runs
    per workload the scaled times spread by 3-11% (interquartile range over
    median) where wall times spread by 8-22%. An operation's CPU time is
    scaled by NOMINAL_LOOP_S over the mean kernel time (trimmed by a tenth at
    each end) from WINDOW_S before it to WINDOW_S after it. Interval timers
    are not inherited across fork, so the feature workers are never
    interrupted.
    """

    PERIOD_S = 0.02
    WINDOW_S = 0.5
    LOOP_N = 2500
    ARRAY_N = 20
    NOMINAL_LOOP_S = 0.0004

    def __init__(self):
        self.at: list[float] = []
        self.loop: list[float] = []
        self.spent = 0.0          # CPU seconds spent in the kernel so far
        rng = np.random.default_rng(0)
        self._w = rng.normal(0.0, 0.1, size=(32, 32))
        self._v = rng.normal(size=32)

    def _sample(self, signum, frame):
        c0 = time.thread_time()
        acc = 0
        for k in range(self.LOOP_N):
            acc += k * k
        v = self._v
        for _ in range(self.ARRAY_N):
            v = np.clip(v * 0.5 + self._w @ v, -1.0, 1.0)
        dt = time.thread_time() - c0
        self.spent += dt
        self.at.append(time.perf_counter())
        self.loop.append(dt)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, t0: float, t1: float) -> float:
        """Nominal over measured speed around the host interval [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + self.WINDOW_S)
        window = sorted(self.loop[lo:hi])
        cut = len(window) // 10
        window = window[cut:len(window) - cut]
        return self.NOMINAL_LOOP_S / statistics.fmean(window) if window else math.nan

    def loop_ms(self) -> float:
        """Median kernel time so far, in ms."""
        return 1e3 * statistics.median(self.loop) if self.loop else math.nan


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and by its children that have
    ended (the feature pool's workers)."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


@dataclass
class Op:
    """One operation: its result, its CPU seconds without the speed probe's
    own loops, its host interval, and whether it raised or failed a check."""

    name: str
    probe: SpeedProbe
    result: object = None
    cpu: float = math.nan
    t0: float = math.nan
    t1: float = math.nan
    ok: bool = True

    def time(self, fn, *args, **kwargs) -> "Op":
        """Run fn(*args, **kwargs) and keep its result and times."""
        spent, c0, self.t0 = self.probe.spent, cpu_seconds(), time.perf_counter()
        self.result = fn(*args, **kwargs)
        self.t1 = time.perf_counter()
        self.cpu = cpu_seconds() - c0 - (self.probe.spent - spent)
        return self

    @property
    def seconds(self) -> float:
        """Nominal CPU seconds (see SpeedProbe); NaN if the operation raised."""
        if math.isnan(self.cpu):
            return math.nan
        return self.cpu * self.probe.scale(self.t0, self.t1)

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


@dataclass
class Ledger:
    """Operations attempted and failed in one run. An exception or a failed
    check fails its operation (once) and does not stop the run."""

    probe: SpeedProbe
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def run(self, name: str, fn, *args, **kwargs) -> Op:
        op = Op(name, self.probe)
        self.attempted += 1
        try:
            op.time(fn, *args, **kwargs)
        except Exception:
            op.ok = False
            self.failed += 1
            self.problems.append(f"{name} raised:\n{traceback.format_exc(limit=4)}")
        return op

    def check(self, op: Op, ok: bool, detail: str) -> None:
        if ok:
            return
        self.problems.append(f"{op.name}: check failed: {detail}")
        if op.ok:
            op.ok = False
            self.failed += 1


def median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def total_s(ops, clock: str = "seconds") -> float:
    """Summed CPU (clock "seconds") or wall time of ops; NaN if one failed."""
    return sum(getattr(op, clock) for op in ops) if all(op.ok for op in ops) else math.nan


def us_per_step(op: Op, steps: int, clock: str = "seconds") -> float:
    return getattr(op, clock) / steps * 1e6


class Digest:
    """SHA-256 over simulated statistics; equal digests mean bit-identical
    spike counts, frame_s traces and f."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            arr = np.ascontiguousarray(item)
            self._h.update(f"{arr.dtype}{arr.shape}".encode())
            self._h.update(arr.tobytes())

    def add_result(self, op: Op) -> None:
        """Spike counts and frame_s of a SimulationTrace or BatchResult."""
        if not op.ok:
            self.add(np.array([-1]))
            return
        for counts, frames in zip(op.result.spike_counts, op.result.frame_s):
            self.add(counts, frames)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def fanout(net) -> list[np.ndarray]:
    """Synapses leaving each neuron, per layer: nonzero weights onto the next
    layer plus nonzero recurrent weights."""
    out = []
    for li, layer in enumerate(net.layers):
        fan = np.zeros(layer.size, dtype=np.int64)
        if li + 1 < len(net.layers) and net.layers[li + 1].w_in is not None:
            fan += np.count_nonzero(net.layers[li + 1].w_in, axis=0)
        if layer.w_rec is not None:
            fan += np.count_nonzero(layer.w_rec, axis=0)
        out.append(fan)
    return out


def synops_per_sample(net, batch_result) -> float:
    """Mean synaptic operations (spikes x fan-out) per sample of a batch."""
    total = sum(float((counts @ fan).sum()) for counts, fan
                in zip(batch_result.spike_counts, fanout(net)))
    return total / batch_result.spike_counts[0].shape[0]


def batch_tracking(model, x: np.ndarray, result, f: float):
    """Per-sample, per-layer relative MSE of a batch's frame_s against the
    source network, plus the ANN logits. Same formula as `evaluate`."""
    logits, cache = lprnn.forward_batch(model, x, keep=True)
    rel = np.zeros((x.shape[0], len(cache["ys"])))
    for li, ys in enumerate(cache["ys"]):
        ann = np.swapaxes(ys, 0, 1)                # [B, T, n]
        snn = result.frame_s[li] / f
        num = ((ann - snn) ** 2).sum(axis=(1, 2))
        den = (ann ** 2).sum(axis=(1, 2))
        rel[:, li] = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return rel, logits


def same_as_row(single, batch, row: int, net) -> str | None:
    """None when a single-sample trace equals row `row` of a batch result bit
    for bit (spike counts, frame_s and readout); else what differs."""
    for li, (c1, cb) in enumerate(zip(single.spike_counts, batch.spike_counts)):
        if not np.array_equal(c1, cb[row]):
            return f"layer {li} spike counts differ"
    for li, (f1, fb) in enumerate(zip(single.frame_s, batch.frame_s)):
        if not np.array_equal(f1, fb[row]):
            return f"layer {li} frame_s differs"
    if not np.array_equal(snn_sim.readout(single, net), batch.scores[row]):
        return "readout differs"
    return None


def check_row(ledger: Ledger, single: Op, batch: Op, row: int, net) -> None:
    if single.ok and batch.ok:
        diff = same_as_row(single.result, batch.result, row, net)
        ledger.check(single, diff is None, f"differs from batch row {row}: {diff}")


def check_no_saturation(ledger: Ledger, op: Op) -> None:
    if op.ok:
        sat = op.result.saturation_total
        ledger.check(op, sat == 0, f"{sat} saturation events")


def codec_round_trip(data: np.ndarray, frame_period: float, oversample: int):
    """encode_analog -> reconstruct on one feature sequence."""
    params = sigma_delta.NeuronParams()
    raster = sigma_delta.encode_analog(FeatureSequence(data, frame_period), params,
                                       oversample)
    return raster, sigma_delta.reconstruct(raster, params).data


def check_codec(ledger: Ledger, op: Op, data: np.ndarray, oversample: int) -> None:
    """The decoded s must track the encoder's input current i within w_fb
    once 5 tau_s steps have passed (the criterion-1 bound); i is replayed
    here from the input."""
    if not op.ok:
        return
    raster, decoded = op.result
    params = sigma_delta.NeuronParams()
    drive = data / (params.tau_u * params.tau_i)
    u = np.zeros(data.shape[1])
    i = np.zeros(data.shape[1])
    worst = 0.0
    ku, ki = 1.0 - 1.0 / params.tau_u, 1.0 - 1.0 / params.tau_i
    for t in range(raster.duration):
        u = u * ku + drive[t // oversample]
        i = i * ki + u
        if t >= 5 * params.tau_s:
            worst = max(worst, float(np.abs(decoded[t] - i).max()))
    ledger.check(op, worst <= params.w_fb * (1.0 + 1e-9),
                 f"|s - i| = {worst:.4g} exceeds w_fb = {params.w_fb}")


def search_facts(model, timing, f: float, trace) -> dict:
    """f, f over the weight-range cap, and peak state over the bound at f
    (from the search trace of (f, peak) pairs)."""
    cfg = convert.CompileConfig()
    bound = numerics.STATE_LIMIT * cfg.safety_margin
    cap = convert._weight_cap(model, timing, cfg)
    peak = dict(trace).get(f, math.nan)
    return {"f": f, "f_over_cap": f / cap, "peak_over_bound": peak / bound}


def kernel_probe(ledger: Ledger, net, x: np.ndarray, frame_period: float,
                 deadline: float):
    """Rounds of simulator runs on x cut to PROBE_STEPS steps, until the
    deadline and at least PROBE_MIN_ROUNDS. Round r runs the batch in both
    modes, sample r alone in both modes (rasters recorded), codec round trips
    of the full-length samples r to r + CODEC_PER_ROUND - 1 and
    COMPILES_PER_OP compiles of the network's source model at its f. Each
    single-sample run must equal its row of the batch bit for bit, fixed mode
    must not saturate, and the batch must give the same result every round.
    Returns per-metric medians over rounds in nominal and in wall seconds
    (round_s is the round time, compile_s one compile), the first round's
    ops and the round count. Results of later rounds are dropped once
    checked, so memory does not grow with the round count."""
    full_x = x
    x = x[:, :max(1, PROBE_STEPS // net.oversample)]
    steps = x.shape[1] * net.oversample
    codec_steps = CODEC_PER_ROUND * full_x.shape[1] * net.oversample
    rounds, codec_rounds = [], []
    while len(rounds) < PROBE_MIN_ROUNDS or time.perf_counter() < deadline:
        row = len(rounds) % len(x)
        seq = FeatureSequence(x[row], frame_period)
        ops = {}
        for mode in ("reference", "fixed"):
            batch = ops[f"{mode}_b"] = ledger.run(
                f"simulate_batch {mode} B={len(x)}", snn_sim.simulate_batch, net, x, mode=mode)
            single = ops[f"{mode}_1"] = ledger.run(
                f"simulate {mode} B=1 row {row}", snn_sim.simulate, net, seq, mode=mode,
                record_rasters=True)
            check_row(ledger, single, batch, row, net)
            if rounds and batch.ok and rounds[0][f"{mode}_b"].ok:
                ledger.check(batch, all(np.array_equal(a, b) for a, b in zip(
                    batch.result.frame_s, rounds[0][f"{mode}_b"].result.frame_s)),
                    "batch result changed between rounds")
        for op in (ops["fixed_b"], ops["fixed_1"]):
            check_no_saturation(ledger, op)
        codecs = []
        for k in range(CODEC_PER_ROUND):
            data = full_x[(row + k) % len(x)]
            codecs.append(ledger.run("encode_analog+reconstruct", codec_round_trip, data,
                                     frame_period, net.oversample))
            check_codec(ledger, codecs[-1], data, net.oversample)
        ops["compile"] = ledger.run(f"compile_network x{COMPILES_PER_OP}", _compile_many,
                                    net.source_model, net.timing, net.f)
        if rounds:
            for op in [*ops.values(), *codecs]:
                op.result = None
        rounds.append(ops)
        codec_rounds.append(codecs)

    def summary(clock: str) -> dict:
        out = {name: median(us_per_step(r[key], steps, clock) for r in rounds)
               for name, key in (("sim_ref_b1_us_per_step", "reference_1"),
                                 ("sim_fixed_b1_us_per_step", "fixed_1"),
                                 ("sim_ref_b64_us_per_step", "reference_b"),
                                 ("sim_fixed_b64_us_per_step", "fixed_b"))}
        out["codec_us_per_step"] = median(total_s(codecs, clock) / codec_steps * 1e6
                                          for codecs in codec_rounds)
        out["compile_s"] = median(getattr(r["compile"], clock) for r in rounds) / COMPILES_PER_OP
        out["round_s"] = median(total_s([*r.values(), *codecs], clock)
                                for r, codecs in zip(rounds, codec_rounds))
        return out

    return summary("seconds"), summary("wall"), rounds[0], len(rounds)


#: A compile at fixed f takes ~0.3 ms, too short to time alone.
COMPILES_PER_OP = 10


def _compile_many(model, timing, f):
    for _ in range(COMPILES_PER_OP):
        net = convert.compile_network(model, timing, f)
    return net


def _probe_deadline(seconds: float | None) -> float:
    """Probe rounds for `seconds` from now; only the minimum rounds when
    seconds is None."""
    return 0.0 if seconds is None else time.perf_counter() + seconds


def run_cli(argv) -> int:
    """Exit code of `sdrnn.cli.main(argv)`, also when argparse exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def full_batch(ledger: Ledger, net, x: np.ndarray) -> dict:
    """One B=len(x) run per mode over the whole inputs; fixed mode must not
    saturate."""
    ops = {mode: ledger.run(f"simulate_batch {mode} B={len(x)} full length",
                            snn_sim.simulate_batch, net, x, mode=mode)
           for mode in ("reference", "fixed")}
    check_no_saturation(ledger, ops["fixed"])
    return ops


@dataclass
class Outcome:
    """What one pass of a workload measured. A pass is `run(ledger,
    seconds)`; with seconds None it does the least work that still runs
    every kind of operation (the traced run's passes)."""

    metrics: dict                       # end-to-end values by name
    facts: dict                         # per-layer values not taken from spans
    digest: str
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# kws_e2e: the criterion-7 CLI pipeline on synthetic clips
# ---------------------------------------------------------------------------

class KwsE2E:
    name = "kws_e2e"
    setup_repeats = 5
    #: --probes 2 (criterion 7 uses 6): the search simulates each probe
    #: serially at every step, so six would triple `convert` (~45 s) and
    #: stretch one run to ~80 s.
    probes = 2

    def __init__(self, seed: int, workdir: Path, workers: int):
        self.seed = seed
        self.workdir = workdir
        self.workers = workers
        self._passes = 0

    def setup(self, k: int):
        """One manifest over criterion 7's 200 training clips (dataset seed 7)
        and 100 test clips drawn from the run's seed."""
        root = self.workdir / f"data{k}"
        rows = []
        for split, n_train, n_test, seed in (("train", 200, 0, TRAIN_DATA_SEED),
                                             ("test", 0, 100, self.seed + TEST_SEED_OFFSET)):
            part = generate_dataset(root / split, n_train=n_train, n_test=n_test, seed=seed)
            rows += [dict(row, path=f"{split}/{row['path']}")
                     for row in audio_frontend.read_manifest(part)]
        self.manifest = root / "manifest.csv"
        audio_frontend.write_manifest(self.manifest, rows)

    def audio_pass(self) -> int:
        """Load and featurize every clip in this process, so a traced run sees
        the audio front end that the feature pool runs in its workers."""
        rows = audio_frontend.read_manifest(self.manifest)
        cfg = audio_frontend.MelConfig()
        for row in rows:
            clip = audio_frontend.load_wav(self.manifest.parent / row["path"])
            audio_frontend.mel_spectrogram(clip, cfg)
        return len(rows)

    def run(self, ledger: Ledger, seconds: float | None) -> Outcome:
        """features -> train -> convert (f search) -> evaluate ann -> evaluate
        fixed through the CLI, then probe rounds on the converted network."""
        self._passes += 1
        out = self.workdir / f"pass{self._passes}"
        feats, model_p, net_p = out / "cache", out / "model.npz", out / "net.npz"
        ann_p, snn_p = out / "ann.json", out / "snn.json"
        commands = {
            "features": ["features", "--manifest", str(self.manifest), "--features",
                         str(feats), "--workers", str(self.workers)],
            "train": ["train", "--features", str(feats), "--out", str(model_p),
                      "--hidden", "24", "24", "24", "--alpha", "0.6", "0.6", "0.6", "0.6",
                      "--epochs", "40", "--lr", "0.01", "--seed", "0"],
            "convert": ["convert", "--model", str(model_p), "--out", str(net_p),
                        "--t-snn", "0.0002", "--features", str(feats),
                        "--probes", str(self.probes)],
            "evaluate_ann": ["evaluate", "--input", str(model_p), "--features", str(feats),
                             "--split", "test", "--out", str(ann_p)],
            "evaluate_fixed": ["evaluate", "--input", str(net_p), "--features", str(feats),
                               "--split", "test", "--mode", "fixed", "--out", str(snn_p)],
        }
        ops = {}
        for name, argv in commands.items():
            op = ops[name] = ledger.run(f"sdrnn {name}", run_cli, argv)
            ledger.check(op, op.result == 0, f"exit code {op.result}")
        ann, snn = _read_json(ann_p), _read_json(snn_p)
        ann_acc = ann.get("accuracy", math.nan)
        snn_acc = snn.get("accuracy", math.nan)
        ledger.check(ops["evaluate_fixed"], ann_acc >= 0.95,
                     f"ANN test accuracy {ann_acc} < 0.95")
        ledger.check(ops["evaluate_fixed"], abs(ann_acc - snn_acc) <= 0.02,
                     f"fixed SNN accuracy {snn_acc} not within 2 points of ANN {ann_acc}")
        rel_mean = snn.get("tracking_relative_mse_mean", [])
        metrics = {
            "op_s": total_s(ops.values()),
            "convert_s": ops["convert"].seconds,
            "snn_ann_agreement": snn.get("ann_agreement", math.nan),
            "tracking_rel_mse_worst": max(rel_mean, default=math.nan),
        }
        facts = {"tracking_mean": rel_mean,
                 "tracking_max": snn.get("tracking_relative_mse_max", [])}
        info = {f"{name}_s": op.seconds for name, op in ops.items()}
        info.update(ann_accuracy=ann_acc, snn_accuracy=snn_acc, wall={
            "op_s": total_s(ops.values(), "wall"), "convert_s": ops["convert"].wall})
        digest = Digest()
        digest.add(np.array([ann_acc, snn_acc, *facts["tracking_max"]], dtype=float))
        if not ops["convert"].ok:
            return Outcome(metrics, facts, digest.hexdigest(), info)
        net = convert.load_network(net_p)
        x, _, _, t_ann, _ = cli._load_split(feats, "test")
        probe, wall, first, rounds = kernel_probe(ledger, net, x[:BATCH], t_ann,
                                                  _probe_deadline(seconds))
        metrics.update(probe)
        info["wall"].update(wall)
        digest.add(np.array([net.f]))
        digest.add_result(first["reference_b"])
        digest.add_result(first["fixed_b"])
        if first["fixed_b"].ok:
            metrics["synops_per_sample"] = synops_per_sample(net, first["fixed_b"].result)
        trace = [tuple(p) for p in net.notes.get("f_search_trace") or []]
        facts.update(search_facts(net.source_model, net.timing, net.f, trace))
        info.update(f=net.f, search_evals=len(trace), probe_rounds=rounds)
        return Outcome(metrics, facts, digest.hexdigest(), info)


def _read_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


# ---------------------------------------------------------------------------
# sim_kernel: the simulator alone, at a fixed f
# ---------------------------------------------------------------------------

class SimKernel:
    name = "sim_kernel"
    setup_repeats = 40

    def __init__(self, seed: int, workdir: Path, workers: int):
        self.seed = seed

    def setup(self, k: int):
        """The 8->32x3->4 model drawn first from default_rng(44), 64 smooth
        30-frame inputs drawn from the run's seed, and the network compiled
        once at SIM_F."""
        self.model = make_random_model(np.random.default_rng(MODEL_SEED))
        rng = np.random.default_rng(self.seed)
        self.x = np.stack([make_smooth_input(rng, FRAMES, self.model.n_features)
                           for _ in range(BATCH)])
        self.net = convert.compile_network(self.model, TIMING_100, SIM_F)

    def run(self, ledger: Ledger, seconds: float | None) -> Outcome:
        """One full-length B=64 run per mode (digest, synops, agreement and
        tracking error), then probe rounds for `seconds`; a round's compiles
        give convert_s."""
        full = full_batch(ledger, self.net, self.x)
        metrics, wall, _, rounds = kernel_probe(ledger, self.net, self.x, TIMING_100.t_ann,
                                                _probe_deadline(seconds))
        for values in (metrics, wall):
            values["op_s"] = values.pop("round_s")
            values["convert_s"] = values.pop("compile_s")
        digest = Digest()
        digest.add(np.array([SIM_F]))
        digest.add_result(full["reference"])
        digest.add_result(full["fixed"])
        facts = search_facts(self.model, TIMING_100, SIM_F, [])
        if full["reference"].ok:
            bound = numerics.STATE_LIMIT * convert.CompileConfig().safety_margin
            facts["peak_over_bound"] = full["reference"].result.peak_state / bound
        if full["fixed"].ok:
            fx_b = full["fixed"].result
            rel, logits = batch_tracking(self.model, self.x, fx_b, SIM_F)
            metrics["synops_per_sample"] = synops_per_sample(self.net, fx_b)
            metrics["snn_ann_agreement"] = float(
                (fx_b.scores.argmax(axis=1) == logits.argmax(axis=1)).mean())
            metrics["tracking_rel_mse_worst"] = float(rel.mean(axis=0).max())
            facts["tracking_mean"] = rel.mean(axis=0).tolist()
            facts["tracking_max"] = rel.max(axis=0).tolist()
        return Outcome(metrics, facts, digest.hexdigest(),
                       {"probe_rounds": rounds, "wall": wall})


# ---------------------------------------------------------------------------
# conversion_fidelity: the criterion-4 set-up, f search included
# ---------------------------------------------------------------------------

def _convert(model, inputs):
    probes = [FeatureSequence(data, TIMING_100.t_ann) for data in inputs]
    f, trace = convert.select_scale_factor(model, probes, TIMING_100, return_trace=True)
    return convert.compile_network(model, TIMING_100, f), f, trace


def _counts_close(ref, fx) -> bool:
    """Criterion 6: per-neuron fixed spike counts within max(2%, 1 spike)."""
    return all(np.all(np.abs(cr - cf) <= np.maximum(0.02 * cr, 1.0))
               for cr, cf in zip(ref.spike_counts, fx.spike_counts))


class ConversionFidelity:
    name = "conversion_fidelity"
    setup_repeats = 10

    def __init__(self, seed: int, workdir: Path, workers: int):
        self.seed = seed

    def setup(self, k: int):
        """Criterion 4's model FIDELITY_MODEL of default_rng(44) with its
        three inputs, and a B=64 batch: those three inputs followed by 61
        smooth inputs drawn from the run's seed."""
        rng44 = np.random.default_rng(MODEL_SEED)
        for _ in range(FIDELITY_MODEL + 1):
            self.model = make_random_model(rng44)
            self.inputs = [make_smooth_input(rng44, FRAMES, self.model.n_features)
                           for _ in range(INPUTS_PER_MODEL)]
        rng = np.random.default_rng(self.seed)
        self.batch = np.stack(self.inputs + [
            make_smooth_input(rng, FRAMES, self.model.n_features)
            for _ in range(BATCH - INPUTS_PER_MODEL)])

    def run(self, ledger: Ledger, seconds: float | None) -> Outcome:
        """Criteria 4 and 6: search f and compile, simulate each input in
        reference mode against the source network and input 0 in fixed mode.
        Then full-length B=64 runs in both modes, whose rows 0-2 must equal
        the single runs, and probe rounds on the same network."""
        digest = Digest()
        conv = ledger.run("convert", _convert, self.model, self.inputs)
        if not conv.ok:
            return Outcome({}, {}, digest.hexdigest())
        net, f, trace = conv.result
        digest.add(np.array([f]))
        refs, rel = [], []
        for k, data in enumerate(self.inputs):
            seq = FeatureSequence(data, TIMING_100.t_ann)
            sim = ledger.run(f"simulate reference input {k}", snn_sim.simulate, net, seq,
                             mode="reference", record_rasters=False)
            refs.append(sim)
            digest.add_result(sim)
            if sim.ok:
                _, ann = lprnn.forward_sequence(self.model, seq)
                report = snn_sim.compare_activations(ann, sim.result, net)
                rel.append([e["relative_mse"] for e in report["per_layer"]])
        fx = ledger.run("simulate fixed input 0", snn_sim.simulate, net,
                        FeatureSequence(self.inputs[0], TIMING_100.t_ann), mode="fixed",
                        record_rasters=False)
        digest.add_result(fx)
        check_no_saturation(ledger, fx)
        if fx.ok and refs[0].ok:
            ledger.check(fx, _counts_close(refs[0].result, fx.result),
                         "fixed spike counts not within max(2%, 1) of reference")

        full = full_batch(ledger, net, self.batch)
        digest.add_result(full["reference"])
        digest.add_result(full["fixed"])
        for row, single in enumerate(refs):
            check_row(ledger, single, full["reference"], row, net)
        check_row(ledger, fx, full["fixed"], 0, net)
        probe, wall, _, rounds = kernel_probe(ledger, net, self.batch, TIMING_100.t_ann,
                                              _probe_deadline(seconds))

        rel = np.array(rel) if rel else np.full((1, 1), math.nan)
        metrics = dict(probe, op_s=total_s([conv, *refs, fx]), convert_s=conv.seconds,
                       # worst layer, averaged over the model's inputs
                       tracking_rel_mse_worst=float(rel.mean(axis=0).max()))
        wall.update(op_s=total_s([conv, *refs, fx], "wall"), convert_s=conv.wall)
        if full["reference"].ok:
            ref_b = full["reference"].result
            _, logits = batch_tracking(self.model, self.batch, ref_b, f)
            metrics["snn_ann_agreement"] = float(
                (ref_b.scores.argmax(axis=1) == logits.argmax(axis=1)).mean())
        if full["fixed"].ok:
            metrics["synops_per_sample"] = synops_per_sample(net, full["fixed"].result)
        facts = search_facts(self.model, TIMING_100, f, trace)
        facts["tracking_mean"] = rel.mean(axis=0).tolist()
        facts["tracking_max"] = rel.max(axis=0).tolist()
        info = {"f": f, "worst_per_layer": facts["tracking_max"], "probe_rounds": rounds,
                "wall": wall}
        return Outcome(metrics, facts, digest.hexdigest(), info)


WORKLOADS = {cls.name: cls for cls in (KwsE2E, SimKernel, ConversionFidelity)}
