"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It imports `sdrnn` from `src/` of the same
checkout and runs one workload (see README.md). With --trace 0 it reports
every end-to-end metric listed in BENCHMARK.json; with --trace 1 it runs the
workload once untraced and once traced, and reports every per-layer metric.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it give the environment, per-phase detail and a digest of the
simulated statistics (equal digests mean bit-identical spike counts,
frame_s traces and f). Failed checks are explained on standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread per process: with the two feature workers this keeps the
# busy threads at nproc, and single-threaded BLAS times repeat more closely.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_info(np) -> dict:
    """BLAS build and the thread count actually in effect, read from the
    OpenBLAS library numpy loaded (None when it cannot be asked)."""
    import ctypes
    import glob

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def traced_metrics(tracer, counters, outcome, overhead_s, untraced_s, clips) -> dict:
    agg = tracer.aggregate(inside="convert.search")
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "inside": 0}

    def span(name):
        return agg.get(name, zero)

    facts = outcome.facts
    ksteps = max(counters.sample_steps, 1) / 1000
    out = {
        "audio_frontend.load_wav.s": span("audio_frontend.load_wav")["s"],
        "audio_frontend.mel_spectrogram.s": span("audio_frontend.mel_spectrogram")["s"],
        "audio_frontend.clips": clips,
        "convert.search.calls": span("convert.search")["calls"],
        "convert.search.evals": span("convert.probe_peak_state")["calls"],
        "convert.search.sims": (span("snn_sim.simulate")["inside"]
                                + span("snn_sim.simulate_batch")["inside"]),
        "convert.search.s": span("convert.search")["s"],
        "convert.search.self_s": span("convert.search")["self_s"],
        "convert.compile_network.s": span("convert.compile_network")["s"],
        "convert.f_selected": facts.get("f", 0.0),
        "convert.f_over_cap": facts.get("f_over_cap", 0.0),
        "convert.peak_over_bound": facts.get("peak_over_bound", 0.0),
        "snn_sim.sample_steps": counters.sample_steps,
        "snn_sim.saturation_events": counters.saturation,
        "sigma_delta.encode_analog.s": span("sigma_delta.encode_analog")["s"],
        "sigma_delta.reconstruct.s": span("sigma_delta.reconstruct")["s"],
        "trace.spans": len(tracer.names),
        "trace.span_cost_s": len(tracer.names) * tracer.span_cost_s(),
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_s / untraced_s if untraced_s > 0 else 0.0,
    }
    for name in ("lprnn.bptt_grads", "lprnn.forward_batch", "snn_sim.simulate",
                 "snn_sim.simulate_batch", "numerics.sat_add_array", "numerics.decay_array"):
        out[f"{name}.calls"] = span(name)["calls"]
        out[f"{name}.self_s"] = span(name)["self_s"]
    for k in range(4):
        out[f"snn_sim.spikes.l{k}"] = counters.spikes.get(k, 0) / ksteps
        out[f"snn_sim.synops.l{k}"] = counters.synops.get(k, 0) / ksteps
        for stat in ("mean", "max"):
            values = facts.get(f"tracking_{stat}", [])
            out[f"snn_sim.tracking_rel_mse_{stat}.l{k}"] = (
                values[k] if k < len(values) else 0.0)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sdrnn" / "__init__.py").is_file():
        print(f"no sdrnn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import sdrnn

    if not Path(sdrnn.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"sdrnn imported from {sdrnn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ.pop("SDRNN_CACHE_DIR", None)   # keep the feature cache in the run's work dir
    workers = min(2, nproc())
    env = {"nproc": nproc(), "cpu": cpu_model(), "python": platform.python_version(),
           "numpy": np.__version__, "blas": blas_info(np), "feature_workers": workers}
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    out_dir = HERE / ".out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, workers)
    with workloads.SpeedProbe() as probe:
        ledger = workloads.Ledger(probe)
        try:
            setups = [workloads.Op("setup", probe).time(wl.setup, k)
                      for k in range(1 if args.trace else wl.setup_repeats)]
            if not args.trace:
                outcome = wl.run(ledger, args.seconds)
                values = dict(outcome.metrics, peak_rss_mb=peak_rss_mb(),
                              setup_s=statistics.median(op.seconds for op in setups))
                wanted = spec["end_to_end"]
            else:
                # the same least pass untraced, then traced
                untraced = workloads.Op("untraced pass", probe).time(wl.run, ledger, None)
                counters = SimCounters(workloads.fanout)
                run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
                with tracing.Tracer(run_id) as tracer:
                    install(tracer, counters)
                    traced = workloads.Op("traced pass", probe).time(wl.run, ledger, None)
                    clips = wl.audio_pass() if hasattr(wl, "audio_pass") else 0
                tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz")
                outcome = traced.result
                values = traced_metrics(tracer, counters, outcome,
                                        traced.seconds - untraced.seconds,
                                        untraced.seconds, clips)
                wanted = spec["per_layer"]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        outcome.info["probe_loop_ms"] = probe.loop_ms()

    print(f"info {args.workload} " + json.dumps(outcome.info, sort_keys=True, default=str))
    print(f"digest {args.workload} {outcome.digest}", flush=True)
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            ledger.problems.append(f"metric {m['name']} was not measured")
            v = 0.0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    for problem in ledger.problems:
        print(problem, file=sys.stderr)
    result = {"correct": ledger.failed == 0 and not ledger.problems,
              "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


class SimCounters:
    """Sample-steps, spikes, synaptic ops and saturation events of every
    simulate / simulate_batch call made while tracing."""

    def __init__(self, fanout):
        self.fanout = fanout
        self.sample_steps = 0
        self.saturation = 0
        self.spikes: dict[int, int] = {}
        self.synops: dict[int, int] = {}

    def record(self, args, kwargs, result):
        net = args[0] if args else kwargs["net"]
        batch = result.spike_counts[0].reshape(-1, net.layers[0].size).shape[0]
        steps = result.frame_s[0].shape[-2] * net.oversample
        self.sample_steps += batch * steps
        self.saturation += result.saturation_total
        for k, (counts, fan) in enumerate(zip(result.spike_counts, self.fanout(net))):
            per_neuron = counts.reshape(-1, fan.size).sum(axis=0)
            self.spikes[k] = self.spikes.get(k, 0) + int(per_neuron.sum())
            self.synops[k] = self.synops.get(k, 0) + int(per_neuron @ fan)


def install(tracer, counters) -> None:
    """Wrap each traced sdrnn function at every name its callers look up."""
    from sdrnn import audio_frontend, cli, convert, lprnn, numerics, sigma_delta, snn_sim

    sites = [
        ("audio_frontend.load_wav", [(audio_frontend, "load_wav")]),
        ("audio_frontend.mel_spectrogram", [(audio_frontend, "mel_spectrogram")]),
        ("lprnn.bptt_grads", [(lprnn, "bptt_grads")]),
        ("lprnn.forward_batch", [(lprnn, "forward_batch"), (cli, "forward_batch")]),
        ("convert.search", [(convert, "select_scale_factor"), (cli, "select_scale_factor")]),
        ("convert.probe_peak_state", [(convert, "probe_peak_state"),
                                      (cli, "probe_peak_state")]),
        ("convert.compile_network", [(convert, "compile_network"), (cli, "compile_network")]),
        ("snn_sim.simulate", [(snn_sim, "simulate"), (cli, "simulate")]),
        ("snn_sim.simulate_batch", [(snn_sim, "simulate_batch"), (cli, "simulate_batch")]),
        ("numerics.sat_add_array", [(numerics, "sat_add_array"), (snn_sim, "sat_add_array")]),
        ("numerics.decay_array", [(numerics, "decay_array"), (snn_sim, "decay_array")]),
        ("sigma_delta.encode_analog", [(sigma_delta, "encode_analog")]),
        ("sigma_delta.reconstruct", [(sigma_delta, "reconstruct")]),
    ]
    hooked = {"snn_sim.simulate", "snn_sim.simulate_batch"}
    for name, where in sites:
        tracer.install(name, where, counters.record if name in hooked else None)


if __name__ == "__main__":
    sys.exit(main())
