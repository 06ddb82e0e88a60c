"""The names that the benchmark's tracer wraps still exist, and the
benchmark's least pass still runs.

perfbench/run.py's install wraps sdrnn functions at every name their
callers look up, and a name that a refactor drops or rebinds surfaces only
as a crashed `perfbench/run.py --trace 1` run. This test loads the
benchmark's run.py, tracing.py and workloads.py by path, installs the
tracer, checks that the search's simulations are seen, and uninstalls it.
The workloads also call the package outside the tracer (NeuronParams,
snn_sim.readout, convert._weight_cap, the keys of compare_activations'
report), so the least pass of each workload runs here too and must fail no
operation and reproduce the digest of its outputs. kws_e2e's pass runs the
CLI pipeline (features, train, convert, evaluate) and takes several seconds.
"""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from sdrnn import cli, convert, snn_sim
from sdrnn.benchmarks import make_random_model, make_smooth_input
from sdrnn.containers import FeatureSequence
from sdrnn.convert import TimingConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: (module, name) sites that the tracer wraps and that the package itself defines
SITES = [(cli, name) for name in ("forward_batch", "select_scale_factor", "probe_peak_state",
                                  "compile_network", "simulate", "simulate_batch")]
SITES += [(snn_sim, "sat_add_array"), (snn_sim, "decay_array")]


@pytest.fixture
def perfbench(monkeypatch):
    """run, tracing and workloads of the benchmark, under module names of
    their own; os.environ as it was afterwards (run.py sets the BLAS thread
    count at import)."""
    environ = os.environ.copy()
    modules = []
    try:
        for name in ("run", "tracing", "workloads"):
            spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                          PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            # dataclasses look their module up in sys.modules
            monkeypatch.setitem(sys.modules, spec.name, module)
            spec.loader.exec_module(module)
            modules.append(module)
        yield modules
    finally:
        os.environ.clear()
        os.environ.update(environ)


def test_traced_names_exist(perfbench):
    run, tracing, workloads = perfbench
    originals = [getattr(module, name) for module, name in SITES]
    rng = np.random.default_rng(3)
    model = make_random_model(rng, n_in=2, hidden=(3,), n_out=2)
    probes = [FeatureSequence(make_smooth_input(rng, 4, 2), model.t_ann)]
    timing = TimingConfig(model.t_ann, model.t_ann / 10)
    counters = run.SimCounters(workloads.fanout)
    with tracing.Tracer("hooks") as tracer:
        run.install(tracer, counters)  # raises for a site that is gone or rebound
        for (module, name), original in zip(SITES, originals):
            assert getattr(module, name).__wrapped__ is original, name
        # probe_peak_state calls simulate_batch through the snn_sim module,
        # so the tracer sees the search's simulations
        convert.probe_peak_state(model, probes, timing, 1e4)
    assert "snn_sim.simulate_batch" in tracer.names
    assert counters.sample_steps == 4 * 10
    for (module, name), original in zip(SITES, originals):
        assert getattr(module, name) is original, name


def test_tracer_sees_the_search_simulations(perfbench):
    # convert.search.evals and convert.search.sims of a --trace run: one
    # probe_peak_state and one simulate_batch per search evaluation
    run, tracing, workloads = perfbench
    rng = np.random.default_rng(44)
    model = make_random_model(rng)
    probes = [FeatureSequence(make_smooth_input(rng, 30, model.n_features), model.t_ann)
              for _ in range(3)]
    timing = TimingConfig(model.t_ann, model.t_ann / 10)
    with tracing.Tracer("search") as tracer:
        run.install(tracer, run.SimCounters(workloads.fanout))
        _, trace = convert.select_scale_factor(model, probes, timing, return_trace=True)
    spans = tracer.aggregate(inside="convert.search")
    assert spans["convert.search"]["calls"] == 1
    assert spans["convert.probe_peak_state"]["calls"] == len(trace) >= 1
    assert spans["snn_sim.simulate_batch"]["inside"] == len(trace)


@pytest.mark.parametrize("workload, digest", [
    pytest.param("sim_kernel",
                 "9113ea0ab7d968642e2fd04efb81d99044067be178523df7145b3d4ea317c256",
                 id="sim_kernel"),
    pytest.param("conversion_fidelity",
                 "c643af9e40aec6e873f058a9591fe204e9b652a19b3bc181a8728a60e302ab68",
                 id="conversion_fidelity"),
    pytest.param("kws_e2e",
                 "186c7792cb0879a3e5b1dc73e1f6e5ed1407a2baacce4123ee713d9083e9c683",
                 id="kws_e2e")])
def test_least_pass_of_a_workload(perfbench, tmp_path, workload, digest):
    # `perfbench/run.py --workload W --seed 7` prints the same digest; a
    # probe that was never started scales no time, which the pass does not need
    _, _, workloads = perfbench
    wl = workloads.WORKLOADS[workload](7, tmp_path, 1)
    wl.setup(0)
    ledger = workloads.Ledger(workloads.SpeedProbe())
    outcome = wl.run(ledger, None)
    assert (ledger.failed, ledger.problems) == (0, [])
    assert outcome.digest == digest
