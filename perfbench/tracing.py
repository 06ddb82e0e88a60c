"""In-memory span tracer for the benchmark's traced runs.

A span is one call of a wrapped sdrnn function: its name, start, end, the
span that was open when it began (its parent), and the run's id. Spans stay
in memory while the workload runs and are written out once at the end.

A function is wrapped at every module attribute that a caller looks it up
by. `sdrnn.cli` imports `simulate` by name, so both `sdrnn.cli.simulate` and
`sdrnn.snn_sim.simulate` are replaced, and both lead to one wrapper and one
span name. Tracing is single-threaded: the feature pool's worker processes
are not traced (the audio front end is timed in-process instead).
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name: str, on_return):
        names, starts, ends, parents, open_ = (self.names, self.starts, self.ends,
                                               self.parents, self._open)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                open_.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, name: str, sites: list[tuple], on_return=None) -> None:
        """Replace the function found at each (module, attribute) site with
        one wrapper recording spans called `name`. Every site must hold the
        same function."""
        module, attr = sites[0]
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, on_return)
        for module, attr in sites:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not the function "
                                   f"at {sites[0][0].__name__}.{sites[0][1]}")
            self._patches.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def aggregate(self, inside: str | None = None) -> dict:
        """Per span name: calls, total seconds and self seconds (the span's
        duration minus that of its child spans). Also, per name, the number
        of calls made while a span called `inside` was open."""
        n = len(self.names)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        within = [False] * n
        stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "inside": 0})
        for k, name in enumerate(self.names):
            parent = self.parents[k]
            enclosed = parent >= 0 and (within[parent] or self.names[parent] == inside)
            within[k] = enclosed
            entry = stats[name]
            entry["calls"] += 1
            entry["s"] += float(dur[k])
            entry["self_s"] += float(dur[k] - child[k])
            entry["inside"] += int(enclosed)
        return dict(stats)

    def span_cost_s(self, calls: int = 20000) -> float:
        """Host seconds that recording one span adds to a call: a wrapped
        no-op against the bare no-op, in a scratch tracer."""
        def noop():
            return None

        wrapped = Tracer("calibration")._wrap(noop, "noop", None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)

    def write(self, path) -> None:
        """Write every span as one CSV line: run id, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("run_id,name,start_s,end_s,parent\n")
            t0 = self.starts[0] if self.starts else 0.0
            for name, start, end, parent in zip(self.names, self.starts, self.ends,
                                                self.parents):
                fh.write(f"{self.run_id},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
