"""Shared data containers: feature sequences and spike rasters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, reading


@dataclass
class FeatureSequence:
    """Time-major matrix of real-valued features.

    data has shape [n_frames, n_features]; frame_period is the duration of
    one frame in seconds (the coarse algorithmic timestep of the non-spiking
    network).
    """

    data: np.ndarray
    frame_period: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise DataError(f"feature data must be 2-D [frames, features], got {self.data.shape}")
        if not self.frame_period > 0:
            raise DataError("frame_period must be positive")


@dataclass
class SpikeRaster:
    """Sparse record of (timestep, neuron) spike events.

    times/units are parallel int arrays sorted by (time, unit); duration is
    the total number of simulator steps, population the number of neurons,
    dt the simulator step in seconds.
    """

    times: np.ndarray
    units: np.ndarray
    duration: int
    population: int
    dt: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.int64)
        self.units = np.asarray(self.units, dtype=np.int64)
        if self.times.shape != self.units.shape:
            raise DataError("times and units must have equal length")
        if not (self.duration >= 0 and self.population >= 0 and self.dt > 0):
            raise DataError(f"a raster needs duration and population >= 0 and dt > 0, not "
                            f"{self.duration}, {self.population} and {self.dt}")
        if self.times.size:
            if self.times.min() < 0 or self.times.max() >= self.duration:
                raise DataError("spike timestep outside declared duration")
            if self.units.min() < 0 or self.units.max() >= self.population:
                raise DataError("spike unit id outside population")
        order = np.lexsort((self.units, self.times))
        self.times = self.times[order]
        self.units = self.units[order]

    def dense(self) -> np.ndarray:
        """Dense boolean [duration, population] matrix (small rasters only)."""
        out = np.zeros((self.duration, self.population), dtype=bool)
        out[self.times, self.units] = True
        return out


def save_raster(raster: SpikeRaster, path) -> None:
    """Write the text raster format: a header line then `timestep,neuron_id` lines."""
    with open(path, "w") as fh:
        fh.write(f"# duration={raster.duration} population={raster.population} dt={raster.dt!r}\n")
        for t, u in zip(raster.times, raster.units):
            fh.write(f"{t},{u}\n")


def load_raster(path) -> SpikeRaster:
    with reading(path), open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise DataError(f"{path}: missing raster header line")
        try:
            fields = dict(item.split("=", 1) for item in header[1:].split())
            duration = int(fields["duration"])
            population = int(fields["population"])
            dt = float(fields["dt"])
        except (KeyError, ValueError) as exc:
            raise DataError(f"{path}:1: bad raster header: {header}") from exc
        times, units = [], []
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                t_str, u_str = line.split(",")
                times.append(int(t_str))
                units.append(int(u_str))
            except ValueError as exc:
                raise DataError(f"{path}:{ln}: expected 'timestep,neuron_id', "
                                f"got {line!r}") from exc
    return SpikeRaster(np.array(times, dtype=np.int64), np.array(units, dtype=np.int64),
                       duration, population, dt)
