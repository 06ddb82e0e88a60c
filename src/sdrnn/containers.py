"""Shared data containers: feature sequences and spike rasters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, _finite_positive


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
        if not _finite_positive(self.frame_period):
            raise DataError(f"frame_period must be a finite positive number, not "
                            f"{self.frame_period!r}")


@dataclass
class SpikeRaster:
    """Sparse record of (timestep, neuron) spike events.

    times/units are parallel int arrays sorted by (time, unit), each event
    once (a neuron spikes at most once per step); duration is the total
    number of simulator steps, population the number of neurons, dt the
    simulator step in seconds.
    """

    times: np.ndarray
    units: np.ndarray
    duration: int
    population: int
    dt: float

    def __post_init__(self):
        self.times, self.units = _integers(self.times, "times"), _integers(self.units, "units")
        self.duration = int(_integers(self.duration, "duration"))
        self.population = int(_integers(self.population, "population"))
        if self.times.shape != self.units.shape:
            raise DataError("times and units must have equal length")
        if not (self.duration >= 0 and self.population >= 0 and _finite_positive(self.dt)):
            raise DataError(f"a raster needs duration and population >= 0 and a finite positive "
                            f"dt, not {self.duration}, {self.population} and {self.dt!r}")
        if self.times.size:
            if self.times.min() < 0 or self.times.max() >= self.duration:
                raise DataError("spike timestep outside declared duration")
            if self.units.min() < 0 or self.units.max() >= self.population:
                raise DataError("spike unit id outside population")
        # sorted by (time, unit) and unique iff time * population + unit rises
        # strictly (an int64 while duration * population <= 2**63); else sort: twins adjoin
        if not (self.duration * self.population <= 2 ** 63 and (
                np.diff(self.times * self.population + self.units) > 0).all()):
            order = np.lexsort((self.units, self.times))
            self.times, self.units = self.times[order], self.units[order]
            if ((self.times[1:] == self.times[:-1]) & (self.units[1:] == self.units[:-1])).any():
                raise DataError("a (timestep, unit) spike event appears more than once")


def _integers(values, name: str) -> np.ndarray:
    """values as int64, uncopied if they are, DataError unless each is an
    integer (of an integer or a float type) within the int64 range."""
    array = np.asarray(values)
    if not (array.dtype.kind in "iu" or (array.dtype.kind == "f" and (
            (array == np.rint(array)) & (np.abs(array) < 2.0 ** 63)).all())):
        raise DataError(f"raster {name} must be integer-valued, not {values!r}")
    return array.astype(np.int64, copy=False)
