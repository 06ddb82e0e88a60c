"""Exception classes shared across the toolkit, the checks of a real number
and of a period, and the .npz archives of model, network and feature clip
files, which this module both writes and reads.

The CLI maps these onto distinct exit codes (config 2, data 3, numeric 4).
Only this module knows the archive layout ("meta", whose "layers" lists
objects, layer k's arrays as l{k}_{name}, then extra entries) and its rule:
an archive holding an entry that its writer does not write is a DataError.
"""

import json
import numbers
import sys
import zipfile
from contextlib import ExitStack, contextmanager

import numpy as np


class SdrnnError(Exception):
    """Base class for toolkit errors."""


class ConfigError(SdrnnError):
    """Invalid or inconsistent configuration / arguments."""


class DataError(SdrnnError):
    """Malformed or missing input data (files, manifests, shapes)."""


class NumericError(SdrnnError):
    """Numeric failure: divergence, infeasible scale factor, overflow."""


def _real(value) -> bool:
    """Whether value is a real number and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite_positive(value) -> bool:
    """Whether value is a real number, not a bool, in (0, the largest float]."""
    return _real(value) and 0 < value <= sys.float_info.max


def same_period(period, expected) -> bool:
    """Whether a period in seconds is the expected one, to a relative 1e-6."""
    return abs(period - expected) <= 1e-6 * expected


@contextmanager
def reading(path):
    """Turn the numpy, zip, JSON and missing-entry errors of a file that is
    missing, truncated or not what it claims to be into a DataError: zipfile
    raises NotImplementedError for an unknown compression method or version
    and RuntimeError for an encrypted entry, and a ConfigError here means
    the file holds an invalid configuration."""
    try:
        yield
    except (ValueError, OSError, EOFError, zipfile.BadZipFile, KeyError, NotImplementedError,
            RuntimeError, ConfigError) as exc:
        raise DataError(f"{path}: unreadable or corrupt file "
                        f"({type(exc).__name__}: {exc})") from exc


@contextmanager
def npz_file(path):
    """The arrays of the .npz archive at path, or in an open binary file,
    read under reading(path). The file is opened here and closed however the
    load ends: np.load leaves a file it opened itself open when the archive
    is truncated."""
    with reading(path), ExitStack() as stack:
        fh = path if hasattr(path, "read") else stack.enter_context(open(path, "rb"))
        with np.lib.npyio.NpzFile(fh) as data:
            yield data


def npz_write(path, meta: dict, layers, names, **extra) -> None:
    """Save an archive at path, or into an open binary file: meta as the
    JSON entry "meta", then the arrays names of each layer that are not
    None as l{index}_{name}, then extra."""
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for li, layer in enumerate(layers):
        for name in names:
            if getattr(layer, name) is not None:
                arrays[f"l{li}_{name}"] = getattr(layer, name)
    with ExitStack() as stack:
        fh = path if hasattr(path, "write") else stack.enter_context(open(path, "wb"))
        np.savez(fh, **arrays, **extra)


def exact_keys(mapping: dict, keys, where, what: str) -> None:
    """DataError at where unless mapping holds exactly keys, those its
    writer emits: naming the first key that is no key of what, else the
    first of keys that it lacks."""
    if extra := sorted(set(mapping) - set(keys)):
        raise DataError(f"{where}: {extra[0]!r} is no key of {what}")
    if lacking := sorted(set(keys) - set(mapping)):
        raise DataError(f"{where}: {what} lacks its {lacking[0]!r} key")


def npz_meta(data, path, *formats) -> dict:
    """The JSON object that the archive data, open under npz_file(path),
    holds as "meta", if its "format" is one of formats; else DataError."""
    meta = json.loads(bytes(data["meta"]).decode()) if "meta" in data else None
    if not (isinstance(meta, dict) and meta.get("format") in formats):
        raise DataError(f"{path}: not a {' or '.join(formats)} file (its metadata is "
                        "missing, not a JSON object or of another format)")
    return meta


def npz_entries(data, path, what: str, names, optional=()) -> list:
    """The arrays names of the archive data, open under npz_file(path);
    DataError naming its first entry besides names and optional."""
    if stray := sorted(set(data.files) - {*names, *optional}):
        raise DataError(f"{path}: {stray[0]!r} is no entry of {what}")
    return [data[name] for name in names]


def npz_layers(data, meta: dict, path, what: str, keys, names, extra=()):
    """Each layer of the archive data, open under npz_file(path) with the
    metadata meta, as (its metadata, {name: its array of names or None}),
    and the arrays extra. DataError unless meta["layers"] is a list of JSON
    objects of exactly keys and the archive holds only "meta", extra and
    these layers' arrays; what names the file kind ("model")."""
    if not isinstance(layers := meta["layers"], list):
        raise DataError(f"{path}: layers must be a list of JSON objects, not {layers!r}")
    for li, lmeta in enumerate(layers):
        if not isinstance(lmeta, dict):
            raise DataError(f"{path}: layer {li} must be a JSON object, not {lmeta!r}")
        exact_keys(lmeta, keys, f"{path}: layer {li}", f"a {what} layer")
    rows = [{name: f"l{li}_{name}" for name in names} for li in range(len(layers))]
    arrays = npz_entries(data, path, f"a {what} file", extra,
                         ["meta", *(entry for row in rows for entry in row.values())])
    return [(lmeta, {name: data.get(entry) for name, entry in row.items()})
            for lmeta, row in zip(layers, rows)], arrays
