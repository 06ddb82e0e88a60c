"""Exception classes shared across the toolkit, and the .npz archives of
model and network files, which this module both writes and reads.

The CLI maps these onto distinct exit codes (config 2, data 3, numeric 4).
"""

import json
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


def npz_meta(data, path, *formats) -> dict:
    """The JSON object that the archive data, open under npz_file(path),
    holds as "meta", if its "format" is one of formats; else DataError."""
    meta = json.loads(bytes(data["meta"]).decode()) if "meta" in data else None
    if not (isinstance(meta, dict) and meta.get("format") in formats):
        raise DataError(f"{path}: not a {' or '.join(formats)} file (its metadata is "
                        "missing, not a JSON object or of another format)")
    return meta
