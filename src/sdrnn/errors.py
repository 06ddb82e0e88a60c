"""Exception classes shared across the toolkit.

The CLI maps these onto distinct exit codes (config 2, data 3, numeric 4).
"""

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
