"""Exception classes shared across the toolkit.

The CLI maps these onto distinct exit codes (config 2, data 3, numeric 4).
"""

import zipfile
from contextlib import contextmanager


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
    missing, truncated or not what it claims to be into a DataError."""
    try:
        yield
    except (ValueError, OSError, EOFError, zipfile.BadZipFile, KeyError) as exc:
        raise DataError(f"{path}: unreadable or corrupt file "
                        f"({type(exc).__name__}: {exc})") from exc
