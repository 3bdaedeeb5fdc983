"""Crash-safe file publication shared by every on-disk store.

The kernel-plan cache, the service memo table, checkpoints and
extracted kernels all publish a file the same way; each keeps its own
*failure* policy (benign lost race, swallow, raise) and its own
load-side validation, because the formats differ — except that the two
pickled formats share :func:`load_pickled`.
"""

from __future__ import annotations

import os
import pickle
import tempfile


def atomic_write(path, data: bytes) -> None:
    """Publish *data* at *path* so readers see the old file or the new
    one, never a truncated hybrid.

    The bytes are staged in the target's directory (created if absent)
    under a name that embeds this process's pid on top of ``mkstemp``
    randomness, so concurrent writers never collide on the staging
    file; ``os.replace`` then renames it into place.  On any failure
    the staging file is removed and the error re-raised with the old
    target untouched.  There is deliberately no ``fsync``: every caller
    stores something that can be recomputed or re-taken.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        dir=directory, prefix=f".{os.getpid()}-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def load_pickled(path, expected: type, error: type[Exception], what: str):
    """Read back the *expected* object pickled at *path*; a missing,
    truncated or foreign file raises *error* naming the path (*what*
    is the format's name in those messages)."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise error(f"no {what} at {path}")
    try:
        with open(path, "rb") as handle:
            value = pickle.load(handle)
    except error:
        raise
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError, OSError) as exc:
        # A truncated or partially written file surfaces as one of
        # pickle's many raw decode errors; wrap them all in a typed
        # error naming the offending path.
        raise error(
            f"corrupt or truncated {what} at {path}: "
            f"{type(exc).__name__}: {exc}") from exc
    if not isinstance(value, expected):
        raise error(f"{path} does not hold a pickled {expected.__name__}")
    return value
