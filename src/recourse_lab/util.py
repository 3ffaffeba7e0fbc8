"""Small shared helpers: seed derivation, number checks, stable sigmoid, row norms, atomic file writes."""

import functools
import hashlib
import json
import numbers
import os
import sys

import numpy as np


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of ints/strings.

    Hash-based so that derived streams (per point, per purpose) do not collide
    the way `seed + i` arithmetic can across nested derivations.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def is_number(value, kind=numbers.Real) -> bool:
    """A real (or, with kind=int, an integer) in the float range; no bool, NaN or infinity."""
    return isinstance(value, kind) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))  # in [0, 1], so neither branch can overflow
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def row_norms(diff: np.ndarray) -> np.ndarray:
    """L2 norm of each row, bit for bit np.linalg.norm(diff, axis=1).

    That sums the squared columns with add.reduce, which below 8 columns adds
    them in order, (a0 + a1) + a2 ...; a running sum over the columns is that
    order at a tenth of the cost on short rows. From 8 columns on add.reduce
    pairs them, so it does the sum itself.
    """
    sq = diff * diff
    if 0 < sq.shape[1] < 8:
        return np.sqrt(functools.reduce(np.add, sq.T))
    return np.sqrt(np.add.reduce(sq, axis=1))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def atomic_write_text(path, text) -> None:
    """Write-then-rename so readers never observe a partial file. `text` is a
    string or an iterable of strings, written in order; if the iterable
    raises, neither the file nor its temporary remains."""
    import tempfile  # only `run` and `sweep` write files

    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
