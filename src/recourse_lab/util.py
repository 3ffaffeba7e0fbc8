"""Small shared helpers: seed derivation, number checks, stable sigmoid, atomic file writes."""

import hashlib
import json
import numbers
import os
import sys
import tempfile

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


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def atomic_write_text(path, text: str) -> None:
    """Write-then-rename so readers never observe a partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
