"""Small shared helpers: number and key checks, sphere sampling, seeds, JSON writing."""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from . import _kernels

# values per format_floats call in dump_json
FORMAT_CHUNK = 65536

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixing function (64-bit avalanche hash)."""
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, index: int) -> int:
    """Per-run seed from a master seed: master XOR splitmix64(index).

    The rule is documented so runs can be reproduced individually without
    replaying a whole sweep.
    """
    return (int(master) & _MASK64) ^ splitmix64(int(index))


def check_number(key: str, value, integer: bool) -> None:
    """Raise ValueError naming key unless value is an integer (integer=True)
    or a real number; a bool or a str is neither."""
    if isinstance(value, bool) or not isinstance(
        value, numbers.Integral if integer else numbers.Real
    ):
        kind = "an integer" if integer else "a real number"
        raise ValueError(f"{key} must be {kind}, got {value!r}")


def check_keys(name: str, block: dict, allowed) -> None:
    """Raise ValueError naming the first key of block that is not allowed."""
    for key in block:
        if key not in allowed:
            raise ValueError(f"{name}.{key} is not a key of {name}, which takes {sorted(allowed)}")


def uniform_sphere(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Draw n points uniformly from the unit sphere in R^d, shape (n, d).

    Normalized Gaussian vectors; rows that come out with negligible norm are
    redrawn so every returned row has unit norm to machine precision.
    """
    pts = rng.standard_normal((n, d))
    norms = np.linalg.norm(pts, axis=1)
    bad = norms < 1e-12
    while np.any(bad):
        pts[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(pts, axis=1)
        bad = norms < 1e-12
    return pts / norms[:, None]


def _json_ready(obj):
    """obj with numpy values made plain and non-finite floats made None.

    JSON has no NaN or infinity, so a failed cell's missing numbers are
    written as null.  A float array that is finite throughout (a regret
    trace) becomes a list after one check, not a walk over its entries.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(value) for value in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            return obj.tolist()
        return _json_ready(obj.tolist())
    if isinstance(obj, np.generic):
        return _json_ready(obj.item())
    return obj


def _write_floats(fh, values: np.ndarray) -> None:
    """Write json.dumps's text of a finite float64 vector, brackets left
    out, to the binary file fh: FORMAT_CHUNK values at a time through
    format_floats in _kernels.c, into one reused buffer."""
    library = _kernels.load()
    pow5, pow5_inv = library.ryu_tables
    buffer = np.empty(26 * min(len(values), FORMAT_CHUNK), dtype=np.uint8)  # 26 bytes a value
    for start in range(0, len(values), FORMAT_CHUNK):
        chunk = np.ascontiguousarray(values[start : start + FORMAT_CHUNK])
        size = library.format_floats(
            chunk.ctypes.data, len(chunk), pow5.ctypes.data, pow5_inv.ctypes.data,
            buffer.ctypes.data,
        )
        if start:
            fh.write(b", ")
        fh.write(buffer[:size])


def dump_json(obj, path) -> None:
    """Write obj as strict JSON (non-finite floats as null) on one line.

    The bytes are ``json.dumps(_json_ready(obj), allow_nan=False)`` and a
    newline.  A dict is written item by item: each finite 1-D float64 array
    (a regret trace) in chunks by :func:`_write_floats`, which needs the
    compiled kernels, and everything else, keys included, by json.dumps, so
    the whole text is never held at once.  json.dumps without indent runs
    the C encoder; json.dump and any indent run the pure-Python one, several
    times slower.
    """
    with open(path, "wb") as fh:
        if not isinstance(obj, dict):
            fh.write(json.dumps(_json_ready(obj), allow_nan=False).encode())
        else:
            fh.write(b"{")
            for i, (key, value) in enumerate(obj.items()):
                if i:
                    fh.write(b", ")
                if (
                    isinstance(value, np.ndarray) and value.ndim == 1
                    and value.dtype == np.float64 and np.isfinite(value).all()
                ):
                    fh.write(json.dumps({key: 0})[1:-2].encode() + b"[")  # the key and ": "
                    _write_floats(fh, value)
                    fh.write(b"]")
                else:
                    fh.write(json.dumps({key: _json_ready(value)}, allow_nan=False)[1:-1].encode())
            fh.write(b"}")
        fh.write(b"\n")
