"""Small shared helpers: sphere sampling, seed derivation, JSON encoding."""

from __future__ import annotations

import json
import math

import numpy as np

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
    written as null.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, np.generic):
        return _json_ready(obj.item())
    return obj


def dump_json(obj, path) -> None:
    """Write obj as strict JSON (non-finite floats as null), indented."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_ready(obj), fh, indent=2, allow_nan=False)
        fh.write("\n")
