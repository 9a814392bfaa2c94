"""The package's compiled kernels: the C functions of _kernels.c, built with
the system's C compiler at the first call that needs one (never at import)
and cached beside the bytecode.  Phase 2's round loop (bandit.run_phase2),
the tall sketch's Gram counts (sampling.SamplingSets.gram) and each
continuation round of the Dantzig solve, with its singular value
thresholding (recovery.solve_dantzig), run there, and the JSON text of a
regret trace is written there (util.dump_json).
"""

from __future__ import annotations

import ctypes
import os

# how load builds _kernels.c; the cached library's name hashes this command,
# the source and the machine
_COMMAND = ("cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
_library = None  # the loaded library, once load has built it


def _cache_dirs() -> list:
    """Where the built library is kept: the package's __pycache__, else a
    per-user directory under the system's temporary directory, unless
    another user owns that one (a library found there would be loaded)."""
    import tempfile

    private = os.path.join(tempfile.gettempdir(), f"subspace_bandit-{os.getuid()}")
    dirs = [os.path.join(os.path.dirname(_SOURCE), "__pycache__")]
    if not os.path.exists(private) or os.stat(private).st_uid == os.getuid():
        dirs.append(private)
    return dirs


def _build() -> str:
    """Path of the built _kernels.c: in the first cache folder that holds it
    or can be written, where a build is compiled to a name unique to this
    process and moved into place, so concurrent builds never see a partial
    file.  A build into the package's __pycache__ deletes the libraries it
    supersedes there; the shared temporary folder serves other checkouts."""
    import glob
    import hashlib
    import platform
    import subprocess

    with open(_SOURCE, "rb") as f:
        key = f.read() + " ".join(_COMMAND).encode() + platform.machine().encode()
    name = f"_kernels-{hashlib.sha256(key).hexdigest()}.so"
    dirs = _cache_dirs()
    for folder in dirs:
        path = os.path.join(folder, name)
        if os.path.exists(path):
            return path
        partial = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(folder, exist_ok=True)
            open(partial, "wb").close()
        except OSError:
            continue  # not writable: try the next folder
        command = [*_COMMAND, "-o", partial, _SOURCE, "-lm"]
        try:
            done = subprocess.run(command, capture_output=True, text=True)
            error = done.stderr.strip() if done.returncode else None
        except OSError as exc:  # no compiler: a RuntimeError, not a config error
            error = str(exc)
        if error is not None:
            os.remove(partial)
            raise RuntimeError(f"cannot build the compiled kernels: {' '.join(command)}: {error}")
        os.replace(partial, path)
        if folder == dirs[0]:
            for pattern in ("_kernels-*.so", "_phase2-*.so"):
                for old in glob.glob(os.path.join(folder, pattern)):
                    if old != path:
                        try:
                            os.remove(old)
                        except OSError:  # another build removed it first
                            pass
        return path
    raise RuntimeError(f"cannot build the compiled kernels: no writable folder among {dirs}")


def _ryu_tables() -> tuple:
    """format_floats's tables: 5^i for i < 326 as its top 125 bits, and 5^-i
    for i < 342 as 2^(bits(5^i) - 1 + 125) // 5^i + 1, each number a row of
    its low and high 64-bit words (Ryu's d2s, Adams, PLDI 2018)."""
    import numpy as np

    tables = ([], [])
    for i in range(342):
        power = 5**i
        bits = power.bit_length()
        if i < 326:
            tables[0].append((power << 125) >> bits)
        tables[1].append((1 << (bits - 1 + 125)) // power + 1)
    mask = (1 << 64) - 1
    return tuple(np.array([(v & mask, v >> 64) for v in t], dtype=np.uint64) for t in tables)


def load() -> ctypes.CDLL:
    """The library of _kernels.c with its functions' signatures declared,
    built and loaded at the first call; its ``ryu_tables`` attribute holds
    the (pow5, pow5_inv) tables that format_floats reads."""
    global _library
    if _library is None:
        path = _build()
        try:
            library = ctypes.CDLL(path)
        except OSError as exc:
            raise RuntimeError(f"cannot load the compiled kernels {path}: {exc}") from None
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        library.phase2_rounds.argtypes = [i64, i64, ptr, i64, i64, i64, ctypes.c_double] + [ptr] * 7
        library.phase2_rounds.restype = None
        library.gram_counts.argtypes = [ptr, i64, i64, i64, ptr, ptr]
        library.gram_counts.restype = None
        library.gram_product.argtypes = [ptr, ptr, i64, ptr]
        library.gram_product.restype = None
        f64 = ctypes.c_double
        library.svt.argtypes = [i64, i64, ptr, f64, i64, ptr]
        library.svt.restype = ctypes.c_int
        library.fista_round.argtypes = [i64, i64, ptr, ptr, i64, ptr, ptr] + [f64, i64, f64, f64] + [ptr] * 4
        library.fista_round.restype = ctypes.c_int
        library.format_floats.argtypes = [ptr, i64, ptr, ptr, ptr]
        library.format_floats.restype = i64
        library.ryu_tables = _ryu_tables()
        _library = library
    return _library
