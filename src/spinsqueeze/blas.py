"""One OpenBLAS thread for the dense solves of the layer model.

The drift matrices are N_z x N_z, and at the depths the package runs
(N_z up to several hundred) a second OpenBLAS thread does not pay: the
Schur form and the back substitution are small enough that the threads
spend their time handing work to each other.  On a 2-vCPU host a Schur
form plus two trsyl solves took 28-40 ms on one thread against 40-48 ms
on two at N_z = 100 (fastest of five, three processes each), 140-170 ms
against 260-310 ms at N_z = 200, and about 7 s either way at N_z = 800.
The two-thread times also depend on what else the machine runs: their
medians reached 114 ms at N_z = 100.

:func:`one_blas_thread` sets every OpenBLAS loaded into the process to
one thread while any caller is inside it, and gives each back its
previous count when the last caller leaves.  It is a context manager
and a decorator.  The thread count is a process-wide setting, so a
thread of the caller's own that runs BLAS at the same time also runs
on one thread meanwhile.  The libraries are found through
``/proc/self/maps``; where that does not exist, or no OpenBLAS is
loaded, it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from collections.abc import Callable, Iterator

# (get_num_threads, set_num_threads) symbol names: the scipy-openblas
# wheels of numpy (64-bit integer build) and scipy, then a system OpenBLAS.
_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
)

_lock = threading.Lock()
_depth = 0
_saved: list[tuple[Callable[[int], None], int]] = []


@functools.cache
def _controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """Thread-count getter and setter of each loaded OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({
                line.split()[-1] for line in fh
                if "openblas" in line.lower() and line.split()[-1].startswith("/")
            })
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the enclosed linear algebra on one OpenBLAS thread."""
    global _depth
    with _lock:
        if _depth == 0:
            for get, set_ in _controls():
                _saved.append((set_, get()))
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, count in _saved:
                    set_(count)
                _saved.clear()
