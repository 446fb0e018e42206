"""One OpenBLAS thread for a block of code, set through the library itself.

NumPy's wheels bundle OpenBLAS (``numpy.libs/libscipy_openblas64_-*.so``
on Linux), which reads ``OPENBLAS_NUM_THREADS`` once, when it loads, but
exports get/set thread-count entry points a process may call at any
time.  :func:`single_thread` pins the count to one for a block and
restores the caller's count on exit.  Where no entry point is found (a
NumPy built against another BLAS) it does nothing.

The serving engine's compute stage runs inside it
(:meth:`repro.engine.server.FrameServer.serve`): its GEMMs are small, and
OpenBLAS's second thread would spin on the core that the read-noise
helper thread draws on.  A VGG-16 stem's GEMM at one frame took
228-246 us on two threads and 78-100 us on one (2-core x86, NumPy 2.4.6,
OpenBLAS 0.3.31).  One set-and-restore costs about 0.6 us.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading

import numpy

#: (get, set) entry-point names to look for, NumPy's 64-bit-integer
#: build first.
_ENTRY_POINTS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)

#: Guards the scope count below: concurrent scopes share one process-wide
#: setting, so the first to enter saves the caller's count and the last
#: to leave restores it.
_lock = threading.Lock()
_depth = 0
_saved = 0


@functools.cache
def _thread_count_functions():
    """The loaded OpenBLAS's ``(get, set)`` thread-count functions, or
    ``None``.  Looked up once per process."""
    package = os.path.dirname(numpy.__file__)
    paths = glob.glob(os.path.join(package + ".libs", "*openblas*"))
    paths += glob.glob(os.path.join(package, ".dylibs", "*openblas*"))
    for path in sorted(paths):
        try:
            # RTLD_NOLOAD binds only a library NumPy already loaded.
            library = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for get_name, set_name in _ENTRY_POINTS:
            get = getattr(library, get_name, None)
            set_ = getattr(library, set_name, None)
            if get is None or set_ is None:
                continue
            get.argtypes = []
            get.restype = ctypes.c_int
            set_.argtypes = [ctypes.c_int]
            set_.restype = None
            return get, set_
    return None


@contextlib.contextmanager
def single_thread():
    """Run the block with OpenBLAS at one thread.

    The caller's count comes back on exit, whether or not the block
    raised.  The count is process-wide: other threads' BLAS calls run
    single-threaded while the block runs, and a count another thread sets
    meanwhile is overwritten on exit.
    """
    global _depth, _saved
    functions = _thread_count_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)
