"""glibc heap settings: keep the training process's heap, trim after a load.

A training step allocates the same large arrays on every step. By default
glibc hands the top of its heap back to the OS once more than 128 KiB is
free there, and serves requests above its dynamic mmap threshold with fresh
mmaps that it unmaps on free. So every step faults its arrays in again:
about 4,000 minor page faults per step at the ``train-grounded`` benchmark's
shapes. ``keep_heap`` raises both thresholds for the rest of the process;
``trim_heap`` hands free pages back once, after a large transient parse.

Both do nothing where the C library lacks the function, as on macOS and
Windows. The thresholds change where memory comes from, never a computed
value.
"""

from __future__ import annotations

import ctypes
import logging

log = logging.getLogger(__name__)

# mallopt parameters, from glibc's malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
TRIM_THRESHOLD = 1 << 30
# glibc's own ceiling for its dynamic mmap threshold on 64-bit; newer glibc
# refuses larger values
MMAP_THRESHOLD = 32 << 20

# The C library of this process; None where it cannot be opened (Windows).
try:
    _LIBC = ctypes.CDLL(None)
except (OSError, TypeError):
    _LIBC = None


def _libc_function(name: str, *argtypes):
    """The C library's ``int name(argtypes)``, or None where it has none."""
    function = getattr(_LIBC, name, None)
    if function is not None:
        function.argtypes, function.restype = argtypes, ctypes.c_int
    return function


def keep_heap() -> None:
    """Stop glibc from trimming the heap top and from mmapping arrays below
    32 MiB, for the whole process. A refused setting is logged and skipped."""
    mallopt = _libc_function("mallopt", ctypes.c_int, ctypes.c_int)
    if mallopt is None:
        return
    for name, param, value in (
        ("M_TRIM_THRESHOLD", M_TRIM_THRESHOLD, TRIM_THRESHOLD),
        ("M_MMAP_THRESHOLD", M_MMAP_THRESHOLD, MMAP_THRESHOLD),
    ):
        if mallopt(param, value) == 0:
            log.debug("mallopt(%s, %d) refused; glibc keeps its default", name, value)


def trim_heap() -> None:
    """Hand the heap's free pages back to the OS (glibc's malloc_trim)."""
    malloc_trim = _libc_function("malloc_trim", ctypes.c_size_t)
    if malloc_trim is not None:
        malloc_trim(0)
