"""A resident allocator heap for the codec kernels.

The array kernels of this package (the Huffman and Lempel-Ziv field
packer, the decode kernel, the block-sorting stages) allocate numpy
temporaries of up to a few megabytes per 128 KB block and free them
before the next block.  Under glibc's defaults every such buffer above
the mmap threshold that finds no room in the heap gets its own ``mmap``,
and whatever is freed at the top of the heap beyond the trim threshold
goes back to the kernel, so the next block pays its pages again as minor
faults: 17-26 K a cycle of the 18 bulk-path codec operations, tens of
milliseconds of system time.

:func:`keep_heap_resident` raises both thresholds once, at package
import: the temporaries then come from a heap that stays mapped, and a
forked codec-pool worker inherits the setting.  Where the C library has
no ``mallopt`` (not glibc) it does nothing.  This module is the one
place the package reaches the C allocator.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Optional

__all__ = ["MMAP_THRESHOLD", "TRIM_THRESHOLD", "keep_heap_resident"]

#: ``mallopt`` parameter numbers (glibc ``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: A request up to this size that finds no room grows the heap instead of
#: getting its own ``mmap``: above the largest temporary a 128 KB block's
#: kernels make (a per-position ``int64`` array, 1 MiB and a few entries).
MMAP_THRESHOLD = 2 << 20

#: Free memory at the top of the heap kept mapped rather than returned to
#: the kernel: room for one block's temporaries freed together.
TRIM_THRESHOLD = 16 << 20


def _mallopt() -> Optional[Callable[[int, int], int]]:
    """The C library's ``mallopt``, or ``None`` where it has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def keep_heap_resident() -> bool:
    """Set the mmap and trim thresholds; whether the C library took both."""
    mallopt = _mallopt()
    if mallopt is None:
        return False
    mapped = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    trimmed = mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return bool(mapped and trimmed)
