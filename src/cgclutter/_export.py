"""The CSV writer behind every export.

Every field is a float64 printed as ``%.17g``, which round-trips and is
byte-identical to ``f"{v:.17g}"``; integer columns below 2**53 print as
``str(n)`` does.  Rows are formatted in blocks of about ``BLOCK_VALUES``
fields, on one worker thread per usable CPU, while the calling thread
writes the finished blocks in order; with one usable CPU the calling
thread formats each block itself, with no pool.  At most one block more
than there are workers is in flight, so the memory a write needs beyond
its columns is bounded however long they are, and the bytes written do
not depend on the number of CPUs.

The digits are computed by numpy, a block at a time, with no Python object
per value.  For |x| in [1e-4, 1e17) ``%.17g`` prints positional digits:
the 17 significant ones are round(|x| * 10**k) for the k that puts the
product in [1e16, 1e17).  10**k (k <= 20) is an exact double, and
Dekker's two-product splits |x| * 10**k exactly into a double hi plus a
double lo.  hi >= 1e16 > 2**53 is an even integer, so hi + rint(lo) is
the product rounded half to even, as ``%.17g`` rounds.  Only |x| outside
[1e-4, 1e17) (every exponent-form field), NaN and ±inf go through
``"%.17g" % v`` itself.  The digits, sign and point of each field are then
laid out in a fixed-width cell padded with spaces, which never occur in a
field, and the padding is deleted.  The numpy calls release the GIL,
so the workers format their blocks at the same time.
"""

from __future__ import annotations

import functools
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Fields per block; a block holds BLOCK_VALUES // columns rows.  Writing
# 1e6 rows of 2 or 4 columns on 2 vCPUs (x86-64, numpy 2.4) with the pool,
# blocks of 8192 fields took 160 ns a field, 16384 took 117 and 32768 took
# 100, whatever the column count: the workers hand the GIL to each other
# around every numpy call, a cost per block.  In `cgbench` sim-disk,
# blocks of 32768 fields cut `wall_s` by 9 % but raised the peak RSS from
# 182.4 to 186.9 MB, against 177.1 MB with no pool.
BLOCK_VALUES = 16384

_POW10 = np.array([float(10**k) for k in range(22)])  # exact doubles
_E8 = 10**8
_GATHER = 4096  # values whose byte index is built at once
_WIDTH = 24  # the longest `%.17g` field: "-1.2345678901234567e-308"
# bytes of a value's source row; its 17 digits sit at 3..19
_MINUS, _POINT, _ZERO, _PAD, _SEP = 0, 1, 2, 20, 21


@functools.cache
def _tables():
    """ASCII of 0000..9999 as little-endian words, their trailing-zero
    counts (4 for 0000), and the cell layouts.

    ``layout[(neg * 21 + e + 4) * 17 + n - 1]`` lists which source byte
    fills each byte of the cell of a value with sign ``neg``, decimal
    exponent e in [-4, 16] and n significant digits kept, then the
    separator.
    """
    q = np.arange(10000, dtype=np.uint32)
    quads = ((48 + q // 1000) | (48 + q // 100 % 10) << 8
             | (48 + q // 10 % 10) << 16 | (48 + q % 10) << 24).astype("<u4")
    zeros = (q % 10 == 0).astype(np.intp) + (q % 100 == 0) + (q % 1000 == 0) + (q == 0)
    layout = np.full((2, 21, 17, _WIDTH + 1), _PAD, dtype=np.intp)
    for neg in (0, 1):
        for e in range(-4, 17):
            for n in range(1, 18):
                digits = list(range(3, 3 + n))
                if e >= 0:
                    cell = digits[:e + 1] + ([_POINT] + digits[e + 1:] if n > e + 1 else [])
                else:
                    cell = [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits
                cell = [_MINUS] * neg + cell
                layout[neg, e + 4, n - 1, :len(cell)] = cell
    layout[..., _WIDTH] = _SEP
    return quads, zeros, layout.reshape(-1, _WIDTH + 1)


def _split(v):
    """v = hi + lo with hi holding the top 26 bits (Veltkamp)."""
    c = v * 134217729.0  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a, k):
    """a * 10**k as hi + lo exactly: Dekker's two-product."""
    ah, al = _split(a)
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _digits(x):
    """The 17 significant digits d and decimal exponent e of each x, and
    where they are exact; elsewhere the value takes the `%` route."""
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 1e17)
    a = np.where(exact, a, 1.0)
    # k puts |x| * 10**k in [1e16, 1e17)
    k = 16 - np.minimum(np.floor(np.log10(a)), 16).astype(np.intp)
    hi, lo = _times_pow10(a, k)
    # next to a power of ten log10 can round up to it, leaving the product
    # below 1e16: those take one power more (hi + lo is exact, so is the test)
    low = np.flatnonzero((hi < 1e16) | ((hi == 1e16) & (lo < 0)))
    k[low] += 1
    hi[low], lo[low] = _times_pow10(a[low], k[low])
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # no double has 17 digits that round up to 1e17; this guards against a
    # log10 that rounds down at a power of ten
    exact &= d < 10**17
    # ±0 print as 0 and -0: one zero digit at exponent 0
    zero = x == 0.0
    exact |= zero
    d[zero] = 0
    return d, 16 - k, exact


def _source(x, d, e, ncols):
    """Each value's source row, "-.0", its 17 digits, the pad and the
    separator, and the key of its cell layout."""
    quads, zeros, _ = _tables()
    # the 17 digits as a lead digit and four groups of four
    hi = d // _E8
    lo = (d - hi * _E8).astype(np.uint32)
    lead = hi // _E8
    hi = (hi - lead * _E8).astype(np.uint32)
    g1, g3 = hi // 10000, lo // 10000
    groups = [g1, hi - g1 * 10000, g3, lo - g3 * 10000]
    # significant digits kept: trailing zeros go, the integer part stays
    tz = zeros[groups[3]]
    rows = np.flatnonzero(groups[3] == 0)
    for g in groups[2::-1]:
        g = g[rows]
        tz[rows] += zeros[g]
        rows = rows[g == 0]
    n = np.maximum(17 - tz, e + 1)

    src = np.empty((len(x), 6), dtype="<u4")
    src[:, 0] = ((lead.astype(np.uint32) + 48) << 24) | 0x302E2D
    for j, g in enumerate(groups, 1):
        src[:, j] = quads[g]
    seps = np.array([ord(",")] * (ncols - 1) + [ord("\n")], dtype=np.uint32)
    src[:, 5] = np.tile(seps << 8 | ord(" "), len(x) // ncols)
    return src, (np.signbit(x) * 21 + e + 4) * 17 + n - 1


def _cells(src, key):
    """Each value's cell gathered from its source row by its layout.  The
    byte index, 25 intp per value, is built ``_GATHER`` values at a time."""
    layout = _tables()[2]
    source = src.view(np.uint8).ravel()
    cells = np.empty((len(key), _WIDTH + 1), dtype=np.uint8)
    offsets = _WIDTH * np.arange(_GATHER)[:, None]
    buf = np.empty((_GATHER, _WIDTH + 1), dtype=np.intp)
    for a in range(0, len(key), _GATHER):
        b = min(a + _GATHER, len(key))
        # mode="clip" lets `take` write to out unbuffered; no index is clipped
        idx = np.take(layout, key[a:b], axis=0, out=buf[:b - a], mode="clip")
        idx += offsets[:b - a]
        np.take(source[_WIDTH * a:_WIDTH * b], idx, out=cells[a:b], mode="clip")
    return cells


def _rows(block: np.ndarray) -> str:
    """CSV lines of a 2-D float64 block."""
    x = block.ravel()
    d, e, exact = _digits(x)
    # the digit groups die with _source, before the gather allocates
    cells = _cells(*_source(x, d, e, block.shape[1]))
    rest = np.flatnonzero(~exact)
    if len(rest):
        text = ("%-24.17g" * len(rest)) % tuple(x[rest].tolist())
        cells[rest, :_WIDTH] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _WIDTH)
    return str(cells[cells != ord(" ")], "ascii")


def _block_text(columns, start, rows) -> str:
    """CSV lines of ``rows`` rows of the columns from ``start``."""
    block = np.empty((min(rows, len(columns[0]) - start), len(columns)))
    for j, c in enumerate(columns):
        block[:, j] = c[start:start + rows]
    return _rows(block)


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS has no sched_getaffinity
        return os.cpu_count() or 1


def write_csv(f, header, *columns) -> None:
    """Write a header row and equal-length numeric columns to text file f."""
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("CSV columns must have equal lengths")
    f.write(",".join(header) + "\n")
    rows = max(1, BLOCK_VALUES // len(columns))
    workers = _workers()
    if workers == 1:
        # a pool of one would add a thread's memory and no parallel work
        for start in range(0, n, rows):
            f.write(_block_text(columns, start, rows))
        return
    # a pool per call: no thread outlives the write or is inherited by a fork
    pool = ThreadPoolExecutor(workers)
    try:
        pending = deque()
        for start in range(0, n, rows):
            pending.append(pool.submit(_block_text, columns, start, rows))
            if len(pending) > workers:
                f.write(pending.popleft().result())
        while pending:
            f.write(pending.popleft().result())
    finally:
        pool.shutdown(cancel_futures=True)
