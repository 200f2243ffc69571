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

Within a block, a run of bit-identical values in one column is formatted
once and its cell repeated, so 0.0 and -0.0, and NaNs with different
payloads, never share a cell.  The ``tau`` grid columns repeat: at the
default ``simulate`` size about four in five of their fields are copies.

The digits are computed by numpy, a block at a time, with no Python object
per value.  For |x| in [1e-4, 1e17) ``%.17g`` prints positional digits:
the 17 significant ones are round(|x| * 10**k) for the k that puts the
product in [1e16, 1e17).  10**k (k <= 21) is an exact double, and
Dekker's two-product splits |x| * 10**k exactly into a double hi plus a
double lo.  hi >= 1e16 > 2**53 is an even integer, so hi + rint(lo) is
the product rounded half to even, as ``%.17g`` rounds.  Only |x| outside
[1e-4, 1e17) (every exponent-form field), NaN and ±inf go through
``"%.17g" % v`` itself.  Each value's sign, leading zeros and 17 digits
are laid out as a 24-byte source row, and its cell is that row shifted
down one byte before the decimal point and kept in place after it, with
the point and the padding set by three masks looked up by where the point
and the last printed digit fall.  Spaces, which never occur in a field,
pad the cells and are deleted at the end.

The numpy calls release the GIL, so the workers format their blocks at
the same time.  The GIL passes between the workers around those calls, a
context switch each time, so each call covers a whole block (the cell
masks, half of one) and the blocks are large.
"""

from __future__ import annotations

import functools
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Fields per block; a block holds BLOCK_VALUES // columns rows.  The
# workers hand the GIL over around each numpy call, so larger blocks mean
# fewer hand-offs a field but more memory: a block's temporaries peak at
# about 77 B a field (tracemalloc), and its text stays in flight until it
# is written.  In `cgbench` sim-disk on 2 vCPUs (x86-64, numpy 2.4),
# blocks of 24576 and 32768 fields gave median wall_s 0.75 and 0.70 s and
# peak RSS 180.8 and 182.7 MB (5 alternated pairs), against 1.04 s and
# 181.6 MB for the earlier writer's 16384: this is the largest size
# measured that does not raise the peak RSS.
BLOCK_VALUES = 24576

_POW10 = np.array([float(10**k) for k in range(22)])  # exact doubles
_E8 = 10**8
_WIDTH = 24  # the longest `%.17g` field: "-1.2345678901234567e-308"


@functools.cache
def _tables():
    """ASCII of 0000..9999 as little-endian words, their trailing-zero
    counts (4 for 0000), the first word of a source row and the three
    masks of each cell layout.

    ``heads[((min(e, 0) + 4) * 10 + lead) * 2 + neg]`` is bytes 0-7 of the
    source row of a value with sign ``neg``, decimal exponent e in [-4, 16]
    and lead digit ``lead``: the sign at byte 1, the zeros of "0.000" at
    bytes 7 + e .. 6 when e < 0, and the lead digit at byte 7, ahead of the
    other 16 digits at bytes 8-23.  Row ``point * 24 + last`` of
    ``shifted``, ``kept`` and ``filled`` builds the cell of a value whose
    point falls at byte ``point`` = e + 7 and whose last byte printed is
    ``last``: bytes before the point are the source's next byte, the
    point is '.' if a digit follows it, the bytes after it are the
    source's own up to ``last``, and the rest are spaces.
    """
    q = np.arange(10000, dtype=np.uint32)
    quads = ((48 + q // 1000) | (48 + q // 100 % 10) << 8
             | (48 + q // 10 % 10) << 16 | (48 + q % 10) << 24).astype("<u4")
    zeros = (q % 10 == 0).astype(np.intp) + (q % 100 == 0) + (q % 1000 == 0) + (q == 0)
    heads = np.full((100, 8), ord(" "), dtype=np.uint8)
    for key, row in enumerate(heads):
        z, lead, neg = key // 20, key // 2 % 10, key % 2
        row[1] = ord("-") if neg else ord(" ")
        row[3 + z:7] = ord("0")
        row[7] = ord("0") + lead
    point, last, c = np.ogrid[:_WIDTH, :_WIDTH, :_WIDTH]
    shifted = np.where(c < point, 0xFF, 0)
    kept = np.where((c > point) & (c <= last), 0xFF, 0)
    filled = np.where((c >= point) & (c > last), ord(" "), 0)
    filled = np.where((c == point) & (last > point), ord("."), filled)
    masks = np.stack(np.broadcast_arrays(shifted, kept, filled)).astype(np.uint8)
    masks = masks.reshape(3, -1, _WIDTH // 8, 8).view(np.uint64)[..., 0]
    return quads, zeros, heads.view(np.uint64)[:, 0], masks


def _split(v):
    """v = hi + lo with hi holding the top 26 bits (Veltkamp); lo is
    written over v."""
    hi = v * 134217729.0  # 2**27 + 1
    c = hi - v
    hi -= c
    np.subtract(v, hi, out=v)
    return hi, v


_POW10_HI, _POW10_LO = _split(_POW10.copy())


def _times_pow10(a, k):
    """a * 10**k as hi + lo exactly: Dekker's two-product.  a is used up."""
    hi = _POW10.take(k)
    hi *= a
    ah, al = _split(a)
    # ((ah * ph - hi) + ah * pl + al * ph) + al * pl, operation for operation
    ph = _POW10_HI.take(k)
    lo = ah * ph
    lo -= hi
    ph *= al
    pl = _POW10_LO.take(k)
    ah *= pl
    al *= pl
    del pl
    lo += ah
    lo += ph
    lo += al
    return hi, lo


def _digits(x):
    """The 17 significant digits d and decimal exponent e of each x, and
    where they are exact; elsewhere the value takes the `%` route."""
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 1e17)
    a[~exact] = 1.0
    # k puts |x| * 10**k in [1e16, 1e17)
    k = np.log10(a)
    np.floor(k, out=k)
    np.minimum(k, 16, out=k)
    k = k.astype(np.intp)
    np.subtract(16, k, out=k)
    hi, lo = _times_pow10(a, k)
    del a
    # next to a power of ten log10 can round up to it, leaving the product
    # hi + lo below 1e16: those take one power more (they are in range, so
    # their a was |x|).  hi - 1e16 is exact where it is small, so the sum
    # has the sign of hi + lo - 1e16
    low = np.flatnonzero((hi - 1e16) + lo < 0)
    k[low] += 1
    hi[low], lo[low] = _times_pow10(np.abs(x[low]), k[low])
    d = hi.astype(np.int64)
    del hi
    d += np.rint(lo, out=lo).astype(np.int64)
    del lo
    # no double has 17 digits that round up to 1e17; this guards against a
    # log10 that rounds down at a power of ten
    exact &= d < 10**17
    # ±0 print as 0 and -0: one zero digit at exponent 0
    zero = x == 0.0
    exact |= zero
    d[zero] = 0
    np.subtract(16, k, out=k)
    return d, k, exact


def _cells(x):
    """The cell of each value: its field, padded with spaces to _WIDTH.

    Each temporary is deleted once spent: the peak memory of a block, times
    the blocks in flight, is what a write costs beyond its columns.
    """
    quads, zeros, heads, (shifted, kept, filled) = _tables()
    d, e, exact = _digits(x)
    # the 17 digits as a lead digit and four groups of four
    hi = d // _E8
    lo = (d - hi * _E8).astype(np.uint32)
    lead = hi // _E8
    hi = (hi - lead * _E8).astype(np.uint32)
    del d
    g1, g3 = hi // 10000, lo // 10000
    groups = [g1, hi - g1 * 10000, g3, lo - g3 * 10000]
    del hi, lo, g1, g3

    # trailing zeros go: the last byte printed is the last nonzero digit
    # after the point, else the units digit before it
    last = np.take(zeros, groups[3])
    rows = np.flatnonzero(groups[3] == 0)
    for g in groups[2::-1]:
        g = g[rows]
        last[rows] += np.take(zeros, g)
        rows = rows[g == 0]
    np.subtract(23, last, out=last)
    point = e + 7
    whole = last <= point
    np.maximum(last, point, out=last)
    last -= whole
    key = point * _WIDTH + last
    del point, last, whole

    # bytes 0-7 of the source row by exponent, lead digit and sign
    np.minimum(e, 0, out=e)
    e += 4
    e *= 10
    e += lead
    e *= 2
    e += np.signbit(x)
    del lead
    # a spare row for the byte the shifted view reads past the last row
    m = len(x)
    padded = np.empty((m + 1, _WIDTH // 8), dtype=np.uint64)
    src = padded[:m]
    # clipped: a value that failed the 17-digit guard has no head, and its
    # cell is replaced by `%`
    src[:, 0] = np.take(heads, e, mode="clip")
    del e
    words = src.view("<u4")
    for j, g in enumerate(groups, 2):
        words[:, j] = np.take(quads, g)
    del groups

    # the cell is the source shifted down a byte before the point and the
    # source itself after it, with the point and the padding filled in:
    # built over the source in place, half a block at a time.  A row's
    # bytes before its point come from the row itself, so a half never
    # reads bytes that the other has rewritten.
    ahead = padded.view(np.uint8).ravel()[1:_WIDTH * m + 1].view(np.uint64).reshape(m, -1)
    step = -(-m // 2)
    for a in range(0, m, step):
        part, keys = slice(a, a + step), key[a:a + step]
        mask = np.take(shifted, keys, axis=0, mode="clip")
        mask &= ahead[part]
        src[part] &= np.take(kept, keys, axis=0, mode="clip")
        src[part] |= mask
        np.take(filled, keys, axis=0, out=mask, mode="clip")
        src[part] |= mask
    del ahead, mask
    cells = src.view(np.uint8)
    rest = np.flatnonzero(~exact)
    if len(rest):
        text = ("%-24.17g" * len(rest)) % tuple(x[rest].tolist())
        cells[rest] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _WIDTH)
    return cells


def _block_text(columns, start, rows) -> str:
    """CSV lines of ``rows`` rows of the columns from ``start``."""
    x = np.empty((len(columns), min(rows, len(columns[0]) - start)))
    rows = x.shape[1]
    for j, c in enumerate(columns):
        x[j] = c[start:start + rows]
    # a value bit-identical to the one above it repeats that one's cell
    bits = x.view(np.int64)
    fresh = np.ones(x.shape, dtype=bool)
    np.not_equal(bits[:, 1:], bits[:, :-1], out=fresh[:, 1:])
    counts = np.count_nonzero(fresh, axis=1).tolist()
    reused = [count < rows for count in counts]
    cells = _cells(x[fresh] if any(reused) else x.ravel())
    cells = cells.view(f"V{_WIDTH}")[:, 0]
    del x

    out = np.empty((rows, len(columns), _WIDTH + 1), dtype=np.uint8)
    slots = out[..., :_WIDTH].view(f"V{_WIDTH}")[..., 0]
    end = 0
    for j, count in enumerate(counts):
        if reused[j]:
            slots[:, j] = np.take(cells, np.cumsum(fresh[j]) + (end - 1))
        else:
            slots[:, j] = cells[end:end + count]
        end += count
    del cells, fresh
    out[:, :, _WIDTH] = ord(",")
    out[:, -1, _WIDTH] = ord("\n")
    return str(out[out != ord(" ")], "ascii")


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS has no sched_getaffinity
        return os.cpu_count() or 1


def write_csv(f, header, *columns) -> None:
    """Write a header row and equal-length numeric columns to text file f."""
    if not columns:
        raise ValueError("a CSV table needs at least one column")
    if len(header) != len(columns):
        raise ValueError(f"CSV header names {len(header)} columns, but {len(columns)} are given")
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
