"""The CSV writer behind every export.

Every field is a float64 printed as ``%.17g``, which round-trips and is
byte-identical to ``f"{v:.17g}"``; integer columns below 2**53 print as
``str(n)`` does.  The table goes to a binary file, as bytes.  Rows are
formatted in blocks of about ``BLOCK_VALUES`` fields: with n usable CPUs
the calling thread formats every n-th block and a pool of n - 1 threads
the others, and the calling thread writes the blocks in order; with one
usable CPU the pool gets no block and starts no thread.  At most one block
more than there are CPUs is in flight, so the memory a write needs beyond
its columns is bounded however long they are, and the bytes written do not
depend on the number of CPUs.

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
``"%.17g" % v`` itself.

Each field is led by its separator, a newline in the first column, so a
block starts with the newline that ends the row before it: the header goes
out without one and the table ends with one.  A value's 17 digits are laid
out as a 24-byte source row, and its cell is that row shifted down one
byte before the decimal point and kept in place after it, with the
separator, the sign, the zeros of "0.000" and the point set by three masks
looked up by where the point falls, the sign and the column.  So the field
is one run of bytes in its cell, and the same key, with where the last
nonzero digit falls, gives where the run starts and how long it is.  The
block's bytes are its fields copied one after another, in one numpy
assignment: each field is copied with the 24 bytes from its first, and the
next field's copy overwrites the bytes after it, as numpy assigns through
an index array in order.

The numpy calls release the GIL, so the threads format their blocks at
the same time.  The GIL passes between them around those calls, a context
switch each time, so each call covers a whole block (the cell masks, half
of one) and the blocks are large.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Fields per block; a block holds BLOCK_VALUES // columns rows.  The
# threads hand the GIL over around each numpy call, so larger blocks mean
# fewer hand-offs a field but more memory: a block's temporaries peak at
# about 59 B a field (tracemalloc).  A pool thread keeps what its blocks
# allocated (its own malloc arena), while the calling thread's blocks reuse
# what the run has freed, so the calling thread formats a share of the
# blocks.  Writing the three sim-disk tables on 2 vCPUs (x86-64, numpy
# 2.4), blocks of 65536 fields were as fast as 98304 and 131072 ones, and
# in runs of four simulate ops in one process the largest that kept the
# peak RSS of the earlier writer (179.2-179.3 against 178.9-179.9 MB;
# 182.5 MB at 98304, 184.2 MB at 131072).
BLOCK_VALUES = 65536

_POW10 = np.array([float(10**k) for k in range(22)])  # exact doubles
_E8 = 10**8
_WIDTH = 24  # the longest positional field and its separator: ",-0.00012345678901234567"
# the longest `%` fields, such as "-1.2345678901234567e-308", and their
# separator are a byte too long for a cell: a marker byte stands for the
# separator and the sign, and the block is mended where one occurs
_LONG = {",-": "\x01", "\n-": "\x02"}
_UNMARK = np.array([0, ord(","), ord("\n")], dtype=np.uint8)


@functools.cache
def _tables():
    """ASCII of 0000..9999 as little-endian words, four times their
    trailing-zero counts (16 for 0000), the first word of a source row by
    its lead digit, the three masks of each cell layout, and where each
    layout's field starts in its cell and how many bytes it has.

    A source row holds a value's 17 digits at bytes 7-23 and zeros before
    them.  Layout ``((point * 24 + last) * 2 + neg) * 2 + nl`` is that of a
    value whose point falls at byte ``point`` = e + 7 of its cell, for
    decimal exponent e in [-4, 16], whose last nonzero digit sits at byte
    ``last`` of the source, whose sign is ``neg`` and whose separator is a
    newline if ``nl``.  Its cell takes the source's next byte before the
    point (``shifted``) and the source's own after it (``kept``), and
    ``filled`` sets the separator, the sign, the zeros of "0.000" and the
    point.  The field runs from the separator to the last nonzero digit
    after the point, else to the units digit; the bytes around it are left
    as they fall.
    """
    q = np.arange(10000, dtype=np.uint32)
    quads = ((48 + q // 1000) | (48 + q // 100 % 10) << 8
             | (48 + q // 10 % 10) << 16 | (48 + q % 10) << 24).astype("<u4")
    zeros = (q % 10 == 0).astype(np.intp) + (q % 100 == 0) + (q % 1000 == 0) + (q == 0)
    leads = np.zeros((10, 8), dtype=np.uint8)
    leads[:, 7] = np.arange(ord("0"), ord("9") + 1)
    point, last, neg, nl, c = np.ogrid[:_WIDTH, :_WIDTH, :2, :2, :_WIDTH]
    units = np.minimum(point, 7) - 1  # the lead digit, or the 0 of "0.000"
    first = units - 1 - neg  # the separator
    end = np.maximum(last, point) - (last <= point)  # the last byte printed
    zeros_ahead = (point < 7) & ((c == units) | (c > point) & (c < 7))  # "0.000"
    filled = np.select([c == first, c == units - 1, zeros_ahead, c == point],
                       [np.where(nl, ord("\n"), ord(",")), ord("-"), ord("0"), ord(".")], 0)
    shape = (_WIDTH, _WIDTH, 2, 2, _WIDTH)
    masks = [np.broadcast_to(v, shape) for v in ((c < point) * 0xFF, (c > point) * 0xFF, filled)]
    masks = np.stack(masks).astype(np.uint8).reshape(3, -1, _WIDTH // 8, 8).view(np.uint64)[..., 0]
    first, size = (np.broadcast_to(v, shape[:-1] + (1,)).ravel() for v in (first, end + 1 - first))
    return (quads, zeros * 4, leads.view(np.uint64)[:, 0], masks,
            first.astype(np.intp), size.astype(np.uint8))


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
    exact = a >= 1e-4
    exact &= a < 1e17
    a = np.where(exact, a, 1.0)
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
    # both are integers, so the casts are exact
    d = np.add(hi, np.rint(lo, out=lo), dtype=np.int64, casting="unsafe")
    del hi, lo
    # no double has 17 digits that round up to 1e17; this guards against a
    # log10 that rounds down at a power of ten
    exact &= d < 10**17
    # ±0 print as 0 and -0: one zero digit at exponent 0
    zero = x == 0.0
    exact |= zero
    d[zero] = 0
    np.subtract(16, k, out=k)
    return d, k, exact


def _cells(x, newlines):
    """The cells of the values, _WIDTH bytes each and a spare, as one byte
    array; where each value's field starts in it and how many bytes it has;
    and whether a field needs a marker (see `_LONG`).  A field is led by its
    separator: a newline for the first ``newlines`` values, else a comma.

    Each temporary is deleted once spent: the peak memory of a block, times
    the blocks in flight, is what a write costs beyond its columns.
    """
    quads, zeros4, leads, (shifted, kept, filled), firsts, sizes = _tables()
    d, key, exact = _digits(x)
    rest = np.flatnonzero(~exact)
    del exact
    text = [("\n" if i < newlines else ",") + "%.17g" % v
            for i, v in zip(rest.tolist(), x[rest].tolist())]
    # the cell layout ((point * 24 + last) * 2 + neg) * 2 + nl, with point
    # e + 7 and last 23 less the trailing zeros, subtracted once counted
    key *= 96
    key += 7 * 96 + 23 * 4
    neg = np.signbit(x)
    key += neg
    key += neg
    del neg
    key[:newlines] += 1

    def strip(rows, group):
        """Count the zeros of a group in the rows whose later groups are all
        zero, and keep the rows where this one is zero too."""
        t = group[rows]
        key[rows] -= zeros4.take(t)
        return rows[t == 0]

    # the source row: the lead digit at byte 7, then four groups of four
    # digits (floor_divide by a constant is a few times faster than divmod)
    m = len(x)
    padded = np.empty((m + 1, _WIDTH // 8), dtype=np.uint64)  # a spare row, read below
    src = padded[:m]
    words = src.view("<u4")
    upper = d // _E8
    d -= upper * _E8
    g = d // 10000
    d -= g * 10000
    words[:, 4] = quads.take(g)
    words[:, 5] = quads.take(d)
    # trailing zeros go: the last byte printed is the last nonzero digit
    # after the point, else the units digit before it
    key -= zeros4.take(d)
    rows = strip(np.flatnonzero(d == 0), g)
    np.floor_divide(upper, _E8, out=d)
    upper -= d * _E8
    # clipped: a value that failed the 17-digit guard has no lead digit,
    # and its cell is replaced by `%`
    src[:, 0] = leads.take(d, mode="clip")
    np.floor_divide(upper, 10000, out=g)
    upper -= g * 10000
    words[:, 2] = quads.take(g)
    words[:, 3] = quads.take(upper)
    strip(strip(rows, upper), g)
    del d, g, upper

    # the cell is the source shifted down a byte before the point and the
    # source itself after it, with the separator, sign, zeros and point
    # filled in: built over the source in place, half a block at a time.  A
    # row's bytes before its point come from the row itself, so a half
    # never reads bytes that the other has rewritten.
    ahead = padded.view(np.uint8).ravel()[1:_WIDTH * m + 1].view(np.uint64).reshape(m, -1)
    step = -(-m // 2)
    for a in range(0, m, step):
        part, keys = slice(a, a + step), key[a:a + step]
        mask = shifted.take(keys, axis=0, mode="clip")
        mask &= ahead[part]
        src[part] &= kept.take(keys, axis=0, mode="clip")
        src[part] |= mask
        filled.take(keys, axis=0, out=mask, mode="clip")
        src[part] |= mask
    del ahead, mask
    first, size = firsts.take(key), sizes.take(key)
    del key
    long = any(len(t) > _WIDTH for t in text)
    if long:
        text = [_LONG[t[:2]] + t[2:] if len(t) > _WIDTH else t for t in text]
    if text:
        size[rest] = [len(t) for t in text]
        first[rest] = _WIDTH - size[rest]
        text = "".join(t.rjust(_WIDTH) for t in text)
        src.view(np.uint8)[rest] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _WIDTH)
    first += np.arange(0, _WIDTH * m, _WIDTH)
    return padded.view(np.uint8).ravel(), first, size, long


def _block(columns, start, rows):
    """The CSV bytes of ``rows`` rows of the columns from ``start``, as a
    uint8 array; each row starts with the newline that ends the one before."""
    x = np.empty((len(columns), min(rows, len(columns[0]) - start)))
    rows = x.shape[1]
    for j, c in enumerate(columns):
        x[j] = c[start:start + rows]
    # a value bit-identical to the one above it repeats that one's cell
    bits = x.view(np.int64)
    fresh = np.ones(x.shape, dtype=bool)
    np.not_equal(bits[:, 1:], bits[:, :-1], out=fresh[:, 1:])
    counts = np.count_nonzero(fresh, axis=1).tolist()
    x = x[fresh] if min(counts) < rows else x.ravel()
    del bits
    cells, first, size, long = _cells(x, counts[0])
    del x

    # the cell of each field, row by row
    cell = np.empty((rows, len(columns)), dtype=np.intp)
    end = 0
    for j, count in enumerate(counts):
        if count < rows:
            np.cumsum(fresh[j], out=cell[:, j])
            cell[:, j] += end - 1
        else:
            cell[:, j] = np.arange(end, end + count)
        end += count
    del fresh
    # the fields go out one after another: each is copied with the _WIDTH
    # bytes from its first, and what follows it is overwritten by the next
    # field, as numpy assigns through an index array in order
    size, first = size.take(cell).ravel(), first.take(cell).ravel()
    del cell
    fields = _windows(cells)[first]
    del cells, first
    at = np.empty(len(size), dtype=np.intp)
    at[0] = 0
    np.cumsum(size[:-1], out=at[1:])
    text = np.empty(at[-1] + size[-1] + _WIDTH - 1, dtype=np.uint8)
    _windows(text)[at] = fields
    del fields, at
    text = text[:len(text) - _WIDTH + 1]
    if long:
        at = np.flatnonzero(text < len(_UNMARK))
        seps = _UNMARK.take(text[at])
        text[at] = ord("-")
        text = np.insert(text, at, seps)
    return text


def _windows(b):
    """The _WIDTH bytes from each byte of b but the last _WIDTH - 1, as
    overlapping items of one array."""
    return np.ndarray((len(b) - _WIDTH + 1,), dtype=f"V{_WIDTH}", buffer=b, strides=(1,))


def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS has no sched_getaffinity
        return os.cpu_count() or 1


def write_csv(f, header, *columns) -> None:
    """Write a header row and equal-length numeric columns to binary file f."""
    if not columns:
        raise ValueError("a CSV table needs at least one column")
    if len(header) != len(columns):
        raise ValueError(f"CSV header names {len(header)} columns, but {len(columns)} are given")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("CSV columns must have equal lengths")
    f.write(",".join(header).encode())
    rows = max(1, BLOCK_VALUES // len(columns))
    starts = range(0, n, rows)
    cpus = _workers()
    # the calling thread formats every cpus-th block, and a pool of the
    # other CPUs formats the pool's blocks among the next cpus as each block
    # is written.  A pool per call: no thread outlives the write or is
    # inherited by a fork; it starts a thread only on a submit, none on one CPU
    pool = ThreadPoolExecutor(max(cpus - 1, 1))
    try:
        queued = {}
        for i, start in enumerate(starts):
            for j in range(i + 1, min(i + cpus + 1, len(starts))):
                if j % cpus and j not in queued:
                    queued[j] = pool.submit(_block, columns, starts[j], rows)
            f.write(queued.pop(i).result() if i % cpus else _block(columns, start, rows))
    finally:
        pool.shutdown(cancel_futures=True)
    f.write(b"\n")
