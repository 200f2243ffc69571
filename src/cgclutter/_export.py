"""The CSV writer behind every export.

Every field is a float64 printed as ``%.17g``, which round-trips and is
byte-identical to ``f"{v:.17g}"``; integer columns below 2**53 print as
``str(n)`` does.  Rows are formatted in blocks of ``BLOCK_ROWS``, so the
memory a write needs beyond its columns does not grow with their length.

The digits are computed by numpy, a block at a time, with no Python object
per value.  For |x| in [1e-4, 1e17) ``%.17g`` prints positional digits:
the 17 significant ones are round(|x| * 10**k) for the k that puts the
product in [1e16, 1e17).  The product is taken in ``np.longdouble``,
where 10**k (k <= 21) is exact, so with a 64-bit mantissa and a product
below 2**57 its error is at most 2**-8: rounding it gives the correctly
rounded digits unless its fraction lies within 2**-7 of one half.  Those
values, |x| outside [1e-4, 1e17) (every exponent-form field), NaN and
±inf, and every value where the long double has a shorter mantissa go
through ``"%.17g" % v`` itself, about 0.9 % of the values of a default
``simulate --events --clutter``.  The digits, sign and point of each field
are then laid out in a fixed-width cell padded with spaces, which never
occur in a field, and the padding is deleted.
"""

from __future__ import annotations

import functools

import numpy as np

# Rows per block.  On a default `simulate --events --clutter` (2-vCPU
# x86-64, numpy 2.4) blocks of 1024 to 16384 rows ran at the same speed
# within run-to-run noise and the whole process peaked at 165-169 MB RSS.
BLOCK_ROWS = 4096

# Where False (a long double no wider than a double) every value takes the
# `%` route.
EXACT_DIGITS = np.finfo(np.longdouble).nmant >= 63

# 128 * 10**k, exact in a 64-bit-mantissa long double; the factor 128 keeps
# seven fraction bits of the product when it is truncated to an integer.
_SCALED_POW10 = (np.array([10.0**k for k in range(22)]) * 128).astype(np.longdouble)
_E8 = np.uint64(10**8)
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


def _rows(block: np.ndarray) -> str:
    """CSV lines of a 2-D float64 block."""
    quads, zeros, layout = _tables()
    x = block.ravel()
    a = np.abs(x)
    exact = (a >= 1e-4) & (a < 1e17) & EXACT_DIGITS
    a = np.where(exact, a, 1.0)
    # k puts |x| * 10**k in [1e16, 1e17); where log10 is one off next to a
    # power of ten the product lands just outside and the value takes `%`
    k = 16 - np.minimum(np.floor(np.log10(a)), 16).astype(np.intp)
    # w = floor(128 * |x| * 10**k): the digits above its low 7 bits, and
    # the fraction in 128ths below; 63 and 64 lie within 2**-7 of one half
    w = np.multiply(a, _SCALED_POW10[k], dtype=np.longdouble).astype(np.uint64)
    frac = w & np.uint64(127)
    d = (w >> np.uint64(7)) + (frac >= 64)
    exact &= (w >= 128 * 10**16) & (d < 10**17) & ((frac < 63) | (frac > 64))
    # ±0 print as 0 and -0: one zero digit at exponent 0
    zero = x == 0.0
    exact |= zero
    d[zero] = 0
    e = 16 - k

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

    # each value's source row: "-.0", the 17 digits, the pad, the separator
    src = np.empty((len(x), 6), dtype="<u4")
    src[:, 0] = ((lead.astype(np.uint32) + 48) << 24) | 0x302E2D
    for j, g in enumerate(groups, 1):
        src[:, j] = quads[g]
    seps = np.array([ord(",")] * (block.shape[1] - 1) + [ord("\n")], dtype=np.uint32)
    src[:, 5] = np.tile(seps << 8 | ord(" "), len(block))
    idx = np.take(layout, (np.signbit(x) * 21 + e + 4) * 17 + n - 1, axis=0)
    idx += 24 * np.arange(len(x))[:, None]
    cells = np.take(src.view(np.uint8).ravel(), idx)

    rest = np.flatnonzero(~exact)
    if len(rest):
        text = ("%-24.17g" * len(rest)) % tuple(x[rest].tolist())
        cells[rest, :_WIDTH] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _WIDTH)
    return cells.tobytes().translate(None, b" ").decode("ascii")


def write_csv(f, header, *columns) -> None:
    """Write a header row and equal-length numeric columns to text file f."""
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("CSV columns must have equal lengths")
    f.write(",".join(header) + "\n")
    for i in range(0, n, BLOCK_ROWS):
        block = np.empty((min(BLOCK_ROWS, n - i), len(columns)))
        for j, c in enumerate(columns):
            block[:, j] = c[i:i + BLOCK_ROWS]
        f.write(_rows(block))
