"""'%.17g' for float64 arrays at numpy speed, byte for byte.

Every CSV file of the CLI is written by `csv_lines`, each float as
Python's '%.17g' does.  Python converts one value per call, correctly
rounded; here a whole block is converted at once in float64 arithmetic,
exactly where a double-double error bound proves the digits, and by
Python's own '%.17g' for every other value.

Each value takes a field of FIELD = 32 bytes, four 8-byte words of
left-aligned, NUL-padded text:

    [sign, "0." and zeros or none, d0, "." or none] [d1..d8] [d9..d16]
    ["e-" and the exponent, or none]

with the trailing zero digits NUL, or else the fallback string ("%.17g"
never takes more than 24 bytes).  The last byte stays NUL for the separator
that follows the value.  `csv_lines` builds whole CSV lines in one such
byte matrix and drops its NULs on output.

Exactness.  A value 0 < x < 1 of decimal exponent -q has the 17 digits of
s = x * 10**(16 + q), 1e16 <= s < 1e17, rounded to an integer.  The scale
10**(16 + q) is held as the double-double POW_HI[q] + POW_LO[q], within
2**-104 of it relative (a test checks every entry against `Fraction`), for
0 <= q <= 291: 10**307 is still a double.  hi = fl(x * POW_HI) >= 1e16 >
2**53 is an integer.  Dekker's TwoProduct, with x and POW_HI split into
26-bit halves (POW_HI's are the tables POW_TOP and POW_BOTTOM), gives its
rounding error e exactly, as x >= 1e-290 keeps every nonzero half and
partial product a normal double, and lo = fl(e + fl(x * POW_LO)).  As
|e| <= 8 and |x * POW_LO| < 11.2, hi + lo is within 1e17 * 2**-104 + 2**-50
+ 2**-49 < 7.6e-15 of s.  So hi + rint(lo) is s correctly rounded, unless
lo lies within that of a half-integer.

The fast path takes finite x with 1e-290 <= |x| < 1, whose decade q, read
from log10|x| and clipped into the table, is right, and whose lo does not
lie within ROUNDING_BOUND = 1e-13 of a half-integer (in practice only an
exact tie: 18 significant digits ending in 5, which '%.17g' rounds half to
even).  log10 can be one off next to a power of ten; the decade is right
when (hi - 1e16) + lo >= 0 and (hi - 1e17) + lo < 0, a sign that no double
gets wrong, since none brings s within 0.01 of 1e16 or 1e17 (a test checks
the doubles next to every power of ten).  Every other value goes to
Python's '%.17g': nan, inf, |x| >= 1, 0, -0, |x| < 1e-290 and a misread
decade.  On bench/reference.cfg the seven commands format 184,772 values,
and the fallback takes 2,581 of them: 2,512 of 1 or more and 69 zeros, none
of them in the law; no value lies below 1e-290, has a misread decade or
sits at a tie.
"""

from __future__ import annotations

import numpy as np

FIELD = 32
ROUNDING_BOUND = 1e-13


def _powers_of_ten():
    """(POW_HI, POW_LO, POW_TOP, POW_BOTTOM) for 0 <= q <= 291, from 10**n
    = 5**n * 2**n: 5**n converts correctly rounded to a double, as does the
    integer it leaves, and scaling by 2**n is exact."""
    n = np.arange(16, 16 + 292)
    fives = [5 ** 16]
    for _ in n[1:]:
        fives.append(fives[-1] * 5)
    head = [float(p) for p in fives]
    # round() of an integer-valued double is that integer, exactly
    tail = np.array([float(p - round(h)) for p, h in zip(fives, head)])
    head = np.array(head)
    # Dekker's split of the heads, whose product with 2**27 + 1 stays below
    # 1e223
    c = head * 134217729.0
    top = c - (c - head)
    return tuple(np.ldexp(a, n) for a in (head, tail, top, head - top))


# POW_HI[q] + POW_LO[q] = 10**(16 + q), which scales a value of decimal
# exponent -q to 17 digits before the point; POW_TOP[q] + POW_BOTTOM[q] =
# POW_HI[q], each of at most 26 bits
POW_HI, POW_LO, POW_TOP, POW_BOTTOM = _powers_of_ten()


def text_rows(cells, width: int = 0) -> np.ndarray:
    """ASCII strings, and floats as '%.17g', as the rows of a NUL-padded
    uint8 matrix, `width` bytes each, or as many as the longest takes."""
    rows = np.array([(c if isinstance(c, str) else "%.17g" % c).encode() for c in cells],
                    f"S{width}" if width else "S")
    return rows.view(np.uint8).reshape(len(rows), rows.itemsize)


def _group_words() -> np.ndarray:
    """The four-digit groups g in ASCII, one uint32 each: entry g with its
    trailing zeros NUL (so 0000 is all NUL), entry 10**4 + g in full."""
    full = (np.arange(10 ** 4, dtype=np.uint16)[:, None]
            // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48).astype(np.uint8)
    kept = np.logical_or.accumulate(full[:, ::-1] != 48, axis=1)[:, ::-1]
    return np.concatenate([full * kept, full]).view(np.uint32)[:, 0]


_GROUPS = _group_words()
# The word before the digits, at ((negative * 5 + form) * 10 + d0) * 2 +
# point: form 0-3 is the fixed form of exponent -1 to -4 ("0." and that
# many zeros less one), form 4 the exponent form, which carries the point
# when a digit after d0 is kept.
_HEAD = text_rows([("-" if neg else "") + ("0." + "0" * form if form < 4 else "")
                   + str(d0) + ("." if point and form == 4 else "")
                   for neg in (0, 1) for form in range(5) for d0 in range(10)
                   for point in (0, 1)], 8).view(np.uint64)[:, 0]
# The word after the digits, at q = -(decimal exponent), 1 <= q <= 291.
_TAIL = text_rows([""] + [f"e-{q:02d}" if q > 4 else "" for q in range(1, len(POW_HI))],
                  8).view(np.uint64)[:, 0]


def _scaled(x: np.ndarray, q: np.ndarray):
    """(hi, lo) of s = x * 10**(16 + q), 1e-290 <= x < 1, as a double-double:
    hi = fl(x * POW_HI[q]), an integer, and hi + lo within 7.6e-15 of s
    (see the module docstring)."""
    hi = x * POW_HI[q]
    # Dekker's TwoProduct: x and POW_HI[q] as sums of two 26-bit halves,
    # whose products are exact, give hi's rounding error exactly; in place,
    # as this is much of the formatter's arithmetic
    xh = x * 134217729.0
    xl = xh - x
    xh -= xl
    np.subtract(x, xh, out=xl)
    top, bottom = POW_TOP[q], POW_BOTTOM[q]
    lo = xh * top
    lo -= hi
    lo += np.multiply(xh, bottom, out=xh)
    lo += np.multiply(xl, top, out=top)
    lo += np.multiply(xl, bottom, out=xl)
    lo += np.multiply(x, POW_LO[q], out=bottom)
    return hi, lo


def fast_fields(v: np.ndarray):
    """The fast path of `fields` on a flat float64 array: the fields of every
    value, as (len(v), FIELD // 8) uint64 words, and the mask of the values
    whose field is '%.17g' % x.  The other fields hold no meaning.

    With q = -floor(log10|x|), s = |x| * 10**(16 + q) is formed as hi + lo
    by `_scaled` and rounded to the 17 digits hi + rint(lo), with a carry
    where it rounds up to 1e17.  A value stays taken if 1e-290 <= |x| < 1,
    its decade is right and lo does not lie within `ROUNDING_BOUND` of a
    half-integer (see the module docstring).
    """
    x = np.abs(v)
    taken = (x < 1.0) & (x >= 1e-290)
    # a stand-in for the values the fast path does not take
    x[~taken] = 0.5
    # clipped, so that a log10 off by any amount still indexes the tables
    q = np.clip(-np.floor(np.log10(x)), 0, len(POW_HI) - 1).astype(np.intp)
    # `_scaled` frees its temporaries on return: kept here, they grew each
    # chunk's heap past glibc's trim threshold, to be faulted in afresh
    hi, lo = _scaled(x, q)
    r = np.rint(lo)
    # the decade is right where (hi - 1e16) + lo >= 0 and (hi - 1e17) + lo < 0
    taken &= (np.abs(lo - r) < 0.5 - ROUNDING_BOUND) & ((hi - 1e16) + lo >= 0.0) \
        & ((hi - 1e17) + lo < 0.0)
    # keeps the casts, the digit split and the table indices in range for
    # the rest
    skip = ~taken
    hi[skip], r[skip], q[skip] = 1e16, 0.0, 1
    r = hi.astype(np.int64) + r.astype(np.int64)
    carry = r == 10 ** 17
    r[carry] = 10 ** 16
    q -= carry
    # a double below 1 rounds below 1 at 17 digits, so q >= 1
    # r = d0 d1..d16: d0, then the groups g1..g4 of four digits each, and
    # whether a nonzero digit follows group j (laterj)
    high = r // 10 ** 8
    low = (r - high * 10 ** 8).astype(np.int32)
    high = high.astype(np.int32)
    d0 = high // 10 ** 8
    top = high // 10 ** 4
    g1 = top - d0 * 10 ** 4
    g2 = high - top * 10 ** 4
    g3 = low // 10 ** 4
    g4 = low - g3 * 10 ** 4
    later3 = g4 != 0
    later2 = later3 | (g3 != 0)
    later1 = later2 | (g2 != 0)
    text = np.empty((v.size, FIELD // 8), np.uint64)
    form = np.minimum(q, 5) - 1
    text[:, 0] = _HEAD[(((v < 0.0) * 5 + form) * 10 + d0) * 2 + (later1 | (g1 != 0))]
    digits = text.view(np.uint32)
    digits[:, 2] = _GROUPS[g1 + later1 * 10 ** 4]
    digits[:, 3] = _GROUPS[g2 + later2 * 10 ** 4]
    digits[:, 4] = _GROUPS[g3 + later3 * 10 ** 4]
    digits[:, 5] = _GROUPS[g4]
    text[:, 3] = _TAIL[q]
    return text, taken


def fields(values: np.ndarray) -> np.ndarray:
    """'%.17g' % x for every x of `values`, as NUL-padded bytes, shape
    values.shape + (FIELD,): `fast_fields`, and Python's own '%.17g' for
    every value it does not take (nan, inf, 0 and |x| >= 1 among them).
    """
    v = np.ravel(values).astype(float, copy=False)
    text, taken = fast_fields(v)
    text = text.view(np.uint8)
    slow = np.flatnonzero(~taken)
    if slow.size:
        padded = (f"%-{FIELD}.17g" * slow.size) % tuple(v[slow].tolist())
        rows = np.frombuffer(padded.encode(), np.uint8).reshape(slow.size, FIELD)
        text[slow] = np.where(rows == ord(" "), 0, rows)
    return text.reshape(np.shape(values) + (FIELD,))


def csv_lines(*columns: np.ndarray) -> bytes:
    """One CSV line per element of the columns' broadcast shape, in C order:
    a field from each column in turn, joined by ',' and ended by '\\n'.  A
    column is a float array, written as '%.17g', or a `text_rows` matrix,
    whose last axis holds each field's bytes; an integer passed as a float
    is written as the integer."""
    text = [c.dtype == np.uint8 for c in columns]
    lead = np.broadcast_shapes(*(c.shape[:-1] if t else c.shape
                                 for c, t in zip(columns, text)))
    # a text field takes one byte more than its text, a float's field has
    # its last byte spare: the separator after each field goes there
    widths = [c.shape[-1] + 1 if t else FIELD for c, t in zip(columns, text)]
    out = np.empty(lead + (sum(widths),), np.uint8)
    end = 0
    for column, is_text, width in zip(columns, text, widths):
        at, end = end, end + width
        if is_text:
            # each field as one item of its bytes: a copy of short rows
            # byte by byte costs twice as much
            item = f"V{width - 1}"
            out[..., at:end - 1].view(item)[..., 0] = column.view(item)[..., 0]
        else:
            out[..., at:end] = fields(column)
        out[..., end - 1] = ord("\n") if end == out.shape[-1] else ord(",")
    # each line's fields are NUL-padded to fixed offsets: one pass over the
    # whole matrix drops the NULs
    return out.tobytes().translate(None, b"\0")
