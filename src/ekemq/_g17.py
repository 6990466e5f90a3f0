"""'%.17g' for float64 arrays at numpy speed, byte for byte.

Every CSV file of the CLI is written by `csv_lines`, each float as
Python's '%.17g' does.  Python converts one value per call, correctly
rounded; here a whole block is converted at once, exactly where a
long-double error bound proves the digits, and by Python's own '%.17g' for
every other value.

Each value takes a field of FIELD = 32 bytes, four 8-byte words of
left-aligned, NUL-padded text:

    [sign, "0." and zeros or none, d0, "." or none] [d1..d8] [d9..d16]
    ["e-" and the exponent, or none]

with the trailing zero digits NUL, or else the fallback string ("%.17g"
never takes more than 24 bytes).  The last byte stays NUL for the separator
that follows the value.  `csv_lines` builds whole CSV lines in one such
byte matrix and drops its NULs on output.

Exactness: POW10 holds each power of ten within half an ulp of the exact
value (a test checks every entry), and the scaling product adds at most
another half ulp, so a scaled value s is within s * eps of the exact one:
at most 0.011 on x87's 64-bit significand, where s < 1e17.  Its 17 digits
are exact when s is farther than ROUNDING_BOUND * s (1.001 eps, relative)
from a half-integer; a value nearer a rounding tie, and 0, -0, nan, inf
and |x| >= 1, go to Python's '%.17g'.  On the reference law the fast path
takes 99% of the values.  Where long double is plain double the bound
exceeds one half and every value takes the fallback.
"""

from __future__ import annotations

import numpy as np

FIELD = 32
# POW10[q] = 10**(16 + q) in long double, 0 <= q <= 325, which scales a
# value of decimal exponent -q to 17 digits before the point.
POW10 = np.array([np.longdouble(f"1e{16 + q}") for q in range(326)])
ROUNDING_BOUND = 1.001 * float(np.finfo(np.longdouble).eps)


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
# The word after the digits, at q = -(decimal exponent), 1 <= q <= 325.
_TAIL = text_rows([""] + [f"e-{q:02d}" if q > 4 else "" for q in range(1, 326)],
                  8).view(np.uint64)[:, 0]


def fast_fields(v: np.ndarray):
    """The fast path of `fields` on a flat float64 array: the fields of every
    value, as (len(v), FIELD // 8) uint64 words, and the mask of the values
    whose field is '%.17g' % x.  The other fields hold no meaning.

    Finite x with 0 < |x| < 1 are taken: with q = -floor(log10|x|),
    s = |x| * 10**(16 + q) is formed in long double from `POW10`, q moved
    by one where s leaves [1e16, 1e17), and s rounded to the 17 digits, with
    a carry where it rounds up to 1e17.  The rounding is the correctly
    rounded one, and the value stays taken, when s lies farther than its
    error bound `ROUNDING_BOUND * s` from a half-integer.
    """
    taken = (v != 0.0) & (np.abs(v) < 1.0)
    # a stand-in for the values the fast path does not take
    x = np.where(taken, np.abs(v), 0.5)
    q = -np.floor(np.log10(x)).astype(np.intp)
    x = x.astype(np.longdouble)
    s = x * POW10[q]
    off = np.flatnonzero((s < 1e16) | (s >= 1e17))
    if off.size:
        q[off] = np.clip(q[off] + (s[off] < 1e16) - (s[off] >= 1e17).astype(np.intp),
                         0, 325)
        s[off] = x[off] * POW10[q[off]]
    r = np.rint(s)
    taken &= (s >= 1e16) & (s < 1e17) & (
        np.abs((s - r).astype(float)) < 0.5 - ROUNDING_BOUND * s.astype(float))
    r = r.astype(np.int64)
    # keeps the digit split and the table indices in range for the rest
    r[~taken] = 10 ** 16
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
    every value it does not take (0, -0, nan, inf and |x| >= 1 among them).
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
            out[..., at:end - 1] = column
        else:
            out[..., at:end] = fields(column)
        out[..., end - 1] = ord("\n") if end == out.shape[-1] else ord(",")
    return out.tobytes().translate(None, b"\0")
