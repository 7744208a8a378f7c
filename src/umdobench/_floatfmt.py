"""Exact ``%.17g`` text of float arrays, formatted with numpy.

:func:`format_values` writes, for an array of finite doubles, the same text
as ``format(x, ".17g")`` per value (with -0.0 as ``-0.0``), each value
followed by the separator its code names, as ``umdobench.problem._SEPARATORS``
lists them: 0 is ", " inside a row, 1 is "], [" at the end of a row, and 2 is
nothing at the end of an array.

For a nonzero value x whose decimal exponent E lies in [-6, 16],
|x| * 10**(16 - E) is formed exactly as a double-double: the power of ten is
exact up to 10**22, and Dekker's split product is exact without FMA. E comes
from log10 and is fixed by one where the product lands outside [1e16, 1e17).
Rounding the product half to even gives the 17 digits, which a 4-digit lookup
table turns into characters. The number of digits up to the last nonzero one
is 17 unless the last digit is 0, so only those values look it up. Any other
nonzero value (a subnormal, or an exponent outside [-6, 16]) is formatted
alone by ``format``.

Each value's text is laid out in a fixed-width row that holds every
character any layout needs: sign, the "0.000" of E < 0, the digits and a
point, the "e-05" or "e-06" of E < -4, and the separator that follows the
value. Zeros, which make up most of a chunk of an isotropic covariance block,
take none of the digit arithmetic: their rows hold only the head word
"-0.0", whose "0" or "-0.0" they keep, and the separator word. One table
lookup, keyed by exponent, sign, separator and the number of digits up to the
last nonzero one (by zero and sign alone for a zero), gives each row's mask:
0xFF on the characters it keeps, 0x00 elsewhere. The rows are built in a
bytearray; ANDing them with their masks in place turns every dropped
character into NUL, which no text holds, and ``bytearray.translate`` deletes
the NULs to give the text.

:mod:`umdobench.problem` imports this module when a chunk of a file first
needs it, so neither importing the package nor writing a small file
compiles it.
"""

from __future__ import annotations

import functools

import numpy as np

# A row is 8 words of 4 characters: "-0.0" "00d." "dddd" "dddd" "dddd" "dddd"
# "e-0X" "], [". Column 0 is the sign; 1 and 2 are the "0." of E < 0, and 3-5
# its zeros; the first digit is at 6, a point at 7 and the other 16 digits at
# 8-23; for E >= 1 the point is moved after digit E. Columns 24-27 are the
# exponent of E < -4, and 28-31 give the separators.
_ROW_WORDS = 8
_E_MIN, _E_MAX = -6, 16
# Row kinds: 2 (E - _E_MIN) + sign for the kernel's exponents, then zero and
# negative zero, then a value formatted alone by format().
_ZERO = 2 * (_E_MAX - _E_MIN + 1)
_FALLBACK = _ZERO + 2
_MAX_TEXT = 25  # longer than any %.17g text, such as -2.2250738585072014e-308
_SEPARATOR_CODES = 3


@functools.cache
def _layout_tables():
    """The kernel's lookup tables, built with numpy arithmetic when a chunk
    first needs them."""
    width = 4 * _ROW_WORDS
    never = 127
    # A column is kept where rank[kind, separator, column] < L, the number of
    # digits up to the last nonzero one (or the length of a fallback text).
    rank = np.full((_FALLBACK + 1, _SEPARATOR_CODES, width), never, dtype=np.int8)
    k = np.arange(17)
    for e in range(_E_MIN, _E_MAX + 1):
        point = max(e, 0)  # the digit the point follows
        m = e + 1 if e >= 0 else int(e < -4)  # integer digits; 1 for d.ddde-0X
        for neg in (0, 1):
            r = rank[2 * (e - _E_MIN) + neg]
            if neg:
                r[:, 0] = -1
            if e < -4:
                r[:, 24:28] = -1
            elif e < 0:
                r[:, 1 : 2 - e] = -1
            if e < -4 or e >= 0:
                r[:, 7 + point] = m
            # The m integer digits are always kept, the others while k < L.
            r[:, 6 + k + (k > point)] = np.where(k < m, -1, k)
    rank[_ZERO, :, 1] = -1
    rank[_ZERO + 1, :, 0:4] = -1
    rank[_FALLBACK, :, :24] = np.arange(24)
    rank[:, 0, 29:31] = -1
    rank[:, 1, 28:32] = -1
    mask = (rank[:, :, None, :] < np.arange(_MAX_TEXT)[:, None]).reshape(-1, width)

    # shift[e] reads a row with its point moved after digit e.
    shift = np.tile(np.arange(width), (_E_MAX + 1, 1))
    for e in range(1, _E_MAX + 1):
        shift[e, 7 : 8 + e] = np.roll(np.arange(7, 8 + e), -1)

    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    # group_l[j, g]: for g as the j-th group of four digits after the first,
    # the number of digits up to g's last nonzero one (1 if g is zero). L is
    # the largest over the four groups.
    nonzero = digits != 0
    last = 4 - np.argmax(nonzero[:, ::-1], axis=1)
    group_l = np.where(nonzero.any(axis=1), last + 4 * np.arange(4)[:, None] + 1, 1)
    return (
        # 0xFF on a kept character, 0x00 on a dropped one, read as row words.
        (mask * np.uint8(0xFF)).view(np.uint32),
        np.count_nonzero(mask, axis=1),
        shift,
        np.frombuffer(b"".join(b"00%d." % d for d in range(10)), dtype=np.uint32),
        (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        group_l.astype(np.intp),
        np.frombuffer(
            b"".join(b"e-0%d" % -e if e < -4 else b"    " for e in range(_E_MIN, _E_MAX + 1)),
            dtype=np.uint32,
        ),
    )


_HEAD_WORD, _SEPARATOR_WORD = np.frombuffer(b"-0.0], [", dtype=np.uint32)
_POW10 = 10.0 ** np.arange(23)


def _split(a):
    """Dekker's split: a == hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(ax, e):
    """``ax * 10**(16 - e)`` as an exact sum ``p + err`` of two doubles."""
    k = 16 - e
    p = ax * _POW10.take(k)
    ah, al = _split(ax)
    sh, sl = _POW10_HI.take(k), _POW10_LO.take(k)
    return p, ((ah * sh - p) + ah * sl + al * sh) + al * sl


def _decade_shift(p, err):
    """-1 where ``p + err < 1e16``, +1 where it is at least 1e17, else 0."""
    low = (p < 1e16) | ((p == 1e16) & (err < 0))
    high = (p > 1e17) | ((p == 1e17) & (err >= 0))
    return high.astype(np.intp) - low


def format_values(values, seps):
    """Text of the finite ``values``, each followed by the separator coded
    ``seps[i]``.

    Returns the ASCII text as a bytearray and the end offset of each value's
    text in it.
    """
    mask_table, text_len, *value_tables = _layout_tables()
    n = values.size
    # The rows live in the buffer that translate reads, so they are not copied.
    buffer = bytearray(4 * _ROW_WORDS * n)
    rows = np.frombuffer(buffer, dtype=np.uint32).reshape(n, _ROW_WORDS)
    nonzero = np.flatnonzero(values)
    if nonzero.size == n:
        kind, length = _value_rows(values, value_tables, rows)
    else:
        rows[:, 0] = _HEAD_WORD
        rows[:, 7] = _SEPARATOR_WORD
        kind = _ZERO + np.signbit(values)
        length = np.zeros(n, dtype=np.intp)  # a zero's mask does not depend on it
        if nonzero.size:
            value_rows = np.empty((nonzero.size, _ROW_WORDS), dtype=np.uint32)
            kind[nonzero], length[nonzero] = _value_rows(
                values.take(nonzero), value_tables, value_rows
            )
            rows[nonzero] = value_rows
    key = (kind * _SEPARATOR_CODES + seps) * _MAX_TEXT + length
    rows &= mask_table.take(key, axis=0)
    return buffer.translate(None, b"\0"), np.cumsum(text_len.take(key))


def _value_rows(values, tables, rows):
    """Fill ``rows`` with the rows of nonzero finite ``values``; return the
    row kinds and digit counts."""
    point_shift, lead_word, group_word, group_l, exp_word = tables
    n = values.size
    ax = np.abs(values)
    e = np.floor(np.log10(ax))
    ok = (e >= _E_MIN - 1) & (e <= _E_MAX + 1)
    e = np.clip(e, _E_MIN, _E_MAX).astype(np.intp)
    if not ok.all():  # the other values are set to 1, which needs no shift at E = 0
        e[~ok] = 0
        ax[~ok] = 1.0
    p, err = _scaled(ax, e)
    shift = _decade_shift(p, err)
    moved = np.flatnonzero(shift)
    if moved.size:  # only the moved values are scaled again
        e_m = e[moved] + shift[moved]
        ok_m = (e_m >= _E_MIN) & (e_m <= _E_MAX)
        np.clip(e_m, _E_MIN, _E_MAX, out=e_m)
        p_m, err_m = _scaled(ax[moved], e_m)
        ok_m &= _decade_shift(p_m, err_m) == 0
        p_m[~ok_m] = 1e16
        err_m[~ok_m] = 0.0
        e[moved], p[moved], err[moved] = e_m, p_m, err_m
        ok[moved] &= ok_m
    # p >= 1e16 > 2**53 is an even integer, so rounding p + err half to even
    # adds rint(err) to it.
    digits = p.astype(np.int64)
    digits += np.rint(err).astype(np.int64)
    carry = digits == 10**17
    digits[carry] = 10**16
    e += carry
    ok &= e <= _E_MAX

    high, low = np.divmod(digits, 10**8)
    first, high = np.divmod(high, 10**8)
    groups = (*np.divmod(high, 10**4), *np.divmod(low, 10**4))
    rows[:, 0] = _HEAD_WORD
    rows[:, 1] = lead_word.take(first)
    for j, g in enumerate(groups):
        rows[:, 2 + j] = group_word.take(g)
    rows[:, 6] = exp_word.take(e - _E_MIN)
    rows[:, 7] = _SEPARATOR_WORD
    chars = rows.view(np.uint8)
    # 17 digits unless the last is 0; only those look the count up.
    length = np.full(n, 17, dtype=np.intp)
    tail = np.flatnonzero(groups[3] % 10 == 0)
    if tail.size:
        length[tail] = np.maximum(
            np.maximum(group_l[0].take(groups[0][tail]), group_l[1].take(groups[1][tail])),
            np.maximum(group_l[2].take(groups[2][tail]), group_l[3].take(groups[3][tail])),
        )
    wide = np.flatnonzero(ok & (e > 0))
    if wide.size:
        chars[wide] = chars[wide[:, None], point_shift[e[wide]]]

    kind = np.where(ok, 2 * (e - _E_MIN) + np.signbit(values), _FALLBACK)
    for i in np.flatnonzero(~ok):
        text = format(float(values[i]), ".17g").encode("ascii")
        chars[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
        length[i] = len(text)
    return kind, length
