"""The CSV text of a float table: each number exactly as '%.17g' % v prints
it, a block of rows at a time in numpy.

Digits.  For finite nonzero x, k = floor(log10 |x|) and y = |x| 10^(16 - k)
in long double, with 10^p from a table of correctly rounded powers.  Each
of the two roundings is a relative error of at most u = 2^-64, so y is
within 2u 10^17 < 1/64 of the exact product; when 10^p is exact
(0 <= p <= 27, as 5^27 < 2^64), within u 10^17 < 1/128.  As y < 2^57, its
integer part and fraction are exact.  Where the fraction is farther than
that bound from 1/2, no error carries the exact product across a half, so
rounding y half up gives the correctly rounded 17-digit integer D, and
D = 10^17 is 1.0000000000000000e(k + 1).  An exact product just below
10^16 whose y is not is read at exponent k where '%.17g' reads it at
k - 1, but there its digits round up to 10^17 (the product is within
10 * 1/64 of it), which is the same text.  A value within the bound of a
half (1 to 3 in 100), or whose y is below 10^16 or rounds above 10^17
(log10 rounded across an integer next to a power of ten), takes
'%.17g' % v itself, and so does every finite nonzero value where long
double has fewer than 64 significand bits: the same bytes, more slowly.

Text.  Each value owns SLOTS bytes: the sign, the "0.000" of exponents -1
to -4, the 17 digits each followed by a '.' slot, "e+-ddd" and the
separator.  Constants fill every slot but the digits and the exponent
digits.  A mask, looked up by (sign, exponent class, significant digits),
zeroes the slots '%.17g' does not write, and bytes.translate drops them.
nan and inf are spelt in the first three digit slots; a value left to the
fallback holds "%.17g" in its first five slots, and one bytes '%' per block
fills them all.
"""

from __future__ import annotations

import numpy as np

BLOCK_VALUES = 8192  # numbers per step: about 2 MB of temporaries
FAST = np.finfo(np.longdouble).nmant >= 63  # a 64-bit significand, as x87's 80-bit format

_P_MIN, _P_MAX = -292, 340  # 10^(16 - k) for k from floor(log10 5e-324) to 308
_P = np.arange(_P_MIN, _P_MAX + 1)
POW10 = np.array([f"1e{p}" for p in _P]).astype(np.longdouble)
_MARGIN = np.where((_P >= 0) & (_P <= 27), 1.0 / 128, 1.0 / 64)
_E8, _E16, _E17 = np.uint64(10 ** 8), np.uint64(10 ** 16), np.uint64(10 ** 17)

# slot layout of one value
_SIGN, _PREFIX, _DIGITS, _EXP, _SEP = 0, 1, 6, 40, 46
SLOTS = 47
_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 17 + b"e+-000,", dtype=np.uint8)
_FALLBACK = np.frombuffer(b"%.17g", dtype=np.uint8)
_FALLBACK_SLOTS = _TEMPLATE[:len(_FALLBACK)]  # the constants "%.17g" overwrites
_NAN, _INF = np.frombuffer(b"nan", dtype=np.uint8), np.frombuffer(b"inf", dtype=np.uint8)

# exponent classes: fixed notation for k in [-4, 16], then scientific with
# exponent e-dd, e-ddd, e+dd, e+ddd
_SCI = 21
_CLASSES = _SCI + 4
_WORD = 2 + 4  # nan and inf print as fixed notation at k = 2 with 3 digits


def _mask_rows() -> np.ndarray:
    """The slots a positive value writes, one row per (class, significant
    digits): row cls * 17 + nsig - 1."""
    cls, nsig = (a.reshape(-1, 1) for a in np.divmod(np.arange(_CLASSES * 17), 17))
    nsig += 1
    slot = np.arange(SLOTS)
    j, dot = np.divmod(slot - _DIGITS, 2)  # digit j (dot 0) or the '.' after it
    digit = (slot >= _DIGITS) & (slot < _EXP)
    k = cls - 4
    fixed, sci = cls < _SCI, cls >= _SCI
    # fixed notation: "0." and -k - 1 zeros before the digits where k < 0,
    # and every digit up to the units one, then '.' if more follow
    row = fixed & (k < 0) & (slot >= _PREFIX) & (slot <= _PREFIX - k)
    row |= digit & (dot == 0) & (j < np.where(fixed, np.maximum(nsig, k + 1), nsig))
    row |= digit & (dot == 1) & (j == np.where(fixed, k, 0)) & (nsig > j + 1)
    # scientific: 'e', one sign slot and two or three exponent digits
    positive, three = np.divmod(cls - _SCI, 2)
    row |= sci & ((slot == _EXP) | (slot == _EXP + 2 - positive)
                  | ((slot >= _EXP + 4 - three) & (slot < _EXP + 6)))
    return row | (slot == _SEP)


# _MASKS[(sign * _CLASSES + class) * 17 + nsig - 1]; the last row is a
# fallback value's
_MASKS = _mask_rows()
_MASKS = np.concatenate([_MASKS, _MASKS, np.zeros((1, SLOTS), dtype=bool)])
_MASKS[_CLASSES * 17:-1, _SIGN] = True
_MASKS[-1, :len(_FALLBACK)] = _MASKS[-1, _SEP] = True
_K_MIN = 16 - _P_MAX  # the class of exponent k is _CLASS_OF[k - _K_MIN]
_CLASS_OF = np.array([_SCI + (k <= -100) if k < -4 else
                      _SCI + 2 + (k >= 100) if k > 16 else k + 4
                      for k in range(_K_MIN, 18 - _P_MIN)])  # k + 1 after a carry


def _decimal_table(count: int, places: int, fill: bytes, sep: bytes) -> np.ndarray:
    """The bytes fill + d + sep + d + sep ... of the places-digit decimals
    of 0 .. count - 1, one row each: fill, then each digit followed by sep
    (either may be empty)."""
    i = np.arange(count)[:, None]
    digits = i // 10 ** np.arange(places - 1, -1, -1) % 10 + ord("0")
    width = len(sep) + 1
    out = np.empty((count, len(fill) + places * width), dtype=np.uint8)
    out[:, :len(fill)] = np.frombuffer(fill, dtype=np.uint8)
    out[:, len(fill)::width] = digits
    if sep:
        out[:, len(fill) + 1::width] = ord(sep)
    return out


_DIGITS4 = _decimal_table(10 ** 4, 4, b"", b".").view(np.uint64).ravel()  # "d.d.d.d." as one item
_EXP4 = _decimal_table(400, 3, b"-", b"").view(np.uint32).ravel()  # "-ddd"
_TRAILING4 = sum(np.arange(10 ** 4) % 10 ** t == 0  # the trailing zeros of "dddd"
                 for t in range(1, 5)).astype(np.int8)


def _digits(ax):
    """(k, D, exact) of positive finite ax: the decimal exponent and the
    17-digit integer of '%.17g', where exact says both are."""
    k = np.floor(np.log10(ax)).astype(np.intp)
    p = 16 - k - _P_MIN
    y = ax * POW10.take(p)
    whole = y.astype(np.uint64)
    frac = (y - whole).astype(float)
    D = whole + (frac > 0.5)
    exact = (np.abs(frac - 0.5) > _MARGIN.take(p)) & (whole >= _E16) & (D <= _E17)
    top = D == _E17
    D[top] = _E16
    return k + top, D, exact


def _block(x: np.ndarray, buf: np.ndarray):
    """Write the text of x into its slots, buf (x.size, SLOTS); the mask
    row of each value and the indices of the values left to the fallback."""
    buf = buf.reshape(x.size, SLOTS)
    finite = np.isfinite(x)
    regular = finite & (x != 0.0)
    if FAST:
        k, D, exact = _digits(np.where(regular, np.abs(x), 1.0))
        exact &= regular
        D[~exact] = 0  # +-0, at k = 0, prints one digit 0
    else:
        k, D = np.zeros(x.size, np.intp), np.zeros(x.size, np.uint64)
        exact = np.zeros(x.size, dtype=bool)
    high = (D // _E8).astype(np.uint32)
    low = (D - high.astype(np.uint64) * _E8).astype(np.uint32)
    lead = high // np.uint32(10 ** 8)
    high -= lead * np.uint32(10 ** 8)
    chunks = np.empty((x.size, 4), dtype=np.uint32)
    chunks[:, 0] = high // np.uint32(10 ** 4)
    chunks[:, 1] = high - chunks[:, 0] * np.uint32(10 ** 4)
    chunks[:, 2] = low // np.uint32(10 ** 4)
    chunks[:, 3] = low - chunks[:, 2] * np.uint32(10 ** 4)
    digits = buf[:, _DIGITS:_EXP:2]
    digits[:, 0] = lead + ord("0")
    buf[:, _DIGITS + 2:_EXP] = _DIGITS4.take(chunks).view(np.uint8).reshape(x.size, 32)
    sci = np.flatnonzero((k < -4) | (k > 16))
    buf[sci, _EXP + 2:_SEP] = _EXP4.take(np.abs(k[sci])).view(np.uint8).reshape(sci.size, 4)
    tz = _TRAILING4.take(chunks.T)
    zero = chunks.T == 0
    trailing = tz[3] + zero[3] * (tz[2] + zero[2] * (tz[1] + zero[1] * tz[0]))
    key = (np.signbit(x) * _CLASSES + _CLASS_OF.take(k - _K_MIN)) * 17 + 16 - trailing
    word = np.flatnonzero(~finite)
    if word.size:
        nan = np.isnan(x[word])
        digits[word, :3] = np.where(nan[:, None], _NAN, _INF)
        key[word] = ((np.signbit(x[word]) & ~nan) * _CLASSES + _WORD) * 17 + 2
    fallback = np.flatnonzero(regular & ~exact)
    key[fallback] = len(_MASKS) - 1
    buf[fallback, :len(_FALLBACK)] = _FALLBACK
    return _MASKS.take(key, axis=0), fallback


def encode(table):
    """The rows of a float table (rows, columns) as CSV text, each number as
    '%.17g' % v prints it, ',' between columns and '\\n' after each row: one
    bytes object per block of rows of at most BLOCK_VALUES numbers (or one
    row)."""
    table = np.asarray(table, dtype=float)
    nrows, ncols = table.shape
    step = max(1, min(BLOCK_VALUES // ncols, nrows))
    template = np.tile(_TEMPLATE, (ncols, 1))
    template[-1, _SEP] = ord("\n")
    buf = np.empty((step, ncols, SLOTS), dtype=np.uint8)
    buf[:] = template
    for start in range(0, nrows, step):
        x = table[start:start + step].ravel()
        block = buf[:len(x) // ncols]
        kept, fallback = _block(x, block)
        kept = kept.view(np.uint8).reshape(block.shape)
        text = np.multiply(block, kept, out=kept).tobytes().translate(None, b"\0")
        if fallback.size:
            text %= tuple(x[fallback].tolist())
            block.reshape(-1, SLOTS)[fallback, :len(_FALLBACK)] = _FALLBACK_SLOTS
        yield text

