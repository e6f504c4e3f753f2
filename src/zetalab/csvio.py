"""The CSV writers behind every table the package exports.

Every float cell reads as repr() of its value: the shortest decimal that
reads back to the same double and, of those, the nearest to it; positional
from 1e-4 up to 1e16, in exponent form outside.  Lines end in a bare
newline.

`write_csv` takes mixed rows and writes each cell's str (pass numpy values
as Python scalars, `ndarray.tolist()`: the repr of a numpy scalar is
np.float64(...)).

`write_float_columns` formats float64 columns in numpy, PIECE_ROWS rows at
a time, with the bytes of repr:

- Digits.  |x| = M 2^e2 is scaled by an exact 10^s to V = |x| 10^s in
  [1e16, 1e17), held exactly as a double-double (Dekker's product).  The
  decimals that read back to x fill [V - low gap, V + half ulp], where the
  low gap is half an ulp, or a quarter when M = 2^52.  That interval is
  more than one unit wide, so it holds integers, and the shortest decimals
  are among them: the multiples of the largest 10^j inside it.  Of those,
  the one nearest V is repr's choice, as in Ryu (Adams, PLDI 2018) and
  Schubfach (Giulietti 2020).
- Fallback.  repr() itself formats the cells outside [1e-4, 1e16) (the
  exponent form, zeros, nan and inf), the cells whose V a rounded log10
  put outside [2^53, 1e17), and the cells whose decision lies within
  2^-30 units of an interval end or of a tie between two nearest
  candidates (Grisu3's approach, Loitsch PLDI 2010).  The bytes are
  therefore those of repr by construction.
- Layout.  Each cell gets fixed columns: 16 integer digits, '.', 20
  fraction digits, written from four 9-digit int32 groups of the
  fixed-point value.  Leading and trailing zeros become NUL bytes, the
  sign and the separator go next to the first and last kept character,
  and one boolean compress of the non-NUL bytes yields the piece's rows.
"""

from __future__ import annotations

import csv

import numpy as np

# Rows per piece: the temporaries of a piece of 5 columns stay in cache,
# which made 2048 rows faster per cell than 8192 or more.
PIECE_ROWS = 2048

_POW10 = np.array([float(10**s) for s in range(22)])  # exact doubles
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for Dekker's product
_c = _SPLIT * _POW10
_POW10_HI = _c - (_c - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = np.array([10**e for e in range(9)], dtype=np.int64)
_BILLION = 10**9
# A decision closer than this to an integer, in units of V, goes to repr.
_MARGIN = 2.0**-30
# Per digit slot: 16 integer digits (10^15 .. 10^0), 20 fraction digits.
_WEIGHT = np.concatenate([np.arange(16, 0, -1), np.arange(1, 21)]).astype(np.uint8)[:, None]
_INT_RANK = np.arange(15, -1, -1, dtype=np.uint8)[:, None]
_FRAC_RANK = np.arange(20, dtype=np.uint8)[:, None]
_DIGIT0, _MINUS, _POINT, _COMMA, _NEWLINE = b"0-.,\n"


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For x > 0: (R, s, close) with R 10^-s the shortest-and-nearest
    decimal of x, valid where close is False."""
    frac, ex = np.frexp(x)
    s = 16 - np.floor(np.log10(x)).astype(np.int64)
    p = _POW10[s]
    p_hi = _POW10_HI[s]
    p_lo = _POW10_LO[s]
    hi = x * p
    c = _SPLIT * x
    x_hi = c - (c - x)
    x_lo = x - x_hi
    lo = ((x_hi * p_hi - hi) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo  # V = hi + lo
    half = (x / frac) * (p * 2.0**-54)  # half an ulp of x, times 10^s
    up = lo + half
    down = lo - np.where(frac == 0.5, 0.5 * half, half)
    up_floor = np.floor(up)
    down_ceil = np.ceil(down)
    # hi >= 2^53 is an integer.  The candidates are the integers in (b, a];
    # they are handled as small exact floats above base, a multiple of 100.
    hi_int = hi.astype(np.int64)
    base = hi_int // 100 * 100
    h = (hi_int - base).astype(np.float64)
    a = h + up_floor
    b = h + down_ceil - 1.0
    # Fewer than 100 candidates: at most one multiple of 100 (of 10 when
    # fewer than 10), and if there is one, no other candidate is as short.
    level = np.where(a - b >= 10.0, 10.0, 1.0)
    top = np.floor(a / (10.0 * level)) * (10.0 * level)
    unique = top > b
    # Otherwise the multiple of level nearest V.  It lies in (b, a] for
    # every double in [1e-4, 1e16) (only a power of two could miss, below
    # V, and none does); a cell where it would not goes to repr.
    q = (h + lo) / level
    q_floor = np.floor(q)
    q_frac = q - q_floor
    near = (q_floor + (q_frac > 0.5)) * level
    close = (
        (np.abs(up - up_floor - 0.5) > 0.5 - _MARGIN)
        | (np.abs(down_ceil - down - 0.5) > 0.5 - _MARGIN)
        | (((np.abs(q_frac - 0.5) < _MARGIN) | (near > a) | (near <= b)) & ~unique)
        | (hi < 2.0**53)
        | (hi >= 1e17)
    )
    return base + np.where(unique, top, near).astype(np.int64), s, close


def _fixed_groups(R: np.ndarray, s: np.ndarray) -> np.ndarray:
    """R 10^(20-s), a 36-digit integer, as four 9-digit int32 groups, the
    most significant first."""
    shift = 20 - s
    whole = (shift >= 9).astype(np.int64) + (shift >= 18)
    scale = _POW10_INT[shift - 9 * whole]
    upper = R // _BILLION
    u = (R - upper * _BILLION) * scale
    v = upper * scale
    u_hi = u // _BILLION
    v_hi = v // _BILLION
    mid = v - v_hi * _BILLION + u_hi
    carry = mid >= _BILLION
    # R 10^e = top 10^18 + mid 10^9 + low; shifted left by `whole` groups
    # that is [0, top, mid, low], [top, mid, low, 0] or [mid, low, 0, 0]
    # (top is 0 when whole is 2).
    top = v_hi + carry
    mid -= carry * _BILLION
    low = u - u_hi * _BILLION
    one, two = whole == 1, whole == 2
    groups = np.empty((4, R.size), np.int32)
    groups[0] = np.where(one, top, mid * two)
    groups[1] = np.where(one, mid, np.where(two, low, top))
    groups[2] = np.where(one, low, mid * (whole == 0))
    groups[3] = low * (whole == 0)
    return groups


def _format_cells(x: np.ndarray, seps: np.ndarray) -> bytes:
    """repr of each cell of x followed by its separator byte."""
    n = x.size
    mag = np.abs(x)
    fast = (mag >= 1e-4) & (mag < 1e16)
    R, s, close = _shortest(np.where(fast, mag, 1.0))
    slow = np.flatnonzero(close | ~fast)

    groups = _fixed_groups(R, s)
    digits = np.empty((4, 9, n), np.uint8)
    for i in range(8, -1, -1):
        quot = groups // 10
        digits[:, i] = groups - quot * 10
        groups = quot
    digits = digits.reshape(36, n)
    weight = (digits != 0) * _WEIGHT
    n_int = np.maximum(weight[:16].max(axis=0), 1)
    n_frac = np.maximum(weight[16:].max(axis=0), 1)
    n_int[slow] = 1
    n_frac[slow] = 1

    # Slot rows: 0 spare, 1-16 integer digits, 17 '.', 18-37 fraction
    # digits, 38-41 spare; dropped digits are NUL.
    slots = np.zeros((42, n), np.uint8)
    digits += _DIGIT0
    np.multiply(digits[:16], _INT_RANK < n_int, out=slots[1:17])
    slots[17] = _POINT
    np.multiply(digits[16:], _FRAC_RANK < n_frac, out=slots[18:38])

    texts = list(map(repr, x[slow].tolist()))
    lens = np.fromiter(map(len, texts), np.int64, len(texts))
    # Slots first .. first + width - 1 hold every kept byte: from the sign
    # slot of the widest integer part to the separator after the longest
    # fraction, or a repr fallback and its separator.
    first = 16 - int(n_int.max())
    width = max(int(n_frac.max()) + 19, int(lens.max(initial=0)) + 1 + first) - first
    cells = np.ascontiguousarray(slots[first:first + width].T)
    flat = cells.reshape(-1)
    base = np.arange(n) * width - first
    neg = np.flatnonzero(x < 0)
    flat[base[neg] + 16 - n_int[neg]] = _MINUS
    flat[base + 18 + n_frac] = seps
    if texts:
        text = np.frombuffer("".join(texts).encode("ascii"), np.uint8)
        cells[slow] = 0
        start = base[slow] + first
        flat[np.repeat(start - np.cumsum(lens) + lens, lens) + np.arange(text.size)] = text
        flat[start + lens] = seps[slow]
    return cells[cells != 0].tobytes()


def write_float_columns(path, header: list[str], columns) -> None:
    """Write float64 columns of equal length: the bytes of write_csv on
    their rows, each float as its repr.

    PIECE_ROWS rows at a time are stacked, formatted and written, so the
    writer's memory does not grow with the row count.  Within a piece, a
    cell in [1e-4, 1e16) takes the shortest-and-nearest digits of its
    rounding interval from numpy; a cell outside that range, or within
    2^-30 units of a rounding decision, is formatted by repr() (see the
    module docstring).
    """
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    rows = columns[0].size if columns else 0
    seps = np.full((PIECE_ROWS, len(columns)), _COMMA, np.uint8)
    seps[:, -1:] = _NEWLINE
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows, PIECE_ROWS):
            piece = np.stack([column[start:start + PIECE_ROWS] for column in columns], axis=1)
            fh.write(_format_cells(piece.reshape(-1), seps[: piece.shape[0]].reshape(-1)))
