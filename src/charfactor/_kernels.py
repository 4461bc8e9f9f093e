"""Exact series kernels: one code path per operation.

The series layer (:mod:`charfactor.series`) is exact: coefficients are
arbitrary-precision Python integers.  The kernels here compute on int64
arrays and carry past int64 on one representation, limb-major
base-2**LIMB_BITS limbs: an int64 array of shape ``(W, n)`` whose column j
is coefficient j and whose row k is the k-th limb of every coefficient, one
contiguous row per limb, each limb in [0, 2**LIMB_BITS) but the signed top
one (:func:`_carry`).  :func:`limb_ints` builds Python ints from them and
:func:`limb_signs` reads one sign vector.

* :func:`scatter` adds a multiple of one coefficient list per sparse term:
  the partition numbers on stride n in
  :func:`charfactor.series.over_euler_limbs`, which takes every scan stream
  and every quotient longer than ``series.PLAIN_QUOTIENT_LEN`` (shorter ones,
  such as certificate prefixes, are summed in Python ints), and, in one
  call, :func:`convolve`, the general multiply that no package path calls.
  Its input picks one of three regimes.  Below 2**62 it sums one int64 row
  of values.  Past that, with every coefficient at most 63, it
  adds residue-major and row-major, ``(n, rows, W)``, so that each term is
  one contiguous add of the limb table, and it carries only when the terms
  added since the last carry could push a limb past 2**62; one transposed
  copy then gives the ``(W, n_out)`` limbs of the final carry.  A limb of
  LIMB_BITS = 56 bits leaves 6 bits of an int64 slot free: 63 unit terms
  fit between carries, and the 152-bit p(2000) takes 3 limbs.  A larger
  coefficient, which only :func:`convolve` and the public quotients pass,
  takes the plain sum in Python ints, converted to limbs once.
* :func:`invert_unit` inverts a unit series by the sparse recurrence over
  its nonzero terms, adding or subtracting where a term is +-1.
* :func:`binomial_product` expands truncated products of Pochhammer
  factors.  Each factor is a triple ``(m0, d, s)`` with ``1 <= m0 <
  n_out``, ``d >= 1`` and ``s = +-1``: the binomials ``(1 - s q^(m0 + t
  d))`` for every t >= 0, truncated at n_out.  A single binomial ``(1 - s
  q^m)`` is ``(m, n_out, s)``.  The binomials run in ascending order of
  shift, one ufunc pass over the coefficients each, in one loop: on one
  int64 limb while every coefficient stays below 2**62, then on limbs,
  whose transpose it carries.  A binomial whose read and write windows
  overlap writes into a second array and the two swap, so no window is
  copied before it is read.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import NamedTuple

import numpy as np

#: int64 holds magnitudes below LIMIT.  A binomial product keeps
#: ``max|c| < HALF`` before each factor, so that ``c[j] -+ c[j-m]`` stays
#: below LIMIT; where it cannot, it carries into LIMB_BITS-bit limbs instead,
#: which leave ``62 - LIMB_BITS`` bits of each int64 below HALF for the adds between carries.
LIMIT = 1 << 63
HALF = LIMIT // 2
LIMB_BITS = 56
LIMB_MASK = (1 << LIMB_BITS) - 1

#: the ufuncs of one binomial step or scatter add, bound once
_SUBTRACT, _ADD = np.subtract, np.add

#: the only lane; kept as a constant for benchmark stamps
LANE = "numpy"


# ---------------------------------------------------------------------------
# sparse-times-dense sums on limbs
# ---------------------------------------------------------------------------

class LimbTable(NamedTuple):
    """A coefficient list prepared for :func:`scatter`: built once, read by every call.

    ``values`` is the list itself, not a copy, for the plain sum;
    ``peaks[k]`` is ``max |values[:k+1]|``; ``small`` holds, as int64, the
    values before the first one of magnitude HALF or more; ``limbs`` holds
    them all as signed base-2**LIMB_BITS digits (:func:`_to_limbs`), row-major,
    one row per value, so that :func:`scatter`'s adds stay flat.
    """

    values: list[int]
    peaks: list[int]
    small: np.ndarray
    limbs: np.ndarray


def limb_table(values: list[int]) -> LimbTable:
    """The :class:`LimbTable` of a list of Python ints."""
    peaks = list(accumulate(map(abs, values), max))
    small = np.array(values[: bisect_left(peaks, HALF)], np.int64)
    return LimbTable(values, peaks, small, _to_limbs(values, _width(peaks[-1] if peaks else 0)))


def _width(bound: int) -> int:
    """Limbs that hold every magnitude up to ``bound``: ``bound < 2**(LIMB_BITS * width)``."""
    return max(1, -(-bound.bit_length() // LIMB_BITS))


def _to_limbs(values: list[int], width: int) -> np.ndarray:
    """``width`` int64 limb columns of each value: the base-2**LIMB_BITS digits of ``|v|``, signed like v.

    Every limb is below 2**LIMB_BITS in magnitude, and the limbs of a value
    below ``2**(LIMB_BITS * k)`` vanish from column k on, whatever its sign.
    """
    limbs = np.empty((len(values), width), np.int64)
    mags = [abs(v) for v in values]
    for k in range(width):
        limbs[:, k] = [(m >> (k * LIMB_BITS)) & LIMB_MASK for m in mags]
    negative = [v < 0 for v in values]
    if any(negative):
        limbs[negative] *= -1
    return limbs


def convolve(a: list[int], b: list[int], n_out: int) -> list[int]:
    """Coefficients 0..n_out-1 of the product of two coefficient lists, exact.

    One :func:`scatter` call adds a multiple of one operand per nonzero term
    of the other, the operand with fewer nonzero terms below n_out.
    """
    x, y = sorted((a[:n_out], b[:n_out]), key=lambda v: len(v) - v.count(0))
    return limb_ints(scatter(enumerate(x), limb_table(y), 1, n_out))


def scatter(terms, table: LimbTable, stride: int, n_out: int) -> np.ndarray:
    """Carried limbs of coefficients 0..n_out-1 of ``sum_{(i, c) in terms} c q**i * y(q**stride)``, exact.

    ``terms`` are ``(index, coefficient)`` pairs in any order and ``table``
    is :func:`limb_table` of y; terms at index n_out or past it are ignored,
    and a nonzero coefficient at a negative index raises ``ValueError``.
    Returns limb-major limbs, an int64 array of shape ``(W, n_out)``: column
    i holds coefficient i as ``sum_k limbs[k, i] 2**(LIMB_BITS k)``, every
    limb but the signed top one in ``[0, 2**LIMB_BITS)`` (read by
    :func:`limb_ints` and :func:`limb_signs`).  W comes from the bound
    ``sum |c| * max |y|`` on every partial sum, and the input picks one of
    three regimes.  Below HALF, W = 1: the one row holds the values, and
    each term is one strided int64 add.  Otherwise, when every ``|c| <= cap
    = HALF / 2**LIMB_BITS - 1``, the sum runs residue-major and row-major,
    as ``out[(r*rows + q) * W:]`` for index ``r + stride*q``, so that each
    term is one flat contiguous add of ``c * y``'s limbs.  After a carry
    every limb is at most 2**LIMB_BITS in magnitude and such an add raises
    it by less than ``|c| * 2**LIMB_BITS``, so the kernel carries again, on
    the transposed view, only before the ``|c|`` added since the last carry
    would sum past cap.  One transposed copy to ``(W, rows * stride)`` puts
    the coefficients in order, and the final carry runs on its contiguous
    rows.  A larger ``|c|``, which only :func:`convolve` and the public
    quotients pass, takes the plain sum in Python ints (:func:`_plain_sum`)
    over ``table.values``, converted to limbs and carried once.
    """
    rows = -(-n_out // stride)
    t = min(rows, len(table.peaks))
    peak = table.peaks[t - 1] if t else 0
    kept, total = [], 0
    for i, c in terms:
        if c and i < n_out:
            if i < 0:
                raise ValueError(f"scatter: negative term index {i}")
            kept.append((i, c))
            total += abs(c)
    bound = total * peak
    if bound < HALF:
        out = np.zeros(n_out, np.int64)
        y = table.small
        for i, c in kept if bound else ():  # y is zero where the terms reach; c may pass int64
            seg = out[i::stride][:t]
            if c == 1:
                seg += y[: len(seg)]
            elif c == -1:
                seg -= y[: len(seg)]
            else:
                seg += c * y[: len(seg)]
        return out[None, :]
    w, cap = _width(bound), (HALF >> LIMB_BITS) - 1
    if any(abs(c) > cap for _, c in kept):
        return _carry(np.ascontiguousarray(_to_limbs(_plain_sum(kept, table.values[:t], stride, n_out), w).T))
    y = table.limbs[:t]
    if y.shape[1] != w:  # the columns past either width are zero
        y, k = np.zeros((t, w), np.int64), min(w, y.shape[1])
        y[:, :k] = table.limbs[:t, :k]
    y, rw, tw = y.reshape(-1), rows * w, t * w
    out = np.zeros(stride * rw, np.int64)  # residue r's rows start at r * rw
    load = 0
    for i, c in kept:
        d = abs(c)
        if load + d > cap:
            _carry(out.reshape(-1, w).T)  # in place, as below
            load = 0
        q, r = divmod(i, stride)
        start, span = r * rw + q * w, rw - q * w
        if span > tw:
            span = tw
        seg = out[start : start + span]
        (_ADD if c > 0 else _SUBTRACT)(seg, y[:span] if d == 1 else d * y[:span], seg)
        load += d
    # at stride 1 the reshape alone would be a strided view, so copy; |partial sums| <= bound
    # < 2**(LIMB_BITS w): every carry leaves |top| <= 2**LIMB_BITS, in place
    plane = np.ascontiguousarray(out.reshape(stride, rows, w).transpose(2, 1, 0)).reshape(w, -1)
    return _carry(plane[:, :n_out])


def _plain_sum(terms, values: list[int], stride: int, n_out: int) -> list[int]:
    """The Python ints of coefficients 0..n_out-1 of ``sum_{(i, c) in terms} c q**i * sum_j values[j] q**(stride j)``."""
    out, y = np.zeros(n_out, object), np.array(values, object)
    for i, c in terms:
        seg = out[i::stride][: len(y)]
        seg += c * y[: len(seg)]
    return out.tolist()


def limb_ints(limbs: np.ndarray) -> list[int]:
    """The Python ints ``sum_k limbs[k] 2**(LIMB_BITS k)`` of the columns of limb rows ``(W, n)``."""
    rows = limbs.tolist()
    out = rows.pop()
    while rows:
        out = [(hi << LIMB_BITS) + lo for hi, lo in zip(out, rows.pop())]
    return out


def limb_signs(limbs: np.ndarray) -> np.ndarray:
    """The signs, -1, 0 or +1 as int8, of the columns of carried limb rows ``(W, n)``, read without building their ints.

    Below a signed top limb every limb lies in [0, 2**LIMB_BITS), so a column
    has the sign of its top limb, or is positive when that is zero and any
    lower limb is not.
    """
    signs = np.sign(limbs[-1]).astype(np.int8)
    signs |= limbs[:-1].any(axis=0)  # -1 | 1 = -1
    return signs


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def invert_unit(a: list[int], n_out: int) -> tuple[list[int], int]:
    """``(coeffs, n_out)``: coefficients 0..n_out-1 of ``1/a`` for ``a[0]`` = +-1, exact.

    Each coefficient is a sum over the nonzero terms of ``a`` only, so
    inverting ``(q;q)``, with O(sqrt(N)) terms, costs O(N**1.5) additions:
    a term of +-1 adds or subtracts, and only another coefficient multiplies.
    The second item, always ``n_out``, is the length computed.
    """
    c0 = a[0]
    nz = [(i, c) for i, c in enumerate(a[1:n_out], 1) if c]
    plus = [i for i, c in nz if c == 1]
    minus = [i for i, c in nz if c == -1]
    other = [(i, c) for i, c in nz if c != 1 and c != -1]
    b = [0] * n_out
    b[0] = c0
    for k in range(1, n_out):
        s = 0
        for i in plus:
            if i > k:
                break
            s += b[k - i]
        for i in minus:
            if i > k:
                break
            s -= b[k - i]
        for i, ai in other:
            if i > k:
                break
            s += ai * b[k - i]
        b[k] = -s if c0 == 1 else s
    return b, n_out


# ---------------------------------------------------------------------------
# binomial products
# ---------------------------------------------------------------------------

def binomial_product(n_out, factors):
    """Coefficients 0..n_out-1 of the product of the Pochhammer ``factors``, exact.

    Returns ``(coeffs, one_limb)``: a list of Python ints, and whether every
    partial product fit one int64 limb.  The binomials run in ascending
    order of shift, stable among equal shifts, in batches of :func:`_apply`.
    A binomial at most doubles max|c|: on one limb, a maximum of b bits lets
    the next ``63 - b`` run below HALF before each.  Once it reaches HALF the
    array becomes its own ``(n_out, 1)`` view, and a carry before each batch
    lets the next ``62 - LIMB_BITS``, six, run.  The carry takes the transpose,
    the ``(W, n_out)`` limbs, and its first call adds limb rows, so from then
    on ``c`` is the transpose of limb-major memory: binomials still slice
    ``c[m:w]``, and every limb is one contiguous row.  Shifts ascend, so a
    batch leaves the columns below its first shift as they were, and each
    later carry covers only the columns from there to w.
    """
    k, keys = len(factors), []
    for i, (m0, d, _) in enumerate(factors):  # shift m of factor i sorts as m*k + i: by m, then by i
        keys += range(m0 * k + i, n_out * k, d * k)
    keys.sort()
    ms, ss = [key // k for key in keys], [factors[key % k][2] for key in keys]
    c = np.zeros(n_out, np.int64)
    c[0] = 1
    spare, same, w, done, bits, low = None, 0, 1, 0, 1, 0
    while done < len(ms):
        if c.ndim > 1:  # the columns below the last batch's first shift, and from w on, are carried
            limbs = _carry(c.T[:, low:w])
            if len(limbs) > c.shape[1]:  # rows added: every column takes them
                wide = np.zeros((len(limbs), n_out), np.int64)
                wide[: c.shape[1]] = c.T
                wide[:, low:w] = limbs
                c = wide.T
            same, bits, low = 0, LIMB_BITS + 1, ms[done]
            if spare is not None and spare.shape != c.shape:
                spare = None
        start, done = done, min(done + HALF.bit_length() - bits, len(ms))
        c, spare, same, w = _apply(c, spare, same, w, ms[start:done], ss[start:done])
        if c.ndim == 1 and done < len(ms):
            peak = max(int(c[:w].max()), -int(c[:w].min()))
            bits = peak.bit_length()
            if peak >= HALF:
                c = c[:, None]
    return (c.tolist(), True) if c.ndim == 1 else (limb_ints(c.T), False)


def _apply(c, spare, same, w, shifts, signs):
    """Apply each factor ``(1 - s q**m)`` for m, s in ``shifts``, ``signs``, in one ufunc pass.

    ``c[:w]`` holds the coefficients (scalars, or rows of limbs) and the rest
    of ``c`` is zero; returns the new ``(c, spare, same, w)``.  With w
    widened by the factor, if ``2m >= w`` the read window ``[0, w-m)`` and
    the write window ``[m, w)`` are disjoint, and the factor applies in
    place.  Otherwise the result goes into ``spare``, allocated on first
    use, which takes over ``c[:m]`` and swaps roles with ``c``.
    ``spare[:same]`` already equals ``c[:same]``: ``same`` is the shift of
    the last swap, below the shift of any later in-place step, and
    coefficients below a shift do not change, so after ascending shifts
    almost nothing is copied.  Both arrays stay zero from w on, because w
    only grows.  No ufunc sees overlapping operands.
    """
    n_out = len(c)
    for m, s in zip(shifts, signs):
        w += m
        if w > n_out:
            w = n_out
        if 2 * m >= w:
            if s > 0:
                c[m:w] -= c[: w - m]
            else:
                c[m:w] += c[: w - m]
        else:
            if spare is None:
                spare = np.zeros_like(c)
            (_SUBTRACT if s > 0 else _ADD)(c[m:w], c[: w - m], spare[m:w])
            if same < m:
                spare[same:m] = c[same:m]
            c, spare, same = spare, c, m
    return c, spare, same, w


def _carry(limbs):
    """Carry every limb row but the signed top one into [0, 2**LIMB_BITS); add rows until |top| < 2**(LIMB_BITS+1).

    ``limbs`` has shape ``(W, n)``, one row per limb, and is carried in place;
    a row view such as ``a.T`` works too.  The result is ``limbs`` itself unless
    rows had to be added.
    """
    for k in range(len(limbs) - 1):
        limbs[k + 1] += limbs[k] >> LIMB_BITS
        limbs[k] &= LIMB_MASK
    while np.abs(limbs[-1]).max() >= 1 << (LIMB_BITS + 1):
        limbs = np.vstack((limbs, limbs[-1:] >> LIMB_BITS))
        limbs[-2] &= LIMB_MASK
    return limbs


def warmup() -> None:
    """Run tiny inputs through the kernels that certificates and scans reach, and each regime of :func:`scatter`."""
    a = [1, -1]
    table = limb_table(a)
    scatter([(0, 1)], table, 1, 3)  # one row of values
    scatter([(0, 1)], limb_table([HALF]), 1, 3)  # flat limb adds
    scatter([(0, HALF)], table, 1, 3)  # the plain sum
    invert_unit(a, 3)
