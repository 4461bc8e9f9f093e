"""Exact series kernels: one code path per operation.

The series layer (:mod:`charfactor.series`) is exact: coefficients are
arbitrary-precision Python integers, and so is every kernel here.

* :func:`scatter` adds a multiple of one coefficient array per sparse term,
  as slice operations on numpy ``dtype=object`` arrays.  It is the loop of
  :func:`convolve`, which multiplies truncated series over the nonzero terms
  of the sparser operand, and it builds the scan streams directly from their
  theta terms and the partition numbers.
* :func:`invert_unit` inverts a unit series by the sparse recurrence over
  its nonzero terms.
* :func:`binomial_product` expands products of binomials ``(1 -+ q^m)``,
  one ufunc pass over the coefficients per factor, on one int64 limb while
  every coefficient stays below 2**62; past that it continues on base-2**30
  int64 limbs.  A factor whose read and write windows overlap writes into a
  second array and the two swap, so no window is copied before it is read.
"""

from __future__ import annotations

import numpy as np

#: int64 holds magnitudes below LIMIT.  A binomial product keeps
#: ``max|c| < HALF`` before each factor, so that ``c[j] -+ c[j-m]`` stays
#: below LIMIT; where it cannot, it carries into LIMB_BITS-bit limbs instead.
LIMIT = 1 << 63
HALF = LIMIT // 2
LIMB_BITS = 30
LIMB_MASK = (1 << LIMB_BITS) - 1

#: the ufuncs of one binomial step, bound once
_SUBTRACT, _ADD = np.subtract, np.add

#: the only lane; kept as a constant for benchmark stamps
LANE = "numpy"


# ---------------------------------------------------------------------------
# convolution and inversion
# ---------------------------------------------------------------------------

def convolve(a: list[int], b: list[int], n_out: int) -> list[int]:
    """Coefficients 0..n_out-1 of the product of two coefficient lists, exact.

    Each operand is first thinned to the gcd of its nonzero indices
    (``1/(q^n;q^n)`` lives on the multiples of n); then :func:`scatter`
    adds a multiple of one operand per nonzero term of the other, choosing
    the operand whose terms times the other's thinned length is the smaller.
    """
    x, sx, kx = _thinned(a)
    y, sy, ky = _thinned(b)
    if kx * len(y) > ky * len(x):
        x, sx, y, sy = y, sy, x, sx
    terms = ((d * sx, x[d]) for d in np.flatnonzero(x).tolist())
    return scatter(terms, y, sy, n_out).tolist()


def scatter(terms, y: np.ndarray, stride: int, n_out: int) -> np.ndarray:
    """Coefficients 0..n_out-1 of ``sum_{(i, c) in terms} c q**i * y(q**stride)``, exact.

    ``terms`` are ``(index, coefficient)`` pairs in ascending index order and
    ``y`` an object array of Python ints; each term adds ``c * y`` as one
    slice of a numpy object array, which is returned.
    """
    out = np.zeros(n_out, dtype=object)
    for i, c in terms:
        if i >= n_out:
            break
        seg = out[i::stride][: len(y)]
        if c == 1:
            seg += y[: len(seg)]
        elif c == -1:
            seg -= y[: len(seg)]
        else:
            seg += c * y[: len(seg)]
    return out


def _thinned(coeffs: list[int]) -> tuple[np.ndarray, int, int]:
    """(object array, stride, nonzero count) of ``coeffs`` on the coarsest grid keeping its terms."""
    arr = np.array(coeffs, dtype=object)
    nz = np.flatnonzero(arr)
    g = int(np.gcd.reduce(nz)) if nz.size else 1
    g = g or 1  # only the constant term is nonzero
    return arr[::g], g, nz.size


def invert_unit(a: list[int], n_out: int) -> tuple[list[int], int]:
    """``(coeffs, n_out)``: coefficients 0..n_out-1 of ``1/a`` for ``a[0]`` = +-1, exact.

    Each coefficient is a sum over the nonzero terms of ``a`` only, so
    inverting ``(q;q)``, with O(sqrt(N)) terms, costs O(N**1.5) products.
    The second item, always ``n_out``, is the length computed.
    """
    c0 = a[0]
    nz = [(i, c) for i, c in enumerate(a[1:n_out], 1) if c]
    b = [0] * n_out
    b[0] = c0
    for k in range(1, n_out):
        s = 0
        for i, ai in nz:
            if i > k:
                break
            s += ai * b[k - i]
        b[k] = -c0 * s
    return b, n_out


# ---------------------------------------------------------------------------
# binomial products
# ---------------------------------------------------------------------------

def binomial_product(shifts, signs, n_out):
    """Coefficients 0..n_out-1 of ``prod_t (1 - signs[t] q**shifts[t])``, exact.

    Every shift lies in [1, n_out).  Returns ``(coeffs, one_limb)``: a list
    of Python ints, and whether every partial product fit one int64 limb.
    Each factor is one ufunc pass over a 1-D int64 array (:func:`_apply`).
    A factor at most doubles max|c|, so a maximum of b bits lets the next
    ``63 - b`` factors run with every coefficient below HALF before each;
    then the true maximum is read again.  Once it reaches HALF the product
    runs on several limbs (:func:`_limb_product`) to the end.
    """
    c = np.zeros(n_out, np.int64)
    c[0] = 1
    factors = list(zip(shifts.tolist(), signs.tolist()))
    spare, same, w, done, peak = None, 0, 1, 0, 1
    while True:
        steps = HALF.bit_length() - peak.bit_length()
        c, spare, same, w = _apply(c, spare, same, w, factors[done : done + steps])
        done += steps
        if done >= len(factors):
            return c.tolist(), True
        peak = int(np.abs(c[:w]).max())
        if peak >= HALF:
            return _limb_product(c[:, None], factors[done:], w), False


def _apply(c, spare, same, w, factors):
    """Apply each ``(m, s)`` of ``factors``, the factor ``(1 - s q**m)``, in one ufunc pass.

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
    for m, s in factors:
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


def _limb_product(limbs, factors, w):
    """Continue :func:`_apply` on base-2**LIMB_BITS int64 limbs, one per column.

    The recurrence is linear, so each factor's pass runs on every limb at
    once, and a window of rows is one contiguous block.  After each carry
    every limb is below 2**(LIMB_BITS+1), so the next ``62 - LIMB_BITS``
    factors keep them below HALF.
    """
    spare = None
    steps = HALF.bit_length() - (LIMB_BITS + 1)
    for done in range(0, len(factors), steps):
        width = limbs.shape[1]
        limbs = _carry(limbs)
        if limbs.shape[1] != width:
            spare = None
        limbs, spare, _, w = _apply(limbs, spare, 0, w, factors[done : done + steps])
    out = limbs[:, -1].tolist()
    for col in limbs.T[-2::-1]:
        out = [(hi << LIMB_BITS) + lo for hi, lo in zip(out, col.tolist())]
    return out


def _carry(limbs):
    """Carry every limb but the signed top one into [0, 2**LIMB_BITS); add limbs until |top| < 2**(LIMB_BITS+1)."""
    for k in range(limbs.shape[1] - 1):
        limbs[:, k + 1] += limbs[:, k] >> LIMB_BITS
        limbs[:, k] &= LIMB_MASK
    while np.abs(limbs[:, -1]).max() >= 1 << (LIMB_BITS + 1):
        limbs = np.column_stack((limbs, limbs[:, -1] >> LIMB_BITS))
        limbs[:, -2] &= LIMB_MASK
    return limbs


def warmup() -> None:
    """Run tiny inputs through every kernel."""
    a = [1, -1]
    convolve(a, a, 3)
    invert_unit(a, 3)
    binomial_product(np.array([1, 2], np.int64), np.array([1, -1], np.int64), 4)
