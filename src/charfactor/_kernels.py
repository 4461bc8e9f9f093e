"""Hot int64 kernels with a numba lane and a pure-numpy lane.

The series layer (:mod:`charfactor.series`) is exact: coefficients are
arbitrary-precision Python integers.  Truncated convolution and power-series
inversion run here whenever a conservative magnitude bound shows that no
int64 intermediate can overflow, in one of two interchangeable lanes:

* a numba ``@njit`` lane (default whenever numba imports), and
* a pure numpy lane, selected by setting ``CHARFACTOR_NUMBA=0``.

``invert_unit`` bails out early with a partial result when its running bound
would be violated; ``convolve`` relies on the caller's precomputed bound.
``binomial_product``, shared by both lanes, is exact at any size: past int64
it continues on base-2**30 int64 limbs.
"""

from __future__ import annotations

import os
from itertools import chain

import numpy as np

#: Intermediates are kept strictly below 2**61 so that adding two of them,
#: or accumulating one more product term, still fits in int64; a binomial
#: product whose bound reaches HALF carries into LIMB_BITS-bit limbs instead.
LIMIT = 1 << 61
HALF = LIMIT // 2
LIMB_BITS = 30
LIMB_MASK = (1 << LIMB_BITS) - 1


# ---------------------------------------------------------------------------
# loop bodies (compiled by numba when available)
# ---------------------------------------------------------------------------

def _convolve_loops(a, b, n_out):
    out = np.zeros(n_out, np.int64)
    la = a.shape[0]
    lb = b.shape[0]
    imax = min(la, n_out)
    for i in range(imax):
        ai = a[i]
        if ai == 0:
            continue
        jmax = min(lb, n_out - i)
        for j in range(jmax):
            out[i + j] += ai * b[j]
    return out


def _invert_loops(a, n_out):
    b = np.zeros(n_out, np.int64)
    la = a.shape[0]
    c0 = a[0]
    b[0] = c0
    amax = np.int64(1)
    for i in range(la):
        v = a[i]
        if v < 0:
            v = -v
        if v > amax:
            amax = v
    lim = LIMIT // amax
    total = np.int64(1)
    for k in range(1, n_out):
        if total >= lim:
            return b, k
        lo = k - la + 1
        if lo < 0:
            lo = 0
        s = np.int64(0)
        for i in range(lo, k):
            s += b[i] * a[k - i]
        v = -c0 * s
        b[k] = v
        if v < 0:
            v = -v
        total += v
    return b, n_out


# ---------------------------------------------------------------------------
# numpy lane
# ---------------------------------------------------------------------------

def _np_convolve(a, b, n_out):
    full = np.convolve(a, b)
    if full.shape[0] >= n_out:
        return full[:n_out].copy()
    out = np.zeros(n_out, np.int64)
    out[: full.shape[0]] = full
    return out


def _np_invert(a, n_out):
    b = np.zeros(n_out, np.int64)
    c0 = int(a[0])
    b[0] = c0
    la = a.shape[0]
    amax = max(int(np.abs(a).max()), 1)
    lim = LIMIT // amax
    total = 1
    for k in range(1, n_out):
        if total >= lim:
            return b, k
        lo = max(0, k - la + 1)
        if k > lo:
            s = int(np.dot(b[lo:k], a[k - lo:0:-1]))
        else:
            s = 0
        v = -c0 * s
        b[k] = v
        total += abs(v)
    return b, n_out


# ---------------------------------------------------------------------------
# binomial products (both lanes)
# ---------------------------------------------------------------------------

def binomial_product(shifts, signs, n_out):
    """Coefficients 0..n_out-1 of ``prod_t (1 - signs[t] q**shifts[t])``, exact.

    Every shift lies in [1, n_out).  Returns ``(coeffs, one_limb)``: a list
    of Python ints, and whether every partial product fit one int64 limb.
    """
    c = np.zeros(n_out, np.int64)
    c[0] = 1
    cur = 1
    top = 0
    factors = zip(shifts.tolist(), signs.tolist())
    for m, s in factors:
        if cur >= HALF:
            # cur only bounds max|c|; read the true maximum near the limit
            cur = int(np.abs(c[: top + 1]).max())
            if cur >= HALF:
                return _limb_product(c[None], chain(((m, s),), factors), top), False
        top = min(top + m, n_out - 1)
        w = top + 1
        seg = c[: w - m].copy()
        if s > 0:
            c[m:w] -= seg
        else:
            c[m:w] += seg
        cur *= 2  # one factor (1 -+ q^m) at most doubles max|c|
    return c.tolist(), True


def _limb_product(limbs, factors, top):
    """Continue the slice recurrence on base-2**LIMB_BITS limbs, one per row.

    The recurrence is linear, so it runs on every row at once; the rows are
    carried whenever the doubling bound on their magnitude reaches HALF.
    """
    n_out = limbs.shape[1]
    cur = HALF  # split the one-limb row before the first factor
    for m, s in factors:
        if cur >= HALF:
            limbs = _carry(limbs)
            cur = 1 << (LIMB_BITS + 1)
        top = min(top + m, n_out - 1)
        w = top + 1
        seg = limbs[:, : w - m].copy()
        if s > 0:
            limbs[:, m:w] -= seg
        else:
            limbs[:, m:w] += seg
        cur *= 2
    out = limbs[-1].tolist()
    for row in limbs[-2::-1]:
        out = [(hi << LIMB_BITS) + lo for hi, lo in zip(out, row.tolist())]
    return out


def _carry(limbs):
    """Carry every row but the signed top one into [0, 2**LIMB_BITS); add rows until |top| < 2**(LIMB_BITS+1)."""
    for k in range(limbs.shape[0] - 1):
        limbs[k + 1] += limbs[k] >> LIMB_BITS
        limbs[k] &= LIMB_MASK
    while np.abs(limbs[-1]).max() >= 1 << (LIMB_BITS + 1):
        limbs = np.vstack((limbs, limbs[-1] >> LIMB_BITS))
        limbs[-2] &= LIMB_MASK
    return limbs


# ---------------------------------------------------------------------------
# lane selection
# ---------------------------------------------------------------------------

NUMPY_LANE = {
    "convolve": _np_convolve,
    "invert_unit": _np_invert,
    "binomial_product": binomial_product,
}

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is the optional `numba` extra
    HAVE_NUMBA = False

if HAVE_NUMBA:
    NUMBA_LANE = {
        "convolve": njit(cache=True)(_convolve_loops),
        "invert_unit": njit(cache=True)(_invert_loops),
        "binomial_product": binomial_product,
    }
else:  # pragma: no cover
    NUMBA_LANE = None


def _env_wants_numba() -> bool:
    raw = os.environ.get("CHARFACTOR_NUMBA", "").strip().lower()
    if raw == "":
        return True
    return raw not in ("0", "false", "no", "off")


USE_NUMBA = HAVE_NUMBA and _env_wants_numba()
LANE = "numba" if USE_NUMBA else "numpy"

_active = NUMBA_LANE if USE_NUMBA else NUMPY_LANE
convolve = _active["convolve"]
invert_unit = _active["invert_unit"]


def warmup() -> None:
    """Run tiny inputs through the active lane (triggers JIT compilation)."""
    a = np.array([1, -1], np.int64)
    convolve(a, a, 3)
    invert_unit(a, 3)
    binomial_product(np.array([1, 2], np.int64), np.array([1, -1], np.int64), 4)
