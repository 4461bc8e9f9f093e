"""Hot int64 kernels with a numba lane and a pure-numpy lane.

The series layer (:mod:`charfactor.series`) is exact: coefficients are
arbitrary-precision Python integers.  The O(N^2) inner loops — truncated
convolution, power-series inversion and iterated binomial products — run
through the kernels in this module whenever a conservative magnitude bound
shows that no int64 intermediate can overflow; otherwise the series layer
computes them on Python ints (numpy ``dtype=object`` arrays for the
convolution and the binomial products, a plain loop for inversion).

Two interchangeable lanes implement each kernel:

* a numba ``@njit`` lane (default whenever numba imports), and
* a pure numpy lane, selected by setting ``CHARFACTOR_NUMBA=0``.

``invert_unit`` and ``binomial_product`` track a running magnitude bound
and bail out early with a partial result when the bound would be violated;
``convolve`` relies on the caller's precomputed bound.
"""

from __future__ import annotations

import os

import numpy as np

#: Intermediates are kept strictly below 2**61 so that adding two of them,
#: or accumulating one more product term, still fits in int64.
LIMIT = 1 << 61


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


def _binomial_loops(shifts, signs, n_out):
    c = np.zeros(n_out, np.int64)
    c[0] = 1
    cur = np.int64(1)
    half = LIMIT // 2
    top = 0
    for t in range(shifts.shape[0]):
        if cur >= half:
            return c, False
        m = shifts[t]
        s = signs[t]
        top = top + m
        if top > n_out - 1:
            top = n_out - 1
        if s > 0:
            for k in range(top, m - 1, -1):
                v = c[k - m]
                if v != 0:
                    c[k] -= v
        else:
            for k in range(top, m - 1, -1):
                v = c[k - m]
                if v != 0:
                    c[k] += v
        cur = np.int64(0)
        for k in range(top + 1):
            v = c[k]
            if v < 0:
                v = -v
            if v > cur:
                cur = v
    return c, True


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


def _np_binomial(shifts, signs, n_out):
    c = np.zeros(n_out, np.int64)
    c[0] = 1
    cur = 1
    half = LIMIT // 2
    top = 0
    for m, s in zip(shifts.tolist(), signs.tolist()):
        if cur >= half:
            # cur only bounds max|c|; read the true maximum near the limit
            cur = int(np.abs(c[: top + 1]).max())
            if cur >= half:
                return c, False
        top = min(top + m, n_out - 1)
        w = top + 1
        seg = c[: w - m].copy()
        if s > 0:
            c[m:w] -= seg
        else:
            c[m:w] += seg
        cur *= 2  # one factor (1 -+ q^m) at most doubles max|c|
    return c, True


# ---------------------------------------------------------------------------
# lane selection
# ---------------------------------------------------------------------------

NUMPY_LANE = {
    "convolve": _np_convolve,
    "invert_unit": _np_invert,
    "binomial_product": _np_binomial,
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
        "binomial_product": njit(cache=True)(_binomial_loops),
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
binomial_product = _active["binomial_product"]


def warmup() -> None:
    """Run tiny inputs through the active lane (triggers JIT compilation)."""
    a = np.array([1, -1], np.int64)
    convolve(a, a, 3)
    invert_unit(a, 3)
    binomial_product(np.array([1, 2], np.int64), np.array([1, -1], np.int64), 4)
