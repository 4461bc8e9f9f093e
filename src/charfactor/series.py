"""Exact truncated power series with a rational exponent offset.

A :class:`ShiftedSeries` represents ``q**offset * sum(coeffs[d] * q**(d/den))``
with arbitrary-precision integer coefficients.  ``den`` is 1 for ordinary
series; it only grows when two series whose offsets differ by a non-integer
are added, in which case both are placed on the refined grid with spacing
``1/den`` (the lcm of the denominators involved).  The trusted truncation
bound is ``offset + order/den`` inclusive: every operation keeps the tightest
bound of its operands, and equality never reads past it.

All arithmetic is exact.  Convolution and inversion are dispatched to the
int64 kernel lanes in :mod:`charfactor._kernels` whenever a conservative
magnitude bound rules out overflow.  Otherwise they run on Python ints:
convolution as slice operations on a numpy ``dtype=object`` array, inversion
as a plain loop.  Results are identical either way.  Pochhammer products
always run on :func:`charfactor._kernels.binomial_product`, which carries
coefficients past int64 on several int64 limbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from . import _kernels


class SeriesError(ValueError):
    """Raised for structurally invalid series operations."""


@dataclass(frozen=True)
class SignedMonomial:
    """A term ``sign * q**exponent`` with ``sign`` in {+1, -1} and exponent >= 0.

    These are the arguments of the Pochhammer and theta-sum constructors;
    keeping the sign separate from the exponent lets sign bookkeeping stay in
    exact integer parity arithmetic.
    """

    sign: int
    exponent: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise SeriesError(f"monomial sign must be +1 or -1, got {self.sign}")
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise SeriesError(f"monomial exponent must be a nonnegative integer, got {self.exponent}")

    def __neg__(self) -> "SignedMonomial":
        return SignedMonomial(-self.sign, self.exponent)

    def __repr__(self) -> str:
        s = "" if self.sign > 0 else "-"
        return f"{s}q^{self.exponent}"


class ShiftedSeries:
    """Truncated formal power series ``q**offset * sum coeffs[d] q**(d/den)``."""

    __slots__ = ("offset", "den", "coeffs", "_max")

    def __init__(self, coeffs: Iterable[int], offset=0, den: int = 1):
        self._init([int(c) for c in coeffs], offset, den)

    @classmethod
    def _of_ints(cls, coeffs: list[int], offset=0, den: int = 1) -> "ShiftedSeries":
        """Take over a list that already holds Python ints, skipping ``int()`` per coefficient."""
        self = cls.__new__(cls)
        self._init(coeffs, offset, den)
        return self

    def _init(self, coeffs: list[int], offset, den: int) -> None:
        if not coeffs:
            raise SeriesError("a series needs at least its constant slot (order >= 0)")
        if not isinstance(den, int) or den < 1:
            raise SeriesError(f"grid denominator must be a positive integer, got {den}")
        if den > 1:
            # canonical form: shrink the grid when every nonzero index allows it
            g = den
            for d, c in enumerate(coeffs):
                if c:
                    g = math.gcd(g, d)
                    if g == 1:
                        break
            if g > 1:
                coeffs = coeffs[::g]
                den //= g
        self.offset = Fraction(offset)
        self.den = den
        self.coeffs = coeffs
        self._max: int | None = None

    # -- basic structure ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def bound(self) -> Fraction:
        """Largest absolute exponent whose coefficient is trusted."""
        return self.offset + Fraction(self.order, self.den)

    def exponent_at(self, d: int) -> Fraction:
        return self.offset + Fraction(d, self.den)

    def items(self) -> Iterator[tuple[Fraction, int]]:
        """Yield (absolute exponent, coefficient) for nonzero coefficients."""
        for d, c in enumerate(self.coeffs):
            if c:
                yield self.exponent_at(d), c

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def max_abs(self) -> int:
        if self._max is None:
            self._max = max(map(abs, self.coeffs))
        return self._max

    @classmethod
    def zero(cls, order: int, offset=0) -> "ShiftedSeries":
        return cls([0] * (order + 1), offset)

    @classmethod
    def one(cls, order: int) -> "ShiftedSeries":
        return cls([1] + [0] * order)

    def coefficient(self, exponent) -> int:
        """Coefficient at an absolute exponent; 0 off-grid, error past the bound."""
        e = Fraction(exponent)
        if e > self.bound:
            raise SeriesError(f"exponent {e} is beyond the trusted bound {self.bound}")
        idx = (e - self.offset) * self.den
        if idx < 0 or idx.denominator != 1:
            return 0
        i = int(idx)
        return self.coeffs[i] if i <= self.order else 0

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> "ShiftedSeries":
        return ShiftedSeries._of_ints([-c for c in self.coeffs], self.offset, self.den)

    def __add__(self, other):
        if isinstance(other, int):
            return self if other == 0 else NotImplemented
        if not isinstance(other, ShiftedSeries):
            return NotImplemented
        bound = min(self.bound, other.bound)
        base = min(self.offset, other.offset)
        den = math.lcm(self.den, other.den, (self.offset - other.offset).denominator)
        length = math.floor((bound - base) * den) + 1
        out = [0] * length
        for s in (self, other):
            idx = int((s.offset - base) * den)
            step = den // s.den
            for c in s.coeffs:
                if idx >= length:
                    break
                if c:
                    out[idx] += c
                idx += step
        return ShiftedSeries._of_ints(out, base, den)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, ShiftedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return ShiftedSeries._of_ints([c * other for c in self.coeffs], self.offset, self.den)
        if not isinstance(other, ShiftedSeries):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        sa = den // self.den
        sb = den // other.den
        la = self.order * sa + 1
        lb = other.order * sb + 1
        n_out = min(self.order * sa, other.order * sb) + 1
        offset = self.offset + other.offset
        ma = self.max_abs()
        mb = other.max_abs()
        if ma == 0 or mb == 0:
            return ShiftedSeries._of_ints([0] * n_out, offset, den)
        if ma * mb * min(la, lb, n_out) < _kernels.LIMIT:
            a = np.zeros(la, np.int64)
            a[::sa] = self.coeffs
            b = np.zeros(lb, np.int64)
            b[::sb] = other.coeffs
            out = _kernels.convolve(a, b, n_out)
            return ShiftedSeries._of_ints(out.tolist(), offset, den)
        return ShiftedSeries._of_ints(
            _convolve_object(self.coeffs, sa, other.coeffs, sb, n_out), offset, den
        )

    __rmul__ = __mul__

    def invert(self) -> "ShiftedSeries":
        """Multiplicative inverse up to truncation; needs leading coefficient ±1."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise SeriesError(f"non-invertible series: leading coefficient is {c0}")
        n_out = self.order + 1
        if self.max_abs() < _kernels.LIMIT:
            arr = np.array(self.coeffs, dtype=np.int64)
            out, valid = _kernels.invert_unit(arr, n_out)
            if valid == n_out:
                return ShiftedSeries._of_ints(out.tolist(), -self.offset, self.den)
        nz = [(i, c) for i, c in enumerate(self.coeffs) if c and i > 0]
        b = [0] * n_out
        b[0] = c0
        for k in range(1, n_out):
            s = 0
            for i, ai in nz:
                if i > k:
                    break
                s += ai * b[k - i]
            b[k] = -c0 * s
        return ShiftedSeries._of_ints(b, -self.offset, self.den)

    def substitute_power(self, n: int) -> "ShiftedSeries":
        """Substitute q -> q**n; offset, exponents and order all scale by n."""
        if not isinstance(n, int) or n < 1:
            raise SeriesError(f"substitution power must be a positive integer, got {n}")
        if n == 1:
            return self
        g = math.gcd(n, self.den)
        stride = n // g
        out = [0] * (self.order * stride + 1)
        for d, c in enumerate(self.coeffs):
            if c:
                out[d * stride] = c
        return ShiftedSeries._of_ints(out, self.offset * n, self.den // g)

    def shift(self, delta) -> "ShiftedSeries":
        """Multiply by q**delta (exact rational exponent shift)."""
        return ShiftedSeries(self.coeffs, self.offset + Fraction(delta), self.den)

    def truncated(self, bound) -> "ShiftedSeries":
        """Drop coefficients above an absolute exponent bound."""
        bound = Fraction(bound)
        if bound >= self.bound:
            return self
        new_order = math.floor((bound - self.offset) * self.den)
        if new_order < 0:
            raise SeriesError(f"truncation bound {bound} lies below the offset {self.offset}")
        return ShiftedSeries._of_ints(self.coeffs[: new_order + 1], self.offset, self.den)

    def as_integer_series(self) -> "ShiftedSeries":
        """Re-index on the integer grid, asserting exponents are integers >= 0.

        The result has offset 0 and order floor(bound).  A series with no
        surviving terms passes regardless of its offset.
        """
        n_out = max(math.floor(self.bound), 0)
        out = [0] * (n_out + 1)
        for d, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.exponent_at(d)
            if e.denominator != 1 or e < 0:
                raise SeriesError(f"non-integral series: coefficient {c} at exponent {e}")
            out[int(e)] = c
        return ShiftedSeries(out)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ShiftedSeries):
            return NotImplemented
        bound = min(self.bound, other.bound)
        return _items_upto(self, bound) == _items_upto(other, bound)

    __hash__ = None

    def __repr__(self) -> str:
        parts = []
        for d, c in enumerate(self.coeffs):
            if c:
                e = self.exponent_at(d)
                parts.append(f"{'+' if c > 0 else '-'} {abs(c)}*q^({e})")
                if len(parts) == 8:
                    parts.append("+ ...")
                    break
        body = " ".join(parts) if parts else "0"
        return f"<ShiftedSeries {body} | bound {self.bound}>"


def _items_upto(s: ShiftedSeries, bound: Fraction) -> dict[Fraction, int]:
    out = {}
    for d, c in enumerate(s.coeffs):
        if c:
            e = s.exponent_at(d)
            if e <= bound:
                out[e] = c
    return out


def _convolve_object(a: list[int], sa: int, b: list[int], sb: int, n_out: int) -> list[int]:
    """Exact truncated convolution of ``a`` on stride ``sa`` with ``b`` on stride ``sb``.

    Loops over the nonzero terms of one operand and adds each term's multiple
    of the other as one slice of a numpy object array.  Each operand is first
    thinned to the gcd of its nonzero indices (``1/(q^n;q^n)`` lives on the
    multiples of n), and the loop runs over the operand whose terms times the
    other's thinned length is the smaller.
    """
    x, sx, kx = _thinned(a, sa)
    y, sy, ky = _thinned(b, sb)
    if kx * len(y) > ky * len(x):
        x, sx, y, sy = y, sy, x, sx
    out = np.zeros(n_out, dtype=object)
    for d in np.flatnonzero(x).tolist():
        i = d * sx
        if i >= n_out:
            break
        c = x[d]
        seg = out[i::sy][: len(y)]
        if c == 1:
            seg += y[: len(seg)]
        elif c == -1:
            seg -= y[: len(seg)]
        else:
            seg += c * y[: len(seg)]
    return out.tolist()


def _thinned(coeffs: list[int], stride: int) -> tuple[np.ndarray, int, int]:
    """(object array, stride, nonzero count) of ``coeffs`` on the coarsest grid keeping its terms."""
    arr = np.array(coeffs, dtype=object)
    nz = np.flatnonzero(arr)
    g = int(np.gcd.reduce(nz)) if nz.size else 1
    g = g or 1  # only the constant term is nonzero
    return arr[::g], stride * g, nz.size


# ---------------------------------------------------------------------------
# product and theta-sum constructors
# ---------------------------------------------------------------------------

def pochhammer(factors: Iterable[SignedMonomial], base: SignedMonomial, order: int) -> ShiftedSeries:
    """Truncated infinite product ``prod_{i>=0} prod_j (1 - u_j * v**i)``.

    ``factors`` are the u_j and ``base`` is v; monomial signs ride along, so
    e.g. ``(q, -q**2; q**2)`` style products come out exactly.  A factor that
    degenerates to (1 - q**0) annihilates the product; (1 + q**0) doubles it.
    :func:`charfactor._kernels.binomial_product` expands the binomials, exact
    at any size (no ``dtype=object`` fallback).
    """
    factors = tuple(factors)
    if base.exponent < 1:
        raise SeriesError("non-convergent product: base monomial must have positive exponent")
    n_out = order + 1
    shifts: list[int] = []
    signs: list[int] = []
    doubles = 0
    if factors:
        min_fac = min(f.exponent for f in factors)
        i = 0
        while min_fac + i * base.exponent <= order:
            stride = i * base.exponent
            base_sign = -1 if (base.sign < 0 and i % 2) else 1
            for f in factors:
                m = f.exponent + stride
                if m > order:
                    continue
                s = f.sign * base_sign
                if m == 0:
                    if s == 1:
                        return ShiftedSeries._of_ints([0] * n_out)
                    doubles += 1
                else:
                    shifts.append(m)
                    signs.append(s)
            i += 1
    coeffs, _ = _kernels.binomial_product(np.array(shifts, np.int64), np.array(signs, np.int64), n_out)
    if doubles:
        coeffs = [c << doubles for c in coeffs]
    return ShiftedSeries._of_ints(coeffs)


def quadratic_window(a: int, b: int, c: int, bound: int) -> range:
    """Every integer j with ``a*j*j + b*j + c <= bound``, for integers a > 0, b, c.

    The roots of the quadratic are (-b -+ sqrt(D)) / 2a with D = b^2 - 4a(c - bound);
    replacing sqrt(D) by isqrt(D) leaves both integer bounds unchanged, because
    floor((m + f) / k) == floor(m / k) for integers m, k > 0 and 0 <= f < 1.
    """
    disc = b * b - 4 * a * (c - bound)
    if disc < 0:
        return range(0)
    r = math.isqrt(disc)
    return range(-((b + r) // (2 * a)), (r - b) // (2 * a) + 1)


def bilateral_sum(order: int, term: Callable[[int], tuple[int, int]], window: range,
                  error_label: str = "divergent theta parameters",
                  into: list[int] | None = None) -> list[int]:
    """Accumulate a bilateral sum over j in Z of integer-exponent terms.

    ``term(j)`` gives one (exponent, coefficient) pair, and ``window`` holds
    exactly the j whose exponent is at most ``order``, as
    :func:`quadratic_window` gives them.  Such a window, when not empty, holds
    the j of least exponent, so a negative exponent anywhere raises.  Adds
    into and returns ``into`` (length ``order + 1``) when it is given.
    """
    coeffs = [0] * (order + 1) if into is None else into
    for j in window:
        e, c = term(j)
        if e < 0:
            raise SeriesError(f"{error_label}: exponent {e} at index j={j}")
        coeffs[e] += c
    return coeffs


def triple_product(u: SignedMonomial, v: SignedMonomial, order: int) -> ShiftedSeries:
    """Theta sum ``sum_j (-1)**j u**j v**(j(j-1)/2)`` truncated at ``order``.

    Expands the same product as ``pochhammer((v, u, u^-1 v), v, order)``.
    Reflecting the summation index (j -> -j) permutes the terms of the
    bilateral sum, so the reflected form is this same series with u replaced
    by u^-1 v; the sign ambiguity that reflection introduces into the signed
    product identities is handled by the verifier's variant search, not here.
    """
    if v.exponent < 1:
        raise SeriesError("non-convergent theta sum: v must have positive exponent")
    eu, su = u.exponent, u.sign
    ev, sv = v.exponent, v.sign

    def term(j: int):
        tri = j * (j - 1) // 2
        return j * eu + ev * tri, (-su if (j & 1) else 1) * (sv if (tri & 1) else 1)

    # twice the exponent is ev*j^2 + (2eu - ev)*j
    window = quadratic_window(ev, 2 * eu - ev, 0, 2 * order)
    return ShiftedSeries._of_ints(bilateral_sum(order, term, window))


def quintuple_product(u: SignedMonomial, v: SignedMonomial, order: int) -> ShiftedSeries:
    """Theta sum ``sum_j (u**(-3j) - u**(3j+1)) v**(j(3j+1)/2)``.

    Expands ``(v, u, u^-1 v; v) (u^2 v, u^-2 v; v^2)``.  Negative powers of u
    are legal as long as every surviving term has nonnegative total exponent;
    otherwise the parameters are rejected.
    """
    if v.exponent < 1:
        raise SeriesError("non-convergent theta sum: v must have positive exponent")
    eu, su = u.exponent, u.sign
    ev, sv = v.exponent, v.sign
    label = "divergent quintuple parameters"

    def first(j: int):
        tri = j * (3 * j + 1) // 2
        return -3 * j * eu + ev * tri, (su if (j & 1) else 1) * (sv if (tri & 1) else 1)

    def second(j: int):
        tri = j * (3 * j + 1) // 2
        return (3 * j + 1) * eu + ev * tri, -(su if ((3 * j + 1) & 1) else 1) * (sv if (tri & 1) else 1)

    # twice the exponents are 3ev*j^2 + (ev -+ 6eu)*j (+ 2eu)
    coeffs = bilateral_sum(order, first, quadratic_window(3 * ev, ev - 6 * eu, 0, 2 * order), label)
    bilateral_sum(order, second, quadratic_window(3 * ev, ev + 6 * eu, 2 * eu, 2 * order), label, into=coeffs)
    return ShiftedSeries._of_ints(coeffs)


# ---------------------------------------------------------------------------
# cached building blocks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def euler_product(order: int) -> ShiftedSeries:
    """(q; q)_inf truncated at ``order``."""
    return pochhammer((SignedMonomial(1, 1),), SignedMonomial(1, 1), order)


@lru_cache(maxsize=None)
def partition_series(order: int) -> ShiftedSeries:
    """1/(q; q)_inf — the partition generating function."""
    return euler_product(order).invert()


@lru_cache(maxsize=None)
def inverse_euler_power(n: int, order: int) -> ShiftedSeries:
    """1/(q**n; q**n)_inf truncated at ``order``."""
    if not isinstance(n, int) or n < 1:
        raise SeriesError(f"modulus must be a positive integer, got {n}")
    m = -(-order // n)
    return partition_series(m).substitute_power(n).truncated(order)
