"""Exact truncated power series with a rational exponent offset.

A :class:`ShiftedSeries` represents ``q**offset * sum(coeffs[d] * q**d)``
with arbitrary-precision integer coefficients.  The trusted truncation bound
is ``offset + order`` inclusive: every operation keeps the tightest bound of
its operands, and equality never reads past it.

All arithmetic is exact and has one code path per operation.  Every
quotient by (q^n; q^n) is one :func:`over_euler_limbs` call, which adds the
partition numbers on stride n once per term on int64 limb columns, and
:func:`over_euler` assembles its Python ints; every Pochhammer product is one
:func:`charfactor._kernels.binomial_product` call, which carries
coefficients past int64 on the same limbs; inversion is
:func:`charfactor._kernels.invert_unit`.  No package code path multiplies
two series (``ShiftedSeries.__mul__``).  Every
bilateral theta sum is a list of :class:`Theta` records expanded by
:func:`bilateral_sum`, or by :func:`theta_stream` divided by (q^n; q^n).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

import numpy as np

from . import _kernels


class SeriesError(ValueError):
    """Raised for structurally invalid series operations."""


NEEDS_CONSTANT_SLOT = "a series needs at least its constant slot (order >= 0)"

#: error label of quintuple parameters whose theta sum has a negative exponent
DIVERGENT_QUINTUPLE = "divergent quintuple parameters"


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
    """Truncated formal power series ``q**offset * sum coeffs[d] q**d``.

    ``coeffs`` is a list of Python ints.
    """

    __slots__ = ("offset", "coeffs")

    def __init__(self, coeffs: Iterable[int], offset=0):
        self._init([int(c) for c in coeffs], offset)

    @classmethod
    def _of_ints(cls, coeffs, offset=0) -> "ShiftedSeries":
        """Take over a list that already holds Python ints, skipping ``int()`` per coefficient."""
        self = cls.__new__(cls)
        self._init(coeffs, offset)
        return self

    def _init(self, coeffs, offset) -> None:
        if len(coeffs) == 0:
            raise SeriesError(NEEDS_CONSTANT_SLOT)
        self.offset = Fraction(offset)
        self.coeffs = coeffs

    # -- basic structure ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def bound(self) -> Fraction:
        """Largest absolute exponent whose coefficient is trusted."""
        return self.offset + self.order

    def exponent_at(self, d: int) -> Fraction:
        return self.offset + d

    def items(self) -> Iterator[tuple[Fraction, int]]:
        """Yield (absolute exponent, coefficient) for nonzero coefficients."""
        for d, c in enumerate(self.coeffs):
            if c:
                yield self.exponent_at(d), c

    def is_zero(self) -> bool:
        return not any(self.coeffs)

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
        idx = e - self.offset
        if idx < 0 or idx.denominator != 1:
            return 0
        return self.coeffs[int(idx)]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            return self if other == 0 else NotImplemented
        if not isinstance(other, ShiftedSeries):
            return NotImplemented
        if (self.offset - other.offset).denominator != 1:
            raise SeriesError(
                f"cannot add series on unlike grids: offsets {self.offset} and {other.offset}"
            )
        base = min(self.offset, other.offset)
        length = int(min(self.bound, other.bound) - base) + 1
        out = [0] * length
        for s in (self, other):
            start = int(s.offset - base)
            for d, c in enumerate(s.coeffs[: max(length - start, 0)], start):
                if c:
                    out[d] += c
        return ShiftedSeries._of_ints(out, base)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return ShiftedSeries._of_ints([c * other for c in self.coeffs], self.offset)
        if not isinstance(other, ShiftedSeries):
            return NotImplemented
        n_out = min(self.order, other.order) + 1
        coeffs = _kernels.convolve(self.coeffs, other.coeffs, n_out)
        return ShiftedSeries._of_ints(coeffs, self.offset + other.offset)

    __rmul__ = __mul__

    def invert(self) -> "ShiftedSeries":
        """Multiplicative inverse up to truncation; needs leading coefficient ±1."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise SeriesError(f"non-invertible series: leading coefficient is {c0}")
        coeffs, _ = _kernels.invert_unit(self.coeffs, self.order + 1)
        return ShiftedSeries._of_ints(coeffs, -self.offset)

    def shift(self, delta) -> "ShiftedSeries":
        """Multiply by q**delta (exact rational exponent shift)."""
        return ShiftedSeries._of_ints(self.coeffs, self.offset + Fraction(delta))

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


# ---------------------------------------------------------------------------
# product and theta-sum constructors
# ---------------------------------------------------------------------------

def pochhammer(factors: Iterable[SignedMonomial], base: SignedMonomial, order: int) -> ShiftedSeries:
    """Truncated infinite product ``prod_{i>=0} prod_j (1 - u_j * v**i)``.

    ``factors`` are the u_j and ``base`` is v; monomial signs ride along, so
    e.g. ``(q, -q**2; q**2)`` style products come out exactly.  This is the
    one-symbol case of :func:`pochhammer_product`.
    """
    return pochhammer_product(((factors, base),), order)


_NO_SHIFTS = np.zeros(0, np.int64)


def pochhammer_product(symbols: Iterable[tuple], order: int) -> ShiftedSeries:
    """Truncated product of Pochhammer symbols, each a ``(factors, base)`` pair as in :func:`pochhammer`.

    One :func:`charfactor._kernels.binomial_product` call expands the binomials
    of every symbol, exact at any size.  Each factor gives one progression of
    shifts, or two of twice the step when the base has sign -1, and the
    kernel gets every factor as these progressions, those of one symbol
    adjacent.  It expands the factors below a cut one by one in ascending
    order (a stable sort), whatever order the symbols list them in; grouped
    by progression instead, partial products outgrow one int64 limb and the
    high-order numerators run 3-5x slower.  In ascending order no factor
    changes the coefficients below an earlier shift, so a kernel step that
    writes into its second array copies almost nothing across.  The factors
    at or past the cut, ``ceil((order + 1) / (k+1))``, any k+1 of which
    multiply past the truncation, apply at once as a polynomial of degree k
    in their power sums (Newton's identities), modulo 2**64 where a bound
    on the result leaves ``v2(k!)`` bits to spare; the kernel picks the
    largest k that saves ufunc passes.  A factor that degenerates to
    (1 - q**0) annihilates the whole product unexpanded; (1 + q**0) doubles
    it, and its progression starts one step later.
    """
    symbols = [(tuple(factors), base) for factors, base in symbols]
    if order < 0:
        raise SeriesError(NEEDS_CONSTANT_SLOT)
    if any(base.exponent < 1 for _, base in symbols):
        raise SeriesError("non-convergent product: base monomial must have positive exponent")
    n_out = order + 1
    tail = []
    doubles = 0
    for factors, base in symbols:
        v = base.exponent
        for f in factors:
            if base.sign > 0:
                progressions = ((f.exponent, v, f.sign),)
            else:
                progressions = ((f.exponent, 2 * v, f.sign), (f.exponent + v, 2 * v, -f.sign))
            for m0, d, s in progressions:
                if m0 == 0:
                    if s == 1:
                        return ShiftedSeries._of_ints([0] * n_out)
                    doubles += 1
                    m0 = d
                if m0 < n_out:
                    tail.append((m0, d, (order - m0) // d + 1, s))
    coeffs, _ = _kernels.binomial_product(_NO_SHIFTS, _NO_SHIFTS, n_out, tail)
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


class Theta(NamedTuple):
    """The theta series ``sum_k s * chi**k * q**(a*k*k + b*k + c)`` over k in Z, for a > 0.

    One record per bilateral sum: the triple and quintuple products and the
    bosonic numerators are short lists of these, and :func:`bilateral_sum`
    expands any list of them.
    """

    a: int
    b: int
    c: int
    s: int = 1
    chi: int = 1


def bilateral_sum(thetas: Iterable[Theta], order: int,
                  error_label: str = "divergent theta parameters") -> list[int]:
    """Coefficients 0..order of the sum of the ``thetas``.

    Each record runs over exactly the k whose exponent is at most ``order``,
    as :func:`quadratic_window` gives them.  Such a window, when not empty,
    holds the k of least exponent, so a negative exponent anywhere raises.
    """
    return _add_terms([0] * (order + 1), thetas, order, error_label)


def _add_terms(acc, thetas: Iterable[Theta], order: int, error_label: str):
    """Add every term of the ``thetas`` up to ``order`` into ``acc``, indexed by exponent."""
    for a, b, c, s, chi in thetas:
        for k in quadratic_window(a, b, c, order):
            e = (a * k + b) * k + c
            if e < 0:
                raise SeriesError(f"{error_label}: exponent {e} at index k={k}")
            acc[e] += -s if (chi < 0 and k & 1) else s
    return acc


def theta_stream(thetas: Iterable[Theta], n: int, order: int,
                 error_label: str = "divergent theta parameters") -> ShiftedSeries:
    """The sum of the ``thetas`` divided by (q^n; q^n), exact to ``order``, as Python ints."""
    return ShiftedSeries._of_ints(_kernels.limb_ints(theta_limbs(thetas, n, order, error_label)))


def theta_limbs(thetas: Iterable[Theta], n: int, order: int,
                error_label: str = "divergent theta parameters") -> np.ndarray:
    """:func:`theta_stream` as the carried limbs of :func:`over_euler_limbs`.

    The records' terms are collected sparsely, equal exponents summed, and
    divided by (q^n; q^n) in one pass.
    """
    terms = _add_terms(defaultdict(int), thetas, order, error_label)
    return over_euler_limbs(sorted(terms.items()), n, order)


def over_euler(terms: Iterable[tuple[int, int]], n: int, order: int) -> list[int]:
    """Coefficients 0..order of ``sum c q**e`` over the ascending ``(e, c)`` terms, divided by (q^n; q^n).

    The Python ints of :func:`over_euler_limbs`.
    """
    return _kernels.limb_ints(over_euler_limbs(terms, n, order))


def over_euler_limbs(terms: Iterable[tuple[int, int]], n: int, order: int) -> np.ndarray:
    """:func:`over_euler` as int64 limb columns, one row per coefficient (:func:`charfactor._kernels.scatter`).

    Each term adds ``c`` times the partition numbers at ``e, e + n, ...``;
    terms past ``order`` are ignored.  The partition numbers come from one
    limb table per order, so all quotients at one order share one inversion
    of (q; q) and one conversion to limbs.
    """
    if order < 0:
        raise SeriesError(NEEDS_CONSTANT_SLOT)
    if not isinstance(n, int) or n < 1:
        raise SeriesError(f"modulus must be a positive integer, got {n}")
    return _kernels.scatter(terms, _partition_table(order), n, order + 1)


def triple_thetas(u: SignedMonomial, v: SignedMonomial) -> tuple[Theta, Theta]:
    """The :class:`Theta` records of ``sum_j (-1)**j u**j v**(j(j-1)/2)``.

    The even and odd j = 2k + t are one record each, with v's sign as ``chi``.
    """
    if v.exponent < 1:
        raise SeriesError("non-convergent theta sum: v must have positive exponent")
    eu, su, ev, sv = u.exponent, u.sign, v.exponent, v.sign
    return Theta(2 * ev, 2 * eu - ev, 0, 1, sv), Theta(2 * ev, 2 * eu + ev, eu, -su, sv)


def quintuple_thetas(u: SignedMonomial, v: SignedMonomial) -> tuple[Theta, Theta, Theta, Theta]:
    """The :class:`Theta` records of ``sum_j (u**(-3j) - u**(3j+1)) v**(j(3j+1)/2)``.

    Each of the two sums splits on even and odd j = 2k + t into two records.
    """
    if v.exponent < 1:
        raise SeriesError("non-convergent theta sum: v must have positive exponent")
    eu, su, ev, sv = u.exponent, u.sign, v.exponent, v.sign
    return (
        Theta(6 * ev, ev - 6 * eu, 0, 1, sv),
        Theta(6 * ev, 7 * ev - 6 * eu, 2 * ev - 3 * eu, su, sv),
        Theta(6 * ev, 6 * eu + ev, eu, -su, sv),
        Theta(6 * ev, 6 * eu + 7 * ev, 4 * eu + 2 * ev, -1, sv),
    )


def triple_product(u: SignedMonomial, v: SignedMonomial, order: int) -> ShiftedSeries:
    """Theta sum ``sum_j (-1)**j u**j v**(j(j-1)/2)`` truncated at ``order``.

    Expands the same product as ``pochhammer((v, u, u^-1 v), v, order)``.
    Reflecting the summation index (j -> -j) permutes the terms of the
    bilateral sum, so the reflected form is this same series with u replaced
    by u^-1 v; the sign ambiguity that reflection introduces into the signed
    product identities is handled by the verifier's variant search, not here.
    """
    return ShiftedSeries._of_ints(bilateral_sum(triple_thetas(u, v), order))


def quintuple_product(u: SignedMonomial, v: SignedMonomial, order: int) -> ShiftedSeries:
    """Theta sum ``sum_j (u**(-3j) - u**(3j+1)) v**(j(3j+1)/2)``.

    Expands ``(v, u, u^-1 v; v) (u^2 v, u^-2 v; v^2)``.  Negative powers of u
    are legal as long as every surviving term has nonnegative total exponent;
    otherwise the parameters are rejected.
    """
    return ShiftedSeries._of_ints(bilateral_sum(quintuple_thetas(u, v), order, DIVERGENT_QUINTUPLE))


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


_T = TypeVar("_T")


def beside_partition_series(store: dict, order: int, build: Callable[[ShiftedSeries], _T]) -> _T:
    """``build(p)`` for the cached ``p = partition_series(order)``, kept in ``store`` as ``order -> (p, value)``.

    The value is built again whenever that cache hands out a new object, so
    it lives exactly as long as one generation of the package's caches: a
    cleared cache starts it afresh.
    """
    p = partition_series(order)
    held = store.get(order)
    if held is None or held[0] is not p:
        held = store[order] = (p, build(p))
    return held[1]


#: order -> (the partition_series(order) it was built from, its limb table)
_PARTITION_TABLES: dict[int, tuple[ShiftedSeries, _kernels.LimbTable]] = {}


def _partition_table(order: int) -> _kernels.LimbTable:
    """The limb table of the partition numbers 0..order, one per cache generation."""
    return beside_partition_series(_PARTITION_TABLES, order, lambda p: _kernels.limb_table(p.coeffs))


@lru_cache(maxsize=None)
def inverse_euler_power(n: int, order: int) -> ShiftedSeries:
    """1/(q**n; q**n)_inf truncated at ``order``."""
    return ShiftedSeries(over_euler(((0, 1),), n, order))
