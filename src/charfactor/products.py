"""Product-side series shared by the identity verifier and the sign scanner.

Every product side is a Jacobi triple or quintuple product of two
monomials u and v, and :func:`jacobi_arguments` is the one place where the
scheme picks them from a quadruple (a', B, c, n); :func:`side_thetas`
reads the same exponents without building the monomials.  Every identity kind
signs its product by a pair of Jacobi signs ``(s1, s3)`` (the kind's
``signs`` in ``verifier.IdentityKind``), (1, 1) being the plain identities:
u = s1 q^.. and v = s3 q^.., so the middle argument u^-1 v carries s2 =
s1 s3 and the base and the second quintuple symbol's arguments carry s3.
A vector not of this form cannot be written.  By the Jacobi identities the
:func:`numerator`, the signed Pochhammer symbols expanded in one binomial
pass, equals a short sum of theta records (:func:`side_thetas`);
``verifier.verify`` decides its identities on these records alone, and only
the truncated reference ``verifier.check`` and the full product side
``verifier.build_lhs`` expand a numerator.

The plain sides, which the scanner streams, are built in one pass from the
same records: their O(sqrt(N)) terms, each times the partition numbers on
stride n, summed on int64 limbs by
:func:`~charfactor.series.over_euler_limbs`, the one division by (q^n; q^n).
"""

from __future__ import annotations

from .params import Scheme
from .series import DIVERGENT_QUINTUPLE, ShiftedSeries, SignedMonomial, Theta, pochhammer_product, theta_stream
from .series import quintuple_records, quintuple_symbols, triple_records, triple_symbols
from .series import pochhammer  # noqa: F401  (perfbench/tracing.py patches this name)

#: per scheme, the Pochhammer symbols of one pair (u, v) and the theta records of its signs and exponents
_JACOBI = {Scheme.TRIPLE: (triple_symbols, triple_records), Scheme.QUINTUPLE: (quintuple_symbols, quintuple_records)}


def jacobi_arguments(scheme: Scheme, ap: int, B: int, c: int,
                     signs: tuple[int, int] = (1, 1)) -> tuple[SignedMonomial, SignedMonomial]:
    """The (u, v) of the scheme's product: triple s1 q^{B(a'-c)/2}, s3 q^{Ba'}; quintuple s1 q^{Bc}, s3 q^{2Ba'}."""
    eu, ev = _exponents(scheme, ap, B, c)
    return SignedMonomial(signs[0], eu), SignedMonomial(signs[1], ev)


def _exponents(scheme: Scheme, ap: int, B: int, c: int) -> tuple[int, int]:
    """The exponents of the (u, v) of :func:`jacobi_arguments`."""
    if scheme is Scheme.QUINTUPLE:
        return B * c, 2 * B * ap
    if (ap - c) % 2 != 0:
        raise ValueError(f"a' and c must have equal parity for a triple product (a'={ap}, c={c})")
    return B * (ap - c) // 2, B * ap


def side_thetas(scheme: Scheme, ap: int, B: int, c: int, signs: tuple[int, int] = (1, 1)) -> tuple[Theta, ...]:
    """The theta records of :func:`numerator`, by the scheme's Jacobi identity, from the integers of (u, v)."""
    eu, ev = _exponents(scheme, ap, B, c)
    return _JACOBI[scheme][1](signs[0], eu, signs[1], ev)


def numerator(scheme: Scheme, ap: int, B: int, c: int, order: int,
              signs: tuple[int, int] = (1, 1)) -> ShiftedSeries:
    """The scheme's Pochhammer symbols of (u, v), expanded to ``order`` in one binomial pass.

    At quintuple c = 0 with s1 = +1 the factor (1 - q^0) zeroes it unexpanded.
    """
    return pochhammer_product(_JACOBI[scheme][0](*jacobi_arguments(scheme, ap, B, c, signs)), order)


def triple_side(ap: int, B: int, c: int, n: int, order: int) -> ShiftedSeries:
    """The plain triple :func:`numerator` / (q^n; q^n), streamed from :func:`side_thetas`."""
    return theta_stream(side_thetas(Scheme.TRIPLE, ap, B, c), n, order)


def quintuple_side(ap: int, B: int, c: int, n: int, order: int) -> ShiftedSeries:
    """The plain quintuple :func:`numerator` / (q^n; q^n), streamed from :func:`side_thetas`."""
    return theta_stream(side_thetas(Scheme.QUINTUPLE, ap, B, c), n, order, DIVERGENT_QUINTUPLE)
