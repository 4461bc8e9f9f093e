"""Product-side series shared by the identity verifier and the sign scanner.

The numerators expand the signed Pochhammer products of a quadruple
(a', B, c, n) factor by factor, in one binomial pass each; their sign vector
flips individual product arguments, which is how the signed variants differ
from the plain identities.  Under a sign vector of Jacobi form each numerator
is a Jacobi triple or quintuple product, so by those identities it equals a
short sum of theta records (:func:`triple_side_thetas`,
:func:`quintuple_side_thetas`); ``verifier.verify`` decides its identities
on these records alone, and only the truncated reference ``verifier.check``
and the full product side ``verifier.build_lhs`` expand a numerator.

The plain sides, which the scanner streams, are built in one pass from the
same records: their O(sqrt(N)) terms, each times the partition numbers on
stride n, summed on int64 limb columns by
:func:`~charfactor.series.over_euler_limbs`, the one division by (q^n; q^n).
"""

from __future__ import annotations

from .series import (
    DIVERGENT_QUINTUPLE,
    ShiftedSeries,
    SignedMonomial,
    Theta,
    pochhammer,
    pochhammer_product,
    quintuple_thetas,
    theta_stream,
    triple_thetas,
)

#: one sign per product argument, then the base(s); all +1 is the plain identity
TRIPLE_PLAIN = (1, 1, 1, 1)
QUINTUPLE_PLAIN = (1, 1, 1, 1, 1, 1)


def triple_symbol(ap: int, B: int, c: int, signs: tuple[int, int, int, int] = TRIPLE_PLAIN) -> tuple:
    """The ``(factors, base)`` pair of (s1 q^{B(a'-c)/2}, s2 q^{B(a'+c)/2}, s3 q^{Ba'}; sb q^{Ba'})."""
    s1, s2, s3, sb = signs
    if (ap - c) % 2 != 0:
        raise ValueError(f"a' and c must have equal parity for a triple product (a'={ap}, c={c})")
    factors = (
        SignedMonomial(s1, B * (ap - c) // 2),
        SignedMonomial(s2, B * (ap + c) // 2),
        SignedMonomial(s3, B * ap),
    )
    return factors, SignedMonomial(sb, B * ap)


def triple_numerator(ap: int, B: int, c: int, order: int,
                     signs: tuple[int, int, int, int] = TRIPLE_PLAIN) -> ShiftedSeries:
    """The Pochhammer symbol of :func:`triple_symbol`, expanded to ``order``."""
    return pochhammer(*triple_symbol(ap, B, c, signs), order)


def quintuple_numerator(ap: int, B: int, c: int, order: int,
                        signs: tuple[int, int, int, int, int, int] = QUINTUPLE_PLAIN) -> ShiftedSeries:
    """(s1 q^{Bc}, s2 q^{B(2a'-c)}, s3 q^{2Ba'}; sb q^{2Ba'}) (t1 q^{2B(a'+c)}, t2 q^{2B(a'-c)}; q^{4Ba'}).

    One binomial pass over both symbols; at c = 0 with s1 = +1 the factor (1 - q^0) zeroes it unexpanded.
    """
    s1, s2, s3, sb, t1, t2 = signs
    v = SignedMonomial(sb, 2 * B * ap)
    first = (SignedMonomial(s1, B * c), SignedMonomial(s2, B * (2 * ap - c)), SignedMonomial(s3, 2 * B * ap))
    second = (SignedMonomial(t1, 2 * B * (ap + c)), SignedMonomial(t2, 2 * B * (ap - c)))
    return pochhammer_product(((first, v), (second, SignedMonomial(1, 4 * B * ap))), order)


def triple_side_thetas(ap: int, B: int, c: int,
                       signs: tuple[int, int, int, int] = TRIPLE_PLAIN) -> tuple[Theta, Theta]:
    """The theta records of :func:`triple_numerator`, (u, u^-1 v, v; v) with u = s1 q^{B(a'-c)/2}, v = s3 q^{Ba'}."""
    s1, s2, s3, sb = signs
    if (ap - c) % 2 != 0:
        raise ValueError(f"a' and c must have equal parity for a triple product (a'={ap}, c={c})")
    if s2 != s1 * s3 or sb != s3:
        raise ValueError(f"triple signs {signs} are not of Jacobi form")
    return triple_thetas(SignedMonomial(s1, B * (ap - c) // 2), SignedMonomial(s3, B * ap))


def quintuple_side_thetas(ap: int, B: int, c: int, signs: tuple[int, int, int, int, int, int] = QUINTUPLE_PLAIN
                          ) -> tuple[Theta, Theta, Theta, Theta]:
    """The theta records of :func:`quintuple_numerator`, (u, u^-1 v, v; v) (u^2 v, u^-2 v; v^2).

    Here u = s1 q^{Bc} and v = s3 q^{2Ba'}.
    """
    s1, s2, s3, sb, t1, t2 = signs
    if s2 != s1 * s3 or not sb == t1 == t2 == s3:
        raise ValueError(f"quintuple signs {signs} are not of Jacobi form")
    return quintuple_thetas(SignedMonomial(s1, B * c), SignedMonomial(s3, 2 * B * ap))


def triple_side(ap: int, B: int, c: int, n: int, order: int) -> ShiftedSeries:
    """The plain :func:`triple_numerator` / (q^n; q^n), streamed from :func:`triple_side_thetas`."""
    return theta_stream(triple_side_thetas(ap, B, c), n, order)


def quintuple_side(ap: int, B: int, c: int, n: int, order: int) -> ShiftedSeries:
    """The plain :func:`quintuple_numerator` / (q^n; q^n), streamed from :func:`quintuple_side_thetas`."""
    return theta_stream(quintuple_side_thetas(ap, B, c), n, order, DIVERGENT_QUINTUPLE)
