"""Product-side series shared by the identity verifier and the sign scanner.

The numerators expand the signed Pochhammer products of a quadruple
(a', B, c, n) factor by factor, in one binomial pass each.  Every identity
kind signs its product by a pair of Jacobi signs ``(s1, s3)`` (the kind's
``signs`` in ``verifier.IdentityKind``), (1, 1) being the plain identities:
u = s1 q^.. and v = s3 q^.., so the middle argument u^-1 v carries s2 =
s1 s3 and the base and the second quintuple symbol's arguments carry s3.
A vector not of this form cannot be written.  Each numerator is therefore a
Jacobi triple or quintuple product, and by those identities it equals a
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

def triple_symbol(ap: int, B: int, c: int, signs: tuple[int, int] = (1, 1)) -> tuple:
    """The ``(factors, base)`` pair of (s1 q^{B(a'-c)/2}, s1 s3 q^{B(a'+c)/2}, s3 q^{Ba'}; s3 q^{Ba'})."""
    s1, s3 = signs
    if (ap - c) % 2 != 0:
        raise ValueError(f"a' and c must have equal parity for a triple product (a'={ap}, c={c})")
    factors = (
        SignedMonomial(s1, B * (ap - c) // 2),
        SignedMonomial(s1 * s3, B * (ap + c) // 2),
        SignedMonomial(s3, B * ap),
    )
    return factors, SignedMonomial(s3, B * ap)


def triple_numerator(ap: int, B: int, c: int, order: int, signs: tuple[int, int] = (1, 1)) -> ShiftedSeries:
    """The Pochhammer symbol of :func:`triple_symbol`, expanded to ``order``."""
    return pochhammer(*triple_symbol(ap, B, c, signs), order)


def quintuple_numerator(ap: int, B: int, c: int, order: int, signs: tuple[int, int] = (1, 1)) -> ShiftedSeries:
    """(s1 q^{Bc}, s1 s3 q^{B(2a'-c)}, s3 q^{2Ba'}; s3 q^{2Ba'}) (s3 q^{2B(a'+c)}, s3 q^{2B(a'-c)}; q^{4Ba'}).

    One binomial pass over both symbols; at c = 0 with s1 = +1 the factor (1 - q^0) zeroes it unexpanded.
    """
    s1, s3 = signs
    v = SignedMonomial(s3, 2 * B * ap)
    first = (SignedMonomial(s1, B * c), SignedMonomial(s1 * s3, B * (2 * ap - c)), v)
    second = (SignedMonomial(s3, 2 * B * (ap + c)), SignedMonomial(s3, 2 * B * (ap - c)))
    return pochhammer_product(((first, v), (second, SignedMonomial(1, 4 * B * ap))), order)


def triple_side_thetas(ap: int, B: int, c: int, signs: tuple[int, int] = (1, 1)) -> tuple[Theta, Theta]:
    """The theta records of :func:`triple_numerator`, (u, u^-1 v, v; v) with u = s1 q^{B(a'-c)/2}, v = s3 q^{Ba'}."""
    (u, _, _), v = triple_symbol(ap, B, c, signs)
    return triple_thetas(u, v)


def quintuple_side_thetas(ap: int, B: int, c: int,
                          signs: tuple[int, int] = (1, 1)) -> tuple[Theta, Theta, Theta, Theta]:
    """The theta records of :func:`quintuple_numerator`, (u, u^-1 v, v; v) (u^2 v, u^-2 v; v^2).

    Here u = s1 q^{Bc} and v = s3 q^{2Ba'}.
    """
    s1, s3 = signs
    return quintuple_thetas(SignedMonomial(s1, B * c), SignedMonomial(s3, 2 * B * ap))


def triple_side(ap: int, B: int, c: int, n: int, order: int) -> ShiftedSeries:
    """The plain :func:`triple_numerator` / (q^n; q^n), streamed from :func:`triple_side_thetas`."""
    return theta_stream(triple_side_thetas(ap, B, c), n, order)


def quintuple_side(ap: int, B: int, c: int, n: int, order: int) -> ShiftedSeries:
    """The plain :func:`quintuple_numerator` / (q^n; q^n), streamed from :func:`quintuple_side_thetas`."""
    return theta_stream(quintuple_side_thetas(ap, B, c), n, order, DIVERGENT_QUINTUPLE)
