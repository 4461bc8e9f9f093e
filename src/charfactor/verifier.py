"""Build both sides of each factorization identity and certify equality.

The plain identities (one per scheme) state that a signed Pochhammer product
over (q^n; q^n) equals a prefactor power of q times an alternating sum of n
minimal-model characters evaluated at q**n.  Four signed variants apply when
extra parity conditions hold; their per-character sign rules involve the
triangular parities of the pair weights, and the two documented readings of
each rule ("as stated" and its swap) are both checked, with the certificate
recording which one held.

:func:`verify` compares numerators.  Each character is
q**Delta * theta_{r,s}(q) / (q;q)_inf, so at q**n both sides carry the factor
1/(q^n;q^n), and it cancels: the product side leaves its Pochhammer
numerator, the character side leaves the sum over pairs of
sign * q**(E + n*Delta) * theta_{r,s}(q**n): each pair's two bosonic
:class:`~charfactor.series.Theta` records at q**n, shifted by the integer
E + n*Delta and signed, all expanded by one :func:`~charfactor.series.bilateral_sum`.
Because (q^n;q^n) has constant term 1, two series agree up to degree d exactly
when their numerators do, so the verdict and the first mismatch degree are
those of the full sides.  The certificate's 16-term prefixes are still
full-side coefficients, and :func:`build_lhs` and :func:`build_rhs` give the
full sides: each divides its numerator by (q^n;q^n) in one
:func:`~charfactor.series.over_euler` call, with no series multiply.

The product-side numerator depends only on (kind, a', B, c, order), not on
p, p', b, b' or n, so many certificates share it.  :func:`verify` expands
each distinct numerator once per cache generation and keeps it as its
nonzero terms, one flat tuple ``(e0, c0, e1, c1, ...)``; later certificates
rebuild their dense numerator from it.  The memo is held beside the cached
``partition_series(top)`` object the 16-term prefixes divide by
(:func:`~charfactor.series.beside_partition_series`) and started empty
whenever that cache hands out a new one, so clearing the three
``lru_cache``s of :mod:`charfactor.series` clears it too.  Each process of
the CLI's sweep pool holds its own.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from typing import Iterator

from . import products, series
from .minimal_model import CharacterLabel, MinimalModel, bosonic_thetas
from .minimal_model import normalized_character  # noqa: F401  (perfbench/tracing.py patches this name)
from .pairs import ContributingPair, contributing_pairs
from .params import FactorizationParams, ParameterError, Scheme, divisors
from .series import SeriesError, ShiftedSeries, SignedMonomial, Theta, over_euler

AS_STATED = "as_stated"
SWAPPED = "swapped"
FAILED = "failed"

PREFIX_LEN = 16


class IdentityKind(enum.Enum):
    MAIN = "main"
    MAIN_A_EVEN = "main_a"
    MAIN_B_EVEN = "main_b"
    QUINT = "quint"
    QUINT_A = "quint_a"
    QUINT_B = "quint_b"
    QUINT_C = "quint_c"

    @property
    def scheme(self) -> Scheme:
        if self in (IdentityKind.MAIN, IdentityKind.MAIN_A_EVEN, IdentityKind.MAIN_B_EVEN):
            return Scheme.TRIPLE
        return Scheme.QUINTUPLE

    @property
    def has_variants(self) -> bool:
        return self not in (IdentityKind.MAIN, IdentityKind.QUINT)


#: product-argument signs per kind; see products.triple_numerator / quintuple_numerator
_TRIPLE_SIGNS = {
    IdentityKind.MAIN: (1, 1, 1, 1),
    IdentityKind.MAIN_A_EVEN: (1, -1, -1, -1),
    IdentityKind.MAIN_B_EVEN: (-1, 1, -1, -1),
}
_QUINTUPLE_SIGNS = {
    IdentityKind.QUINT: (1, 1, 1, 1, 1, 1),
    IdentityKind.QUINT_A: (-1, -1, 1, 1, 1, 1),
    IdentityKind.QUINT_B: (1, -1, -1, -1, -1, -1),
    IdentityKind.QUINT_C: (-1, 1, -1, -1, -1, -1),
}


def applicability_error(kind: IdentityKind, fp: FactorizationParams) -> str | None:
    """The failed applicability condition by name, or None when applicable.

    The signed quintuple kinds additionally require n even (first kind) or
    n divisible by 4 (second and third): the parity is what their proofs
    run on, it is implied by the other conditions whenever a' is odd, and
    instances violating it are counterexamples to both sign readings
    (e.g. the third kind at (p,p',a',b,b',c) = (3,4,4,1,1,1), n = 1).
    """
    if fp.scheme is not kind.scheme:
        return f"scheme {fp.scheme.value} does not match kind {kind.value}"
    if kind is IdentityKind.MAIN_A_EVEN:
        if fp.n % 2 != 0:
            return "n must be even"
        if (fp.a_prime - fp.c) % 4 != 0:
            return "a' must be congruent to c mod 4"
    elif kind is IdentityKind.MAIN_B_EVEN:
        if fp.n % 2 != 0:
            return "n must be even"
        if (fp.a_prime - fp.c) % 4 == 0:
            return "a' must not be congruent to c mod 4"
    elif kind is IdentityKind.QUINT_A:
        if not (fp.pp_over_bp % 2 == 0 or (fp.p_over_b % 2 == 0 and fp.c % 2 == 1)):
            return "p'/b' even, or p/b even with c odd, is required"
        if fp.n % 2 != 0:
            return "n must be even"
    elif kind is IdentityKind.QUINT_B:
        if not (fp.pp_over_bp % 4 == 0 or (fp.p_over_b % 4 == 0 and fp.c % 4 == 0)):
            return "4 | p'/b', or 4 | p/b with 4 | c, is required"
        if fp.n % 4 != 0:
            return "n must be divisible by 4"
    elif kind is IdentityKind.QUINT_C:
        if not (fp.pp_over_bp % 4 == 0 or (fp.p_over_b % 4 == 0 and (fp.c + 2) % 4 == 0)):
            return "4 | p'/b', or 4 | p/b with 4 | c+2, is required"
        if fp.n % 4 != 0:
            return "n must be divisible by 4"
    return None


def _require_applicable(kind: IdentityKind, fp: FactorizationParams) -> None:
    err = applicability_error(kind, fp)
    if err is not None:
        raise ParameterError(f"precondition failed: {err}")


def _lhs_numerator(kind: IdentityKind, fp: FactorizationParams, order: int) -> ShiftedSeries:
    if kind.scheme is Scheme.TRIPLE:
        return products.triple_numerator(fp.a_prime, fp.B, fp.c, order, _TRIPLE_SIGNS[kind])
    return products.quintuple_numerator(fp.a_prime, fp.B, fp.c, order, _QUINTUPLE_SIGNS[kind])


#: prefix top -> (the partition_series(top) object its memo was started beside,
#: the memo (kind, a', B, c, order) -> nonzero numerator terms)
_NUMERATORS: dict[int, tuple[ShiftedSeries, dict]] = {}


def _numerator_memo(top: int) -> dict:
    """The numerator memo of the current cache generation for the certificates whose prefixes end at ``top``."""
    return series.beside_partition_series(_NUMERATORS, top, lambda p: {})


def _term_pairs(terms: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """The ``(e, c)`` pairs of a flat ``(e0, c0, e1, c1, ...)`` tuple."""
    it = iter(terms)
    return zip(it, it)


def _numerator(kind: IdentityKind, fp: FactorizationParams, order: int) -> tuple[list[int], tuple[int, ...]]:
    """Dense coefficients 0..order of the product-side numerator, and its nonzero terms as a flat tuple.

    A miss expands the numerator and keeps the expanded list, which the
    expansion built fresh with exactly order + 1 coefficients; a hit
    rebuilds a fresh dense list from the memoised terms.
    """
    memo = _numerator_memo(min(PREFIX_LEN - 1, order))
    key = (kind, fp.a_prime, fp.B, fp.c, order)
    terms = memo.get(key)
    if terms is None:
        lhs = _lhs_numerator(kind, fp, order).coeffs
        exps = list(compress(range(order + 1), lhs))
        terms = memo[key] = tuple(chain.from_iterable(zip(exps, map(lhs.__getitem__, exps))))
        return lhs, terms
    lhs = [0] * (order + 1)
    for e, c in _term_pairs(terms):
        lhs[e] = c
    return lhs, terms


def build_lhs(kind: IdentityKind, fp: FactorizationParams, order: int) -> ShiftedSeries:
    """The exact product side on the integer grid, truncated at ``order``."""
    _require_applicable(kind, fp)
    return ShiftedSeries(over_euler(enumerate(_lhs_numerator(kind, fp, order).coeffs), fp.n, order))


def prefactor_exponent(fp: FactorizationParams) -> Fraction:
    """Exponent of the global q-power in front of the character sum."""
    if fp.scheme is Scheme.TRIPLE:
        num = (fp.p - fp.p_prime) ** 2 - (fp.c * fp.B) ** 2
    else:
        num = (fp.p - fp.p_prime) ** 2 - ((fp.a_prime - 3 * fp.c) * fp.B) ** 2
    return Fraction(num, 4 * fp.B * fp.a * fp.a_prime)


def _parity_sign(value: int) -> int:
    return -1 if value % 2 else 1


def pair_sign(kind: IdentityKind, pair: ContributingPair, variant: str = AS_STATED) -> int:
    """Coefficient sign of the pair's character under the kind's sign rule.

    The plain kinds use the type alone.  The signed triple kinds use the
    triangular parities t(t+1)/2 (first kind) and t(t-1)/2 (second kind);
    ``swapped`` exchanges the two triangular rules, which is the same as
    flipping every type-2 pair because t is even exactly on type 1.  The
    signed quintuple kinds keep the type sign and multiply by a parity of
    the weight: plain f for the first kind, and the triangular parities
    w(w-1)/2 (second kind) / w(w+1)/2 (third kind) evaluated at w = f for
    type-1 pairs and w = -f for type-2 pairs, because the reduced theta
    index behind the sign is congruent to f and to -f respectively;
    ``swapped`` exchanges the two triangular rules.
    """
    if variant not in (AS_STATED, SWAPPED):
        raise ValueError(f"unknown sign variant {variant!r}")
    t = pair.weight
    type_sign = 1 if pair.ptype == 1 else -1
    swap = variant == SWAPPED
    if kind is IdentityKind.MAIN or kind is IdentityKind.QUINT:
        return type_sign
    if kind is IdentityKind.MAIN_A_EVEN or kind is IdentityKind.MAIN_B_EVEN:
        tri_plus = _parity_sign(t * (t + 1) // 2)
        tri_minus = _parity_sign(t * (t - 1) // 2)
        stated_plus = kind is IdentityKind.MAIN_A_EVEN
        return (tri_plus if stated_plus != swap else tri_minus)
    if kind is IdentityKind.QUINT_A:
        base = _parity_sign(t) * type_sign
        return -base if (swap and pair.ptype == 2) else base
    w = t if pair.ptype == 1 else -t
    tri_plus = _parity_sign(w * (w + 1) // 2)
    tri_minus = _parity_sign(w * (w - 1) // 2)
    if kind is IdentityKind.QUINT_B:
        return (tri_plus if swap else tri_minus) * type_sign
    if kind is IdentityKind.QUINT_C:
        return (tri_minus if swap else tri_plus) * type_sign
    raise ValueError(kind)


def _character_thetas(fp: FactorizationParams, pairs: list[ContributingPair]) -> list[list[Theta]]:
    """Per pair, the :class:`Theta` records of q**(E + n*Delta) theta(q**n).

    These are the pair's :func:`bosonic_thetas` records at q**n, shifted by
    the combined exponent E + n*Delta, which must be a nonnegative integer
    for every contributing pair, else the parameters are rejected.  E and
    n*Delta share the denominator den = 4*a*a'*B (n*den = 4pp'), so the
    exponent is one integer divmod, with no ``Fraction`` per pair.
    """
    model = MinimalModel(fp.p, fp.p_prime)
    p, pp, n = fp.p, fp.p_prime, fp.n
    den = 4 * fp.a * fp.a_prime * fp.B
    e_pref = prefactor_exponent(fp)
    top = e_pref.numerator * (den // e_pref.denominator) - (pp - p) ** 2
    out = []
    for pair in pairs:
        label = CharacterLabel(pair.r * fp.b, pair.s * fp.b_prime)
        thetas = bosonic_thetas(model, label)
        offset, rem = divmod(top + (pp * label.r - p * label.s) ** 2, den)
        if rem or offset < 0:
            raise SeriesError(f"non-integral identity side: character ({label.r},{label.s}) "
                              f"sits at exponent {Fraction(offset * den + rem, den)}")
        out.append([Theta(n * a, n * b, n * c + offset, s, chi) for a, b, c, s, chi in thetas])
    return out


def _signed_sum(kind: IdentityKind, pairs: list[ContributingPair],
                thetas: list[list[Theta]], variant: str, order: int) -> list[int]:
    """Coefficients 0..order of the character-side numerator under one sign reading."""
    signs = [pair_sign(kind, pair, variant) for pair in pairs]
    return series.bilateral_sum([t._replace(s=sign * t.s) for sign, ts in zip(signs, thetas) for t in ts], order)


def build_rhs(kind: IdentityKind, fp: FactorizationParams, order: int,
              variant: str = AS_STATED) -> ShiftedSeries:
    """The signed character sum with its prefactor, on the integer grid, truncated at ``order``."""
    _require_applicable(kind, fp)
    pairs = contributing_pairs(fp)
    num = _signed_sum(kind, pairs, _character_thetas(fp, pairs), variant, order)
    return ShiftedSeries(over_euler(enumerate(num), fp.n, order))


@dataclass
class IdentityCertificate:
    """Machine-readable verdict of one identity check."""

    kind: IdentityKind
    params: FactorizationParams
    order: int
    pairs: list[ContributingPair]
    match: bool
    sign_variant: str  # as_stated | swapped | failed
    first_mismatch: int | None
    lhs_prefix: list[int]
    rhs_prefix: list[int]

    def to_json_dict(self) -> dict:
        fp = self.params
        return {
            "kind": self.kind.value,
            "p": fp.p,
            "pp": fp.p_prime,
            "a": fp.a,
            "ap": fp.a_prime,
            "b": fp.b,
            "bp": fp.b_prime,
            "c": fp.c,
            "B": fp.B,
            "n": fp.n,
            "order": self.order,
            "pairs": [
                {"r": pr.r, "s": pr.s, "type": pr.ptype, "weight": pr.weight}
                for pr in self.pairs
            ],
            "match": self.match,
            "sign_variant": self.sign_variant,
            "first_mismatch": self.first_mismatch,
            "lhs_prefix": self.lhs_prefix,
            "rhs_prefix": self.rhs_prefix,
        }


# not on verify's path, which keeps the expanded numerator list; perfbench/tracing.py patches this name
def integer_coefficients(series: ShiftedSeries, order: int) -> list[int]:
    """Dense integer-grid coefficients 0..order of an offset-0 series."""
    if series.offset != 0:
        series = series.as_integer_series()
    out = list(series.coeffs[: order + 1])
    out.extend([0] * (order + 1 - len(out)))
    return out


def first_mismatch_degree(lhs: list[int], rhs: list[int]) -> int | None:
    if lhs == rhs:
        return None
    for i, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            return i
    return None


def verify(kind: IdentityKind, fp: FactorizationParams, order: int) -> IdentityCertificate:
    """Compare both numerators exactly to ``order``; failure is a certificate, not an error.

    For the signed kinds the stated rule is tried first and the swapped rule
    second; a failed certificate reports the mismatch against the stated rule.
    The product-side numerator comes from the memo of the current cache
    generation when an earlier certificate expanded it (see the module docstring).
    """
    _require_applicable(kind, fp)
    pairs = contributing_pairs(fp)
    lhs, terms = _numerator(kind, fp, order)
    thetas = _character_thetas(fp, pairs)
    rhs = _signed_sum(kind, pairs, thetas, AS_STATED, order)
    variant = AS_STATED
    mismatch = first_mismatch_degree(lhs, rhs)
    if mismatch is not None and kind.has_variants:
        swapped_rhs = _signed_sum(kind, pairs, thetas, SWAPPED, order)
        if first_mismatch_degree(lhs, swapped_rhs) is None:
            variant = SWAPPED
            mismatch = None
    match = mismatch is None
    top = min(PREFIX_LEN - 1, order)
    lhs_prefix = over_euler(_term_pairs(terms), fp.n, top)
    return IdentityCertificate(
        kind=kind,
        params=fp,
        order=order,
        pairs=pairs,
        match=match,
        sign_variant=variant if match else FAILED,
        first_mismatch=mismatch,
        lhs_prefix=lhs_prefix,
        rhs_prefix=list(lhs_prefix) if match else over_euler(enumerate(rhs), fp.n, top),
    )


def verify_remark_products(a_prime: int, c: int, order: int) -> bool:
    """Check the telescoping product relation among plain triple sides.

    For odd a' > c odd, the product of phi(a',1,c,1) with phi(a',1,2j-1,a')
    over j = 1..(a'-1)/2, j != (c+1)/2, must be the constant series 1: the
    product of their numerators must be (q;q) (q^{a'};q^{a'})^{(a'-3)/2}.
    """
    if a_prime % 2 == 0 or c % 2 == 0:
        raise ParameterError(f"parity: a' and c must be odd (a'={a_prime}, c={c})")
    if not 0 < c < a_prime:
        raise ParameterError(f"range: need 0 < c < a' (a'={a_prime}, c={c})")
    numerators = [products.triple_symbol(a_prime, 1, c)]
    numerators += [products.triple_symbol(a_prime, 1, 2 * j - 1)
                   for j in range(1, (a_prime - 1) // 2 + 1) if j != (c + 1) // 2]
    euler = [((SignedMonomial(1, v),), SignedMonomial(1, v)) for v in [1] + [a_prime] * ((a_prime - 3) // 2)]
    return series.pochhammer_product(numerators, order) == series.pochhammer_product(euler, order)


# ---------------------------------------------------------------------------
# instance sweeps
# ---------------------------------------------------------------------------

def iter_scheme_params(scheme: Scheme, max_pp: int) -> Iterator[FactorizationParams]:
    """All valid tuples of the scheme with p*p' <= max_pp, lexicographic order.

    Triple tuples range over odd c; quintuple tuples include c = 0.
    A negative bound raises :class:`ParameterError` on the first step.
    """
    if max_pp < 0:
        raise ParameterError(f"max_pp must be nonnegative, got {max_pp}")
    a = scheme.modulus
    for p in range(2, max_pp // 2 + 1):
        for p_prime in range(2, max_pp // p + 1):
            if p % a != 0:
                continue
            if math.gcd(p, p_prime) != 1:
                continue
            for b in divisors(p // a):
                for b_prime in divisors(p_prime):
                    for a_prime in divisors(p_prime // b_prime):
                        start = 1 if scheme is Scheme.TRIPLE else 0
                        step = 2 if scheme is Scheme.TRIPLE else 1
                        for c in range(start, a_prime, step):
                            yield FactorizationParams(scheme, p, p_prime, a_prime, b, b_prime, c)


def iter_applicable_params(kind: IdentityKind, max_pp: int) -> Iterator[FactorizationParams]:
    for fp in iter_scheme_params(kind.scheme, max_pp):
        if applicability_error(kind, fp) is None:
            yield fp
