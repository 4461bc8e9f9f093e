"""Build both sides of each factorization identity and certify equality.

The plain identities (one per scheme) state that a signed Pochhammer product
over (q^n; q^n) equals a prefactor power of q times an alternating sum of n
minimal-model characters evaluated at q**n.  Four signed variants apply when
extra parity conditions hold.  :class:`IdentityKind` is the one table of the
seven kinds: each row holds the kind's scheme, the Jacobi signs (s1, s3) of
its product side, and the two documented readings of its per-character sign
rule ("as stated" and its swap) as exponents of one parity product of the
pair's type and the triangular parities of its weight (:func:`pair_sign`).
A kind has variants when the readings differ; both are then checked, and
the certificate records which one held.

:func:`verify` compares numerators.  Each character is
q**Delta * theta_{r,s}(q) / (q;q)_inf, so at q**n both sides carry the factor
1/(q^n;q^n), and it cancels: the product side leaves its Pochhammer
numerator, the character side leaves the sum over pairs of
sign * q**(E + n*Delta) * theta_{r,s}(q**n), each pair's two bosonic
:class:`~charfactor.series.Theta` records at q**n, shifted by the integer
E + n*Delta and signed.  Because (q^n;q^n) has constant term 1, two series
agree up to degree d exactly when their numerators do, so the verdict and
the first mismatch degree are those of the full sides.

:func:`verify` decides from an order-free residual.  By the Jacobi triple
and quintuple product identities, the product-side numerator is a short
list of theta records too (:func:`~charfactor.products.side_thetas`).
Each pair's records are born canonical on n*pp' as keys, the product's are
summed and split (:func:`~charfactor.series.dissect`) onto the same A, and
for each sign reading :func:`prove` counts the keys, product minus character.
The keys left with a nonzero count are the residual: theta records whose
sum is the difference of the numerators at every order.  An empty residual
proves the identity at every order; otherwise the first mismatch is the
least exponent where the residual's terms, added up to the order, leave a
nonzero sum.  Nothing is expanded to the truncation.  :func:`check` is the
independent truncated reference: it expands both numerators to the order
and compares them term by term.  :func:`build_lhs` and :func:`build_rhs`
give the full sides, each divided by (q^n;q^n) in one
:func:`~charfactor.series.over_euler` call, with no series multiply.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import products, series
from .minimal_model import check_label
from .minimal_model import normalized_character  # noqa: F401  (perfbench/tracing.py patches this name)
from .pairs import ContributingPair, contributing_pairs
from .params import FactorizationParams, ParameterError, Scheme, divisors
from .series import NEEDS_CONSTANT_SLOT, SeriesError, ShiftedSeries, SignedMonomial, Theta
from .series import over_euler

AS_STATED = "as_stated"
SWAPPED = "swapped"
FAILED = "failed"

PREFIX_LEN = 16


class IdentityKind(enum.Enum):
    """The seven identity kinds, one table row each: scheme, Jacobi signs and sign rules.

    ``signs`` is ``(s1, s3)``: the product side is the Jacobi triple or
    quintuple product of u = s1 q^.. and v = s3 q^.. (see
    :func:`products.jacobi_arguments`).
    ``stated`` and ``swapped`` are the two readings of the kind's pair-sign
    rule as exponents of one parity product (see :func:`pair_sign`).
    """

    MAIN = "main", Scheme.TRIPLE, (1, 1), (1, 0, 0, 0), (1, 0, 0, 0)
    MAIN_A_EVEN = "main_a", Scheme.TRIPLE, (1, -1), (0, 1, 0, 0), (0, 0, 1, 0)
    MAIN_B_EVEN = "main_b", Scheme.TRIPLE, (-1, -1), (0, 0, 1, 0), (0, 1, 0, 0)
    QUINT = "quint", Scheme.QUINTUPLE, (1, 1), (1, 0, 0, 0), (1, 0, 0, 0)
    QUINT_A = "quint_a", Scheme.QUINTUPLE, (-1, 1), (1, 1, 1, 0), (0, 1, 1, 0)
    QUINT_B = "quint_b", Scheme.QUINTUPLE, (1, -1), (1, 0, 1, 1), (1, 1, 0, 1)
    QUINT_C = "quint_c", Scheme.QUINTUPLE, (-1, -1), (1, 1, 0, 1), (1, 0, 1, 1)

    def __new__(cls, value: str, scheme: Scheme, signs: tuple[int, int],
                stated: tuple[int, int, int, int], swapped: tuple[int, int, int, int]):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.scheme, kind.signs, kind.stated, kind.swapped = scheme, signs, stated, swapped
        kind.has_variants = stated != swapped
        return kind


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
    return _kind_condition_error(kind, fp.n, fp.a_prime, fp.c, fp.p_over_b, fp.pp_over_bp)


def _kind_condition_error(kind: IdentityKind, n: int, ap: int, c: int, Q: int, P: int) -> str | None:
    """:func:`applicability_error` past the scheme check, from n, a', c, Q = p/b and P = p'/b'."""
    if kind is IdentityKind.MAIN_A_EVEN:
        if n % 2 != 0:
            return "n must be even"
        if (ap - c) % 4 != 0:
            return "a' must be congruent to c mod 4"
    elif kind is IdentityKind.MAIN_B_EVEN:
        if n % 2 != 0:
            return "n must be even"
        if (ap - c) % 4 == 0:
            return "a' must not be congruent to c mod 4"
    elif kind is IdentityKind.QUINT_A:
        if not (P % 2 == 0 or (Q % 2 == 0 and c % 2 == 1)):
            return "p'/b' even, or p/b even with c odd, is required"
        if n % 2 != 0:
            return "n must be even"
    elif kind is IdentityKind.QUINT_B:
        if not (P % 4 == 0 or (Q % 4 == 0 and c % 4 == 0)):
            return "4 | p'/b', or 4 | p/b with 4 | c, is required"
        if n % 4 != 0:
            return "n must be divisible by 4"
    elif kind is IdentityKind.QUINT_C:
        if not (P % 4 == 0 or (Q % 4 == 0 and (c + 2) % 4 == 0)):
            return "4 | p'/b', or 4 | p/b with 4 | c+2, is required"
        if n % 4 != 0:
            return "n must be divisible by 4"
    return None


def _require_applicable(kind: IdentityKind, fp: FactorizationParams) -> None:
    err = applicability_error(kind, fp)
    if err is not None:
        raise ParameterError(f"precondition failed: {err}")


def build_lhs(kind: IdentityKind, fp: FactorizationParams, order: int) -> ShiftedSeries:
    """The exact product side on the integer grid, truncated at ``order``."""
    _require_applicable(kind, fp)
    num = products.numerator(kind.scheme, fp.a_prime, fp.B, fp.c, order, kind.signs)
    return ShiftedSeries(over_euler(enumerate(num.coeffs), fp.n, order))


def _prefactor_numerator(fp: FactorizationParams) -> int:
    """E * 4aa'B for the :func:`prefactor_exponent` E: (p - p')^2 - (xB)^2, x = c (triple) or a' - 3c."""
    x = fp.c if fp.scheme is Scheme.TRIPLE else fp.a_prime - 3 * fp.c
    return (fp.p - fp.p_prime) ** 2 - (x * fp.B) ** 2


def prefactor_exponent(fp: FactorizationParams) -> Fraction:
    """Exponent of the global q-power in front of the character sum."""
    return Fraction(_prefactor_numerator(fp), 4 * fp.B * fp.a * fp.a_prime)


def pair_sign(kind: IdentityKind, pair: ContributingPair, variant: str = AS_STATED) -> int:
    """Coefficient sign of the pair's character under one reading of the kind's sign rule.

    The reading's exponents ``(e_type, e_plus, e_minus, e_neg)`` give the sign
    type_sign**e_type * par(w(w+1)/2)**e_plus * par(w(w-1)/2)**e_minus,
    where par(x) = (-1)**x and w is the weight, negated on type-2 pairs when
    e_neg is 1 (for the quintuple kinds the reduced theta index behind the
    sign is congruent to f on type 1 and to -f on type 2).  w -> -w
    exchanges the two triangular parities, so e_neg has no effect when
    e_plus = e_minus; and with both set the product is par(w).
    """
    if variant not in (AS_STATED, SWAPPED):
        raise ValueError(f"unknown sign variant {variant!r}")
    e_type, e_plus, e_minus, e_neg = kind.swapped if variant == SWAPPED else kind.stated
    w = -pair.weight if e_neg and pair.ptype == 2 else pair.weight
    odd = e_type * (pair.ptype - 1) + e_plus * (w * (w + 1) // 2) + e_minus * (w * (w - 1) // 2)
    return -1 if odd % 2 else 1


def _pair_records(fp: FactorizationParams, pairs: list[ContributingPair]) -> list[tuple[tuple, tuple]]:
    """Per pair, the :func:`~charfactor.series.dissect` keys ``(A, b, c, 1)`` of its two records on A = n*pp'.

    They are q**o times the ``bosonic_thetas`` of (r*b, s*b') at q**n, (A, nd, o) - (A, ne, nrs + o), d = p'r - ps,
    e = p'r + ps; o = E + n*Delta = (E*den - (p' - p)^2 + d^2) / den (den = 4*a*a'*B) must be a nonnegative integer.
    Shifting b into [0, 2A) and reflecting b > A leaves n|d|; e > pp' reflects to the label (p - r, p' - s).
    """
    p, pp, n, b, bp = fp.p, fp.p_prime, fp.n, fp.b, fp.b_prime
    A, den = n * p * pp, 4 * fp.a * fp.a_prime * fp.B
    top = _prefactor_numerator(fp) - (pp - p) ** 2
    out = []
    for pair in pairs:
        r, s = pair.r * b, pair.s * bp
        check_label(p, pp, r, s)
        d = pp * r - p * s
        offset, rem = divmod(top + d * d, den)
        if rem or offset < 0:
            raise SeriesError(f"non-integral identity side: character ({r},{s}) "
                              f"sits at exponent {Fraction(offset * den + rem, den)}")
        e = d + 2 * p * s
        if e > p * pp:
            e, r, s = 2 * p * pp - e, p - r, pp - s
        out.append(((A, n * abs(d), offset, 1), (A, n * e, n * r * s + offset, 1)))
    return out


def _character_thetas(fp: FactorizationParams, pairs: list[ContributingPair]) -> list[tuple[Theta, Theta]]:
    """The :class:`Theta` view of :func:`_pair_records`: the same series, each pair's two records."""
    return [(Theta(*x[:3]), Theta(*y[:3], -1)) for x, y in _pair_records(fp, pairs)]


def _signed_sum(kind: IdentityKind, pairs: list[ContributingPair],
                thetas: list[tuple[Theta, Theta]], variant: str, order: int) -> list[int]:
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
        return {
            "kind": self.kind.value,
            **self.params.to_json_dict(),
            "order": self.order,
            "pairs": [pr.to_json_dict() for pr in self.pairs],
            "match": self.match,
            "sign_variant": self.sign_variant,
            "first_mismatch": self.first_mismatch,
            "lhs_prefix": self.lhs_prefix,
            "rhs_prefix": self.rhs_prefix,
        }


# not on verify's path; perfbench/tracing.py patches this name
def integer_coefficients(series: ShiftedSeries, order: int) -> list[int]:
    """Dense integer-grid coefficients 0..order of an offset-0 series."""
    if series.offset != 0:
        series = series.as_integer_series()
    out = list(series.coeffs[: order + 1])
    out.extend([0] * (order + 1 - len(out)))
    return out


def first_mismatch_degree(lhs: list[int], rhs: list[int]) -> int | None:
    """The least index where the lists differ, or the shorter length past a common prefix; None if equal."""
    if lhs == rhs:
        return None
    for i, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            return i
    return min(len(lhs), len(rhs))


def _product_counts(product, A: int) -> dict:
    """The count per key of the :func:`~charfactor.series.dissect` pieces on A of the ``product`` records.

    Equal records are summed first, and those summing to zero dropped: at quintuple c = 0 they cancel or double.
    """
    sums, counts = defaultdict(int), {}
    for a, b, c, s, chi in product:
        sums[a, b, c, chi] += s
    for record in [Theta(a, b, c, s, chi) for (a, b, c, chi), s in sums.items() if s]:
        pieces = series.dissect(record, A)
        if pieces is None:  # valid parameters put every record on A's square multiples
            raise RuntimeError(f"theta record {record} does not dissect onto A = {A}")
        for key, s in pieces:
            counts[key] = counts.get(key, 0) + s
    return counts


def _residual(kind: IdentityKind, pairs: list, product: dict, keys: list, A: int, variant: str) -> list[Theta]:
    """:func:`prove` from the :func:`_product_counts` ``product`` and the pairs' :func:`_pair_records` ``keys``."""
    counts = dict(product)
    get = counts.get
    for pair, (k0, k1) in zip(pairs, keys):
        sign = pair_sign(kind, pair, variant)
        if k0[0] != A:  # dissect on A = 4a: k = 2k' + t, t = 1 reflected from (A, 2a + 2b, a + b + c, 1)
            (a, b0, c0, _), (_, b1, c1, _) = k0, k1
            k0, k1 = (A, 2 * b0, c0, 1), (A, 2 * b1, c1, 1)
            x0, x1 = (A, A - 2 * b0, a - b0 + c0, 1), (A, A - 2 * b1, a - b1 + c1, 1)
            counts[x0] = get(x0, 0) - sign
            counts[x1] = get(x1, 0) + sign
        counts[k0] = get(k0, 0) - sign
        counts[k1] = get(k1, 0) + sign
    return [Theta(a, b, c, count, chi) for (a, b, c, chi), count in counts.items() if count]


def _square(kind: IdentityKind, fp: FactorizationParams) -> int:
    """The one quadratic coefficient A of a proof: n*pp', or 4n*pp' for the quintuple scheme at odd n."""
    return fp.n * fp.p * fp.p_prime * (4 if kind.scheme is Scheme.QUINTUPLE and fp.n % 2 else 1)


def prove(kind: IdentityKind, fp: FactorizationParams, pairs: list[ContributingPair], variant: str) -> list[Theta]:
    """The residual of the identity under the sign reading ``variant``: empty when it holds at every order.

    Both numerators' canonical keys on one A are counted, product minus character; the residual is the keys
    left with a nonzero count, as :class:`Theta` records summing to the numerators' difference at every order.
    """
    A = _square(kind, fp)
    product = products.side_thetas(kind.scheme, fp.a_prime, fp.B, fp.c, kind.signs)
    return _residual(kind, pairs, _product_counts(product, A), _pair_records(fp, pairs), A, variant)


def _first_mismatch(residual: list[Theta], order: int) -> int | None:
    """The least exponent up to ``order`` where the ``residual``'s records sum to nonzero, or None.

    The records are summed term by term first: pieces can cancel at one exponent.
    """
    if not residual:
        return None
    terms = series._add_terms(defaultdict(int), residual, order)
    return min((e for e, c in terms.items() if c), default=None)


def _checked_pairs(kind: IdentityKind, fp: FactorizationParams, order: int) -> list[ContributingPair]:
    """The contributing pairs, after the order and applicability checks."""
    if order < 0:
        raise SeriesError(NEEDS_CONSTANT_SLOT)
    _require_applicable(kind, fp)
    return contributing_pairs(fp)


def _certificate(kind: IdentityKind, fp: FactorizationParams, order: int, pairs: list[ContributingPair],
                 variant: str, mismatch: int | None, lhs: list[int], rhs: list[int]) -> IdentityCertificate:
    """The certificate, its prefixes divided from the first terms of the numerators ``lhs`` and ``rhs``."""
    top = min(PREFIX_LEN - 1, order)
    lhs_prefix = over_euler(enumerate(lhs[:top + 1]), fp.n, top)
    rhs_prefix = list(lhs_prefix) if mismatch is None else over_euler(enumerate(rhs[:top + 1]), fp.n, top)
    return IdentityCertificate(kind, fp, order, pairs, mismatch is None, variant if mismatch is None else FAILED,
                               mismatch, lhs_prefix, rhs_prefix)


def check(kind: IdentityKind, fp: FactorizationParams, order: int) -> IdentityCertificate:
    """The truncated check alone: both numerators expanded to ``order`` and compared.

    For the signed kinds the stated rule is tried first and the swapped rule
    second; a failed certificate reports the mismatch against the stated rule.
    """
    pairs = _checked_pairs(kind, fp, order)
    thetas = _character_thetas(fp, pairs)
    lhs = products.numerator(kind.scheme, fp.a_prime, fp.B, fp.c, order, kind.signs).coeffs
    rhs = _signed_sum(kind, pairs, thetas, AS_STATED, order)
    variant, mismatch = AS_STATED, first_mismatch_degree(lhs, rhs)
    if mismatch is not None and kind.has_variants:
        if first_mismatch_degree(lhs, _signed_sum(kind, pairs, thetas, SWAPPED, order)) is None:
            variant, mismatch = SWAPPED, None
    return _certificate(kind, fp, order, pairs, variant, mismatch, lhs, rhs)


def verify(kind: IdentityKind, fp: FactorizationParams, order: int) -> IdentityCertificate:
    """Certify the identity to ``order`` from the residual of :func:`prove`; nothing is expanded to ``order``.

    The stated rule holds when its residual sums to zero up to ``order``;
    otherwise, for the signed kinds, the swapped rule when its does; else
    the certificate fails with the stated rule's first mismatch, as
    :func:`check` would.  Failure is a certificate, not an error.
    """
    pairs = _checked_pairs(kind, fp, order)
    keys, A = _pair_records(fp, pairs), _square(kind, fp)
    top = min(PREFIX_LEN - 1, order)
    product = products.side_thetas(kind.scheme, fp.a_prime, fp.B, fp.c, kind.signs)
    lhs, counts = series.bilateral_sum(product, top), _product_counts(product, A)
    variant, mismatch = AS_STATED, _first_mismatch(_residual(kind, pairs, counts, keys, A, AS_STATED), order)
    if mismatch is not None and kind.has_variants:
        if _first_mismatch(_residual(kind, pairs, counts, keys, A, SWAPPED), order) is None:
            variant, mismatch = SWAPPED, None
    rhs = lhs if mismatch is None else _signed_sum(kind, pairs, _character_thetas(fp, pairs), AS_STATED, top)
    return _certificate(kind, fp, order, pairs, variant, mismatch, lhs, rhs)


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
    cs = [c] + [2 * j - 1 for j in range(1, (a_prime - 1) // 2 + 1) if j != (c + 1) // 2]
    numerators = [series.triple_symbols(*products.jacobi_arguments(Scheme.TRIPLE, a_prime, 1, k))[0] for k in cs]
    euler = [((SignedMonomial(1, v),), SignedMonomial(1, v)) for v in [1] + [a_prime] * ((a_prime - 3) // 2)]
    return series.pochhammer_product(numerators, order) == series.pochhammer_product(euler, order)


# ---------------------------------------------------------------------------
# instance sweeps
# ---------------------------------------------------------------------------

def _scheme_tuples(scheme: Scheme, max_pp: int) -> Iterator[tuple[int, int, int, int, int, int]]:
    """The (p, p', a', b, b', c) of :func:`iter_scheme_params`, as plain integers."""
    if max_pp < 0:
        raise ParameterError(f"max_pp must be nonnegative, got {max_pp}")
    a = scheme.modulus
    start, step = (1, 2) if scheme is Scheme.TRIPLE else (0, 1)
    for p in range(a, max_pp // 2 + 1, a):
        for p_prime in range(2, max_pp // p + 1):
            if math.gcd(p, p_prime) != 1:
                continue
            for b in divisors(p // a):
                for b_prime in divisors(p_prime):
                    for a_prime in divisors(p_prime // b_prime):
                        for c in range(start, a_prime, step):
                            yield p, p_prime, a_prime, b, b_prime, c


def iter_scheme_params(scheme: Scheme, max_pp: int) -> Iterator[FactorizationParams]:
    """All valid tuples of the scheme with p*p' <= max_pp, lexicographic order.

    Triple tuples range over odd c; quintuple tuples include c = 0.
    A negative bound raises :class:`ParameterError` on the first step.
    """
    return (FactorizationParams(scheme, *t) for t in _scheme_tuples(scheme, max_pp))


def iter_applicable_params(kind: IdentityKind, max_pp: int) -> Iterator[FactorizationParams]:
    """The tuples of :func:`iter_scheme_params` that the kind applies to; the others are never built."""
    a = kind.scheme.modulus
    for p, pp, ap, b, bp, c in _scheme_tuples(kind.scheme, max_pp):
        if _kind_condition_error(kind, p * pp // (a * ap * b * bp), ap, c, p // b, pp // bp) is None:
            yield FactorizationParams(kind.scheme, p, pp, ap, b, bp, c)
