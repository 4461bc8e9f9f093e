"""Independent reference for the benchmark's output checks.

Everything here is written from the definitions, separately from charfactor's
series engine, so agreement with a certificate or a scan report means
something:

* product sides are expanded one binomial ``(1 - s q^m)`` at a time on a
  plain list;
* the bosonic character numerators are written out term by term;
* division by ``(q^n; q^n)`` runs the partition recurrence, one factor
  ``1/(1 - q^{nk})`` at a time.

This module imports nothing from charfactor.
"""

from __future__ import annotations

import math
from fractions import Fraction

AS_STATED = "as_stated"
SWAPPED = "swapped"

#: product-argument signs of each identity kind (triple: three factors and the
#: base; quintuple: three factors, the base, then the two second-product factors)
KIND_SIGNS = {
    "main": (1, 1, 1, 1),
    "main_a": (1, -1, -1, -1),
    "main_b": (-1, 1, -1, -1),
    "quint": (1, 1, 1, 1, 1, 1),
    "quint_a": (-1, -1, 1, 1, 1, 1),
    "quint_b": (1, -1, -1, -1, -1, -1),
    "quint_c": (-1, 1, -1, -1, -1, -1),
}
TRIPLE_KINDS = ("main", "main_a", "main_b")
PLAIN_KINDS = ("main", "quint")


# ---------------------------------------------------------------------------
# series primitives
# ---------------------------------------------------------------------------

def expand_product(binomials, order: int) -> list[int]:
    """Coefficients 0..order of prod (1 - s q^m) over the (s, m) pairs."""
    c = [0] * (order + 1)
    c[0] = 1
    for s, m in binomials:
        if m == 0:
            if s == 1:
                return [0] * (order + 1)
            c = [2 * v for v in c]
            continue
        for k in range(order, m - 1, -1):
            v = c[k - m]
            if v:
                c[k] -= s * v
    return c


def pochhammer_binomials(factors, base, order: int) -> list[tuple[int, int]]:
    """The binomials (s, m) with m <= order of prod_i prod_j (1 - u_j v^i).

    ``factors`` are the u_j and ``base`` is v, each as (sign, exponent).
    """
    sb, eb = base
    out = []
    i = 0
    while any(e + i * eb <= order for _, e in factors):
        vs = sb if i % 2 else 1
        for s, e in factors:
            m = e + i * eb
            if m <= order:
                out.append((s * vs, m))
        i += 1
    return out


def divide_by_euler(c: list[int], n: int) -> list[int]:
    """c / (q^n; q^n) truncated at len(c) - 1, by the partition recurrence."""
    out = list(c)
    order = len(out) - 1
    for k in range(1, order // n + 1):
        step = n * k
        for j in range(step, order + 1):
            out[j] += out[j - step]
    return out


def partition_numbers(order: int) -> list[int]:
    """p(0..order)."""
    return divide_by_euler([1] + [0] * order, 1)


# ---------------------------------------------------------------------------
# product sides
# ---------------------------------------------------------------------------

def product_numerator(scheme: str, ap: int, B: int, c: int, order: int,
                      signs: tuple[int, ...]) -> list[int]:
    """The Pochhammer part of a product side, before dividing by (q^n; q^n)."""
    if scheme == "triple":
        s1, s2, s3, sb = signs
        binomials = pochhammer_binomials(
            [(s1, B * (ap - c) // 2), (s2, B * (ap + c) // 2), (s3, B * ap)], (sb, B * ap), order)
    else:
        s1, s2, s3, sb, t1, t2 = signs
        binomials = pochhammer_binomials(
            [(s1, B * c), (s2, B * (2 * ap - c)), (s3, 2 * B * ap)], (sb, 2 * B * ap), order)
        binomials += pochhammer_binomials(
            [(t1, 2 * B * (ap + c)), (t2, 2 * B * (ap - c))], (1, 4 * B * ap), order)
    return expand_product(binomials, order)


def product_side(scheme: str, ap: int, B: int, c: int, n: int, order: int,
                 signs: tuple[int, ...] | None = None) -> list[int]:
    """phi (triple) or psi (quintuple) of the quadruple, coefficients 0..order."""
    if signs is None:
        signs = KIND_SIGNS["main" if scheme == "triple" else "quint"]
    return divide_by_euler(product_numerator(scheme, ap, B, c, order, signs), n)


def sign_violations(coeffs: list[int], n: int) -> list[tuple[int, int, int]]:
    """Every (j, c_j, c_{j+n}) whose two coefficients have opposite signs."""
    return [(j, coeffs[j], coeffs[j + n]) for j in range(len(coeffs) - n)
            if coeffs[j] * coeffs[j + n] < 0]


# ---------------------------------------------------------------------------
# character sides
# ---------------------------------------------------------------------------

def contributing_pairs(scheme: str, p: int, pp: int, ap: int, b: int, bp: int,
                       c: int) -> list[tuple[int, int, int, int]]:
    """(r, s, type, weight) of every contributing pair, sorted by (s, r)."""
    pb, ppb = p // b, pp // bp
    out = []
    for s in range(1, ppb):
        for r in range(1, pb):
            if scheme == "triple":
                d1 = ppb * r - pb * s + c
                d2 = ppb * r + pb * s - c
                if d1 % (4 * ap) == 0:
                    out.append((r, s, 1, d1 // 2))
                elif d2 % (4 * ap) == 0:
                    out.append((r, s, 2, d1 // 2))
            else:
                d1 = ppb * r - pb * s - ap + 3 * c
                d2 = ppb * r + pb * s + ap - 3 * c
                if d1 % (6 * ap) == 0:
                    out.append((r, s, 1, d1 // (6 * ap)))
                elif d2 % (6 * ap) == 0:
                    out.append((r, s, 2, d2 // (6 * ap)))
    return out


def _parity(v: int) -> int:
    return -1 if v % 2 else 1


def pair_sign(kind: str, ptype: int, t: int, variant: str) -> int:
    """Sign of a pair's character under the kind's rule and sign reading."""
    type_sign = 1 if ptype == 1 else -1
    swap = variant == SWAPPED
    if kind in PLAIN_KINDS:
        return type_sign
    if kind in ("main_a", "main_b"):
        plus = (kind == "main_a") != swap
        return _parity(t * (t + 1) // 2) if plus else _parity(t * (t - 1) // 2)
    if kind == "quint_a":
        base = _parity(t) * type_sign
        return -base if (swap and ptype == 2) else base
    w = t if ptype == 1 else -t
    plus = (kind == "quint_c") != swap
    return (_parity(w * (w + 1) // 2) if plus else _parity(w * (w - 1) // 2)) * type_sign


def character_numerator(kind: str, p: int, pp: int, ap: int, b: int, bp: int, c: int,
                        order: int, variant: str) -> list[int]:
    """q^E * sum_pairs sign * q^(n Delta) * theta_{rb,sb'}(q^n), coefficients 0..order.

    theta is the bosonic numerator of the normalized character; the whole
    character side is this sum divided by (q^n; q^n).
    """
    scheme = "triple" if kind in TRIPLE_KINDS else "quintuple"
    a = 2 if scheme == "triple" else 3
    B = b * bp
    n = p * pp // (a * ap * B)
    if scheme == "triple":
        e_num = (p - pp) ** 2 - (c * B) ** 2
    else:
        e_num = (p - pp) ** 2 - ((ap - 3 * c) * B) ** 2
    e_pref = Fraction(e_num, 4 * B * a * ap)
    ppp = p * pp
    acc = [0] * (order + 1)
    for r, s, ptype, t in contributing_pairs(scheme, p, pp, ap, b, bp, c):
        R, S = r * b, s * bp
        delta = Fraction((pp * R - p * S) ** 2 - (pp - p) ** 2, 4 * ppp)
        offset = e_pref + n * delta
        if offset.denominator != 1 or offset < 0:
            raise ValueError(f"character ({R},{S}) sits at exponent {offset}")
        sign = pair_sign(kind, ptype, t, variant)
        room = (order - int(offset)) // n
        if room < 0:
            continue
        for term_sign, lin, const in ((sign, pp * R - p * S, 0), (-sign, pp * R + p * S, R * S)):
            # ppp j^2 + lin j + const <= room holds only for |j| <= jmax
            jmax = (abs(lin) + math.isqrt(lin * lin + 4 * ppp * room)) // (2 * ppp) + 1
            for j in range(-jmax, jmax + 1):
                e = ppp * j * j + lin * j + const
                if e < 0:
                    raise ValueError(f"negative theta exponent {e} at j={j}")
                if e <= room:
                    acc[int(offset) + n * e] += term_sign
    return acc


def certificate_sides(kind: str, p: int, pp: int, ap: int, b: int, bp: int, c: int,
                      order: int, variant: str) -> tuple[list[int], list[int]]:
    """(product side, character side) of the identity, coefficients 0..order."""
    scheme = "triple" if kind in TRIPLE_KINDS else "quintuple"
    a = 2 if scheme == "triple" else 3
    B = b * bp
    n = p * pp // (a * ap * B)
    lhs = product_side(scheme, ap, B, c, n, order, KIND_SIGNS[kind])
    rhs = divide_by_euler(character_numerator(kind, p, pp, ap, b, bp, c, order, variant), n)
    return lhs, rhs


# ---------------------------------------------------------------------------
# instance sets
# ---------------------------------------------------------------------------

def _applicable(kind: str, p: int, pp: int, ap: int, b: int, bp: int, c: int, n: int) -> bool:
    """The extra hypotheses of the signed kinds' theorems."""
    pb, ppb = p // b, pp // bp
    if kind == "main_a":
        return n % 2 == 0 and (ap - c) % 4 == 0
    if kind == "main_b":
        return n % 2 == 0 and (ap - c) % 4 != 0
    if kind == "quint_a":
        return n % 2 == 0 and (ppb % 2 == 0 or (pb % 2 == 0 and c % 2 == 1))
    if kind == "quint_b":
        return n % 4 == 0 and (ppb % 4 == 0 or (pb % 4 == 0 and c % 4 == 0))
    if kind == "quint_c":
        return n % 4 == 0 and (ppb % 4 == 0 or (pb % 4 == 0 and (c + 2) % 4 == 0))
    return True


def applicable_tuples(kind: str, max_pp: int) -> list[tuple[int, ...]]:
    """Every (p, p', a', b, b', c) of the kind with p p' <= max_pp, sorted.

    A tuple has p, p' >= 2 coprime, a b | p and a' b' | p', a' > c >= 0 and,
    in the triple scheme, c odd.
    """
    a = 2 if kind in TRIPLE_KINDS else 3
    out = []
    for p in range(2, max_pp + 1):
        for pp in range(2, max_pp // p + 1):
            if math.gcd(p, pp) != 1:
                continue
            for b in range(1, p + 1):
                if p % (a * b):
                    continue
                for bp in range(1, pp + 1):
                    for ap in range(1, pp + 1):
                        if pp % (ap * bp):
                            continue
                        n = p * pp // (a * ap * b * bp)
                        for c in range(ap):
                            if a == 2 and c % 2 == 0:
                                continue
                            if _applicable(kind, p, pp, ap, b, bp, c, n):
                                out.append((p, pp, ap, b, bp, c))
    return sorted(out)


def canonical_quadruples(scheme: str, max_size: int) -> list[tuple[int, int, int, int]]:
    """Every canonical (a', B, c, n) with a' B n <= max_size, sorted.

    Canonical means gcd(a', c) = 1 when c > 0 and gcd(B, n) = 1.  Triple
    quadruples have a' and c odd; quintuple ones have 3 not dividing a'.
    """
    out = []
    for ap in range(1, max_size + 1):
        if (scheme == "triple" and ap % 2 == 0) or (scheme == "quintuple" and ap % 3 == 0):
            continue
        for B in range(1, max_size // ap + 1):
            for n in range(1, max_size // (ap * B) + 1):
                if math.gcd(B, n) != 1:
                    continue
                for c in range(ap):
                    if scheme == "triple" and c % 2 == 0:
                        continue
                    if c > 0 and math.gcd(ap, c) != 1:
                        continue
                    out.append((ap, B, c, n))
    return sorted(out)
