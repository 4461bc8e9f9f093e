"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (dict/list arithmetic, textbook DP)
and avoids the package's series pipeline, so agreement is meaningful.
"""

from __future__ import annotations

import math

from charfactor.pairs import ContributingPair, LemmaViolation
from charfactor.params import Scheme


def brute_convolve(a: list[int], b: list[int], n_out: int) -> list[int]:
    out = [0] * n_out
    for i, ai in enumerate(a):
        if ai == 0 or i >= n_out:
            continue
        for j, bj in enumerate(b):
            if i + j >= n_out:
                break
            out[i + j] += ai * bj
    return out


def partition_counts(order: int) -> list[int]:
    """p(0..order) by the coin-counting DP over parts 1..order."""
    ways = [0] * (order + 1)
    ways[0] = 1
    for part in range(1, order + 1):
        for k in range(part, order + 1):
            ways[k] += ways[k - part]
    return ways


def euler_power_oracle(n: int, order: int) -> list[int]:
    """Coefficients 0..order of 1/(q^n; q^n) from the partition-counting DP."""
    p = partition_counts(order // n)
    return [p[k // n] if k % n == 0 else 0 for k in range(order + 1)]


def support_exponent_residues(pp) -> list[int]:
    """Every residue mod n, with multiplicity, of the quadruple's product-side exponents.

    Triple: residues of m*B*(a'm + c)/2 over m = 0..2n-1.
    Quintuple: residues of m*B*(3a'm + a' - 3c) over m = 0..n-1.
    """
    ap, B, c, n = pp.a_prime, pp.B, pp.c, pp.n
    if pp.scheme is Scheme.TRIPLE:
        return [(m * B * (ap * m + c) // 2) % n for m in range(2 * n)]
    return [(m * B * (3 * ap * m + ap - 3 * c)) % n for m in range(n)]


def signed_distinct_counts(order: int) -> list[int]:
    """Coefficients of prod_{m>=1} (1 - q^m): partitions into distinct parts
    weighted by (-1)^(number of parts)."""
    g = [0] * (order + 1)
    g[0] = 1
    for part in range(1, order + 1):
        for k in range(order, part - 1, -1):
            g[k] -= g[k - part]
    return g


def naive_product(binomials: list[tuple[int, int]], order: int) -> list[int]:
    """Expand prod (1 - s * q^m) over (s, m) pairs with dict arithmetic."""
    poly = {0: 1}
    for s, m in binomials:
        if m > order:
            continue
        new = dict(poly)
        for e, c in poly.items():
            if e + m <= order:
                new[e + m] = new.get(e + m, 0) - s * c
        poly = {e: c for e, c in new.items() if c}
    return [poly.get(k, 0) for k in range(order + 1)]


def pochhammer_binomials(factors: list[tuple[int, int]], base: tuple[int, int], order: int) -> list[tuple[int, int]]:
    """The (sign, exponent) binomials of (u_1,...,u_k; v)_inf up to q^order; factors/base are (sign, exponent)."""
    sb, eb = base
    binomials = []
    i = 0
    while True:
        if all(e + i * eb > order for _, e in factors) or not factors:
            break
        for s, e in factors:
            if e + i * eb <= order:
                binomials.append((s * (sb ** (i % 2)), e + i * eb))
        i += 1
    return binomials


def naive_pochhammer(factors: list[tuple[int, int]], base: tuple[int, int], order: int) -> list[int]:
    """(u_1,...,u_k; v)_inf via naive_product; factors/base are (sign, exponent)."""
    return naive_product(pochhammer_binomials(factors, base, order), order)


def brute_theta(records, order: int) -> list[int] | None:
    """Coefficients 0..order of the sum over (a, b, c, s, chi) records of
    sum_k s * chi**k * q**(a k^2 + b k + c), with k running wide enough to
    reach every exponent <= order; None when some exponent is negative."""
    out = [0] * (order + 1)
    for a, b, c, s, chi in records:
        reach = abs(b) + abs(c) + order + 1  # beyond it, a k^2 + b k + c > order
        for k in range(-reach, reach + 1):
            e = a * k * k + b * k + c
            if e < 0:
                return None
            if e <= order:
                out[e] += s * chi ** abs(k)
    return out


def rc_normalized_character(p: int, pp: int, r: int, s: int, order: int) -> list[int]:
    """Normalized character coefficients straight from the bosonic double sum."""
    num = [0] * (order + 1)
    jmax = int(math.isqrt(order // (p * pp))) + 2
    for j in range(-jmax, jmax + 1):
        e1 = p * pp * j * j + (pp * r - p * s) * j
        if 0 <= e1 <= order:
            num[e1] += 1
        e2 = p * pp * j * j + (pp * r + p * s) * j + r * s
        if 0 <= e2 <= order:
            num[e2] -= 1
    return brute_convolve(num, partition_counts(order), order + 1)


#: each identity kind's product sign vector as the paper writes it: the signs of
#: the three arguments and the base of (u, u^-1 v, v; v), then, for the quintuple
#: kinds, of the two arguments of (u^2 v, u^-2 v; v^2)
KIND_SIGNS = {
    "main": (1, 1, 1, 1),
    "main_a": (1, -1, -1, -1),
    "main_b": (-1, 1, -1, -1),
    "quint": (1, 1, 1, 1, 1, 1),
    "quint_a": (-1, -1, 1, 1, 1, 1),
    "quint_b": (1, -1, -1, -1, -1, -1),
    "quint_c": (-1, 1, -1, -1, -1, -1),
}


def _parity(v: int) -> int:
    return -1 if v % 2 else 1


def pair_sign(kind: str, ptype: int, t: int, swapped: bool) -> int:
    """The sign of a pair's character under each kind's rule, written out kind by kind.

    The plain kinds use the type alone.  The signed triple kinds use the
    triangular parities t(t+1)/2 (main_a) and t(t-1)/2 (main_b), and the
    swapped reading exchanges them.  quint_a multiplies the type sign by the
    parity of t, and its swapped reading flips every type-2 pair.  quint_b
    and quint_c multiply the type sign by the triangular parities w(w-1)/2
    and w(w+1)/2 at w = t on type 1 and w = -t on type 2, and the swapped
    reading exchanges them.
    """
    type_sign = 1 if ptype == 1 else -1
    if kind in ("main", "quint"):
        return type_sign
    if kind in ("main_a", "main_b"):
        return _parity(t * (t + 1) // 2) if (kind == "main_a") != swapped else _parity(t * (t - 1) // 2)
    if kind == "quint_a":
        base = _parity(t) * type_sign
        return -base if swapped and ptype == 2 else base
    w = t if ptype == 1 else -t
    plus = (kind == "quint_c") != swapped
    return (_parity(w * (w + 1) // 2) if plus else _parity(w * (w - 1) // 2)) * type_sign


def grid_pairs(fp) -> list[ContributingPair]:
    """Contributing pairs from every label cell 0 < r < p/b, 0 < s < p'/b', sorted by (s, r).

    Triple: type 1 iff 4a' divides p'r/b' - ps/b + c, type 2 iff it divides
    p'r/b' + ps/b - c, weight t = (p'r/b' - ps/b + c)/2; cross-checked
    against "r odd and ps = bc mod a'" and "t even iff type 1".  Quintuple:
    type 1 iff 6a' divides p'r/b' - ps/b - a' + 3c, type 2 iff it divides
    p'r/b' + ps/b + a' - 3c, weight the quotient; cross-checked against the
    forms of opposite middle sign.  Any disagreement raises LemmaViolation,
    and so does a count other than n (quintuple c = 0 excepted).
    """
    ap, c = fp.a_prime, fp.c
    triple = fp.scheme is Scheme.TRIPLE
    mod = 4 * ap if triple else 6 * ap
    out = []
    for s in range(1, fp.pp_over_bp):
        ps = fp.p_over_b * s
        for r in range(1, fp.p_over_b):
            pr = fp.pp_over_bp * r
            if triple:
                d1 = pr - ps + c
                d2 = pr + ps - c
            else:
                d1 = pr - ps - ap + 3 * c
                d2 = pr + ps + ap - 3 * c
            type1 = d1 % mod == 0
            type2 = d2 % mod == 0
            if type1 and type2:
                raise LemmaViolation(f"pair ({r},{s}) matched both types")
            if triple:
                member = r % 2 == 1 and (fp.p * s - fp.b * c) % ap == 0
                if (type1 or type2) != member:
                    raise LemmaViolation(f"membership criterion disagrees at ({r},{s})")
                if not member:
                    continue
                if d1 % 2 != 0:
                    raise LemmaViolation(f"odd weight numerator at ({r},{s})")
                t = d1 // 2
                if (t % 2 == 0) != type1:
                    raise LemmaViolation(f"weight parity disagrees with type at ({r},{s})")
                out.append(ContributingPair(r, s, 1 if type1 else 2, t))
                continue
            alt1 = (pr + ps - ap - 3 * c) % mod == 0
            alt2 = (pr - ps + ap + 3 * c) % mod == 0
            if type1 != alt1 or type2 != alt2:
                raise LemmaViolation(f"closed-form criterion disagrees at ({r},{s})")
            if type1:
                out.append(ContributingPair(r, s, 1, d1 // mod))
            elif type2:
                out.append(ContributingPair(r, s, 2, d2 // mod))
    if (triple or c >= 1) and len(out) != fp.n:
        raise LemmaViolation(f"expected {fp.n} contributing pairs, found {len(out)}")
    return out
