"""Enumeration of the label pairs contributing to each character sum.

Write P = p'/b' and Q = p/b.  A label pair (r, s), 0 < r < Q, 0 < s < P,
is type 1 iff M divides P*r - Q*s + k and type 2 iff M divides
P*r + Q*s - k, where (M, k) = (4a', c) in the triple scheme and
(6a', 3c - a') in the quintuple scheme.  Since a' divides P and M, both
types need Q*s = k (mod a'), so only the rows s of that class are visited;
on each of them r runs over its full range.  Every visited cell cross-checks
the definitions against equivalent criteria: no cell is of both types; a
triple cell contributes iff r is odd and ps = bc (mod a'), with even weight
iff type 1; a quintuple cell's types agree with the forms of opposite middle
sign.  The count must be n.  A disagreement is an implementation bug and
raises :class:`LemmaViolation`.  The full-grid scan, which also checks the
cells outside the class, is the test oracle ``grid_pairs`` in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .params import FactorizationParams, Scheme


class LemmaViolation(RuntimeError):
    """Internal cross-check mismatch; must be impossible for valid inputs."""


class ContributingPair(NamedTuple):
    r: int
    s: int
    ptype: int  # 1 or 2
    weight: int  # t_{r,s} for triple tuples, f_{r,s} for quintuple tuples

    def to_json_dict(self) -> dict:
        return {"r": self.r, "s": self.s, "type": self.ptype, "weight": self.weight}

    def __str__(self) -> str:
        return f"(r={self.r}, s={self.s}) type={self.ptype} weight={self.weight}"


def contributing_pairs(fp: FactorizationParams) -> list[ContributingPair]:
    """The contributing pairs of the tuple's character sum, sorted by (s, r).

    The weight is t = (P*r - Q*s + c)/2 on triple pairs and the quotient of
    the matching divisibility condition by 6a' on quintuple pairs.
    """
    p, b, ap, c = fp.p, fp.b, fp.a_prime, fp.c
    P, Q = fp.pp_over_bp, fp.p_over_b
    triple = fp.scheme is Scheme.TRIPLE
    M, k = (4 * ap, c) if triple else (6 * ap, 3 * c - ap)
    alt = ap + 3 * c  # the quintuple forms of opposite middle sign
    g = math.gcd(Q, ap)
    step = ap // g
    first = k // g * pow(Q // g, -1, step) % step
    out: list[ContributingPair] = []
    for s in range(first or step, P, step):
        qs = Q * s
        row = (p * s - b * c) % ap == 0  # the triple membership criterion's part in s
        for r in range(1, Q):
            pr = P * r
            d1 = pr - qs + k
            d2 = pr + qs - k
            type1 = d1 % M == 0
            type2 = d2 % M == 0
            if type1 and type2:
                raise LemmaViolation(f"pair ({r},{s}) matched both types")
            if triple:
                if (type1 or type2) != (r % 2 == 1 and row):
                    raise LemmaViolation(f"membership criterion disagrees at ({r},{s})")
                if not (type1 or type2):
                    continue
                if d1 % 2 != 0:
                    raise LemmaViolation(f"odd weight numerator at ({r},{s})")
                weight = d1 // 2
                if (weight % 2 == 0) != type1:
                    raise LemmaViolation(f"weight parity disagrees with type at ({r},{s})")
            else:
                if type1 != ((pr + qs - alt) % M == 0) or type2 != ((pr - qs + alt) % M == 0):
                    raise LemmaViolation(f"closed-form criterion disagrees at ({r},{s})")
                if not (type1 or type2):
                    continue
                weight = (d1 if type1 else d2) // M
            out.append(ContributingPair(r, s, 1 if type1 else 2, weight))
    # The quintuple count-n law needs c >= 1: for c = 0 the residue solution
    # ps/b = 3c (mod a') sits on the excluded boundary s = 0, and the actual
    # count drops below n (e.g. (p,p')=(3,2), a'=2, c=0 has no pairs at all).
    # The signed sums still cancel to zero there, which the verifier checks.
    if (triple or c >= 1) and len(out) != fp.n:
        raise LemmaViolation(f"expected {fp.n} contributing pairs, found {len(out)}")
    return out
