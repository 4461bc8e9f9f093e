"""Enumeration of the label pairs contributing to each character sum.

For a full parameter tuple, the contributing pairs (r, s) with
0 < r < p/b, 0 < s < p'/b' are those whose divisibility condition holds;
type 1 pairs enter the sum with one sign and type 2 pairs with the other.
Each enumeration cross-checks the definitional conditions against the
equivalent closed-form criteria; a disagreement means an implementation bug
and raises :class:`LemmaViolation`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import FactorizationParams, ParameterError, Scheme


class LemmaViolation(RuntimeError):
    """Internal cross-check mismatch; must be impossible for valid inputs."""


@dataclass(frozen=True)
class ContributingPair:
    r: int
    s: int
    ptype: int  # 1 or 2
    weight: int  # t_{r,s} for triple tuples, f_{r,s} for quintuple tuples

    def to_json_dict(self) -> dict:
        return {"r": self.r, "s": self.s, "type": self.ptype, "weight": self.weight}

    def __str__(self) -> str:
        return f"(r={self.r}, s={self.s}) type={self.ptype} weight={self.weight}"


def enumerate_triple_pairs(fp: FactorizationParams) -> list[ContributingPair]:
    """Pairs contributing to a triple-scheme sum, sorted by (s, r).

    Type 1 iff (p'r/b' - ps/b + c) is divisible by 4a', type 2 iff
    (p'r/b' + ps/b - c) is; the weight is t = (p'r/b' - ps/b + c)/2 in both
    cases.  Cross-checked against: contributing iff r odd and ps = bc mod a',
    and t even iff type 1.
    """
    if fp.scheme is not Scheme.TRIPLE:
        raise ParameterError("scheme: enumerate_triple_pairs needs a triple-scheme tuple")
    ap = fp.a_prime
    mod = 4 * ap
    rmax = fp.p_over_b
    smax = fp.pp_over_bp
    out: list[ContributingPair] = []
    for s in range(1, smax):
        ps = fp.p_over_b * s
        for r in range(1, rmax):
            pr = fp.pp_over_bp * r
            d1 = pr - ps + fp.c
            d2 = pr + ps - fp.c
            type1 = d1 % mod == 0
            type2 = d2 % mod == 0
            member = r % 2 == 1 and (fp.p * s - fp.b * fp.c) % ap == 0
            if type1 and type2:
                raise LemmaViolation(f"pair ({r},{s}) matched both types")
            if (type1 or type2) != member:
                raise LemmaViolation(f"membership criterion disagrees at ({r},{s})")
            if not (type1 or type2):
                continue
            if d1 % 2 != 0:
                raise LemmaViolation(f"odd weight numerator at ({r},{s})")
            t = d1 // 2
            if (t % 2 == 0) != type1:
                raise LemmaViolation(f"weight parity disagrees with type at ({r},{s})")
            out.append(ContributingPair(r, s, 1 if type1 else 2, t))
    if len(out) != fp.n:
        raise LemmaViolation(f"expected {fp.n} contributing pairs, found {len(out)}")
    return out


def enumerate_quintuple_pairs(fp: FactorizationParams) -> list[ContributingPair]:
    """Pairs contributing to a quintuple-scheme sum, sorted by (s, r).

    Type 1 iff (p'r/b' - ps/b - a' + 3c) is divisible by 6a', type 2 iff
    (p'r/b' + ps/b + a' - 3c) is; the weight is the corresponding quotient.
    Cross-checked against the 6a'-divisibility forms with the opposite
    middle sign.
    """
    if fp.scheme is not Scheme.QUINTUPLE:
        raise ParameterError("scheme: enumerate_quintuple_pairs needs a quintuple-scheme tuple")
    ap = fp.a_prime
    mod = 6 * ap
    rmax = fp.p_over_b
    smax = fp.pp_over_bp
    out: list[ContributingPair] = []
    for s in range(1, smax):
        ps = fp.p_over_b * s
        for r in range(1, rmax):
            pr = fp.pp_over_bp * r
            d1 = pr - ps - ap + 3 * fp.c
            d2 = pr + ps + ap - 3 * fp.c
            type1 = d1 % mod == 0
            type2 = d2 % mod == 0
            alt1 = (pr + ps - ap - 3 * fp.c) % mod == 0
            alt2 = (pr - ps + ap + 3 * fp.c) % mod == 0
            if type1 and type2:
                raise LemmaViolation(f"pair ({r},{s}) matched both types")
            if type1 != alt1 or type2 != alt2:
                raise LemmaViolation(f"closed-form criterion disagrees at ({r},{s})")
            if type1:
                out.append(ContributingPair(r, s, 1, d1 // mod))
            elif type2:
                out.append(ContributingPair(r, s, 2, d2 // mod))
    # The count-n law needs c >= 1: for c = 0 the residue solution ps/b = 3c
    # (mod a') sits on the excluded boundary s = 0, and the actual count drops
    # below n (e.g. (p,p')=(3,2), a'=2, c=0 has no pairs at all).  The signed
    # sums still cancel to zero there, which the verifier checks instead.
    if fp.c >= 1 and len(out) != fp.n:
        raise LemmaViolation(f"expected {fp.n} contributing pairs, found {len(out)}")
    return out


def contributing_pairs(fp: FactorizationParams) -> list[ContributingPair]:
    if fp.scheme is Scheme.TRIPLE:
        return enumerate_triple_pairs(fp)
    return enumerate_quintuple_pairs(fp)
