"""Sign scanning for the product coefficient streams.

phi (triple scheme) and psi (quintuple scheme) are the plain product sides
written as power series sum phi_j q**j.  The conjecture under scan says
phi_j * phi_{j+n} >= 0 for all j; it is a theorem in the covered parameter
cases, where a scan failure would indicate an implementation bug, and a
falsifiable conjecture elsewhere, where a violation is a reportable
counterexample candidate.  Scans always canonicalize the quadruple first,
so the gcd-reduction identities are exercised on every entry point.

Each stream is a plain product divided by (q^n; q^n), built in one pass
from the terms of its theta series (Jacobi triple and quintuple product,
:func:`products.side_thetas`) and the partition numbers; the Pochhammer
expansion stays with the verifier.
:func:`phi_series` and :func:`psi_series` give the stream as Python ints
(:func:`products.triple_side`, :func:`products.quintuple_side`).
:func:`scan` keeps it as the ``(W, order + 1)`` int64 limbs that pass fills,
one contiguous row per limb, reads one sign vector from them, and builds
Python ints only for the coefficients it reports.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._kernels import limb_ints, limb_signs
from .params import ParameterError, ProductParams, Scheme, canonicalize, is_prime, prime_factors
from .products import quintuple_side, side_thetas, triple_side
from .series import ShiftedSeries, theta_limbs


class Covered(enum.Enum):
    CASE1 = "case1"
    CASE2 = "case2"
    NONE = "none"


@dataclass(frozen=True)
class SignViolation:
    j: int
    lo: int  # coefficient at j
    hi: int  # coefficient at j + n


@dataclass
class SignReport:
    params: ProductParams  # canonical quadruple actually scanned
    order: int
    covered: Covered
    support: list[int]  # residues mod n carrying nonzero coefficients
    violations: list[SignViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            **self.params.to_json_dict(),
            "order": self.order,
            "covered": self.covered.value,
            "support": self.support,
            "violations": [
                {"j": v.j, "lo": str(v.lo), "hi": str(v.hi)} for v in self.violations
            ],
        }


def phi_series(pp: ProductParams, order: int) -> ShiftedSeries:
    """The triple-scheme product series for the quadruple, exact to ``order``."""
    if pp.scheme is not Scheme.TRIPLE:
        raise ParameterError("scheme: phi_series needs a triple-scheme quadruple")
    # a' and c odd is enforced by ProductParams
    return triple_side(pp.a_prime, pp.B, pp.c, pp.n, order)


def psi_series(pp: ProductParams, order: int) -> ShiftedSeries:
    """The quintuple-scheme product series; zero when c = 0 (factor 1 - q^0)."""
    if pp.scheme is not Scheme.QUINTUPLE:
        raise ParameterError("scheme: psi_series needs a quintuple-scheme quadruple")
    _require_quintuple_modulus(pp)
    return quintuple_side(pp.a_prime, pp.B, pp.c, pp.n, order)


def _require_quintuple_modulus(pp: ProductParams) -> None:
    """3 must not divide a' of a quintuple quadruple as given, before any gcd reduction."""
    if pp.scheme is Scheme.QUINTUPLE and pp.a_prime % 3 == 0:
        raise ParameterError(f"divisibility: a' must not be divisible by 3, got {pp.a_prime}")


def covered_case(pp: ProductParams) -> Covered:
    """Which positivity theorem, if any, covers the canonical quadruple."""
    if not pp.is_canonical:
        raise ParameterError("canonical quadruple required (reduce gcd(a',c) and gcd(B,n) first)")
    if pp.scheme is Scheme.TRIPLE:
        odd_primes = [q for q in prime_factors(pp.n) if q != 2]
        if all(pp.a_prime % q == 0 for q in odd_primes):
            return Covered.CASE1
        if is_prime(pp.n) and pp.B % 2 == 1:
            return Covered.CASE2
        return Covered.NONE
    primes = [q for q in prime_factors(pp.n) if q != 3]
    if all(pp.a_prime % q == 0 for q in primes):
        return Covered.CASE1
    return Covered.NONE


def support_residues(pp: ProductParams) -> set[int]:
    """Residues mod n where nonzero coefficients may occur.

    Triple: residues of m*B*(a'm + c)/2 over m = 0..2n-1.
    Quintuple: residues of m*B*(3a'm + a' - 3c) over m = 0..n-1.
    """
    ap, B, c, n = pp.a_prime, pp.B, pp.c, pp.n
    if pp.scheme is Scheme.TRIPLE:
        return {(m * B * (ap * m + c) // 2) % n for m in range(2 * n)}
    return {(m * B * (3 * ap * m + ap - 3 * c)) % n for m in range(n)}


def scan(pp: ProductParams, order: int) -> SignReport:
    """Scan coefficient sign agreement at distance n up to ``order``.

    A quintuple a' divisible by 3 is rejected as given, as :func:`psi_series`
    rejects it.  The quadruple is then canonicalized; the report refers to
    the reduced quadruple (the original stream is the reduced one in q**k,
    so the sign pattern is unchanged).  Any nonzero coefficient outside the
    supported residue classes would contradict the factorization theorems
    and raises.
    """
    _require_quintuple_modulus(pp)
    reduced, _ = canonicalize(pp)
    limbs = theta_limbs(side_thetas(reduced.scheme, reduced.a_prime, reduced.B, reduced.c), reduced.n, order)
    n = reduced.n
    support = support_residues(reduced)
    # read signs only: a product of two big coefficients per j would cost more than the test needs
    signs = limb_signs(limbs)
    if len(support) < n:  # degree r + n*k at row k, column r: clear the allowed columns
        off = np.zeros((-(-len(signs) // n), n), bool)
        off.reshape(-1)[: len(signs)] = signs != 0
        off[:, list(support)] = False
        if off.any():
            j = int(np.flatnonzero(off)[0])
            raise RuntimeError(
                f"support violation: coefficient {limb_ints(limbs[:, j : j + 1])[0]} at degree {j}"
                f" outside residues {sorted(support)}"
            )
    flips = np.flatnonzero(signs[:-n] * signs[n:] < 0)
    violations = []
    if flips.size:
        violations = list(map(SignViolation, flips.tolist(), limb_ints(limbs[:, flips]),
                              limb_ints(limbs[:, flips + n])))
    return SignReport(
        params=reduced,
        order=order,
        covered=covered_case(reduced),
        support=sorted(support),
        violations=violations,
    )


def iter_canonical_quadruples(scheme: Scheme, max_size: int) -> Iterator[ProductParams]:
    """Canonical quadruples with a' * B * n <= max_size, lexicographic order.

    A negative bound raises :class:`ParameterError` on the first step.
    """
    if max_size < 0:
        raise ParameterError(f"max_size must be nonnegative, got {max_size}")
    for ap in range(1, max_size + 1):
        if scheme is Scheme.TRIPLE and ap % 2 == 0:
            continue
        if scheme is Scheme.QUINTUPLE and ap % 3 == 0:
            continue
        for B in range(1, max_size // ap + 1):
            for n in range(1, max_size // (ap * B) + 1):
                if math.gcd(B, n) != 1:
                    continue
                if scheme is Scheme.TRIPLE:
                    cs = [c for c in range(1, ap, 2) if math.gcd(ap, c) == 1]
                else:
                    cs = [c for c in range(0, ap) if c == 0 or math.gcd(ap, c) == 1]
                for c in cs:
                    yield ProductParams(scheme, ap, B, c, n)
