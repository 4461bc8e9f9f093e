"""Parameter tuples for the factorization identities.

A full tuple ties a product side to a minimal model: (p, p') label the model,
b and b' are the scaling factors, a (2 for the triple scheme, 3 for the
quintuple scheme) and a' the moduli, and c the common residue, subject to
a*b | p, a'*b' | p', gcd(p, p') = 1 and a' > c.  The derived quantities are
B = b*b' and n = pp' / (a*a'*b*b'), the number of characters in the sum.

A product quadruple (a', B, c, n) determines the product side alone; the
same quadruple generally admits several realizations as full tuples.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class ParameterError(ValueError):
    """Raised when a parameter tuple violates one of its constraints."""


class Scheme(enum.Enum):
    """The two product schemes; ``modulus`` is the fixed modulus a: 2 for triple products, 3 for quintuple."""

    TRIPLE = "triple", 2
    QUINTUPLE = "quintuple", 3

    def __new__(cls, value: str, modulus: int):
        scheme = object.__new__(cls)
        scheme._value_, scheme.modulus = value, modulus
        return scheme


def divisors(m: int) -> list[int]:
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            if d != m // d:
                out.append(m // d)
        d += 1
    return sorted(out)


def prime_factors(m: int) -> list[int]:
    """Distinct prime divisors in increasing order."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def is_prime(m: int) -> bool:
    return m > 1 and prime_factors(m) == [m]


def _problems(scheme: Scheme, p, p_prime, a_prime, b, b_prime, c) -> list[str]:
    """Every constraint of a full tuple that the values violate, by name."""
    ints = {"p": p, "p'": p_prime, "a'": a_prime, "b": b, "b'": b_prime, "c": c}
    wrong = [f"type: {name} must be an integer" for name, v in ints.items() if not isinstance(v, int)]
    if wrong:
        return wrong
    a = scheme.modulus
    return [message for failed, message in (
        (p < 2 or p_prime < 2, "range: p and p' must be greater than 1"),
        (a_prime < 1 or b < 1 or b_prime < 1, "range: a', b, b' must be positive"),
        (c < 0, "range: c must be nonnegative"),
        (a_prime <= c, f"range: a' must exceed c (a'={a_prime}, c={c})"),
        (p >= 2 and p_prime >= 2 and math.gcd(p, p_prime) != 1,
         f"coprimality: gcd(p, p') must be 1, got gcd({p}, {p_prime})"),
        (b >= 1 and p % (a * b) != 0, f"divisibility: a*b = {a * b} must divide p = {p}"),
        (b_prime >= 1 and a_prime >= 1 and p_prime % (a_prime * b_prime) != 0,
         f"divisibility: a'*b' = {a_prime * b_prime} must divide p' = {p_prime}"),
        (scheme is Scheme.TRIPLE and c % 2 == 0, f"parity: c must be odd in the triple scheme, got c={c}"),
    ) if failed]


@dataclass(frozen=True)
class FactorizationParams:
    """A validated full tuple; a, B, n, p_over_b and pp_over_bp are attributes set at construction, not fields."""

    scheme: Scheme
    p: int
    p_prime: int
    a_prime: int
    b: int
    b_prime: int
    c: int

    def __init__(self, scheme: Scheme, p: int, p_prime: int, a_prime: int, b: int, b_prime: int, c: int) -> None:
        # one test of every constraint, then one dict update of all twelve attributes (frozen: no setattr)
        if not (isinstance(p, int) and isinstance(p_prime, int) and isinstance(a_prime, int)
                and isinstance(b, int) and isinstance(b_prime, int) and isinstance(c, int)
                and p >= 2 and p_prime >= 2 and b >= 1 and b_prime >= 1 and 0 <= c < a_prime
                and math.gcd(p, p_prime) == 1 and p % (scheme.modulus * b) == 0
                and p_prime % (a_prime * b_prime) == 0 and (c % 2 == 1 or scheme is Scheme.QUINTUPLE)):
            raise ParameterError("; ".join(_problems(scheme, p, p_prime, a_prime, b, b_prime, c)))
        a, B = scheme.modulus, b * b_prime
        vars(self).update(scheme=scheme, p=p, p_prime=p_prime, a_prime=a_prime, b=b, b_prime=b_prime, c=c,
                          a=a, B=B, n=p * p_prime // (a * a_prime * B), p_over_b=p // b, pp_over_bp=p_prime // b_prime)

    def to_json_dict(self) -> dict:
        """The nine keys that open a certificate: the tuple with a, B and n."""
        return {"p": self.p, "pp": self.p_prime, "a": self.a, "ap": self.a_prime,
                "b": self.b, "bp": self.b_prime, "c": self.c, "B": self.B, "n": self.n}


def validate(scheme: Scheme, p: int, p_prime: int, a_prime: int,
             b: int, b_prime: int, c: int) -> FactorizationParams:
    """Check every constraint and return the tuple with B and n derived."""
    return FactorizationParams(scheme, p, p_prime, a_prime, b, b_prime, c)


@dataclass(frozen=True)
class ProductParams:
    """The quadruple (a', B, c, n) that fixes a product side on its own."""

    scheme: Scheme
    a_prime: int
    B: int
    c: int
    n: int

    def __post_init__(self) -> None:
        problems = []
        ints = {"a'": self.a_prime, "B": self.B, "c": self.c, "n": self.n}
        for name, v in ints.items():
            if not isinstance(v, int):
                problems.append(f"type: {name} must be an integer")
        if not problems:
            if self.a_prime < 1 or self.B < 1 or self.n < 1:
                problems.append("range: a', B, n must be positive")
            if self.c < 0:
                problems.append("range: c must be nonnegative")
            if self.a_prime <= self.c:
                problems.append(f"range: a' must exceed c (a'={self.a_prime}, c={self.c})")
            if self.scheme is Scheme.TRIPLE and (self.a_prime % 2 == 0 or self.c % 2 == 0):
                problems.append(f"parity: a' and c must both be odd in the triple scheme "
                                f"(a'={self.a_prime}, c={self.c})")
        if problems:
            raise ParameterError("; ".join(problems))

    def to_json_dict(self) -> dict:
        """The five keys that open a scan report or a series payload."""
        return {"scheme": self.scheme.value, "ap": self.a_prime, "B": self.B, "c": self.c, "n": self.n}

    @property
    def is_canonical(self) -> bool:
        """gcd(a', c) = 1 (when c > 0) and gcd(B, n) = 1."""
        if self.c > 0 and math.gcd(self.a_prime, self.c) != 1:
            return False
        return math.gcd(self.B, self.n) == 1


def canonicalize(pp: ProductParams) -> tuple[ProductParams, int]:
    """Reduce gcd(a', c) into B and gcd(B, n) into the variable.

    Returns the reduced quadruple and the power k such that the original
    series equals the reduced series evaluated at q**k.  The (a', c)
    reduction needs c > 0 and is skipped for c = 0.  A canonical quadruple
    comes back as itself, with k = 1.
    """
    ap, B, c, n = pp.a_prime, pp.B, pp.c, pp.n
    g = math.gcd(ap, c) if c > 0 else 1
    k = math.gcd(B * g, n)
    if g == k == 1:  # already canonical: the quadruple itself, validated once
        return pp, 1
    return ProductParams(pp.scheme, ap // g, B * g // k, c // g, n // k), k


def find_realizations(pp: ProductParams, limit: int | None = None) -> list[FactorizationParams]:
    """All full tuples realizing the quadruple, ordered by (p, b).

    Enumerates the divisor factorizations of a*a'*B*n; an empty list is a
    legitimate outcome, not an error.  At most ``limit`` tuples are returned.
    """
    if limit is not None and limit < 0:
        raise ParameterError(f"limit must be nonnegative, got {limit}")
    a = pp.scheme.modulus
    total = a * pp.a_prime * pp.B * pp.n
    out: list[FactorizationParams] = []
    for p in divisors(total):
        p_prime = total // p
        if p < 2 or p_prime < 2 or math.gcd(p, p_prime) != 1:
            continue
        for b in divisors(pp.B):
            if len(out) == limit:
                return out
            try:
                out.append(FactorizationParams(pp.scheme, p, p_prime, pp.a_prime, b, pp.B // b, pp.c))
            except ParameterError:
                continue
    return out
