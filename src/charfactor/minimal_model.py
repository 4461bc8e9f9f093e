"""Virasoro minimal models: labels, conformal dimensions, exact characters.

Characters are computed from the bosonic sum in its integer-exponent form,

    chi_{r,s} = q**Delta_{r,s} / (q;q)_inf *
                ( sum_j q**(pp'j^2 + (p'r - ps)j) - sum_j q**(pp'j^2 + (p'r + ps)j + rs) ),

which keeps every exponent inside the sums a nonnegative integer; the
rational conformal dimension only enters as the series offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import ShiftedSeries, bilateral_sum, partition_series, quadratic_window


class InvalidModel(ValueError):
    """Raised when (p, p') is not a pair of coprime integers > 1."""


class InvalidLabel(ValueError):
    """Raised when (r, s) is outside 1 <= r <= p-1, 1 <= s <= p'-1."""


@dataclass(frozen=True)
class MinimalModel:
    p: int
    p_prime: int

    def __post_init__(self) -> None:
        for v in (self.p, self.p_prime):
            if not isinstance(v, int) or v < 2:
                raise InvalidModel(f"p and p' must be integers greater than 1, got ({self.p}, {self.p_prime})")
        if math.gcd(self.p, self.p_prime) != 1:
            raise InvalidModel(f"p and p' must be coprime, got ({self.p}, {self.p_prime})")

    def labels(self):
        """All distinct labels, including dual repeats."""
        for r in range(1, self.p):
            for s in range(1, self.p_prime):
                yield CharacterLabel(r, s)


@dataclass(frozen=True)
class CharacterLabel:
    r: int
    s: int


def _check_label(model: MinimalModel, label: CharacterLabel) -> None:
    if not (1 <= label.r <= model.p - 1 and 1 <= label.s <= model.p_prime - 1):
        raise InvalidLabel(
            f"invalid label (r,s)=({label.r},{label.s}) for (p,p')=({model.p},{model.p_prime})"
        )


def conformal_dim(model: MinimalModel, label: CharacterLabel) -> Fraction:
    """Lowest grading offset Delta_{r,s} = ((p'r - sp)^2 - (p' - p)^2) / (4pp')."""
    _check_label(model, label)
    p, pp = model.p, model.p_prime
    return Fraction((pp * label.r - label.s * p) ** 2 - (pp - p) ** 2, 4 * p * pp)


def central_charge(model: MinimalModel) -> Fraction:
    """Central charge 1 - 6(p - p')^2 / (pp') in the standard normalization."""
    p, pp = model.p, model.p_prime
    return 1 - Fraction(6 * (p - pp) ** 2, p * pp)


def bosonic_numerator(model: MinimalModel, label: CharacterLabel, order: int) -> list[int]:
    """Coefficients 0..order of theta_{r,s} = chi_{r,s} * q**-Delta * (q;q)_inf.

    The two bilateral sums of the module docstring, each over exactly the j
    whose exponent is at most ``order``.
    """
    _check_label(model, label)
    p, pp = model.p, model.p_prime
    r, s = label.r, label.s
    ppp = p * pp
    lin_plus, lin_minus = pp * r - p * s, pp * r + p * s

    def plus(j: int):
        return ppp * j * j + lin_plus * j, 1

    def minus(j: int):
        return ppp * j * j + lin_minus * j + r * s, -1

    coeffs = bilateral_sum(order, plus, quadratic_window(ppp, lin_plus, 0, order))
    return bilateral_sum(order, minus, quadratic_window(ppp, lin_minus, r * s, order), into=coeffs)


def normalized_character(model: MinimalModel, label: CharacterLabel, order: int) -> ShiftedSeries:
    """Character divided by q**Delta: offset 0, constant term 1, exact to ``order``."""
    return ShiftedSeries(bosonic_numerator(model, label, order)) * partition_series(order)


def character(model: MinimalModel, label: CharacterLabel, order: int) -> ShiftedSeries:
    """Graded trace of q**L0; a ShiftedSeries with offset Delta_{r,s}."""
    return normalized_character(model, label, order).shift(conformal_dim(model, label))
