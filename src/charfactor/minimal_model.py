"""Virasoro minimal models: labels, conformal dimensions, exact characters.

Characters are computed from the bosonic sum in its integer-exponent form,

    chi_{r,s} = q**Delta_{r,s} / (q;q)_inf *
                ( sum_j q**(pp'j^2 + (p'r - ps)j) - sum_j q**(pp'j^2 + (p'r + ps)j + rs) ),

which keeps every exponent inside the sums a nonnegative integer; the
rational conformal dimension only enters as the series offset.  The two sums
are the :class:`~charfactor.series.Theta` records of :func:`bosonic_thetas`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import ShiftedSeries, Theta, bilateral_sum, over_euler


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


@dataclass(frozen=True)
class CharacterLabel:
    r: int
    s: int


def check_label(p: int, p_prime: int, r: int, s: int) -> None:
    if not (1 <= r <= p - 1 and 1 <= s <= p_prime - 1):
        raise InvalidLabel(f"invalid label (r,s)=({r},{s}) for (p,p')=({p},{p_prime})")


def conformal_dim(model: MinimalModel, label: CharacterLabel) -> Fraction:
    """Lowest grading offset Delta_{r,s} = ((p'r - sp)^2 - (p' - p)^2) / (4pp')."""
    check_label(model.p, model.p_prime, label.r, label.s)
    p, pp = model.p, model.p_prime
    return Fraction((pp * label.r - label.s * p) ** 2 - (pp - p) ** 2, 4 * p * pp)


def central_charge(model: MinimalModel) -> Fraction:
    """Central charge 1 - 6(p - p')^2 / (pp') in the standard normalization."""
    p, pp = model.p, model.p_prime
    return 1 - Fraction(6 * (p - pp) ** 2, p * pp)


def bosonic_thetas(model: MinimalModel, label: CharacterLabel) -> tuple[Theta, Theta]:
    """The two :class:`Theta` records of theta_{r,s}, the bilateral sums of the module docstring."""
    check_label(model.p, model.p_prime, label.r, label.s)
    p, pp = model.p, model.p_prime
    r, s = label.r, label.s
    return Theta(p * pp, pp * r - p * s, 0), Theta(p * pp, pp * r + p * s, r * s, -1)


def bosonic_numerator(model: MinimalModel, label: CharacterLabel, order: int) -> list[int]:
    """Coefficients 0..order of theta_{r,s} = chi_{r,s} * q**-Delta * (q;q)_inf."""
    return bilateral_sum(bosonic_thetas(model, label), order)


def normalized_character(model: MinimalModel, label: CharacterLabel, order: int) -> ShiftedSeries:
    """Character divided by q**Delta: offset 0, constant term 1, exact to ``order``."""
    return ShiftedSeries(over_euler(enumerate(bosonic_numerator(model, label, order)), 1, order))


def character(model: MinimalModel, label: CharacterLabel, order: int) -> ShiftedSeries:
    """Graded trace of q**L0; a ShiftedSeries with offset Delta_{r,s}."""
    return normalized_character(model, label, order).shift(conformal_dim(model, label))
