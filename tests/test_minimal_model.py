import math
from fractions import Fraction as F

import pytest

from charfactor.minimal_model import (
    CharacterLabel,
    InvalidLabel,
    InvalidModel,
    MinimalModel,
    bosonic_numerator,
    central_charge,
    character,
    conformal_dim,
    normalized_character,
)
from charfactor.series import NEEDS_CONSTANT_SLOT, SeriesError, SignedMonomial, pochhammer

from oracles import rc_normalized_character


def test_model_validation():
    MinimalModel(2, 3)
    with pytest.raises(InvalidModel):
        MinimalModel(4, 4)
    with pytest.raises(InvalidModel):
        MinimalModel(1, 5)
    with pytest.raises(InvalidModel):
        MinimalModel(6, 9)


def test_conformal_dim_values():
    assert conformal_dim(MinimalModel(2, 3), CharacterLabel(1, 1)) == 0
    assert conformal_dim(MinimalModel(2, 5), CharacterLabel(1, 2)) == F(-1, 5)
    assert conformal_dim(MinimalModel(4, 3), CharacterLabel(3, 1)) == F(1, 2)


def test_conformal_dim_label_range():
    with pytest.raises(InvalidLabel, match="invalid label"):
        conformal_dim(MinimalModel(2, 5), CharacterLabel(2, 1))
    with pytest.raises(InvalidLabel, match="invalid label"):
        conformal_dim(MinimalModel(2, 5), CharacterLabel(1, 5))


def test_central_charges():
    assert central_charge(MinimalModel(2, 3)) == 0
    assert central_charge(MinimalModel(2, 5)) == F(-22, 5)
    assert central_charge(MinimalModel(3, 4)) == F(1, 2)


def test_trivial_character_is_one():
    m = MinimalModel(2, 3)
    chi = character(m, CharacterLabel(1, 1), 10)
    assert chi.offset == 0
    assert chi.coeffs == [1] + [0] * 10


def test_character_offset_is_conformal_dim():
    m = MinimalModel(4, 5)
    for lab in (CharacterLabel(r, s) for r in range(1, 4) for s in range(1, 5)):
        assert character(m, lab, 8).offset == conformal_dim(m, lab)


def test_vacuum_q_coefficient_vanishes():
    for p, pp in ((2, 5), (3, 4), (4, 5)):
        nc = normalized_character(MinimalModel(p, pp), CharacterLabel(1, 1), 6)
        assert nc.coeffs[0] == 1
        assert nc.coeffs[1] == 0


def test_rogers_ramanujan_characters():
    m = MinimalModel(2, 5)
    vac = normalized_character(m, CharacterLabel(1, 1), 40)
    low = normalized_character(m, CharacterLabel(1, 2), 40)
    assert vac.coeffs[:7] == [1, 0, 1, 1, 1, 1, 2]
    assert low.coeffs[:7] == [1, 1, 1, 1, 2, 2, 3]
    q = SignedMonomial
    assert vac == pochhammer((q(1, 2), q(1, 3)), q(1, 5), 40).invert()
    assert low == pochhammer((q(1, 1), q(1, 4)), q(1, 5), 40).invert()


@pytest.mark.parametrize("p,pp,r,s", [(2, 5, 1, 2), (3, 4, 1, 2), (4, 5, 3, 2), (5, 6, 2, 3), (3, 8, 2, 5)])
def test_character_matches_direct_sum_oracle(p, pp, r, s):
    got = normalized_character(MinimalModel(p, pp), CharacterLabel(r, s), 60)
    assert got.coeffs == rc_normalized_character(p, pp, r, s, 60)


def test_duality_smallish_sweep():
    for p in range(2, 7):
        for pp in range(2, 9):
            if math.gcd(p, pp) != 1:
                continue
            m = MinimalModel(p, pp)
            for lab in (CharacterLabel(r, s) for r in range(1, p) for s in range(1, pp)):
                dual = CharacterLabel(p - lab.r, pp - lab.s)
                assert character(m, lab, 40) == character(m, dual, 40)


def test_nonnegativity_smallish_sweep():
    for p, pp in ((2, 7), (3, 5), (4, 7), (5, 6)):
        m = MinimalModel(p, pp)
        for lab in (CharacterLabel(r, s) for r in range(1, p) for s in range(1, pp)):
            nc = normalized_character(m, lab, 50)
            assert nc.coeffs[0] == 1
            assert min(nc.coeffs) >= 0


def test_bosonic_numerator_rejects_a_negative_order():
    model, label = MinimalModel(3, 4), CharacterLabel(1, 2)
    with pytest.raises(SeriesError) as err:
        bosonic_numerator(model, label, -1)
    assert str(err.value) == NEEDS_CONSTANT_SLOT
    assert bosonic_numerator(model, label, 0) == [1]
