import pytest

from charfactor.pairs import LemmaViolation, contributing_pairs
from charfactor.params import Scheme, validate
from charfactor.verifier import iter_scheme_params

from oracles import grid_pairs


def triple(p, pp, ap, b, bp, c):
    return validate(Scheme.TRIPLE, p, pp, ap, b, bp, c)


def quintuple(p, pp, ap, b, bp, c):
    return validate(Scheme.QUINTUPLE, p, pp, ap, b, bp, c)


def test_triple_pairs_2_9():
    got = [(x.r, x.s, x.ptype, x.weight) for x in contributing_pairs(triple(2, 9, 3, 1, 1, 1))]
    assert got == [(1, 2, 2, 3), (1, 5, 1, 0), (1, 8, 2, -3)]


def test_triple_pairs_4_3():
    got = [(x.r, x.s, x.ptype, x.weight) for x in contributing_pairs(triple(4, 3, 3, 1, 1, 1))]
    assert got == [(1, 1, 1, 0), (3, 1, 2, 3)]


def test_triple_pairs_4_5():
    got = [(x.r, x.s, x.ptype, x.weight) for x in contributing_pairs(triple(4, 5, 5, 1, 1, 1))]
    assert got == [(1, 4, 2, -5), (3, 4, 1, 0)]


def test_quintuple_pairs_9_2():
    got = [(x.r, x.s, x.ptype, x.weight) for x in contributing_pairs(quintuple(9, 2, 2, 1, 1, 1))]
    assert got == [(2, 1, 2, 1), (4, 1, 1, 0), (8, 1, 2, 2)]


def test_congruence_enumeration_matches_the_grid():
    # the grid tests every cell, so it also covers the membership criterion
    # on the rows s outside the congruence class, which the enumerator skips
    count = 0
    for scheme in (Scheme.TRIPLE, Scheme.QUINTUPLE):
        for fp in iter_scheme_params(scheme, 200):
            assert contributing_pairs(fp) == grid_pairs(fp), fp
            count += 1
    assert count == 8722


def test_lemma_violation_on_tuples_past_validation():
    # a' = 2 does not divide the triple's p' = 9 and a' = 4 does not divide
    # the quintuple's p' = 2; both enumerations raise, from different checks
    for fp, ap in ((triple(2, 9, 3, 1, 1, 1), 2), (quintuple(9, 2, 2, 1, 1, 1), 4)):
        object.__setattr__(fp, "a_prime", ap)
        with pytest.raises(LemmaViolation):
            contributing_pairs(fp)
        with pytest.raises(LemmaViolation):
            grid_pairs(fp)


def test_count_equals_n_on_sweep():
    for fp in iter_scheme_params(Scheme.TRIPLE, 150):
        assert len(contributing_pairs(fp)) == fp.n
    for fp in iter_scheme_params(Scheme.QUINTUPLE, 150):
        got = contributing_pairs(fp)
        if fp.c >= 1:
            assert len(got) == fp.n


def test_count_law_fails_at_c_zero():
    # boundary defect: the residue class hits the excluded s = 0 label
    fp = quintuple(3, 2, 2, 1, 1, 0)
    assert fp.n == 1
    assert contributing_pairs(fp) == []


def test_duality_exclusion():
    for fp in iter_scheme_params(Scheme.TRIPLE, 120):
        pairs = {(x.r, x.s) for x in contributing_pairs(fp)}
        for r, s in pairs:
            assert (fp.p_over_b - r, fp.pp_over_bp - s) not in pairs
    for fp in iter_scheme_params(Scheme.QUINTUPLE, 120):
        pairs = {(x.r, x.s) for x in contributing_pairs(fp)}
        for r, s in pairs:
            if fp.c >= 1:
                assert (fp.p_over_b - r, fp.pp_over_bp - s) not in pairs


def test_c_zero_pairs_cancel_dually():
    # at c = 0 contributing pairs come in dual couples of opposite type,
    # which is how the signed character sums collapse to zero
    for fp in iter_scheme_params(Scheme.QUINTUPLE, 120):
        if fp.c != 0:
            continue
        typed = {(x.r, x.s): x.ptype for x in contributing_pairs(fp)}
        for (r, s), ptype in typed.items():
            dual = (fp.p_over_b - r, fp.pp_over_bp - s)
            assert typed.get(dual) == 3 - ptype


def test_triple_shift_laws():
    for fp in iter_scheme_params(Scheme.TRIPLE, 150):
        typed = {(x.r, x.s): x.ptype for x in contributing_pairs(fp)}
        for (r, s), ptype in typed.items():
            if r + 2 < fp.p_over_b:
                assert typed.get((r + 2, s)) == 3 - ptype
            if s + fp.a_prime < fp.pp_over_bp:
                # type is preserved iff p/(2b) is even (equivalently n even);
                # the printed law tests the parity of p itself, which is
                # always even here and disagrees with enumeration
                other = typed.get((r, s + fp.a_prime))
                assert other == (ptype if (fp.p_over_b // 2) % 2 == 0 else 3 - ptype)


def test_quintuple_shift_laws():
    for fp in iter_scheme_params(Scheme.QUINTUPLE, 150):
        typed = {(x.r, x.s): x.ptype for x in contributing_pairs(fp)}
        for (r, s), ptype in typed.items():
            if r + 6 < fp.p_over_b:
                assert typed.get((r + 6, s)) == ptype
            if s + 2 * fp.a_prime < fp.pp_over_bp:
                assert typed.get((r, s + 2 * fp.a_prime)) == ptype


def test_weight_parity_encodes_type():
    for fp in iter_scheme_params(Scheme.TRIPLE, 150):
        for x in contributing_pairs(fp):
            assert (x.weight % 2 == 0) == (x.ptype == 1)
