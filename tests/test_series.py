import itertools
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charfactor import _kernels, products
from charfactor.params import Scheme
from charfactor.series import (
    DIVERGENT_QUINTUPLE,
    NEEDS_CONSTANT_SLOT,
    SeriesError,
    ShiftedSeries,
    SignedMonomial,
    Theta,
    bilateral_sum,
    dissect,
    euler_product,
    inverse_euler_power,
    over_euler,
    over_euler_limbs,
    partition_series,
    pochhammer,
    pochhammer_product,
    quadratic_window,
    quintuple_product,
    quintuple_records,
    quintuple_symbols,
    triple_product,
    triple_records,
    triple_symbols,
)

from oracles import (
    brute_convolve,
    brute_theta,
    euler_power_oracle,
    naive_pochhammer,
    naive_product,
    partition_counts,
    pochhammer_binomials,
    signed_distinct_counts,
)

Q = SignedMonomial


def series(coeffs, offset=0):
    return ShiftedSeries(coeffs, offset)


# ----------------------------------------------------------------------------
# addition / subtraction
# ----------------------------------------------------------------------------

def test_add_cancellation():
    assert series([1, -1]) + series([0, 1]) == series([1, 0])


def test_add_shared_half_integer_offset():
    s = series([1, 1], F(1, 2)) + series([1, -1], F(1, 2))
    assert s.coeffs == [2, 0]
    assert s.offset == F(1, 2)


def test_add_zero_is_identity():
    a = series([1, -1, -1])
    assert a + series([0] * 3) == a
    assert sum([a], start=series([0] * 3)) == a


def test_add_truncates_to_smaller_bound():
    a = series([1, -1, 0, 5])
    b = series([0, 1])
    assert (a + b).bound == 1
    assert (a + b).coeffs == [1, 0]


def test_add_of_unlike_offset_grids_raises():
    a = series([1, 2], F(1, 2))
    b = series([1, 0, 3], F(1, 3))
    with pytest.raises(SeriesError, match="unlike grids"):
        a + b
    with pytest.raises(SeriesError, match="unlike grids"):
        b + a


# ----------------------------------------------------------------------------
# multiplication
# ----------------------------------------------------------------------------

def test_mul_geometric_inverse():
    a = series([1, -1] + [0] * 8)
    b = series([1] * 10)
    assert (a * b) == series([1] + [0] * 9)


def test_mul_offsets_add():
    s = series([1], F(1, 2)) * series([1], F(1, 2))
    assert s.offset == 1
    assert s.coeffs == [1]


def test_mul_hand_convolution():
    a = series([1, -1, -1, 1, 0, 0, 0])
    b = series([1, 0, 0, 0, -1, -1, 0])
    expected = brute_convolve(a.coeffs, b.coeffs, 7)
    assert expected == [1, -1, -1, 1, -1, 0, 2]
    assert (a * b).coeffs == expected


def test_mul_scalar():
    assert (series([1, -2]) * 3).coeffs == [3, -6]
    assert (-2 * series([1, -2])).coeffs == [-2, 4]


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=12),
    st.lists(st.integers(-9, 9), min_size=1, max_size=12),
)
def test_mul_matches_brute_force(a, b):
    n_out = min(len(a), len(b))
    assert (series(a) * series(b)).coeffs == brute_convolve(a, b, n_out)


@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=10),
    st.lists(st.integers(-5, 5), min_size=1, max_size=10),
    st.lists(st.integers(-5, 5), min_size=1, max_size=10),
)
def test_mul_commutative_associative(a, b, c):
    sa, sb, sc = series(a), series(b), series(c)
    assert sa * sb == sb * sa
    assert (sa * sb) * sc == sa * (sb * sc)


def test_mul_huge_coefficients_stay_exact():
    big = 10 ** 30
    a = series([1, big, -big])
    b = series([1, -1, 1])
    assert (a * b).coeffs == brute_convolve(a.coeffs, b.coeffs, 3)


def test_constructor_converts_coefficients_to_python_ints():
    s = ShiftedSeries(np.array([3, -1], np.int64))
    assert s.coeffs == [3, -1] and all(type(c) is int for c in s.coeffs)


# ----------------------------------------------------------------------------
# inversion
# ----------------------------------------------------------------------------

def test_invert_geometric():
    assert series([1, -1, 0, 0, 0]).invert().coeffs == [1, 1, 1, 1, 1]


def test_invert_identity():
    assert series([1] + [0] * 6).invert() == series([1] + [0] * 6)


def test_invert_euler_gives_partitions():
    inv = euler_product(40).invert()
    assert inv.coeffs == partition_counts(40)
    assert inv.coeffs[:5] == [1, 1, 2, 3, 5]


def test_invert_negates_offset():
    s = series([1, 1], F(1, 2)).invert()
    assert s.offset == F(-1, 2)


def test_invert_is_two_sided_inverse():
    s = series([-1, 4, -7, 2, 0, 3])
    assert s * s.invert() == series([1] + [0] * 5)
    assert s.invert() * s == series([1] + [0] * 5)


def test_invert_rejects_non_unit_lead():
    with pytest.raises(SeriesError, match="non-invertible"):
        series([2, 1]).invert()
    with pytest.raises(SeriesError, match="non-invertible"):
        series([0, 1]).invert()


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=14), st.sampled_from([1, -1]))
def test_invert_round_trip(tail, lead):
    s = series([lead] + tail)
    assert s * s.invert() == series([1] + [0] * s.order)


# ----------------------------------------------------------------------------
# integer grid
# ----------------------------------------------------------------------------

def test_as_integer_series_collects_half_integers():
    s = series([1, 1], F(1, 2)) * series([1, 0], F(1, 2))
    out = s.as_integer_series()
    assert out.offset == 0 and out.coeffs == [0, 1, 1]


def test_as_integer_series_zero_passes_any_offset():
    assert not any(series([0, 0], F(-1, 5)).as_integer_series().coeffs)


def test_as_integer_series_rejects_fractional():
    with pytest.raises(SeriesError, match="non-integral"):
        series([1, 1], F(1, 3)).as_integer_series()


def test_as_integer_series_rejects_negative():
    with pytest.raises(SeriesError, match="non-integral"):
        series([1], -1).as_integer_series()


def test_coefficient_refuses_untrusted_exponent():
    s = series([1, 2, 3])
    assert s.coefficient(2) == 3
    with pytest.raises(SeriesError, match="beyond"):
        s.coefficient(3)


# ----------------------------------------------------------------------------
# equality semantics
# ----------------------------------------------------------------------------

def test_eq_reads_only_to_common_bound():
    assert series([1, -1, 0, 5]) == series([1, -1])
    assert series([1, -1, 0, 5]) != series([1, -1, 0, 0])


def test_eq_nonzero_on_one_grid_only():
    assert series([1, 0, 1]) != series([1, 1, 1])
    assert series([1], F(1, 2)) != series([1], F(1, 3))
    assert series([0, 0], F(1, 2)) == series([0], F(1, 3))


# ----------------------------------------------------------------------------
# pochhammer products
# ----------------------------------------------------------------------------

def test_euler_product_pentagonal_prefix():
    assert euler_product(7).coeffs == [1, -1, -1, 0, 0, 1, 0, 1]
    assert euler_product(40).coeffs == signed_distinct_counts(40)


def test_pochhammer_empty_factors():
    assert pochhammer((), Q(1, 1), 5) == series([1] + [0] * 5)


def test_pochhammer_telescoping_to_euler():
    full = euler_product(100)
    for k in range(1, 11):
        factors = tuple(Q(1, i) for i in range(1, k + 1))
        assert pochhammer(factors, Q(1, k), 100) == full


def test_pochhammer_zero_base_rejected():
    with pytest.raises(SeriesError, match="non-convergent"):
        pochhammer((Q(1, 1),), Q(1, 0), 5)


def test_pochhammer_unit_factor_annihilates():
    assert not any(pochhammer((Q(1, 0),), Q(1, 2), 6).coeffs)


def test_pochhammer_negative_unit_factor_doubles():
    s = pochhammer((Q(-1, 0),), Q(1, 2), 4)
    t = pochhammer((Q(-1, 2),), Q(1, 2), 4) * 2
    assert s == t


@given(
    st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(0, 6)), max_size=3),
    st.sampled_from([1, -1]),
    st.integers(1, 5),
)
@settings(max_examples=60)
def test_pochhammer_matches_naive_expansion(factors, sbase, ebase):
    got = pochhammer(tuple(Q(s, e) for s, e in factors), Q(sbase, ebase), 30)
    want = naive_pochhammer(factors, (sbase, ebase), 30)
    assert got.coeffs == want


@given(
    copies=st.integers(67, 80),
    extra=st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(1, 6)), max_size=3),
    sbase=st.sampled_from([1, -1]),
    ebase=st.integers(1, 90),
)
@settings(max_examples=30, deadline=None)
def test_pochhammer_past_the_int64_kernel_matches_naive_expansion(copies, extra, sbase, ebase):
    # (1 + q)^66 alone reaches C(66, 33) > 2^62, so one more factor leaves one limb
    factors = [(-1, 1)] * copies + extra
    flags = []
    kernel = _kernels.binomial_product

    def recording(n_out, factors):
        out = kernel(n_out, factors)
        flags.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "binomial_product", recording)
        got = pochhammer(tuple(Q(s, e) for s, e in factors), Q(sbase, ebase), 80)
    assert flags == [False]
    assert got.coeffs == naive_pochhammer(factors, (sbase, ebase), 80)
    assert all(type(c) is int for c in got.coeffs)


_symbol = st.tuples(
    st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(0, 130)), min_size=1, max_size=4),
    st.tuples(st.sampled_from([1, -1]), st.integers(1, 130)),
)


@given(symbols=st.lists(_symbol, min_size=1, max_size=3), order=st.integers(0, 120))
# n_out = 101: the two 50s multiply to q^100, the last term kept, and 51 follows
@example(symbols=[([(1, 50), (-1, 50), (1, 51)], (1, 200)), ([(1, 1)], (1, 1))], order=100)
# n_out = 100: 49 + 50 = 99 is inside the truncation
@example(symbols=[([(1, 49), (-1, 50), (1, 50)], (1, 200)), ([(-1, 1)], (1, 3))], order=99)
# a base with sign -1: two progressions of step 6 with opposite signs
@example(symbols=[([(1, 2), (-1, 5)], (-1, 3)), ([(1, 1)], (1, 1))], order=60)
# (1 + q^0) doubles the product and its progression restarts one step later
@example(symbols=[([(-1, 0), (1, 3)], (-1, 7)), ([(-1, 0)], (1, 20))], order=50)
# (1 + q)^64 peaks near 2^60.7, and the 60 factors (1 + q^m), m = 60..119,
# take the product past 2^63 on limbs
@example(symbols=[([(-1, 1)] * 64, (1, 500)), ([(-1, 60)], (1, 1))], order=119)
# (1 + q)^70 leaves one limb; the rest follows on limbs
@example(symbols=[([(-1, 1)] * 70, (1, 500)), ([(1, 61), (-1, 62)], (1, 5))], order=119)
# the 66 factors (1 + q^m) give a low half of 1,500 positive coefficients
# summing past 2^64, each below 2^62, so the product keeps one limb
@example(symbols=[([(-1, m) for m in range(1, 67)], (1, 5000)), ([(-1, 1501)], (1, 1400)),
                  ([(-1, 2999)], (1, 1))], order=3000)
# (q;q) and (q;-q) at several orders, and (1 + q^0), which doubles (q;q)
@example(symbols=[([(1, 1)], (-1, 1))], order=60)
@example(symbols=[([(1, 1)], (1, 1))], order=100)
@example(symbols=[([(1, 1)], (1, 1))], order=150)
@example(symbols=[([(1, 1)], (1, 1))], order=300)
@example(symbols=[([(1, 1)], (1, 1))], order=400)
@example(symbols=[([(1, 1)], (-1, 1))], order=150)
@example(symbols=[([(-1, 0), (1, 1)], (1, 1))], order=300)
@settings(max_examples=150, deadline=None)
def test_pochhammer_product_tail_matches_naive_product(symbols, order):
    got = pochhammer_product([(tuple(Q(s, e) for s, e in fs), Q(*base)) for fs, base in symbols], order)
    binomials = [b for fs, base in symbols for b in pochhammer_binomials(fs, base, order)]
    assert got.coeffs == naive_product(binomials, order)
    assert all(type(c) is int for c in got.coeffs)


@pytest.mark.parametrize("scheme, args, symbols", [
    # (1 + q^0) and a base of sign -1: (-1, q^3, -q^3; -q^3)
    (Scheme.TRIPLE, (3, 1, 3, 80, (-1, -1)),
     [([(-1, 0), (1, 3), (-1, 3)], (-1, 3))]),
    (Scheme.TRIPLE, (5, 2, 1, 200, (1, -1)),
     [([(1, 4), (-1, 6), (-1, 10)], (-1, 10))]),
    # (1 + q^0) and a base of sign -1 in the first symbol of a quintuple
    (Scheme.QUINTUPLE, (4, 1, 0, 150, (-1, -1)),
     [([(-1, 0), (1, 8), (-1, 8)], (-1, 8)), ([(-1, 8), (-1, 8)], (1, 16))]),
    (Scheme.QUINTUPLE, (5, 1, 2, 300, (1, 1)),
     [([(1, 2), (1, 8), (1, 10)], (1, 10)), ([(1, 14), (1, 6)], (1, 20))]),
], ids=lambda v: f"{v.value}_numerator" if isinstance(v, Scheme) else None)
def test_numerators_reach_the_kernel_as_pochhammer_factors(monkeypatch, scheme, args, symbols):
    # every factor is (m0, d, s): (1 - s q^(m0 + t d)) for all t >= 0, truncated at n_out
    calls = []
    kernel = _kernels.binomial_product

    def recording(n_out, factors):
        calls.append((n_out, list(factors)))
        return kernel(n_out, factors)

    monkeypatch.setattr(_kernels, "binomial_product", recording)
    order = args[3]
    got = products.numerator(scheme, *args)
    [(n_out, factors)] = calls
    assert n_out == order + 1 and factors
    for m0, d, s in factors:
        assert type(m0) is int and type(d) is int
        assert 1 <= m0 < n_out and d >= 1 and s in (1, -1)
    binomials = [b for fs, base in symbols for b in pochhammer_binomials(fs, base, order)]
    assert got.coeffs == naive_product(binomials, order)


def test_euler_product_at_workload_scale_is_the_pentagonal_series():
    # (q;q) expanded factor by factor at N = 12,000 peaks at 61 bits after 243
    # factors and stays on one limb; at N = 20,000 it passes 2^62, so it
    # finishes on limbs as it shrinks back to +-1.  euler_product itself is
    # the pentagonal series, with no expansion
    flags = []
    kernel = _kernels.binomial_product

    def recording(n_out, factors):
        out = kernel(n_out, factors)
        flags.append(out[1])
        return out

    for order in (12000, 20000):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "binomial_product", recording)
            got = pochhammer((Q(1, 1),), Q(1, 1), order)
        want = [0] * (order + 1)
        for k in range(-120, 121):
            e = k * (3 * k - 1) // 2
            if e <= order:
                want[e] += -1 if k % 2 else 1
        assert got.coeffs == want, order
        assert euler_product.__wrapped__(order).coeffs == want, order
    assert flags == [True, False]


# ----------------------------------------------------------------------------
# theta sums
# ----------------------------------------------------------------------------

@given(
    a=st.integers(1, 6),
    b=st.integers(-10**5, 10**5),
    slack=st.integers(0, 40),
    order=st.integers(0, 80),
    chi=st.sampled_from((1, -1)),
)
@example(a=1, b=-20, slack=0, order=5, chi=1)  # (k - 10)^2: every term sits far from k = 0
@settings(max_examples=200, deadline=None)
def test_bilateral_sum_covers_the_exact_window(a, b, slack, order, chi):
    # a*k^2 + b*k + c with its least integer value equal to slack >= 0
    near = -b // (2 * a)
    c = slack - min(a * k * k + b * k for k in (near - 1, near, near + 1, near + 2))
    brute = range(near - 1000, near + 1001)

    def exponent(k):
        return a * k * k + b * k + c

    want = [0] * (order + 1)
    for k in brute:
        e = exponent(k)
        assert e >= 0
        if e <= order:
            want[e] += chi ** abs(k)
    assert list(quadratic_window(a, b, c, order)) == [k for k in brute if exponent(k) <= order]
    assert bilateral_sum([Theta(a, b, c, 1, chi)], order) == want


def test_bilateral_sum_rejects_a_negative_order():
    for records in ([Theta(1, 0, 0)], []):
        with pytest.raises(SeriesError) as err:
            bilateral_sum(records, -1)
        assert str(err.value) == NEEDS_CONSTANT_SLOT
    assert bilateral_sum([Theta(1, 0, 0)], 0) == [1]


def test_bilateral_sum_rejects_negative_exponents():
    with pytest.raises(SeriesError, match="divergent"):
        bilateral_sum([Theta(1, -20, 99)], 5)


@st.composite
def theta_records(draw):
    """A record whose least exponent is a small slack, sometimes negative."""
    a, b = draw(st.integers(1, 6)), draw(st.integers(-60, 60))
    near = -b // (2 * a)
    least = min(a * k * k + b * k for k in (near - 1, near, near + 1, near + 2))
    c = draw(st.integers(-2, 40)) - least
    return Theta(a, b, c, draw(st.sampled_from((1, -1, 2))), draw(st.sampled_from((1, -1))))


@given(records=st.lists(theta_records(), min_size=1, max_size=4), order=st.integers(0, 80))
@example(records=[Theta(4, 0, 0, 1, -1), Theta(4, 4, 1, -1, -1)], order=40)  # triple_product(q, -q^2)
@settings(max_examples=200, deadline=None)
def test_bilateral_sum_matches_brute_theta(records, order):
    want = brute_theta(records, order)
    if want is None:
        with pytest.raises(SeriesError, match="divergent"):
            bilateral_sum(records, order)
    else:
        assert bilateral_sum(records, order) == want


# ---------------------------------------------------------------------------
# theta dissection
# ---------------------------------------------------------------------------

def _dissected_counts(records, A):
    """The nonzero signed count per canonical key of the records' pieces on A; None when one does not dissect."""
    counts = Counter()
    for record in records:
        pieces = dissect(record, A)
        if pieces is None:
            return None
        for key, sign in pieces:
            counts[key] += sign
    return {key: count for key, count in counts.items() if count}


@given(record=theta_records(), m=st.integers(1, 4), order=st.integers(0, 120))
@example(record=Theta(1, 0, 0, 1, -1), m=2, order=40)
@example(record=Theta(3, 5, 2, -1, -1), m=3, order=80)
@settings(max_examples=200, deadline=None)
def test_dissected_pieces_sum_to_the_record(record, m, order):
    want = brute_theta([record], order)
    A = record.a * m * m
    pieces = dissect(record, A)
    assert len(pieces) <= m
    for (a, b, c, chi), sign in pieces:
        assert a == A and 0 <= b <= A and not (b == A and chi < 0) and sign in (record.s, -record.s)
    if want is not None:
        assert brute_theta([(a, b, c, sign, chi) for (a, b, c, chi), sign in pieces], order) == want


def test_canonical_key_shifts_reflects_and_drops_zero_records():
    # on the record's own a, dissect gives its one canonical (key, sign), or none
    assert dissect(Theta(2, 5, 3, -1, -1), 2) == [((2, 1, 0, -1), 1)]  # k -> k - 1
    assert dissect(Theta(3, 5, 2, 1, -1), 3) == [((3, 1, 0, -1), -1)]  # reflected, times chi
    assert dissect(Theta(1, 1, 0, 1, -1), 1) == []  # sum (-1)^k q^(k^2 + k) = 0
    assert dissect(Theta(1, 1, 0, 1, 1), 1) == [((1, 1, 0, 1), 1)]


_EQUAL_RECORDS = {
    "reflected": ([Theta(3, 5, 2)], [Theta(3, -5, 2)], 3),
    "reflected_alternating": ([Theta(3, 5, 2, 1, -1)], [Theta(3, -5, 2, 1, -1)], 3),
    "shifted_alternating": ([Theta(2, 1, 0, 1, -1)], [Theta(2, 5, 3, -1, -1)], 2),
    "vanishing": ([Theta(1, 1, 0, 1, -1), Theta(1, 0, 2)], [Theta(1, 0, 2)], 1),
    "split_then_reflected": ([Theta(1, 1, 0)], [Theta(4, 2, 0, 2)], 4),
    "split_in_two": ([Theta(1, 0, 0)], [Theta(4, 0, 0), Theta(4, 4, 1)], 4),
    "split_in_two_alternating": ([Theta(1, 0, 0, 1, -1)], [Theta(4, 0, 0), Theta(4, 4, 1, -1)], 4),
    "split_in_three_alternating": ([Theta(1, 0, 0, 1, -1)],
                                   [Theta(9, 0, 0, 1, -1), Theta(9, 6, 1, -1, -1), Theta(9, 12, 4, 1, -1)], 9),
    # (q; q) as the triple product of u = q and of its reflection u = q^2, both with v = q^3
    "pentagonal": (list(triple_records(1, 1, 1, 3)), list(triple_records(1, 2, 1, 3)), 24),
}

_DIFFERENT_RECORDS = {
    "alternating": ([Theta(1, 0, 0)], [Theta(1, 0, 0, 1, -1)], 4),
    "linear_term": ([Theta(3, 1, 0)], [Theta(3, 2, 0)], 3),
    "nonvanishing_edge": ([Theta(1, 1, 0)], [], 1),
    "split_alternation": ([Theta(1, 0, 0, 1, -1)], [Theta(4, 0, 0, 1, -1), Theta(4, 4, 1, -1, -1)], 4),
    "split_sign": ([Theta(1, 1, 0)], [Theta(4, 2, 0), Theta(4, 6, 2, -1)], 4),
}


@pytest.mark.parametrize("case", _EQUAL_RECORDS)
def test_equal_records_dissect_to_equal_counts(case):
    lhs, rhs, A = _EQUAL_RECORDS[case]
    assert brute_theta(lhs, 200) == brute_theta(rhs, 200)
    assert _dissected_counts(lhs, A) is not None
    assert _dissected_counts(lhs, A) == _dissected_counts(rhs, A)


@pytest.mark.parametrize("case", _DIFFERENT_RECORDS)
def test_different_records_dissect_to_different_counts(case):
    lhs, rhs, A = _DIFFERENT_RECORDS[case]
    assert brute_theta(lhs, 200) != brute_theta(rhs, 200)
    assert _dissected_counts(lhs, A) != _dissected_counts(rhs, A)


def test_dissect_needs_a_square_ratio():
    assert dissect(Theta(2, 0, 0), 6) is None
    assert dissect(Theta(3, 1, 0), 2) is None
    assert dissect(Theta(2, 1, 0, 1, -1), 18) is not None


def test_triple_product_pentagonal():
    want = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]
    assert triple_product(Q(1, 2), Q(1, 3), 15).coeffs == want
    assert triple_product(Q(1, 2), Q(1, 3), 15) == pochhammer((Q(1, 3), Q(1, 2), Q(1, 1)), Q(1, 3), 15)


def test_triple_product_order_zero():
    assert triple_product(Q(1, 1), Q(1, 2), 0).coeffs == [1]


def test_triple_product_signed_base():
    got = triple_product(Q(1, 2), Q(-1, 3), 7)
    assert got.coeffs == [1, 1, -1, 0, 0, -1, 0, -1]
    assert got == pochhammer((Q(-1, 3), Q(1, 2), Q(-1, 1)), Q(-1, 3), 7)


def test_triple_product_index_reflection_swaps_u():
    # summing over -j is the same bilateral sum with u replaced by u^-1 v
    for su, sv in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        u, v = Q(su, 2), Q(sv, 5)
        reflected = Q(su * sv, v.exponent - u.exponent)
        assert triple_product(u, v, 60) == triple_product(reflected, v, 60)


def test_quintuple_product_pentagonal_form():
    got = quintuple_product(Q(1, 1), Q(1, 4), 12)
    assert got.coeffs == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_quintuple_product_unit_u_vanishes():
    assert not any(quintuple_product(Q(1, 0), Q(1, 2), 10).coeffs)


def test_quintuple_product_small_order():
    # the product oracle (v,u,u^-1 v; v)(u^2 v, u^-2 v; v^2) fixes the prefix
    want = naive_pochhammer([(1, 3), (1, 1), (1, 2)], (1, 3), 2)
    second = naive_pochhammer([(1, 5), (1, 1)], (1, 6), 2)
    want = brute_convolve(want, second, 3)
    assert want == [1, -2, 0]
    assert quintuple_product(Q(1, 1), Q(1, 3), 2).coeffs == want


def test_quintuple_product_divergent_parameters_rejected():
    with pytest.raises(SeriesError, match="divergent quintuple"):
        quintuple_product(Q(1, 3), Q(1, 4), 20)


@pytest.mark.parametrize("eu,ev,su,sv", [
    (0, 1, 1, 1), (1, 3, 1, -1), (2, 5, -1, 1), (1, 4, -1, -1), (3, 3, 1, 1),
])
def test_theta_sums_match_product_oracles(eu, ev, su, sv):
    u, v = Q(su, eu), Q(sv, ev)
    # both sides of each Jacobi identity: the theta sum and the symbols it expands
    jacobi = naive_pochhammer([(sv, ev), (su, eu), (su * sv, ev - eu)], (sv, ev), 80)
    assert triple_product(u, v, 80).coeffs == jacobi
    assert pochhammer_product(triple_symbols(u, v), 80).coeffs == jacobi
    if 2 * eu <= ev:
        # (v, u, u^-1 v; v) (u^2 v, u^-2 v; v^2)
        second = naive_pochhammer([(sv, 2 * eu + ev), (sv, ev - 2 * eu)], (1, 2 * ev), 80)
        want = brute_convolve(jacobi, second, 81)
        assert quintuple_product(u, v, 80).coeffs == want
        assert pochhammer_product(quintuple_symbols(u, v), 80).coeffs == want


def test_quintuple_records_are_two_when_v_is_positive_with_even_exponent():
    # sum_j (u^-3j - u^(3j+1)) v^(j(3j+1)/2) is one record per sum over j when sv = +1 and ev is
    # even, and else two per sum, split on j's parity; either form sums to the product oracle of
    # quintuple_symbols, and a negative exponent rejects the parameters in both forms
    seen = Counter()
    for su, sv, eu, ev in itertools.product((1, -1), (1, -1), range(9), range(1, 13)):
        records = quintuple_records(su, eu, sv, ev)
        two = sv > 0 and ev % 2 == 0
        assert len(records) == (2 if two else 4), (su, eu, sv, ev)
        try:
            symbols = quintuple_symbols(Q(su, eu), Q(sv, ev))
        except SeriesError:
            with pytest.raises(SeriesError, match=DIVERGENT_QUINTUPLE):
                bilateral_sum(records, 40, DIVERGENT_QUINTUPLE)
            seen[two, "divergent"] += 1
            continue
        want = [1] + [0] * 40
        for factors, base in symbols:
            factors = [(f.sign, f.exponent) for f in factors]
            want = brute_convolve(want, naive_pochhammer(factors, (base.sign, base.exponent), 40), 41)
        assert bilateral_sum(records, 40, DIVERGENT_QUINTUPLE) == want, (su, eu, sv, ev)
        seen[two, "summed"] += 1
    assert len(seen) == 4


def test_inverse_euler_power_matches_partitions():
    inv = inverse_euler_power(3, 20)
    p = partition_counts(6)
    want = [p[k // 3] if k % 3 == 0 else 0 for k in range(21)]
    assert inv.coeffs == want
    assert partition_series(12).coeffs == partition_counts(12)


_terms = st.lists(st.tuples(st.integers(0, 70), st.integers(-(2**70), 2**70)), max_size=12)


@given(terms=_terms, n=st.integers(1, 12), order=st.integers(0, 60))
@example(terms=[(0, 1), (3, -2)], n=9, order=5)  # n > order: only the constant partition number
@example(terms=[(0, 1), (1, -1), (2, -1), (5, 1), (7, 1)], n=1, order=30)  # (q;q) / (q;q) = 1
@example(terms=[(2, 5), (40, 3), (41, -7)], n=2, order=39)  # terms past the order
@example(terms=[(0, 0), (4, 0), (9, 0)], n=3, order=20)  # all-zero terms
@example(terms=[(0, 2**64), (1, -(2**63) - 1), (6, 3**45)], n=2, order=40)  # past 2^63
# past 2^63 and in unit terms, at 24 and 25 coefficients
@example(terms=[(0, 2**64), (3, -(2**63) - 1), (23, 3**45)], n=1, order=23)
@example(terms=[(0, 2**64), (3, -(2**63) - 1), (24, 3**45)], n=1, order=24)
@example(terms=[(1, 2**63), (2, -(2**64) + 1)], n=3, order=23)
@example(terms=[(1, 2**63), (2, -(2**64) + 1)], n=3, order=24)
@example(terms=[(0, 1), (1, -1), (2, -1), (5, 1)], n=1, order=23)
@example(terms=[(0, 1), (1, -1), (2, -1), (5, 1)], n=1, order=24)
@settings(max_examples=150, deadline=None)
def test_over_euler_matches_the_partition_oracle(terms, n, order):
    num = [0] * (order + 1)
    for e, c in terms:
        if e <= order:
            num[e] += c
    got = over_euler(terms, n, order)
    assert got == brute_convolve(num, euler_power_oracle(n, order), order + 1)
    assert all(type(c) is int for c in got)


_wide = st.one_of(st.integers(-9, 9), st.integers(-(2**210), 2**210))

#: the largest |c| that scatter adds in one flat add of the limbs between carries
_CAP = (_kernels.HALF >> _kernels.LIMB_BITS) - 1

#: sixteen terms of _CAP, the flat limb adds: together they add 16 * _CAP onto rows whose
#: partition numbers have a full low limb (p(m) >= 2^56 from m = 330 on), so an int64 limb
#: would overflow without the carries between terms
_FULL_CAPS = [(k, _CAP) for k in range(16)]

#: sixteen terms past _CAP with every bit set: the plain sum
_FULL_DIGITS = [(k, 2**90 - 1) for k in range(16)]

#: more than _CAP unit terms, over partition numbers past 2^62 / 70: the kernel carries between them
_UNITS = [(k, (-1) ** (k // 3)) for k in range(_CAP + 7)]

#: X (q;q) up to q^21, over (q;q): X, then exact zeros from cancellation
_X = 2**100 + 3
_EULER_TIMES_X = [(0, _X), (1, -_X), (2, -_X), (5, _X), (7, _X), (12, -_X), (15, -_X)]


@given(terms=st.lists(st.tuples(st.integers(0, 70), _wide), max_size=12), n=st.integers(1, 12),
       order=st.integers(0, 60))
@example(terms=[(0, 2**200 + 12345), (2, -(2**63) - 7), (5, 3**130)], n=1, order=60)  # the plain sum
@example(terms=_FULL_CAPS, n=1, order=400)  # carries between terms
@example(terms=_FULL_CAPS, n=3, order=1200)
@example(terms=_FULL_DIGITS, n=1, order=400)
@example(terms=_FULL_DIGITS, n=3, order=1200)
@example(terms=[(k, 2**2000 - 1) for k in range(16)], n=3, order=400)
@example(terms=[(0, -1), (1, 2**70), (4, -5)], n=1, order=30)  # -1: top limb -1 over full lower limbs
@example(terms=_EULER_TIMES_X, n=1, order=21)  # exact zeros on several limbs
@example(terms=[(0, 2**90), (1, -(2**90)), (2, 2**90 - 1), (3, 1 - 2**90)], n=10, order=3)
@example(terms=[(0, 2**60), (1, -(2**60)), (2, 2**60 - 1), (3, 1 - 2**60)], n=10, order=3)
@example(terms=[(0, 2**30), (1, -(2**30)), (2, 2**30 - 1), (3, 1 - 2**30), (4, 2**62)], n=10, order=4)
@example(terms=[(0, 2**56), (1, -(2**56)), (2, 2**56 - 1), (3, 1 - 2**56), (4, 2**62)], n=10, order=4)
@example(terms=[(0, _CAP)], n=1, order=400)  # one flat add of _CAP * y on limbs
@example(terms=[(0, _CAP), (3, _CAP + 1), (5, -(_CAP + 1))], n=1, order=340)  # one term past _CAP: the plain sum
@example(terms=[(0, _CAP), (1, _CAP + 1), (2, -(_CAP + 1)), (3, _CAP << 60), (4, 2**62)], n=1, order=50)
@example(terms=[(0, 2**62), (2, -(2**210) + 1), (3, 3 * 2**209 + _CAP)], n=2, order=60)
@example(terms=_UNITS, n=1, order=400)
@example(terms=_UNITS, n=3, order=1000)
@settings(max_examples=300, deadline=None)
def test_over_euler_limbs_are_exact_and_read_their_signs(terms, n, order):
    num = [0] * (order + 1)
    for e, c in terms:
        if e <= order:
            num[e] += c
    want = brute_convolve(num, euler_power_oracle(n, order), order + 1)
    limbs = over_euler_limbs(terms, n, order)
    assert limbs.shape[1] == order + 1  # one row per limb, one column per coefficient
    assert _kernels.limb_ints(limbs) == want
    signs = _kernels.limb_signs(limbs)
    assert signs.dtype == np.int8
    assert signs.tolist() == [(c > 0) - (c < 0) for c in want]


def test_over_euler_takes_one_column_below_the_int64_bound():
    # sum |c| * p(order // n) < 2^62: one limb row of values; at 2^62, carried limbs
    p = partition_counts(390)
    assert p[390] < 2**62 <= 2 * p[390]
    assert over_euler_limbs([(0, 1)], 1, 390).shape == (1, 391)
    w = _kernels._width(2 * p[390])
    assert w > 1
    assert over_euler_limbs([(0, 1), (3, -1)], 1, 390).shape == (w, 391)


def test_over_euler_sums_short_quotients_in_python_ints(monkeypatch):
    # over_euler builds no limb at any order: its quotients are Python-int sums
    calls = []

    def spy(name):
        real = getattr(_kernels, name)

        def recorded(*args):
            calls.append(name)
            return real(*args)

        return recorded

    for name in ("scatter", "limb_table"):
        monkeypatch.setattr(_kernels, name, spy(name))
    for order in (0, 1, 23, 24, 200):
        got = over_euler([(0, 1)], 1, order)
        assert got == partition_counts(order)
        assert all(type(c) is int for c in got)
        assert over_euler([(0, 1), (1, -1)], 1, order) == brute_convolve([1, -1], partition_counts(order), order + 1)
    assert calls == []


def test_over_euler_rejects_a_negative_order_and_a_bad_modulus():
    with pytest.raises(SeriesError) as err:
        over_euler([(0, 1)], 2, -1)
    assert str(err.value) == NEEDS_CONSTANT_SLOT
    for quotient, order in ((over_euler, 10), (over_euler, 24), (over_euler_limbs, 24)):  # Python ints, limbs
        for n in (0, -3, 2.0):
            with pytest.raises(SeriesError) as err:
                quotient([(0, 1)], n, order)
            assert str(err.value) == f"modulus must be a positive integer, got {n}"


def test_over_euler_rejects_a_negative_exponent():
    # without the check, the one-row path wraps the term onto the top coefficient and the limbs path fails in numpy
    assert over_euler_limbs([(0, 1), (2, 1)], 1, 5).shape[0] == 1
    assert over_euler_limbs([(0, 1), (2, 1)], 1, 400).shape[0] > 1
    for order in (5, 23, 24, 400):
        for quotient in (over_euler, over_euler_limbs):  # in Python ints, and on limbs
            for terms in ([(-1, 1), (2, 1)], [(2, 1), (-1, 1)]):
                with pytest.raises(ValueError, match=r"^scatter: negative term index -1$"):
                    quotient(terms, 1, order)
        assert over_euler([(order * 2, 1), (0, 1)], 1, order) == partition_counts(order)  # any term order
        assert _kernels.limb_ints(over_euler_limbs([(order * 2, 1), (0, 1)], 1, order)) == partition_counts(order)
    assert over_euler([(-1, 0), (0, 1)], 1, 5) == partition_counts(5)  # a zero term is no term
