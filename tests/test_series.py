from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charfactor import _kernels, series as series_module
from charfactor.series import (
    SeriesError,
    ShiftedSeries,
    SignedMonomial,
    bilateral_sum,
    euler_product,
    inverse_euler_power,
    partition_series,
    pochhammer,
    quadratic_window,
    quintuple_product,
    triple_product,
)

from oracles import brute_convolve, naive_pochhammer, partition_counts, signed_distinct_counts

Q = SignedMonomial


def series(coeffs, offset=0, den=1):
    return ShiftedSeries(coeffs, offset, den)


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
    assert a + ShiftedSeries.zero(2) == a
    assert sum([a], start=ShiftedSeries.zero(2)) == a


def test_add_truncates_to_smaller_bound():
    a = series([1, -1, 0, 5])
    b = series([0, 1])
    assert (a + b).bound == 1
    assert (a + b).coeffs == [1, 0]


def test_add_refines_unlike_offset_grids():
    a = series([1, 2], F(1, 2))
    b = series([1, 0, 3], F(1, 3))
    s = a + b
    assert s.bound == F(3, 2)
    assert s.coefficient(F(1, 3)) == 1
    assert s.coefficient(F(1, 2)) == 1
    assert s.coefficient(F(3, 2)) == 2
    assert s.coefficient(1) == 0


# ----------------------------------------------------------------------------
# multiplication
# ----------------------------------------------------------------------------

def test_mul_geometric_inverse():
    a = series([1, -1] + [0] * 8)
    b = series([1] * 10)
    assert (a * b) == ShiftedSeries.one(9)


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


coefficient = st.one_of(
    st.sampled_from([0, 0, 1, -1]),
    st.integers(-9, 9),
    st.integers(2**63, 2**70),
    st.integers(-(2**70), -(2**63)),
)


def on_stride(coeffs, stride):
    out = [0] * ((len(coeffs) - 1) * stride + 1)
    out[::stride] = coeffs
    return out


@given(
    a=st.lists(coefficient, min_size=1, max_size=14),
    sa=st.sampled_from([1, 2, 3]),
    b=st.lists(coefficient, min_size=1, max_size=14),
    sb=st.sampled_from([1, 2, 3]),
    n_out=st.integers(1, 50),
)
@example(a=[0, 0, 0], sa=1, b=[2**64, 1], sb=2, n_out=6)
@example(a=[3, -(2**65)], sa=3, b=[0], sb=1, n_out=4)
@example(a=[1, 0, 2**63], sa=1, b=[-1, 5, 0, 7], sb=2, n_out=9)
@example(a=[-1, 5, 0, 7], sa=2, b=[1, 0, -(2**63)], sb=1, n_out=9)
@settings(max_examples=200, deadline=None)
def test_convolve_object_matches_brute_force(a, sa, b, sb, n_out):
    got = series_module._convolve_object(a, sa, b, sb, n_out)
    assert got == brute_convolve(on_stride(a, sa), on_stride(b, sb), n_out)
    assert all(type(c) is int for c in got)


def test_constructor_converts_coefficients_to_python_ints():
    s = ShiftedSeries(np.array([3, -1], np.int64))
    assert s.coeffs == [3, -1] and all(type(c) is int for c in s.coeffs)


# ----------------------------------------------------------------------------
# inversion
# ----------------------------------------------------------------------------

def test_invert_geometric():
    assert series([1, -1, 0, 0, 0]).invert().coeffs == [1, 1, 1, 1, 1]


def test_invert_identity():
    assert ShiftedSeries.one(6).invert() == ShiftedSeries.one(6)


def test_invert_euler_gives_partitions():
    inv = euler_product(40).invert()
    assert inv.coeffs == partition_counts(40)
    assert inv.coeffs[:5] == [1, 1, 2, 3, 5]


def test_invert_negates_offset():
    s = series([1, 1], F(1, 2)).invert()
    assert s.offset == F(-1, 2)


def test_invert_is_two_sided_inverse():
    s = series([-1, 4, -7, 2, 0, 3])
    assert s * s.invert() == ShiftedSeries.one(5)
    assert s.invert() * s == ShiftedSeries.one(5)


def test_invert_rejects_non_unit_lead():
    with pytest.raises(SeriesError, match="non-invertible"):
        series([2, 1]).invert()
    with pytest.raises(SeriesError, match="non-invertible"):
        series([0, 1]).invert()


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=14), st.sampled_from([1, -1]))
def test_invert_round_trip(tail, lead):
    s = series([lead] + tail)
    assert s * s.invert() == ShiftedSeries.one(s.order)


# ----------------------------------------------------------------------------
# substitution, shift, truncation, integer grid
# ----------------------------------------------------------------------------

def test_substitute_power_examples():
    assert series([1, -1]).substitute_power(3).coeffs == [1, 0, 0, -1]
    s = series([1], F(1, 2)).substitute_power(2)
    assert s.offset == 1 and s.coeffs == [1]
    assert series([1, -1, -1]).substitute_power(2).coeffs == [1, 0, -1, 0, -1]


def test_substitute_scales_order():
    s = series([1, 2, 3]).substitute_power(4)
    assert s.order == 8
    assert s.bound == 8


def test_as_integer_series_collects_half_integers():
    s = series([1, 1], F(1, 2)) * series([1, 0], F(1, 2))
    out = s.as_integer_series()
    assert out.offset == 0 and out.coeffs == [0, 1, 1]


def test_as_integer_series_zero_passes_any_offset():
    assert series([0, 0], F(-1, 5)).as_integer_series().is_zero()


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
    assert pochhammer((), Q(1, 1), 5) == ShiftedSeries.one(5)


def test_pochhammer_telescoping_to_euler():
    full = euler_product(100)
    for k in range(1, 11):
        factors = tuple(Q(1, i) for i in range(1, k + 1))
        assert pochhammer(factors, Q(1, k), 100) == full


def test_pochhammer_zero_base_rejected():
    with pytest.raises(SeriesError, match="non-convergent"):
        pochhammer((Q(1, 1),), Q(1, 0), 5)


def test_pochhammer_unit_factor_annihilates():
    assert pochhammer((Q(1, 0),), Q(1, 2), 6).is_zero()


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
    copies=st.integers(66, 80),
    extra=st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(1, 6)), max_size=3),
    sbase=st.sampled_from([1, -1]),
    ebase=st.integers(1, 90),
)
@settings(max_examples=30, deadline=None)
def test_pochhammer_past_the_int64_kernel_matches_naive_expansion(copies, extra, sbase, ebase):
    # (1 + q)^k alone reaches C(64, 32) > 2^60, so the kernel must give up
    factors = [(-1, 1)] * copies + extra
    flags = []
    kernel = _kernels.binomial_product

    def recording(shifts, signs, n_out):
        out = kernel(shifts, signs, n_out)
        flags.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "binomial_product", recording)
        got = pochhammer(tuple(Q(s, e) for s, e in factors), Q(sbase, ebase), 80)
    assert flags == [False]
    assert got.coeffs == naive_pochhammer(factors, (sbase, ebase), 80)
    assert all(type(c) is int for c in got.coeffs)


def test_euler_product_at_workload_scale_is_the_pentagonal_series():
    # (q;q) at N = 12,000, the (2,9) numerator of the high-order benchmark:
    # its partial products pass 2^60 after 243 factors and shrink back to +-1
    order = 12000
    flags = []
    kernel = _kernels.binomial_product

    def recording(shifts, signs, n_out):
        out = kernel(shifts, signs, n_out)
        flags.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "binomial_product", recording)
        got = euler_product.__wrapped__(order)
    want = [0] * (order + 1)
    for k in range(-90, 91):
        e = k * (3 * k - 1) // 2
        if e <= order:
            want[e] += -1 if k % 2 else 1
    assert flags == [False]
    assert got.coeffs == want


# ----------------------------------------------------------------------------
# theta sums
# ----------------------------------------------------------------------------

@given(
    a=st.integers(1, 6),
    b=st.integers(-10**5, 10**5),
    slack=st.integers(0, 40),
    order=st.integers(0, 80),
)
@example(a=1, b=-20, slack=0, order=5)  # (j - 10)^2: every term sits far from j = 0
@settings(max_examples=200, deadline=None)
def test_bilateral_sum_covers_the_exact_window(a, b, slack, order):
    # a*j^2 + b*j + c with its least integer value equal to slack >= 0
    near = -b // (2 * a)
    c = slack - min(a * j * j + b * j for j in (near - 1, near, near + 1, near + 2))
    brute = range(near - 1000, near + 1001)

    def term(j):
        return a * j * j + b * j + c, j % 3 - 1

    want = [0] * (order + 1)
    for j in brute:
        e, coeff = term(j)
        assert e >= 0
        if e <= order:
            want[e] += coeff
    window = quadratic_window(a, b, c, order)
    assert list(window) == [j for j in brute if term(j)[0] <= order]
    assert bilateral_sum(order, term, window) == want


def test_bilateral_sum_rejects_negative_exponents():
    with pytest.raises(SeriesError, match="divergent"):
        bilateral_sum(5, lambda j: ((j - 10) ** 2 - 1, 1), quadratic_window(1, -20, 99, 5))


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
    assert quintuple_product(Q(1, 0), Q(1, 2), 10).is_zero()


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
    got = triple_product(u, v, 80)
    want = naive_pochhammer([(sv, ev), (su, eu), (su * sv, ev - eu)], (sv, ev), 80)
    assert got.coeffs == want


def test_inverse_euler_power_matches_partitions():
    inv = inverse_euler_power(3, 20)
    p = partition_counts(6)
    want = [p[k // 3] if k % 3 == 0 else 0 for k in range(21)]
    assert inv.coeffs == want
    assert partition_series(12).coeffs == partition_counts(12)
