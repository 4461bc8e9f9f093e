from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charfactor import _kernels

from oracles import brute_convolve, naive_product, partition_counts


def _random_arrays(rng, n):
    a = rng.integers(-50, 50, size=n).astype(np.int64)
    b = rng.integers(-50, 50, size=n).astype(np.int64)
    a[0] = rng.choice([1, -1])
    return a, b


def test_convolve_matches_reference():
    rng = np.random.default_rng(7)
    for n in (1, 2, 17, 64):
        a, b = _random_arrays(rng, n)
        got = _kernels.convolve(a.tolist(), b.tolist(), n)
        want = np.convolve(a, b)[:n]
        assert got == want.tolist()


coefficient = st.one_of(
    st.sampled_from([0, 0, 1, -1]),
    st.integers(-9, 9),
    st.integers(2**63, 2**70),
    st.integers(-(2**70), -(2**63)),
)


#: sixty 2000-bit coefficients of both signs: the plain sum
_WIDE = [(-1) ** (k // 3) * (2**2000 - 1 - k**7) for k in range(60)]


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
@example(a=[0, 0, 1, 0, 1], sa=1, b=[2**63, 0], sb=1, n_out=1)  # huge term meets only zeros
@example(a=_WIDE, sa=1, b=_WIDE[::-1], sb=1, n_out=60)
@settings(max_examples=200, deadline=None)
def test_convolve_matches_brute_force(a, sa, b, sb, n_out):
    # zero-stuffed operands: convolve scatters the operand with fewer nonzero terms
    a, b = on_stride(a, sa), on_stride(b, sb)
    got = _kernels.convolve(a, b, n_out)
    assert got == brute_convolve(a, b, n_out)
    assert all(type(c) is int for c in got)


def test_invert_unit_round_trip():
    # sparse +-1 inputs (the production shape) invert to full length
    rng = np.random.default_rng(11)
    for n in (1, 2, 25, 80):
        a = np.zeros(n, np.int64)
        idx = rng.choice(n, size=max(1, n // 4), replace=False)
        a[idx] = rng.choice(np.array([1, -1], np.int64), size=len(idx))
        a[0] = rng.choice([1, -1])
        out, valid = _kernels.invert_unit(a.tolist(), n)
        assert valid == n
        check = brute_convolve(a.tolist(), out, n)
        assert check == [1] + [0] * (n - 1)


def test_invert_unit_dense_series_inverts_to_full_length():
    rng = np.random.default_rng(5)
    a, _ = _random_arrays(rng, 25)
    out, valid = _kernels.invert_unit(a.tolist(), 25)
    assert valid == 25
    assert brute_convolve(a.tolist(), out, 25) == [1] + [0] * 24
    assert max(map(abs, out)) >= _kernels.LIMIT  # well past int64


def test_invert_unit_of_the_euler_product_is_the_partition_numbers_past_int64():
    # (q;q) has only +-1 terms, which add or subtract; p(k) >= 2^63 from k = 406 on
    n = 520
    euler = [0] * n
    for k in range(-20, 21):
        if k * (3 * k - 1) // 2 < n:
            euler[k * (3 * k - 1) // 2] = (-1) ** k
    out, valid = _kernels.invert_unit(euler, n)
    assert valid == n
    assert out == partition_counts(n - 1)
    assert out[-1] >= _kernels.LIMIT
    neg, _ = _kernels.invert_unit([-c for c in euler], n)  # a leading -1 negates the inverse
    assert neg == [-c for c in out]


def test_invert_unit_mixes_unit_and_general_terms():
    # +-1 terms beside others, past int64, under both leading signs
    n = 60
    for c0 in (1, -1):
        a = [c0, 1, -1, 3, 0, -(2**70), 1, 0, 0, -1, 7] + [0] * (n - 11)
        out, valid = _kernels.invert_unit(a, n)
        assert valid == n
        assert brute_convolve(a, out, n) == [1] + [0] * (n - 1)
        assert max(map(abs, out)) >= _kernels.LIMIT


def test_invert_unit_is_exact_past_int64():
    # 1/(1 - 50q) has coefficients 50^k, which leave int64 near k = 11
    n = 100
    a = [1, -50] + [0] * (n - 2)
    out, valid = _kernels.invert_unit(a, n)
    assert valid == n
    assert out == [50**k for k in range(n)]
    assert all(type(c) is int for c in out)


#: limbs that _carry may meet: its carries stay far below int64
_limb = st.one_of(st.sampled_from([0, 1, -1, _kernels.LIMB_MASK]), st.integers(-(2**61), 2**61))


@st.composite
def _limb_rows(draw):
    width, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    return [draw(st.lists(_limb, min_size=n, max_size=n)) for _ in range(width)], draw(st.booleans())


_L = _kernels.LIMB_BITS


@given(_limb_rows())
@example(([[-1, 5, 2**_L + 7], [0, 0, -3]], False))  # negative columns; 5 under a zero top limb
@example(([[3, -(2 ** (_L + 4))], [2 ** (_L + 1), -(2 ** (_L + 1))]], False))  # a top limb of 2^(L+1) takes a new limb
@example(([[1, 2], [0, 0], [2**61, -(2**61)]], True))  # a new limb, from a .T view
@example(([[0, _kernels.LIMB_MASK], [-(2**_L), 1]], True))
@settings(max_examples=200, deadline=None)
def test_carry_keeps_the_ints_of_limb_rows(case):
    rows, transposed = case
    width = len(rows)
    want = [sum(limb << (_kernels.LIMB_BITS * k) for k, limb in enumerate(col)) for col in zip(*rows)]
    if transposed:  # the limb rows as a strided view, as scatter's in-loop carry passes them
        held = np.array(rows, np.int64).T.copy()
        limbs = held.T
    else:
        limbs = held = np.array(rows, np.int64)
    got = _kernels._carry(limbs)
    assert _kernels.limb_ints(got) == want
    assert all(0 <= limb <= _kernels.LIMB_MASK for row in got[:-1].tolist() for limb in row)
    # as few rows as keep every signed top limb below 2^(LIMB_BITS + 1), and never fewer than given
    fits = lambda k: all(abs(v >> (_kernels.LIMB_BITS * (k - 1))) < 2 ** (_kernels.LIMB_BITS + 1) for v in want)
    assert len(got) == next(k for k in range(width, width + 4) if fits(k))
    if len(got) == width:  # carried in place
        assert got is limbs
        assert _kernels.limb_ints(held.T if transposed else held) == want


def _binomials_as_factors(binomials, n_out):
    """Single binomials ``(s, m)`` as kernel factors ``(m, n_out, s)``."""
    return [(m, n_out, s) for s, m in binomials]


def _progression_binomials(factors, n_out):
    """The binomials ``(s, m)`` of the kernel factors ``(m0, d, s)`` below ``n_out``."""
    return [(s, m) for m0, d, s in factors for m in range(m0, n_out, d)]


def test_binomial_product_matches_reference():
    rng = np.random.default_rng(13)
    n = 60
    shifts = rng.integers(1, 12, size=20).astype(np.int64)
    signs = rng.choice(np.array([1, -1], np.int64), size=20)
    out, one_limb = _kernels.binomial_product(n, [(m, n, s) for m, s in zip(shifts.tolist(), signs.tolist())])
    assert one_limb
    want = np.zeros(n, np.int64)
    want[0] = 1
    for m, s in zip(shifts.tolist(), signs.tolist()):
        nxt = want.copy()
        nxt[m:] -= s * want[:-m]
        want = nxt
    assert out == want.tolist()


@pytest.mark.parametrize("copies", [62, 64, 65, 66, 67, 80])
def test_binomial_product_bails_where_the_true_maximum_reaches_the_limit(copies):
    # (1 + q)^k is exact; it leaves one int64 limb before the first factor
    # that meets max|c| >= HALF, and not earlier: C(66, 33) > 2^62 > C(65, 32)
    n = 81
    want = [1] + [0] * (n - 1)
    one_limb = True
    for _ in range(copies):
        if max(map(abs, want)) >= _kernels.HALF:
            one_limb = False
        want = [want[0]] + [want[k] + want[k - 1] for k in range(1, n)]
    out, got_one_limb = _kernels.binomial_product(n, [(1, n, -1)] * copies)
    assert got_one_limb == one_limb
    assert out == want


_binomials = st.lists(
    st.tuples(st.sampled_from([1, -1]), st.one_of(st.integers(1, 3), st.integers(1, 119))),
    max_size=400,
)

#: (1 + q)^70, then (1 - q)^70 and (1 + q^(2^i))^70 for i = 1..6: the product
#: is (1 - q^128)^70, so in ascending order magnitudes pass 2^66 and come back
#: down to 7 bits
_UP_AND_DOWN = [(-1, 1)] * 70 + [(1, 1)] * 70 + [(-1, 1 << i) for i in range(1, 7) for _ in range(70)]


@given(binomials=_binomials, n_out=st.integers(1, 240))
@example(binomials=[(-1, 1)] * 300, n_out=120)  # C(300, 119) ~ 2^290: about ten limbs
@example(binomials=[(1, 1)] * 300, n_out=120)  # the same magnitudes with alternating signs
@example(binomials=[(-1, 2)] * 200 + [(1, 3)] * 120 + [(-1, 119)] * 3, n_out=240)
@example(binomials=_UP_AND_DOWN, n_out=240)  # past 2^66 and back to 7 bits
# in ascending order: a step in place, four swaps, one in place and two
# swaps, with both signs
@example(binomials=[(1, 60)] * 2 + [(-1, 1)] * 5 + [(1, 119)], n_out=240)
# one step in place and 65 swaps, so the product bails to limbs from the
# second array; then swap and in-place steps on the limbs
@example(binomials=[(-1, 1)] * 66 + [(1, 90)] * 3 + [(-1, 2)] * 2, n_out=240)
# the maximum is read after (1 + q)^65 (1 - q^10), at about 1.5 * 2^61, with
# (1 + q^20) still to run: just below HALF, so the product keeps one limb
@example(binomials=[(-1, 1)] * 65 + [(1, 10), (-1, 20)], n_out=120)
@settings(max_examples=100, deadline=None)
def test_binomial_product_matches_naive_product(binomials, n_out):
    binomials = [(s, m) for s, m in binomials if m < n_out]
    out, one_limb = _kernels.binomial_product(n_out, _binomials_as_factors(binomials, n_out))
    want = naive_product(binomials, n_out - 1)
    assert out == want
    assert all(type(c) is int for c in out)
    # the kernel applies the binomials in ascending order, stable among equal shifts
    peak = _peak_before_a_factor(sorted(binomials, key=itemgetter(1)), n_out - 1)
    assert one_limb == (peak < _kernels.HALF)


def _peak_before_a_factor(binomials, order):
    """The largest max|c| of a partial product that a factor is applied to."""
    c = [1] + [0] * order
    peak = 0
    for s, m in binomials:
        peak = max(peak, *map(abs, c))
        c = c[:m] + [c[k] - s * c[k - m] for k in range(m, order + 1)]
    return peak


def test_binomial_product_carries_past_two_hundred_bits():
    # (1 + q)^300 (1 - q^2)^40: coefficients past 2^200 of both signs
    n = 301
    binomials = [(-1, 1)] * 300 + [(1, 2)] * 40
    out, one_limb = _kernels.binomial_product(n, _binomials_as_factors(binomials, n))
    assert not one_limb
    assert max(out) > 2**200 and min(out) < -(2**200)
    assert out == naive_product(binomials, n - 1)


#: shared strides, bases of sign -1 (two progressions of twice the step with
#: opposite signs) and single binomials (m, n_out, s)
@st.composite
def _factor_lists(draw):
    n_out = draw(st.integers(2, 200))
    factors = []
    for _ in range(draw(st.integers(0, 6))):
        m0 = draw(st.integers(1, n_out - 1))
        s = draw(st.sampled_from([1, -1]))
        shape = draw(st.sampled_from(["progression", "negative base", "binomial"]))
        if shape == "binomial":
            factors += [(m0, n_out, s)] * draw(st.integers(1, 40))
            continue
        d = draw(st.sampled_from([1, 2, 3, 5]))
        if shape == "progression":
            factors.append((m0, d, s))
        else:
            factors += [(m0, 2 * d, s)] + ([(m0 + d, 2 * d, -s)] if m0 + d < n_out else [])
    return n_out, factors


@given(_factor_lists())
# (1 + q)^70 (1 + q^2)^70 (q^3;q): the product leaves one limb, (q^3;q) runs
# on the limb columns, and coefficients reach 2^138
@example((150, [(1, 150, -1)] * 70 + [(2, 150, -1)] * 70 + [(3, 1, 1)]))
@example((120, [(1, 1, 1), (2, 2, -1), (3, 2, 1), (40, 120, -1)]))  # shared stride 2, a single binomial
# single binomials past n_out/2, as in test_binomial_product_matches_naive_product
# at n_out 240
@example((120, _binomials_as_factors([(-1, 2)] * 200 + [(1, 3)] * 120 + [(-1, 119)] * 3, 120)))
@example((120, _binomials_as_factors(_UP_AND_DOWN, 120)))
# (1 + q)^a (q^60;q) for a = 59, 60: the product peaks at 60 bits, and every
# partial product stays below HALF, so both keep one limb
@example((120, [(1, 120, -1)] * 59 + [(60, 1, 1)]))
@example((120, [(1, 120, -1)] * 60 + [(60, 1, 1)]))
@settings(max_examples=150, deadline=None)
def test_binomial_product_of_progressions_matches_naive_product(case):
    n_out, factors = case
    out, one_limb = _kernels.binomial_product(n_out, factors)
    binomials = _progression_binomials(factors, n_out)
    assert out == naive_product(binomials, n_out - 1)
    assert all(type(c) is int for c in out)
    assert one_limb == _keeps_one_limb(factors, n_out)


def _keeps_one_limb(factors, n_out):
    """Whether :func:`_kernels.binomial_product` keeps one int64 limb, factor by factor.

    The binomials run one at a time in ascending order of shift, stable
    among equal shifts, and one limb is left once a factor meets
    ``max|c| >= HALF``.
    """
    binomials = sorted(_progression_binomials(factors, n_out), key=itemgetter(1))
    return _peak_before_a_factor(binomials, n_out - 1) < _kernels.HALF
