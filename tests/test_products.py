import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charfactor import _kernels, products
from charfactor.series import NEEDS_CONSTANT_SLOT, SeriesError, inverse_euler_power, pochhammer
from charfactor.series import SignedMonomial as Q
from charfactor.params import Scheme
from charfactor.verifier import IdentityKind

from oracles import KIND_SIGNS, brute_convolve, euler_power_oracle, naive_pochhammer


def triple_oracle(ap, B, c, n, order):
    num = naive_pochhammer(
        [(1, B * (ap - c) // 2), (1, B * (ap + c) // 2), (1, B * ap)], (1, B * ap), order
    )
    return brute_convolve(num, euler_power_oracle(n, order), order + 1)


def quintuple_oracle(ap, B, c, n, order):
    first = naive_pochhammer(
        [(1, B * c), (1, B * (2 * ap - c)), (1, 2 * B * ap)], (1, 2 * B * ap), order
    )
    second = naive_pochhammer([(1, 2 * B * (ap + c)), (1, 2 * B * (ap - c))], (1, 4 * B * ap), order)
    num = brute_convolve(first, second, order + 1)
    return brute_convolve(num, euler_power_oracle(n, order), order + 1)


quadruple = st.tuples(
    st.integers(1, 9), st.integers(1, 4), st.integers(0, 9), st.integers(1, 5), st.integers(0, 70)
)


@given(quadruple)
@example((9, 1, 1, 1, 600))  # coefficients reach 65 bits
@example((9, 1, 5, 3, 600))
@settings(max_examples=80, deadline=None)
def test_triple_side_is_the_pochhammer_side(q):
    ap, B, c, n, order = q
    c = min(c, ap)
    c -= (ap - c) % 2
    got = products.triple_side(ap, B, c, n, order)
    want = products.numerator(Scheme.TRIPLE, ap, B, c, order) * inverse_euler_power(n, order)
    assert list(got.coeffs) == want.coeffs
    assert list(got.coeffs) == triple_oracle(ap, B, c, n, order)


@given(quadruple)
@example((7, 1, 2, 1, 600))  # coefficients reach 67 bits
@example((4, 1, 0, 2, 600))  # c = 0: the zero stream
@example((8, 1, 3, 2, 600))
@settings(max_examples=80, deadline=None)
def test_quintuple_side_is_the_pochhammer_side(q):
    ap, B, c, n, order = q
    c = min(c, ap)
    got = products.quintuple_side(ap, B, c, n, order)
    want = products.numerator(Scheme.QUINTUPLE, ap, B, c, order) * inverse_euler_power(n, order)
    assert list(got.coeffs) == want.coeffs
    assert list(got.coeffs) == quintuple_oracle(ap, B, c, n, order)


def test_sides_reject_what_the_numerators_reject():
    # c > a' leaves a factor with a negative exponent: not a power series
    for side, scheme, c in ((products.triple_side, Scheme.TRIPLE, 5), (products.quintuple_side, Scheme.QUINTUPLE, 4)):
        with pytest.raises(SeriesError):
            products.numerator(scheme, 3, 1, c, 30)
        with pytest.raises(SeriesError):
            side(3, 1, c, 2, 30)
    with pytest.raises(ValueError, match="parity"):
        products.triple_side(3, 1, 2, 2, 30)
    for side, args, text in (
        (products.quintuple_side, (3, 1, 4, 2, 30), "divergent quintuple parameters: exponent -2 at index k=-1"),
        (products.triple_side, (3, 0, 1, 2, 10), "non-convergent theta sum: v must have positive exponent"),
        (products.quintuple_side, (2, 1, 1, 2, -3), NEEDS_CONSTANT_SLOT),
        (products.triple_side, (3, 1, 1, 0, 10), "modulus must be a positive integer, got 0"),
    ):
        with pytest.raises(SeriesError) as err:
            side(*args)
        assert str(err.value) == text


def _kinds(scheme):
    return [kind for kind in IdentityKind if kind.scheme is scheme]


# each numerator is built from the kind's Jacobi signs (s1, s3) and must expand to
# the symbols with exactly the paper's sign vector
@pytest.mark.parametrize("kind", _kinds(Scheme.TRIPLE), ids=lambda k: k.value)
@given(st.integers(1, 9), st.integers(1, 4), st.integers(0, 8), st.integers(0, 80))
@settings(max_examples=60, deadline=None)
def test_signed_triple_numerators_match_naive_expansion(kind, ap, B, c, order):
    c = c % ap + (ap - c % ap) % 2  # a' - c even, c <= a'
    s1, s2, s3, sb = KIND_SIGNS[kind.value]
    want = naive_pochhammer([(s1, B * (ap - c) // 2), (s2, B * (ap + c) // 2), (s3, B * ap)], (sb, B * ap), order)
    assert products.numerator(kind.scheme, ap, B, c, order, kind.signs).coeffs == want


@pytest.mark.parametrize("kind", _kinds(Scheme.QUINTUPLE), ids=lambda k: k.value)
@given(st.integers(1, 9), st.integers(1, 4), st.integers(0, 8), st.integers(0, 80))
@settings(max_examples=60, deadline=None)
def test_signed_quintuple_numerators_match_naive_expansion(kind, ap, B, c, order):
    c %= ap
    s1, s2, s3, sb, t1, t2 = KIND_SIGNS[kind.value]
    first = naive_pochhammer([(s1, B * c), (s2, B * (2 * ap - c)), (s3, 2 * B * ap)], (sb, 2 * B * ap), order)
    second = naive_pochhammer([(t1, 2 * B * (ap + c)), (t2, 2 * B * (ap - c))], (1, 4 * B * ap), order)
    got = products.numerator(kind.scheme, ap, B, c, order, kind.signs)
    assert got.coeffs == brute_convolve(first, second, order + 1)


@pytest.mark.parametrize("kind, ap, B, c", [(IdentityKind.QUINT, 4, 1, 1), (IdentityKind.QUINT_B, 4, 1, 3)])
def test_high_order_quintuple_numerators_match_the_two_symbol_form(kind, ap, B, c):
    # the two quintuple certificates of the benchmark's high-order workload, at N = 10^4
    order = 10_000
    s1, s2, s3, sb, t1, t2 = KIND_SIGNS[kind.value]
    first = pochhammer((Q(s1, B * c), Q(s2, B * (2 * ap - c)), Q(s3, 2 * B * ap)), Q(sb, 2 * B * ap), order)
    second = pochhammer((Q(t1, 2 * B * (ap + c)), Q(t2, 2 * B * (ap - c))), Q(1, 4 * B * ap), order)
    assert products.numerator(kind.scheme, ap, B, c, order, kind.signs).coeffs == (first * second).coeffs


def test_high_order_numerators_stay_on_one_limb_with_ascending_shifts(monkeypatch):
    # the numerators of the benchmark's five high-order certificates; an order
    # that grouped the shifts by progression left one limb on all five (3-5x slower)
    numerators = [
        (Scheme.TRIPLE, 3, 1, 1, 10_000, IdentityKind.MAIN.signs),  # (2,3) main
        (Scheme.QUINTUPLE, 4, 1, 1, 10_000, IdentityKind.QUINT.signs),  # (3,4) quint
        (Scheme.TRIPLE, 3, 1, 1, 10_000, IdentityKind.MAIN_B_EVEN.signs),  # (4,3) main_b
        (Scheme.QUINTUPLE, 4, 1, 3, 10_000, IdentityKind.QUINT_B.signs),  # (3,16) quint_b
        (Scheme.TRIPLE, 3, 1, 1, 12_000, IdentityKind.MAIN.signs),  # (2,9) main
    ]
    calls = []
    real, apply = _kernels.binomial_product, _kernels._apply

    def spy(n_out, factors):
        shifts = []
        monkeypatch.setattr(_kernels, "_apply", lambda c, spare, same, w, ms, ss: shifts.extend(ms)
                            or apply(c, spare, same, w, ms, ss))
        coeffs, one_limb = real(n_out, factors)
        calls.append((shifts, n_out, factors, one_limb))
        return coeffs, one_limb

    monkeypatch.setattr(_kernels, "binomial_product", spy)
    for args in numerators:
        products.numerator(*args)
    assert len(calls) == len(numerators)
    for shifts, n_out, factors, one_limb in calls:
        assert one_limb
        # every binomial runs once, factor by factor, in ascending order of shift
        assert shifts == sorted(m for m0, d, s in factors for m in range(m0, n_out, d))
