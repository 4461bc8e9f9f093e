from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from charfactor.params import (
    ParameterError,
    ProductParams,
    Scheme,
    canonicalize,
    divisors,
    find_realizations,
    is_prime,
    prime_factors,
    validate,
)
from charfactor.scanner import iter_canonical_quadruples
from charfactor.verifier import iter_scheme_params


def test_number_utils():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert prime_factors(360) == [2, 3, 5]
    assert is_prime(2) and is_prime(97) and not is_prime(91) and not is_prime(1)


def test_validate_worked_instances():
    fp = validate(Scheme.TRIPLE, 2, 9, 3, 1, 1, 1)
    assert (fp.B, fp.n) == (1, 3)
    fp = validate(Scheme.TRIPLE, 4, 3, 3, 1, 1, 1)
    assert (fp.B, fp.n) == (1, 2)
    fp = validate(Scheme.QUINTUPLE, 9, 2, 2, 1, 1, 1)
    assert (fp.B, fp.n) == (1, 3)


@pytest.mark.parametrize("args,fragment", [
    ((Scheme.TRIPLE, 4, 6, 3, 1, 1, 1), "coprimality"),
    ((Scheme.TRIPLE, 3, 5, 5, 1, 1, 1), "divisibility"),  # 2b does not divide 3
    ((Scheme.TRIPLE, 2, 9, 4, 1, 1, 1), "divisibility"),  # a'b' = 4 does not divide 9
    ((Scheme.TRIPLE, 2, 9, 3, 1, 1, 2), "parity"),
    ((Scheme.TRIPLE, 2, 9, 3, 1, 1, 3), "range"),  # a' > c violated
    ((Scheme.QUINTUPLE, 9, 2, 2, 1, 1, -1), "range"),
    ((Scheme.QUINTUPLE, 8, 3, 3, 1, 1, 1), "divisibility"),  # 3 does not divide 8
    ((Scheme.TRIPLE, 1, 9, 3, 1, 1, 1), "range"),
])
def test_validate_reports_violations_by_name(args, fragment):
    with pytest.raises(ParameterError, match=fragment):
        validate(*args)


#: every message as the validation printed it before it became one boolean test
EXACT_MESSAGES = [
    ((Scheme.TRIPLE, 4, 6, 3, 1, 1, 1), "coprimality: gcd(p, p') must be 1, got gcd(4, 6)"),
    ((Scheme.TRIPLE, 3, 5, 5, 1, 1, 1), "divisibility: a*b = 2 must divide p = 3"),
    ((Scheme.TRIPLE, 2, 9, 4, 1, 1, 1), "divisibility: a'*b' = 4 must divide p' = 9"),
    ((Scheme.TRIPLE, 2, 9, 3, 1, 1, 2), "parity: c must be odd in the triple scheme, got c=2"),
    ((Scheme.TRIPLE, 2, 9, 3, 1, 1, 0), "parity: c must be odd in the triple scheme, got c=0"),
    ((Scheme.TRIPLE, 2, 9, 3, 1, 1, 3), "range: a' must exceed c (a'=3, c=3)"),
    ((Scheme.QUINTUPLE, 9, 2, 2, 1, 1, -1), "range: c must be nonnegative"),
    ((Scheme.QUINTUPLE, 8, 3, 3, 1, 1, 1), "divisibility: a*b = 3 must divide p = 8"),
    ((Scheme.QUINTUPLE, 3, 4, 4, 0, 1, 1), "range: a', b, b' must be positive"),
    ((Scheme.TRIPLE, 2.0, 9, 3, 1, 1, 1), "type: p must be an integer"),
    ((Scheme.QUINTUPLE, 9, 2, 2, 1, 1, 1.0), "type: c must be an integer"),
    ((Scheme.TRIPLE, None, "9", 3, 1, 1, 1), "type: p must be an integer; type: p' must be an integer"),
    ((Scheme.TRIPLE, 1, 9, 3, 1, 1, 1),
     "range: p and p' must be greater than 1; divisibility: a*b = 2 must divide p = 1"),
    ((Scheme.TRIPLE, True, 9, 3, 1, 1, 1),
     "range: p and p' must be greater than 1; divisibility: a*b = 2 must divide p = True"),
    ((Scheme.TRIPLE, 0, 0, 0, 0, 0, -1),
     "range: p and p' must be greater than 1; range: a', b, b' must be positive; range: c must be nonnegative"),
    ((Scheme.QUINTUPLE, 3, 4, 0, 1, 0, 0), "range: a', b, b' must be positive; range: a' must exceed c (a'=0, c=0)"),
    ((Scheme.QUINTUPLE, 4, 9, 3, 1, 1, 3), "range: a' must exceed c (a'=3, c=3); divisibility: a*b = 3 must divide p = 4"),
    ((Scheme.TRIPLE, 6, 4, 3, 2, 1, 2),
     "coprimality: gcd(p, p') must be 1, got gcd(6, 4); divisibility: a*b = 4 must divide p = 6; "
     "divisibility: a'*b' = 3 must divide p' = 4; parity: c must be odd in the triple scheme, got c=2"),
]


@pytest.mark.parametrize("args,message", EXACT_MESSAGES)
def test_validate_keeps_every_message(args, message):
    with pytest.raises(ParameterError) as err:
        validate(*args)
    assert str(err.value) == message


def test_derived_fields_equal_their_formulas():
    for scheme in Scheme:
        for fp in iter_scheme_params(scheme, 200):
            a = 2 if scheme is Scheme.TRIPLE else 3
            assert (fp.a, fp.B, fp.p_over_b, fp.pp_over_bp) == (a, fp.b * fp.b_prime, fp.p // fp.b,
                                                                fp.p_prime // fp.b_prime), fp
            assert fp.n * a * fp.a_prime * fp.B == fp.p * fp.p_prime, fp
            # the derived values are not fields: equality and repr see the seven inputs
            twin = validate(scheme, fp.p, fp.p_prime, fp.a_prime, fp.b, fp.b_prime, fp.c)
            assert twin == fp and hash(twin) == hash(fp) and repr(twin) == repr(fp)
            assert [f.name for f in fields(fp)] == ["scheme", "p", "p_prime", "a_prime", "b", "b_prime", "c"]


def test_derived_quantities_are_consistent():
    fp = validate(Scheme.TRIPLE, 8, 15, 5, 2, 3, 3)
    assert fp.B == 6
    assert fp.n == 120 // (2 * 5 * 6)
    assert fp.p_over_b == 4 and fp.pp_over_bp == 5


def test_product_params_projection():
    fp = validate(Scheme.TRIPLE, 2, 9, 3, 1, 1, 1)
    assert ProductParams(fp.scheme, fp.a_prime, fp.B, fp.c, fp.n) == ProductParams(Scheme.TRIPLE, 3, 1, 1, 3)
    fq = validate(Scheme.QUINTUPLE, 9, 2, 2, 1, 1, 1)
    assert ProductParams(fq.scheme, fq.a_prime, fq.B, fq.c, fq.n) == ProductParams(Scheme.QUINTUPLE, 2, 1, 1, 3)


def test_product_params_validation():
    with pytest.raises(ParameterError, match="parity"):
        ProductParams(Scheme.TRIPLE, 4, 1, 1, 3)
    with pytest.raises(ParameterError, match="range"):
        ProductParams(Scheme.TRIPLE, 3, 1, 3, 3)


@pytest.mark.parametrize("args", [
    (3, 1, None, 3),
    (None, 1, 1, 3),
    (3, 1.0, 1, 3),
    (3, 1, 1, "3"),
])
def test_product_params_rejects_non_integers_by_name(args):
    with pytest.raises(ParameterError, match="type: .* must be an integer"):
        ProductParams(Scheme.TRIPLE, *args)


def test_canonicalize_examples():
    reduced, k = canonicalize(ProductParams(Scheme.QUINTUPLE, 6, 1, 2, 5))
    assert (reduced.a_prime, reduced.B, reduced.c, reduced.n) == (3, 2, 1, 5)
    assert k == 1

    reduced, k = canonicalize(ProductParams(Scheme.TRIPLE, 3, 1, 1, 3))
    assert (reduced.a_prime, reduced.B, reduced.c, reduced.n) == (3, 1, 1, 3)
    assert k == 1

    reduced, k = canonicalize(ProductParams(Scheme.TRIPLE, 3, 2, 1, 2))
    assert (reduced.a_prime, reduced.B, reduced.c, reduced.n) == (3, 1, 1, 1)
    assert k == 2


def test_canonicalize_c_zero_skips_modulus_reduction():
    reduced, k = canonicalize(ProductParams(Scheme.QUINTUPLE, 4, 2, 0, 6))
    assert (reduced.a_prime, reduced.B, reduced.c, reduced.n) == (4, 1, 0, 3)
    assert k == 2


@given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 39), st.integers(1, 12))
def test_canonicalize_idempotent(ap, B, c, n):
    if c >= ap:
        c = ap - 1
    try:
        pp = ProductParams(Scheme.QUINTUPLE, ap, B, c, n)
    except ParameterError:
        return
    reduced, _ = canonicalize(pp)
    assert reduced.is_canonical
    again, k2 = canonicalize(reduced)
    assert again == reduced and k2 == 1


@pytest.mark.parametrize("scheme", list(Scheme))
def test_canonicalize_returns_a_canonical_quadruple_itself(scheme):
    # every quadruple the scan sweep enumerates: no second ProductParams is built for it
    for pp in iter_canonical_quadruples(scheme, 30):
        reduced, k = canonicalize(pp)
        assert reduced == pp and reduced is pp and k == 1


def test_find_realizations_examples():
    hits = find_realizations(ProductParams(Scheme.TRIPLE, 3, 1, 1, 3))
    assert any((fp.p, fp.p_prime, fp.b, fp.b_prime) == (2, 9, 1, 1) for fp in hits)
    hits = find_realizations(ProductParams(Scheme.TRIPLE, 3, 1, 1, 1))
    assert any((fp.p, fp.p_prime) == (2, 3) for fp in hits)
    hits = find_realizations(ProductParams(Scheme.QUINTUPLE, 2, 1, 1, 3))
    assert any((fp.p, fp.p_prime) == (9, 2) for fp in hits)


def test_find_realizations_round_trip_and_order():
    pp = ProductParams(Scheme.TRIPLE, 3, 2, 1, 5)
    hits = find_realizations(pp)
    assert hits, "expected at least one realization"
    assert [(f.p, f.b) for f in hits] == sorted((f.p, f.b) for f in hits)
    for fp in hits:
        validate(fp.scheme, fp.p, fp.p_prime, fp.a_prime, fp.b, fp.b_prime, fp.c)
        assert ProductParams(fp.scheme, fp.a_prime, fp.B, fp.c, fp.n) == pp


def test_find_realizations_limit():
    pp = ProductParams(Scheme.TRIPLE, 3, 2, 1, 5)
    every = find_realizations(pp)
    for limit in range(len(every) + 2):
        assert find_realizations(pp, limit=limit) == every[:limit]
    with pytest.raises(ParameterError, match="limit"):
        find_realizations(pp, limit=-1)


def test_find_realizations_empty_is_legal():
    # a*a'*B*n = 3 only splits as 3*1, and p' = 1 is not a model index
    pp = ProductParams(Scheme.QUINTUPLE, 1, 1, 0, 1)
    assert find_realizations(pp) == []
