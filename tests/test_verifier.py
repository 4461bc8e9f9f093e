import json
from collections import Counter, defaultdict
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charfactor.verifier as vf
from charfactor import _kernels, cli, products, series
from charfactor.minimal_model import CharacterLabel, MinimalModel, character, conformal_dim, normalized_character
from charfactor.pairs import contributing_pairs
from charfactor.params import ParameterError, ProductParams, Scheme, validate
from charfactor.scanner import phi_series, scan
from charfactor.series import SeriesError, ShiftedSeries, inverse_euler_power, partition_series, pochhammer_product
from charfactor.series import SignedMonomial as Q
from charfactor.verifier import (
    AS_STATED,
    PREFIX_LEN,
    SWAPPED,
    IdentityCertificate,
    IdentityKind,
    applicability_error,
    build_lhs,
    build_rhs,
    first_mismatch_degree,
    integer_coefficients,
    iter_applicable_params,
    iter_scheme_params,
    pair_sign,
    prefactor_exponent,
    verify,
    verify_remark_products,
)

from oracles import naive_pochhammer, rc_normalized_character


def _clear_caches():
    for fn in (series.euler_product, series.partition_series, series.inverse_euler_power):
        fn.cache_clear()


def triple(p, pp, ap, b=1, bp=1, c=1):
    return validate(Scheme.TRIPLE, p, pp, ap, b, bp, c)


def quintuple(p, pp, ap, b=1, bp=1, c=1):
    return validate(Scheme.QUINTUPLE, p, pp, ap, b, bp, c)


def test_prefactor_exponents():
    assert prefactor_exponent(triple(2, 9, 3)) == 2
    assert prefactor_exponent(triple(4, 3, 3)) == 0
    assert prefactor_exponent(quintuple(9, 2, 2)) == F(49 - 1, 24)


def test_lhs_2_9_prefix():
    lhs = build_lhs(IdentityKind.MAIN, triple(2, 9, 3), 30)
    assert lhs.coeffs[:7] == [1, -1, -1, 1, -1, 0, 2]
    # (q, q^2, q^3; q^3) / (q^3; q^3) == (q; q) / (q^3; q^3)
    assert lhs == build_lhs(IdentityKind.MAIN, triple(2, 9, 3), 30)


def test_lhs_4_3_telescopes_to_odd_euler():
    lhs = build_lhs(IdentityKind.MAIN, triple(4, 3, 3), 40)
    want = naive_pochhammer([(1, 1)], (1, 2), 40)  # (q; q^2)_inf
    assert lhs.coeffs == want


def test_lhs_quintuple_9_2_equals_triple_2_9():
    a = build_lhs(IdentityKind.MAIN, triple(2, 9, 3), 60)
    b = build_lhs(IdentityKind.QUINT, quintuple(9, 2, 2), 60)
    assert a == b


def test_lhs_matches_phi_series():
    fp = triple(2, 9, 3)
    assert build_lhs(IdentityKind.MAIN, fp, 50) == phi_series(ProductParams(Scheme.TRIPLE, 3, 1, 1, 3), 50)


def test_rhs_2_9_term_structure():
    rhs = build_rhs(IdentityKind.MAIN, triple(2, 9, 3), 40)
    # leading behaviour comes from chi(1,5) at offset 0 minus chi(1,2) at q
    assert rhs.coeffs[0] == 1
    assert rhs.coeffs[1] == -1
    assert rhs.coeffs[2] == -1


def test_rhs_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        build_rhs(IdentityKind.MAIN, triple(2, 9, 3), 20, variant="bogus")


def test_verify_worked_instances():
    for fp, order in ((triple(2, 9, 3), 300), (triple(4, 3, 3), 200), (triple(4, 5, 5), 200)):
        cert = verify(IdentityKind.MAIN, fp, order)
        assert cert.match and cert.sign_variant == AS_STATED
        assert cert.first_mismatch is None


def test_verify_n_equals_one_telescopes():
    cert = verify(IdentityKind.MAIN, triple(2, 3, 3), 100)
    assert cert.match
    assert cert.lhs_prefix == [1] + [0] * 15


def test_verify_quintuple_worked_instance():
    cert = verify(IdentityKind.QUINT, quintuple(9, 2, 2), 200)
    assert cert.match and cert.sign_variant == AS_STATED
    assert cert.lhs_prefix[:7] == [1, -1, -1, 1, -1, 0, 2]


def test_verify_quintuple_c_zero_both_sides_vanish():
    cert = verify(IdentityKind.QUINT, quintuple(9, 2, 2, c=0), 120)
    assert cert.match
    assert cert.lhs_prefix == [0] * 16
    assert cert.rhs_prefix == [0] * 16


def test_main_b_even_4_3_matches_swapped():
    cert = verify(IdentityKind.MAIN_B_EVEN, triple(4, 3, 3), 200)
    assert cert.match
    assert cert.sign_variant == SWAPPED


def test_main_even_variant_tracks_modulus_residue():
    # the matched triangular rule is decided by a' mod 4
    for kind in (IdentityKind.MAIN_A_EVEN, IdentityKind.MAIN_B_EVEN):
        seen = {}
        for fp in iter_applicable_params(kind, 80):
            cert = verify(kind, fp, 100)
            assert cert.match
            seen.setdefault(fp.a_prime % 4, set()).add(cert.sign_variant)
        for variants in seen.values():
            assert len(variants) == 1


def test_applicability_errors():
    assert applicability_error(IdentityKind.MAIN, triple(2, 9, 3)) is None
    assert applicability_error(IdentityKind.MAIN, quintuple(9, 2, 2)) is not None
    assert applicability_error(IdentityKind.MAIN_A_EVEN, triple(2, 9, 3)) is not None  # n odd
    assert applicability_error(IdentityKind.MAIN_B_EVEN, triple(4, 3, 3)) is None
    assert applicability_error(IdentityKind.QUINT_A, quintuple(9, 2, 2)) is not None  # n odd
    with pytest.raises(ParameterError, match="precondition failed"):
        verify(IdentityKind.MAIN_A_EVEN, triple(2, 9, 3), 50)


@pytest.mark.parametrize("kind,fp", [
    (IdentityKind.MAIN, triple(2, 9, 3)),
    (IdentityKind.QUINT, quintuple(9, 2, 2)),
])
def test_verify_rejects_negative_order(kind, fp):
    with pytest.raises(SeriesError, match="order >= 0"):
        verify(kind, fp, -1)


def test_quint_even_kinds_need_n_parity():
    # printed hypotheses hold but n = 1; both sign readings fail empirically,
    # so the verifier refuses the kind for these tuples
    fp = quintuple(3, 4, 4, 1, 1, 1)
    assert fp.n == 1
    assert applicability_error(IdentityKind.QUINT_C, fp) is not None


def test_certificate_json_schema():
    cert = verify(IdentityKind.MAIN, triple(2, 9, 3), 80)
    doc = cert.to_json_dict()
    assert list(doc) == ["kind", "p", "pp", "a", "ap", "b", "bp", "c", "B", "n", "order",
                         "pairs", "match", "sign_variant", "first_mismatch",
                         "lhs_prefix", "rhs_prefix"]
    assert doc["kind"] == "main"
    assert doc["pairs"][0] == {"r": 1, "s": 2, "type": 2, "weight": 3}
    assert len(doc["lhs_prefix"]) == 16 and len(doc["rhs_prefix"]) == 16
    json.dumps(doc)  # serializable


def test_failed_certificate_reports_mismatch_degree(monkeypatch):
    # corrupt the sign rule so both variants miss; the certificate must say so
    fp = triple(2, 9, 3)
    monkeypatch.setattr(vf, "pair_sign", lambda kind, pair, variant=AS_STATED: 1)
    cert = vf.verify(IdentityKind.MAIN, fp, 40)
    assert not cert.match
    assert cert.sign_variant == "failed"
    assert cert.first_mismatch == 1  # +chi instead of -chi first differs at q^1
    assert cert.lhs_prefix != cert.rhs_prefix


def test_remark_products_telescope():
    assert verify_remark_products(3, 1, 100)
    assert verify_remark_products(5, 1, 100)
    assert verify_remark_products(5, 3, 100)


def test_remark_products_fail_on_a_corrupted_numerator(monkeypatch):
    # one flipped factor sign in one numerator symbol breaks the relation
    real = products.triple_symbol

    def corrupted(ap, B, c, signs=products.TRIPLE_PLAIN):
        factors, base = real(ap, B, c, signs)
        return ((-factors[0],) + factors[1:], base) if c == 3 else (factors, base)

    monkeypatch.setattr(products, "triple_symbol", corrupted)
    assert verify_remark_products(5, 1, 100) is False
    assert verify_remark_products(7, 1, 100) is False
    assert verify_remark_products(3, 1, 100)  # no symbol with c = 3


def test_remark_products_validation():
    with pytest.raises(ParameterError, match="parity"):
        verify_remark_products(4, 1, 50)
    with pytest.raises(ParameterError, match="range"):
        verify_remark_products(5, 7, 50)


def test_phi_3113_is_remark_factor():
    # phi(3,1,1,1) telescopes to the constant series 1
    one = phi_series(ProductParams(Scheme.TRIPLE, 3, 1, 1, 1), 50)
    assert one == ShiftedSeries.one(50)


def _full_side_certificate(kind, fp, order):
    """The certificate as built from both full sides, without cancelling 1/(q^n;q^n)."""
    lhs = integer_coefficients(build_lhs(kind, fp, order), order)
    rhs = integer_coefficients(build_rhs(kind, fp, order, AS_STATED), order)
    variant = AS_STATED
    mismatch = first_mismatch_degree(lhs, rhs)
    if mismatch is not None and kind.has_variants:
        swapped = integer_coefficients(build_rhs(kind, fp, order, SWAPPED), order)
        if first_mismatch_degree(lhs, swapped) is None:
            rhs, variant, mismatch = swapped, SWAPPED, None
    return IdentityCertificate(
        kind=kind, params=fp, order=order, pairs=contributing_pairs(fp),
        match=mismatch is None, sign_variant=variant if mismatch is None else "failed",
        first_mismatch=mismatch, lhs_prefix=lhs[:PREFIX_LEN], rhs_prefix=rhs[:PREFIX_LEN],
    )


SIGN_RULES = {
    "pair_sign": pair_sign,
    "constant": lambda kind, pair, variant=AS_STATED: 1,
    "weight_mod_3": lambda kind, pair, variant=AS_STATED: 1 if pair.weight % 3 == 0 else -1,
}


@pytest.mark.parametrize("rule", SIGN_RULES)
def test_numerator_certificates_equal_full_side_certificates(monkeypatch, rule):
    # orders 0..16 cover prefixes shorter than, equal to and cut from PREFIX_LEN;
    # the two corrupted rules make many certificates fail at varied degrees
    monkeypatch.setattr(vf, "pair_sign", SIGN_RULES[rule])
    failed = 0
    for kind in IdentityKind:
        for fp in iter_applicable_params(kind, 60):
            for order in (0, 7, 15, 16, 90):
                got = verify(kind, fp, order).to_json_dict()
                assert got == _full_side_certificate(kind, fp, order).to_json_dict(), (kind, fp, order)
                failed += not got["match"]
    assert (failed == 0) == (rule == "pair_sign")


def test_build_rhs_is_the_shifted_character_sum():
    # the character side from its definition: sum of sign * q^(E + n*Delta) * chi(q^n)/q^Delta,
    # each normalized character straight from the bosonic double sum
    order = 90
    for kind in IdentityKind:
        for fp in iter_applicable_params(kind, 60):
            model = MinimalModel(fp.p, fp.p_prime)
            want = [0] * (order + 1)
            for pair in contributing_pairs(fp):
                label = CharacterLabel(pair.r * fp.b, pair.s * fp.b_prime)
                offset = prefactor_exponent(fp) + fp.n * conformal_dim(model, label)
                assert offset.denominator == 1 and offset >= 0, (fp, pair)
                chi = rc_normalized_character(fp.p, fp.p_prime, label.r, label.s, order // fp.n)
                for k, x in enumerate(chi):
                    if int(offset) + fp.n * k <= order:
                        want[int(offset) + fp.n * k] += pair_sign(kind, pair) * x
            assert build_rhs(kind, fp, order).coeffs == want, (kind, fp)


def test_certificates_expand_the_product_factor_by_factor(monkeypatch):
    # the scanner's theta-series sides would make a certificate rest on the
    # triple and quintuple product identities it is meant to exercise
    def refuse(*args):
        raise AssertionError("theta series on the certificate path")

    _clear_caches()  # a cold numerator memo, so every certificate below expands its numerator
    monkeypatch.setattr(products, "triple_thetas", refuse)
    monkeypatch.setattr(products, "quintuple_thetas", refuse)
    for kind in IdentityKind:
        for fp in iter_applicable_params(kind, 40):
            assert verify(kind, fp, 60).match
            build_lhs(kind, fp, 20)


def test_certificate_numerators_take_one_binomial_pass(monkeypatch):
    # both Pochhammer symbols of a quintuple numerator go through one binomial_product
    # call; a factor (1 - q^0) skips the expansion and (1 + q^0) doubles it
    calls = Counter()

    def spy(name):
        real = getattr(_kernels, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    partition_series(PREFIX_LEN - 1)  # the certificate prefixes' cached partition numbers
    for name in ("binomial_product", "convolve"):
        monkeypatch.setattr(_kernels, name, spy(name))
    for kind in IdentityKind:
        for fp in iter_applicable_params(kind, 40):
            calls.clear()
            cert = verify(kind, fp, 60)
            assert calls["binomial_product"] <= 1 and calls["convolve"] == 0, (kind, fp)
            if kind.scheme is not Scheme.QUINTUPLE or fp.c != 0:
                continue
            signs = vf._QUINTUPLE_SIGNS[kind]
            calls.clear()
            num = products.quintuple_numerator(fp.a_prime, fp.B, 0, 60, signs)
            if kind in (IdentityKind.QUINT, IdentityKind.QUINT_B):
                assert calls["binomial_product"] == 0 and num.is_zero(), (kind, fp)
                assert cert.lhs_prefix == [0] * PREFIX_LEN
            else:
                # (1 + q^0)(1 - s1 sb q^{2Ba'}) ... is twice the symbol started one step later
                assert calls["binomial_product"] == 1
                s1, s2, s3, sb, t1, t2 = signs
                v = 2 * fp.B * fp.a_prime
                rest = pochhammer_product((
                    ((Q(s1 * sb, v), Q(s2, v), Q(s3, v)), Q(sb, v)),
                    ((Q(t1, v), Q(t2, v)), Q(1, 2 * v)),
                ), 60)
                assert num.coeffs == [2 * x for x in rest.coeffs], (kind, fp)


def test_character_offsets_are_exact_integers():
    for scheme in Scheme:
        for fp in iter_scheme_params(scheme, 200):
            model = MinimalModel(fp.p, fp.p_prime)
            pairs = contributing_pairs(fp)
            for pair, thetas in zip(pairs, vf._character_thetas(fp, pairs), strict=True):
                label = CharacterLabel(pair.r * fp.b, pair.s * fp.b_prime)
                offset = thetas[0].c  # the record with no constant of its own
                assert type(offset) is int
                assert offset == prefactor_exponent(fp) + fp.n * conformal_dim(model, label), (fp, pair)


@pytest.mark.parametrize("kind, fp, e_pref, message", [
    (IdentityKind.MAIN, triple(2, 9, 3), F(-1), "character (1,2) sits at exponent -2"),
    (IdentityKind.QUINT_B, quintuple(3, 16, 4, c=3), F(-7, 4), "character (1,7) sits at exponent -19/4"),
])
def test_off_grid_character_side_is_rejected_with_its_exponent(monkeypatch, kind, fp, e_pref, message):
    monkeypatch.setattr(vf, "prefactor_exponent", lambda fp: e_pref)
    with pytest.raises(SeriesError) as err:
        verify(kind, fp, 30)
    assert str(err.value) == "non-integral identity side: " + message


def test_no_package_path_multiplies_two_series(monkeypatch, capsys):
    # every quotient by (q^n;q^n) goes through over_euler and every product
    # through one Pochhammer expansion; the general multiply is for outside callers
    def refuse(*args):
        raise AssertionError("a series multiply on a package path")

    _clear_caches()
    monkeypatch.setattr(_kernels, "convolve", refuse)
    monkeypatch.setattr(ShiftedSeries, "__mul__", refuse)
    monkeypatch.setattr(ShiftedSeries, "__rmul__", refuse)
    for kind in IdentityKind:
        for fp in list(iter_applicable_params(kind, 40))[:4]:
            cert = verify(kind, fp, 50)
            assert cert.match and build_lhs(kind, fp, 50) == build_rhs(kind, fp, 50, cert.sign_variant)
    for pp in (ProductParams(Scheme.TRIPLE, 3, 1, 1, 3), ProductParams(Scheme.QUINTUPLE, 4, 1, 1, 2)):
        scan(pp, 200)
    model, label = MinimalModel(3, 4), CharacterLabel(1, 2)
    assert normalized_character(model, label, 30).coeffs == rc_normalized_character(3, 4, 1, 2, 30)
    assert character(model, label, 30).offset == conformal_dim(model, label)
    assert verify_remark_products(7, 3, 100)
    assert inverse_euler_power(3, 9).coeffs == [1, 0, 0, 1, 0, 0, 2, 0, 0, 3]
    assert cli.run(["selftest"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the numerator memo
# ---------------------------------------------------------------------------

def _memo_snapshot():
    return {top: dict(memo) for top, (_, memo) in vf._NUMERATORS.items()}


def test_shared_numerators_expand_once_per_cache_generation(monkeypatch):
    # (2,9) and (4,9) with a' = 3, b = b' = 1 both have B = 1 and c = 1: one numerator
    first, second = triple(2, 9, 3), triple(4, 9, 3)
    assert (first.a_prime, first.B, first.c) == (second.a_prime, second.B, second.c)
    assert (first.p, first.n) != (second.p, second.n)
    calls = Counter()
    real = _kernels.binomial_product

    def counted(*args):
        calls["binomial_product"] += 1
        return real(*args)

    monkeypatch.setattr(_kernels, "binomial_product", counted)
    order = 80

    def warm_partitions():
        # the partition numbers are one more binomial pass each; count only numerators
        series.partition_series(PREFIX_LEN - 1)
        series.partition_series(order)
        calls.clear()

    _clear_caches()
    warm_partitions()
    want = verify(IdentityKind.MAIN, second, order).to_json_dict()
    assert calls["binomial_product"] == 1
    _clear_caches()
    warm_partitions()
    assert verify(IdentityKind.MAIN, first, order).match
    assert verify(IdentityKind.MAIN, second, order).to_json_dict() == want
    assert calls["binomial_product"] == 1
    assert len(vf._numerator_memo(PREFIX_LEN - 1)) == 1

    _clear_caches()
    assert vf._numerator_memo(PREFIX_LEN - 1) == {}  # the cleared caches start a cold memo
    warm_partitions()
    assert verify(IdentityKind.MAIN, second, order).to_json_dict() == want
    assert calls["binomial_product"] == 1


@pytest.mark.parametrize("kind,fp", [
    (IdentityKind.MAIN, triple(2, 9, 3)),
    (IdentityKind.QUINT, quintuple(9, 2, 2)),
])
def test_negative_order_adds_no_memo_entry(kind, fp):
    verify(kind, fp, 20)
    before = _memo_snapshot()
    with pytest.raises(SeriesError, match="order >= 0"):
        verify(kind, fp, -1)
    assert _memo_snapshot() == before


def test_memo_values_are_immutable_and_prefixes_fresh(monkeypatch):
    # mutating one certificate's prefixes must not reach the next certificate of the same instance
    fp = triple(2, 9, 3)
    for rule in ("pair_sign", "constant"):
        monkeypatch.setattr(vf, "pair_sign", SIGN_RULES[rule])
        cert = verify(IdentityKind.MAIN, fp, 40)
        assert cert.match == (rule == "pair_sign")
        want = json.loads(json.dumps(cert.to_json_dict()))
        assert cert.lhs_prefix is not cert.rhs_prefix
        cert.lhs_prefix[0] += 7
        cert.rhs_prefix[1] -= 5
        cert.rhs_prefix.append(3)
        again = verify(IdentityKind.MAIN, fp, 40)
        assert again.to_json_dict() == want
        assert again.lhs_prefix is not cert.lhs_prefix and again.rhs_prefix is not cert.rhs_prefix
    for _, memo in vf._NUMERATORS.values():
        for terms in memo.values():
            assert type(terms) is tuple and all(type(x) is int for x in terms)


def _memo_groups():
    """Every applicable (kind, fp) with pp' <= 60, grouped by (scheme, a', B).

    One drawn group's certificates share numerators across kinds, c and orders.
    """
    groups = defaultdict(list)
    for kind in IdentityKind:
        for fp in iter_applicable_params(kind, 60):
            groups[kind.scheme, fp.a_prime, fp.B].append((kind, fp))
    return list(groups.values())


_MEMO_GROUPS = _memo_groups()


@st.composite
def _verify_sequences(draw):
    group = draw(st.sampled_from(_MEMO_GROUPS))
    return draw(st.lists(st.tuples(st.sampled_from(group), st.sampled_from((0, 7, 15, 16, 40))),
                         min_size=2, max_size=10))


@pytest.mark.parametrize("rule", ["pair_sign", "constant"])
@settings(max_examples=80, deadline=None)
@given(calls=_verify_sequences())
def test_memoised_certificates_equal_cold_certificates(rule, calls):
    # the memo key must hold everything the numerator depends on
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vf, "pair_sign", SIGN_RULES[rule])
        cold = []
        for (kind, fp), order in calls:
            _clear_caches()
            cold.append(verify(kind, fp, order).to_json_dict())
        _clear_caches()
        for ((kind, fp), order), want in zip(calls, cold):
            assert verify(kind, fp, order).to_json_dict() == want, (kind, fp, order)
