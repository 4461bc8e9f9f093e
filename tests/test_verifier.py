import json
import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charfactor.verifier as vf
from charfactor import _kernels, cli, products, series
from charfactor.minimal_model import (
    CharacterLabel,
    InvalidLabel,
    MinimalModel,
    bosonic_thetas,
    character,
    conformal_dim,
    normalized_character,
)
from charfactor.pairs import ContributingPair, contributing_pairs
from charfactor.params import ParameterError, ProductParams, Scheme, divisors, validate
from charfactor.scanner import iter_canonical_quadruples, phi_series, psi_series, scan
from charfactor.series import NEEDS_CONSTANT_SLOT, SeriesError, ShiftedSeries, Theta, inverse_euler_power
from charfactor.series import pochhammer_product
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

from oracles import KIND_SIGNS, brute_convolve, euler_power_oracle, naive_pochhammer, rc_normalized_character
from oracles import pair_sign as reference_pair_sign


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
    (IdentityKind.MAIN_B_EVEN, triple(4, 3, 3)),
])
def test_verify_rejects_negative_order(kind, fp):
    # the full sides check the order once their records' terms are collected, with the same error
    with pytest.raises(SeriesError, match="order >= 0"):
        verify(kind, fp, -1)
    for side in (build_lhs, build_rhs, lambda kind, fp, order: build_rhs(kind, fp, order, SWAPPED)):
        with pytest.raises(SeriesError) as err:
            side(kind, fp, -1)
        assert str(err.value) == NEEDS_CONSTANT_SLOT


def test_negative_order_is_checked_before_applicability():
    assert applicability_error(IdentityKind.MAIN_A_EVEN, triple(2, 9, 3)) is not None
    for certify in (verify, vf.check):
        with pytest.raises(SeriesError, match="order >= 0"):
            certify(IdentityKind.MAIN_A_EVEN, triple(2, 9, 3), -1)


def test_quint_even_kinds_need_n_parity():
    # printed hypotheses hold but n = 1; both sign readings fail empirically,
    # so the verifier refuses the kind for these tuples
    fp = quintuple(3, 4, 4, 1, 1, 1)
    assert fp.n == 1
    assert applicability_error(IdentityKind.QUINT_C, fp) is not None


def test_pair_sign_table_equals_the_branchwise_rules():
    # every pair of every scheme tuple with pp' <= 200, under both readings of all seven
    # kinds; a kind has variants exactly when its readings differ on some pair
    pairs = {scheme: {pair for fp in iter_scheme_params(scheme, 200) for pair in contributing_pairs(fp)}
             for scheme in Scheme}
    for kind in IdentityKind:
        differ = False
        for pair in pairs[kind.scheme]:
            want = [reference_pair_sign(kind.value, pair.ptype, pair.weight, swapped) for swapped in (False, True)]
            assert [pair_sign(kind, pair, AS_STATED), pair_sign(kind, pair, SWAPPED)] == want, (kind, pair)
            differ |= want[0] != want[1]
        assert kind.has_variants == differ, kind
    with pytest.raises(ValueError, match="unknown sign variant 'bogus'"):
        pair_sign(IdentityKind.MAIN, next(iter(pairs[Scheme.TRIPLE])), "bogus")


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


def test_first_mismatch_degree_reads_past_a_common_prefix():
    assert first_mismatch_degree([1, 2, 3], [1, 2, 3]) is None
    assert first_mismatch_degree([1, 5, 3], [1, 2, 4]) == 1
    assert first_mismatch_degree([1, 2], [1, 2, 3]) == 2
    assert first_mismatch_degree([1, 2, 3], [1, 2]) == 2
    assert first_mismatch_degree([], [0]) == 0


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
    real = series.triple_symbols

    def corrupted(u, v):
        [(factors, base)] = real(u, v)
        c = v.exponent - 2 * u.exponent  # B = 1: u = q^{(a'-c)/2}, v = q^{a'}
        flipped = Q(-factors[0].sign, factors[0].exponent)
        return (((flipped,) + factors[1:], base),) if c == 3 else ((factors, base),)

    monkeypatch.setattr(series, "triple_symbols", corrupted)
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
    assert one.offset == 0 and one.coeffs == [1] + [0] * 50


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


def test_product_records_expand_to_the_numerators():
    # the link the proof assumes: under every sign vector (s1, s3) of either scheme, the
    # kinds' four and the triple (-1, +1) that no kind uses, the theta records expand, by
    # the Jacobi triple or quintuple product identity, to exactly the Pochhammer numerator
    order = 300
    vectors = [(scheme, signs) for scheme in Scheme for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    assert {(kind.scheme, kind.signs) for kind in IdentityKind} < set(vectors)
    for scheme, signs in vectors:
        # the numerator depends on nothing but (a', B, c)
        for args in sorted({(fp.a_prime, fp.B, fp.c) for fp in iter_scheme_params(scheme, 40)}):
            want = products.numerator(scheme, *args, order, signs).coeffs
            assert series.bilateral_sum(products.side_thetas(scheme, *args, signs), order) == want, (scheme, signs, args)


@pytest.mark.parametrize("max_pp, order", [(60, 10**4), (100, 200)])
def test_proved_certificates_expand_no_numerator(monkeypatch, max_pp, order):
    # every instance of the verify sweep (pp' <= 100 at N = 200), and every instance
    # with pp' <= 60 at N = 10^4, is proved: its residual under the variant verify
    # reports is empty
    def refuse(*args):
        raise AssertionError("a numerator expanded on a proved certificate")

    monkeypatch.setattr(products, "numerator", refuse)
    for kind in IdentityKind:
        for fp in iter_applicable_params(kind, max_pp):
            cert = verify(kind, fp, order)
            assert cert.match and cert.first_mismatch is None, (kind, fp)
            pairs = contributing_pairs(fp)
            assert vf.prove(kind, fp, pairs, cert.sign_variant) == [], (kind, fp)


def test_records_off_the_common_square_raise(monkeypatch):
    # doubling one product record's quadratic coefficient takes it off A's square
    # multiples, which valid parameters never do: verify names the record and stops
    real = products.side_thetas

    def off_square(*args):
        first, *rest = real(*args)
        return (first._replace(a=2 * first.a), *rest)

    monkeypatch.setattr(products, "side_thetas", off_square)
    for kind, fp in ((IdentityKind.MAIN, triple(2, 9, 3)), (IdentityKind.QUINT, quintuple(9, 2, 2))):
        with pytest.raises(RuntimeError, match=r"theta record Theta\(a=.*\) does not dissect onto A = "):
            verify(kind, fp, 60)


def test_certificate_numerators_take_one_binomial_pass(monkeypatch):
    # the truncated check sends both Pochhammer symbols of a quintuple numerator
    # through one binomial_product call, a factor (1 - q^0) skips the expansion
    # and (1 + q^0) doubles it
    calls = Counter()

    def spy(name):
        real = getattr(_kernels, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in ("binomial_product", "convolve"):
        monkeypatch.setattr(_kernels, name, spy(name))
    for kind in IdentityKind:
        for fp in iter_applicable_params(kind, 40):
            calls.clear()
            cert = vf.check(kind, fp, 60)
            assert calls["binomial_product"] <= 1 and calls["convolve"] == 0, (kind, fp)
            if kind.scheme is not Scheme.QUINTUPLE or fp.c != 0:
                continue
            calls.clear()
            num = products.numerator(kind.scheme, fp.a_prime, fp.B, 0, 60, kind.signs)
            if kind in (IdentityKind.QUINT, IdentityKind.QUINT_B):
                assert calls["binomial_product"] == 0 and not any(num.coeffs), (kind, fp)
                assert cert.lhs_prefix == [0] * PREFIX_LEN
            else:
                # (1 + q^0)(1 - s1 sb q^{2Ba'}) ... is twice the symbol started one step later
                assert calls["binomial_product"] == 1
                s1, s2, s3, sb, t1, t2 = KIND_SIGNS[kind.value]
                v = 2 * fp.B * fp.a_prime
                rest = pochhammer_product((
                    ((Q(s1 * sb, v), Q(s2, v), Q(s3, v)), Q(sb, v)),
                    ((Q(t1, v), Q(t2, v)), Q(1, 2 * v)),
                ), 60)
                assert num.coeffs == [2 * x for x in rest.coeffs], (kind, fp)


def test_character_offsets_are_exact_integers():
    # the keys built from plain integers are the canonical forms on A = n*p*p' of the model's
    # bosonic_thetas of (r*b, s*b') at q**n, shifted by the exact E + n*Delta, signed +1 and -1,
    # for every pair of every scheme tuple
    for scheme in Scheme:
        for fp in iter_scheme_params(scheme, 200):
            model, n = MinimalModel(fp.p, fp.p_prime), fp.n
            pairs = contributing_pairs(fp)
            for pair, keys in zip(pairs, vf._pair_records(fp, pairs), strict=True):
                label = CharacterLabel(pair.r * fp.b, pair.s * fp.b_prime)
                offset = prefactor_exponent(fp) + n * conformal_dim(model, label)
                assert offset.denominator == 1 and offset >= 0, (fp, pair)
                assert all(type(x) is int for key in keys for x in key)  # no Fraction offset
                records = [Theta(n * a, n * b, n * c + int(offset), s, chi)
                           for a, b, c, s, chi in bosonic_thetas(model, label)]
                want = [piece for record in records for piece in series.dissect(record, n * fp.p * fp.p_prime)]
                assert list(zip(keys, (1, -1))) == want, (fp, pair)


@pytest.mark.parametrize("kind, fp, e_pref, message", [
    (IdentityKind.MAIN, triple(2, 9, 3), F(-1), "character (1,2) sits at exponent -2"),
    (IdentityKind.QUINT_B, quintuple(3, 16, 4, c=3), F(-7, 4), "character (1,7) sits at exponent -19/4"),
])
def test_off_grid_character_side_is_rejected_with_its_exponent(monkeypatch, kind, fp, e_pref, message):
    # the records take the prefactor E as its integer numerator over 4aa'B
    den = 4 * fp.a * fp.a_prime * fp.B
    assert (e_pref * den).denominator == 1
    monkeypatch.setattr(vf, "_prefactor_numerator", lambda fp: int(e_pref * den))
    with pytest.raises(SeriesError) as err:
        verify(kind, fp, 30)
    assert str(err.value) == "non-integral identity side: " + message


def test_label_out_of_range_is_rejected_by_name(monkeypatch):
    # r*b = 2 is no label of (p, p') = (2, 9): the character side checks the range before its exponent
    monkeypatch.setattr(vf, "contributing_pairs", lambda fp: [ContributingPair(2, 1, 1, 0)])
    with pytest.raises(InvalidLabel) as err:
        verify(IdentityKind.MAIN, triple(2, 9, 3), 30)
    assert str(err.value) == "invalid label (r,s)=(2,1) for (p,p')=(2,9)"


def test_no_package_path_multiplies_two_series(monkeypatch, capsys):
    # every quotient by (q^n;q^n) goes through over_euler or theta_stream, every
    # product through one Pochhammer expansion and the partition numbers through
    # invert_unit; the general series arithmetic and comparison are for outside
    # callers, and the Python-int sum takes only certificate prefixes and one-term
    # quotients: scatter's large-coefficient regime is for outside callers too
    def refuse(*args):
        raise AssertionError("series arithmetic on a package path")

    stride_sum = _kernels.stride_sum

    def short_only(terms, values, stride, n_out):
        if n_out > PREFIX_LEN:
            raise AssertionError(f"a Python-int sum of {n_out} coefficients on a package path")
        return stride_sum(terms, values, stride, n_out)

    _clear_caches()
    monkeypatch.setattr(_kernels, "convolve", refuse)
    monkeypatch.setattr(_kernels, "stride_sum", short_only)
    monkeypatch.setattr(vf, "integer_coefficients", refuse)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "as_integer_series", "invert", "__eq__"):
        monkeypatch.setattr(ShiftedSeries, name, refuse)
    for kind in IdentityKind:
        for fp in list(iter_applicable_params(kind, 40))[:4]:
            cert = verify(kind, fp, 50)
            assert cert.to_json_dict() == vf.check(kind, fp, 50).to_json_dict()
            assert cert.match and build_lhs(kind, fp, 50).coeffs == build_rhs(kind, fp, 50, cert.sign_variant).coeffs
    for pp in (ProductParams(Scheme.TRIPLE, 3, 1, 1, 3), ProductParams(Scheme.QUINTUPLE, 4, 1, 1, 2)):
        scan(pp, 200)
    model, label = MinimalModel(3, 4), CharacterLabel(1, 2)
    assert normalized_character(model, label, 30).coeffs == rc_normalized_character(3, 4, 1, 2, 30)
    assert character(model, label, 30).offset == conformal_dim(model, label)
    for ap in (3, 5, 7):
        for c in range(1, ap, 2):
            assert verify_remark_products(ap, c, 100), (ap, c)
    assert dict(cli._selftest_checks())["theta sums match product expansions"]() is None
    assert inverse_euler_power(3, 9).coeffs == [1, 0, 0, 1, 0, 0, 2, 0, 0, 3]
    assert cli.run(["selftest"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# proof-first certificates against the truncated check
# ---------------------------------------------------------------------------

def test_certificate_prefixes_are_fresh(monkeypatch):
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


_INSTANCES = [(kind, fp) for kind in IdentityKind for fp in iter_applicable_params(kind, 100)]


@pytest.mark.parametrize("rule", SIGN_RULES)
@settings(max_examples=150, deadline=None)
@given(instance=st.sampled_from(_INSTANCES), order=st.integers(0, 200))
# proved only under the swapped rule, but both character sums agree up to q^15
@example(instance=(IdentityKind.MAIN_A_EVEN, triple(4, 19, 19, c=15)), order=15)
def test_proof_first_certificates_equal_truncated_certificates(rule, instance, order):
    kind, fp = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vf, "pair_sign", SIGN_RULES[rule])
        got = verify(kind, fp, order).to_json_dict()
        assert got == _full_side_certificate(kind, fp, order).to_json_dict()
        assert got == vf.check(kind, fp, order).to_json_dict()


#: scheme -> p -> the p' coprime to p with 400 < pp' <= 1000, for every p that has one
_LARGE_MODULI = {scheme: {p: pps for p in range(scheme.modulus, 501, scheme.modulus)
                          if (pps := [pp for pp in range(max(2, 400 // p + 1), 1000 // p + 1) if math.gcd(p, pp) == 1])}
                 for scheme in Scheme}


@st.composite
def _large_instances(draw):
    """An applicable (kind, tuple) with 400 < pp' <= 1000, past every sweep: p, then p' coprime
    to it, then b, b', a' and c by divisibility, then one of the kinds that apply.  No draw is
    filtered out: the triple scheme's odd c < a' needs a' > 1, so b' < p' there."""
    scheme = draw(st.sampled_from(Scheme))
    p = draw(st.sampled_from(list(_LARGE_MODULI[scheme])))
    pp = draw(st.sampled_from(_LARGE_MODULI[scheme][p]))
    triple = scheme is Scheme.TRIPLE
    b = draw(st.sampled_from(divisors(p // scheme.modulus)))
    bp = draw(st.sampled_from([d for d in divisors(pp) if not triple or d < pp]))
    ap = draw(st.sampled_from([d for d in divisors(pp // bp) if not triple or d > 1]))
    cs = range(1, ap, 2) if triple else range(ap)
    fp = validate(scheme, p, pp, ap, b, bp, draw(st.sampled_from(cs)))
    return draw(st.sampled_from([kind for kind in IdentityKind if applicability_error(kind, fp) is None])), fp


@pytest.mark.parametrize("rule", SIGN_RULES)
@settings(max_examples=60, deadline=None)
@given(instance=_large_instances(), order=st.integers(0, 40))
# odd n = 333 and 9: the quintuple records split on A = 4n*pp' (m = 2)
@example(instance=(IdentityKind.QUINT, quintuple(27, 37, 1, c=0)), order=40)
@example(instance=(IdentityKind.QUINT, quintuple(27, 37, 37, c=4)), order=40)
def test_large_tuples_verify_as_the_truncated_check(rule, instance, order):
    kind, fp = instance
    assert 400 < fp.p * fp.p_prime <= 1000
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vf, "pair_sign", SIGN_RULES[rule])
        assert verify(kind, fp, order).to_json_dict() == vf.check(kind, fp, order).to_json_dict()


def test_main_a_4_19_says_as_stated_below_the_swapped_difference():
    kind, fp = IdentityKind.MAIN_A_EVEN, triple(4, 19, 19, c=15)
    pairs = contributing_pairs(fp)
    assert vf.prove(kind, fp, pairs, AS_STATED)
    assert not vf.prove(kind, fp, pairs, SWAPPED)
    assert verify(kind, fp, 15).sign_variant == AS_STATED
    assert verify(kind, fp, 200).sign_variant == SWAPPED


# ---------------------------------------------------------------------------
# one decision path: the residual
# ---------------------------------------------------------------------------

_HIGH_ORDER_CERTIFICATES = [  # the benchmark's five high-order certificates
    (IdentityKind.MAIN, triple(2, 3, 3), 10_000),
    (IdentityKind.QUINT, quintuple(3, 4, 4), 10_000),
    (IdentityKind.MAIN_B_EVEN, triple(4, 3, 3), 10_000),
    (IdentityKind.QUINT_B, quintuple(3, 16, 4, c=3), 10_000),
    (IdentityKind.MAIN, triple(2, 9, 3), 12_000),
]


def test_no_certificate_or_workload_path_reaches_the_kernel(monkeypatch):
    # certificates, failing ones included, come from the residual alone, and scans and
    # the partition numbers from theta records: no Pochhammer product is expanded
    def refuse(*args):
        raise AssertionError("a Pochhammer expansion on a certificate or workload path")

    _clear_caches()
    monkeypatch.setattr(_kernels, "binomial_product", refuse)
    monkeypatch.setattr(products, "numerator", refuse)
    for rule in SIGN_RULES:
        monkeypatch.setattr(vf, "pair_sign", SIGN_RULES[rule])
        for order in (200, 10**4):
            for kind in IdentityKind:
                for fp in iter_applicable_params(kind, 60):
                    verify(kind, fp, order)
    monkeypatch.setattr(vf, "pair_sign", pair_sign)
    for kind, fp, order in _HIGH_ORDER_CERTIFICATES:
        assert verify(kind, fp, order).match
    for scheme in Scheme:
        for pp in iter_canonical_quadruples(scheme, 30):
            scan(pp, 2000)
    assert phi_series(ProductParams(Scheme.TRIPLE, 3, 1, 1, 3), 500).coeffs[:4] == [1, -1, -1, 1]
    assert psi_series(ProductParams(Scheme.QUINTUPLE, 4, 1, 1, 2), 500).order == 500


def test_no_full_series_expands_a_pochhammer_product(monkeypatch):
    # every full series streams its theta records: both product sides, the character
    # side under both readings, the characters and the scanner's series
    def refuse(*args):
        raise AssertionError("a Pochhammer expansion on a full series")

    _clear_caches()
    monkeypatch.setattr(_kernels, "binomial_product", refuse)
    order = 60
    for kind in IdentityKind:
        for fp in iter_applicable_params(kind, 40):
            cert = verify(kind, fp, order)
            lhs = build_lhs(kind, fp, order).coeffs
            rhs = {variant: build_rhs(kind, fp, order, variant).coeffs for variant in (AS_STATED, SWAPPED)}
            assert cert.match and rhs[cert.sign_variant] == lhs, (kind, fp)
            model = MinimalModel(fp.p, fp.p_prime)
            for pair in contributing_pairs(fp):
                label = CharacterLabel(pair.r * fp.b, pair.s * fp.b_prime)
                want = rc_normalized_character(fp.p, fp.p_prime, label.r, label.s, order)
                assert normalized_character(model, label, order).coeffs == want, (fp, label)
                assert character(model, label, order).coeffs == want, (fp, label)
            pp = ProductParams(kind.scheme, fp.a_prime, fp.B, fp.c, fp.n)
            plain = (phi_series if kind.scheme is Scheme.TRIPLE else psi_series)(pp, order).coeffs
            if kind in (IdentityKind.MAIN, IdentityKind.QUINT):
                assert plain == lhs, (kind, fp)


def test_build_lhs_is_the_numerator_over_the_euler_power():
    # the Jacobi identity on the full product side: the streamed records equal the expanded
    # Pochhammer numerator times 1/(q^n;q^n), multiplied out by the oracles
    order, euler = 150, {}
    for kind in IdentityKind:
        for fp in iter_applicable_params(kind, 60):
            if fp.n not in euler:
                euler[fp.n] = euler_power_oracle(fp.n, order)
            num = products.numerator(kind.scheme, fp.a_prime, fp.B, fp.c, order, kind.signs).coeffs
            assert build_lhs(kind, fp, order).coeffs == brute_convolve(num, euler[fp.n], order + 1), (kind, fp)


def test_certificates_build_no_limbs(monkeypatch):
    # a certificate's prefixes are at most PREFIX_LEN coefficients, which over_euler sums in
    # Python ints: from cold caches, no certificate, failed ones included, reaches the limbs
    def refuse(*args):
        raise AssertionError("limbs on a certificate path")

    instances = [(kind, fp, order) for kind in IdentityKind for fp in iter_applicable_params(kind, 60)
                 for order in (0, PREFIX_LEN - 1, 200)]
    want = {}
    for rule in SIGN_RULES:
        monkeypatch.setattr(vf, "pair_sign", SIGN_RULES[rule])
        want[rule] = [verify(*instance).to_json_dict() for instance in instances]
    assert not all(cert["match"] for cert in want["constant"])
    _clear_caches()
    for name in ("scatter", "limb_ints", "limb_table"):
        monkeypatch.setattr(_kernels, name, refuse)
    for rule in SIGN_RULES:
        monkeypatch.setattr(vf, "pair_sign", SIGN_RULES[rule])
        assert [verify(*instance).to_json_dict() for instance in instances] == want[rule], rule


def test_pair_records_dissect_as_their_theta_view(monkeypatch):
    # the keys are counted as the dissect pieces of their Theta view on the one A every proof
    # takes, n*pp', where the view is its own canonical form; a distinct weight per pair in place
    # of its sign keeps keys of different pairs from cancelling
    tuples = Counter()
    for scheme in Scheme:
        kind = IdentityKind.MAIN if scheme is Scheme.TRIPLE else IdentityKind.QUINT
        for fp in iter_scheme_params(scheme, 120):
            pairs = contributing_pairs(fp)
            keys = vf._pair_records(fp, pairs)
            thetas = [(Theta(*k0[:3], 1), Theta(*k1[:3], -1)) for k0, k1 in keys]
            assert len(keys) == len(thetas) == len(pairs)
            weights = {pair: 3 ** i for i, pair in enumerate(pairs)}
            monkeypatch.setattr(vf, "pair_sign", lambda kind, pair, variant: weights[pair])
            A = fp.n * fp.p * fp.p_prime
            want = Counter()
            for pair, pair_keys, theta in zip(pairs, keys, thetas, strict=True):
                assert theta == (Theta(*pair_keys[0][:3], 1, 1), Theta(*pair_keys[1][:3], -1, 1))
                for key, t in zip(pair_keys, theta):
                    assert key[0] == A, (fp, key)
                    assert series.dissect(t, A) == [(key, t.s)], (fp, t)
                    want[key] -= weights[pair] * t.s
            got = vf._residual(kind, pairs, {}, keys, AS_STATED)
            assert sorted(got) == sorted(Theta(*key[:3], count, key[3]) for key, count in want.items() if count), fp
            tuples[scheme] += 1
    assert set(tuples) == set(Scheme)


def test_quintuple_c0_product_records_cancel_or_double():
    # at c = 0 the quintuple product's records come in equal pairs: they cancel under quint and
    # quint_b, where the product is zero, and double under quint_a and quint_c; a record held
    # twice with opposite signs leaves the residual as if it were left out
    seen = Counter()
    for kind in IdentityKind:
        if kind.scheme is not Scheme.QUINTUPLE:
            continue
        for fp in iter_applicable_params(kind, 120):
            if fp.c != 0:
                continue
            product = products.side_thetas(kind.scheme, fp.a_prime, fp.B, 0, kind.signs)
            # on the records' own a, each summed record is one canonical piece
            merged = vf._product_counts(product, product[0].a)
            if kind in (IdentityKind.QUINT, IdentityKind.QUINT_B):
                assert merged == {}, (kind, fp)
            else:
                # quint_a's two records (s3 = +1) sum into one, quint_c's four (s3 = -1) into two
                assert len(merged) == len(product) // 2, (kind, fp)
                assert all(abs(s) == 2 for s in merged.values()), (kind, fp)
            pairs = contributing_pairs(fp)
            keys, A = vf._pair_records(fp, pairs), fp.n * fp.p * fp.p_prime
            extra = product[1]._replace(c=product[1].c + 1)
            held_twice = vf._product_counts((*product, extra, extra._replace(s=-extra.s)), A)
            assert held_twice == vf._product_counts(product, A), (kind, fp)
            assert vf._residual(kind, pairs, held_twice, keys, AS_STATED) == [], (kind, fp)
            seen[kind] += 1
    assert len(seen) == 4


def test_every_proof_is_on_one_square():
    # every kind's product records dissect onto the pairs' own A = n*pp' with chi = 1 on every key;
    # at c > 0 the product keys are the pairs' keys, one each: a perfect matching, count +-1 per key
    matched = Counter()
    for kind in IdentityKind:
        for fp in iter_applicable_params(kind, 120):
            product = products.side_thetas(kind.scheme, fp.a_prime, fp.B, fp.c, kind.signs)
            counts = vf._product_counts(product, fp.n * fp.p * fp.p_prime)
            assert all(key[3] == 1 for key in counts), (kind, fp)
            if fp.c == 0:
                continue
            keys = [key for pair_keys in vf._pair_records(fp, contributing_pairs(fp)) for key in pair_keys]
            assert len(set(keys)) == len(keys), (kind, fp)
            assert set(counts) == set(keys), (kind, fp)
            assert all(abs(count) == 1 for count in counts.values()), (kind, fp)
            matched[kind] += 1
    assert set(matched) == set(IdentityKind)


def test_residual_mismatch_equals_the_truncated_check_at_high_order(monkeypatch):
    # under both corrupted sign rules at N = 10^4: every signed-kind tuple with pp' <= 40
    # and every fifth plain one; the product numerator depends only on (kind, a', B, c)
    order = 10**4
    numerators = {}
    real = products.numerator

    def shared(*args):
        if args not in numerators:
            numerators[args] = real(*args)
        return numerators[args]

    monkeypatch.setattr(products, "numerator", shared)
    instances = [(kind, fp) for kind in IdentityKind
                 for i, fp in enumerate(iter_applicable_params(kind, 40)) if kind.has_variants or i % 5 == 0]
    assert len(instances) >= 100
    failed = set()
    for rule in ("constant", "weight_mod_3"):
        monkeypatch.setattr(vf, "pair_sign", SIGN_RULES[rule])
        for kind, fp in instances:
            got = verify(kind, fp, order).to_json_dict()
            assert got == vf.check(kind, fp, order).to_json_dict(), (rule, kind, fp)
            if not got["match"]:
                failed.add(kind)
    assert failed == set(IdentityKind)


#: the rules of SIGN_RULES, and a corrupted one that, unlike those two, tells the readings
#: apart, so a failed certificate of a signed kind has two residuals to choose from
RESIDUAL_RULES = {
    **SIGN_RULES,
    "weight_1_negated": lambda kind, pair, variant=AS_STATED: pair_sign(kind, pair, variant) * (-1) ** (pair.weight == 1),
}


@pytest.mark.parametrize("rule", RESIDUAL_RULES)
def test_residual_is_the_difference_of_the_numerators(monkeypatch, rule):
    # the residual's records sum to the product numerator minus the character numerator,
    # term by term, under each reading; verify reports the stated reading's mismatch
    order = 120
    monkeypatch.setattr(vf, "pair_sign", RESIDUAL_RULES[rule])
    for kind in IdentityKind:
        for fp in iter_applicable_params(kind, 40):
            pairs = contributing_pairs(fp)
            keys = vf._pair_records(fp, pairs)
            lhs = products.numerator(kind.scheme, fp.a_prime, fp.B, fp.c, order, kind.signs).coeffs
            for variant in (AS_STATED, SWAPPED) if kind.has_variants else (AS_STATED,):
                rhs = series.bilateral_sum(vf._character_records(kind, pairs, keys, variant), order)
                residual = vf.prove(kind, fp, pairs, variant)
                assert series.bilateral_sum(residual, order) == [x - y for x, y in zip(lhs, rhs)], (kind, fp)
            assert verify(kind, fp, order).to_json_dict() == vf.check(kind, fp, order).to_json_dict(), (kind, fp)


def test_first_mismatch_sums_the_residual_before_reading_it():
    # 2 sum_k q^(k^2) - sum_k q^(k^2 + k): both pieces start at q^0, where 2 - 2 cancels,
    # and the first nonzero sum is 4 at q^1, not the least exponent of a piece
    residual = [Theta(1, 0, 0, 2, 1), Theta(1, 1, 0, -1, 1)]
    assert series.bilateral_sum(residual, 2) == [0, 4, -2]
    assert vf._first_mismatch(residual, 0) is None
    assert vf._first_mismatch(residual, 5) == 1
    # sum_k (-1)^k q^(k^2) - sum_k q^(k^2) is -4 q + ...: chi keeps the pieces apart
    assert vf._first_mismatch([Theta(1, 0, 0, 1, -1), Theta(1, 0, 0, -1, 1)], 5) == 1
    assert vf._first_mismatch([], 5) is None
    # the residual keeps each key's chi; on applicable parameters every key has chi = +1
    # (n's parity makes chi**m = 1), so only records built by hand tell it apart; the one pair's
    # keys count against the product's, and one of them cancels
    product = {(1, 0, 0, -1): 1, (1, 0, 0, 1): -1, (4, 2, 1, 1): 3}
    assert vf._residual(IdentityKind.MAIN, [], product, [], AS_STATED) == [
        Theta(1, 0, 0, 1, -1), Theta(1, 0, 0, -1, 1), Theta(4, 2, 1, 3, 1)]
    pair = ContributingPair(1, 1, 1, 0)
    assert pair_sign(IdentityKind.MAIN, pair) == 1
    assert vf._residual(IdentityKind.MAIN, [pair], product, [((4, 2, 1, 1), (1, 0, 0, 1))], AS_STATED) == [
        Theta(1, 0, 0, 1, -1), Theta(4, 2, 1, 2, 1)]
