import json
import math
from collections import Counter

import pytest

from charfactor import _kernels, scanner, series
from charfactor.params import ParameterError, ProductParams, Scheme
from charfactor.scanner import (
    Covered,
    covered_case,
    iter_canonical_quadruples,
    phi_series,
    psi_series,
    scan,
    support_residues,
)

from oracles import brute_convolve, euler_power_oracle, naive_pochhammer, partition_counts, support_exponent_residues


def trip(ap, B, c, n):
    return ProductParams(Scheme.TRIPLE, ap, B, c, n)


def quin(ap, B, c, n):
    return ProductParams(Scheme.QUINTUPLE, ap, B, c, n)


def test_phi_3113_prefix():
    assert list(phi_series(trip(3, 1, 1, 3), 6).coeffs) == [1, -1, -1, 1, -1, 0, 2]


def test_phi_n1_telescopes():
    one = phi_series(trip(3, 1, 1, 1), 50)
    assert one.offset == 0 and one.coeffs == [1] + [0] * 50


def test_phi_rejects_wrong_scheme():
    with pytest.raises(ParameterError, match="scheme"):
        phi_series(quin(2, 1, 1, 3), 10)
    with pytest.raises(ParameterError, match="parity"):
        phi_series(trip(4, 1, 1, 3), 10)


def test_psi_equals_phi_on_shared_instance():
    assert psi_series(quin(2, 1, 1, 3), 300) == phi_series(trip(3, 1, 1, 3), 300)


def test_psi_n1_nonnegative():
    s = psi_series(quin(2, 1, 1, 1), 50)
    assert min(s.coeffs) >= 0


def test_psi_c_zero_vanishes():
    assert not any(psi_series(quin(2, 1, 0, 3), 40).coeffs)


def test_psi_rejects_a_prime_multiple_of_3():
    with pytest.raises(ParameterError, match="divisibility"):
        psi_series(quin(3, 1, 1, 2), 10)


@pytest.mark.parametrize("ap", [6, 9])
def test_scan_and_psi_reject_a_prime_multiple_of_3_as_given(ap):
    # canonicalizing reduces (6,1,3,2) to a' = 2 and (9,1,3,2) to a' = 3: the scan checks
    # the quadruple as given, before the reduction, and names the a' it was given
    for stream in (psi_series, scan):
        with pytest.raises(ParameterError, match=f"^divisibility: a' must not be divisible by 3, got {ap}$"):
            stream(quin(ap, 1, 3, 2), 10)


def test_scan_andrews_case():
    rep = scan(trip(3, 1, 1, 3), 1000)
    assert rep.violations == []
    assert rep.covered is Covered.CASE1
    assert rep.support == [0, 1, 2]


def test_scan_canonicalizes_first():
    rep = scan(trip(3, 2, 1, 2), 100)
    assert (rep.params.a_prime, rep.params.B, rep.params.c, rep.params.n) == (3, 1, 1, 1)


def test_scan_n1_trivially_clean():
    for ap, B, c in ((3, 1, 1), (5, 2, 3), (7, 1, 5)):
        assert scan(trip(ap, B, c, 1), 200).violations == []


def test_scans_at_one_order_share_one_partition_table(monkeypatch):
    built = []
    real = _kernels.limb_table
    monkeypatch.setattr(_kernels, "limb_table", lambda values: built.append(len(values)) or real(values))
    for fn in (series.euler_product, series.partition_series, series.inverse_euler_power):
        fn.cache_clear()
    for n in (1, 2, 3):
        scan(trip(3, 1, 1, n), 300)
    assert series.partition_series.cache_info().misses == 1
    assert built == [301]
    series.partition_series.cache_clear()  # a new partition list, so a new table
    scan(trip(3, 1, 1, 2), 300)
    assert built == [301, 301]


@pytest.mark.parametrize("pp, dropped, message", [
    (trip(5, 1, 1, 5), 1, "coefficient 1 at degree 11 outside residues [0, 2, 3, 4]"),
    (quin(5, 1, 2, 7), 5, "coefficient -1 at degree 40 outside residues [0, 2, 6]"),
])
def test_scan_reports_the_lowest_coefficient_outside_the_support(monkeypatch, pp, dropped, message):
    # the first nonzero of the dropped class lies past earlier nonzeros of the kept ones
    real = scanner.support_residues
    monkeypatch.setattr(scanner, "support_residues", lambda p: real(p) - {dropped})
    with pytest.raises(RuntimeError) as err:
        scan(pp, 60)
    assert str(err.value) == "support violation: " + message


def test_covered_cases():
    assert covered_case(trip(3, 1, 1, 3)) is Covered.CASE1
    assert covered_case(trip(5, 1, 1, 7)) is Covered.CASE2
    assert covered_case(trip(3, 2, 1, 35)) is Covered.NONE
    assert covered_case(quin(2, 1, 1, 6)) is Covered.CASE1
    assert covered_case(quin(5, 1, 2, 7)) is Covered.NONE


def test_covered_demands_canonical():
    with pytest.raises(ParameterError, match="canonical"):
        covered_case(trip(3, 2, 1, 2))


def test_support_residues_triple_example():
    res = support_exponent_residues(trip(3, 1, 1, 3))
    assert Counter(r % 3 for r in res) == Counter({0: 2, 1: 2, 2: 2})
    assert support_residues(trip(3, 1, 1, 3)) == {0, 1, 2}


def test_support_residues_5115():
    want = {(m * (5 * m + 1) // 2) % 5 for m in range(10)}
    assert support_residues(trip(5, 1, 1, 5)) == want


def test_support_residues_quintuple_distinct_for_covered():
    pp = quin(2, 1, 1, 6)
    res = support_exponent_residues(pp)
    assert len(set(res)) == pp.n


def test_sign_report_json_schema():
    rep = scan(trip(3, 1, 1, 3), 120)
    doc = rep.to_json_dict()
    assert list(doc) == ["scheme", "ap", "B", "c", "n", "order", "covered", "support", "violations"]
    assert doc["scheme"] == "triple"
    assert doc["covered"] == "case1"
    json.dumps(doc)


def test_violations_serialize_as_strings():
    # craft a report with a fake violation to pin the wire format
    from charfactor.scanner import SignReport, SignViolation

    rep = SignReport(trip(3, 1, 1, 3), 10, Covered.CASE1, [0], [SignViolation(2, -(10**25), 10**25)])
    doc = rep.to_json_dict()
    assert doc["violations"] == [{"j": 2, "lo": str(-(10**25)), "hi": str(10**25)}]


def test_iter_canonical_quadruples_filters():
    quads = list(iter_canonical_quadruples(Scheme.TRIPLE, 15))
    assert all(q.is_canonical for q in quads)
    assert all(q.a_prime % 2 == 1 and q.c % 2 == 1 for q in quads)
    assert all(q.a_prime * q.B * q.n <= 15 for q in quads)
    assert trip(3, 1, 1, 3) in quads
    quads = list(iter_canonical_quadruples(Scheme.QUINTUPLE, 10))
    assert all(q.a_prime % 3 != 0 for q in quads)
    assert quin(2, 1, 1, 3) in quads


def test_uncovered_quadruples_yield_counterexample_candidates():
    # Independently verified with naive product expansions: the sign pattern
    # at distance n breaks on these non-covered streams.  Covered quadruples
    # must stay clean (enforced by the acceptance sweep); violations here are
    # reportable findings, not failures.
    from charfactor.scanner import SignViolation

    rep = scan(quin(2, 1, 1, 10), 100)
    assert rep.covered is Covered.NONE
    assert SignViolation(65, 1, -1) in rep.violations

    rep = scan(trip(3, 1, 1, 10), 100)  # the same stream via the triple route
    assert rep.covered is Covered.NONE
    assert SignViolation(65, 1, -1) in rep.violations

    rep = scan(quin(4, 1, 3, 5), 100)
    assert rep.covered is Covered.NONE
    assert SignViolation(32, -1, 1) in rep.violations


def test_phi_nonnegative_when_n_divides_everything():
    # canonical quadruples with n = 1 stay nonnegative (full telescoping)
    for pp in iter_canonical_quadruples(Scheme.TRIPLE, 30):
        if pp.n == 1:
            assert min(phi_series(pp, 200).coeffs) >= 0


def test_violations_are_every_strict_sign_change_at_distance_n():
    from charfactor.scanner import SignViolation

    found = 0
    for scheme, stream in ((Scheme.TRIPLE, phi_series), (Scheme.QUINTUPLE, psi_series)):
        for pp in iter_canonical_quadruples(scheme, 24):
            for order in (0, pp.n - 1, pp.n, 150):
                coeffs = stream(pp, order).coeffs
                want = [
                    SignViolation(j, coeffs[j], coeffs[j + pp.n])
                    for j in range(order - pp.n + 1)
                    if coeffs[j] * coeffs[j + pp.n] < 0
                ]
                assert scan(pp, order).violations == want
                found += len(want)
    assert found > 0


def _psi_coefficient(ap, B, c, n, k, p):
    """Coefficient k of the plain quintuple product over (q^n;q^n), with p the partition counts.

    The product is the theta sum sum_j (u^{-3j} - u^{3j+1}) v^{j(3j+1)/2},
    u = q^{Bc}, v = q^{2Ba'}, and each term at exponent e <= k adds p((k - e)/n)
    when n divides k - e.
    """
    total = 0
    reach = math.isqrt(k) + 2
    for j in range(-reach, reach + 1):
        base = B * ap * j * (3 * j + 1)
        for e, s in ((base - 3 * B * c * j, 1), (base + B * c * (3 * j + 1), -1)):
            if 0 <= e <= k and (k - e) % n == 0:
                total += s * p[(k - e) // n]
    return total


def test_psi_coefficient_oracle_is_the_quintuple_product():
    ap, B, c, n, order = 5, 1, 3, 11, 80
    first = naive_pochhammer([(1, B * c), (1, B * (2 * ap - c)), (1, 2 * B * ap)], (1, 2 * B * ap), order)
    second = naive_pochhammer([(1, 2 * B * (ap + c)), (1, 2 * B * (ap - c))], (1, 4 * B * ap), order)
    want = brute_convolve(brute_convolve(first, second, order + 1), euler_power_oracle(n, order), order + 1)
    p = partition_counts(order // n)
    assert [_psi_coefficient(ap, B, c, n, k, p) for k in range(order + 1)] == want


#: quintuple quadruples (a', B, c, n), clean at N = 1000, and their first violation j
DEEP_COUNTEREXAMPLES = [
    ((5, 1, 3, 11), 992), ((2, 1, 1, 26), 1184), ((8, 1, 1, 7), 1323),
    ((4, 1, 1, 11), 1557), ((2, 1, 1, 28), 1604), ((4, 1, 3, 15), 2508),
    ((4, 1, 3, 14), 2646), ((5, 1, 4, 11), 2829), ((4, 1, 3, 13), 3075),
    ((4, 1, 1, 15), 3136), ((2, 1, 1, 30), 5017),
]


@pytest.mark.parametrize("quad, j", DEEP_COUNTEREXAMPLES)
def test_deep_quintuple_counterexamples(quad, j):
    ap, B, c, n = quad
    rep = scan(quin(*quad), j + n + 5)
    assert rep.covered is Covered.NONE
    first = rep.violations[0]
    assert first.j == j
    p = partition_counts((j + n) // n)
    assert (first.lo, first.hi) == (_psi_coefficient(ap, B, c, n, j, p), _psi_coefficient(ap, B, c, n, j + n, p))
    assert first.lo * first.hi < 0
