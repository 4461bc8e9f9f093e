"""Output checks: properties every result must have, and the seeded reference sample.

Nothing here compares against a stored copy of earlier output.  Each check
follows from the mathematics (the identities are theorems, covered
quadruples are positivity theorems) or from an independent recomputation in
:mod:`reference`.
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict

import reference

PLAIN_ONE = ("verify", "main", 2, 3, 3, 1, 1, 1)  # (q, q^2, q^3; q^3) / (q; q) = 1
COUNTEREXAMPLE = ("scan", "triple", 3, 1, 1, 10)  # (q; q) / (q^10; q^10)


def expected_keys(workload) -> list:
    """The instance keys a round must enumerate, sorted, recomputed by :mod:`reference`."""
    if workload.certs:
        return sorted(("verify", kind, *rest) for kind, _, *rest in workload.certs)
    if workload.mode == "verify":
        return sorted(("verify", kind, *t, workload.order) for kind in reference.KIND_SIGNS
                      for t in reference.applicable_tuples(kind, workload.bound))
    return sorted(("scan", scheme, ap, B, c, n, workload.order) for scheme in ("triple", "quintuple")
                  for ap, B, c, n in reference.canonical_quadruples(scheme, workload.bound))


def round_problems(workload, keys: list) -> list[str]:
    """Faults of a round as a whole: missing, extra or repeated instances, or a missing anchor."""
    problems = []
    want, got = Counter(expected_keys(workload)), Counter(keys)
    if got != want:
        missing, extra = want - got, got - want
        problems.append(f"enumerated {len(keys)} instances, expected {sum(want.values())}: "
                        f"{sum(missing.values())} missing (first {min(missing, default=None)}), "
                        f"{sum(extra.values())} extra or repeated (first {min(extra, default=None)})")
    anchor = PLAIN_ONE if workload.mode == "verify" else COUNTEREXAMPLE
    if not any(key[:len(anchor)] == anchor for key in keys):
        problems.append(f"the round lacks the instance {anchor}")
    return problems


def check_round(workload, keys: list, texts: list, seed: int) -> tuple[dict[int, str], list[str]]:
    """Failed instances of one round, as {index: first failed check}, and its round problems.

    A round problem fails every instance of the round.
    """
    docs = [json.loads(t) for t in texts]
    failed: dict[int, str] = {}
    check = _check_certificate if keys and keys[0][0] == "verify" else _check_report
    for i, (key, doc) in enumerate(zip(keys, docs)):
        problem = check(key, doc)
        if problem:
            failed[i] = problem
    if keys and keys[0][0] == "verify":
        _check_variant_classes(keys, docs, failed)
    rng = random.Random(seed)
    for i in sorted(rng.sample(range(len(keys)), min(workload.ref_sample, len(keys)))):
        if i in failed:
            continue
        if keys[i][0] == "verify":
            problem = _reference_certificate(keys[i], docs[i], workload.ref_order)
        else:
            problem = _reference_report(keys[i], docs[i])
        if problem:
            failed[i] = problem
    return failed, round_problems(workload, keys)


def _check_certificate(key, d) -> str | None:
    _, kind, p, pp, ap, b, bp, c, order = key
    if (d["kind"], d["p"], d["pp"], d["ap"], d["b"], d["bp"], d["c"], d["order"]) != key[1:]:
        return "certificate parameters differ from the requested instance"
    if not d["match"] or d["first_mismatch"] is not None:
        return f"identity failed at degree {d['first_mismatch']}"
    if d["sign_variant"] not in (reference.AS_STATED, reference.SWAPPED):
        return f"unknown sign variant {d['sign_variant']!r}"
    if kind in reference.PLAIN_KINDS and d["sign_variant"] != reference.AS_STATED:
        return "a plain identity needed the swapped sign reading"
    if d["lhs_prefix"] != d["rhs_prefix"]:
        return "matching certificate with different prefixes"
    if key[:8] == PLAIN_ONE and d["lhs_prefix"] != [1] + [0] * (len(d["lhs_prefix"]) - 1):
        return "(2,3,a'=3) main is not exactly 1"
    return None


def _check_variant_classes(keys, docs, failed: dict[int, str]) -> None:
    """Each kind / a' mod 4 class must resolve to one sign reading."""
    classes = defaultdict(list)
    for i, (key, d) in enumerate(zip(keys, docs)):
        classes[(key[1], key[4] % 4)].append(i)
    for (kind, residue), members in classes.items():
        variants = {docs[i]["sign_variant"] for i in members}
        if len(variants) > 1:
            for i in members:
                failed.setdefault(i, f"{kind} with a' = {residue} mod 4 resolves to {sorted(variants)}")


def _check_report(key, d) -> str | None:
    _, scheme, ap, B, c, n, order = key
    if (d["scheme"], d["ap"], d["B"], d["c"], d["n"], d["order"]) != key[1:]:
        return "report parameters differ from the canonical quadruple"
    if d["covered"] != "none" and d["violations"]:
        return f"covered quadruple ({d['covered']}) has {len(d['violations'])} sign violations"
    for v in d["violations"]:
        if not (0 <= v["j"] <= order - n and int(v["lo"]) * int(v["hi"]) < 0):
            return f"malformed violation {v}"
    if key[:6] == COUNTEREXAMPLE and order >= 75:
        if {"j": 65, "lo": "1", "hi": "-1"} not in d["violations"]:
            return "(q;q)/(q^10;q^10) lacks +1 at q^65 against -1 at q^75"
    return None


def _reference_certificate(key, d, ref_order: int) -> str | None:
    _, kind, p, pp, ap, b, bp, c, order = key
    scheme = "triple" if kind in reference.TRIPLE_KINDS else "quintuple"
    pairs = reference.contributing_pairs(scheme, p, pp, ap, b, bp, c)
    if [(q["r"], q["s"], q["type"], q["weight"]) for q in d["pairs"]] != pairs:
        return "contributing pairs differ from the reference"
    m = min(order, ref_order)
    readings = [reference.AS_STATED] if kind in reference.PLAIN_KINDS else [reference.AS_STATED, reference.SWAPPED]
    lhs = None
    for variant in readings:
        lhs, rhs = reference.certificate_sides(kind, p, pp, ap, b, bp, c, m, variant)
        if lhs == rhs:
            break
    else:
        return f"reference finds no sign reading that holds to order {m}"
    if variant != d["sign_variant"]:
        return f"reference resolves {variant}, certificate says {d['sign_variant']}"
    k = len(d["lhs_prefix"])
    if lhs[:k] != d["lhs_prefix"] or rhs[:k] != d["rhs_prefix"]:
        return "prefixes differ from the reference"
    if key[:8] == PLAIN_ONE and lhs != [1] + [0] * m:
        return "(2,3,a'=3) main is not exactly 1 in the reference"
    return None


def _reference_report(key, d) -> str | None:
    _, scheme, ap, B, c, n, order = key
    coeffs = reference.product_side(scheme, ap, B, c, n, order)
    want = [{"j": j, "lo": str(lo), "hi": str(hi)} for j, lo, hi in reference.sign_violations(coeffs, n)]
    if d["violations"] != want:
        return "violations differ from the reference stream"
    support = set(d["support"])
    stray = [j for j, v in enumerate(coeffs) if v and j % n not in support]
    if stray:
        return f"reference coefficient at degree {stray[0]} outside the reported support"
    return None
