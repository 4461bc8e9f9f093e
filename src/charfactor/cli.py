"""Command-line front end: verification, enumeration, scanning, self-test.

Every command is deterministic for fixed flags; ``--json`` switches from the
human-readable tables to the machine-readable certificate/report schemas.
Exit codes: 0 = verified / no violations, 1 = mismatch or violation found
(output still emitted), 2 = invalid parameters or flags.

Sweeps (``verify --sweep``, ``scan --sweep``) iterate every valid instance
below a size bound in the calling process and emit results in canonical
instance order; to use more CPUs, run separate sweeps per ``--kind`` or
``--scheme``.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, product

from . import scanner, verifier
from .minimal_model import InvalidLabel, InvalidModel
from .pairs import contributing_pairs
from .params import (
    FactorizationParams,
    ParameterError,
    ProductParams,
    Scheme,
    find_realizations,
)
from .series import NEEDS_CONSTANT_SLOT, SeriesError

_KINDS = {k.value: k for k in verifier.IdentityKind}
_SCHEMES = {"triple": Scheme.TRIPLE, "quintuple": Scheme.QUINTUPLE, "quint": Scheme.QUINTUPLE}


def _emit(payload, as_json: bool, human_lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)


def _add_tuple_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=int, help="first minimal-model index")
    sp.add_argument("--pp", type=int, help="second minimal-model index p'")
    sp.add_argument("--ap", type=int, help="modulus a'")
    sp.add_argument("--b", type=int, default=1, help="scaling factor b (default 1)")
    sp.add_argument("--bp", type=int, default=1, help="scaling factor b' (default 1)")
    sp.add_argument("--c", type=int, help="common residue c")


def _add_quadruple_flags(sp: argparse.ArgumentParser, required: bool = True) -> None:
    sp.add_argument("--ap", type=int, required=required, help="modulus a'")
    sp.add_argument("--B", type=int, default=1, help="scaling product B (default 1)")
    sp.add_argument("--c", type=int, required=required, help="common residue c")
    sp.add_argument("--n", type=int, required=required, help="character count n")


def _require_flags(args, flags) -> None:
    missing = [f for f in flags if getattr(args, f) is None]
    if missing:
        raise ParameterError("missing flags: " + ", ".join("--" + f for f in missing))


def _tuple_from_args(scheme: Scheme, args) -> FactorizationParams:
    _require_flags(args, ("p", "pp", "ap", "c"))
    return FactorizationParams(scheme, args.p, args.pp, args.ap, args.b, args.bp, args.c)


def _cert_lines(cert: verifier.IdentityCertificate):
    fp = cert.params
    yield (f"kind={cert.kind.value} p={fp.p} p'={fp.p_prime} a={fp.a} a'={fp.a_prime} "
           f"b={fp.b} b'={fp.b_prime} c={fp.c} B={fp.B} n={fp.n} order={cert.order}")
    yield "pairs: " + "; ".join(map(str, cert.pairs))
    yield f"match={cert.match} sign_variant={cert.sign_variant} first_mismatch={cert.first_mismatch}"
    yield "lhs prefix: " + " ".join(map(str, cert.lhs_prefix))
    yield "rhs prefix: " + " ".join(map(str, cert.rhs_prefix))


def _report_lines(rep: scanner.SignReport):
    pp = rep.params
    yield (f"scheme={pp.scheme.value} a'={pp.a_prime} B={pp.B} c={pp.c} n={pp.n} "
           f"order={rep.order} covered={rep.covered.value}")
    yield "support residues mod n: " + " ".join(map(str, rep.support))
    if rep.violations:
        for v in rep.violations[:20]:
            yield f"violation at j={v.j}: coeff[j]={v.lo} coeff[j+n]={v.hi}"
        if len(rep.violations) > 20:
            yield f"... {len(rep.violations) - 20} more"
    else:
        yield "no sign violations"


def _cmd_verify(args) -> int:
    kind = _KINDS[args.kind]
    if args.sweep:
        certs = [verifier.verify(kind, fp, args.order).to_json_dict()
                 for fp in verifier.iter_applicable_params(kind, args.max_pp)]
        failures = sum(not c["match"] for c in certs)
        rows = (f"p={c['p']} p'={c['pp']} a'={c['ap']} b={c['b']} b'={c['bp']} c={c['c']} "
                f"n={c['n']}: match={c['match']} variant={c['sign_variant']}" for c in certs)
        _emit({"kind": kind.value, "order": args.order, "instances": len(certs),
               "failures": failures, "certificates": certs},
              args.json, chain(rows, [f"{len(certs)} instances, {failures} failures"]))
        return 1 if failures else 0
    fp = _tuple_from_args(kind.scheme, args)
    cert = verifier.verify(kind, fp, args.order)
    _emit(cert.to_json_dict(), args.json, _cert_lines(cert))
    return 0 if cert.match else 1


def _cmd_pairs(args) -> int:
    scheme = _SCHEMES[args.scheme]
    fp = _tuple_from_args(scheme, args)
    prs = contributing_pairs(fp)
    _emit([p.to_json_dict() for p in prs], args.json, [*map(str, prs), f"count={len(prs)} (n={fp.n})"])
    return 0


def _cmd_series(args) -> int:
    pp = ProductParams(args.scheme, args.ap, args.B, args.c, args.n)
    coeffs = list(args.series(pp, args.order).coeffs)
    _emit({**pp.to_json_dict(), "order": args.order, "coeffs": [str(c) for c in coeffs]}, args.json,
          ["coefficients 0..%d:" % args.order, " ".join(map(str, coeffs))])
    return 0


def _cmd_scan(args) -> int:
    if args.sweep:
        schemes = [_SCHEMES[args.scheme]] if args.scheme else [Scheme.TRIPLE, Scheme.QUINTUPLE]
        reports = [scanner.scan(pp, args.order).to_json_dict() for scheme in schemes
                   for pp in scanner.iter_canonical_quadruples(scheme, args.max_size)]
        bad = sum(bool(r["violations"]) for r in reports)
        rows = (f"{r['scheme']} a'={r['ap']} B={r['B']} c={r['c']} n={r['n']} "
                f"covered={r['covered']}: {len(r['violations'])} violations" for r in reports)
        _emit({"order": args.order, "instances": len(reports), "with_violations": bad, "reports": reports},
              args.json, chain(rows, [f"{len(reports)} quadruples, {bad} with violations"]))
        return 1 if bad else 0
    if not args.scheme:
        raise ParameterError("missing flag: --scheme")
    _require_flags(args, ("ap", "c", "n"))
    pp = ProductParams(_SCHEMES[args.scheme], args.ap, args.B, args.c, args.n)
    rep = scanner.scan(pp, args.order)
    _emit(rep.to_json_dict(), args.json, _report_lines(rep))
    return 0 if rep.ok else 1


def _cmd_realize(args) -> int:
    pp = ProductParams(_SCHEMES[args.scheme], args.ap, args.B, args.c, args.n)
    found = find_realizations(pp, args.limit)
    _emit([fp.to_json_dict() for fp in found], args.json,
          [f"p={fp.p} p'={fp.p_prime} b={fp.b} b'={fp.b_prime}" for fp in found]
          + [f"{len(found)} realizations"])
    return 0


def _cmd_remark(args) -> int:
    ok = verifier.verify_remark_products(args.ap, args.c, args.order)
    _emit({"ap": args.ap, "c": args.c, "order": args.order, "holds": ok},
          args.json, [f"product telescopes to 1: {ok}"])
    return 0 if ok else 1


def _selftest_checks():
    from .series import (SignedMonomial, pochhammer_product, quintuple_product, quintuple_symbols, triple_product,
                         triple_symbols)

    def theta_oracles():
        # each Jacobi identity on the exponents (e_u, e_v) where all its Pochhammer factors are power series
        for name, theta_sum, symbols, grid in (
                ("triple", triple_product, triple_symbols,
                 [(eu, ev) for eu in range(5) for ev in range(max(eu, 1), 5)]),
                ("quintuple", quintuple_product, quintuple_symbols,
                 [(eu, ev) for eu in range(3) for ev in range(2 * eu + 1, 7)])):
            for (eu, ev), su, sv in product(grid, (1, -1), (1, -1)):
                u, v = SignedMonomial(su, eu), SignedMonomial(sv, ev)
                if theta_sum(u, v, 60) != pochhammer_product(symbols(u, v), 60):
                    return f"{name} product mismatch at u={u}, v={v}"
        return None

    def identity_sweeps():
        for kind in verifier.IdentityKind:
            for fp in verifier.iter_applicable_params(kind, 60):
                cert = verifier.verify(kind, fp, 80)
                if not cert.match:
                    return f"{kind.value} failed at {fp}"
                if cert.to_json_dict() != verifier.check(kind, fp, 80).to_json_dict():
                    return f"{kind.value} proof and truncated check disagree at {fp}"
        return None

    def pair_counts():
        for scheme in (Scheme.TRIPLE, Scheme.QUINTUPLE):
            for fp in verifier.iter_scheme_params(scheme, 120):
                contributing_pairs(fp)  # raises LemmaViolation on any miscount
        return None

    def sign_scan():
        rep = scanner.scan(ProductParams(Scheme.TRIPLE, 3, 1, 1, 3), 200)
        return None if rep.ok else "violations found for the (3,1,1,3) stream"

    def remark_products():
        for ap in (3, 5):
            for c in range(1, ap, 2):
                if not verifier.verify_remark_products(ap, c, 60):
                    return f"remark product failed at a'={ap}, c={c}"
        return None

    return [
        ("theta sums match product expansions", theta_oracles),
        ("proved identities agree with the truncated check", identity_sweeps),
        ("pair counts equal n", pair_counts),
        ("sign scan is clean on (3,1,1,3)", sign_scan),
        ("remark products telescope to 1", remark_products),
    ]


def _cmd_selftest(args) -> int:
    results = []
    for name, check in _selftest_checks():
        problem = check()
        results.append({"check": name, "status": "ok" if problem is None else "FAIL", "detail": problem})
    failures = sum(r["status"] == "FAIL" for r in results)
    lines = [f"{r['status']:4s} {r['check']}" + (f" ({r['detail']})" if r["detail"] else "") for r in results]
    _emit(results, args.json, lines if failures else lines + ["all self-tests passed"])
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charfactor",
        description="Exact verification of product factorizations of alternating "
                    "Virasoro character sums, plus coefficient sign scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")

    sp = sub.add_parser("verify", parents=[common], help="certify one identity instance or sweep a family")
    sp.add_argument("--kind", choices=sorted(_KINDS), default="main")
    _add_tuple_flags(sp)
    sp.add_argument("--order", type=int, default=200, help="truncation order (default 200)")
    sp.add_argument("--sweep", action="store_true", help="iterate all applicable tuples")
    sp.add_argument("--max-pp", type=int, default=200, help="sweep bound on p*p' (default 200)")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("pairs", parents=[common], help="list the contributing pairs of a tuple")
    sp.add_argument("--scheme", choices=sorted(_SCHEMES), required=True)
    _add_tuple_flags(sp)
    sp.set_defaults(fn=_cmd_pairs)

    for name, scheme, series in (("phi", Scheme.TRIPLE, scanner.phi_series),
                                 ("psi", Scheme.QUINTUPLE, scanner.psi_series)):
        sp = sub.add_parser(name, parents=[common], help=f"coefficients of the {scheme.value}-scheme product series")
        _add_quadruple_flags(sp)
        sp.add_argument("--order", type=int, default=50)
        sp.set_defaults(fn=_cmd_series, scheme=scheme, series=series)

    sp = sub.add_parser("scan", parents=[common], help="scan sign agreement at distance n")
    sp.add_argument("--scheme", choices=sorted(_SCHEMES))
    _add_quadruple_flags(sp, required=False)  # --sweep needs none of them
    sp.add_argument("--order", type=int, default=1000)
    sp.add_argument("--sweep", action="store_true", help="iterate canonical quadruples")
    sp.add_argument("--max-size", type=int, default=60, help="sweep bound on a'*B*n (default 60)")
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("realize", parents=[common], help="find full tuples realizing a quadruple")
    sp.add_argument("--scheme", choices=sorted(_SCHEMES), required=True)
    _add_quadruple_flags(sp)
    sp.add_argument("--limit", type=int, default=None)
    sp.set_defaults(fn=_cmd_realize)

    sp = sub.add_parser("remark", parents=[common], help="check the telescoping product relation")
    sp.add_argument("--ap", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("--order", type=int, default=100)
    sp.set_defaults(fn=_cmd_remark)

    sub.add_parser("selftest", parents=[common], help="run the reduced invariant sweeps").set_defaults(fn=_cmd_selftest)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "order", 0) < 0:  # before dispatch, so an empty sweep rejects it too
            raise SeriesError(NEEDS_CONSTANT_SLOT)
        return args.fn(args)
    except (ParameterError, InvalidModel, InvalidLabel, SeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
