"""Command-line front end.

Subcommands: classify, construct, reidemeister, oracle, verify, validate.
Output is deterministic (no timestamps); numbers print in decimal and the
infinite count prints as the literal `infinite`.

Exit codes: 0 definite success, 1 input error, 2 property violation,
3 inconclusive (unknown Reidemeister number).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import fileformat
from .automorphism import (
    InvalidAutomorphism,
    automorphism_from_dict,
    automorphism_to_dict,
)
from .reidemeister import (
    certificate_from_dict,
    certificate_to_dict,
    classify_r_infinity,
    finite_reidemeister_automorphism,
    reidemeister_number,
    replay_certificate,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_UNKNOWN = 3

SHIFT_SAMPLE_CAP = 200
SHIFT_SAMPLES = 25


def _default_automorphism_path(n: int, k: int) -> str:
    return f"automorphism-n{n}-k{k}.json"


def _load_automorphism(path: str):
    data = fileformat.load(path)
    return automorphism_from_dict(data)


def _print_json(payload: dict) -> None:
    sys.stdout.write(fileformat.dumps(payload))


# -- classify / construct -------------------------------------------------------


def _cmd_classify(args) -> int:
    verdict = classify_r_infinity(args.n, args.k)
    path = None
    if not verdict.always_infinite and not args.no_write:
        path = args.out or _default_automorphism_path(args.n, args.k)
        fileformat.save(path, automorphism_to_dict(verdict.automorphism))
    if args.format == "json":
        _print_json(
            {
                "command": "classify",
                "modulus": verdict.modulus,
                "rank": verdict.rank,
                "always_infinite": verdict.always_infinite,
                "reason": verdict.reason,
                "reidemeister": verdict.reidemeister,
                "automorphism_file": path,
            }
        )
        return EXIT_OK
    group = f"Z_{verdict.modulus} wr Z^{verdict.rank}"
    if verdict.always_infinite:
        print(f"{group}: R-infinity ({verdict.reason})")
    else:
        print(f"{group}: admits finite, R = {verdict.reidemeister}")
        if path is not None:
            print(f"automorphism file: {path}")
    return EXIT_OK


def _cmd_construct(args) -> int:
    aut = finite_reidemeister_automorphism(args.n, args.k)
    result = reidemeister_number(aut)
    path = args.out or _default_automorphism_path(args.n, args.k)
    fileformat.save(path, automorphism_to_dict(aut))
    if args.format == "json":
        _print_json(
            {
                "command": "construct",
                "modulus": args.n,
                "rank": args.k,
                "reidemeister": result.describe(),
                "automorphism_file": path,
            }
        )
        return EXIT_OK
    print(f"Z_{args.n} wr Z^{args.k}: constructed automorphism, R = {result.describe()}")
    print(f"automorphism file: {path}")
    return EXIT_OK


# -- reidemeister ----------------------------------------------------------------


def _cmd_reidemeister(args) -> int:
    aut = _load_automorphism(args.file)
    report = aut.validate()
    if not report.ok:
        raise InvalidAutomorphism("; ".join(report.failures))
    result = reidemeister_number(aut)
    status = "skipped" if result.certificate is None else result.certificate.status
    if args.emit_certificate:
        if result.certificate is None:
            print("no certificate produced (lattice quotient already infinite)", file=sys.stderr)
        else:
            fileformat.save(args.emit_certificate, certificate_to_dict(result.certificate))
    if args.format == "json":
        _print_json(
            {
                "command": "reidemeister",
                "quotient": str(result.quotient),
                "certificate": status,
                "reidemeister": result.describe(),
            }
        )
    else:
        print(f"R_quotient = {result.quotient}")
        print(f"certificate = {status}")
        print(f"R = {result.describe()}")
    return EXIT_UNKNOWN if result.is_unknown else EXIT_OK


# -- validate / verify -----------------------------------------------------------


def _cmd_validate(args) -> int:
    data = fileformat.load(args.file)
    aut = automorphism_from_dict(data)
    report = aut.validate()
    if args.format == "json":
        _print_json(
            {
                "command": "validate",
                "matrix_unimodular": report.matrix_unimodular,
                "u_is_unit": report.u_is_unit,
                "cocycle_consistent": report.cocycle_consistent,
                "failures": list(report.failures),
                "valid": report.ok,
            }
        )
        return EXIT_OK if report.ok else EXIT_VIOLATION
    print(f"matrix_unimodular = {str(report.matrix_unimodular).lower()}")
    print(f"u_is_unit = {str(report.u_is_unit).lower()}")
    print(f"cocycle_consistent = {str(report.cocycle_consistent).lower()}")
    for failure in report.failures:
        print(f"failure: {failure}")
    print("valid" if report.ok else "invalid")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_verify(args) -> int:
    data = fileformat.load(args.file)
    cert = certificate_from_dict(data)
    failures = replay_certificate(cert)
    witnesses = sorted(cert.witnesses)
    if args.format == "json":
        _print_json(
            {
                "command": "verify",
                "status": cert.status,
                "witnesses": [list(point) for point in witnesses],
                "failures": failures,
                "ok": not failures,
            }
        )
        return EXIT_OK if not failures else EXIT_VIOLATION
    for point in witnesses:
        print(f"witness {point} ok" if not failures else f"witness {point} checked")
    for failure in failures:
        print(f"problem: {failure}")
    if failures:
        print("certificate rejected")
        return EXIT_VIOLATION
    print(f"certificate ok ({len(witnesses)} witnesses)")
    return EXIT_OK


# -- oracle -----------------------------------------------------------------------

ORACLE_CHECKS = ("tbft", "shift", "projection", "restriction")


def _shift_elements(order: int) -> list[int]:
    if order <= SHIFT_SAMPLE_CAP:
        return list(range(order))
    rng = random.Random(0x5EED)
    picked = sorted({rng.randrange(order) for _ in range(SHIFT_SAMPLES)})
    return picked


def _cmd_oracle(args) -> int:
    # imported here: `finite` loads numpy, which no other subcommand needs
    from .finite import (
        DEFAULT_BUDGET,
        FiniteWreathGroup,
        descend_automorphism,
        distinct_descents,
        twisted_classes,
        verify_projection,
        verify_restriction_bound,
        verify_shift_invariance,
        verify_tbft_finite,
        zero_cocycle_automorphisms,
    )

    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    checks = [c.strip() for c in args.check.split(",") if c.strip()]
    if not checks:
        raise ValueError(f"no check given; choose from {', '.join(ORACLE_CHECKS)}")
    for name in checks:
        if name not in ORACLE_CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {', '.join(ORACLE_CHECKS)}")
    if "projection" in checks and args.divisor is None:
        raise ValueError("--check projection needs --divisor")
    if args.divisor is not None:
        if not 2 <= args.divisor < args.n or args.n % args.divisor:
            raise ValueError(f"divisor {args.divisor} must be a nontrivial divisor of {args.n}")

    group = FiniteWreathGroup(args.n, args.m, args.k, budget=budget)
    if args.aut:
        sources = [_load_automorphism(args.aut)]
    else:
        sources = zero_cocycle_automorphisms(args.n, args.k, args.m)

    results = []
    try:
        for aut, fin in distinct_descents(sources, group):
            base = twisted_classes(group, fin)  # every check counts the classes of fin
            if "tbft" in checks:
                results.append(verify_tbft_finite(group, fin, base))
            if "shift" in checks:
                results.extend(
                    verify_shift_invariance(group, fin, _shift_elements(group.order), base)
                )
            if "restriction" in checks:
                results.extend(verify_restriction_bound(group, fin, base))
            if "projection" in checks:
                small = FiniteWreathGroup(args.divisor, args.m, args.k, budget=budget)
                small_fin = descend_automorphism(aut.induce(args.divisor), small)
                results.extend(verify_projection(group, small, fin, small_fin, base))
    except MemoryError:
        # a raised --budget admits models whose tables outgrow memory
        raise ValueError(f"|G| = {group.order}: the finite model does not fit in memory") from None

    passed = sum(1 for r in results if r.passed)
    failed = len(results) - passed
    if args.format == "json":
        _print_json(
            {
                "command": "oracle",
                "modulus": args.n,
                "box": args.m,
                "rank": args.k,
                "checks": [r.to_dict() for r in results],
                "pass": failed == 0,
            }
        )
    else:
        for r in results:
            print(r.line())
        print(f"oracle: {passed} pass, {failed} fail")
    return EXIT_OK if failed == 0 else EXIT_VIOLATION


# -- parser -----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamptwist",
        description="Exact Reidemeister-class computations in Z_n wr Z^k",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("classify", help="decide the R-infinity property for (n, k)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--out", help="path for the emitted automorphism file")
    p.add_argument("--no-write", action="store_true", help="do not write the automorphism file")
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("construct", help="build a finite-R automorphism and write it")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--out", help="output path (default automorphism-n<N>-k<K>.json)")
    add_format(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("reidemeister", help="compute R for an automorphism file")
    p.add_argument("file")
    p.add_argument("--emit-certificate", metavar="PATH")
    add_format(p)
    p.set_defaults(func=_cmd_reidemeister)

    p = sub.add_parser("oracle", help="brute-force checks on a finite model")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--check", default="tbft", help="comma list: tbft,shift,projection,restriction")
    p.add_argument("--divisor", type=int, help="small modulus for projection checks")
    p.add_argument("--budget", type=int)
    p.add_argument("--aut", help="automorphism file to descend instead of the catalog")
    add_format(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="replay a surjectivity certificate file")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("validate", help="validate an automorphism file")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every bad-input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
