"""Command-line front end.

Subcommands: classify, construct, reidemeister, oracle, verify, validate.
Each `_cmd_*` handler returns (exit code, JSON payload, text lines), and
`main` writes the payload under `--format json` and the lines otherwise.
Output is deterministic (no timestamps); numbers print in decimal and the
infinite count prints as the literal `infinite`.

Exit codes: 0 definite success, 1 input error, 2 property violation,
3 inconclusive (unknown Reidemeister number).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import fileformat
from .modular import bounded_message
from .reidemeister import (
    classify_r_infinity,
    finite_reidemeister_automorphism,
    reidemeister_number,
    render_count,
    replay_certificate,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_UNKNOWN = 3


def _default_automorphism_path(n: int, k: int) -> str:
    return f"automorphism-n{n}-k{k}.json"


def _load_automorphism(path: str):
    return fileformat.automorphism_from_dict(fileformat.load(path))


# -- classify / construct -------------------------------------------------------


def _cmd_classify(args):
    verdict = classify_r_infinity(args.n, args.k)
    path = None
    if not verdict.always_infinite and not args.no_write:
        path = args.out or _default_automorphism_path(args.n, args.k)
        fileformat.save(path, fileformat.automorphism_to_dict(verdict.automorphism))
    payload = {
        "command": "classify",
        "modulus": verdict.modulus,
        "rank": verdict.rank,
        "always_infinite": verdict.always_infinite,
        "reason": verdict.reason,
        "reidemeister": verdict.reidemeister,
        "automorphism_file": path,
    }
    group = f"Z_{verdict.modulus} wr Z^{verdict.rank}"
    if verdict.always_infinite:
        lines = [f"{group}: R-infinity ({verdict.reason})"]
    else:
        lines = [f"{group}: admits finite, R = {verdict.reidemeister}"]
    if path is not None:
        lines.append(f"automorphism file: {path}")
    return EXIT_OK, payload, lines


def _cmd_construct(args):
    aut = finite_reidemeister_automorphism(args.n, args.k)
    result = reidemeister_number(aut)
    path = args.out or _default_automorphism_path(args.n, args.k)
    fileformat.save(path, fileformat.automorphism_to_dict(aut))
    payload = {
        "command": "construct",
        "modulus": args.n,
        "rank": args.k,
        "reidemeister": result.describe(),
        "automorphism_file": path,
    }
    return EXIT_OK, payload, [
        f"Z_{args.n} wr Z^{args.k}: constructed automorphism, R = {result.describe()}",
        f"automorphism file: {path}",
    ]


# -- reidemeister ----------------------------------------------------------------


def _cmd_reidemeister(args):
    aut = _load_automorphism(args.file)
    result = reidemeister_number(aut)
    status = "skipped" if result.route == "lattice-infinite" else result.certificate.status
    if args.emit_certificate:
        if status == "skipped":
            print("no certificate produced (lattice quotient already infinite)", file=sys.stderr)
        else:
            cert = fileformat.certificate_to_dict(result.certificate)
            fileformat.save(args.emit_certificate, cert)
    quotient = render_count(result.quotient)
    payload = {
        "command": "reidemeister",
        "quotient": quotient,
        "certificate": status,
        "reidemeister": result.describe(),
    }
    lines = [
        f"R_quotient = {quotient}", f"certificate = {status}", f"R = {result.describe()}"
    ]
    return EXIT_UNKNOWN if result.value is None else EXIT_OK, payload, lines


# -- validate / verify -----------------------------------------------------------


def _cmd_validate(args):
    report = _load_automorphism(args.file).validate()
    flags = {
        "matrix_unimodular": report.matrix_unimodular,
        "u_is_unit": report.u_is_unit,
        "cocycle_consistent": report.cocycle_consistent,
    }
    payload = {
        "command": "validate", **flags, "failures": list(report.failures), "valid": report.ok
    }
    lines = [f"{name} = {str(flag).lower()}" for name, flag in flags.items()]
    lines += [f"failure: {failure}" for failure in report.failures]
    lines.append("valid" if report.ok else "invalid")
    return EXIT_OK if report.ok else EXIT_VIOLATION, payload, lines


def _cmd_verify(args):
    cert = fileformat.certificate_from_dict(fileformat.load(args.file))
    failures = replay_certificate(cert)
    witnesses = sorted(cert.witnesses)
    payload = {
        "command": "verify",
        "status": cert.status,
        "witnesses": [list(point) for point in witnesses],
        "failures": failures,
        "ok": not failures,
    }
    outcome = "checked" if failures else "ok"
    lines = [f"witness {point} {outcome}" for point in witnesses]
    lines += [f"problem: {failure}" for failure in failures]
    if failures:
        lines.append("certificate rejected")
    else:
        lines.append(f"certificate ok ({len(witnesses)} witnesses)")
    return EXIT_VIOLATION if failures else EXIT_OK, payload, lines


# -- oracle -----------------------------------------------------------------------


def _cmd_oracle(args):
    # imported here: `finite` loads numpy, which no other subcommand needs
    from .finite import (
        DEFAULT_BUDGET, ORACLE_CHECKS, FiniteWreathGroup, run_checks, zero_cocycle_automorphisms
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
            message = "divisor {} must be a nontrivial divisor of {}"
            raise ValueError(bounded_message(message, args.divisor, args.n))

    group = FiniteWreathGroup(args.n, args.m, args.k, budget=budget)
    if args.aut:
        sources = [_load_automorphism(args.aut)]
    else:
        sources = zero_cocycle_automorphisms(args.n, args.k, args.m)
    results = list(run_checks(group, sources, checks, args.divisor))

    passed = sum(1 for r in results if r.passed)
    failed = len(results) - passed
    payload = {
        "command": "oracle",
        "modulus": args.n,
        "box": args.m,
        "rank": args.k,
        "checks": [r.to_dict() for r in results],
        "pass": failed == 0,
    }
    lines = [r.line() for r in results] + [f"oracle: {passed} pass, {failed} fail"]
    return EXIT_OK if failed == 0 else EXIT_VIOLATION, payload, lines


# -- parser -----------------------------------------------------------------------


def _error_line(message) -> str:
    """`error: message` and a newline, under 200 bytes in UTF-8: a longer line is cut
    to its first 195 bytes, never inside a character, and ends in `...`."""
    line = f"error: {message}"
    data = line.encode("utf-8", "backslashreplace")  # as stderr writes a lone surrogate
    if len(data) <= 198:
        return f"{line}\n"
    return data[:195].decode("utf-8", "ignore") + "...\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """One `error:` line, as for every other input error: no usage block."""
        self.exit(2, _error_line(message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        code, payload, lines = args.func(args)
        text = "".join(f"{line}\n" for line in lines)
        sys.stdout.write(fileformat.dumps(payload) if args.format == "json" else text)
        return code
    except (ValueError, OSError) as exc:  # every bad-input error is a ValueError
        sys.stderr.write(_error_line(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
