"""Command-line front end.

Subcommands: classify, construct, reidemeister, oracle, verify, validate.
Each `_cmd_*` handler returns (exit code, JSON payload, text lines), and
`main` writes the payload under `--format json` and the lines otherwise.
Output is deterministic (no timestamps); numbers print in decimal and the
infinite count prints as the literal `infinite`.

A cold call loads only what its subcommand runs: `main` builds that one
subcommand's parser, and each handler imports the modules it uses when it
runs.  So `classify` on an R-infinity pair loads `group` and `modular` alone,
and only `oracle` loads numpy.

Exit codes: 0 definite success, 1 input error, 2 property violation,
3 inconclusive (unknown Reidemeister number).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .group import GroupParams
from .modular import bounded_message

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_UNKNOWN = 3


# -- classify / construct -------------------------------------------------------


def _finite_witness(args, write: bool):
    """Build the finite-R witness of (n, k), certify it and, when `write`, save it to
    `--out` or automorphism-n<N>-k<K>.json: returns the result and the path, or None."""
    from . import fileformat, reidemeister

    aut = reidemeister.finite_reidemeister_automorphism(args.n, args.k)
    result = reidemeister.reidemeister_number(aut)
    if result.route != "template":
        raise AssertionError("constructed automorphism failed to certify a finite count")
    path = None
    if write:
        path = args.out or f"automorphism-n{args.n}-k{args.k}.json"
        fileformat.save(path, fileformat.automorphism_to_dict(aut))
    return result, path


def _cmd_classify(args):
    group = GroupParams(args.n, args.k)
    reason = group.r_infinity_reason()
    count = path = None
    if reason:
        lines = [f"{group}: R-infinity ({reason})"]
    else:
        result, path = _finite_witness(args, not args.no_write)
        count = result.value
        lines = [f"{group}: admits finite, R = {count}"]
        if path:
            lines.append(f"automorphism file: {path}")
    payload = {
        "command": "classify",
        "modulus": args.n,
        "rank": args.k,
        "always_infinite": reason is not None,
        "reason": reason,
        "reidemeister": count,
        "automorphism_file": path,
    }
    return EXIT_OK, payload, lines


def _cmd_construct(args):
    result, path = _finite_witness(args, True)
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
    from . import fileformat, reidemeister

    aut = fileformat.automorphism_from_dict(fileformat.load(args.file))
    result = reidemeister.reidemeister_number(aut)
    status = "skipped" if result.route == "lattice-infinite" else result.certificate.status
    if args.emit_certificate:
        if status == "skipped":
            print("no certificate produced (lattice quotient already infinite)", file=sys.stderr)
        else:
            cert = fileformat.certificate_to_dict(result.certificate)
            fileformat.save(args.emit_certificate, cert)
    quotient = reidemeister.render_count(result.quotient)
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
    from . import fileformat

    report = fileformat.automorphism_from_dict(fileformat.load(args.file)).validate()
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
    from . import fileformat, reidemeister

    cert = fileformat.certificate_from_dict(fileformat.load(args.file))
    failures = reidemeister.replay_certificate(cert)
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
    from .finite import (
        DEFAULT_BUDGET,
        ORACLE_CHECKS,
        FiniteWreathGroup,
        check_catalog_budget,
        run_checks,
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
            message = "divisor {} must be a nontrivial divisor of {}"
            raise ValueError(bounded_message(message, args.divisor, args.n))

    group = FiniteWreathGroup(args.n, args.m, args.k, budget=budget)
    if args.aut:
        from . import fileformat

        sources = [fileformat.automorphism_from_dict(fileformat.load(args.aut))]
    else:
        check_catalog_budget(group, budget)
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


# name: (handler, summary, arguments); every subcommand also takes --format
_COMMANDS = {
    "classify": (_cmd_classify, "decide the R-infinity property for (n, k)", (
        ("n", {"type": int}),
        ("k", {"type": int}),
        ("--out", {"help": "path for the emitted automorphism file"}),
        ("--no-write", {"action": "store_true", "help": "do not write the automorphism file"}),
    )),
    "construct": (_cmd_construct, "build a finite-R automorphism and write it", (
        ("n", {"type": int}),
        ("k", {"type": int}),
        ("--out", {"help": "output path (default automorphism-n<N>-k<K>.json)"}),
    )),
    "reidemeister": (_cmd_reidemeister, "compute R for an automorphism file", (
        ("file", {}),
        ("--emit-certificate", {"metavar": "PATH"}),
    )),
    "oracle": (_cmd_oracle, "brute-force checks on a finite model", (
        ("n", {"type": int}),
        ("m", {"type": int}),
        ("k", {"type": int}),
        ("--check", {"default": "tbft", "help": "comma list: tbft,shift,projection,restriction"}),
        ("--divisor", {"type": int, "help": "small modulus for projection checks"}),
        ("--budget", {"type": int}),
        ("--aut", {"help": "automorphism file to descend instead of the catalog"}),
    )),
    "verify": (_cmd_verify, "replay a surjectivity certificate file", (("file", {}),)),
    "validate": (_cmd_validate, "validate an automorphism file", (("file", {}),)),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    func, _, arguments = _COMMANDS[name]
    parser.set_defaults(func=func)
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, for argv that names no subcommand."""
    parser = _Parser(
        prog="lamptwist",
        description="Exact Reidemeister-class computations in Z_n wr Z^k",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, summary, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=summary), name)
    return parser


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, built without the others: it prints the help and
    the errors that `build_parser()`'s subparser of that name prints."""
    return _add_arguments(_Parser(prog=f"lamptwist {name}"), name)


def main(argv=None) -> int:
    """Run one call and return its exit code.

    The call is parsed once, by the parser of the subcommand that argv[0]
    names, built without the others; argv that names none (empty, a help
    flag, a typo) goes to the top-level parser, which prints the help or the
    usage error.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in _COMMANDS:
            args = command_parser(argv[0]).parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        code, payload, lines = args.func(args)
        if args.format == "json":
            from . import fileformat

            sys.stdout.write(fileformat.dumps(payload))
        else:
            sys.stdout.write("".join(f"{line}\n" for line in lines))
        return code
    except (ValueError, OSError) as exc:  # every bad-input error is a ValueError
        sys.stderr.write(_error_line(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
