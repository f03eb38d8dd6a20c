"""Command-line interface.

Subcommands: classify, witness, verify, scan, crosscheck, audit.  Exit
codes are stable: 0 success/achievable, 1 not achievable or a failed
check, 2 usage error, 3 budget exceeded.  A library error that escapes a
command (a ``Q16DetError`` or ``RuntimeError``) prints one
``q16det: <Type>: <message>`` line to stderr and exits 1.  Output cut
short by a closed pipe exits 1 with nothing on stderr.

Every integer, on the command line and in a certificate document, is read
by one grammar, ``-?[0-9]+``: ASCII digits after an optional minus, leading
zeros allowed.  Any other spelling on the command line (``+9``, ``1_001``,
non-ASCII digits, a space, an empty item in a comma list, or ``-1_001``:
a minus makes a token an option only before a letter or a second minus)
is a usage error: one ``q16det <command>: error: ...`` line on stderr,
exit 2.  The grammar, the certificate document format that ``witness``
writes and its re-verification live in :mod:`q16det.certificate`, which
loads without this module.

Machine output (--json) is one JSON object per line.  ``witness``,
``verify`` and ``classify`` write every integer as a decimal string, so
consumers are safe from 64-bit overflow.  The reports write some integers
as JSON numbers, of any size:

* ``scan``: ``support``, ``total``, ``workers``, ``zero``, ``even``,
  ``even_mult_1024``, ``odd``, the counts in ``odd_mod8`` (keyed by the
  residue) and ``five_mod8_values`` are numbers; ``sample`` and each
  violation's ``value`` are decimal strings;
* ``crosscheck``: ``count``, ``height``, ``seed`` and ``mismatches`` are
  numbers;
* ``audit``: ``count``, ``seed``, ``height``, ``audited`` and ``skipped``
  are numbers.

``elapsed_s`` is a JSON float.
"""

import argparse
import json
import os
import sys

from . import __version__, analysis, core
from .certificate import _DECIMAL, _decimal, certificate_document
from .classifier import Classification, classify, classify_and_witness
from .errors import BudgetExceeded, MismatchFound, Q16DetError

# Not called here; perfbench's certify worker and probe call these on cli.
from .certificate import CertificateDocument, verify_document  # noqa: F401

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _poly_str(coeffs) -> str:
    terms = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        if j == 0:
            terms.append(str(c))
            continue
        xj = "x" if j == 1 else f"x^{j}"
        if c == 1:
            terms.append(xj)
        elif c == -1:
            terms.append(f"-{xj}")
        else:
            terms.append(f"{c}{xj}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _emit(doc: dict, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, separators=(",", ":")))
    else:
        for line in human_lines:
            print(line)


def _write_out(out_dir: str | None, name: str, doc: dict) -> None:
    if out_dir is None:
        return
    path = os.path.join(out_dir, name)
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(doc, indent=2) + "\n")
    except OSError as exc:
        print(f"q16det: cannot write {path}: {exc.strerror}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _integer(text: str) -> int:
    """argparse type: a decimal integer."""
    return _decimal(text, argparse.ArgumentTypeError)


def _int_at_least(low: int):
    """argparse type: a decimal integer no smaller than ``low``."""

    def parse(text: str) -> int:
        n = _integer(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n

    return parse


def _int_list(expected: str, count: int | None = None):
    """argparse type: decimal integers joined by single commas, with no
    spaces and no empty items; exactly ``count`` of them if it is given."""

    def parse(text: str) -> list[int]:
        try:
            values = [_integer(item) for item in text.split(",")]
        except argparse.ArgumentTypeError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {len(values)}")
        return values

    return parse


def _cmd_classify(args) -> int:
    rc = EXIT_OK
    for n in args.n:
        c = classify(n)
        doc = _classification_dict(c)
        if c.achievable:
            human = [f"{n}: achievable ({doc['recipe']})"]
        else:
            human = [f"{n}: not achievable ({c.reason.value})"]
            rc = EXIT_FAIL
        _emit(doc, args.json, human)
    return rc


def _classification_dict(c: Classification) -> dict:
    doc: dict = {"n": str(c.n), "achievable": c.achievable}
    if c.recipe is not None:
        doc["recipe"] = type(c.recipe).__name__ + _recipe_args(c)
    else:
        doc["reason"] = c.reason.value
    return doc


def _recipe_args(c: Classification) -> str:
    fields = c.recipe._asdict()
    if not fields:
        return ""
    return "(" + ", ".join(f"{k}={v}" for k, v in fields.items()) + ")"


def _cmd_witness(args) -> int:
    rc = EXIT_OK
    for n in args.n:
        result = classify_and_witness(n)
        if isinstance(result, Classification):
            print(f"{n}: not achievable ({result.reason.value})", file=sys.stderr)
            rc = EXIT_FAIL
            continue
        doc = certificate_document(result).to_json_dict()
        human = [
            f"n = {n}",
            f"  f = {_poly_str(result.element.a)}",
            f"  g = {_poly_str(result.element.b)}",
            f"  A={result.factored.A} B={result.factored.B} "
            f"C={result.factored.C} D={result.factored.D} "
            f"(z = {result.factored.z.x} + {result.factored.z.y}*sqrt2)",
            f"  verified: determinant = {n}",
        ]
        _emit(doc, args.json, human)
        _write_out(args.output_dir, f"witness_{n}.json", doc)
    return rc


def _cmd_verify(args) -> int:
    a, b = args.coeffs[:8], args.coeffs[8:]
    det = core.group_det(a, b)
    A, B, C, X, Y = core.factored_terms(a, b)
    D = core.norm_of_sum(X, Y)
    fd = core.factored_product(A, B, C, D)
    agree = det == fd
    doc = {
        "f": [str(c) for c in a],
        "g": [str(c) for c in b],
        "direct_determinant": str(det),
        "A": str(A),
        "B": str(B),
        "C": str(C),
        "D": str(D),
        "X": str(X),
        "Y": str(Y),
        "factored_determinant": str(fd),
        "agree": agree,
    }
    human = [
        f"f = {_poly_str(a)}",
        f"g = {_poly_str(b)}",
        f"direct determinant   = {det}",
        f"A*B*C^2*D^2          = {fd}   (A={A}, B={B}, C={C}, D={D}, X={X}, Y={Y})",
        f"paths agree: {'yes' if agree else 'NO'}",
    ]
    _emit(doc, args.json, human)
    return EXIT_OK if agree else EXIT_FAIL


def _cmd_scan(args) -> int:
    try:
        report = analysis.exhaustive_scan(
            support=args.support,
            workers=args.workers,
            budget=args.limit,
            direct=args.direct,
        )
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    doc = report.to_dict()
    human = [
        f"support {list(report.support)}: scanned {report.total} elements "
        f"({report.lane} lane, {report.workers} worker(s), "
        f"{report.elapsed_s:.2f}s)",
        f"  zero: {report.zero}  even: {report.even} "
        f"(multiples of 2^10: {report.even_mult_1024})  odd: {report.odd}",
        f"  odd residues mod 8: {report.odd_mod8}",
        f"  distinct values 5 mod 8 checked against classifier: "
        f"{report.five_mod8_values}",
        f"  violations: {len(report.violations)}",
    ]
    _emit(doc, args.json, human)
    _write_out(args.output_dir, "scan_report.json", doc)
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_crosscheck(args) -> int:
    try:
        report = analysis.random_crosscheck(args.count, args.height, args.seed)
    except MismatchFound as exc:
        report = exc.report
    human = [
        f"crosscheck: {report.count} random elements, height {report.height}, "
        f"seed {report.seed}: {report.mismatches} mismatches "
        f"({report.lane} lane, {report.elapsed_s:.2f}s)"
    ]
    if report.detail:
        human.append(f"  {report.detail}")
    _emit(report.to_dict(), args.json, human)
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_audit(args) -> int:
    report = analysis.run_parity_audits(args.count, args.seed, args.height)
    doc = report.to_dict()
    human = [
        f"parity audit: {report.audited} normalized elements "
        f"(skipped {report.skipped} outside the residue class), "
        f"failures: {len(report.failures)} ({report.elapsed_s:.2f}s)"
    ]
    _emit(doc, args.json, human)
    return EXIT_OK if report.ok else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line, exit 2."""

    def _parse_optional(self, arg_string):
        # Options are spelled -x or --name.  Any other token that starts
        # with a minus ("-7", "-1_001", "-+9") is an argument for the
        # integer grammar to judge; argparse alone would take all but
        # -[0-9]+ for an unknown option.
        second = arg_string[1:2]
        if arg_string[:1] == "-" and not (second.isalpha() or second == "-"):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="q16det",
        description=(
            "Exact integer group determinants of the order-16 dicyclic group: "
            "classify target values, build verified witness certificates, "
            "verify coefficient vectors, and run exhaustive/random checks."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"q16det {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide whether n is an achievable value")
    p.add_argument("n", type=_integer, nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("witness", help="build a verified witness certificate for n")
    p.add_argument("n", type=_integer, nargs="+")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output-dir", default=None, help="also write witness_<n>.json here")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="verify both determinant paths on 16 coefficients")
    p.add_argument(
        "--coeffs",
        type=_int_list("16 comma-separated integers a0..a7,b0..b7", 16),
        required=True,
        metavar="a0,..,a7,b0,..,b7",
        help=f"16 integers, each {_DECIMAL.pattern}, "
        "joined by single commas without spaces",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="exhaustively scan a coefficient support")
    p.add_argument(
        "--support",
        type=_int_list("comma-separated integers v1,v2,..."),
        default=[0, 1],
        metavar="v1,v2,...",
        help=f"coefficient values, each {_DECIMAL.pattern}, "
        "joined by single commas without spaces",
    )
    p.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=1,
        help="worker processes, capped at the CPUs available; "
        "the report is the same for any value",
    )
    p.add_argument(
        "--limit",
        type=_int_at_least(1),
        default=analysis.DEFAULT_SCAN_BUDGET,
        help="refuse scans larger than this many elements (exit 3)",
    )
    p.add_argument(
        "--direct",
        action="store_true",
        help="also check each factored value against the literal 16x16 group "
        "determinant, evaluated once per pair of half-classes",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--output-dir", default=None, help="also write scan_report.json here")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("crosscheck", help="random direct-vs-factored agreement check")
    p.add_argument("--count", type=_int_at_least(0), default=100_000)
    p.add_argument("--height", type=_int_at_least(0), default=9)
    p.add_argument("--seed", type=_integer, default=42)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("audit", help="residue/parity audit of random normalized pairs")
    p.add_argument("--count", type=_int_at_least(0), default=10_000)
    p.add_argument("--seed", type=_integer, default=1)
    p.add_argument("--height", type=_int_at_least(1), default=9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Parse and print integers of any length: the interpreter's default
    # refuses decimal strings over 4,300 digits.  Every input comes from
    # the command line, which the OS bounds.  The caller's limit comes
    # back on the way out, usage errors included.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(args) -> int:
    out_dir = getattr(args, "output_dir", None)
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            print(
                f"q16det: cannot use --output-dir {out_dir}: {exc.strerror}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # The reader closed stdout (say, ``| head -1``).  Point fd 1 at
        # devnull so that the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except (Q16DetError, RuntimeError) as exc:
        print(f"q16det: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
