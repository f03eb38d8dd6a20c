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
non-ASCII digits, a space, or an empty item in a comma list) is a usage
error: one ``q16det <command>: error: ...`` line on stderr, exit 2.

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
import re
import sys
from typing import NamedTuple

from . import __version__, analysis, core, witness
from .classifier import Classification, classify, classify_and_witness
from .errors import BadInput, BudgetExceeded, InternalInconsistency, MismatchFound, Q16DetError
from .group_algebra import GroupRingElement

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_FORMAT = "q16det-certificate"
_REQUIRED_FIELDS = ("n", "f", "g", "A", "B", "C", "D", "X", "Y", "verified")


class CertificateDocument(NamedTuple):
    """Flat serialized form of a witness certificate; re-verification needs
    nothing beyond this document."""

    n: int
    f: tuple[int, ...]
    g: tuple[int, ...]
    A: int
    B: int
    C: int
    D: int
    X: int
    Y: int
    trace: dict
    verified: bool
    tool: str

    def to_json_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "tool": self.tool,
            "n": str(self.n),
            "f": [str(c) for c in self.f],
            "g": [str(c) for c in self.g],
            "A": str(self.A),
            "B": str(self.B),
            "C": str(self.C),
            "D": str(self.D),
            "X": str(self.X),
            "Y": str(self.Y),
            "trace": _jsonable(self.trace),
            "verified": self.verified,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CertificateDocument":
        """Load a document as :meth:`to_json_dict` writes it: integers as
        decimal strings, ``f`` and ``g`` as lists of 8 of them, ``trace``
        an object, ``verified`` a boolean, ``tool`` a string and ``format``
        ``"q16det-certificate"``.  Anything else raises :class:`BadInput`
        rather than being coerced, and so does a document that is not an
        object or lacks a required field; ``trace``, ``tool`` and ``format``
        may be absent."""
        if not isinstance(doc, dict):
            raise BadInput(f"a certificate must be a JSON object, got {doc!r}")
        missing = [key for key in _REQUIRED_FIELDS if key not in doc]
        if missing:
            raise BadInput(f"certificate lacks required field(s) {', '.join(missing)}")
        if not isinstance(doc["verified"], bool):
            raise BadInput(f"'verified' must be a JSON boolean, got {doc['verified']!r}")
        if doc.get("format", _FORMAT) != _FORMAT:
            raise BadInput(f"'format' must be {_FORMAT!r}, got {doc['format']!r}")
        tool = doc.get("tool", "")
        if not isinstance(tool, str):
            raise BadInput(f"'tool' must be a JSON string, got {tool!r}")
        trace = doc.get("trace", {})
        if not isinstance(trace, dict):
            raise BadInput(f"'trace' must be a JSON object, got {trace!r}")
        for key in ("f", "g"):
            if not (isinstance(doc[key], list) and len(doc[key]) == 8):
                raise BadInput(f"{key!r} must be a list of 8 decimal strings, got {doc[key]!r}")
        ints = {key: _decimal(doc[key], BadInput, f"{key!r} ") for key in "nABCDXY"}
        f, g = (tuple(_decimal(c, BadInput, f"{key!r} ") for c in doc[key]) for key in "fg")
        return cls(**ints, f=f, g=g, trace=trace, verified=doc["verified"], tool=tool)


_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(text, error=argparse.ArgumentTypeError, name: str = "") -> int:
    """The integer ``text`` spells in the one grammar of the command line
    and the certificate loader, ``-?[0-9]+``.  Anything else, a non-string,
    or more digits than the interpreter converts, raises ``error`` with a
    message that starts with ``name``: the argparse type error by default,
    so that this is an argparse ``type``."""
    if not (isinstance(text, str) and _DECIMAL.fullmatch(text)):
        raise error(f"{name}must be a decimal integer {_DECIMAL.pattern}, got {text!r}")
    try:
        return int(text)
    except ValueError as exc:  # over sys.get_int_max_str_digits()
        limit, digits = sys.get_int_max_str_digits(), len(text.lstrip("-"))
        raise error(f"{name}must have at most {limit} digits, got {digits}") from exc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj)
    return obj


def certificate_document(cert: witness.WitnessCertificate) -> CertificateDocument:
    ff = cert.factored
    return CertificateDocument(
        n=cert.n,
        f=cert.element.a,
        g=cert.element.b,
        A=ff.A,
        B=ff.B,
        C=ff.C,
        D=ff.D,
        X=ff.z.x,
        Y=ff.z.y,
        trace=cert.trace,
        verified=cert.verified,
        tool=f"q16det {__version__}",
    )


def verify_document(doc: CertificateDocument) -> bool:
    """Re-verify a loaded document from its coefficient vectors alone, by
    the rule every certificate is made under,
    :func:`q16det.core.certificate_terms`: the literal 16x16 determinant
    and A*B*C**2*D**2 both equal ``n``.  The document's A, B, C, D, X and
    Y must also be the ones the rule returns."""
    e = GroupRingElement(doc.f, doc.g)
    # ValueError: the rule's message prints the loaded trace, which may nest
    # integers past the interpreter's integer string limit.
    try:
        terms = core.certificate_terms(doc.n, e.a, e.b, doc.trace)
    except (InternalInconsistency, ValueError):
        return False
    return terms == (doc.A, doc.B, doc.C, doc.D, doc.X, doc.Y)


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


def _int_at_least(low: int):
    """argparse type: a decimal integer no smaller than ``low``."""

    def parse(text: str) -> int:
        n = _decimal(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n

    return parse


def _int_list(expected: str, count: int | None = None):
    """argparse type: decimal integers joined by single commas, with no
    spaces and no empty items; exactly ``count`` of them if it is given."""

    def parse(text: str) -> list[int]:
        try:
            values = [_decimal(item) for item in text.split(",")]
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
    e = GroupRingElement.from_coeffs(args.coeffs)
    det = core.group_det(e.a, e.b)
    A, B, C, X, Y = core.factored_terms(e.a, e.b)
    D = core.norm_of_sum(X, Y)
    fd = core.factored_product(A, B, C, D)
    agree = det == fd
    doc = {
        "f": [str(c) for c in e.a],
        "g": [str(c) for c in e.b],
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
        f"f = {_poly_str(e.a)}",
        f"g = {_poly_str(e.b)}",
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
    p.add_argument("n", type=_decimal, nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("witness", help="build a verified witness certificate for n")
    p.add_argument("n", type=_decimal, nargs="+")
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
    p.add_argument("--seed", type=_decimal, default=42)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("audit", help="residue/parity audit of random normalized pairs")
    p.add_argument("--count", type=_int_at_least(0), default=10_000)
    p.add_argument("--seed", type=_decimal, default=1)
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
