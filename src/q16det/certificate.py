"""Certificate documents: the flat JSON form of a witness certificate, its
loader, and the check that re-verifies a loaded one.

A document is one JSON object, as :meth:`CertificateDocument.to_json_dict`
writes it: ``format`` (``"q16det-certificate"``), ``tool``, the target
``n``, the coefficient halves ``f`` and ``g`` (lists of 8), the factored
terms ``A``, ``B``, ``C``, ``D`` and ``X``, ``Y`` (z = X + Y*sqrt(2)), the
construction ``trace`` and the ``verified`` flag.  Every integer is a
decimal string, so consumers are safe from 64-bit overflow.

Every integer, in a document and on the command line, is read by one
grammar, ``-?[0-9]+``: ASCII digits after an optional minus, leading zeros
allowed.  :func:`_decimal` applies it and raises the error type its caller
names, so the loader and the command line print the same messages.

:func:`verify_document` applies the rule every certificate is made under,
:func:`q16det.core.certificate_terms`: the literal 16x16 determinant of
(f, g) and A*B*C**2*D**2 both equal ``n``.  Re-verification needs nothing
beyond the document.

This module imports nothing from the library but :mod:`q16det.core`,
:mod:`q16det.errors`, :mod:`q16det.group_algebra` and the package
``__version__``, and a test checks that: checking a document loads those,
:mod:`q16det.kernel` (through ``group_algebra``), and no ``argparse``.
"""

import re
import sys
from typing import NamedTuple

from . import __version__, core
from .errors import BadInput, InternalInconsistency
from .group_algebra import GroupRingElement

_FORMAT = "q16det-certificate"
_REQUIRED_FIELDS = ("n", "f", "g", "A", "B", "C", "D", "X", "Y", "verified")
_TOOL = f"q16det {__version__}"


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
            "f": list(map(str, self.f)),
            "g": list(map(str, self.g)),
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


def _decimal(text, error: type[Exception], name: str = "") -> int:
    """The integer ``text`` spells in the one grammar of the command line
    and the certificate loader, ``-?[0-9]+``.  Anything else, a non-string,
    or more digits than the interpreter converts, raises ``error`` with a
    message that starts with ``name``."""
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


def certificate_document(cert) -> CertificateDocument:
    """The document of a :class:`q16det.witness.WitnessCertificate`."""
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
        tool=_TOOL,
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
