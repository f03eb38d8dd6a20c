import contextlib
import io
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q16det import analysis, cli, core, kernel
from q16det.cli import (
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    CertificateDocument,
    certificate_document,
    main,
    verify_document,
)
from q16det.errors import BadInput, InternalInconsistency

import golden_outputs
from q16det.group_algebra import GroupRingElement, direct_determinant
from q16det.witness import witness_even, witness_odd_5mod8


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no integer string limit"
)


class TestClassifyCommand:
    def test_achievable(self, capsys):
        rc, out, _ = run(capsys, "classify", "245")
        assert rc == EXIT_OK and "achievable" in out and "p=7" in out

    def test_not_achievable(self, capsys):
        rc, out, _ = run(capsys, "classify", "512")
        assert rc == EXIT_FAIL and "EvenNotMultipleOf1024" in out

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "classify", "17", "--json")
        doc = json.loads(out)
        assert doc["achievable"] is True and doc["n"] == "17"

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "abc"])
        assert exc.value.code == 2

    def test_negative_argument(self, capsys):
        rc, out, _ = run(capsys, "classify", "-7")
        assert rc == EXIT_OK and "achievable" in out

    def test_recipe_strings(self, capsys):
        rc, out, _ = run(capsys, "classify", "0", "17", "245", "512", "--json")
        assert rc == EXIT_FAIL
        assert out.splitlines() == [
            '{"n":"0","achievable":true,"recipe":"EvenFamily(t=0)"}',
            '{"n":"17","achievable":true,"recipe":"Odd1Mod8"}',
            '{"n":"245","achievable":true,"recipe":"Odd5Mod8(p=7, m=5)"}',
            '{"n":"512","achievable":false,"reason":"EvenNotMultipleOf1024"}',
        ]


class TestWitnessCommand:
    def test_witness_17_human(self, capsys):
        rc, out, _ = run(capsys, "witness", "17")
        assert rc == EXIT_OK
        assert "2 + x + x^2" in out and "verified" in out

    def test_witness_245_json_golden(self, capsys):
        rc, out, _ = run(capsys, "witness", "245", "--json")
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["f"] == ["0", "1", "1", "1", "0", "0", "0", "0"]
        assert doc["g"] == ["0", "1", "1", "1", "1", "0", "-1", "-1"]
        assert doc["verified"] is True

    def test_not_achievable_exit_1(self, capsys):
        rc, _, err = run(capsys, "witness", "12")
        assert rc == EXIT_FAIL and "not achievable" in err

    def test_batch_one_json_per_line(self, capsys):
        rc, out, _ = run(capsys, "witness", "17", "1024", "--json")
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [d["n"] for d in lines] == ["17", "1024"]

    def test_output_dir(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "witness", "245", "--json", "--output-dir", str(tmp_path))
        saved = json.loads((tmp_path / "witness_245.json").read_text())
        assert verify_document(CertificateDocument.from_json_dict(saved))


    def test_bad_output_dir_exit_2(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc, _, err = run(capsys, "witness", "1", "--output-dir", str(blocker / "x"))
        assert rc == EXIT_USAGE
        assert err.count("\n") == 1 and "--output-dir" in err

    def test_unwritable_certificate_exit_2(self, capsys, tmp_path):
        # A directory sits on the certificate's file name.
        (tmp_path / "witness_245.json").mkdir()
        code, err = usage_error(capsys, "witness", "245", "--output-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert err.count("\n") == 1
        assert err.startswith(f"q16det: cannot write {tmp_path / 'witness_245.json'}: ")


class TestVerifyCommand:
    def test_identity(self, capsys):
        rc, out, _ = run(capsys, "verify", "--coeffs", "1," + ",".join("0" * 15))
        assert rc == EXIT_OK and "agree: yes" in out

    def test_even_family(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--coeffs", "1,1,1,1,1,1,1,1,1,0,1,1,1,0,0,0", "--json"
        )
        doc = json.loads(out)
        assert rc == EXIT_OK
        assert doc["direct_determinant"] == "-3072"
        assert (doc["A"], doc["B"], doc["C"], doc["D"]) == ("48", "-4", "-2", "2")
        assert doc["agree"] is True

    def test_all_zero(self, capsys):
        rc, out, _ = run(capsys, "verify", "--coeffs", ",".join("0" * 16), "--json")
        doc = json.loads(out)
        assert rc == EXIT_OK and doc["direct_determinant"] == "0" and doc["agree"]

    def test_wrong_count_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--coeffs", "1,2,3"])
        assert exc.value.code == 2


class TestScanCommand:
    def test_binary_scan(self, capsys):
        rc, out, _ = run(capsys, "scan", "--support", "0,1", "--json")
        doc = json.loads(out)
        assert rc == EXIT_OK
        assert doc["total"] == 65536 and doc["ok"] is True
        assert doc["violations"] == []
        assert doc["lane"] == "pure"

    def test_budget_exit_3(self, capsys):
        rc, _, err = run(capsys, "scan", "--support", "0,1", "--limit", "100")
        assert rc == EXIT_BUDGET and "budget" in err

    def test_report_file(self, capsys, tmp_path):
        rc, _, _ = run(
            capsys, "scan", "--support", "0,1", "--output-dir", str(tmp_path)
        )
        doc = json.loads((tmp_path / "scan_report.json").read_text())
        assert doc["total"] == 65536

    def test_bad_output_dir_exit_2(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc, _, err = run(
            capsys, "scan", "--support", "0", "--output-dir", str(blocker / "x")
        )
        assert rc == EXIT_USAGE
        assert err.count("\n") == 1 and "--output-dir" in err

    def test_unwritable_report_exit_2(self, capsys, tmp_path):
        # A directory sits on the report's file name.
        (tmp_path / "scan_report.json").mkdir()
        code, err = usage_error(capsys, "scan", "--support", "0", "--output-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert err.count("\n") == 1
        assert err.startswith(f"q16det: cannot write {tmp_path / 'scan_report.json'}: ")

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_bad_limit_exit_2(self, capsys, limit):
        code, err = usage_error(capsys, "scan", "--support", "0,1", "--limit", limit)
        assert code == EXIT_USAGE and "--limit" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_workers_exit_2(self, capsys, workers):
        code, err = usage_error(capsys, "scan", "--support", "0,1", "--workers", workers)
        assert code == EXIT_USAGE and "--workers" in err

    @pytest.mark.parametrize("support", ["", ",1", "0,,1", "a,b"])
    def test_bad_support_exit_2(self, capsys, support):
        code, err = usage_error(capsys, "scan", f"--support={support}")
        assert code == EXIT_USAGE
        assert f"--support: expected comma-separated integers v1,v2,..., got {support!r}" in err
        assert "<lambda>" not in err

    def test_direct_disagreement_exit_1(self, capsys, monkeypatch):
        real = kernel.group_det
        monkeypatch.setattr(kernel, "group_det", lambda a, b: real(a, b) + 1)
        rc, out, _ = run(capsys, "scan", "--support", "1", "--direct", "--json")
        doc = json.loads(out)
        assert rc == EXIT_FAIL and doc["ok"] is False
        assert doc["violations"] == [
            {"value": "0", "reason": "direct and factored determinants disagree"}
        ]


class TestCrosscheckAndAudit:
    def test_crosscheck(self, capsys):
        rc, out, _ = run(
            capsys, "crosscheck", "--count", "500", "--height", "9",
            "--seed", "42", "--json",
        )
        doc = json.loads(out)
        assert rc == EXIT_OK and doc["mismatches"] == 0
        assert doc["lane"] == "pure"

    def test_crosscheck_mismatch_report(self, capsys, monkeypatch):
        factored_terms = kernel.factored_terms
        monkeypatch.setattr(
            kernel, "factored_terms", lambda a, b: (0, *factored_terms(a, b)[1:])
        )
        rc, out, _ = run(capsys, "crosscheck", "--count", "20", "--json")
        doc = json.loads(out)
        assert rc == EXIT_FAIL
        assert doc["ok"] is False and doc["mismatches"] == 1
        assert doc["detail"].startswith(f"element #{doc['count'] - 1} ")
        assert "factored 0" in doc["detail"]

    def test_crosscheck_negative_count_exit_2(self, capsys):
        code, err = usage_error(capsys, "crosscheck", "--count", "-5")
        assert code == EXIT_USAGE and "--count" in err

    def test_crosscheck_negative_height_exit_2(self, capsys):
        code, err = usage_error(capsys, "crosscheck", "--height", "-1")
        assert code == EXIT_USAGE and "--height" in err

    def test_audit_zero_height_exit_2(self, capsys):
        code, err = usage_error(capsys, "audit", "--height", "0")
        assert code == EXIT_USAGE and "--height" in err

    def test_audit(self, capsys):
        rc, out, _ = run(capsys, "audit", "--count", "300", "--seed", "1", "--json")
        doc = json.loads(out)
        assert rc == EXIT_OK and doc["failures"] == [] and doc["audited"] == 300


class TestGoldenOutputs:
    def test_every_row_replays(self, tmp_path):
        stdouts, wrong = {}, []
        for row in golden_outputs.ROWS:
            code, out, err = golden_outputs.replay(row.argv, str(tmp_path))
            stdouts[row.argv] = out
            files = tuple(
                (name, golden_outputs.digest((tmp_path / name).read_text()))
                for name, _ in row.files
            )
            if (code, golden_outputs.digest(out), golden_outputs.digest(err), files) != row[1:]:
                wrong.append(f"{' '.join(row.argv)[:200]}: exit {code}\n{out[:2000]}{err[:2000]}")
        assert not wrong, "\n".join(wrong)
        # Two workers change the report's worker count and nothing else.
        one, two = (
            json.loads(stdouts[argv])
            for argv in (golden_outputs.SCAN_JSON, golden_outputs.SCAN_TWO_WORKERS)
        )
        assert (one.pop("workers"), two.pop("workers")) == (1, 2)
        del one["elapsed_s"], two["elapsed_s"]
        assert one == two


class TestCertificateDocuments:
    def test_roundtrip_through_json(self):
        cert = witness_odd_5mod8(637, 7)
        doc = certificate_document(cert)
        encoded = json.dumps(doc.to_json_dict())
        decoded = CertificateDocument.from_json_dict(json.loads(encoded))
        assert decoded.n == 637
        assert decoded.f == cert.element.a and decoded.g == cert.element.b
        assert verify_document(decoded)
        # JSON's true, false and null stay themselves in a written trace.
        raw = json.loads(encoded)
        raw["trace"] = {"split": True, "steer": [False, None, "7"], "note": None}
        trace = CertificateDocument.from_json_dict(raw).to_json_dict()["trace"]
        assert trace == {"split": True, "steer": [False, None, "7"], "note": None}

    @pytest.mark.parametrize(
        "field", ["n", *(f"{key}{j}" for key in "fg" for j in range(8)), *"ABCDXY"]
    )
    def test_tampered_document_fails(self, field):
        raw = certificate_document(witness_odd_5mod8(637, 7)).to_json_dict()
        # "f3" is f[3]; "n" and "A" are top-level fields.
        holder, slot = (raw[field[0]], int(field[1:])) if field[1:] else (raw, field)
        holder[slot] = str(int(holder[slot]) + 1)
        assert not verify_document(CertificateDocument.from_json_dict(raw))

    def test_swapped_halves_verify(self):
        # det(g, f) = det(f, g): swapping the halves negates A, B and C only.
        raw = certificate_document(witness_odd_5mod8(637, 7)).to_json_dict()
        raw["f"], raw["g"] = raw["g"], raw["f"]
        for key in "ABC":
            raw[key] = str(-int(raw[key]))
        assert verify_document(CertificateDocument.from_json_dict(raw))

    def test_verify_applies_the_certify_rule(self, monkeypatch):
        # verify_document looks the rule up on core when it is called.
        doc = certificate_document(witness_odd_5mod8(637, 7))
        calls = []

        def refuse(n, a, b, trace):
            calls.append((n, a, b, trace))
            raise InternalInconsistency("refused")

        monkeypatch.setattr(core, "certificate_terms", refuse)
        assert not verify_document(doc)
        assert calls == [(637, doc.f, doc.g, doc.trace)]

    def test_wrong_long_determinant_under_the_default_limit(self, default_digit_limit):
        # The rule's message prints this determinant in bounded form; the
        # answer is False, not an error.
        raw = certificate_document(witness_odd_5mod8(637, 7)).to_json_dict()
        raw["f"] = ["9" * 400] * 8
        raw["f"][0] = "8" + "9" * 399
        assert not verify_document(CertificateDocument.from_json_dict(raw))

    def test_wrong_document_with_a_long_trace_integer(self, default_digit_limit):
        # The rule's message cannot print this loaded trace; the answer is
        # still False, not an error.
        raw = certificate_document(witness_odd_5mod8(637, 7)).to_json_dict()
        raw["trace"] = {"p": [10**5000]}
        assert verify_document(CertificateDocument.from_json_dict(raw))
        raw["f"][0] = "5"
        assert not verify_document(CertificateDocument.from_json_dict(raw))

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, []])
    def test_verified_must_be_json_boolean(self, flag):
        raw = certificate_document(witness_odd_5mod8(245, 7)).to_json_dict()
        raw["verified"] = flag
        with pytest.raises(BadInput, match="verified"):
            CertificateDocument.from_json_dict(raw)
        raw["verified"] = False
        assert CertificateDocument.from_json_dict(raw).verified is False

    @pytest.mark.parametrize(
        "key,value",
        [
            ("n", 245.9),
            ("n", 245),
            ("n", "12a"),
            ("n", True),
            ("n", " 245"),
            ("f", [0.4, 1.9, 1, 1, 0, 0, 0, 0]),
            ("f", "01110000"),
            ("g", ["0"] * 7),
            ("g", ["0"] * 7 + [True]),
            ("D", "12a"),
            ("trace", "junk"),
            ("tool", 5),
            ("tool", None),
            ("tool", ["q16det"]),
            ("format", "other"),
            ("format", None),
            ("format", 1),
            ("f", ["0"] * 9),
        ],
    )
    def test_fields_must_be_written_form(self, key, value):
        raw = certificate_document(witness_odd_5mod8(245, 7)).to_json_dict()
        raw[key] = value
        with pytest.raises(BadInput, match=f"'{key}' must be"):
            CertificateDocument.from_json_dict(raw)

    @needs_digit_limit
    @pytest.mark.parametrize("key", ["n", "X", "f"])
    def test_field_past_the_digit_limit(self, key, default_digit_limit):
        raw = certificate_document(witness_odd_5mod8(245, 7)).to_json_dict()
        long = "1" + "0" * 4999
        if key == "f":
            raw["f"][3] = long
        else:
            raw[key] = long
        with pytest.raises(BadInput, match=f"^'{key}' must have at most 4300 digits, got 5000$"):
            CertificateDocument.from_json_dict(raw)

    @pytest.mark.parametrize("doc", [[1], "x", 3, None])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(BadInput, match="JSON object"):
            CertificateDocument.from_json_dict(doc)

    @pytest.mark.parametrize("key", ["n", "f", "g", "A", "B", "C", "D", "X", "Y", "verified"])
    def test_required_field_missing(self, key):
        raw = certificate_document(witness_odd_5mod8(245, 7)).to_json_dict()
        del raw[key]
        with pytest.raises(BadInput, match=f"lacks required field\\(s\\) {key}$"):
            CertificateDocument.from_json_dict(raw)

    @pytest.mark.parametrize("key", ["trace", "tool", "format"])
    def test_optional_field_missing(self, key):
        raw = certificate_document(witness_odd_5mod8(245, 7)).to_json_dict()
        del raw[key]
        assert verify_document(CertificateDocument.from_json_dict(raw))


_DROP = object()
_DIGITS = st.integers(-9999, 9999).map(str)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6), _DIGITS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=9), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=10,
)
_CERT_637 = json.dumps(certificate_document(witness_odd_5mod8(637, 7)).to_json_dict())
# Up to four of a real certificate's 13 keys, each dropped or given a JSON
# value; a digit string, or eight of them, is a value that loads.
_EDITS = st.dictionaries(
    st.sampled_from(sorted(json.loads(_CERT_637))),
    st.one_of(st.just(_DROP), _JSON_VALUES, _DIGITS, st.lists(_DIGITS, min_size=8, max_size=8)),
    max_size=4,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(edits=_EDITS)
def test_generated_documents_load_or_refuse(edits):
    raw = json.loads(_CERT_637)
    for key, value in edits.items():
        if value is _DROP:
            del raw[key]
        else:
            raw[key] = value
    try:
        doc = CertificateDocument.from_json_dict(raw)
    except BadInput:
        return
    assert isinstance(verify_document(doc), bool)


def _json_types(value):
    """The JSON type of a value, as Python names the loaded type, with each
    list reduced to the distinct types of its items."""
    if isinstance(value, dict):
        return {key: _json_types(v) for key, v in value.items()}
    if isinstance(value, list):
        types = []
        for item in map(_json_types, value):
            if item not in types:
                types.append(item)
        return types
    return type(value).__name__


def _even_violation(monkeypatch):
    scan_range = kernel.scan_range

    def with_two(*args):
        out = scan_range(*args)
        out["values"][2] += 1
        return out

    monkeypatch.setattr(kernel, "scan_range", with_two)


def _factored_mismatch(monkeypatch):
    factored_terms = kernel.factored_terms
    monkeypatch.setattr(kernel, "factored_terms", lambda a, b: (0, *factored_terms(a, b)[1:]))


def _audit_failure(monkeypatch):
    def fail(e):
        raise InternalInconsistency("injected")

    monkeypatch.setattr(analysis, "parity_audit", fail)


# Per --json command: its arguments, a fault that fills the optional lists
# and fields, and the type of every field.  Certificates, verify and
# classify write every integer as a decimal string; the scan, crosscheck
# and audit reports write counts, parameters and support values as numbers.
_JSON_TYPES = [
    (
        ["classify", "245", "512"],
        None,
        [
            {"n": "str", "achievable": "bool", "recipe": "str"},
            {"n": "str", "achievable": "bool", "reason": "str"},
        ],
    ),
    (
        ["witness", "245"],
        None,
        [
            {
                **dict.fromkeys(("format", "tool", "n"), "str"),
                "f": ["str"],
                "g": ["str"],
                **dict.fromkeys("ABCDXY", "str"),
                "trace": {
                    **dict.fromkeys(("family", "p", "m", "shift", "x_target"), "str"),
                    "split": ["str"],
                    "adjusted": ["str"],
                    "four_squares": [["str"]],
                    "case": "str",
                    "u": ["str"],
                    "v": ["str"],
                },
                "verified": "bool",
            }
        ],
    ),
    (
        ["verify", "--coeffs", "1,1,1,1,1,1,1,1,1,0,1,1,1,0,0,0"],
        None,
        [
            {
                "f": ["str"],
                "g": ["str"],
                **dict.fromkeys(("direct_determinant", *"ABCDXY", "factored_determinant"), "str"),
                "agree": "bool",
            }
        ],
    ),
    (
        ["scan", "--support=0,1"],
        _even_violation,
        [
            {
                "support": ["int"],
                "total": "int",
                "workers": "int",
                "lane": "str",
                "direct": "bool",
                **dict.fromkeys(("zero", "even", "even_mult_1024", "odd"), "int"),
                "odd_mod8": dict.fromkeys(("1", "3", "5", "7"), "int"),
                "sample": ["str"],
                "five_mod8_values": "int",
                "violations": [{"value": "str", "reason": "str"}],
                "ok": "bool",
                "elapsed_s": "float",
            }
        ],
    ),
    (
        ["crosscheck", "--count", "3"],
        _factored_mismatch,
        [
            {
                **dict.fromkeys(("count", "height", "seed", "mismatches"), "int"),
                "lane": "str",
                "ok": "bool",
                "elapsed_s": "float",
                "detail": "str",
            }
        ],
    ),
    (
        ["audit", "--count", "3"],
        _audit_failure,
        [
            {
                **dict.fromkeys(("count", "seed", "height", "audited", "skipped"), "int"),
                "failures": ["str"],
                "ok": "bool",
                "elapsed_s": "float",
            }
        ],
    ),
]


@pytest.mark.parametrize("argv,fault,types", _JSON_TYPES, ids=[argv[0] for argv, _, _ in _JSON_TYPES])
def test_json_field_types(capsys, monkeypatch, argv, fault, types):
    if fault is not None:
        fault(monkeypatch)
    _, out, _ = run(capsys, *argv, "--json")
    assert [_json_types(json.loads(line)) for line in out.splitlines()] == types


# Every integer argument, with the argv that puts a spelling into it and the
# name argparse gives it in the error line.
_SCALAR_ARGS = [
    (["classify"], "n"),
    (["witness"], "n"),
    *((["crosscheck"], flag) for flag in ("--count", "--height", "--seed")),
    *((["audit"], flag) for flag in ("--count", "--height", "--seed")),
    (["scan", "--support=0"], "--workers"),
    (["scan", "--support=0"], "--limit"),
]
_REJECTED = ["\u0661\u0662\u0663", "1_001", " 9", "9 ", "+9", "", "-", "-1_001", "-+9", "-\u00b2"]
_REJECTED_IN_LISTS = _REJECTED + ["1, 0", "1,,0"]


def _argv(prefix, name, text):
    return [*prefix, text] if name == "n" else [*prefix, f"{name}={text}"]


def _list_argv(name, item):
    """A list whose other items are valid: 16 in all for ``--coeffs``."""
    if name == "--coeffs":
        return ["verify", f"--coeffs={','.join([item] + ['0'] * (16 - len(item.split(','))))}"]
    return ["scan", f"--support=0,{item}"]


@pytest.mark.parametrize(
    "argv,name",
    [
        pytest.param(_argv(prefix, name, text), name, id=f"{prefix[0]} {name} {text!r}")
        for prefix, name in _SCALAR_ARGS
        for text in _REJECTED
    ]
    + [
        pytest.param(_list_argv(name, text), name, id=f"{name} {text!r}")
        for name in ("--coeffs", "--support")
        for text in _REJECTED_IN_LISTS
    ],
)
def test_integer_grammar_rejects(capsys, argv, name):
    """Outside ``-?[0-9]+`` every integer argument is a usage error: exit 2
    and one stderr line that names the argument."""
    code, err = usage_error(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.count("\n") == 1 and f"error: argument {name}: " in err, err
    assert "Traceback" not in err


def test_integer_grammar_accepts_leading_zeros_and_minus(capsys):
    rc, out, _ = run(capsys, "classify", "00017", "-0007", "-0", "--json")
    assert rc == EXIT_OK
    assert [json.loads(line)["n"] for line in out.splitlines()] == ["17", "-7", "0"]
    coeffs = ["-01", "002"] + ["0"] * 14
    rc, out, _ = run(capsys, "verify", "--json", f"--coeffs={','.join(coeffs)}")
    assert rc == EXIT_OK and json.loads(out)["f"][:2] == ["-1", "2"]


# Generated argv: adversarial spellings in the integer arguments of five
# commands.  Costs stay bounded: a valid target is a 5,000-digit number off
# 5 mod 8 or lies below 10**12, a scanned support is at most two values in
# [-9, 9] or carries --limit=1, and --count is at most 50.  The second list
# of bad spellings starts with a minus, which argparse alone takes for an
# unknown option; --seed takes its token after = or as the next argument.
_BAD_TOKENS = st.sampled_from(
    ["+9", "1_001", "\u0661\u0662\u0663", "\uff17", "\u00b2", " 9", "9 ", "1 0", "", "-"]
    + ["-1_001", "-+9", "-\u00b2", "-\u0661", "-0x1f", "-9.0"]
)


@st.composite
def _tokens(draw, low, high, big=False):
    """(text, value): an integer in [low, high] with up to three leading
    zeros, or, if ``big``, sometimes a 5,000-digit number off 5 mod 8."""
    if big and draw(st.integers(0, 2)) == 0:
        sign = draw(st.sampled_from(["", "-"]))
        lead, tail = draw(st.integers(1, 9)), draw(st.integers(0, 998))
        tail += int(f"{sign}{tail}") % 8 == 5  # the value is +-tail mod 8
        value = (lead * 10**4999 + tail) * (-1 if sign else 1)
        return f"{sign}{lead}{'0' * 4996}{tail:03d}", value
    value, zeros = draw(st.integers(low, high)), draw(st.integers(0, 3))
    return f"{'-' * (value < 0)}{'0' * zeros}{abs(value)}", value


@st.composite
def _generated_argv(draw):
    """(argv, valid, budget): ``valid`` unless one integer token was given
    a spelling outside the grammar, ``budget`` if the scan must refuse its
    support."""
    command = draw(st.sampled_from(["classify", "witness", "verify", "scan", "crosscheck"]))
    if command in ("classify", "witness"):
        tokens = draw(st.lists(_tokens(1 - 10**12, 10**12 - 1, big=True), min_size=1, max_size=3))
    elif command == "verify":
        tokens = draw(st.lists(_tokens(-(10**6), 10**6), min_size=16, max_size=16))
    elif command == "scan":
        tokens = draw(st.lists(_tokens(-9, 9, big=True), min_size=1, max_size=4))
    else:
        tokens = [draw(_tokens(-(10**6), 10**6, big=True)), draw(_tokens(0, 50))]
    texts, values = [text for text, _ in tokens], [value for _, value in tokens]
    valid = draw(st.booleans())
    if not valid:
        texts[draw(st.integers(0, len(texts) - 1))] = draw(_BAD_TOKENS)
    budget = False
    if command == "verify":
        argv = [command, f"--coeffs={','.join(texts)}"]
    elif command == "scan":
        argv = [command, f"--support={','.join(texts)}"]
        if len(tokens) > 2 or any(abs(v) > 9 for v in values):
            argv.append("--limit=1")
            budget = len(set(values)) > 1
    elif command == "crosscheck":
        seed = [f"--seed={texts[0]}"] if draw(st.booleans()) else ["--seed", texts[0]]
        argv = [command, *seed, f"--count={texts[1]}"]
    else:
        argv = [command, *texts]
    if draw(st.booleans()):
        argv.append("--json")
    return argv, valid, budget


def _check_generated_argv(argv, valid, budget):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out and "Traceback" not in err
    if not valid:
        assert rc == EXIT_USAGE and not out
        assert err.startswith(f"q16det {argv[0]}: error: ") and err.count("\n") == 1, err
    elif budget:
        assert rc == EXIT_BUDGET, err
    else:
        assert rc in (EXIT_OK, EXIT_FAIL), err


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=_generated_argv())
def test_generated_argv_exit_cleanly(case):
    """Every generated argv exits 0, 1, 2 or 3 without a traceback, and one
    with a token outside ``-?[0-9]+`` exits 2 with one error line."""
    _check_generated_argv(*case)


@pytest.mark.extended
@settings(derandomize=True, database=None, max_examples=1500, deadline=None)
@given(case=_generated_argv())
def test_generated_argv_exit_cleanly_extended(case):
    _check_generated_argv(*case)


@needs_digit_limit
def test_main_restores_the_digit_limit(capsys, default_digit_limit):
    run(capsys, "classify", "9")
    assert sys.get_int_max_str_digits() == default_digit_limit
    usage_error(capsys, "classify", "+9")
    assert sys.get_int_max_str_digits() == default_digit_limit


@needs_digit_limit
def test_long_argument_under_the_default_limit(capsys, default_digit_limit):
    n = "1" + "0" * 4998 + "1"  # 5,000 digits, 1 mod 8
    rc, out, _ = run(capsys, "classify", "--json", n)
    assert rc == EXIT_OK and json.loads(out)["n"] == n
    rc, out, _ = run(capsys, "classify", n)
    assert rc == EXIT_OK and out == f"{n}: achievable (Odd1Mod8)\n"


@needs_digit_limit
def test_parser_rejects_long_argument_outside_main(capsys, default_digit_limit):
    """Only ``main`` lifts the limit; a bare parser turns the interpreter's
    refusal into a usage error."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["classify", "9" * 5000])
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_USAGE
    assert err == "q16det classify: error: argument n: must have at most 4300 digits, got 5000\n"


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "q16det.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0 and "q16det" in out.stdout


def test_integers_past_the_str_digit_limit():
    """Decimal strings over the interpreter's default 4,300-digit limit
    parse and print in a child process, which starts with that default."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    rng = random.Random(17)
    coeffs = [rng.randrange(-(10**300), 10**300) for _ in range(16)]

    def child(*argv):
        out = subprocess.run(
            [sys.executable, "-m", "q16det.cli", *argv], capture_output=True, text=True, env=env
        )
        assert out.returncode == EXIT_OK and "Traceback" not in out.stderr, out.stderr
        return json.loads(out.stdout)

    doc = child("verify", "--json", "--coeffs", ",".join(map(str, coeffs)))
    got = doc["direct_determinant"]
    assert doc["agree"] and len(got.lstrip("-")) > 4300
    # Decimal parses the string whatever this process's limit is.
    assert Decimal(got) == direct_determinant(GroupRingElement.from_coeffs(coeffs))

    n = "1024" + "0" * 4400
    doc = child("classify", "--json", n)
    assert doc["n"] == n and doc["achievable"]


def test_cold_start_skips_process_pool():
    probe = (
        "import sys, q16det.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "[]"


def test_cold_start_skips_dataclasses():
    """The records are NamedTuples, so importing the CLI loads neither
    dataclasses nor the source-inspection modules it pulls in, and
    ``--output-dir`` needs no pathlib.  ``-S`` keeps site hooks from
    loading them first."""
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import q16det.cli; "
        "print([m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'pathlib') "
        "if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "[]", out.stderr


def test_closed_pipe_exits_1_without_traceback():
    # The output outruns the pipe buffer, so a write meets the closed pipe
    # and _run's BrokenPipeError branch, in the child, returns EXIT_FAIL.
    proc = subprocess.Popen(
        [sys.executable, "-m", "q16det.cli", "classify", *map(str, range(1, 40000, 4))],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1])),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == EXIT_FAIL
    assert first == b"1: achievable (Odd1Mod8)\n"
    assert err == b""


class TestLibraryErrors:
    def test_library_error_is_one_line_exit_1(self, capsys, monkeypatch):
        def broken(n):
            raise InternalInconsistency(f"injected failure for {n}")

        monkeypatch.setattr(cli, "classify", broken)
        rc, out, err = run(capsys, "classify", "245", "--json")
        assert rc == EXIT_FAIL and out == ""
        assert err == "q16det: InternalInconsistency: injected failure for 245\n"

    def test_runtime_error_is_one_line_exit_1(self, capsys, monkeypatch):
        def broken(n):
            raise RuntimeError("Pollard rho failed")

        monkeypatch.setattr(cli, "classify_and_witness", broken)
        rc, _, err = run(capsys, "witness", "245")
        assert rc == EXIT_FAIL
        assert err == "q16det: RuntimeError: Pollard rho failed\n"

    @pytest.mark.parametrize(
        "entry,fault,message",
        [
            ("factored_terms", lambda out: (out[0] + 2, *out[1:]), r": A\*B\*C\^2\*D\^2 of "),
            ("group_det", lambda out: out + 1, " evaluates to 5121; "),
        ],
        ids=["factored", "direct"],
    )
    def test_kernel_fault_emits_no_certificate(self, capsys, monkeypatch, entry, fault, message):
        # Each path catches a fault that the other one cannot see.  The
        # rule looks both paths up on core; the calls list shows that the
        # fault was reached.
        original = getattr(core, entry)
        calls = []

        def faulty(a, b):
            calls.append((a, b))
            return fault(original(a, b))

        monkeypatch.setattr(core, entry, faulty)
        with pytest.raises(InternalInconsistency, match=f"^witness for 5120{message}"):
            witness_even(5120)
        assert len(calls) == 1
        rc, out, err = run(capsys, "witness", "5120")
        assert rc == EXIT_FAIL and out == ""
        assert err.startswith("q16det: InternalInconsistency: witness for 5120")
        assert err.count("\n") == 1
        assert len(calls) == 2

    def test_budget_exceeded_keeps_exit_3(self, capsys):
        rc, _, err = run(capsys, "scan", "--support", "0,1", "--limit", "10")
        assert rc == EXIT_BUDGET and err.startswith("budget exceeded")
