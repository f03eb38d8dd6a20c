import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from q16det import cli, kernel
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
from q16det.group_algebra import GroupRingElement, direct_determinant
from q16det.witness import witness_odd_5mod8


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


@pytest.fixture
def default_digit_limit():
    """The interpreter's default limit of 4,300 digits, restored afterwards."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


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
        real = kernel._reflection_det
        monkeypatch.setattr(kernel, "_reflection_det", lambda ra, rb: real(ra, rb) + 1)
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


class TestCertificateDocuments:
    def test_roundtrip_through_json(self):
        cert = witness_odd_5mod8(637, 7)
        doc = certificate_document(cert)
        encoded = json.dumps(doc.to_json_dict())
        decoded = CertificateDocument.from_json_dict(json.loads(encoded))
        assert decoded.n == 637
        assert decoded.f == cert.element.a and decoded.g == cert.element.b
        assert verify_document(decoded)

    def test_tampered_document_fails(self):
        cert = witness_odd_5mod8(637, 7)
        doc = certificate_document(cert)
        raw = doc.to_json_dict()
        raw["n"] = "639"
        assert not verify_document(CertificateDocument.from_json_dict(raw))
        raw = doc.to_json_dict()
        raw["A"] = "999"
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
_REJECTED = ["\u0661\u0662\u0663", "1_001", " 9", "9 ", "+9", "", "-"]
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
    # The output outruns the pipe buffer, so a write meets the closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "q16det.cli", "classify", *map(str, range(1, 40000, 4))],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
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

    def test_budget_exceeded_keeps_exit_3(self, capsys):
        rc, _, err = run(capsys, "scan", "--support", "0,1", "--limit", "10")
        assert rc == EXIT_BUDGET and err.startswith("budget exceeded")
