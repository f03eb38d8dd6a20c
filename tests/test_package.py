"""The package surface: each public name resolves on first use to the
object its module defines, ``import q16det.core``, the trusted module,
loads no other library module but ``q16det.errors``, certificate
documents load and re-verify without the command line, and neither a
certificate check nor ``import q16det.classifier`` loads the scan
engine.  Every ``while`` loop of the library states on the line above it
why it ends."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import q16det
from q16det import cli, core
from q16det.classifier import classify_and_witness

SRC = Path(core.__file__).resolve().parents[1]


def _loops_without_variant(source):
    """Line numbers of the ``while`` loops in ``source`` whose line above is
    not a ``# variant:`` comment."""
    above = ["", *source.splitlines()]  # above[n] is the line above line n
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.While)
        and not above[node.lineno - 1].lstrip().startswith("# variant:")
    ]


def test_every_while_loop_states_its_variant():
    missing = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _loops_without_variant(path.read_text())
    ]
    assert not missing
    probe = "while a:\n    pass\n# variant: b\nwhile b:\n    # variant: c\n    while c:\n        pass\n"
    assert _loops_without_variant(probe) == [1]


def test_public_names_are_their_modules_objects():
    for name in q16det.__all__:
        if name == "__version__":
            continue
        obj = getattr(q16det, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("q16det.") and getattr(home, name) is obj, name


def test_dir_lists_the_public_names():
    names = dir(q16det)
    assert set(q16det.__all__) <= set(names) and names == sorted(names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        q16det.no_such_name
    assert not hasattr(q16det, "certificate_terms")


def test_core_loads_alone_and_applies_the_rule():
    # The golden certificates of `q16det witness 17 245 637 -7 -3072`,
    # re-verified by the rule in a fresh interpreter without site.
    cases = []
    for n in (17, 245, 637, -7, -3072):
        cert = classify_and_witness(n)
        ff = cert.factored
        terms = (ff.A, ff.B, ff.C, ff.D, ff.z.x, ff.z.y)
        cases.append((n, cert.element.a, cert.element.b, terms))
    code = (
        "import sys\n"
        "import q16det.core\n"
        f"for n, a, b, terms in {cases!r}:\n"
        "    assert q16det.core.certificate_terms(n, a, b, {}) == terms, n\n"
        "assert set(q16det.__all__) <= set(dir(q16det))\n"
        "assert 'typing' not in sys.modules\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'q16det'))\n"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "['q16det', 'q16det.core', 'q16det.errors']\n"


def test_certificate_loads_without_the_cli(capsys):
    # The JSON text of `q16det witness 17 245 637 -7 -3072 --json`, loaded
    # and re-verified through q16det.certificate in a fresh interpreter
    # without site; one document with A changed verifies as False.
    assert cli.main(["witness", "17", "245", "637", "-7", "-3072", "--json"]) == 0
    text = capsys.readouterr().out
    code = (
        "import json, sys\n"
        "from q16det import certificate\n"
        "raws = [json.loads(line) for line in sys.stdin]\n"
        "load = certificate.CertificateDocument.from_json_dict\n"
        "print([certificate.verify_document(load(raw)) for raw in raws])\n"
        "raws[1]['A'] = str(int(raws[1]['A']) + 1)\n"
        "print(certificate.verify_document(load(raws[1])), 'argparse' in sys.modules)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'q16det'))\n"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        input=text, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "[True, True, True, True, True]",
        "False False",
        "['q16det', 'q16det.certificate', 'q16det.core', 'q16det.errors',"
        " 'q16det.group_algebra']",
    ]


def test_classifier_loads_without_the_scan_engine():
    # Deciding and witnessing need neither q16det.kernel nor q16det.analysis.
    code = (
        "import sys\n"
        "import q16det.classifier\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'q16det'))\n"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (
        "['q16det', 'q16det.classifier', 'q16det.core', 'q16det.errors',"
        " 'q16det.exact_eval', 'q16det.group_algebra', 'q16det.primes',"
        " 'q16det.quad_ring', 'q16det.witness']\n"
    )


def test_cli_import_builds_no_trial_product():
    # The product of the trial primes below 10**4 and the squarefree
    # ladder's step products are built on first use, so start-up never pays
    # for them.
    code = (
        "import q16det.cli\n"
        "from q16det import primes\n"
        "print(primes._trial_rest.cache_info().currsize,"
        " primes._step_product.cache_info().currsize)\n"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0 0\n"
