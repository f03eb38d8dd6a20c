"""The library surface the benchmark in ``perfbench/`` imports and wraps:
a deletion that breaks the benchmark fails here."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench/ beside tests/")
def test_perfbench_imports_and_wrap_sites_resolve(monkeypatch):
    # Both paths prepended, so this runs with or without PYTHONPATH=src.
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import sweep  # noqa: F401
    import tracer
    import worker  # noqa: F401
    from q16det import cli

    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert t.missing_sites == []
    # The cli names the certify worker and the probe call.
    for name in ("build_parser", "certificate_document", "verify_document"):
        assert callable(getattr(cli, name)), name
    assert callable(cli.CertificateDocument.from_json_dict)
