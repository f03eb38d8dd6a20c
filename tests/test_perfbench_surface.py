"""The library surface the benchmark in ``perfbench/`` imports and wraps:
a deletion that breaks the benchmark fails here."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench/ beside tests/")
def test_perfbench_imports_and_wrap_sites_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import sweep  # noqa: F401
    import tracer
    import worker  # noqa: F401

    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert t.missing_sites == []
