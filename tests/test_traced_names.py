"""The benchmark's tracer wraps program functions by name (perfbench/tracer.py).
Renaming or deleting one of them must fail the main suite too, not only the
benchmark's own tests."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import check_names
    check_names()
