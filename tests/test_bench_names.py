import importlib
from pathlib import Path


def test_traced_names_resolve_in_the_package(monkeypatch):
    # the benchmark tracer interposes on these names by module and name; one
    # deleted from the package would otherwise fail only in bench/smoke.py
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    tracer = importlib.import_module("tracer")
    for name in [*tracer.TRACED, *tracer.TRACED_CLASSES]:
        module, attr = name.split(".")
        assert hasattr(importlib.import_module(f"gausshaar.{module}"), attr), name
