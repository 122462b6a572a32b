"""The benchmark's span tracer must still find every function it wraps.

``bench/spans.py`` wraps package functions by name; renaming or deleting
one would otherwise break only the traced benchmark run.
"""

import pathlib
import sys

import emtrace  # noqa: F401  (the tracer patches the imported package)

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _bindings():
    return {(name, attr): id(value)
            for name, mod in sys.modules.items() if name.startswith("emtrace")
            for attr, value in vars(mod).items() if callable(value)}


def _resolve(mod_name, attr):
    obj = sys.modules[f"emtrace.{mod_name}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from spans import LAYERS, Tracer

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        for layer in LAYERS.values():
            for mod_name, attr in layer:
                assert hasattr(_resolve(mod_name, attr), "__wrapped__"), attr
    finally:
        tracer.uninstall()
    assert _bindings() == before
