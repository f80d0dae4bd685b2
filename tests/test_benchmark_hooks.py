"""The benchmark's tracer must find every name it wraps.

perfbench/tracer.py replaces module and class attributes of the program
with timing wrappers, looking each one up through ``owner.__dict__``.  A
change that deletes or renames one of them breaks ``perfbench/run.py
--trace 1``; installing the tracer here turns that into a unit-test
failure.
"""

import importlib.util
import sys
from pathlib import Path

import fdmimo.metrics as metrics
from fdmimo.numerics import RngStream

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    # no __pycache__ under perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    generate_iid, generator = metrics.generate_iid, RngStream.generator
    tracer = module.Tracer()
    try:
        tracer.install()
        assert metrics.generate_iid is not generate_iid
    finally:
        tracer.uninstall()
    assert metrics.generate_iid is generate_iid
    assert RngStream.generator is generator
