"""The benchmark's tracer must find every name it wraps, and see it run.

perfbench/tracer.py replaces module and class attributes of the program
with timing wrappers, looking each one up through ``owner.__dict__``.  A
change that deletes or renames one of them breaks ``perfbench/run.py
--trace 1``; installing the tracer here turns that into a unit-test
failure.  A stage that the pipeline stops calling through the wrapped
name leaves the tracer reading 0 for it; running small sweeps under the
tracer turns that into a failure too.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

import fdmimo.metrics as metrics
from fdmimo.channel import SystemConfig
from fdmimo.experiments import default_scenario, run_scenario
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


@pytest.mark.parametrize("scenario", ["custom", "fig-correlated"])
def test_tracer_sees_every_stage_of_a_sweep(monkeypatch, scenario):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    scn = dataclasses.replace(default_scenario(scenario), sweep_stop=0.0,
                              trials=3)
    tracer = module.Tracer()
    tracer.install()
    try:
        run_scenario(SystemConfig(), scn)
    finally:
        tracer.uninstall()
    for name in ("channel.draw", "estimation.estimate", "transceiver.build",
                 "numerics.pinv", "metrics.sweep"):
        assert tracer.calls[name] > 0, name
