"""The benchmark's tracer patches fracprimes functions by name; a rename or
a changed signature in the library must show up here, not as failed
operations in a traced benchmark run."""

import importlib
import inspect
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def test_every_target_resolves(tracing):
    for module, attr, *_ in tracing.TARGETS:
        obj = importlib.import_module(f"fracprimes.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attr}"


def test_phase_work_accepts_the_wrapped_parameters(tracing):
    wrapped = [(module, attr) for module, attr, _, before, _ in tracing.TARGETS
               if before is tracing._phase_work]
    assert ("expsums", "reduced_phase_array") in wrapped
    work = inspect.signature(tracing._phase_work)
    for module, attr in wrapped:
        fn = getattr(importlib.import_module(f"fracprimes.{module}"), attr)
        work.bind(*inspect.signature(fn).parameters)
    # reduced_phase_array's own parameter names, so keyword calls pass too
    from fracprimes.expsums import reduced_phase_array
    params = inspect.signature(reduced_phase_array).parameters
    work.bind(**{name: None for name in params})
