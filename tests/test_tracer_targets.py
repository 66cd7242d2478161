"""The benchmark's tracer wraps engine functions by module and name; a
rename in the engine must fail here rather than crash a traced run."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for span, module, functions, _counter in tracer.TARGETS:
        mod = importlib.import_module(f"fincomplete.{module}")
        for name in functions:
            assert callable(getattr(mod, name, None)), f"{span}: fincomplete.{module}.{name}"
