"""The bench's trace mode can still find every function it wraps."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_function_resolves():
    # `Tracer.patched()` reads each entry with getattr, so renaming or
    # deleting a traced function breaks `bench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [
        f"{home.__name__}.{attr}"
        for home, attr, _, _ in tracing.TRACED
        if not callable(getattr(home, attr, None))
    ]
    assert not missing
