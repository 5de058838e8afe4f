"""The bench's trace mode can still find every function it wraps."""

import tracing


def test_every_traced_function_resolves():
    # `Tracer.patched()` reads each entry with getattr, so renaming or
    # deleting a traced function breaks `bench/run.py --trace 1`
    assert tracing.TRACED
    missing = [
        f"{home.__name__}.{attr}"
        for home, attr, _, _ in tracing.TRACED
        if not callable(getattr(home, attr, None))
    ]
    assert not missing
