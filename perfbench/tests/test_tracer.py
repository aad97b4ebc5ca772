"""Self-test of the span tracer: self-time arithmetic, name resolution and
patching of every binding of a wrapped function."""

import numpy as np
import pytest

import stratacalc.conditions as conditions
import stratacalc.piecewise as piecewise
from stratacalc import default_corpus

from tracer import SPANS, SpanSpec, Tracer, check_names


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children():
    # a[0, 10] contains b[1, 4] (which contains c[2, 3]) and a second c[5, 6]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    a = tracer.begin("a")
    b = tracer.begin("b")
    c = tracer.begin("c")
    tracer.finish(c)
    tracer.finish(b)
    c2 = tracer.begin("c")
    tracer.finish(c2)
    tracer.finish(a)
    s = tracer.summary()
    assert s["a"] == (1, 10.0, 6.0)
    assert s["b"] == (1, 3.0, 2.0)
    assert s["c"] == (2, 2.0, 2.0)
    assert sum(v[2] for v in s.values()) == 10.0


def test_summary_refuses_open_spans():
    tracer = Tracer(clock=FakeClock([0, 1]))
    tracer.begin("a")
    with pytest.raises(RuntimeError):
        tracer.summary()


def test_every_wrapped_name_resolves():
    check_names()


def test_renamed_function_fails_loudly():
    with pytest.raises(LookupError, match="no_such_function"):
        check_names(SPANS + (SpanSpec("stratacalc.piecewise", "no_such_function", "x"),))
    with pytest.raises(LookupError, match="conditions.refine"):
        check_names((), (("stratacalc.conditions", "refine", "stratacalc.geometry"),))


def test_install_wraps_reimported_names_and_uninstall_restores():
    original = piecewise.compose_exact
    cf = default_corpus().function("abs1d")
    tracer = Tracer()
    tracer.install()
    try:
        assert conditions.compose_exact is piecewise.compose_exact
        assert piecewise.compose_exact.__wrapped__ is original
        root = tracer.begin("op")
        conditions.compose_exact(cf.func, cf.curves[0])
        cf.func.value(np.array([0.5]))
        tracer.finish(root)
    finally:
        tracer.uninstall()
    assert piecewise.compose_exact is original is conditions.compose_exact
    s = tracer.summary()
    assert s["piecewise.compose_exact"][0] == 1
    assert s["piecewise.value"][0] == 1
    assert tracer.counters["piecewise.compose_exact.pieces_out"] == 2
    total = s["op"][1]
    assert sum(v[2] for v in s.values()) == pytest.approx(total, rel=1e-9)
