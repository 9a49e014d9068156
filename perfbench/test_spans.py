"""Self-time arithmetic of the span tracer.  Run: python3 -m pytest perfbench"""

from array import array

import pytest

import spans


def test_self_times_of_a_synthetic_nested_trace():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]; e [12, 13]
    # is a second top-level span.
    start = array("d", [0, 1, 2, 5, 12])
    end = array("d", [10, 4, 3, 9, 13])
    parent = array("i", [-1, 0, 1, 0, -1])
    own = spans.self_times(start, end, parent)
    assert list(own) == [3, 2, 1, 4, 1]
    # Self times partition the time the top-level spans cover.
    assert sum(own) == 10 + 1


def test_tracer_records_nesting_calls_and_items():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap("mod.leaf", leaf)

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_outer = tracer.wrap("mod.outer", outer)
    tracer.set_item(7)
    assert wrapped_outer() == 2
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.item) == [7, 7, 7]
    # outer spans ticks 0..5, each leaf one tick: self time 5 - 2.
    assert spans.aggregate(tracer) == {"mod.outer": (1, 3.0), "mod.leaf": (2, 2.0)}
    assert spans.top_level_seconds(tracer) == 5


def test_span_closes_when_the_call_raises():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def boom():
        raise ValueError("bad input")

    with pytest.raises(ValueError):
        tracer.wrap("mod.boom", boom)()
    assert list(tracer.end) == [1.0]
    assert tracer.stack == [-1]
