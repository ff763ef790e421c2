"""Span arithmetic of the tracer, driven by a hand-advanced clock."""

import pytest

from tracer import Tracer


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_span_minus_covered_child_interval():
    clock = Clock()
    tr = Tracer(clock)
    leaf = tr.spanned("exactlin", "transpose", lambda: clock.advance(2.0))

    def outer():
        clock.advance(1.0)
        leaf()
        leaf()
        clock.advance(3.0)

    tr.spanned("homology", "outer", outer)()
    assert tr.self_s["homology"] == pytest.approx(4.0)
    assert tr.self_s["exactlin"] == pytest.approx(4.0)
    assert tr.calls == {"homology": 1, "exactlin": 2}
    assert tr.stack == []


def test_same_layer_nesting_folds_into_the_parent_span():
    clock = Clock()
    tr = Tracer(clock)
    inner = tr.spanned("homology", "inner", lambda: clock.advance(5.0))

    def outer():
        clock.advance(1.0)
        inner()

    tr.spanned("homology", "outer", outer)()
    assert tr.calls["homology"] == 1
    assert tr.self_s["homology"] == pytest.approx(6.0)


def test_reentering_a_layer_from_another_opens_a_new_span():
    clock = Clock()
    tr = Tracer(clock)
    back = tr.spanned("homology", "back", lambda: clock.advance(1.0))

    def middle():
        clock.advance(2.0)
        back()

    mid = tr.spanned("exactlin", "middle", middle)

    def outer():
        mid()
        clock.advance(4.0)

    tr.spanned("homology", "outer", outer)()
    assert tr.calls == {"homology": 2, "exactlin": 1}
    assert tr.self_s["homology"] == pytest.approx(5.0)
    assert tr.self_s["exactlin"] == pytest.approx(2.0)


def test_span_closes_when_the_call_raises():
    clock = Clock()
    tr = Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.spanned("repmod", "boom", boom)()
    assert tr.stack == []
    assert tr.self_s["repmod"] == pytest.approx(1.0)


def test_repeated_elimination_calls_are_timed_as_repeats():
    clock = Clock()
    tr = Tracer(clock)
    rank = tr.spanned("exactlin", "rank", lambda m: clock.advance(len(m)))
    for m in ((1, 2), (1, 2), (3,)):
        rank(m)
    assert tr.counts["exactlin.elim_calls"] == 3
    assert tr.summary()["counts"]["exactlin.distinct_calls"] == 2
    assert tr.seconds["exactlin.repeat_s"] == pytest.approx(2.0)


def test_timer_counts_only_the_outermost_recursive_call():
    clock = Clock()
    tr = Tracer(clock)

    def rec(n):
        clock.advance(1.0)
        if n:
            timed(n - 1)

    timed = tr.timed("repmod.hom_space_s", rec)
    timed(2)
    assert tr.seconds["repmod.hom_space_s"] == pytest.approx(3.0)
