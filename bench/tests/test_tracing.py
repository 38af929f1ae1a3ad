import json
import types

import pytest

from tracing import (
    NO_PARENT,
    Span,
    Tracer,
    call_counts,
    chrome_trace,
    self_times,
    total_times,
)


def _nested():
    # run [0, 100) -> gemv [10, 60) -> issue [20, 30), issue [40, 55)
    #              -> gemv [70, 90) -> issue [75, 80)
    return [
        Span("run", 0, 100, NO_PARENT),
        Span("gemv", 10, 60, 0),
        Span("issue", 20, 30, 1),
        Span("issue", 40, 55, 1),
        Span("gemv", 70, 90, 0),
        Span("issue", 75, 80, 4),
    ]


def test_self_time_subtracts_only_direct_children():
    selfs = self_times(_nested())
    assert selfs["run"] == pytest.approx((100 - 50 - 20) / 1e9)
    assert selfs["gemv"] == pytest.approx(((50 - 10 - 15) + (20 - 5)) / 1e9)
    assert selfs["issue"] == pytest.approx((10 + 15 + 5) / 1e9)
    # Self times partition the root span's duration.
    assert sum(selfs.values()) == pytest.approx(100 / 1e9)


def test_totals_and_counts():
    spans = _nested()
    assert total_times(spans)["gemv"] == pytest.approx(70 / 1e9)
    assert call_counts(spans) == {"run": 1, "gemv": 2, "issue": 3}


def test_chrome_trace_export():
    document = chrome_trace(_nested())
    json.dumps(document)  # plain JSON
    events = document["traceEvents"]
    assert [e["name"] for e in events] == ["run", "gemv", "issue", "issue", "gemv", "issue"]
    assert all(e["ph"] == "X" and e["pid"] == 1 and e["tid"] == 1 for e in events)
    assert events[3]["ts"] == pytest.approx(0.040) and events[3]["dur"] == pytest.approx(0.015)
    assert events[3]["args"] == {"id": 3, "parent": 1}
    assert document["otherData"] == {"spans": 6, "exported": 6}
    assert chrome_trace(_nested(), limit=2)["otherData"] == {"spans": 6, "exported": 2}


class _Engine:
    def run(self, n):
        return [self.step(i) for i in range(n)]

    def step(self, i):
        return helpers.double(i)


helpers = types.SimpleNamespace(double=lambda i: 2 * i)


class _Child(_Engine):
    pass


def test_tracer_records_nesting_and_restores():
    original_run, original_double = _Engine.run, helpers.double
    tracer = Tracer()
    with tracer:
        tracer.wrap(_Engine, "run", "engine.run")
        tracer.wrap(_Child, "step", "engine.step")  # inherited method
        tracer.wrap(helpers, "double", "helpers.double")
        assert _Child().run(2) == [0, 2]
        with tracer.span("bench.block"):
            helpers.double(1)
    spans = tracer.spans()
    assert [s.name for s in spans] == [
        "engine.run", "engine.step", "helpers.double",
        "engine.step", "helpers.double", "bench.block", "helpers.double",
    ]
    assert [s.parent for s in spans] == [NO_PARENT, 0, 1, 0, 3, NO_PARENT, 5]
    assert all(s.end_ns >= s.start_ns for s in spans)
    assert _Engine.run is original_run and helpers.double is original_double
    assert "step" not in vars(_Child)


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    holder = types.SimpleNamespace(boom=boom)
    with tracer:
        tracer.wrap(holder, "boom", "boom")
        with pytest.raises(ValueError):
            holder.boom()
        with tracer.span("after"):
            pass
    first, after = tracer.spans()
    assert first.end_ns > 0 and after.parent == NO_PARENT
