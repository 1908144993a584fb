"""The bytes of the span and event exports, and the layout of their records.

Every JSONL line the tracer and the event log export must equal
``json.dumps(row.as_dict(), sort_keys=True) + "\\n"``, the encoding
written out here as the reference.  Hypothesis drives both exports with
attrs that stress the encoder (non-ASCII and control characters, NaN,
infinities, negative zero, nesting), and a traced tiered-serving cell
checks a run bundle's ``trace.jsonl``, ``events.jsonl`` and
``report.json`` against the same run's tracer, event log and report.

A run keeps every span and event record until export, so the layout of
one record is pinned too: no per-instance ``__dict__``, and no event
list on a span that never got an event.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.campaign import RunSpec, orchestrator
from repro.obs import EventLog, Span, Tracer, json_report

#: Keyword names the emit/add_event signatures take themselves.
_RESERVED = {"self", "span", "name", "subsystem", "severity", "trace_id"}

_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, float("nan"), float("inf"), float("-inf")]
)
_texts = st.text() | st.sampled_from(
    ["", "\u00e9 \u00fc \u00df", "\x00\x1f\x7f", "\u2028\u2029", "\U0001f697", '"\\']
)
_scalars = st.none() | st.booleans() | st.integers() | _floats | _texts
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_texts, inner, max_size=3),
    max_leaves=8,
)
_attrs = st.dictionaries(_texts.filter(lambda key: key not in _RESERVED), _values, max_size=4)

_span_step = st.fixed_dictionaries(
    {
        "time": _floats,
        "name": _texts,
        "subsystem": _texts,
        "attrs": _attrs,
        "parent": st.none() | st.integers(min_value=0),
        "events": st.lists(st.tuples(_floats, _texts, _attrs), max_size=3),
        "links": st.lists(st.integers(min_value=0), max_size=3),
        "end": st.none() | st.tuples(_floats, _texts, _attrs),
    }
)

_event_step = st.tuples(
    _floats,
    _texts,
    _texts,
    st.sampled_from(["debug", "info", "warning", "error"]),
    st.none() | _texts,
    _attrs,
)


def _reference(rows) -> bytes:
    return "".join(json.dumps(row.as_dict(), sort_keys=True) + "\n" for row in rows).encode(
        "utf-8"
    )


def _read(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


#: Without the explain phase: on these nested strategies it adds over a
#: minute to a failing run and nothing to a passing one.
_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink),
)


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestExportBytes:
    @_SETTINGS
    @given(steps=st.lists(_span_step, max_size=6))
    def test_trace_export_equals_reference_encoding(self, tmp_path_factory, steps):
        clock = _Clock()
        tracer = Tracer(clock)
        spans = []
        for step in steps:
            clock.now = step["time"]
            parent = None
            if spans and step["parent"] is not None:
                parent = spans[step["parent"] % len(spans)]
            span = tracer.start_span(
                step["name"], step["subsystem"], parent=parent, attrs=step["attrs"]
            )
            for time, name, attrs in step["events"]:
                clock.now = time
                tracer.add_event(span, name, **attrs)
            for target in step["links"]:
                tracer.link(span, spans[target % len(spans)] if spans else span)
            if step["end"] is not None:
                clock.now, status, attrs = step["end"]
                tracer.end_span(span, status, attrs)
            spans.append(span)
        path = tmp_path_factory.getbasetemp() / "trace.jsonl"
        assert tracer.export_jsonl(str(path)) == len(spans)
        assert _read(path) == _reference(tracer.spans())

    @_SETTINGS
    @given(steps=st.lists(_event_step, max_size=8))
    def test_event_export_equals_reference_encoding(self, tmp_path_factory, steps):
        clock = _Clock()
        log = EventLog(clock)
        for time, subsystem, name, severity, trace_id, attrs in steps:
            clock.now = time
            log.emit(subsystem, name, severity, trace_id, **attrs)
        path = tmp_path_factory.getbasetemp() / "events.jsonl"
        assert log.export_jsonl(str(path)) == len(steps)
        assert _read(path) == _reference(log.records())

    def test_empty_exports_write_empty_files(self, tmp_path):
        assert Tracer(_Clock()).export_jsonl(str(tmp_path / "t.jsonl")) == 0
        assert EventLog(_Clock()).export_jsonl(str(tmp_path / "e.jsonl")) == 0
        assert _read(tmp_path / "t.jsonl") == b"" == _read(tmp_path / "e.jsonl")

    def test_traced_tiered_cell_bundle_equals_reference_encoding(self, tmp_path, monkeypatch):
        built = []
        build_scenario = orchestrator.build_scenario

        def keep(spec):
            built.append(build_scenario(spec))
            return built[-1]

        monkeypatch.setattr(orchestrator, "build_scenario", keep)
        spec = RunSpec(
            campaign="export",
            architecture="tiered",
            workload="serving",
            fault_profile="backhaul",
            mobility="stationary",
            seed=1,
            members=8,
            run_length_s=8.0,
            drain_s=4.0,
        )
        outcome = orchestrator.execute_run(spec, str(tmp_path))
        (scenario,) = built
        world = scenario.world
        spans = world.tracer.spans()
        # The cell exercises every part of a span line.
        assert any(span.events for span in spans) and any(span.links for span in spans)
        assert len(world.events) > 0

        bundle = outcome.artifact_dir
        assert _read(os.path.join(bundle, "trace.jsonl")) == _reference(spans)
        assert _read(os.path.join(bundle, "events.jsonl")) == _reference(world.events.records())
        report = json_report(
            metrics=world.metrics,
            tracer=world.tracer,
            events=world.events,
            meta={"run": spec.as_dict(), "key": spec.key, "digest": outcome.digest},
            serving=scenario.gateway,
            dag=scenario.dag_scheduler,
        )
        expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert _read(os.path.join(bundle, "report.json")) == expected.encode("utf-8")


class TestRecordLayout:
    def test_tracer_made_span_has_no_instance_dict(self):
        span = Tracer(_Clock()).start_span("op", "test")
        assert not hasattr(span, "__dict__")
        with pytest.raises(AttributeError):
            span.undeclared = 1

    def test_span_without_events_holds_no_list(self):
        tracer = Tracer(_Clock())
        spans = [tracer.start_span("op", "test") for _ in range(3)]
        for span in spans:
            assert not isinstance(span.events, list)
            assert len(span.events) == 0 and span.links == ()
        assert span.as_dict()["events"] == []

    def test_first_event_makes_the_list_and_later_events_append(self):
        clock = _Clock()
        tracer = Tracer(clock)
        span = tracer.start_span("op", "test")
        tracer.add_event(span, "first", n=1)
        events = span.events
        assert isinstance(events, list)
        clock.now = 2.0
        tracer.add_event(span, "second")
        assert span.events is events
        assert [(e.time, e.name, dict(e.attrs)) for e in events] == [
            (0.0, "first", {"n": 1}),
            (2.0, "second", {}),
        ]
        # Other spans still share no list with this one.
        assert not isinstance(tracer.start_span("other").events, list)

    def test_records_are_immutable_and_have_no_instance_dict(self):
        clock = _Clock()
        tracer = Tracer(clock)
        span = tracer.start_span("op")
        tracer.add_event(span, "tick")
        record = EventLog(clock).emit("test", "happened", attr=1)
        for value in (record, span.events[0]):
            assert not hasattr(value, "__dict__")
            with pytest.raises(AttributeError):
                value.name = "changed"

    def test_span_keeps_its_constructor_keywords_and_defaults(self):
        span = Span(span_id="s9", trace_id="t9", name="op", subsystem="test", start=1.0)
        assert (span.parent_id, span.end, span.status, span.attrs, span.links) == (
            None,
            None,
            "open",
            {},
            (),
        )
        assert len(span.events) == 0 and span.duration_s is None and not span.ended
        assert span.attrs is not Span("s10", "t9", "op", "test", 1.0).attrs
        closed = Span("s11", "t9", "op", "test", 1.0, "s9", 3.5, "ok", {"a": 1}, [], ("s9",))
        assert closed.duration_s == 2.5 and closed.context == ("t9", "s11")
