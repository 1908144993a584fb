"""Tests for the observability layer: tracing, events, profiling, exporters.

The load-bearing guarantees under test:

* span lifecycle / causal links / fault windows behave as documented;
* trace contexts survive message copies (``forwarded_by``, handover);
* the channel and the v-cloud emit the right spans with the right
  outcomes, and a degraded storage read links back to the fault that
  caused it (the E12 post-mortem question);
* attaching the full observability stack leaves the seeded metrics of a
  run byte-identical — the determinism contract;
* exporters render well-formed Prometheus text, JSON reports and JSONL.
"""

from __future__ import annotations

import json

import pytest

from repro.core import (
    QuorumConfig,
    ResourceOffer,
    Task,
    TaskState,
    VehicularCloud,
)
from repro.faults import FaultInjector, FaultPlan
from repro.geometry import Vec2
from repro.ids import reset_global_ids
from repro.mobility import Highway, HighwayModel, StationaryModel
from repro.net import (
    BeaconService,
    FixedNode,
    VehicleNode,
    WirelessChannel,
    data_message,
    hello_message,
)
from repro.obs import (
    CHANNEL_FRAME_MODES,
    EventLog,
    Profiler,
    Tracer,
    dag_ledger,
    json_report,
    prometheus_text,
    sanitize_metric_name,
    serving_ledger,
    trace_context_of,
    write_json_report,
)
from repro.sim import ChannelConfig, MetricsRegistry, ScenarioConfig, World


def make_tracer(clock_value: float = 0.0, **kwargs) -> Tracer:
    holder = {"now": clock_value}
    tracer = Tracer(clock=lambda: holder["now"], **kwargs)
    tracer.set_time = lambda t: holder.__setitem__("now", t)  # type: ignore[attr-defined]
    return tracer


class TestTracerLifecycle:
    def test_root_span_starts_new_trace(self):
        tracer = make_tracer()
        span = tracer.start_span("task.lifecycle", subsystem="vcloud")
        assert span.trace_id == "t1" and span.span_id == "s1"
        assert span.parent_id is None and not span.ended
        assert span in tracer.roots()

    def test_child_inherits_trace_from_span_parent(self):
        tracer = make_tracer()
        root = tracer.start_span("root")
        child = tracer.start_span("child", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert tracer.trace(root.trace_id) == [root, child]

    def test_child_from_context_tuple(self):
        tracer = make_tracer()
        root = tracer.start_span("root")
        child = tracer.start_span("child", parent=root.context)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_end_span_is_first_close_wins(self):
        tracer = make_tracer()
        span = tracer.start_span("op")
        tracer.set_time(2.0)
        tracer.end_span(span, "ok", {"a": 1})
        tracer.set_time(5.0)
        tracer.end_span(span, "error", {"a": 2})
        assert span.end == 2.0 and span.status == "ok" and span.attrs == {"a": 1}
        assert span.duration_s == 2.0 and span.ended

    def test_events_are_timestamped(self):
        tracer = make_tracer()
        span = tracer.start_span("op")
        tracer.set_time(1.5)
        tracer.add_event(span, "lost", attempt=2)
        assert span.events[0].time == 1.5
        assert span.events[0].attrs == {"attempt": 2}

    def test_link_deduplicates(self):
        tracer = make_tracer()
        a = tracer.start_span("a")
        b = tracer.start_span("b")
        tracer.link(a, b, b.span_id)
        tracer.link(a, b)
        assert a.links == (b.span_id,)

    def test_max_spans_drops_explicitly(self):
        tracer = make_tracer(max_spans=2)
        kept = [tracer.start_span(f"k{i}") for i in range(2)]
        extra = tracer.start_span("extra")
        assert len(tracer) == 2
        assert tracer.dropped_spans == 1
        assert tracer.get(extra.span_id) is None
        assert all(tracer.get(s.span_id) is not None for s in kept)

    def test_fault_spans_retained_past_cap(self):
        tracer = make_tracer(max_spans=1)
        tracer.start_span("filler")
        fault = tracer.start_span("fault.crash", subsystem="faults")
        assert tracer.get(fault.span_id) is None
        tracer.activate_fault(fault)
        assert tracer.get(fault.span_id) is fault

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            make_tracer(max_spans=0)
        with pytest.raises(ValueError):
            make_tracer(channel_frames="sometimes")


class TestFaultWindows:
    def test_active_until_expiry(self):
        tracer = make_tracer()
        fault = tracer.start_span("fault.partition", subsystem="faults")
        tracer.activate_fault(fault, until=10.0)
        tracer.set_time(10.0)
        assert tracer.active_fault_spans() == [fault]
        tracer.set_time(10.5)
        assert tracer.active_fault_spans() == []

    def test_open_ended_until_deactivated(self):
        tracer = make_tracer()
        fault = tracer.start_span("fault.crash", subsystem="faults")
        tracer.activate_fault(fault, until=None)
        tracer.set_time(1e9)
        assert tracer.active_fault_spans() == [fault]
        tracer.deactivate_fault(fault)
        tracer.deactivate_fault(fault)  # idempotent
        assert tracer.active_fault_spans() == []

    def test_link_active_faults_returns_count(self):
        tracer = make_tracer()
        f1 = tracer.start_span("fault.crash", subsystem="faults")
        f2 = tracer.start_span("fault.loss_burst", subsystem="faults")
        tracer.activate_fault(f1)
        tracer.activate_fault(f2, until=5.0)
        victim = tracer.start_span("storage.read")
        assert tracer.link_active_faults(victim) == 2
        assert set(victim.links) == {f1.span_id, f2.span_id}
        tracer.set_time(6.0)
        other = tracer.start_span("storage.read")
        assert tracer.link_active_faults(other) == 1


class TestTracerQueries:
    def test_ancestry_and_explain(self):
        tracer = make_tracer()
        root = tracer.start_span("task.lifecycle")
        execute = tracer.start_span("task.execute", parent=root)
        fault = tracer.start_span("fault.crash", subsystem="faults")
        tracer.link(execute, fault)
        assert tracer.ancestry(execute) == [root]
        chain = tracer.explain(execute)
        assert chain == [execute, root, fault]

    def test_ancestry_tolerates_missing_parent(self):
        tracer = make_tracer(max_spans=1)
        root = tracer.start_span("root")
        dropped = tracer.start_span("dropped", parent=root)  # not retained
        grandchild = tracer.start_span("leaf", parent=dropped)
        assert tracer.ancestry(grandchild) == []

    def test_find_by_prefix_and_subsystem(self):
        tracer = make_tracer()
        tracer.start_span("storage.read", subsystem="vcloud")
        tracer.start_span("storage.write", subsystem="vcloud")
        tracer.start_span("msg.unicast", subsystem="net")
        assert len(tracer.find("storage.")) == 2
        assert len(tracer.find(subsystem="net")) == 1
        assert tracer.find("storage.read", subsystem="net") == []

    def test_render_trace_shows_tree_links_and_events(self):
        tracer = make_tracer()
        root = tracer.start_span("task.lifecycle", attrs={"task_id": "task-1"})
        child = tracer.start_span("task.execute", parent=root)
        tracer.add_event(child, "assignment_retry", attempt=1)
        fault = tracer.start_span("fault.crash", subsystem="faults")
        tracer.link(child, fault)
        tracer.set_time(4.0)
        tracer.end_span(child, "handover")
        rendered = tracer.render_trace(root.trace_id)
        assert f"trace {root.trace_id}" in rendered
        assert "task.lifecycle (open) task_id=task-1" in rendered
        assert "task.execute (handover)" in rendered
        assert f"~> {fault.span_id}" in rendered
        assert "@ 0.000 assignment_retry attempt=1" in rendered
        assert tracer.render_trace("t999").startswith("<empty trace")

    def test_trace_summaries(self):
        tracer = make_tracer()
        root = tracer.start_span("job")
        child = tracer.start_span("step", parent=root)
        tracer.link(child, tracer.start_span("fault.stall", subsystem="faults"))
        tracer.set_time(3.0)
        tracer.end_span(child, "degraded")
        summary = next(
            s for s in tracer.trace_summaries() if s["trace_id"] == root.trace_id
        )
        assert summary["root"] == "job" and summary["spans"] == 2
        assert summary["statuses"] == {"open": 1, "degraded": 1}
        assert summary["start"] == 0.0 and summary["end"] == 3.0
        assert summary["linked_faults"] == 1

    def test_export_jsonl(self, tmp_path):
        tracer = make_tracer()
        span = tracer.start_span("op", attrs={"k": "v"})
        tracer.end_span(span, "ok")
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(str(path)) == 1
        (line,) = path.read_text().splitlines()
        record = json.loads(line)
        assert record["span_id"] == span.span_id
        assert record["status"] == "ok" and record["attrs"] == {"k": "v"}


class TestTraceContextThreading:
    def test_with_trace_and_trace_id(self):
        tracer = make_tracer()
        span = tracer.start_span("journey")
        message = data_message("a", "b", 100, 0.0).with_trace(span.context)
        assert message.trace_ctx == (span.trace_id, span.span_id)
        assert message.trace_id == span.trace_id

    def test_forwarded_copy_preserves_context(self):
        message = data_message("a", "b", 100, 0.0, ttl_hops=3).with_trace(("t1", "s1"))
        hopped = message.forwarded_by("relay-1").forwarded_by("relay-2")
        assert hopped.trace_ctx == ("t1", "s1")
        assert hopped.with_payload(extra=1).trace_ctx == ("t1", "s1")

    def test_untraced_message_defaults(self):
        message = data_message("a", "b", 100, 0.0)
        assert message.trace_ctx is None and message.trace_id is None

    def test_trace_context_of_normalizes(self):
        tracer = make_tracer()
        span = tracer.start_span("x")
        assert trace_context_of(None) is None
        assert trace_context_of(span) == span.context
        assert trace_context_of(("t9", "s9")) == ("t9", "s9")

    def test_wants_frame_modes(self):
        tagged = data_message("a", "b", 100, 0.0).with_trace(("t1", "s1"))
        plain = hello_message("a", (0, 0), 0.0, 0.0, 0.0)
        assert CHANNEL_FRAME_MODES == ("tagged", "all", "off")
        by_mode = {
            mode: make_tracer(channel_frames=mode) for mode in CHANNEL_FRAME_MODES
        }
        assert by_mode["tagged"].wants_frame(tagged)
        assert not by_mode["tagged"].wants_frame(plain)
        assert by_mode["all"].wants_frame(plain)
        assert not by_mode["off"].wants_frame(tagged)


class TestEventLog:
    def make_log(self, **kwargs) -> EventLog:
        return EventLog(clock=lambda: 1.0, **kwargs)

    def test_emit_and_query(self):
        log = self.make_log()
        log.emit("vcloud", "task_submitted", task_id="task-1")
        log.emit("vcloud", "task_failed", severity="error", task_id="task-2")
        log.emit("faults", "crash", severity="warning", target="veh-3")
        assert len(log) == 3
        assert [r.name for r in log.query(subsystem="vcloud")] == [
            "task_submitted",
            "task_failed",
        ]
        assert log.query(severity="error")[0].attrs == {"task_id": "task-2"}
        assert log.query(subsystem="vcloud", name="crash") == []
        assert log.count_by_severity() == {"info": 1, "error": 1, "warning": 1}

    def test_min_severity_suppresses(self):
        log = self.make_log(min_severity="warning")
        assert log.emit("net", "chatter", severity="debug") is None
        assert log.emit("net", "chatter") is None  # info
        assert log.emit("net", "trouble", severity="warning") is not None
        assert log.suppressed == 2 and len(log) == 1

    def test_ring_evicts_oldest(self):
        log = self.make_log(max_events=2)
        for index in range(4):
            log.emit("s", f"e{index}")
        assert [r.name for r in log.records()] == ["e2", "e3"]
        assert log.evicted == 2

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            self.make_log(max_events=0)
        with pytest.raises(ValueError):
            self.make_log(min_severity="loud")
        log = self.make_log()
        with pytest.raises(ValueError):
            log.emit("s", "e", severity="loud")

    def test_export_jsonl(self, tmp_path):
        log = self.make_log()
        log.emit("vcloud", "task_submitted", trace_id="t1", task_id="task-1")
        path = tmp_path / "events.jsonl"
        assert log.export_jsonl(str(path)) == 1
        record = json.loads(path.read_text())
        assert record == {
            "time": 1.0,
            "subsystem": "vcloud",
            "name": "task_submitted",
            "severity": "info",
            "attrs": {"task_id": "task-1"},
            "trace_id": "t1",
        }


class TestProfiler:
    def test_record_aggregates(self):
        profiler = Profiler()
        profiler.record("beacon", 0.002)
        profiler.record("beacon", 0.004)
        profiler.record("frame-delivery", 0.001)
        beacon = profiler.profile("beacon")
        assert beacon.count == 2
        assert beacon.total_s == pytest.approx(0.006)
        assert beacon.mean_s == pytest.approx(0.003)
        assert beacon.max_s == pytest.approx(0.004)
        assert profiler.total_events == 3
        assert profiler.total_wall_s == pytest.approx(0.007)
        assert [p.label for p in profiler.profiles()] == ["beacon", "frame-delivery"]

    def test_measure_context_manager(self):
        profiler = Profiler()
        with profiler.measure("block"):
            pass
        assert profiler.profile("block").count == 1
        assert profiler.profile("block").total_s >= 0.0

    def test_unknown_label_is_zeroed(self):
        assert Profiler().profile("nothing").mean_s == 0.0

    def test_render_is_a_table(self):
        profiler = Profiler()
        profiler.record("beacon", 0.001)
        rendered = profiler.render()
        assert "label" in rendered and "-+-" in rendered and "beacon" in rendered


class TestWorldAndEngineIntegration:
    def test_enable_observability_wires_engine(self):
        world = World(ScenarioConfig(seed=5))
        obs = world.enable_observability(profile=True)
        assert world.tracer is obs.tracer is world.engine.tracer
        assert world.profiler is obs.profiler is world.engine.profiler
        assert world.events is obs.events is not None

    def test_observability_defaults_off(self):
        world = World(ScenarioConfig(seed=5))
        assert world.tracer is None and world.events is None
        assert world.profiler is None

    def test_profiler_records_event_labels(self):
        world = World(ScenarioConfig(seed=5))
        obs = world.enable_observability(profile=True)
        world.engine.schedule(1.0, lambda: None, label="tick")
        world.engine.schedule(2.0, lambda: None)
        world.run_for(5.0)
        assert obs.profiler is not None
        assert obs.profiler.profile("tick").count == 1
        assert obs.profiler.profile("<unlabelled>").count == 1

    def test_recorded_failure_becomes_span_and_event(self):
        world = World(ScenarioConfig(seed=5, error_policy="record"))
        obs = world.enable_observability()

        def boom() -> None:
            raise RuntimeError("kaput")

        world.engine.schedule(1.0, boom, label="fragile")
        world.run_for(2.0)
        assert len(world.engine.failures) == 1
        (span,) = obs.tracer.find("engine.failure")
        assert span.status == "error"
        assert span.attrs["label"] == "fragile"
        (event,) = obs.events.query(subsystem="engine")
        assert event.severity == "error"
        assert event.attrs["error"] == "RuntimeError: kaput"


def lossless_world(seed: int = 7) -> World:
    config = ChannelConfig(base_loss_probability=0.0, loss_per_100m=0.0)
    return World(ScenarioConfig(seed=seed, channel=config))


class TestChannelSpans:
    def fixed_pair(self, world, distance_m: float = 50.0):
        channel = WirelessChannel(world)
        a = FixedNode(world, channel, "a", Vec2(0, 0), 300.0)
        b = FixedNode(world, channel, "b", Vec2(distance_m, 0), 300.0)
        return channel, a, b

    def test_unicast_delivered_span(self):
        world = lossless_world()
        obs = world.enable_observability()
        channel, _a, _b = self.fixed_pair(world)
        root = obs.tracer.start_span("journey")
        message = data_message("a", "b", 100, world.now).with_trace(root.context)
        assert channel.unicast("a", "b", message)
        world.run_for(1.0)
        (span,) = obs.tracer.find("msg.unicast")
        assert span.status == "delivered"
        assert span.trace_id == root.trace_id and span.parent_id == root.span_id
        assert span.attrs["src"] == "a" and span.attrs["dst"] == "b"
        assert span.attrs["latency_s"] > 0.0

    def test_unicast_unreachable_span(self):
        world = lossless_world()
        obs = world.enable_observability()
        channel, _a, _b = self.fixed_pair(world, distance_m=10_000.0)
        message = data_message("a", "b", 100, world.now).with_trace(("t1", "s1"))
        assert not channel.unicast("a", "b", message)
        (span,) = obs.tracer.find("msg.unicast")
        assert span.status == "dropped" and span.attrs["reason"] == "unreachable"

    def test_unicast_lost_span(self):
        world = lossless_world()
        obs = world.enable_observability()
        channel, _a, _b = self.fixed_pair(world)
        # Force the loss branch deterministically: every transmission of
        # this frame fails the link-loss draw.
        channel._loss_probability = lambda distance_m: 1.0
        message = data_message("a", "b", 100, world.now).with_trace(("t1", "s1"))
        channel.unicast("a", "b", message)
        world.run_for(1.0)
        (span,) = obs.tracer.find("msg.unicast")
        assert span.status == "dropped" and span.attrs["reason"] == "loss"
        assert [e.name for e in span.events] == ["lost"]

    def test_broadcast_parent_and_delivery_children(self):
        world = lossless_world()
        obs = world.enable_observability()
        channel, _a, _b = self.fixed_pair(world)
        FixedNode(world, channel, "c", Vec2(0, 50.0), 300.0)
        message = data_message("a", "*", 100, world.now).with_trace(("t1", "s1"))
        assert channel.broadcast("a", message) == 2
        world.run_for(1.0)
        (parent,) = obs.tracer.find("msg.broadcast")
        children = obs.tracer.find("msg.delivery")
        assert parent.status == "ok" and parent.attrs["receivers"] == 2
        assert len(children) == 2
        assert {c.parent_id for c in children} == {parent.span_id}
        assert all(c.status == "delivered" for c in children)

    def test_tagged_mode_skips_plain_frames(self):
        world = lossless_world()
        obs = world.enable_observability()  # channel_frames="tagged"
        channel, _a, _b = self.fixed_pair(world)
        channel.unicast("a", "b", data_message("a", "b", 100, world.now))
        world.run_for(1.0)
        assert obs.tracer.find("msg.") == []
        assert world.metrics.counter("channel/frames_delivered") == 1

    def test_all_mode_traces_everything(self):
        world = lossless_world()
        obs = world.enable_observability(channel_frames="all")
        channel, _a, _b = self.fixed_pair(world)
        channel.unicast("a", "b", data_message("a", "b", 100, world.now))
        world.run_for(1.0)
        (span,) = obs.tracer.find("msg.unicast")
        assert span.status == "delivered"
        assert span.parent_id is None  # untraced message roots its own trace


def make_storage_cloud(world, members: int = 5):
    model = StationaryModel(
        world, positions=[Vec2(index * 30.0, 0) for index in range(members)]
    )
    vehicles = model.populate(members)
    cloud = VehicularCloud(world, "obs-vc")
    for vehicle in vehicles:
        cloud.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, 1000.0, 10**9, 1e6))
    return vehicles, cloud


class TestVCloudTaskSpans:
    def test_completed_task_trace(self):
        world = World(ScenarioConfig(seed=11))
        obs = world.enable_observability()
        _vehicles, cloud = make_storage_cloud(world, members=3)
        record = cloud.submit(Task(work_mi=500.0, deadline_s=30.0))
        root = cloud.task_span(record.task.task_id)
        assert root is not None and root.name == "task.lifecycle"
        world.run_for(30.0)
        assert record.state is TaskState.COMPLETED
        assert root.status == "ok" and root.attrs["met_deadline"] is True
        assert root.attrs["latency_s"] == pytest.approx(record.completion_latency_s)
        (execute,) = [
            s for s in obs.tracer.trace(root.trace_id) if s.name == "task.execute"
        ]
        assert execute.parent_id == root.span_id and execute.status == "ok"
        assert cloud.task_span(record.task.task_id) is None  # popped on completion
        names = [e.name for e in obs.events.query(subsystem="vcloud")]
        assert names == ["task_submitted", "task_completed"]

    def test_crash_handover_links_fault(self):
        world = World(ScenarioConfig(seed=21, error_policy="record"))
        obs = world.enable_observability()
        _vehicles, cloud = make_storage_cloud(world, members=4)
        cloud.enable_worker_leases(lease_duration_s=3.0, sweep_interval_s=1.0)
        record = cloud.submit(Task(work_mi=10_000.0))
        trace_id = cloud.task_span(record.task.task_id).trace_id
        # The record's worker_id moves on after requeue; the crash hit
        # the original assignee.
        crashed_worker = record.worker_id
        plan = FaultPlan(seed=9).crash(5.0, target=crashed_worker)
        FaultInjector(world, plan, cloud=cloud).arm()
        world.run_for(60.0)
        assert record.state is TaskState.COMPLETED
        interrupted = next(
            s for s in obs.tracer.trace(trace_id) if s.name == "task.execute" and s.links
        )
        assert interrupted.status == "handover"
        causes = [
            s for s in obs.tracer.explain(interrupted) if s.subsystem == "faults"
        ]
        assert causes and causes[0].name == "fault.crash"
        assert causes[0].status == "injected"
        assert causes[0].attrs["target"] == crashed_worker


class TestStorageSpans:
    def test_put_and_read_spans(self):
        world = World(ScenarioConfig(seed=3))
        obs = world.enable_observability()
        _vehicles, cloud = make_storage_cloud(world)
        cloud.enable_replicated_storage(quorum=QuorumConfig.majority(3))
        cloud.store_put("f1", 1000, target_replicas=3)
        cloud.store_write("f1", writer="head")
        assert cloud.store_read("f1") is not None
        (put,) = obs.tracer.find("storage.put")
        (write,) = obs.tracer.find("storage.write")
        (read,) = obs.tracer.find("storage.read")
        assert put.status == "ok" and put.attrs["replicas"] == 3
        assert write.status == "ok" and write.attrs["version"] >= 1
        assert read.status == "ok"
        assert read.attrs["version"] == write.attrs["version"]
        assert read.attrs["contacted"] >= 2

    def test_degraded_read_links_to_causing_fault(self):
        """Acceptance criterion: walk a degraded read back to its fault."""
        world = World(ScenarioConfig(seed=3, error_policy="record"))
        obs = world.enable_observability()
        _vehicles, cloud = make_storage_cloud(world)
        cloud.enable_replicated_storage(quorum=QuorumConfig.majority(3))
        cloud.store_put("f1", 1000, target_replicas=3)
        holders = cloud.storage.holders_of("f1")
        plan = FaultPlan(seed=5)
        plan.crash(1.0, target=holders[0])
        plan.crash(2.0, target=holders[1])
        FaultInjector(world, plan, cloud=cloud).arm()
        world.run_for(3.0)
        assert cloud.store_read("f1") is None
        read = next(s for s in obs.tracer.find("storage.read"))
        assert read.status == "degraded"
        assert read.attrs["reason"] == "quorum_unreachable"
        causes = [s for s in obs.tracer.explain(read) if s.subsystem == "faults"]
        assert len(causes) == 2
        assert all(c.name == "fault.crash" for c in causes)
        assert {c.attrs["target"] for c in causes} == set(holders[:2])
        (event,) = obs.events.query(subsystem="vcloud", name="storage_degraded")
        assert event.severity == "error" and event.attrs["file_id"] == "f1"


def seeded_scenario_snapshot(observability: bool):
    """Run one seeded beaconing + v-cloud + faults scene; return the snapshot."""
    # Vehicle ids seed per-node RNG forks, so rewind the id counters to
    # make back-to-back runs comparable (the E13 pattern).
    reset_global_ids()
    world = World(ScenarioConfig(seed=4242, vehicle_count=15, error_policy="record"))
    if observability:
        world.enable_observability(profile=True, channel_frames="all")
    model = HighwayModel(world, Highway(length_m=2000))
    model.populate(15)
    model.start()
    channel = WirelessChannel(world)
    nodes = [VehicleNode(world, channel, vehicle) for vehicle in model.vehicles]
    for node in nodes:
        BeaconService(world, node).start()
    cloud = VehicularCloud(world, "det-vc")
    for vehicle in model.vehicles[:6]:
        cloud.admit(vehicle, offer=ResourceOffer(vehicle.vehicle_id, 500.0, 10**9, 1e6))
    for index in range(5):
        world.engine.schedule_at(
            index * 3.0,
            lambda: cloud.submit(Task(work_mi=1000.0, deadline_s=30.0)),
            label="submit",
        )
    plan = FaultPlan(seed=77).crash(8.0).loss_burst(
        at=12.0, duration_s=4.0, drop_probability=0.5
    )
    FaultInjector(world, plan, cloud=cloud, channel=channel).arm()
    world.run_for(30.0)
    return world.metrics.snapshot()


class TestDeterminismContract:
    def test_observability_does_not_perturb_seeded_metrics(self):
        baseline = seeded_scenario_snapshot(observability=False)
        observed = seeded_scenario_snapshot(observability=True)
        assert observed == baseline
        # The comparison must not be vacuous: the scene really ran.
        assert baseline["counter/channel/frames_sent"] > 0
        assert baseline["counter/faults/injected"] >= 1


class TestExporters:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("channel/frames_sent") == "channel_frames_sent"
        assert sanitize_metric_name("lat", "repro") == "repro_lat"
        assert sanitize_metric_name("9lives")[0] == "_"

    def test_prometheus_text_sections(self):
        metrics = MetricsRegistry()
        metrics.increment("channel/frames_sent", 3)
        metrics.set_gauge("members", 5.0)
        for value in (1.0, 2.0, 3.0):
            metrics.observe("latency_s", value)
        metrics.observe_at("queue", 2.5, 7.0)
        text = prometheus_text(metrics, namespace="repro")
        assert "# TYPE repro_channel_frames_sent counter" in text
        assert "repro_channel_frames_sent 3" in text
        assert "# TYPE repro_members gauge" in text
        assert 'repro_latency_s{quantile="0.5"} 2.0' in text
        assert "repro_latency_s_sum 6.0" in text
        assert "repro_latency_s_count 3" in text
        # Timelines surface as a last-value gauge with a ms timestamp.
        assert "repro_queue_last 7 2500" in text
        assert text.endswith("\n")

    def test_json_report_sections(self):
        metrics = MetricsRegistry(max_samples_per_series=1)
        metrics.increment("a", 2)
        metrics.observe("s", 1.0)
        metrics.observe("s", 2.0)
        tracer = make_tracer()
        tracer.end_span(tracer.start_span("op"))
        events = EventLog(clock=lambda: 0.0)
        events.emit("vcloud", "task_submitted")
        profiler = Profiler()
        profiler.record("tick", 0.001)
        report = json_report(
            metrics=metrics,
            tracer=tracer,
            events=events,
            profiler=profiler,
            meta={"seed": 7},
        )
        assert report["meta"] == {"seed": 7}
        assert report["metrics"]["counters"] == {"a": 2.0}
        assert report["metrics"]["truncations"] == {"s": 1}
        assert report["traces"]["spans"] == 1
        assert report["traces"]["summaries"][0]["root"] == "op"
        assert report["events"]["records"] == 1
        assert report["profile"]["total_events"] == 1

    def test_json_report_omits_absent_parts(self):
        report = json_report()
        assert set(report) == {"meta"}

    def test_write_json_report_roundtrips(self, tmp_path):
        metrics = MetricsRegistry()
        metrics.increment("a")
        path = tmp_path / "report.json"
        written = write_json_report(str(path), metrics=metrics, meta={"run": "x"})
        assert json.loads(path.read_text()) == written

    def test_traced_run_exports_well_formed_jsonl(self, tmp_path):
        """The CI smoke contract: every exported line is a full span record."""
        world = World(ScenarioConfig(seed=11))
        obs = world.enable_observability()
        _vehicles, cloud = make_storage_cloud(world, members=3)
        cloud.submit(Task(work_mi=500.0, deadline_s=30.0))
        world.run_for(30.0)
        path = tmp_path / "trace.jsonl"
        exported = obs.tracer.export_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert exported == len(lines) > 0
        required = {
            "span_id",
            "trace_id",
            "parent_id",
            "name",
            "subsystem",
            "start",
            "end",
            "status",
            "attrs",
            "events",
            "links",
        }
        for line in lines:
            record = json.loads(line)
            assert required <= set(record)


class TestExporterEdgeCases:
    def test_empty_registry_prometheus_text(self):
        text = prometheus_text(MetricsRegistry())
        assert text == "\n"

    def test_empty_registry_json_report(self):
        report = json_report(metrics=MetricsRegistry())
        assert report["metrics"] == {
            "counters": {},
            "gauges": {},
            "series": {},
            "timelines": {},
            "truncations": {},
        }

    def test_sanitization_collisions_keep_both_rows(self):
        # "a/b" and "a_b" flatten to the same Prometheus name; both rows
        # must still be rendered (the registry, not the exporter, owns
        # name uniqueness).
        metrics = MetricsRegistry()
        metrics.increment("a/b", 1)
        metrics.increment("a_b", 2)
        text = prometheus_text(metrics, namespace="repro")
        assert text.count("# TYPE repro_a_b counter") == 2
        assert "repro_a_b 1" in text
        assert "repro_a_b 2" in text

    def test_truncated_series_dropped_spans_and_suppressed(self):
        metrics = MetricsRegistry(max_samples_per_series=2)
        for value in (1.0, 2.0, 3.0, 4.0):
            metrics.observe("lat", value)
        tracer = make_tracer(max_spans=1)
        tracer.end_span(tracer.start_span("kept"))
        tracer.end_span(tracer.start_span("dropped"))
        events = EventLog(clock=lambda: 0.0, min_severity="warning")
        events.emit("vcloud", "quiet", severity="debug")
        events.emit("vcloud", "loud", severity="error")
        report = json_report(metrics=metrics, tracer=tracer, events=events)
        assert report["metrics"]["truncations"] == {"lat": 2}
        # The summary covers the retained window; truncations carry the rest.
        assert report["metrics"]["series"]["lat"]["count"] == 2
        assert report["traces"]["spans"] == 1
        assert report["traces"]["dropped_spans"] == 1
        assert report["events"]["records"] == 1
        assert report["events"]["suppressed"] == 1


class TestLedgers:
    def _serving_world(self):
        from repro.serve import ServiceGateway

        world = World(ScenarioConfig(seed=23))
        _vehicles, cloud = make_storage_cloud(world, members=3)
        gateway = ServiceGateway(world, cloud, name="ledger", queue_capacity=8)
        return world, gateway

    def test_serving_ledger_shape_and_conservation(self):
        from repro.serve import ServiceRequest

        world, gateway = self._serving_world()
        for _index in range(4):
            gateway.submit(ServiceRequest(task=Task(work_mi=100.0, deadline_s=10.0)))
        world.run_for(20.0)
        ledger = serving_ledger(gateway)
        assert ledger["name"] == "ledger"
        accounting = ledger["accounting"]
        assert accounting["offered"] == accounting["admitted"] + accounting["rejected"]
        assert accounting["admitted"] == (
            accounting["completed"]
            + accounting["failed"]
            + accounting["shed"]
            + accounting["queued"]
            + accounting["inflight"]
        )
        assert ledger["slo"]["hits"] + ledger["slo"]["misses"] == accounting["completed"]
        assert ledger["latency_s"]["count"] == accounting["completed"]

    def test_dag_ledger_shape_and_conservation(self):
        from repro.dag import DagScheduler, pipeline_template

        world = World(ScenarioConfig(seed=29))
        _vehicles, cloud = make_storage_cloud(world, members=3)
        scheduler = DagScheduler(world, cloud, name="ledger-dag")
        template = pipeline_template([(100.0, 200.0)] * 2, deadline_s=30.0)
        scheduler.submit(template.instantiate(world.rng.fork("dag")))
        world.run_for(30.0)
        ledger = dag_ledger(scheduler)
        assert ledger["name"] == "ledger-dag"
        accounting = ledger["accounting"]
        assert accounting["graphs_submitted"] == 1
        assert accounting["replicas_live"] == 0
        assert ledger["deadline_hits"] + ledger["deadline_misses"] == (
            accounting["graphs_completed"] + accounting["graphs_failed"]
        )
        assert sum(ledger["failure_reasons"].values()) == accounting["graphs_failed"]

    def test_json_report_embeds_ledger_lists(self):
        world, gateway = self._serving_world()
        world.run_for(1.0)
        report = json_report(serving=gateway, dag=())
        assert [entry["name"] for entry in report["serving"]] == ["ledger"]
        assert "dag" not in report
