"""One benchmark unit in a fresh interpreter: set-up, a timed run or a traced run.

Usage (``run.py`` starts it with ``src`` on ``PYTHONPATH``)::

    python benchmarks/perf/child.py setup|run|trace WORKLOAD SEED WORK_DIR

Prints one JSON object as its last line of standard output.  ``setup``
imports ``repro.campaign`` and builds the workload's scenario (or loads
and expands its campaign); ``run`` executes the workload through the
public campaign entry points; ``trace`` does the same under
:class:`layers.LayerTrace`.  Every child probes the host's speed while
it works (:class:`HostSpeed`).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from typing import Any, Dict, List

import workloads

#: Rounds of one host-speed probe: about 0.5 ms on a 2.1 GHz Xeon core.
PROBE_ROUNDS = 600
#: A probe's time inside the benchmark's runs on the 2-vCPU 2.1 GHz Xeon
#: host the benchmark was defined on; reported times are at this speed.
PROBE_NOMINAL_S = 0.00053
#: Wall-clock seconds between two probes.
PROBE_INTERVAL_S = 0.02


class _Event:
    __slots__ = ("time", "seq", "payload")

    def __init__(self, at: float, seq: int, payload: Dict[str, int]) -> None:
        self.time, self.seq, self.payload = at, seq, payload


def probe() -> None:
    """A fixed pure-Python event loop: its time is the host's speed right now.

    It allocates, pushes and pops a heap and updates a dict, like the
    simulator's engine does, but it is frozen benchmark code, so a change
    to the program never moves it.  The host's slow spells do.
    """
    heap: list = []
    table: Dict[int, float] = {}
    clock = 0.0
    for seq in range(PROBE_ROUNDS):
        event = _Event(clock + (seq * 7919 % 1000) / 1000.0, seq, {"key": seq & 255})
        heapq.heappush(heap, (event.time, event.seq, event))
        key = event.payload["key"]
        table[key] = table.get(key, 0.0) + event.time
        if len(heap) > 64:
            clock = heapq.heappop(heap)[0]


class HostSpeed:
    """Probes the host's speed every ``PROBE_INTERVAL_S`` while a child works.

    The shared host runs everything slower in spells that come and go
    within a second.  SIGALRM interrupts the work at a fixed wall-clock
    interval and the handler times :func:`probe` in the same thread, so
    the probes see the host as the work saw it.  :meth:`clock` leaves the
    probes' own time out, and :meth:`speed` is the mean of
    ``PROBE_NOMINAL_S`` over each probe's time: a second of work on
    :meth:`clock` is worth ``speed()`` seconds at the nominal host speed.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self.probed_s = 0.0

    def __enter__(self) -> "HostSpeed":
        self._handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def _probe(self, *_signal: Any) -> None:
        started = time.perf_counter()
        probe()
        took = time.perf_counter() - started
        self.probes.append(took)
        self.probed_s += took

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in probes."""
        return time.perf_counter() - self.probed_s

    def speed(self) -> float:
        return statistics.fmean(PROBE_NOMINAL_S / took for took in self.probes)


#: The probes of this process; its clock is ``perf_counter`` until entered.
HOST = HostSpeed()


def peak_rss_mb() -> float:
    """Largest resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _vector_bytes(artifact_dir: str) -> bytes:
    with open(os.path.join(artifact_dir, "vector.json"), "rb") as handle:
        return handle.read()


def cell_spec(workload: str, seed: int) -> Any:
    from repro.campaign import RunSpec

    return RunSpec(campaign=workloads.CAMPAIGN_NAME, seed=seed, **workloads.CELLS[workload]["spec"])


def campaign_spec(seed: int) -> Any:
    from repro.campaign import CampaignSpec

    with open(workloads.CAMPAIGN_FILE, encoding="utf-8") as handle:
        data = json.load(handle)
    data["matrix"]["seeds"] = [seed]
    return CampaignSpec.from_dict(data)


def run_cell(spec: Any, out_dir: str) -> Dict[str, Any]:
    """Execute one cell; the digest is sha256 of its ``vector.json``."""
    from repro.campaign import orchestrator
    from repro.sim.world import World

    loop = [0.0]
    run_for = World.run_for

    def timed_run_for(world: Any, duration: float) -> Any:
        started = HOST.clock()
        try:
            return run_for(world, duration)
        finally:
            loop[0] += HOST.clock() - started

    World.run_for = timed_run_for
    try:
        started = HOST.clock()
        # Looked up on the module so a LayerTrace wrapper sees the call.
        outcome = orchestrator.execute_run(spec, out_dir)
        wall_s = HOST.clock() - started
    finally:
        World.run_for = run_for
    return {
        "wall_s": wall_s,
        "loop_s": loop[0],
        "sim_s": spec.run_length_s + spec.drain_s,
        "digest": hashlib.sha256(_vector_bytes(outcome.artifact_dir)).hexdigest(),
        "violations": outcome.violations,
    }


def run_campaign(spec: Any, out_dir: str) -> Dict[str, Any]:
    """Execute the campaign; the digest covers every run's vector, sorted by key."""
    from repro.campaign import CampaignOrchestrator

    started = HOST.clock()
    campaign_run = CampaignOrchestrator(spec, out_dir, workers=1).execute()
    wall_s = HOST.clock() - started
    digest = hashlib.sha256()
    for outcome in sorted(campaign_run.outcomes, key=lambda o: o.key):
        digest.update(_vector_bytes(outcome.artifact_dir))
    sim_s = sum(o.spec["run_length_s"] + o.spec["drain_s"] for o in campaign_run.outcomes)
    run_walls = [o.wall_clock_s for o in campaign_run.outcomes]
    return {
        "wall_s": wall_s,
        "loop_s": None,
        "sim_s": sim_s,
        "digest": digest.hexdigest(),
        "violations": campaign_run.violations,
        # The orchestrator's own clock, like the per-run walls it reports.
        "run_walls": run_walls,
        "orchestration_s": campaign_run.wall_clock_s - sum(run_walls),
    }


def execute(workload: str, seed: int, out_dir: str) -> Dict[str, Any]:
    if workload == workloads.CAMPAIGN:
        return run_campaign(campaign_spec(seed), out_dir)
    return run_cell(cell_spec(workload, seed), out_dir)


def main(argv: list) -> int:
    mode, workload, seed, work_dir = argv[1], argv[2], int(argv[3]), argv[4]
    with HOST:
        started = HOST.clock()
        import repro.campaign  # noqa: F401  (timed: the import users pay)

        import_s = HOST.clock() - started
        result: Dict[str, Any] = {"import_s": import_s}
        if mode == "setup":
            started = HOST.clock()
            if workload == workloads.CAMPAIGN:
                campaign_spec(seed).expansion()
            else:
                repro.campaign.build_scenario(cell_spec(workload, seed))
            result["setup_s"] = import_s + HOST.clock() - started
        else:
            out_dir = os.path.join(work_dir, f"bundles-{os.getpid()}")
            try:
                if mode == "trace":
                    import layers

                    with layers.LayerTrace() as trace:
                        result.update(execute(workload, seed, out_dir))
                    result["loop_s"] = trace.loop_s
                    result["layers"] = trace.metrics()
                    trace.write_sample(os.path.join(work_dir, f"spans-{workload}.jsonl"))
                else:
                    result.update(execute(workload, seed, out_dir))
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            result["peak_rss_mb"] = peak_rss_mb()
    result["speed"] = HOST.speed()
    result["probes"] = len(HOST.probes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
