"""The simulated workloads: ``sim-steady`` and ``sim-faults``.

Both run the paper's four-node bed (:class:`repro.testbed.Testbed`, the
calibrated LAN latency model) with the default three-replica active CTS
group on n1-n3 (coalesced rounds, fast path off) serving the live
daemon's application (:class:`repro.net.daemon.TimeApp`), and sixteen
closed-loop clients on n0 for one span of simulated time.  The
even-numbered clients echo their last value as the ``after_us`` session
floor, the documented way to get strictly increasing reads across
failover; the odd-numbered ones send no floor, so their values show the
group clock as it is served.  ``sim-faults`` adds 2% frame loss and
crashes n3 a third of the way through the span; n3 recovers, and its
replica rejoins by state transfer, at two thirds.  Its clients call
through ``RpcClient.retrying_call``.

The simulated span is fixed by ``--seconds`` alone (``SIM_S_PER_WALL_S``
simulated seconds per requested wall second), never by how fast the
host is, so the simulated-time results depend on the seed alone.
"""

from __future__ import annotations

import gc
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import RpcTimeout
from repro.sim import ClusterConfig
from repro.testbed import Testbed
from repro.net.daemon import TimeApp

from . import checks
from .common import (ROOT, Report, cpu_s, host_factor, median, out_dir,
                     peak_rss_mb, reference_s)
from .layers import (PER_LAYER_UNITS, GcWatch, LayerProbe, per_layer_metrics,
                     retained_entries)

GROUP = "svc"
METHOD = "gettimeofday"
SERVERS = ("n1", "n2", "n3")
CLIENTS = 16
LOSS_RATE = 0.02
CRASHED = "n3"
#: Simulated seconds per requested wall second.  Calibrated so that the
#: measured span takes about 0.7 of ``--seconds`` on the reference core
#: (``common.REFERENCE_S``; sim-steady: ~1.35k calls per reference-core
#: second, ~46k per simulated second; sim-faults: ~2.4k and ~14k),
#: leaving room for set-up and for a host running slower than that.
#: Fixed, so that a faster program finishes sooner instead of simulating
#: more.
SIM_S_PER_WALL_S = {"sim-steady": 0.021, "sim-faults": 0.095}
#: Slices the measured span is cut into.  Between them the benchmark
#: times the reference loop, so each slice's wall and CPU seconds can be
#: scaled to the speed of the reference core (see ``common.reference_s``).
SLICES = 39
#: Every this many slices a set-up is timed, on its own inputs drawn from
#: the seed; ``setup_s`` is the median of the set-ups (12 per run).
SETUP_EVERY = 3
#: Shortest ``sim-faults`` span: the crash at a third, the rejoin at two
#: thirds, and time after it for the rejoined replica to serve.
MIN_FAULT_SPAN_S = 0.09
#: Share of the span the traced run simulates, twice: once untraced and
#: once traced, so the tracing overhead is measured on identical inputs.
TRACED_SHARE = 0.25


@dataclass
class SimInputs:
    """Everything the seed decides."""

    bed_seed: int
    #: Per-client start offsets, simulated seconds.
    offsets_s: List[float]


def floored(client: str) -> bool:
    """Whether the client sends its last value as the session floor."""
    return int(client[1:]) % 2 == 0


def make_inputs(seed: int, part: int = 0) -> SimInputs:
    """The inputs of a run with this seed; ``part`` > 0 draws the extra
    beds that are only set up."""
    rng = random.Random(f"perfbench-sim|{seed}|{part}")
    return SimInputs(
        bed_seed=rng.randrange(1 << 30),
        offsets_s=[rng.uniform(0.0, 200e-6) for _ in range(CLIENTS)],
    )


def build_bed(inputs: SimInputs, faults: bool):
    config = ClusterConfig(num_nodes=4,
                           loss_rate=LOSS_RATE if faults else 0.0)
    bed = Testbed(seed=inputs.bed_seed, cluster_config=config)
    bed.deploy(GROUP, TimeApp, list(SERVERS), time_source="cts",
               coalesce=True, fast_path=False)
    client = bed.client("n0")
    bed.start()
    return bed, client


def time_setup(inputs: SimInputs, faults: bool) -> float:
    """Wall seconds from an empty process state to the first served reply.

    Objects already alive are frozen out of the garbage collector's view
    meanwhile, so a set-up made next to a running span costs what it
    would in a fresh process."""
    gc.freeze()
    try:
        started = time.perf_counter()
        bed, client = build_bed(inputs, faults)

        def first():
            reply = yield client.call(GROUP, METHOD, None, timeout=1.0)
            return reply

        reply = bed.run_process(first())
        elapsed = time.perf_counter() - started
        del bed, client
        gc.collect()  # the set-up's own garbage, while the rest is frozen
    finally:
        gc.unfreeze()
    if not reply.ok:
        raise RuntimeError(f"setup probe failed: {reply.error}")
    return elapsed


@dataclass
class SimRun:
    """What one measured span produced."""

    span_s: float
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    latencies_us: List[int] = field(default_factory=list)
    #: Host (wall-clock) time the simulator spent from each call's issue
    #: to its reply, microseconds.
    wall_latencies_us: List[float] = field(default_factory=list)
    #: Wall seconds spent in pauses between slices so far.
    paused_s: float = 0.0
    #: Simulated completion instants, seconds.
    completions_s: List[float] = field(default_factory=list)
    values: Dict[str, List[int]] = field(default_factory=dict)
    #: ``(wall_s, cpu_s, completed)`` of each slice of the span.
    slices: List[Tuple[float, float, int]] = field(default_factory=list)
    bed: Optional[Testbed] = None
    rejoined: object = None

    @property
    def longest_gap_ms(self) -> float:
        instants = [0.0] + sorted(self.completions_s) + [self.span_s]
        return 1e3 * max(b - a for a, b in zip(instants, instants[1:]))


def run_span(workload: str, inputs: SimInputs, span_s: float,
             on_start=None, between=None, slices: int = 1) -> SimRun:
    """Drive ``CLIENTS`` closed-loop clients for ``span_s`` simulated
    seconds and return what happened (the bed is kept for checks).
    ``on_start(bed)`` runs once the bed is up, just before the span.  The
    span is cut into ``slices`` equal slices, each one's wall seconds, CPU
    seconds and completed calls recorded in ``run.slices``; ``between(i)``
    runs before slice ``i`` and once after the last (``i == slices``),
    outside the timed wall and CPU."""
    faults = workload == "sim-faults"
    bed, client = build_bed(inputs, faults)
    run = SimRun(span_s=span_s, bed=bed)
    origin = bed.sim.now
    deadline = origin + span_s
    if faults:
        bed.sim.schedule(span_s / 3, bed.crash, CRASHED)

        def rejoin():
            bed.recover(CRASHED)
            run.rejoined = bed.add_replica(
                GROUP, CRASHED, TimeApp, time_source="cts",
                coalesce=True, fast_path=False)

        bed.sim.schedule(2 * span_s / 3, rejoin)

    def worker(name: str, offset_s: float):
        values = run.values.setdefault(name, [])
        yield bed.sim.timeout(offset_s)
        last = None
        while bed.sim.now < deadline:
            started, issued = bed.sim.now, time.perf_counter() - run.paused_s
            run.attempted += 1
            floor = last if floored(name) else None
            try:
                if faults:
                    reply = yield from client.retrying_call(
                        GROUP, METHOD, floor, timeout=0.3, attempts=5)
                else:
                    reply = yield client.call(GROUP, METHOD, floor,
                                              timeout=span_s + 2.0)
            except RpcTimeout:
                run.failed += 1
                continue
            if not reply.ok:
                run.failed += 1
                continue
            run.completed += 1
            run.latencies_us.append(int(round((bed.sim.now - started) * 1e6)))
            run.wall_latencies_us.append(
                1e6 * (time.perf_counter() - run.paused_s - issued))
            run.completions_s.append(bed.sim.now - origin)
            last = reply.value["micros"]
            values.append(last)

    def pause(index: int) -> None:
        if between is not None:
            paused0 = time.perf_counter()
            between(index)
            run.paused_s += time.perf_counter() - paused0

    workers = [bed.sim.process(worker(f"c{index}", offset), name=f"c{index}")
               for index, offset in enumerate(inputs.offsets_s)]
    if on_start is not None:
        on_start(bed)
    for index in range(slices):
        pause(index)
        wall0, cpu0, done0 = time.perf_counter(), cpu_s(), run.completed
        bed.sim.run(until=origin + span_s * (index + 1) / slices)
        if index == slices - 1:
            while any(proc.is_alive for proc in workers):
                bed.run(0.05)
        wall, cpu = time.perf_counter() - wall0, cpu_s() - cpu0
        run.wall_s += wall
        run.cpu_s += cpu
        run.slices.append((wall, cpu, run.completed - done0))
    pause(slices)
    for proc in workers:
        if not proc.ok:
            proc._fail_silently = True
            raise proc.value
    return run


class _BedLayers:
    """Every layer object a sim run creates, crashed and rejoined ones
    included, so counters can be diffed over the measured span."""

    def __init__(self, bed):
        self.bed = bed
        self.client = bed.clients["client.n0"]
        self.processors: Dict[int, object] = {}
        self.time_sources: Dict[int, object] = {}

    def counters(self) -> Dict[str, float]:
        """Cumulative public counters of the bed's layers."""
        for processor in self.bed.processors.values():
            self.processors[id(processor)] = processor
        for replica in self.bed.replicas(GROUP).values():
            self.time_sources[id(replica.time_source)] = replica.time_source
        processors = self.processors.values()
        sources = self.time_sources.values()
        interfaces = [node.iface for node in self.bed.cluster.nodes.values()]
        return {
            "totem.retransmits": sum(p.stats.retransmissions
                                     + p.stats.token_retransmissions
                                     for p in processors),
            "sim.frames_sent": sum(i.frames_sent for i in interfaces),
            "sim.frames_received": sum(i.frames_received for i in interfaces),
            "sim.frames_dropped": self.bed.cluster.network.frames_dropped,
            "cts.ccs_transmitted": sum(s.stats.ccs_transmitted
                                       for s in sources),
            "cts.ops_completed": sum(s.stats.ops_completed for s in sources),
            "cts.rounds_completed": sum(s.stats.rounds_completed
                                        for s in sources),
            "cts.retained": retained_entries(sources),
            "rpc.retries": self.client.stats.retries,
        }


def floorless_repeats(run: SimRun) -> int:
    """Times a client without the session floor got the same value for
    two calls in a row."""
    return sum(1 for client, values in run.values.items()
               if not floored(client)
               for earlier, later in zip(values, values[1:])
               if later == earlier)


def check_run(workload: str, run: SimRun) -> List[Tuple[str, List[str]]]:
    """``(check, violations)`` for every check of one span."""
    with_floor = {c: v for c, v in run.values.items() if floored(c)}
    without = {c: v for c, v in run.values.items() if not floored(c)}
    results = [
        ("values of clients sending the floor strictly increase",
         checks.strictly_increasing(with_floor)),
        ("values of clients sending no floor never decrease",
         checks.never_decrease(without)),
    ]
    if workload == "sim-steady":
        # Without faults the group clock itself must hand each client
        # strictly increasing values.  Under sim-faults it repeats a value
        # now and then (counted as ``floorless_repeats``, see the README).
        results.append(("values of clients sending no floor strictly "
                        "increase", checks.strictly_increasing(without)))
    replicas = run.bed.replicas(GROUP)
    results.append(("replicas agree on every served op", checks.replicas_agree(
        {node: replica.time_source.served_ops
         for node, replica in replicas.items()})))
    served = {reading[3].micros
              for replica in replicas.values()
              for reading in replica.time_source.readings}
    results.append(("every reply value was served by the replicas",
                    checks.values_were_served(run.values, served)))
    if workload == "sim-steady":
        results.append(("no failed ops",
                        [f"{run.failed} failed ops"] if run.failed else []))
    else:
        # The rejoined replica replays the ops it missed in one instant
        # when its state arrives; serving later than that means it is
        # taking part in new rounds.
        readings = (run.rejoined.time_source.readings
                    if run.rejoined is not None else [])
        caught_up = min((reading[0] for reading in readings), default=0.0)
        served_after = sum(1 for reading in readings
                           if reading[0] > caught_up)
        results.append((
            "the recovered replica serves rounds after it rejoins",
            [] if served_after > 0 else
            [f"replica {CRASHED} served no ops after rejoining"]))
    return results


def report_checks(report: Report, workload: str, run: SimRun) -> None:
    for what, problems in check_run(workload, run):
        report.check(problems[:5], what)


def span_for(workload: str, seconds: float) -> float:
    """Simulated seconds of one run; ``sim-faults`` needs at least
    ``MIN_FAULT_SPAN_S`` for the rejoined replica to catch up."""
    span = SIM_S_PER_WALL_S[workload] * seconds
    if workload == "sim-faults":
        span = max(span, MIN_FAULT_SPAN_S)
    return span


def measure(workload: str, seed: int, seconds: float) -> Report:
    """The untraced run: end-to-end metrics plus correctness checks."""
    report = Report(workload)
    faults = workload == "sim-faults"
    # Reference readings at every slice boundary: the first and the last
    # taken there, with a set-up between them at every SETUP_EVERY-th
    # boundary.  The set-ups are spread through the span, so that they
    # sample the host over the same stretch of time as the span does.
    references: List[Tuple[float, float]] = []
    setups: List[float] = []
    raw_setups: List[float] = []

    def between(index: int) -> None:
        first = last = reference_s()
        if 0 < index < SLICES and index % SETUP_EVERY == 0:
            elapsed = time_setup(make_inputs(seed, len(setups) + 1), faults)
            last = reference_s()
            raw_setups.append(elapsed)
            setups.append(elapsed / host_factor(first, last))
        references.append((first, last))

    span = span_for(workload, seconds)
    run = run_span(workload, make_inputs(seed), span, between=between,
                   slices=SLICES)
    factors = [host_factor(references[index][1], references[index + 1][0])
               for index in range(SLICES)]
    ref_wall = sum(wall / factor
                   for (wall, _cpu, _done), factor in zip(run.slices, factors))
    ref_cpu = sum(cpu / factor
                  for (_wall, cpu, _done), factor in zip(run.slices, factors))
    report.add("setup_s", median(setups), "s",
               f"median of {len(setups)} setups made during the span, "
               "in reference-core seconds")
    report.add("setup_s.unscaled", median(raw_setups), "s", "wall seconds")
    report_checks(report, workload, run)
    completed = run.completed
    report.attempted, report.failed = run.attempted, run.failed
    report.add("ops_per_wall_s", completed / ref_wall, "1/s",
               f"{completed} calls in {ref_wall:.3f} reference-core s")
    report.add("ops_per_wall_s.unscaled", completed / run.wall_s, "1/s",
               f"{completed} calls in {run.wall_s:.3f} wall s")
    report.add("cpu_us_per_op", 1e6 * ref_cpu / completed, "us",
               "CPU of the simulating process per completed call, "
               "in reference-core us")
    report.add("cpu_us_per_op.unscaled", 1e6 * run.cpu_s / completed, "us")
    report.add("host_factor", median(factors), "x",
               f"median over {SLICES} slices; range {min(factors):.2f}-"
               f"{max(factors):.2f}")
    report.add("sim_ops_s", completed / span, "1/s",
               f"simulated time, one span of {span:g} s")
    report.latency("sim_", run.latencies_us, note="simulated time")
    report.add("sim_outage_ms", run.longest_gap_ms, "ms",
               "longest simulated gap with no completed call")
    report.latency("", run.wall_latencies_us,
                   note="wall clock: host time from a call's issue to its reply")
    report.add("floorless_repeats", floorless_repeats(run), "count",
               "consecutive equal values to a client sending no floor")
    report.add("failed_frac", report.failed / max(1, report.attempted), "frac")
    report.add("peak_rss_mb", peak_rss_mb(), "MiB")
    return report


def measure_layers(workload: str, seed: int, seconds: float) -> Report:
    """The traced run: per-layer metrics of one traced span, and the
    tracing overhead against the same span untraced."""
    report = Report(workload)
    inputs = make_inputs(seed)
    span = TRACED_SHARE * span_for(workload, seconds)
    plain = run_span(workload, inputs, span)
    plain.bed = None

    probe = LayerProbe()
    gc_watch = GcWatch()
    state: Dict = {}

    def on_start(bed) -> None:
        state["layers"] = _BedLayers(bed)
        state["baseline"] = state["layers"].counters()
        probe.kernel_now = lambda: bed.sim.now
        gc.collect()
        state["heap_before"] = len(gc.get_objects())
        probe.reset()
        gc_watch.reset()

    probe.install_sim()
    gc_watch.start()
    try:
        traced = run_span(workload, inputs, span, on_start=on_start)
    finally:
        probe.tracer.restore()
        gc_watch.stop()
    report.attempted, report.failed = traced.attempted, traced.failed
    report_checks(report, workload, traced)

    raw = probe.totals()
    raw.update({f"gc.{key}": value
                for key, value in gc_watch.summary().items()})
    gc.collect()
    raw["heap_objs_delta"] = len(gc.get_objects()) - state["heap_before"]
    final = state["layers"].counters()
    raw.update({key: final[key] - state["baseline"][key] for key in final})
    raw["cts.retained"] = final["cts.retained"]
    raw["cpu_s"] = traced.cpu_s
    raw["trace_overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    stem = os.path.join(out_dir(), f"spans-{workload}")
    probe.tracer.write(stem)
    print(f"[{workload}] traced span: {traced.completed} calls, "
          f"{traced.wall_s:.3f} wall s traced vs {plain.wall_s:.3f} "
          f"untraced; {len(probe.tracer)} spans written to "
          f"{os.path.relpath(stem, ROOT)}.bin", flush=True)
    metrics = per_layer_metrics(raw, traced.completed)
    for name, unit in PER_LAYER_UNITS.items():
        report.add(name, metrics[name], unit)
    return report
