"""Which layer entry points the traced run wraps, and the per-layer
metrics computed from the spans and from the layers' public counters.

Every workload reports every per-layer metric; a layer a workload does
not use reads zero there (the codec, wire and UDP counters on the sim
workloads, the sim kernel and network on the live ones), which shows
that the workload bypasses it.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, Iterable, List, Optional

from .common import percentile
from .spans import Tracer

SHED_REASONS = ("global_full", "client_full", "deadline", "aged_out")

#: Per-layer metrics in report order: name -> unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.kernel.events_per_op": "count",
    "sim.kernel.defused_frac": "frac",
    "sim.kernel.self_us_per_op": "us",
    "sim.network.frames_per_op": "count",
    "sim.network.dropped_frac": "frac",
    "sim.network.self_us_per_op": "us",
    "totem.ring.self_us_per_op": "us",
    "totem.ring.token_visits_per_op": "count",
    "totem.ring.retransmits_per_op": "count",
    "totem.ring.timer_arms_per_frame": "count",
    "totem.membership.view_changes": "count",
    "totem.membership.reform_ms": "ms",
    "replication.state_transfer_ms": "ms",
    "core.time_service.ccs_per_op": "count",
    "core.time_service.ops_per_round": "count",
    "core.time_service.self_us_per_op": "us",
    "core.time_service.retained_per_op": "count",
    "replication.replica.self_us_per_op": "us",
    "rpc.client.retries_per_op": "count",
    "replication.codec.calls_per_op": "count",
    "replication.codec.us_per_call": "us",
    "replication.codec.bytes_per_op": "bytes",
    "net.wire.frames_per_op": "count",
    "net.wire.us_per_frame": "us",
    "net.wire.rejected": "count",
    "net.udp.datagrams_per_op": "count",
    "net.udp.sendto_us_per_op": "us",
    "net.daemon.gateway_us_per_request": "us",
    "net.daemon.dedup_hits": "count",
    "control.admission.queue_wait_p99_us": "us",
    **{f"control.admission.shed.{reason}": "count" for reason in SHED_REASONS},
    "control.admission.inflight_peak": "count",
    "net.kernel.timers_per_op": "count",
    "net.kernel.pending_timers": "count",
    "server.cpu_s_per_op": "s",
    "server.idle_cpu_frac": "frac",
    "runtime.gc.gen2_count": "count",
    "runtime.gc.gen2_pause_max_ms": "ms",
    "runtime.gc.pause_total_ms": "ms",
    "runtime.heap_objs_per_op": "count",
    "loadgen.lateness_p99_us": "us",
    "trace.overhead_frac": "frac",
    "trace.spans_per_op": "count",
}


class LayerProbe:
    """A tracer wired to the program's layer entry points, plus the
    kernel-time bookkeeping for membership and state-transfer episodes."""

    def __init__(self, kernel_now=None):
        self.tracer = Tracer()
        #: Reads the current kernel's clock (sim or live), seconds.
        self.kernel_now = kernel_now or (lambda: 0.0)
        self.gather_started: Dict[int, float] = {}
        self.reform_s: List[float] = []
        self.transfer_started: Dict[int, float] = {}
        self.transfer_s: List[float] = []
        self.view_changes = 0
        self.inflight_peak = 0

    # -- wiring ----------------------------------------------------------

    def install_common(self) -> None:
        """Wrap the layers both substrates share: Totem, membership, the
        group runtime, replicas, the time service, state transfer."""
        from repro.core.time_service import ConsistentTimeService
        from repro.replication import ActiveReplica
        from repro.replication.group import GroupRuntime
        from repro.replication.state_transfer import StateTransferManager
        from repro.totem.membership import MembershipEngine
        from repro.totem.ring import TotemProcessor

        t = self.tracer
        counts = t.counts
        t.wrap(TotemProcessor, "_on_frame", "totem.ring",
               before=lambda args: counts.update(("frames",)))
        t.wrap(TotemProcessor, "_process_token", "totem.ring",
               before=lambda args: counts.update(("token_visits",)))
        t.wrap(TotemProcessor, "mcast", "totem.ring")
        t.count_calls(TotemProcessor, "_arm_token_loss", "timer_arms")
        t.count_calls(TotemProcessor, "_arm_token_retransmit", "timer_arms")
        t.wrap(TotemProcessor, "install_ring", "totem.membership",
               after=self._ring_installed)
        t.wrap(MembershipEngine, "start_gather", "totem.membership",
               before=self._gather_started)
        t.wrap(MembershipEngine, "handle_join", "totem.membership")
        t.wrap(MembershipEngine, "handle_commit_token", "totem.membership")
        for name in ("_on_deliver", "_on_raw_message", "mcast"):
            t.wrap(GroupRuntime, name, "replication.group")
        for name in ("_on_message", "dispatch", "_enqueue_request",
                     "_request_finished", "_on_totem_config",
                     "_on_raw_message"):
            t.wrap(ActiveReplica, name, "replication.replica")
        for name in ("read", "handle_ccs", "handle_raw_ccs", "_send_ccs",
                     "_pump", "on_view_change"):
            t.wrap(ConsistentTimeService, name, "core.time_service")
        t.wrap(StateTransferManager, "request_state",
               "replication.state_transfer", before=self._transfer_requested)
        t.wrap(StateTransferManager, "on_state",
               "replication.state_transfer", after=self._transfer_done)

    def install_sim(self) -> None:
        from repro.rpc.client import RpcClient
        from repro.sim.kernel import Simulator
        from repro.sim.network import Interface, Network

        self.install_common()
        t = self.tracer
        counts = t.counts

        def popped(args):
            sim = args[0]
            counts["sim_events"] += 1
            if getattr(sim._heap[0][3], "_defused", False):
                counts["events_defused"] += 1

        t.wrap(Simulator, "step", "sim.kernel", before=popped)
        t.wrap(Network, "_transmit", "sim.network")
        t.wrap(Interface, "_receive", "sim.network")
        for name in ("call", "_on_message", "_on_timeout"):
            t.wrap(RpcClient, name, "rpc.client")

    def install_live(self) -> None:
        import repro.net.udp as udp
        import repro.net.wire as wire
        from repro.control.admission import AdmissionController
        from repro.net.daemon import ClientGateway
        from repro.net.kernel import LiveKernel

        self.install_common()
        t = self.tracer
        counts = t.counts
        t.wrap(LiveKernel, "_fire_event", "net.kernel",
               before=lambda args: counts.update(("live_events",)))
        t.count_calls(LiveKernel, "_queue_event", "timers")
        t.wrap(udp.UdpPort, "_on_readable", "net.udp")
        t.wrap(udp.UdpPort, "_send", "net.udp.sendto",
               before=lambda args: counts.update(("datagrams",)))
        t.wrap(udp, "encode_frame", "net.wire")
        t.wrap(udp, "decode_frame_ex", "net.wire")

        def encoded(args, result):
            counts["codec_bytes"] += len(result)

        def decoded(args):
            counts["codec_bytes"] += len(args[0])

        t.wrap(wire, "encode_envelope", "replication.codec", after=encoded)
        t.wrap(wire, "decode_envelope", "replication.codec", before=decoded)
        t.wrap(ClientGateway, "handle", "net.daemon",
               before=lambda args: counts.update(("gateway_requests",)))
        for name in ("_dispatch", "_forward", "_shed"):
            t.wrap(ClientGateway, name, "net.daemon")

        admitted_before: List[int] = [0]

        def submitting(args):
            admitted_before[0] = args[0].stats.admitted

        def submitted(args, result):
            controller = args[0]
            self.inflight_peak = max(self.inflight_peak, controller.inflight)
            if controller.stats.admitted > admitted_before[0]:
                t.sample("queue_wait_s", 0.0)  # dispatched without parking

        def dequeued(args, entry):
            t.sample("queue_wait_s", args[0]._clock() - entry.enqueued_at)

        t.wrap(AdmissionController, "submit", "control.admission",
               before=submitting, after=submitted)
        t.wrap(AdmissionController, "complete", "control.admission")
        t.wrap(AdmissionController, "_next_fair", "control.admission",
               after=dequeued)

    # -- episode bookkeeping ---------------------------------------------

    def _gather_started(self, args) -> None:
        self.gather_started.setdefault(id(args[0].p), self.kernel_now())

    def _ring_installed(self, args, result) -> None:
        self.view_changes += 1
        started = self.gather_started.pop(id(args[0]), None)
        if started is not None:
            self.reform_s.append(self.kernel_now() - started)

    def _transfer_requested(self, args) -> None:
        self.transfer_started.setdefault(id(args[0]), self.kernel_now())

    def _transfer_done(self, args, result) -> None:
        manager = args[0]
        if manager.ready and id(manager) in self.transfer_started:
            self.transfer_s.append(
                self.kernel_now() - self.transfer_started.pop(id(manager)))

    def reset(self) -> None:
        """Forget everything recorded so far (set-up is not measured)."""
        self.tracer.clear()
        self.reform_s.clear()
        self.transfer_s.clear()
        self.view_changes = 0
        self.inflight_peak = 0
        # Episodes still open keep their start instants.

    # -- results ---------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Raw, undivided figures: self seconds per layer, counts, maxima."""
        t = self.tracer
        self_s = t.self_times()
        spans = t.span_counts()
        waits = t.samples.get("queue_wait_s", [])
        raw = {f"self_s.{name}": value for name, value in self_s.items()}
        raw.update({f"spans.{name}": value for name, value in spans.items()})
        raw.update({f"count.{name}": value for name, value in t.counts.items()})
        raw["spans_total"] = len(t)
        raw["view_changes"] = self.view_changes
        raw["reform_ms"] = 1e3 * max(self.reform_s, default=0.0)
        raw["state_transfer_ms"] = 1e3 * max(self.transfer_s, default=0.0)
        raw["inflight_peak"] = self.inflight_peak
        raw["queue_wait_p99_us"] = (1e6 * percentile(waits, 99.0)
                                    if waits else 0.0)
        return raw


def retained_entries(time_sources: Iterable) -> int:
    """Entries the time service keeps for every served op and never trims:
    ``readings``, ``served_ops``, ``winners`` and the group clock's
    ``history``, summed over replicas."""
    total = 0
    for source in time_sources:
        total += (len(source.readings) + len(source.served_ops)
                  + len(source.winners) + len(source.clock_state.history))
    return total


class GcWatch:
    """GC pause statistics from ``gc.callbacks``."""

    def __init__(self):
        self.pauses_ms: List[float] = []
        self.gen2_pauses_ms: List[float] = []
        self._started: Optional[float] = None

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            pause = 1e3 * (time.perf_counter() - self._started)
            self._started = None
            self.pauses_ms.append(pause)
            if info.get("generation") == 2:
                self.gen2_pauses_ms.append(pause)

    def start(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def stop(self) -> None:
        if self in gc.callbacks:
            gc.callbacks.remove(self)

    def reset(self) -> None:
        self.pauses_ms.clear()
        self.gen2_pauses_ms.clear()

    def summary(self) -> Dict[str, float]:
        return {
            "gen2_count": len(self.gen2_pauses_ms),
            "gen2_pause_max_ms": max(self.gen2_pauses_ms, default=0.0),
            "pause_total_ms": sum(self.pauses_ms),
        }


def per_layer_metrics(raw: Dict[str, float], ops: int) -> Dict[str, float]:
    """Divide the raw totals of one traced span by its completed ops.

    ``raw`` holds the probe's :meth:`LayerProbe.totals` plus the keys the
    workload adds itself (service counters, CPU, GC, lateness)."""
    ops = max(1, ops)

    def get(key: str) -> float:
        return float(raw.get(key, 0.0))

    def self_us(layer: str) -> float:
        return 1e6 * get(f"self_s.{layer}") / ops

    events = get("count.sim_events")
    frames = get("count.frames")
    codec_calls = get("spans.replication.codec")
    wire_frames = get("spans.net.wire")
    gateway = get("count.gateway_requests")
    delivered = get("sim.frames_received") + get("sim.frames_dropped")
    metrics = {
        "sim.kernel.events_per_op": events / ops,
        "sim.kernel.defused_frac": (get("count.events_defused") / events
                                    if events else 0.0),
        "sim.kernel.self_us_per_op": self_us("sim.kernel"),
        "sim.network.frames_per_op": get("sim.frames_sent") / ops,
        "sim.network.dropped_frac": (get("sim.frames_dropped") / delivered
                                     if delivered else 0.0),
        "sim.network.self_us_per_op": self_us("sim.network"),
        "totem.ring.self_us_per_op": self_us("totem.ring"),
        "totem.ring.token_visits_per_op": get("count.token_visits") / ops,
        "totem.ring.retransmits_per_op": get("totem.retransmits") / ops,
        "totem.ring.timer_arms_per_frame": (get("count.timer_arms") / frames
                                            if frames else 0.0),
        "totem.membership.view_changes": get("view_changes"),
        "totem.membership.reform_ms": get("reform_ms"),
        "replication.state_transfer_ms": get("state_transfer_ms"),
        "core.time_service.ccs_per_op": get("cts.ccs_transmitted") / ops,
        "core.time_service.ops_per_round": (
            get("cts.ops_completed") / get("cts.rounds_completed")
            if get("cts.rounds_completed") else 0.0),
        "core.time_service.self_us_per_op": self_us("core.time_service"),
        "core.time_service.retained_per_op": get("cts.retained") / ops,
        "replication.replica.self_us_per_op": self_us("replication.replica"),
        "rpc.client.retries_per_op": get("rpc.retries") / ops,
        "replication.codec.calls_per_op": codec_calls / ops,
        "replication.codec.us_per_call": (
            1e6 * get("self_s.replication.codec") / codec_calls
            if codec_calls else 0.0),
        "replication.codec.bytes_per_op": get("count.codec_bytes") / ops,
        "net.wire.frames_per_op": wire_frames / ops,
        "net.wire.us_per_frame": (1e6 * get("self_s.net.wire") / wire_frames
                                  if wire_frames else 0.0),
        "net.wire.rejected": get("udp.rejected"),
        "net.udp.datagrams_per_op": get("count.datagrams") / ops,
        "net.udp.sendto_us_per_op": self_us("net.udp.sendto"),
        "net.daemon.gateway_us_per_request": (
            1e6 * get("self_s.net.daemon") / gateway if gateway else 0.0),
        "net.daemon.dedup_hits": get("gateway.dedup_hits"),
        "control.admission.queue_wait_p99_us": get("queue_wait_p99_us"),
        **{f"control.admission.shed.{reason}": get(f"shed.{reason}")
           for reason in SHED_REASONS},
        "control.admission.inflight_peak": get("inflight_peak"),
        "net.kernel.timers_per_op": get("count.timers") / ops,
        "net.kernel.pending_timers": get("kernel.pending_timers"),
        "server.cpu_s_per_op": get("cpu_s") / ops,
        "server.idle_cpu_frac": get("idle_cpu_frac"),
        "runtime.gc.gen2_count": get("gc.gen2_count"),
        "runtime.gc.gen2_pause_max_ms": get("gc.gen2_pause_max_ms"),
        "runtime.gc.pause_total_ms": get("gc.pause_total_ms"),
        "runtime.heap_objs_per_op": get("heap_objs_delta") / ops,
        "loadgen.lateness_p99_us": get("lateness_p99_us"),
        "trace.overhead_frac": get("trace_overhead_frac"),
        "trace.spans_per_op": get("spans_total") / ops,
    }
    return metrics
