"""The live workloads: ``live-steady`` and ``live-burst``.

A fresh server process (:mod:`perfbench.server`) hosts three default
``NodeDaemon``s per run; a cluster reused across runs would carry the
heap growth of earlier runs into later ones.  This process is the load
generator: one UDP socket, the main thread sending open-loop Poisson
arrivals on a schedule made from the seed, and one receiver thread.
Identities are drawn zipf-skewed from a fixed population; each carries
its ``after_us`` session floor (the highest value it has received).
Latency is timed from each request's *due* send time, so a stall in
the generator or the server is charged to every request it delays, and
the generator reports how late it fired.

* ``live-steady`` runs a fixed ladder of rates below capacity.
* ``live-burst`` runs 300 ops/s, then a burst at 1500 ops/s (about twice
  capacity on a 2-core host), then 300 ops/s again.

Both end with a closed-loop phase that keeps ``WINDOW`` ops outstanding:
its completed rate is the server's capacity, which the open-loop phases
cannot show while the server keeps up with their schedule.  The phase is
cut into ``CLOSED_SLICES`` slices; between two slices the outstanding ops
drain and the server times the reference loop, and each slice's figures
are scaled by how fast the server's core ran around it.
"""

from __future__ import annotations

import bisect
import os
import random
import select
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.control.admission import is_overloaded
from repro.errors import RpcTimeout
from repro.net.client import LiveCaller
from repro.net.wire import FrameError, decode_frame, encode_frame
from repro.replication.envelope import MsgType, make_envelope
from repro.rpc.messages import Invocation

from . import checks
from .common import Report, host_factor, median, out_dir, percentile
from .layers import PER_LAYER_UNITS, per_layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SERVER = os.path.join(ROOT, "perfbench", "server.py")
GROUP = "timesvc"
METHOD = "gettimeofday"
REPLICAS = 3
IDENTITIES = 64
ZIPF_S = 1.1
#: A request unanswered this long after it was due counts as timed out.
DEADLINE_S = 2.0
#: ``live-steady``'s p99 limit: a rung whose p99 (sheds and timeouts
#: counting as misses) exceeds it is above the service's usable rate.
P99_LIMIT_US = 50_000.0
#: Rungs of ``live-steady``: rate in ops/s and share of the run.
LADDER = ((100, 0.15), (200, 0.10), (300, 0.15), (400, 0.20))
#: Phases of ``live-burst``: name, rate in ops/s and share of the run.
BURST = (("steady", 300, 0.15), ("burst", 1500, 0.15), ("post", 300, 0.30))
#: Share of the run given to the closed-loop phase that ends both
#: workloads, and the ops it keeps outstanding: enough to saturate the
#: server, few enough that admission sheds none (each gateway admits 64).
SATURATE_SHARE = 0.40
WINDOW = 24
#: The closed-loop phase is cut into this many slices; between them the
#: server times the reference loop, so each slice's wall and CPU seconds
#: can be scaled to the speed of the reference core (see
#: ``common.reference_s``).
CLOSED_SLICES = 8
#: Fresh servers started per run; ``setup_s`` is the median of their
#: set-up times, and the last one carries the load.
SETUP_REPEATS = 5
#: Share of the run each of the two traced-run servers (one untraced,
#: one traced) is loaded for.
TRACED_SHARE = 0.4
#: Interpreter switch interval while the load generator runs, seconds.
SWITCH_INTERVAL_S = 0.0002
#: Wall seconds the server is left idle to measure its idle CPU.
IDLE_S = 1.0


# -- the server process ---------------------------------------------------


#: With two or more CPUs the server and the load generator each get one
#: of their own, so the scheduler cannot stack them on one core.
SERVER_CPU, LOADGEN_CPU = 0, 1


def _pin(pid: int, cpu: int) -> None:
    if hasattr(os, "sched_setaffinity") and cpu in os.sched_getaffinity(0) \
            and len(os.sched_getaffinity(0)) >= 2:
        os.sched_setaffinity(pid, {cpu})



class ServerProcess:
    """A fresh ``perfbench/server.py`` child, always reaped."""

    def __init__(self, workload: str, spans_stem: str = ""):
        args = [sys.executable, SERVER]
        if spans_stem:
            args += ["--spans", spans_stem]
        self._log = open(os.path.join(out_dir(), f"server-{workload}.log"),
                         "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(args, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self._log)
        _pin(self.proc.pid, SERVER_CPU)
        self._buffer = b""
        self.servers: List[Tuple[str, int]] = []
        try:
            ready = self._expect("ready", timeout=60.0)
            self.servers = [tuple(address) for address in ready["servers"]]
        except BaseException:
            self.kill()
            raise

    def _expect(self, event: str, timeout: float) -> Dict:
        import json

        deadline = time.monotonic() + timeout
        stdout = self.proc.stdout.fileno()
        while True:
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                doc = json.loads(line)
                if doc.get("event") == event:
                    return doc
                if doc.get("event") == "error":
                    raise RuntimeError(f"server: {doc.get('reason')}")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"server sent no {event!r} within {timeout}s")
            readable, _, _ = select.select([stdout], [], [], remaining)
            if readable:
                chunk = os.read(stdout, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"server exited (code {self.proc.poll()}) before "
                        f"sending {event!r}")
                self._buffer += chunk

    def command(self, words: str, reply: str, timeout: float = 30.0) -> Dict:
        self.proc.stdin.write(words.encode() + b"\n")
        self.proc.stdin.flush()
        return self._expect(reply, timeout)

    def wait_serving(self, timeout: float = 60.0) -> float:
        """Seconds from process start to the first op answered by every
        replica."""
        deadline = time.monotonic() + timeout
        with LiveCaller(self.servers, group=GROUP,
                        client_id=f"setup{os.getpid()}x{id(self)}") as caller:
            while time.monotonic() < deadline:
                try:
                    outcome = caller.call(METHOD, None, timeout=0.5,
                                          expect_replies=REPLICAS)
                except RpcTimeout:
                    continue
                if len(outcome.results) == REPLICAS and outcome.first().ok:
                    return time.perf_counter() - self.started
        raise RuntimeError(f"no served reply within {timeout}s")

    def stop(self) -> Dict:
        """Stop the server and reap it; return its final stats, or ``{}``
        if it could not report them (it is terminated then)."""
        stats: Dict = {}
        try:
            if self.proc.poll() is None:
                stats = self.command("stop", "stopped", timeout=60.0)
        except (RuntimeError, OSError) as exc:
            print(f"perfbench: server did not stop cleanly: {exc}",
                  file=sys.stderr)
        finally:
            self.kill()
        return stats

    def kill(self) -> None:
        """Make sure the child is gone and its pipes are closed."""
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=10.0)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except (OSError, ValueError):
                pass
        self._log.close()


# -- the load generator ---------------------------------------------------


@dataclass
class Op:
    phase: int
    identity: int
    #: Seconds after the start of the load this op is due.
    due: float
    #: ``time.perf_counter()`` instant the op was due (set when sent).
    due_at: float = 0.0
    conn: int = 0
    seq: int = 0
    floor: Optional[int] = None
    sent: float = 0.0
    first_reply: float = 0.0
    #: ``time.perf_counter()`` instant the op became done.
    done_at: float = 0.0
    #: Holds a closed-loop window slot until done.
    holds_slot: bool = False
    shed: bool = False
    error: Optional[str] = None
    values: Dict[str, int] = field(default_factory=dict)

    @property
    def served(self) -> bool:
        return bool(self.values) and not self.shed

    @property
    def done(self) -> bool:
        """Shed, refused, or answered by every replica."""
        return self.shed or self.error is not None or len(self.values) == REPLICAS


def _zipf_cdf() -> Tuple[List[float], float]:
    cumulative, total = [], 0.0
    for rank in range(1, IDENTITIES + 1):
        total += 1.0 / rank ** ZIPF_S
        cumulative.append(total)
    return cumulative, total


def zipf_identities(seed: int):
    """Endless zipf-drawn identities for the closed-loop phase."""
    rng = random.Random(f"perfbench-closed|{seed}")
    cumulative, total = _zipf_cdf()
    while True:
        yield bisect.bisect_left(cumulative, rng.random() * total)


def make_schedule(seed: int, phases: Sequence[Tuple[float, float]]) -> List[Op]:
    """Poisson arrivals and zipf identities for ``(rate, seconds)`` phases.
    Depends on its arguments alone."""
    rng = random.Random(f"perfbench-live|{seed}")
    cumulative, total = _zipf_cdf()
    ops: List[Op] = []
    start = 0.0
    for index, (rate, seconds) in enumerate(phases):
        at = start
        while True:
            at += rng.expovariate(rate)
            if at >= start + seconds:
                break
            identity = bisect.bisect_left(cumulative, rng.random() * total)
            ops.append(Op(phase=index, identity=identity, due=at))
        start += seconds
    return ops


class LoadGenerator:
    """Sender (the calling thread) plus one receiver thread, sharing one
    socket; the receiver runs while the generator is entered as a context
    manager."""

    def __init__(self, servers: Sequence[Tuple[str, int]], tag: str):
        self.servers = list(servers)
        #: Identity names unique to this run: no op id repeats inside a
        #: gateway's idempotency window.
        self.tag = tag
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.05)
        self._by_key: Dict[Tuple[str, int, int], Op] = {}
        self._last: Dict[int, int] = {}
        self._seqs: Dict[int, int] = {}
        self._stop = threading.Event()
        self._slots = threading.Semaphore(WINDOW)
        self._receiver = threading.Thread(target=self._receive,
                                          name="perfbench-receiver")
        self._switch_interval = sys.getswitchinterval()

    def __enter__(self) -> "LoadGenerator":
        # The sender waits for the interpreter lock whenever the receiver
        # holds it; the default 5 ms switch interval would make the sender
        # fire up to 5 ms late.
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self._receiver.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._receiver.join(timeout=5.0)
        sys.setswitchinterval(self._switch_interval)
        self.sock.close()

    def _receive(self) -> None:
        while not self._stop.is_set():
            try:
                data, _addr = self.sock.recvfrom(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            now = time.perf_counter()
            try:
                _src, envelope = decode_frame(data)
            except FrameError:
                continue
            header = envelope.header
            if header.msg_type is not MsgType.REPLY:
                continue
            op = self._by_key.get((header.dst_grp, header.conn_id,
                                   header.msg_seq_num))
            if op is None:
                continue
            result = envelope.body
            if not op.first_reply:
                op.first_reply = now
            if is_overloaded(result):
                op.shed = True
            elif not result.ok:
                op.error = str(result.error)
            elif envelope.sender not in op.values:
                value = result.value["micros"]
                op.values[envelope.sender] = value
                if value > self._last.get(op.identity, -1):
                    self._last[op.identity] = value
            if op.done and not op.done_at:
                op.done_at = now
                if op.holds_slot:
                    self._slots.release()

    def run(self, ops: List[Op], origin: float) -> None:
        """Send every op at ``origin + op.due`` (``time.perf_counter``
        seconds), then wait until each is done or ``DEADLINE_S`` has passed
        since the last was due."""
        for op in ops:
            self._send(op, origin)
        end = origin + ops[-1].due + DEADLINE_S if ops else origin
        self._await(ops, end)

    def saturate(self, identities, phase: int,
                 seconds: float) -> Tuple[List[Op], int, float]:
        """Closed loop: for ``seconds``, send an op whenever fewer than
        ``WINDOW`` are outstanding (not yet answered by every replica),
        for the identities drawn from ``identities``; then wait for the
        outstanding ops.  Returns the ops, how many of them were served
        while the loop was sending, and how long it sent (wall seconds):
        the drain after it runs below ``WINDOW`` and is not counted."""
        ops: List[Op] = []
        origin = time.perf_counter()
        while time.perf_counter() - origin < seconds:
            # A timeout means an op was lost; its successor takes its slot.
            self._slots.acquire(timeout=DEADLINE_S)
            op = Op(phase=phase, identity=next(identities),
                    due=time.perf_counter() - origin, holds_slot=True)
            ops.append(op)
            self._send(op, origin)
        stopped = time.perf_counter()
        self._await(ops, stopped + DEADLINE_S)
        served = sum(1 for op in ops if op.served and op.done_at <= stopped)
        return ops, served, stopped - origin

    def _await(self, ops: List[Op], end: float) -> None:
        """Wait until every op is done or ``end`` has passed."""
        pending = [op for op in ops if not op.done]
        while pending and time.perf_counter() < end:
            time.sleep(0.02)
            pending = [op for op in pending if not op.done]

    def _send(self, op: Op, origin: float) -> None:
        op.due_at = origin + op.due
        pause = op.due_at - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        seq = self._seqs.get(op.identity, 0) + 1
        self._seqs[op.identity] = seq
        op.conn, op.seq = op.identity + 1, seq
        op.floor = self._last.get(op.identity)
        client_group = f"client.{self.tag}i{op.identity}"
        self._by_key[(client_group, op.conn, op.seq)] = op
        envelope = make_envelope(
            MsgType.REQUEST, client_group, GROUP, op.conn, op.seq,
            f"{self.tag}i{op.identity}", body=Invocation(METHOD, (op.floor,)))
        data = encode_frame(f"{self.tag}i{op.identity}", envelope)
        op.sent = time.perf_counter()
        self.sock.sendto(data, self.servers[op.identity % len(self.servers)])


# -- analysis ---------------------------------------------------------------


def latencies_us(ops: Sequence[Op]) -> List[float]:
    """Due-time latency of every served op, microseconds."""
    return [1e6 * (op.first_reply - op.due_at) for op in ops if op.served]


def miss_latencies_us(ops: Sequence[Op]) -> List[float]:
    """As :func:`latencies_us`, with every shed, failed or unanswered op
    counted as an infinite latency (it missed any limit)."""
    return [1e6 * (op.first_reply - op.due_at) if op.served else float("inf")
            for op in ops]


def failed(op: Op) -> bool:
    """Timed out or answered with an error (a typed shed is not a failure)."""
    return not op.shed and (op.error is not None or not op.values)


def check_ops(ops: Sequence[Op], report: Report) -> None:
    served = [op for op in ops if op.served]
    report.check(checks.replies_agree([op.values for op in served]),
                 "every replica that replied sent the same value")
    partial = sum(1 for op in served if len(op.values) < REPLICAS)
    print(f"[{report.workload}] served ops answered by fewer than "
          f"{REPLICAS} replicas before the deadline: {partial}", flush=True)
    report.check(checks.above_floors(
        [(op.identity, op.floor, next(iter(op.values.values())))
         for op in served]),
        "each identity's values strictly increase past its session floor")


def _phases(workload: str, seconds: float) -> List[Tuple[str, float, float]]:
    """``(name, rate, seconds)`` per phase of the workload."""
    if workload == "live-steady":
        return [(f"r{rate}", rate, share * seconds) for rate, share in LADDER]
    return [(name, rate, share * seconds) for name, rate, share in BURST]


@dataclass
class LiveRun:
    #: The open-loop phases' ops.
    ops: List[Op]
    phases: List[Tuple[str, float, float]]
    #: Server figures for the open-loop phases, and (``detail`` only) for
    #: the idle second after them.
    loaded: Dict
    idle: Dict
    heap_before: int
    #: The closed-loop phase's ops (none with ``detail``), and per slice
    #: of it: the ops served while the loop was sending and its sending
    #: wall seconds, all ops served in it and the server's CPU seconds
    #: over it (its drain included), and the server core's host factor.
    closed: List[Op] = field(default_factory=list)
    slices: List[Tuple[int, float, int, float, float]] = field(
        default_factory=list)
    peak_rss_mb: float = 0.0

    def phase_ops(self, name: str) -> List[Op]:
        index = [phase[0] for phase in self.phases].index(name)
        return [op for op in self.ops if op.phase == index]

    def phase_seconds(self, name: str) -> float:
        return next(span for phase, _rate, span in self.phases if phase == name)


def drive(server: ServerProcess, workload: str, seed: int, seconds: float,
          detail: bool = False) -> LiveRun:
    """Load ``server`` with the workload's open-loop phases, then its
    closed-loop phase.  With ``detail``, instead of the closed loop,
    count the server's live objects before and after the open-loop
    phases and leave it idle for ``IDLE_S`` to measure its idle CPU."""
    phases = _phases(workload, seconds)
    ops = make_schedule(seed, [(rate, span) for _name, rate, span in phases])
    heap_before = (server.command("stats heap", "stats")["heap_objs"]
                   if detail else 0)
    server.command("mark trace", "marked")
    _pin(0, LOADGEN_CPU)
    with LoadGenerator(server.servers, tag=f"b{os.getpid()}") as generator:
        generator.run(ops, time.perf_counter() + 0.05)
        loaded = server.command("stats heap" if detail else "stats", "stats")
        run = LiveRun(ops, phases, loaded, {}, heap_before)
        server.command("mark", "marked")
        if detail:
            time.sleep(IDLE_S)
            run.idle = server.command("stats", "stats")
        else:
            identities = zipf_identities(seed)
            before = server.command("ref", "ref")["s"]
            for _index in range(CLOSED_SLICES):
                server.command("mark", "marked")
                ops, served, wall = generator.saturate(
                    identities, len(phases),
                    SATURATE_SHARE * seconds / CLOSED_SLICES)
                stats = server.command("stats", "stats")
                after = server.command("ref", "ref")["s"]
                run.closed.extend(ops)
                run.slices.append((served, wall, sum(1 for op in ops
                                                     if op.served),
                                   stats["cpu_s"], host_factor(before, after)))
                run.peak_rss_mb = stats["peak_rss_mb"]
                before = after
    return run


def start_server(workload: str,
                 spans_stem: str = "") -> Tuple[ServerProcess, float]:
    """A fresh server that has served its first op, and its set-up time;
    traced when ``spans_stem`` is given."""
    server = ServerProcess(workload, spans_stem)
    try:
        return server, server.wait_serving()
    except BaseException:
        server.proc.terminate()
        server.kill()
        raise


def _tally(report: Report, ops: Sequence[Op]) -> None:
    report.attempted = len(ops)
    report.failed = sum(1 for op in ops if failed(op))


def measure(workload: str, seed: int, seconds: float) -> Report:
    """The untraced run: end-to-end metrics plus correctness checks."""
    report = Report(workload)
    setups: List[float] = []
    for attempt in range(SETUP_REPEATS):
        server, setup_s = start_server(workload)
        setups.append(setup_s)
        if attempt < SETUP_REPEATS - 1:
            server.stop()
    try:
        run = drive(server, workload, seed, seconds)
    finally:
        final = server.stop()
    ops = run.ops + run.closed
    _tally(report, ops)
    # Not scaled: a fresh server's set-up time (mostly interpreter start
    # and imports) moved far less with the host than the reference loop
    # did, so scaling it would add the loop's swings, not remove the
    # host's (see the README).
    report.add("setup_s", median(setups), "s",
               f"median of {len(setups)} fresh servers, wall seconds")
    served = sum(row[0] for row in run.slices)
    wall = sum(row[1] for row in run.slices)
    ref_wall = sum(row[1] / row[4] for row in run.slices)
    all_served = sum(row[2] for row in run.slices)
    cpu = sum(row[3] for row in run.slices)
    ref_cpu = sum(row[3] / row[4] for row in run.slices)
    factors = [row[4] for row in run.slices]
    report.add("ops_per_wall_s", served / ref_wall, "1/s",
               f"closed loop, {WINDOW} outstanding: {served} served in "
               f"{ref_wall:.2f} reference-core s of sending")
    report.add("ops_per_wall_s.unscaled", served / wall, "1/s",
               f"{served} served in {wall:.2f} wall s")
    report.add("cpu_us_per_op", 1e6 * ref_cpu / max(1, all_served), "us",
               "server CPU per served op in the closed loop, "
               "in reference-core us")
    report.add("cpu_us_per_op.unscaled", 1e6 * cpu / max(1, all_served), "us")
    report.add("host_factor", median(factors), "x",
               f"server core, median over {len(factors)} slices; range "
               f"{min(factors):.2f}-{max(factors):.2f}")
    report.latency("", latencies_us(run.closed), suffix=".closed")
    for name, _rate, span in run.phases:
        phase = run.phase_ops(name)
        report.add(f"offered_ops_s.{name}", len(phase) / span, "1/s")
        report.latency("", latencies_us(phase), suffix=f".{name}")
    if workload == "live-steady":
        reference = "r300"
        report.add("max_rate_ops_s", max_rate(run), "1/s",
                   f"highest rung with p99 <= {P99_LIMIT_US / 1e3:g} ms, "
                   "nothing shed, no backlog")
    else:
        reference = "post"
        burst = run.phase_ops("burst")
        report.add("burst_goodput_ops_s",
                   sum(1 for op in burst if op.served)
                   / run.phase_seconds("burst"), "1/s")
        post = latencies_us(run.phase_ops("post"))
        report.add("post_burst_p99_us", percentile(post, 99.0), "us",
                   f"n={len(post)}")
    report.add("shed_frac", sum(1 for op in ops if op.shed) / len(ops), "frac")
    report.add("failed_frac", report.failed / len(ops), "frac",
               "timeouts and errors; typed sheds not counted")
    reference_us = latencies_us(run.phase_ops(reference))
    for stat, pct in (("p50_us", 50.0), ("p99_us", 99.0)):
        report.add(stat, percentile(reference_us, pct), "us",
                   f"phase {reference}, n={len(reference_us)}")
    report.add("peak_rss_mb", final.get("peak_rss_mb", run.peak_rss_mb),
               "MiB", "server process")
    report.add("loadgen.lateness_p99_us", lateness_p99_us(run.ops), "us",
               "open-loop phases")
    check_ops(ops, report)
    return report


def lateness_p99_us(ops: Sequence[Op]) -> float:
    return 1e6 * percentile([op.sent - op.due_at for op in ops], 99.0)


def max_rate(run: LiveRun) -> float:
    """The highest rung whose p99 (misses counted as infinite) is within
    the limit, with nothing shed and the last tenth of the rung's ops
    answered within the limit at the median (no backlog)."""
    best = 0.0
    for name, rate, _span in run.phases:
        phase = run.phase_ops(name)
        if not phase or any(op.shed for op in phase):
            continue
        tail = phase[-max(1, len(phase) // 10):]
        if (percentile(miss_latencies_us(phase), 99.0) <= P99_LIMIT_US
                and percentile(miss_latencies_us(tail), 50.0) <= P99_LIMIT_US):
            best = max(best, rate)
    return best


def measure_layers(workload: str, seed: int, seconds: float) -> Report:
    """The traced run: one untraced and one traced fresh server each carry
    the workload's phases shortened to ``TRACED_SHARE``; per-layer metrics
    come from the traced one, and the tracing overhead is the ratio of
    their median latencies."""
    report = Report(workload)
    span = TRACED_SHARE * seconds
    server, _setup_s = start_server(workload)
    try:
        plain = drive(server, workload, seed, span)
    finally:
        server.stop()
    stem = os.path.join(out_dir(), f"spans-{workload}")
    server, _setup_s = start_server(workload, spans_stem=stem)
    try:
        traced = drive(server, workload, seed, span, detail=True)
    finally:
        final = server.stop()
    ops = traced.ops
    _tally(report, ops)
    check_ops(ops, report)
    served = sum(1 for op in ops if op.served)
    raw = dict(traced.loaded)
    raw["heap_objs_delta"] = traced.loaded["heap_objs"] - traced.heap_before
    raw["idle_cpu_frac"] = traced.idle["cpu_s"] / traced.idle["wall_s"]
    raw["lateness_p99_us"] = lateness_p99_us(ops)
    raw["trace_overhead_frac"] = (median(latencies_us(ops))
                                  / median(latencies_us(plain.ops)) - 1.0)
    print(f"[{workload}] traced server: {served} served, "
          f"{raw.get('spans_total', 0)} spans while loaded; all "
          f"{final.get('spans_total', 0)} spans written to "
          f"{os.path.relpath(stem, ROOT)}.bin", flush=True)
    metrics = per_layer_metrics(raw, served)
    for name, unit in PER_LAYER_UNITS.items():
        report.add(name, metrics[name], unit)
    return report
