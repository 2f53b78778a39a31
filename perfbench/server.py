"""The live server process: three default ``NodeDaemon``s on one kernel.

Started fresh for every live run by :mod:`perfbench.livebed`:

    python3 perfbench/server.py [--spans STEM]

The three daemons are built from the default ``DaemonConfig`` (active
replication, CTS with coalesced rounds, admission control on) and share
one ``LiveKernel`` on loopback UDP with ephemeral ports.  The process
talks to its parent over its standard streams, one JSON object per line:
it prints ``{"event": "ready", "servers": [...]}`` once its sockets are
bound, then answers each command read from standard input:

* ``mark``  — start a measured phase: snapshot CPU and counters and
  reset the GC statistics; ``mark trace`` also drops the spans recorded
  so far (set-up is not part of the traced span);
* ``stats`` — print the CPU, GC, memory and layer counters accumulated
  since the last ``mark`` (``stats heap`` also counts live objects);
* ``ref``   — time the reference loop (``perfbench.common.reference_s``)
  in this process and print the seconds it took;
* ``stop``  — shut the daemons down, write the spans if traced, print
  the final stats and exit.

With ``--spans STEM`` the layer entry points are traced and the spans
are written to ``STEM.json`` and ``STEM.bin`` on ``stop``.

Logs go to standard error.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NODES = ("n0", "n1", "n2")


class Server:
    def __init__(self, spans_stem: str = ""):
        from repro.net.daemon import DaemonConfig, NodeDaemon
        from repro.net.kernel import LiveKernel

        from perfbench.common import cpu_s
        from perfbench.layers import GcWatch, LayerProbe

        self._cpu_s = cpu_s
        self.spans_stem = spans_stem
        self.probe = None
        self.kernel = LiveKernel()
        if spans_stem:
            # Wrappers go in before the daemons are built: the daemons
            # capture bound methods (socket readers, node receivers).
            self.probe = LayerProbe(kernel_now=lambda: self.kernel.now)
            self.probe.install_live()
        self.gc_watch = GcWatch().start()
        peers = {node: ("127.0.0.1", 0) for node in NODES}
        self.daemons = [NodeDaemon(DaemonConfig(node_id=node, peers=peers),
                                   kernel=self.kernel) for node in NODES]
        # Ports were ephemeral: publish the bound addresses to every
        # daemon's address book before any traffic flows.
        bound = {d.config.node_id: d.address for d in self.daemons}
        for daemon in self.daemons:
            daemon.transport.peers.update(bound)
        self._buffer = b""
        self._mark = self._snapshot()

    # -- lifecycle -------------------------------------------------------

    def run(self) -> None:
        loop = self.kernel.loop
        for daemon in self.daemons:
            daemon.start()
        loop.add_reader(sys.stdin.fileno(), self._on_stdin)
        self._send({"event": "ready",
                    "servers": [list(d.address) for d in self.daemons]})
        try:
            loop.run_forever()
        finally:
            loop.remove_reader(sys.stdin.fileno())
            for failure in self.kernel.drain_failures():
                print(f"[perfbench server] protocol failure: {failure!r}",
                      file=sys.stderr, flush=True)
            stats = self.stats(heap=False)
            for daemon in self.daemons:
                daemon.transport.close()
            self.kernel.close()
            if self.probe is not None:
                self.probe.tracer.restore()
                self.probe.tracer.write(self.spans_stem)
            self.gc_watch.stop()
            self._send({"event": "stopped", **stats})

    def _on_stdin(self) -> None:
        chunk = os.read(sys.stdin.fileno(), 4096)
        if not chunk:  # parent went away
            self.kernel.loop.stop()
            return
        self._buffer += chunk
        while b"\n" in self._buffer:
            line, self._buffer = self._buffer.split(b"\n", 1)
            self._command(line.decode().split())

    def _command(self, words) -> None:
        if not words:
            return
        if words[0] == "mark":
            if self.probe is not None and "trace" in words[1:]:
                self.probe.reset()
            self.gc_watch.reset()
            self._mark = self._snapshot()
            self._send({"event": "marked"})
        elif words[0] == "stats":
            self._send({"event": "stats",
                        **self.stats(heap="heap" in words[1:])})
        elif words[0] == "ref":
            from perfbench.common import reference_s

            self._send({"event": "ref", "s": reference_s()})
        elif words[0] == "stop":
            self.kernel.loop.stop()
        else:
            self._send({"event": "error", "reason": f"unknown command {words}"})

    @staticmethod
    def _send(doc) -> None:
        sys.stdout.write(json.dumps(doc) + "\n")
        sys.stdout.flush()

    # -- measurement -----------------------------------------------------

    def _counters(self):
        from perfbench.layers import SHED_REASONS, retained_entries

        gateways = [d.gateway for d in self.daemons]
        ports = [d.node.iface for d in self.daemons]
        sources = [d.replica.time_source for d in self.daemons]
        processors = [d.processor for d in self.daemons]
        counters = {
            "gateway.requests": sum(g.requests_injected for g in gateways),
            "gateway.dedup_hits": sum(g.requests_deduplicated
                                      for g in gateways),
            "gateway.shed": sum(g.requests_shed for g in gateways),
            "udp.sent": sum(p.frames_sent for p in ports),
            "udp.received": sum(p.frames_received for p in ports),
            "udp.rejected": sum(p.frames_rejected for p in ports),
            "totem.retransmits": sum(p.stats.retransmissions
                                     + p.stats.token_retransmissions
                                     for p in processors),
            "cts.ccs_transmitted": sum(s.stats.ccs_transmitted
                                       for s in sources),
            "cts.ops_completed": sum(s.stats.ops_completed for s in sources),
            "cts.rounds_completed": sum(s.stats.rounds_completed
                                        for s in sources),
        }
        for reason in SHED_REASONS:
            counters[f"shed.{reason}"] = sum(
                g.admission.stats.shed.get(reason, 0) for g in gateways
                if g.admission is not None)
        counters["cts.retained"] = retained_entries(sources)
        return counters

    def _snapshot(self):
        return {"cpu_s": self._cpu_s(), "wall_s": time.monotonic(),
                "counters": self._counters()}

    def stats(self, heap: bool):
        """Everything measured since the last ``mark``."""
        from perfbench.common import peak_rss_mb

        now = self._snapshot()
        counters = {key: value - self._mark["counters"].get(key, 0)
                    for key, value in now["counters"].items()}
        # Retained history is a level, not a rate: report it whole.
        counters["cts.retained"] = now["counters"]["cts.retained"]
        doc = {
            "cpu_s": now["cpu_s"] - self._mark["cpu_s"],
            "wall_s": now["wall_s"] - self._mark["wall_s"],
            "peak_rss_mb": peak_rss_mb(),
            "kernel.pending_timers": len(getattr(self.kernel.loop,
                                                 "_scheduled", ())),
            **counters,
            **{f"gc.{key}": value
               for key, value in self.gc_watch.summary().items()},
        }
        if heap:
            gc.collect()
            doc["heap_objs"] = len(gc.get_objects())
        if self.probe is not None:
            doc.update(self.probe.totals())
        return doc


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    stem = args[args.index("--spans") + 1] if "--spans" in args else ""
    Server(stem).run()
    return 0


if __name__ == "__main__":
    sys.exit(main())
