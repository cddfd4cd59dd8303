"""The process under test for ``gateway_stream``: one ingestion gateway.

Started by ``perf_gateway.GatewayChild`` (traced and untraced runs use
this same file, so the two differ only by the ``trace`` command).  The
gateway listens on a loopback port the kernel picks; the host announces
it as one JSON line on stdout and then obeys line commands on stdin:

``phase <name>``  close the current phase book and open ``<name>``
``trace``         rebind the layers' public callables to the tracer
``stop``          stop the gateway, print one JSON summary line, exit

Each command is answered with one JSON line once it has taken effect,
so the generator never sends a phase's first frame before the book for
that phase is open.

End of input (the parent died or closed the pipe) also stops it, so no
exit path of the parent leaves a gateway holding its port.

Per phase the host books what only the server process can see exactly
when the phase turns: wall and CPU seconds, ``frames_in``, rounds, the
lag of a ``call_later`` heartbeat — how long work that was due waited
for the one event loop everything shares — and each round's true
command-to-estimate time, read off the wall clock inside the driver's
public ``on_complete`` hook.  The gateway's own ``latency_s`` stops its
clock when collection closes, *before* the solve, so it cannot serve.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"gateway_host: no program to host ({SRC}/repro missing)")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from repro.gateway.server import GatewayConfig, IngestionGateway  # noqa: E402
from repro.middleware.config import BrokerConfig, CompressionPolicy  # noqa: E402

import perf_layers  # noqa: E402
from perf_trace import Tracer  # noqa: E402

HEARTBEAT_S = 0.01


class Host:
    """Gateway + heartbeat + phase books + stdin command loop."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.gateway = IngestionGateway(
            GatewayConfig(
                zone_width=args.zone,
                zone_height=args.zone,
                period_s=args.period,
                infrastructure_every=1,
                seed=args.seed,
                # The default "sparsity" policy starts this zone near
                # M = 0.7 N and takes 60+ rounds to settle near 0.3 N,
                # each round's solve getting cheaper on the way (270 ms
                # down to 50): a timed window would measure where in
                # that transient it fell.  A fixed ratio (the policy's
                # own default, 0.2) makes every round cost the same from
                # the first, and light enough (~30 ms) that a round does
                # not outlast the socket buffers during the flood.
                broker=BrokerConfig(
                    policy=CompressionPolicy(mode="fixed-ratio", ratio=0.2)
                ),
            )
        )
        self.loop = self.gateway.clock.loop
        self.tracer: Tracer | None = None
        self.phases: list[dict] = []
        self._lags_ms: list[float] = []
        self._round_ms: list[float] = []
        self._beat_due = 0.0
        self._pending = b""
        self._open_phase("idle")
        self._published = self.gateway.driver.on_complete
        self.gateway.driver.on_complete = self._on_round

    def _on_round(self, outcome) -> None:
        if not outcome.stale:
            self._round_ms.append(
                (self.gateway.clock.now - outcome.started_at) * 1e3
            )
        self._published(outcome)

    # -- phase books ---------------------------------------------------

    def _snapshot(self) -> dict:
        driver = self.gateway.driver
        return {
            "wall": time.perf_counter(),
            "cpu": time.process_time(),
            "frames_in": self.gateway.frames_in,
            "frames_out": self.gateway.frames_out,
            "rounds": driver.rounds_completed,
            "rounds_skipped": driver.rounds_skipped,
            "rounds_failed": driver.rounds_failed,
        }

    def _open_phase(self, name: str) -> None:
        self._close_phase()
        self._lags_ms, self._round_ms = [], []
        self.phases.append({"name": name, "_at": self._snapshot()})

    def _close_phase(self) -> None:
        if not self.phases or "_at" not in self.phases[-1]:
            return
        book = self.phases[-1]
        begin, end = book.pop("_at"), self._snapshot()
        book.update({key: end[key] - begin[key] for key in end})
        book["loop_lag_ms"] = self._lags_ms
        book["round_ms"] = self._round_ms

    # -- heartbeat -----------------------------------------------------

    def _beat(self) -> None:
        now = self.loop.time()
        self._lags_ms.append((now - self._beat_due) * 1e3)
        # Open loop: the next beat is due on the schedule, not relative
        # to when this one got to run, so a stall shows in every beat
        # it delayed.
        self._beat_due = max(self._beat_due + HEARTBEAT_S, now)
        self.loop.call_at(self._beat_due, self._beat)

    # -- commands ------------------------------------------------------

    def _on_stdin(self) -> None:
        data = os.read(sys.stdin.fileno(), 4096)
        if not data:
            self._stop()
            return
        self._pending += data
        *lines, self._pending = self._pending.split(b"\n")
        for line in lines:
            words = line.decode().split()
            if not words:
                continue
            if words[0] == "stop":
                self._stop()
                return
            if words[0] == "phase":
                self._open_phase(words[1])
            elif words[0] == "trace" and self.tracer is None:
                self.tracer = Tracer()
                perf_layers.install(self.tracer)
            print(json.dumps({"done": words}), flush=True)

    def _stop(self) -> None:
        self.loop.remove_reader(sys.stdin.fileno())
        self.loop.stop()

    # -- lifecycle -----------------------------------------------------

    def run(self) -> None:
        loop, gateway = self.loop, self.gateway
        loop.run_until_complete(gateway.start("127.0.0.1", 0))
        try:
            print(json.dumps({"port": gateway.port}), flush=True)
            self._beat_due = loop.time() + HEARTBEAT_S
            loop.call_at(self._beat_due, self._beat)
            loop.add_reader(sys.stdin.fileno(), self._on_stdin)
            loop.run_forever()
            self._close_phase()
        finally:
            loop.run_until_complete(gateway.stop())
            # A device connection the generator has not closed yet has
            # its handler parked on a read: hang up, and let it see EOF
            # before the loop goes.
            for session in list(gateway.sessions.values()):
                session.writer.close()
            parked = asyncio.all_tasks(loop)
            if parked:
                loop.run_until_complete(asyncio.wait(parked, timeout=2.0))
        summary: dict = {
            "phases": self.phases,
            "late_reports": gateway.driver.late_reports,
            "overload_level": gateway.nanocloud.broker.overload.ladder.level,
            "transport": gateway.transport.stats_snapshot(),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if self.tracer is not None:
            self.tracer.unpatch()
            summary["trace"] = {
                "by_name": self.tracer.summary(),
                "counters": dict(self.tracer.counters),
            }
            if self.args.trace_file:
                self.tracer.write(
                    Path(self.args.trace_file),
                    workload="gateway_stream",
                    seed=self.args.seed,
                )
        print(json.dumps(summary), flush=True)
        gateway.clock.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--zone", type=int, required=True)
    parser.add_argument("--period", type=float, required=True)
    parser.add_argument("--trace-file", default="")
    Host(parser.parse_args()).run()


if __name__ == "__main__":
    main()
