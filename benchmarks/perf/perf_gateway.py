"""The ``gateway_stream`` workload: real sockets, one loop, two phases.

The process under test is ``gateway_host.py`` (one ``IngestionGateway``
child).  This process is the load: one thread holding one device
WebSocket and one sequential HTTP poller, i.e. one connection per core
of the 2-core host this was sized on.  Few fast connections instead of
a thousand slow ones is deliberate — it measures per-frame cost and
ingest/solve/query contention on the gateway's one event loop, not the
host scheduler; fleet-size scaling stays in ``BENCH_INGEST.json``.

``paced``  open loop at ``rate`` frames/s, each frame due on a fixed
           schedule whatever the gateway does; how late the generator
           itself ran is reported (``harness.gen_late_ms_p99``) and a
           run later than ``GEN_LATE_LIMIT_MS`` is invalid.
``flood``  back-to-back frames limited only by TCP flow control: the
           rate delivered is the capacity, and the poller shows who
           starves.

Every byte sent is made from the seed before the clock starts.
"""

from __future__ import annotations

import asyncio
import json
import random
import select
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from statistics import median

import numpy as np

from repro.gateway import protocol

import perf_layers
from perf_stats import timing
from perf_workloads import Outcome, trace_path

__all__ = ["GatewayChild", "run_gateway_stream"]

HOST_SCRIPT = Path(__file__).resolve().parent / "gateway_host.py"

GATEWAY_SHAPE = dict(zone=32, period=0.2, rate=2000.0, poll_hz=25.0)
GATEWAY_SMOKE_SHAPE = dict(zone=8, period=0.1, rate=200.0, poll_hz=10.0)
SETUP_SAMPLES = 3
#: Of the measured seconds, paced gets this share and flood the rest.
PACED_SHARE = 2.0 / 3.0
#: Share of a traced run's seconds spent on the untraced baseline flood.
UNTRACED_SHARE = 0.25
FRAME_POOL = 4096
FLOOD_CHUNK_FRAMES = 256
NOISE_STD = 0.5
GEN_LATE_LIMIT_MS = 10.0
# Twice the typical 0.75 at M = 0.2 N on this field: catches a broken
# reconstruction; drift is the gated estimate_rmse metric's job.
GATEWAY_RMSE_LIMIT = 1.5
CHILD_TIMEOUT_S = 60.0
WARMUP_FLOOD_S = 1.0


class GatewayChild:
    """One gateway child process, killed on every exit path."""

    def __init__(self, seed: int, shape: dict, trace_file: Path | None = None):
        self._argv = [
            sys.executable, str(HOST_SCRIPT),
            "--seed", str(seed),
            "--zone", str(shape["zone"]),
            "--period", str(shape["period"]),
        ]
        if trace_file is not None:
            self._argv += ["--trace-file", str(trace_file)]
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.setup_s = 0.0

    def __enter__(self) -> "GatewayChild":
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self._argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        try:
            self.port = int(self._read_line()["port"])
            self._await_healthy()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        self.setup_s = time.perf_counter() - started
        return self

    def _read_line(self) -> dict:
        assert self.proc is not None and self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("gateway child did not answer")
        return json.loads(line)

    def _await_healthy(self) -> None:
        url = f"http://127.0.0.1:{self.port}/healthz"
        deadline = time.perf_counter() + CHILD_TIMEOUT_S
        while True:
            try:
                with urllib.request.urlopen(url, timeout=1.0) as reply:
                    if json.load(reply).get("ok"):
                        return
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)

    def command(self, line: str) -> dict:
        """Send one line command and wait for the host's answer."""
        assert self.proc is not None and self.proc.stdin is not None
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        return self._read_line()

    def stop(self) -> dict:
        """Ask the host to stop; returns its summary once it has exited."""
        summary = self.command("stop")
        assert self.proc is not None
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        return summary

    def __exit__(self, *exc_info) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            if pipe is not None:
                pipe.close()


# -- the generator ---------------------------------------------------------


async def _http_get(port: int, path: str) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: gateway\r\n\r\n".encode())
        await writer.drain()
        raw = await reader.read()  # Connection: close bounds it
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    if not head.startswith(b"HTTP/1.1 200"):
        raise ConnectionError(f"GET {path}: {head[:40]!r}")
    return body


class _Poller:
    """Sequential ``/zones/latest`` reader on a fixed grid of due times.

    A query is timed from the moment it was due.  Grid slots that pass
    while a query is still in flight are skipped and counted, so a
    starved gateway shows as long queries, not as an ever-growing queue
    of this generator's own making.
    """

    def __init__(self, port: int, hz: float, truth: np.ndarray) -> None:
        self.port, self.hz, self.truth = port, hz, truth
        self.phase = "idle"
        self.query_ms: dict[str, list[float]] = {}
        self.rounds: dict[int, tuple[str, float, float, bool]] = {}
        self.issued = self.errors = self.skipped = 0

    async def run(self) -> None:
        origin, slot = time.perf_counter(), 0
        while True:
            due = origin + slot / self.hz
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            phase = self.phase
            self.issued += 1
            try:
                doc = json.loads(await _http_get(self.port, "/zones/latest"))
            except (OSError, ValueError):
                self.errors += 1
            else:
                done = time.perf_counter()
                self.query_ms.setdefault(phase, []).append((done - due) * 1e3)
                index = doc.get("round")
                if index is not None and index not in self.rounds:
                    field = np.asarray(doc["field"], dtype=float)
                    self.rounds[index] = (
                        phase,
                        float(doc["latency_s"]) * 1e3,
                        float(np.sqrt(np.mean((field - self.truth) ** 2))),
                        bool(np.isfinite(field).all()),
                    )
            following = int((time.perf_counter() - origin) * self.hz) + 1
            self.skipped += following - slot - 1
            slot = following


def _encode_frames(seed: int, value_true: float) -> list[bytes]:
    """The device's byte stream: masked RFC 6455 text frames from the seed."""
    rng = random.Random(seed * 1_000_003 + 1)
    frames = []
    for _ in range(FRAME_POOL):
        reading = {
            "type": "reading",
            "value": value_true + rng.gauss(0.0, NOISE_STD),
            "noise_std": NOISE_STD,
        }
        frames.append(
            protocol.ws_encode(
                json.dumps(reading, separators=(",", ":")), mask=True, rng=rng
            )
        )
    return frames


async def _paced(writer, frames: list[bytes], rate: float, seconds: float):
    """Open loop: frame k is due at k / rate.  Returns (sent, late_ms)."""
    total = int(rate * seconds)
    pool = len(frames)
    sent, batches = 0, []
    origin = time.perf_counter()
    while sent < total:
        now = time.perf_counter() - origin
        due = min(total, int(now * rate) + 1)
        if due > sent:
            writer.write(b"".join(frames[k % pool] for k in range(sent, due)))
            batches.append((sent, due, now))
            sent = due
            await writer.drain()
        await asyncio.sleep(
            max(0.0, sent / rate - (time.perf_counter() - origin))
        )
    late_ms = np.concatenate(
        [(now - np.arange(a, b) / rate) * 1e3 for a, b, now in batches]
    )
    return sent, late_ms


async def _flood(writer, frames: list[bytes], seconds: float) -> int:
    """Closed only by TCP flow control: write, drain, write."""
    pool = len(frames)
    chunks = [
        b"".join(frames[k : k + FLOOD_CHUNK_FRAMES])
        for k in range(0, pool, FLOOD_CHUNK_FRAMES)
    ]
    sent, turn = 0, 0
    origin = time.perf_counter()
    while time.perf_counter() - origin < seconds:
        writer.write(chunks[turn % len(chunks)])
        sent += FLOOD_CHUNK_FRAMES
        turn += 1
        await writer.drain()
    return sent


async def _settle(port: int, expected: int) -> int:
    """Wait until the gateway has consumed every frame sent so far."""
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    while True:
        seen = int(json.loads(await _http_get(port, "/stats"))["frames_in"])
        if seen >= expected or time.perf_counter() > deadline:
            return seen
        await asyncio.sleep(0.05)


async def _discard(reader: asyncio.StreamReader) -> None:
    """Consume the gateway's downlink (joined + command notifications)."""
    while await reader.read(65536):
        pass


async def _generate(
    child: GatewayChild, shape: dict, seed: int, seconds: float, trace: bool
) -> dict:
    port = child.port
    truth = np.asarray(
        json.loads(await _http_get(port, "/field/truth"))["grid"], dtype=float
    )
    place = random.Random(seed)
    x, y = place.randrange(shape["zone"]), place.randrange(shape["zone"])
    frames = _encode_frames(seed, float(truth[y, x]))

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    await protocol.ws_client_handshake(
        reader, writer, f"/sensor/connect?x={x}&y={y}&mode=stream&id=bench",
        rng=place,
    )
    poller = _Poller(port, shape["poll_hz"], truth)
    tasks = [
        asyncio.ensure_future(_discard(reader)),
        asyncio.ensure_future(poller.run()),
    ]
    book: dict = {"poller": poller}
    try:
        # The first flood on a fresh connection runs at ~60 % of the
        # rate of every later one (socket buffers still growing), so it
        # is spent before anything is measured.
        child.command("phase warmup")
        poller.phase = "warmup"
        sent_total = await _flood(writer, frames, WARMUP_FLOOD_S)
        await _settle(port, sent_total)
        if trace:
            # Like-for-like baseline: the same child floods untraced
            # first, then is told to start tracing.
            child.command("phase flood_untraced")
            poller.phase = "flood_untraced"
            sent_total += await _flood(writer, frames, seconds * UNTRACED_SHARE)
            await _settle(port, sent_total)
            child.command("trace")
            seconds *= 1.0 - UNTRACED_SHARE
        child.command("phase paced")
        poller.phase = "paced"
        book["paced_sent"], book["late_ms"] = await _paced(
            writer, frames, shape["rate"], seconds * PACED_SHARE
        )
        sent_total += book["paced_sent"]
        book["settled"] = await _settle(port, sent_total) == sent_total
        child.command("phase flood")
        poller.phase = "flood"
        await _flood(writer, frames, seconds * (1.0 - PACED_SHARE))
        child.command("phase drain")
        poller.phase = "drain"
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        writer.close()
    return book


# -- the workload ----------------------------------------------------------


def run_gateway_stream(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Outcome:
    shape = GATEWAY_SMOKE_SHAPE if smoke else GATEWAY_SHAPE
    out = Outcome()
    trace_file = trace_path(workload) if trace else None

    setups = []
    for _ in range(0 if smoke else SETUP_SAMPLES - 1):
        with GatewayChild(seed, shape) as spare:
            setups.append(spare.setup_s)
    with GatewayChild(seed, shape, trace_file) as child:
        setups.append(child.setup_s)
        book = asyncio.run(_generate(child, shape, seed, seconds, trace))
        summary = child.stop()

    poller: _Poller = book["poller"]
    phases = {phase["name"]: phase for phase in summary["phases"]}
    paced, flood = phases["paced"], phases["flood"]
    seen = [r for r in poller.rounds.values() if r[0] == "paced"]
    latency = timing(paced["round_ms"])
    reported = timing([r[1] for r in seen])
    rmse = median(r[2] for r in seen) if seen else float("nan")
    late = timing(book["late_ms"])
    late_p99 = float(np.percentile(book["late_ms"], 99.0))
    missing = book["paced_sent"] - paced["frames_in"]
    unfinished = sum(
        p["rounds_failed"] + p["rounds_skipped"] for p in (paced, flood)
    )
    measured = paced["wall"] + flood["wall"]

    out.attempted = book["paced_sent"] + poller.issued + paced["rounds"] + flood["rounds"]
    out.failed = max(missing, 0) + poller.errors + unfinished
    out.check(book["settled"] and missing == 0, f"paced: {missing} frames not ingested")
    out.check(poller.errors == 0, f"{poller.errors} queries errored")
    out.check(unfinished == 0, f"{unfinished} rounds failed or skipped")
    out.check(len(seen) > 0, "poller saw no paced round")
    out.check(all(r[3] for r in poller.rounds.values()), "non-finite estimate")
    if late_p99 > GEN_LATE_LIMIT_MS:
        # The load, not the gateway, fell behind: say so, but do not call
        # the gateway's outputs wrong.  Every frame was still sent.
        out.notes.append(
            f"INVALID paced phase: generator ran {late_p99:.1f} ms late at "
            f"p99 (limit {GEN_LATE_LIMIT_MS:g} ms); leave this run out"
        )
    if not smoke:
        out.check(
            rmse <= GATEWAY_RMSE_LIMIT,
            f"estimate_rmse {rmse:.3f} > {GATEWAY_RMSE_LIMIT}",
        )
    queries = timing(poller.query_ms.get("paced", []))
    flood_queries = timing(poller.query_ms.get("flood", []))
    out.notes += [
        f"paced command->estimate ms, on_complete wall clock: {latency}",
        f"paced command->estimate ms, as /zones/latest reports it "
        f"(clock stops before the solve): {reported}",
        f"paced /zones/latest ms: {queries}",
        f"flood /zones/latest ms: {flood_queries} "
        f"({poller.skipped} poll slots skipped in all)",
        f"generator lateness ms: {late}",
    ]
    out.end_to_end = {
        "setup_s": median(setups),
        "round_ms_p50": latency.p50,
        "rounds_per_s": (paced["rounds"] + flood["rounds"]) / measured,
        "reports_per_s": flood["frames_in"] / flood["wall"],
        "rounds_on_time_ratio": paced["rounds"]
        / (paced["wall"] / shape["period"]),
        "estimate_rmse": rmse,
        "peak_rss_mb": summary["rss_mb"],
    }
    if not trace:
        return out

    lag = timing(paced["loop_lag_ms"])
    traced = summary["trace"]
    base = phases["flood_untraced"]
    # The transport's books cover the child's whole life, so do the rounds.
    all_rounds = max(sum(p["rounds"] for p in summary["phases"]), 1)
    values = {
        "network.bus.messages": summary["transport"]["messages"] / all_rounds,
        "network.bus.bytes": summary["transport"]["bytes"] / all_rounds,
        "network.bus.lost": float(summary["transport"]["messages_lost"]),
        "network.bus.inbox_peak": float(summary["transport"]["inbox_peak"]),
        "middleware.rounds.late_reports": float(summary["late_reports"]),
        "middleware.rounds.skipped": float(unfinished),
        "gateway.server.frames_in": float(paced["frames_in"] + flood["frames_in"]),
        "gateway.server.frames_out": float(paced["frames_out"] + flood["frames_out"]),
        "gateway.server.overload_level": float(summary["overload_level"]),
        "gateway.server.cpu_util_paced": paced["cpu"] / paced["wall"],
        "gateway.server.cpu_util_flood": flood["cpu"] / flood["wall"],
        "gateway.server.loop_lag_ms_p50": lag.p50,
        "gateway.server.loop_lag_ms_tail": lag.tail,
        "gateway.server.flood_loop_lag_ms_p50": timing(flood["loop_lag_ms"]).p50,
        "gateway.server.round_ms_tail": latency.tail,
        "gateway.server.flood_round_ms_p50": timing(flood["round_ms"]).p50,
        "gateway.server.reported_latency_ms_p50": reported.p50,
        "gateway.server.query_ms_p50": queries.p50,
        "gateway.server.query_ms_tail": queries.tail,
        "gateway.server.flood_query_ms_p50": flood_queries.p50,
        "harness.gen_late_ms_p99": late_p99,
        "harness.trace_overhead_ratio": (base["frames_in"] / base["wall"])
        / (flood["frames_in"] / flood["wall"]),
        # One loop runs everything, so coverage is traced self time over
        # the CPU the child burned while traced.
        "harness.self_time_coverage": sum(
            s["self_ns"] for s in traced["by_name"].values()
        )
        / (sum(phases[p]["cpu"] for p in ("paced", "flood", "drain")) * 1e9),
    }
    out.notes.append(f"paced loop lag ms: {lag}")
    out.per_layer = perf_layers.layer_metrics(
        traced["by_name"],
        traced["counters"],
        paced["rounds"] + flood["rounds"],
        values,
    )
    return out
