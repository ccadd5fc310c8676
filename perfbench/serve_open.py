"""The ``serve_open`` workload: an open-loop load on ``repro serve``.

The server runs in its own process as one worker.  This process plays 16
independent users: 16 protocol-v2 sessions over 2 connections, each
streaming one benchmark's branch records in 512-record frames.  Frames are
sent on a seeded Poisson schedule whatever the replies do (an open loop),
and each frame's latency counts from when it was *due*, so a stall is
charged to every frame queued behind it.

Half the sessions share one AT spec, so the server's cross-session fusion
has real work to merge; the rest mix gshare, TAGE, LS and BTFN, which fuse
little.  Every session's served counts are checked against the server's
own session summary and against the offline engine (``score_spec``) over
exactly the records it sent.

The timed part is a few *rounds*.  Each round offers the low, mid, high
and peak fixed rates open-loop, then measures capacity closed-loop: every
session keeps a fixed window of frames outstanding, so the server always
has work queued and its reply rate is bounded by the server, not by an
offered rate.  The server's CPU time (from ``/proc``) shows whether that
phase really kept it busy; when it did not, the run says the figure is the
load generator's limit.  Statistics are taken per round and the median
over rounds is reported, so one stall of a shared machine moves one round,
not the result.  With two or more CPUs the load generator
and the server are pinned to different ones, and a lowest-priority spinner
keeps the server's CPU busy between frames: on a virtual machine an idle
CPU's wake-up waits on the host, which otherwise swamps the latency figures.

The server runs under ``serve_child.py``, which is ``repro serve`` until a
traced run signals it to wrap the server's own decode, scoring, encode and
STATS entry points in spans; it hands its spans back when it exits.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import harness
from harness import Checks, fresh_dir
from serve_child import INSTALLED
from spans import Tracer, due_latencies, now, percentile

HERE = Path(__file__).resolve().parent

SERVE_SCALE = 5_000
FRAME_RECORDS = 512
SESSIONS = 16
CONNECTIONS = 2
SHARED_SPEC = "AT(AHRT(512,12SR),PT(2^12,A2),)"
#: (spec, benchmark) of the sixteen sessions: half share one AT spec, the
#: rest mix schemes that fuse little; every benchmark appears
PAIRS = tuple((SHARED_SPEC, name) for name in (
    "eqntott", "espresso", "gcc", "li", "doduc", "fpppp", "matrix300", "spice2g6"
)) + (
    ("gshare(12)", "tomcatv"), ("gshare(12)", "gcc"),
    ("tage(4,9)", "eqntott"), ("tage(4,9)", "li"),
    ("LS(IHRT(,A2),,)", "doduc"), ("LS(IHRT(,A2),,)", "espresso"),
    ("BTFN", "matrix300"), ("BTFN", "spice2g6"),
)

#: fixed offered rates of the open-loop phases, thousand records per second
RATES_KRPS = {"low": 80.0, "mid": 160.0, "high": 240.0, "peak": 1600.0}
#: share of one round each phase takes; ``capacity`` is the closed window
ROUND_SHARE = {"low": 0.1, "mid": 0.3, "high": 0.25, "peak": 0.15, "capacity": 0.2}
ROUNDS = 5
#: frames each session keeps outstanding in the capacity phase
CAPACITY_WINDOW = 4
#: replies in the capacity phase are counted after this share of it
CAPACITY_SKIP = 0.3
#: server CPU share below which the capacity phase did not saturate it
SATURATED_BUSY = 0.9
#: the latency limit on p99 (and on the drain after a phase's last frame)
LIMIT_MS = 50.0
SETUP_REPS = 3
DRAIN_TIMEOUT_S = 30.0


class _Session:
    def __init__(self, sid: int, conn: int, spec: str, benchmark: str):
        self.sid = sid
        self.conn = conn
        self.spec = spec
        self.benchmark = benchmark
        self.sent = 0  # records
        self.replies: List[bytes] = []


class _Phase:
    """One offered rate for one stretch of time."""

    def __init__(self, name: str, krps: float, duration: float):
        self.name = name
        self.krps = krps
        self.duration = duration
        self.due: List[float] = []
        self.sent: List[float] = []
        self.replied: List[float] = []
        self.failed = 0
        self.backlog_max = 0
        self.server_cpu_s = 0.0
        self.client_cpu_s = 0.0
        self.wall_s = 0.0
        self.start = 0.0

    def latencies_ms(self) -> List[float]:
        return [1e3 * value for value in due_latencies(self.due, self.sent, self.replied)[0]]

    def late_ms(self) -> List[float]:
        return [1e3 * value for value in due_latencies(self.due, self.sent, self.replied)[1]]

    @property
    def drain_ms(self) -> float:
        return 1e3 * max(0.0, max(self.replied) - max(self.due)) if self.replied else math.inf

    @property
    def server_busy(self) -> float:
        """Share of the phase the server spent on its CPU."""
        return self.server_cpu_s / self.wall_s if self.wall_s else 0.0

    def throughput_krps(self) -> float:
        """Records answered per second once the window has filled."""
        begin = self.start + CAPACITY_SKIP * self.duration
        times = sorted(t for t in self.replied if t >= begin)
        if len(times) < 2:
            return 0.0
        return (len(times) - 1) * FRAME_RECORDS / (times[-1] - times[0]) / 1e3


def max_rate(points: List[Tuple[float, float]], limit: float) -> float:
    """Highest offered rate meeting ``limit``, from ``(rate, latency)``
    points: interpolated on log latency between the highest passing rate
    and the next rate measured, which failed."""
    points = sorted(points)
    passing = [p for p in points if p[1] <= limit]
    if not passing:
        rate, latency = points[0]
        return rate * limit / latency
    low = passing[-1]
    above = [p for p in points if p[0] > low[0]]
    if not above:
        return low[0]
    high = above[0]
    span = math.log(high[1]) - math.log(low[1])
    share = (math.log(limit) - math.log(low[1])) / span if span > 0 else 1.0
    return low[0] + (high[0] - low[0]) * min(1.0, max(0.0, share))


class _Server:
    """``repro serve --port 0`` in a child process, under ``serve_child.py``."""

    def __init__(self, scratch: Path, cpus: Optional[set]):
        env = dict(os.environ, PYTHONPATH=str(harness.SRC))
        self.ledger_path = fresh_dir(scratch, "server-") / "spans.json"
        self.proc = subprocess.Popen(
            [
                sys.executable, "-u", str(HERE / "serve_child.py"), str(self.ledger_path),
                "serve", "--host", "127.0.0.1", "--port", "0",
            ],
            env=env,
            cwd=str(scratch),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split("listening on", 1)[1].split()[0]
        self.host, _, port = address.rpartition(":")
        self.port = int(port)

    def cpu_s(self) -> float:
        """The server process's CPU time so far (user plus system)."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server process's peak resident set so far."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def instrument(self) -> None:
        """Have the server install its spans; wait until it has."""
        self.proc.send_signal(signal.SIGUSR1)
        for line in self.proc.stdout:
            if line.strip() == INSTALLED:
                return
        raise RuntimeError("the server exited before installing its spans")

    def spans(self, window: Tuple[float, float]) -> Tracer:
        """The server's spans inside ``window``; call after :meth:`stop`."""
        return Tracer.load(json.loads(self.ledger_path.read_text()), window)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _assign(seed: int) -> List[Tuple[str, str, int]]:
    """(spec, benchmark, connection) per session, drawn from the seed.

    The sixteen (spec, benchmark) pairs are fixed, so every seed offers the
    same work; the seed decides which session and connection carries each.
    """
    rng = random.Random(seed)
    pairs = list(PAIRS)
    rng.shuffle(pairs)
    connections = [index % CONNECTIONS for index in range(SESSIONS)]
    rng.shuffle(connections)
    return [(spec, benchmark, conn) for (spec, benchmark), conn in zip(pairs, connections)]


def _payload(stream: bytes, start_record: int) -> bytes:
    from repro.trace.encoding import RECORD_SIZE

    total = len(stream) // RECORD_SIZE
    start = (start_record % total) * RECORD_SIZE
    end = start + FRAME_RECORDS * RECORD_SIZE
    if end <= len(stream):
        return stream[start:end]
    return stream[start:] + stream[: end - len(stream)]


def _sent_trace(packed: Any, count: int) -> Any:
    """The records a session sent: its trace repeated, cut at ``count``."""
    from repro.trace.columnar import PackedTrace

    reps = count // len(packed) + 1
    return PackedTrace(
        (array("I", packed.pc) * reps)[:count],
        (array("I", packed.target) * reps)[:count],
        (bytes(packed.flags) * reps)[:count],
    )


def _served_counts(replies: List[bytes]) -> Tuple[int, int]:
    """(scored, correct) over a session's PREDICTIONS payloads."""
    import numpy

    from repro.serve.protocol import PRED_CORRECT, PRED_SKIPPED

    if not replies:
        return 0, 0
    arr = numpy.frombuffer(b"".join(replies), dtype=numpy.uint8)
    scored = (arr & PRED_SKIPPED) == 0
    return int(scored.sum()), int((scored & ((arr & PRED_CORRECT) != 0)).sum())


class _Load:
    """A server, its connections and sessions, and the phases run on them."""

    def __init__(self, server: _Server, plan: List[Tuple[str, str, int]], streams: Dict[str, bytes]):
        self.server = server
        self.streams = streams
        self.clients: List[Any] = []
        self.sessions: List[_Session] = []
        per_conn = [0] * CONNECTIONS
        for spec, benchmark, conn in plan:
            self.sessions.append(_Session(per_conn[conn], conn, spec, benchmark))
            per_conn[conn] += 1

    async def open(self) -> None:
        from repro.serve.client import MuxPredictionClient

        for _ in range(CONNECTIONS):
            self.clients.append(
                await MuxPredictionClient.connect(self.server.host, self.server.port, max_sessions=SESSIONS)
            )
        for session in self.sessions:
            await self.clients[session.conn].open(session.sid, session.spec)

    async def close(self) -> List[Dict[str, Any]]:
        finals = []
        for session in self.sessions:
            finals.append(await self.clients[session.conn].close_session(session.sid))
        for client in self.clients:
            await client.finish()
        return finals

    async def server_stats(self) -> Dict[str, Any]:
        return (await self.clients[0].stats()).get("server", {})

    async def run_window(self, phase: _Phase) -> None:
        """Keep :data:`CAPACITY_WINDOW` frames outstanding per session for
        ``phase.duration``: the server never runs out of queued work."""

        async def slot(session: _Session) -> None:
            client = self.clients[session.conn]
            while now() < deadline:
                payload = _payload(self.streams[session.benchmark], session.sent)
                session.sent += FRAME_RECORDS
                sent = now()
                future = await client.submit_payload(session.sid, payload)
                try:
                    body = await future.raw()
                except Exception:  # a refused or dropped frame is a failed operation
                    phase.failed += 1
                    return
                phase.sent.append(sent)
                phase.replied.append(now())
                if len(body) != FRAME_RECORDS:
                    phase.failed += 1
                session.replies.append(body)

        cpu_started = self.server.cpu_s()
        client_started = time.process_time()
        phase.start = now()
        deadline = phase.start + phase.duration
        slots = [slot(session) for session in self.sessions for _ in range(CAPACITY_WINDOW)]
        try:
            await asyncio.wait_for(asyncio.gather(*slots), phase.duration + DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            phase.failed += len(slots)
        phase.wall_s = now() - phase.start
        phase.server_cpu_s = self.server.cpu_s() - cpu_started
        phase.client_cpu_s = time.process_time() - client_started
        phase.backlog_max = len(slots)

    async def run_phase(self, phase: _Phase, rng: random.Random) -> None:
        """Send on a Poisson schedule at ``phase.krps``; wait for replies."""
        frames_per_s = phase.krps * 1e3 / FRAME_RECORDS
        offsets: List[Tuple[float, int]] = []
        cycle: List[int] = []
        t = rng.expovariate(frames_per_s)
        while t < phase.duration:
            if not cycle:
                # every session once per cycle, in a seeded order, so each
                # phase offers the same mix of work
                cycle = list(range(len(self.sessions)))
                rng.shuffle(cycle)
            offsets.append((t, cycle.pop()))
            t += rng.expovariate(frames_per_s)
        count = len(offsets)
        due = [0.0] * count
        sent = [0.0] * count
        replied = [0.0] * count
        outstanding = [0]
        waiters: List[Any] = []

        async def wait(index: int, future: Any, session: _Session) -> None:
            try:
                body = await future.raw()
            except Exception:  # a refused or dropped frame is a failed operation
                phase.failed += 1
                return
            replied[index] = now()
            outstanding[0] -= 1
            if len(body) != FRAME_RECORDS:
                phase.failed += 1
            session.replies.append(body)

        async def sender(conn: int) -> None:
            client = self.clients[conn]
            for index, (offset, which) in enumerate(offsets):
                session = self.sessions[which]
                if session.conn != conn:
                    continue
                due[index] = phase.start + offset
                # spin to the due time (yielding to the loop): a sleeping
                # generator wakes up late by the timer slack of the host
                while now() < due[index]:
                    await asyncio.sleep(0)
                payload = _payload(self.streams[session.benchmark], session.sent)
                session.sent += FRAME_RECORDS
                sent[index] = now()
                outstanding[0] += 1
                phase.backlog_max = max(phase.backlog_max, outstanding[0])
                future = await client.submit_payload(session.sid, payload)
                waiters.append(asyncio.ensure_future(wait(index, future, session)))

        cpu_started = self.server.cpu_s()
        phase.start = now() + 0.005
        await asyncio.gather(*(sender(conn) for conn in range(CONNECTIONS)))
        if waiters:
            _done, pending = await asyncio.wait(waiters, timeout=DRAIN_TIMEOUT_S)
            for task in pending:
                task.cancel()
                phase.failed += 1
        phase.wall_s = now() - phase.start
        phase.server_cpu_s = self.server.cpu_s() - cpu_started
        answered = [i for i in range(count) if replied[i] > 0.0]
        phase.due = [due[i] for i in answered]
        phase.sent = [sent[i] for i in answered]
        phase.replied = [replied[i] for i in answered]


def serve_open(seed: int, seconds: float, traced: bool, scratch: Path, checks: Checks) -> Dict[str, Any]:
    from repro.predictors.spec import parse_spec
    from repro.sim import kernels
    from repro.trace.encoding import encode_record
    from repro.workloads.base import TraceCache, get_workload, workload_names

    plan = _assign(seed)
    lines = [
        f"serve_open: {SESSIONS} sessions over {CONNECTIONS} v2 connections, {FRAME_RECORDS}-record frames,"
        f" {ROUNDS} rounds of open-loop (Poisson) rates {RATES_KRPS} krec/s then a closed window of"
        f" {CAPACITY_WINDOW} frames per session; limit p99<={LIMIT_MS}ms",
        "sessions: " + " ".join(f"{spec}@{bench}/c{conn}" for spec, bench, conn in plan),
    ]
    round_s = seconds / ROUNDS
    open_loop = tuple(RATES_KRPS)

    servers: List[_Server] = []
    # the load generator and the server each get one CPU of their own when
    # there are two, so neither is scheduled onto the other's core mid-phase
    cpus = sorted(os.sched_getaffinity(0))
    server_cpus = None
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {cpus[0]})
        server_cpus = {cpus[1]}
    # a lowest-priority spinner keeps the server's CPU from going idle, so
    # a frame arriving at a quiet server is not charged the host's wake-up
    # delay for an idle virtual CPU
    spinner = subprocess.Popen(
        [sys.executable, "-c", "while True: pass"],
        preexec_fn=lambda: (os.nice(19), os.sched_setaffinity(0, server_cpus or set(cpus))),
    )

    async def setup(index: int) -> Tuple[_Load, Dict[str, Any], float]:
        """Build every benchmark's trace into a fresh store, start a
        server, connect, open the sessions and warm them up."""
        started = now()
        cache = TraceCache(fresh_dir(scratch, "serve-store-"))
        packed = {name: cache.get(get_workload(name), "test", SERVE_SCALE).packed() for name in workload_names()}
        streams = {name: b"".join(encode_record(r) for r in trace) for name, trace in packed.items()}
        servers.append(_Server(scratch, server_cpus))
        load = _Load(servers[-1], plan, streams)
        await load.open()
        warm = _Phase("warm-up", RATES_KRPS["low"], 0.3)
        await load.run_phase(warm, random.Random(seed * 1000 + index))
        if warm.failed:
            checks.fail("warm-up frames failed", warm.failed)
        return load, packed, now() - started

    async def main() -> Dict[str, Any]:
        setups: List[float] = []
        load: Optional[_Load] = None
        packed: Dict[str, Any] = {}
        for index in range(SETUP_REPS):
            candidate, packed, elapsed = await setup(index)
            setups.append(elapsed)
            if load is not None:
                await load.close()
                load.server.stop()
            load = candidate
        assert load is not None
        return await timed(load, setups, packed)

    async def timed(load: _Load, setups: List[float], packed: Dict[str, Any]) -> Dict[str, Any]:
        rng = random.Random(seed)
        untraced_mid = _Phase("mid-untraced", RATES_KRPS["mid"], ROUND_SHARE["mid"] * round_s)
        if traced:
            # the cost of tracing: the mid rate once untraced, then traced
            await load.run_phase(untraced_mid, rng)
            load.server.instrument()
        before = await load.server_stats()
        timed_started = now()
        server_cpu_started = load.server.cpu_s()
        rounds: List[Dict[str, _Phase]] = []
        for _ in range(ROUNDS):
            phases = {}
            for name, share in ROUND_SHARE.items():
                phases[name] = _Phase(name, RATES_KRPS.get(name, 0.0), share * round_s)
                if name == "capacity":
                    await load.run_window(phases[name])
                else:
                    await load.run_phase(phases[name], rng)
            rounds.append(phases)
        timed_finished = now()
        server_cpu_s = load.server.cpu_s() - server_cpu_started
        after = await load.server_stats()
        finals = await load.close()

        everything = [phase for phases in rounds for phase in phases.values()]
        failed = sum(phase.failed for phase in everything)
        frames = sum(len(phase.replied) for phase in everything) + failed
        for number, phases in enumerate(rounds, 1):
            for phase in phases.values():
                if phase.name == "capacity":
                    lines.append(
                        f"round {number} capacity: window {phase.backlog_max} frames,"
                        f" answered {phase.throughput_krps():.1f} krec/s, server busy {phase.server_busy:.3f}"
                        f" load generator busy {phase.client_cpu_s / phase.wall_s:.3f}"
                        f" failed={phase.failed}"
                    )
                    continue
                latencies = phase.latencies_ms()
                lines.append(
                    f"round {number} {phase.name}: offered {phase.krps:.0f} krec/s, {len(latencies)} frames,"
                    f" p50={percentile(latencies, 0.5):.3f}ms p90={percentile(latencies, 0.9):.3f}ms"
                    f" late p99={percentile(phase.late_ms(), 0.99):.3f}ms"
                    f" drain={phase.drain_ms:.1f}ms backlog_max={phase.backlog_max} failed={phase.failed}"
                    f" server busy {phase.server_busy:.3f}"
                )
        for scheme, entry in sorted(after.get("schemes", {}).items()):
            lines.append(
                f"server {scheme}: {entry['batches']} batches, {entry['records']} records,"
                f" {entry['mean_batch_us']:.0f} us per batch"
            )

        def pooled(name: str) -> List[float]:
            return [value for phases in rounds for value in phases[name].latencies_ms()]

        for name in open_loop:
            lines.append(harness.timing_line(f"frame latency from due time at {name}", pooled(name), "ms"))
        late = [value for phases in rounds for n in open_loop for value in phases[n].late_ms()]
        lines.append(harness.timing_line("generator lateness (sent minus due), every open-loop phase", late, "ms"))
        lines.append(harness.timing_line("setup", setups, "s"))

        # correctness: served bytes == the server's session summary == offline engine
        checks.attempted += frames
        checks.failed += failed
        for session, final in zip(load.sessions, finals):
            summary = final.get("session", {})
            served = _served_counts(session.replies)
            offline = kernels.score_spec(
                parse_spec(session.spec), _sent_trace(packed[session.benchmark], session.sent), backend="vector"
            )
            label = f"session {session.conn}/{session.sid} {session.spec}@{session.benchmark}"
            if served != (summary.get("conditional"), summary.get("correct")):
                checks.fail(f"{label}: prediction bytes {served} disagree with the STATS summary {summary}")
            if served != (offline.conditional_total, offline.conditional_correct):
                checks.fail(
                    f"{label}: served {served} != offline"
                    f" {(offline.conditional_total, offline.conditional_correct)}"
                )

        def per_round(name: str, stat: Callable[[_Phase], float]) -> float:
            return statistics.median(stat(phases[name]) for phases in rounds)

        capacity = per_round("capacity", _Phase.throughput_krps)
        busy = per_round("capacity", lambda p: p.server_busy)
        limit_points = [
            (RATES_KRPS[name], max([percentile(pooled(name), 0.99)] + [r[name].drain_ms for r in rounds]))
            for name in open_loop
        ]
        limit_rate = max_rate(limit_points, LIMIT_MS)
        lines.append(
            f"capacity: {capacity:.1f} krec/s answered with {CAPACITY_WINDOW} frames outstanding per session"
            f" (median of {ROUNDS} rounds), server CPU busy {busy:.3f} of the phase"
        )
        if busy < SATURATED_BUSY:
            lines.append(
                f"WARNING: the capacity phase kept the server busy only {busy:.3f} of the time"
                f" (< {SATURATED_BUSY}): the capacity figure is the load generator's limit, not the server's"
            )
        lines.append(
            f"max rate: {limit_rate:.1f} krec/s is the highest offered rate whose pooled p99 and drain meet"
            f" {LIMIT_MS}ms (interpolated on log latency between the rates offered)"
            + ("; every fixed rate met it, so this is a floor" if all(p[1] <= LIMIT_MS for p in limit_points) else "")
        )
        result: Dict[str, Any] = {
            "e2e": {
                "setup_s": statistics.median(setups),
                "mevents_per_s": capacity / 1e3,
                "op_p50_ms": per_round("mid", lambda p: percentile(p.latencies_ms(), 0.5)),
                # the server's own: this process's memory grows with the
                # records it keeps for the correctness check
                "peak_rss_mb": load.server.peak_rss_mb(),
            }
        }
        if traced:
            load.server.stop()
            tracer = load.server.spans((timed_started, timed_finished))

            def scheme_sum(stats: Dict[str, Any], key: str) -> float:
                return sum(entry[key] for entry in stats.get("schemes", {}).values())

            batches = scheme_sum(after, "batches") - scheme_sum(before, "batches")
            records = scheme_sum(after, "records") - scheme_sum(before, "records")
            mids = [phases["mid"] for phases in rounds]
            overhead = (sum(p.server_cpu_s for p in mids) / max(1, sum(len(p.replied) for p in mids))) / (
                untraced_mid.server_cpu_s / max(1, len(untraced_mid.replied))
            )
            # the server's CPU time in the timed part that no server span covers
            spanned_s = sum(end - start for start, end in tracer.roots())
            unattributed_ms = 1e3 * max(0.0, server_cpu_s - spanned_s)
            result["layers"] = {
                "serve.server_score_s": scheme_sum(after, "seconds") - scheme_sum(before, "seconds"),
                "serve.batch_records_mean": records / batches if batches else 0.0,
                "serve.backlog_max_frames": max(phases[n].backlog_max for phases in rounds for n in open_loop),
                "serve.gen_late_ms": percentile(late, 0.99) if late else 0.0,
                "serve.frames_failed": failed,
                "serve.p50_ms.mid": percentile(pooled("mid"), 0.5),
                "serve.p99_ms.mid": percentile(pooled("mid"), 0.99),
                "serve.p99_ms.high": percentile(pooled("high"), 0.99),
                "serve.max_krps": limit_rate,
                "serve.capacity_busy_frac": busy,
                "serve.encode_ms": tracer.self_ms("serve.encode"),
                "serve.decode_ms": tracer.self_ms("serve.decode"),
                "unattributed_ms": unattributed_ms,
                "trace_overhead_frac": overhead,
            }
            lines.append(
                f"tracing cost: {overhead:.3f}x server CPU per frame at the mid rate"
                " (base: the same rate untraced, before the spans were installed)"
            )
            lines.append(
                f"unattributed: {unattributed_ms:.1f} ms of the server's {1e3 * server_cpu_s:.1f} ms CPU time"
                " in the timed part lies outside every server span (base: server CPU time, from /proc)"
            )
            lines.extend(harness.ledger_lines(tracer, "repro serve (server process), whole timed part", 1, unattributed_ms))
        return result

    try:
        result = asyncio.run(main())
    finally:
        for server in servers:
            server.stop()
        spinner.kill()
        spinner.wait()
    result["e2e"]["ops_ok_frac"] = checks.ok_frac
    result["lines"] = lines
    return result
