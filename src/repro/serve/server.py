"""The asyncio prediction server.

A client connection carries one or many *predictor sessions*.  A v1 HELLO
names a Table 2 predictor spec and the whole connection is that one
session, exactly as in the original service.  A v2 HELLO (``"version": 2``)
negotiates *session multiplexing*: the client then OPENs logical sessions —
each with its own spec, backend and predictor state — and interleaves
record frames for thousands of them over the single TCP stream, every
frame carrying its session id.

**Cross-session batch fusion.**  Scoring is no longer per connection: a
single server-wide score loop drains everything queued during the previous
event-loop tick — from *all* sessions on *all* connections — groups it by
(spec, resolved backend) into *fusion groups*, and scores each group's
queued batches with one fused call into a
:class:`~repro.sim.streaming.MultiSessionScorer`.  Per-session predictor
state is namespaced inside the scorer, so fusion is bit-exact with running
every session alone, under any chunking and interleaving; what fusion buys
is batch size — under load the vector kernels see one large batch per tick
instead of dozens of small ones, and per-record cost collapses.  Each
RECORDS frame is still answered individually, in per-session order.

**Robustness.**  Malformed frames, oversized frames, protocol violations,
bad specs/backends/session-ids and read timeouts each earn the *offending
connection* one typed ERROR frame and a close; the server and every other
connection keep running.  A connection limit rejects surplus clients with
``busy``.  A consumer that stops reading its predictions for longer than
the read timeout is disconnected rather than allowed to stall the shared
score loop.  ``stop()`` (installed on SIGTERM/SIGINT by
:meth:`PredictionServer.install_signal_handlers`) stops accepting, drains
in-flight sessions for a grace period, then cancels stragglers.  The
STATS_REQUEST frame exposes live counters — active/peak logical sessions,
records served, the batch-size histogram (fused batches show up as buckets
larger than any single client chunk), fusion counters and per-scheme
scoring latency — so the service is observable with nothing but a client.
For multi-process scale-out, see :mod:`repro.serve.supervisor`.
"""

from __future__ import annotations

import asyncio
import signal
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError, ProtocolError, ReproError, SpecParseError
from repro.predictors.spec import PredictorSpec, parse_spec
from repro.sim.kernels import choose_backend
from repro.sim.results import PredictionStats
from repro.sim.streaming import (
    FusedPredictions,
    MultiSessionScorer,
    make_multi_scorer,
    needs_training,
)
from repro.trace.record import BranchRecord
from repro.serve import protocol
from repro.serve.protocol import (
    FRAME_BYE,
    FRAME_CLOSE,
    FRAME_HELLO,
    FRAME_OK,
    FRAME_OPEN,
    FRAME_PREDICTIONS,
    FRAME_RECORDS,
    FRAME_RECORDS2,
    FRAME_STATS,
    FRAME_STATS_REQUEST,
    FRAME_TRAIN,
    FRAME_TRAIN2,
    MAX_FRAME_BYTES,
    MAX_SESSION_ID,
    PROTOCOL_VERSION,
)

__all__ = ["ServerConfig", "ServeStats", "PredictionServer"]


def _is_int(value: Any) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass, so ``true`` would
    otherwise pass as 1, and ``2.0 == 2`` lets a float through ``in``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_records(payload: bytes) -> Any:
    """Decode a RECORDS payload, columnar when NumPy allows.

    The packed form flows through the scorers unchanged: the vector engine
    consumes the columns directly (and answers with a
    :class:`FusedPredictions`), the scalar engine iterates it like any
    record sequence.
    """
    packed = protocol.unpack_records_packed(payload)
    if packed is None:
        return protocol.unpack_records(payload)
    return packed


@dataclass
class ServerConfig:
    """Tunables of a :class:`PredictionServer`."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; the bound port is ``server.port``
    backend: Optional[str] = None  #: session default; None = process default
    max_connections: int = 64
    max_frame_bytes: int = MAX_FRAME_BYTES
    read_timeout: float = 30.0  #: seconds a session may sit idle mid-stream
    drain_timeout: float = 10.0  #: grace period for in-flight sessions on stop
    queue_frames: int = 64  #: per-connection frame backlog before backpressure
    max_sessions: int = 4096  #: logical sessions one v2 connection may hold
    #: seconds the score loop lingers collecting frames from concurrent
    #: sessions before scoring, so they fuse into one kernel call; never
    #: applied while a single session is active (request-response latency
    #: is unchanged for lone v1 clients)
    fuse_window: float = 0.002


class ServeStats:
    """Server-wide counters reported by the STATS frame."""

    def __init__(self) -> None:
        self.sessions_total = 0
        self.active_sessions = 0
        self.peak_sessions = 0
        self.records_served = 0
        self.frames = 0
        self.errors = 0
        #: micro-batch size histogram, keyed by power-of-two bucket ceiling.
        self.batch_sizes: Dict[int, int] = {}
        #: batches that fused records from more than one session.
        self.fused_batches = 0
        #: most sessions ever fused into one scoring call.
        self.max_fused_sessions = 0
        #: per-scheme scoring cost: batches, records, seconds.
        self.schemes: Dict[str, Dict[str, float]] = {}

    def session_opened(self) -> None:
        self.sessions_total += 1
        self.active_sessions += 1
        self.peak_sessions = max(self.peak_sessions, self.active_sessions)

    def session_closed(self) -> None:
        self.active_sessions -= 1

    def record_batch(
        self, scheme: str, size: int, seconds: float, sessions: int = 1
    ) -> None:
        bucket = 1 << max(size - 1, 0).bit_length()
        self.batch_sizes[bucket] = self.batch_sizes.get(bucket, 0) + 1
        if sessions > 1:
            self.fused_batches += 1
        self.max_fused_sessions = max(self.max_fused_sessions, sessions)
        entry = self.schemes.setdefault(
            scheme, {"batches": 0, "records": 0, "seconds": 0.0}
        )
        entry["batches"] += 1
        entry["records"] += size
        entry["seconds"] += seconds
        self.records_served += size

    def as_dict(self) -> Dict[str, Any]:
        schemes = {}
        for scheme, entry in sorted(self.schemes.items()):
            mean_us = (
                1e6 * entry["seconds"] / entry["batches"] if entry["batches"] else 0.0
            )
            schemes[scheme] = {
                "batches": int(entry["batches"]),
                "records": int(entry["records"]),
                "seconds": round(entry["seconds"], 6),
                "mean_batch_us": round(mean_us, 1),
            }
        return {
            "active_sessions": self.active_sessions,
            "peak_sessions": self.peak_sessions,
            "sessions_total": self.sessions_total,
            "records_served": self.records_served,
            "frames": self.frames,
            "errors": self.errors,
            "fused_batches": self.fused_batches,
            "max_fused_sessions": self.max_fused_sessions,
            "batch_size_histogram": {
                str(bucket): count for bucket, count in sorted(self.batch_sizes.items())
            },
            "schemes": schemes,
        }


class _FusionGroup:
    """All live sessions of one (spec, resolved backend) pair."""

    def __init__(self, spec: PredictorSpec, resolved_backend: str):
        self.spec = spec
        self.scheme = spec.canonical()
        self.resolved_backend = resolved_backend
        self.scorer: MultiSessionScorer = make_multi_scorer(spec, resolved_backend)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.scheme, self.resolved_backend)


@dataclass
class _Session:
    """One logical predictor session (v1: the whole connection; v2: one of
    many multiplexed over it)."""

    key: int  #: server-global id; namespaces this session's predictor state
    sid: int  #: client-visible session id (v1 clients see ``key``)
    conn: "_Connection"
    spec: PredictorSpec
    backend_request: Optional[str]
    resolved_backend: str
    display_id: int
    training: List[BranchRecord] = field(default_factory=list)
    group: Optional[_FusionGroup] = None
    started: bool = False  #: first RECORDS seen; scorer state exists
    closed: bool = False

    def stats(self) -> PredictionStats:
        if self.started and not self.closed and self.group is not None:
            return self.group.scorer.session_stats(self.key)
        return PredictionStats()

    def as_dict(self) -> Dict[str, Any]:
        stats = self.stats()
        return {
            "session": self.display_id,
            "scheme": self.spec.canonical(),
            "backend": self.resolved_backend,
            "conditional": stats.conditional_total,
            "correct": stats.conditional_correct,
            "accuracy": stats.accuracy,
        }


class _Connection:
    """Per-TCP-connection state: protocol version and logical sessions."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.version = 1
        self.hello_done = False
        self.max_sessions = 1
        self.sessions: Dict[int, _Session] = {}  #: client sid -> session


class PredictionServer:
    """Serve branch-prediction sessions over TCP (see module docstring)."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.stats = ServeStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "Set[asyncio.Task]" = set()
        self._groups: Dict[Tuple[str, str], _FusionGroup] = {}
        self._queue: "Optional[asyncio.Queue[Tuple[Any, ...]]]" = None
        self._score_task: "Optional[asyncio.Task]" = None
        self._next_session = 0
        self._stopping = False
        self._closed = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, sock: Optional[socket.socket] = None) -> None:
        """Bind and start accepting connections.

        ``sock`` lets a supervisor hand this server a pre-bound listening
        socket (``SO_REUSEPORT`` sibling or an inherited fd); otherwise the
        configured host/port is bound here.
        """
        self._queue = asyncio.Queue(
            maxsize=max(self.config.queue_frames, 1)
            * max(self.config.max_connections, 1)
        )
        self._score_task = asyncio.create_task(self._score_loop())
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )

    @property
    def port(self) -> int:
        """The bound TCP port (useful with the ephemeral default)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def active_sessions(self) -> int:
        """Open *logical* sessions (not TCP connections)."""
        return self.stats.active_sessions

    @property
    def active_connections(self) -> int:
        return len(self._connections)

    def install_signal_handlers(self) -> None:
        """Arrange a graceful drain on SIGTERM / SIGINT."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.stop())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # e.g. non-Unix event loops

    async def wait_closed(self) -> None:
        """Block until :meth:`stop` has completed (e.g. via SIGTERM)."""
        await self._closed.wait()

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight sessions, then shut down.

        ``drain=True`` gives active sessions ``config.drain_timeout``
        seconds to finish their streams before cancellation; ``False``
        cancels immediately.
        """
        if self._stopping:
            await self._closed.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = set(self._connections)
        if pending and drain:
            _done, pending = await asyncio.wait(
                pending, timeout=self.config.drain_timeout
            )
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._score_task is not None:
            self._score_task.cancel()
            await asyncio.gather(self._score_task, return_exceptions=True)
        self._closed.set()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        if len(self._connections) >= self.config.max_connections or self._stopping:
            self.stats.errors += 1
            await self._send_error(
                writer, "busy", f"server at its {self.config.max_connections}-connection limit"
            )
            await self._close_writer(writer)
            return
        self._connections.add(task)
        conn = _Connection(reader, writer)
        try:
            await self._read_loop(conn)
        except asyncio.CancelledError:
            pass  # server shutdown cancelled this connection; end quietly
        finally:
            # a vanished client leaves its sessions behind; free their
            # fused predictor state (queued batches are skipped via
            # session.closed)
            for session in list(conn.sessions.values()):
                self._end_session(session)
            try:
                await self._close_writer(writer)
            except asyncio.CancelledError:
                writer.close()
            self._connections.discard(task)

    async def _read_loop(self, conn: _Connection) -> None:
        """Decode frames and feed the server's fused scoring queue.

        Every exit path of this coroutine closes only this connection;
        typed errors are reported to the client before the close.
        """
        reader, writer = conn.reader, conn.writer
        queue = self._queue
        assert queue is not None
        try:
            while True:
                try:
                    frame = await asyncio.wait_for(
                        protocol.read_frame(reader, self.config.max_frame_bytes),
                        timeout=self.config.read_timeout,
                    )
                except asyncio.TimeoutError:
                    self.stats.errors += 1
                    await self._send_error(
                        writer,
                        "timeout",
                        f"no frame within the {self.config.read_timeout:g}s read timeout",
                    )
                    return
                if frame is None:  # client closed (mid-stream disconnect is fine)
                    return
                frame_type, payload = frame
                self.stats.frames += 1
                if frame_type == FRAME_HELLO:
                    self._handle_hello(conn, payload)
                elif frame_type == FRAME_BYE:
                    future = asyncio.get_running_loop().create_future()
                    await queue.put(("bye", conn, future))
                    await future
                    return
                elif not conn.hello_done:
                    raise ProtocolError("frame before HELLO", "protocol")
                elif frame_type == FRAME_TRAIN:
                    session = self._v1_session(conn, frame_type)
                    if session.started:
                        raise ProtocolError(
                            "TRAIN after the first RECORDS frame", "protocol"
                        )
                    session.training.extend(protocol.unpack_records(payload))
                elif frame_type == FRAME_RECORDS:
                    session = self._v1_session(conn, frame_type)
                    records = _parse_records(payload)
                    if not session.started:
                        self._start_scoring(session)
                    await queue.put(("records", session, records))
                elif frame_type == FRAME_TRAIN2:
                    sid, body = protocol.split_session_payload(payload, frame_type)
                    session = self._v2_session(conn, sid, frame_type)
                    if session.started:
                        raise ProtocolError(
                            "TRAIN2 after the first RECORDS2 frame", "protocol"
                        )
                    session.training.extend(protocol.unpack_records(body))
                elif frame_type == FRAME_RECORDS2:
                    sid, body = protocol.split_session_payload(payload, frame_type)
                    session = self._v2_session(conn, sid, frame_type)
                    records = _parse_records(body)
                    if not session.started:
                        self._start_scoring(session)
                    await queue.put(("records", session, records))
                elif frame_type == FRAME_OPEN:
                    self._handle_open(conn, payload)
                elif frame_type == FRAME_CLOSE:
                    obj = protocol.unpack_json(payload, frame_type)
                    sid = obj.get("session")
                    if not _is_int(sid):
                        raise ProtocolError(
                            "CLOSE must carry an integer 'session'", "bad-session"
                        )
                    session = self._v2_session(conn, sid, frame_type)
                    # drop it from the connection now so the sid can be
                    # reused; predictor state is freed by the score loop
                    # after queued batches flush
                    del conn.sessions[sid]
                    await queue.put(("close", session))
                elif frame_type == FRAME_STATS_REQUEST:
                    session: Optional[_Session]
                    if conn.version == 1:
                        session = self._v1_session(conn, frame_type)
                    elif payload:
                        obj = protocol.unpack_json(payload, frame_type)
                        sid = obj.get("session")
                        if sid is None:
                            session = None
                        elif _is_int(sid):
                            session = self._v2_session(conn, sid, frame_type)
                        else:
                            raise ProtocolError(
                                "STATS_REQUEST 'session' must be an integer",
                                "bad-session",
                            )
                    else:
                        session = None
                    await queue.put(("stats", conn, session))
                else:
                    name = protocol.FRAME_NAMES.get(frame_type, str(frame_type))
                    raise ProtocolError(
                        f"unexpected frame type {name} from client", "bad-frame"
                    )
        except ProtocolError as exc:
            self.stats.errors += 1
            await self._send_error(writer, exc.code, str(exc))
        except SpecParseError as exc:
            self.stats.errors += 1
            await self._send_error(writer, "bad-spec", str(exc))
        except ConfigError as exc:
            self.stats.errors += 1
            await self._send_error(writer, "bad-backend", str(exc))
        except ReproError as exc:
            self.stats.errors += 1
            await self._send_error(writer, "internal", str(exc))
        except (ConnectionResetError, BrokenPipeError):
            return  # mid-stream disconnect; nothing to report to anyone

    # ------------------------------------------------------------------
    # handshake and session management
    # ------------------------------------------------------------------
    def _handle_hello(self, conn: _Connection, payload: bytes) -> None:
        if conn.hello_done:
            raise ProtocolError("duplicate HELLO", "protocol")
        hello = protocol.unpack_json(payload, FRAME_HELLO)
        version = hello.get("version", 1)
        if not _is_int(version) or version not in (1, PROTOCOL_VERSION):
            raise ProtocolError(
                f"unsupported protocol version {version!r}"
                f" (this server speaks 1 and {PROTOCOL_VERSION})",
                "bad-hello",
            )
        if version == PROTOCOL_VERSION:
            if "spec" in hello:
                raise ProtocolError(
                    "v2 HELLO negotiates the connection; sessions are opened"
                    " with OPEN frames, not a HELLO spec",
                    "bad-hello",
                )
            requested = hello.get("max_sessions", self.config.max_sessions)
            if not _is_int(requested) or requested < 1:
                raise ProtocolError(
                    "HELLO 'max_sessions' must be a positive integer", "bad-hello"
                )
            conn.version = PROTOCOL_VERSION
            conn.max_sessions = min(requested, self.config.max_sessions)
            conn.hello_done = True
            conn.writer.write(
                protocol.pack_json(
                    FRAME_OK,
                    {
                        "version": PROTOCOL_VERSION,
                        "max_sessions": conn.max_sessions,
                    },
                )
            )
            return
        # v1: the connection is the session
        session = self._open_session(
            conn, sid=0, spec_text=hello.get("spec"), backend=hello.get("backend")
        )
        conn.max_sessions = 1
        conn.hello_done = True
        conn.writer.write(
            protocol.pack_json(
                FRAME_OK,
                {
                    "session": session.display_id,
                    "scheme": session.spec.canonical(),
                    "backend": session.resolved_backend,
                    "needs_training": needs_training(session.spec),
                },
            )
        )

    def _handle_open(self, conn: _Connection, payload: bytes) -> None:
        if conn.version != PROTOCOL_VERSION:
            raise ProtocolError("OPEN on a v1 connection", "protocol")
        obj = protocol.unpack_json(payload, FRAME_OPEN)
        sid = obj.get("session")
        if not _is_int(sid) or not 0 <= sid <= MAX_SESSION_ID:
            raise ProtocolError(
                "OPEN must carry an integer 'session' id in [0, 2^32)",
                "bad-session",
            )
        if sid in conn.sessions:
            raise ProtocolError(f"session {sid} is already open", "bad-session")
        if len(conn.sessions) >= conn.max_sessions:
            raise ProtocolError(
                f"connection at its negotiated {conn.max_sessions}-session limit",
                "bad-session",
            )
        session = self._open_session(
            conn, sid=sid, spec_text=obj.get("spec"), backend=obj.get("backend")
        )
        conn.writer.write(
            protocol.pack_json(
                FRAME_OK,
                {
                    "session": sid,
                    "scheme": session.spec.canonical(),
                    "backend": session.resolved_backend,
                    "needs_training": needs_training(session.spec),
                },
            )
        )

    def _open_session(
        self,
        conn: _Connection,
        sid: int,
        spec_text: Any,
        backend: Any,
    ) -> _Session:
        frame = "OPEN" if conn.version == PROTOCOL_VERSION else "HELLO"
        code = "bad-session" if conn.version == PROTOCOL_VERSION else "bad-hello"
        if not isinstance(spec_text, str) or not spec_text:
            raise ProtocolError(f"{frame} must carry a 'spec' string", code)
        spec = parse_spec(spec_text)  # SpecParseError -> bad-spec
        if backend is not None and not isinstance(backend, str):
            raise ProtocolError(f"{frame} 'backend' must be a string", code)
        if backend is None:
            backend = self.config.backend
        # resolve now so an impossible request fails the handshake, not the
        # first RECORDS frame; ConfigError -> bad-backend
        resolved = choose_backend(spec, backend)
        self._next_session += 1
        session = _Session(
            key=self._next_session,
            sid=sid,
            conn=conn,
            spec=spec,
            backend_request=backend,
            resolved_backend=resolved,
            display_id=(
                sid if conn.version == PROTOCOL_VERSION else self._next_session
            ),
        )
        conn.sessions[sid] = session
        self.stats.session_opened()
        return session

    @staticmethod
    def _v1_session(conn: _Connection, frame_type: int) -> _Session:
        if conn.version != 1:
            name = protocol.FRAME_NAMES.get(frame_type, str(frame_type))
            raise ProtocolError(f"v1 frame {name} on a v2 connection", "protocol")
        return conn.sessions[0]

    @staticmethod
    def _v2_session(conn: _Connection, sid: int, frame_type: int) -> _Session:
        if conn.version != PROTOCOL_VERSION:
            name = protocol.FRAME_NAMES.get(frame_type, str(frame_type))
            raise ProtocolError(f"v2 frame {name} on a v1 connection", "protocol")
        session = conn.sessions.get(sid)
        if session is None:
            name = protocol.FRAME_NAMES.get(frame_type, str(frame_type))
            raise ProtocolError(f"{name} for unknown session {sid}", "bad-session")
        return session

    def _start_scoring(self, session: _Session) -> None:
        """Bind the session into its fusion group at the first RECORDS."""
        training = session.training if session.training else None
        if needs_training(session.spec) and training is None:
            raise ProtocolError(
                f"{session.spec.canonical()} sessions need TRAIN frames before"
                " RECORDS",
                "protocol",
            )
        group_key = (session.spec.canonical(), session.resolved_backend)
        group = self._groups.get(group_key)
        if group is None:
            group = _FusionGroup(session.spec, session.resolved_backend)
            self._groups[group_key] = group
        group.scorer.open_session(session.key, training)
        session.training = []  # the scorer owns them now; free the buffer
        session.group = group
        session.started = True

    def _end_session(self, session: _Session) -> None:
        """Free a session's fused predictor state (idempotent)."""
        if session.closed:
            return
        session.closed = True
        conn = session.conn
        if conn.sessions.get(session.sid) is session:
            del conn.sessions[session.sid]
        if session.started and session.group is not None:
            group = session.group
            group.scorer.close_session(session.key)
            if group.scorer.active == 0:
                self._groups.pop(group.key, None)
        self.stats.session_closed()

    # ------------------------------------------------------------------
    # the fused score loop
    # ------------------------------------------------------------------
    async def _score_loop(self) -> None:
        """Drain the server-wide queue per tick; score each fusion group's
        queued batches with one fused call; answer every frame in order."""
        queue = self._queue
        assert queue is not None
        loop = asyncio.get_running_loop()
        capacity = queue.maxsize or 4096
        while True:
            items = [await queue.get()]
            if self.stats.active_sessions > 1 and self.config.fuse_window > 0:
                # linger briefly so frames from concurrent sessions land in
                # the same tick and fuse into one kernel call per group
                deadline = loop.time() + self.config.fuse_window
                while len(items) < capacity:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        items.append(
                            await asyncio.wait_for(queue.get(), remaining)
                        )
                    except asyncio.TimeoutError:
                        break
            while True:  # everything already queued = this scoring tick
                try:
                    items.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            touched: Set[_Connection] = set()
            pending: "Dict[_FusionGroup, List[Tuple[_Session, List[BranchRecord]]]]" = {}
            for item in items:
                kind = item[0]
                if kind == "records":
                    _kind, session, records = item
                    if not session.closed and session.group is not None:
                        pending.setdefault(session.group, []).append(
                            (session, records)
                        )
                    continue
                # control frames order against scoring: flush first
                self._flush(pending, touched)
                pending = {}
                if kind == "stats":
                    _kind, conn, session = item
                    self._write(
                        conn,
                        protocol.pack_json(
                            FRAME_STATS, self._stats_payload(session)
                        ),
                    )
                    touched.add(conn)
                elif kind == "close":
                    _kind, session = item
                    # snapshot *before* teardown so the final stats still
                    # count this session as active
                    payload = self._stats_payload(session, final=True)
                    self._end_session(session)
                    self._write(
                        session.conn, protocol.pack_json(FRAME_STATS, payload)
                    )
                    touched.add(session.conn)
                elif kind == "bye":
                    _kind, conn, future = item
                    payload = self._bye_payload(conn)
                    for session in list(conn.sessions.values()):
                        self._end_session(session)
                    self._write(conn, protocol.pack_json(FRAME_STATS, payload))
                    touched.add(conn)
                    if not future.done():
                        future.set_result(None)
            self._flush(pending, touched)
            await self._drain(touched)

    def _flush(
        self,
        pending: "Dict[_FusionGroup, List[Tuple[_Session, List[BranchRecord]]]]",
        touched: Set[_Connection],
    ) -> None:
        """One fused scoring call per group; answer each frame in order."""
        for group, entries in pending.items():
            batches = [(session.key, records) for session, records in entries]
            started = time.perf_counter()
            try:
                predictions = group.scorer.feed_many(batches)
            except Exception as exc:
                # scoring failure: fail every involved connection, spare the
                # rest of the server
                self.stats.errors += 1
                for session, _records in entries:
                    self._write(
                        session.conn,
                        protocol.pack_error("internal", f"scoring failed: {exc}"),
                    )
                    session.conn.writer.close()
                continue
            elapsed = time.perf_counter() - started
            total = sum(len(records) for _session, records in entries)
            self.stats.record_batch(
                group.scheme,
                total,
                elapsed,
                sessions=len({session.key for session, _records in entries}),
            )
            for (session, records), frame_predictions in zip(entries, predictions):
                if isinstance(frame_predictions, FusedPredictions):
                    body = protocol.encode_predictions_fused(frame_predictions)
                else:
                    body = protocol.encode_predictions(records, frame_predictions)
                if session.conn.version == 1:
                    self._write(
                        session.conn,
                        protocol.pack_frame(FRAME_PREDICTIONS, body),
                    )
                else:
                    self._write(
                        session.conn, protocol.pack_predictions2(session.sid, body)
                    )
                touched.add(session.conn)
        pending.clear()

    @staticmethod
    def _write(conn: _Connection, data: bytes) -> None:
        try:
            conn.writer.write(data)
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass  # client vanished mid-answer; its reader cleans up

    async def _drain(self, touched: Set[_Connection]) -> None:
        """Flush written answers; disconnect consumers too slow to take
        them (they would otherwise stall the shared score loop)."""
        if not touched:
            return

        async def _drain_one(conn: _Connection) -> None:
            try:
                await asyncio.wait_for(
                    conn.writer.drain(), timeout=self.config.read_timeout
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.TimeoutError:
                conn.writer.close()

        await asyncio.gather(
            *(_drain_one(conn) for conn in touched), return_exceptions=True
        )

    def _stats_payload(
        self, session: Optional[_Session], final: bool = False
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"server": self.stats.as_dict()}
        if session is not None:
            payload["session"] = session.as_dict()
        if final:
            payload["final"] = True
        return payload

    def _bye_payload(self, conn: _Connection) -> Dict[str, Any]:
        if conn.version == 1:
            session = conn.sessions.get(0)
            return self._stats_payload(session, final=True)
        payload: Dict[str, Any] = {"server": self.stats.as_dict(), "final": True}
        payload["sessions"] = [
            session.as_dict() for session in conn.sessions.values()
        ]
        return payload

    # ------------------------------------------------------------------
    async def _send_error(
        self, writer: asyncio.StreamWriter, code: str, message: str
    ) -> None:
        try:
            writer.write(protocol.pack_error(code, message))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
