"""Prediction server end-to-end tests.

Covers the ISSUE acceptance criteria: served per-branch predictions are
bit-exact with the offline engine for every scheme family on all fourteen
workload variants (scalar and vector sessions); every fault — malformed
frame, oversized frame, mid-stream disconnect, read timeout — closes only
the offending session; the stats frame reports live counters; the
connection limit and graceful shutdown behave.

No pytest-asyncio: each test drives its own event loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.errors import ProtocolError
from repro.predictors.spec import parse_spec
from repro.serve import protocol
from repro.serve.client import AsyncPredictionClient, PredictionClient
from repro.serve.server import PredictionServer, ServerConfig
from repro.sim.backend import has_numpy
from repro.sim.engine import simulate
from repro.sim.streaming import ScalarStreamingScorer, needs_training
from repro.trace.columnar import pack_records
from repro.workloads.base import get_workload, workload_names

#: one spec per scheme family, including the scalar-fallback AHRT/HHRT pair.
FAMILY_SPECS = [
    "AlwaysTaken",
    "AlwaysNotTaken",
    "BTFN",
    "Profile",
    "LS(IHRT(,A2),,)",
    "AT(IHRT(,6SR),PT(2^6,A2),)",
    "ST(IHRT(,6SR),PT(2^6,PB),Same)",
    "GAg(6,A2)",
    "gshare(8,A2)",
    "AT(AHRT(512,6SR),PT(2^6,A2),)",
    "LS(HHRT(256,A2),,)",
    "perceptron(8,16)",
    "tage(2,5)",
]

BACKENDS = ["scalar", "vector"] if has_numpy() else ["scalar"]


async def _started_server(config=None):
    server = PredictionServer(config or ServerConfig())
    await server.start()
    return server


async def _expect_error(reader, code):
    """The next frame must be an ERROR frame carrying ``code``."""
    frame = await asyncio.wait_for(protocol.read_frame(reader), timeout=5)
    assert frame is not None, f"connection closed before the {code} ERROR frame"
    frame_type, payload = frame
    assert frame_type == protocol.FRAME_ERROR
    body = protocol.unpack_json(payload, frame_type)
    assert body["code"] == code, body
    return body


async def _session_roundtrip(server, records, spec="BTFN"):
    """One healthy session: predict ``records``, return (results, final)."""
    client = await AsyncPredictionClient.connect(server.host, server.port, spec)
    results = await client.predict(records)
    final = await client.finish()
    return results, final


class TestParity:
    """Served predictions == the offline engine, bit for bit."""

    def test_all_variants_all_families(self, trace_cache, small_scale):
        """Every scheme family on all 14 workload variants, every backend."""
        variants = []
        for name in workload_names():
            variants.append((name, "test"))
            if get_workload(name).has_training_set:
                variants.append((name, "train"))
        assert len(variants) == 14

        async def _run():
            server = await _started_server()
            try:
                for name, role in variants:
                    trace = trace_cache.get(get_workload(name), role, small_scale)
                    records = trace.records[:1000]
                    for spec_text in FAMILY_SPECS:
                        for backend in BACKENDS:
                            await self._check_session(
                                server, spec_text, backend, records,
                                f"{name}:{role}",
                            )
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    @staticmethod
    async def _check_session(server, spec_text, backend, records, label):
        spec = parse_spec(spec_text)
        training = records if needs_training(spec) else None
        reference = ScalarStreamingScorer(spec, training_records=training)
        expected = reference.feed(records)

        client = await AsyncPredictionClient.connect(
            server.host, server.port, spec_text, backend=backend
        )
        if training is not None:
            await client.train(training)
        served = []
        for start in range(0, len(records), 256):
            served.extend(await client.predict(records[start:start + 256]))
        final = await client.finish()

        context = f"{spec_text} [{backend}] on {label}"
        got = [None if r is None else r.predicted for r in served]
        assert got == expected, context
        session = final["session"]
        assert (session["conditional"], session["correct"]) == (
            reference.stats.conditional_total,
            reference.stats.conditional_correct,
        ), context

    def test_training_session_matches_offline(self, program_trace):
        """ST/Profile sessions: TRAIN frames reproduce the offline build."""
        records = program_trace[:1500]

        async def _run():
            server = await _started_server()
            try:
                for spec_text in ("Profile", "ST(IHRT(,6SR),PT(2^6,PB),Same)"):
                    spec = parse_spec(spec_text)
                    expected = simulate(
                        spec.build(training_records=records), pack_records(records)
                    )
                    client = await AsyncPredictionClient.connect(
                        server.host, server.port, spec_text
                    )
                    assert client.session_info["needs_training"] is True
                    await client.train(records[:800])
                    await client.train(records[800:])
                    await client.predict(records)
                    final = await client.finish()
                    session = final["session"]
                    assert session["conditional"] == expected.conditional_total
                    assert session["correct"] == expected.conditional_correct
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())


class TestFaultIsolation:
    """Each fault closes only the offending session."""

    def test_malformed_frame(self, program_trace):
        records = program_trace[:200]

        async def _run():
            server = await _started_server()
            try:
                survivor = await AsyncPredictionClient.connect(
                    server.host, server.port, "BTFN"
                )
                await survivor.predict(records)

                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(protocol.pack_json(
                    protocol.FRAME_HELLO, {"spec": "BTFN"}
                ))
                await protocol.read_frame(reader)  # OK
                # a RECORDS payload that is not whole 9-byte records
                writer.write(protocol.pack_frame(
                    protocol.FRAME_RECORDS, b"\x00" * 10
                ))
                await writer.drain()
                await _expect_error(reader, "bad-frame")
                assert await protocol.read_frame(reader) is None  # closed
                writer.close()

                # the surviving session and the server are unaffected
                await survivor.predict(records)
                await survivor.finish()
                await _session_roundtrip(server, records)
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_oversized_frame(self, program_trace):
        records = program_trace[:10]  # stays under the tiny 128-byte frame cap

        async def _run():
            server = await _started_server(ServerConfig(max_frame_bytes=128))
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(protocol.pack_json(
                    protocol.FRAME_HELLO, {"spec": "BTFN"}
                ))
                await protocol.read_frame(reader)  # OK
                writer.write(protocol.pack_frame(
                    protocol.FRAME_RECORDS, b"\x00" * 900
                ))
                await writer.drain()
                await _expect_error(reader, "frame-too-large")
                writer.close()

                await _session_roundtrip(server, records)  # server alive
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_mid_stream_disconnect(self, program_trace):
        records = program_trace[:200]

        async def _run():
            server = await _started_server()
            try:
                survivor = await AsyncPredictionClient.connect(
                    server.host, server.port, "BTFN"
                )
                await survivor.predict(records)

                # vanish cleanly after OK (no BYE)
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(protocol.pack_json(
                    protocol.FRAME_HELLO, {"spec": "BTFN"}
                ))
                await protocol.read_frame(reader)
                writer.close()

                # vanish mid frame header
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(protocol.pack_json(
                    protocol.FRAME_HELLO, {"spec": "BTFN"}
                ))
                await protocol.read_frame(reader)
                writer.write(b"\x07\x00")  # 2 of the 5 header bytes
                await writer.drain()
                writer.close()

                await asyncio.sleep(0.05)
                await survivor.predict(records)
                await survivor.finish()
                for _ in range(100):  # session reaping is asynchronous
                    if server.active_sessions == 0:
                        break
                    await asyncio.sleep(0.02)
                assert server.active_sessions == 0
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_read_timeout(self, program_trace):
        records = program_trace[:100]

        async def _run():
            server = await _started_server(ServerConfig(read_timeout=0.15))
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(protocol.pack_json(
                    protocol.FRAME_HELLO, {"spec": "BTFN"}
                ))
                await protocol.read_frame(reader)  # OK
                # ... then go silent past the read timeout
                await _expect_error(reader, "timeout")
                assert await protocol.read_frame(reader) is None
                writer.close()

                await _session_roundtrip(server, records)  # server alive
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())


class TestProtocolEnforcement:
    def _expect_session_error(self, hello, code, then=None):
        async def _run():
            server = await _started_server()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                if hello is not None:
                    writer.write(protocol.pack_json(protocol.FRAME_HELLO, hello))
                    if then is not None:
                        frame = await protocol.read_frame(reader)
                        assert frame is not None and frame[0] == protocol.FRAME_OK
                        writer.write(then)
                        await writer.drain()
                else:
                    assert then is not None
                    writer.write(then)
                    await writer.drain()
                body = await _expect_error(reader, code)
                writer.close()
                return body
            finally:
                await server.stop(drain=False)

        return asyncio.run(_run())

    def test_bad_spec(self):
        self._expect_session_error({"spec": "Bogus("}, "bad-spec")

    def test_bad_hello(self):
        self._expect_session_error({"no_spec": 1}, "bad-hello")

    def test_bad_backend(self):
        self._expect_session_error({"spec": "BTFN", "backend": "simd"}, "bad-backend")

    def test_records_before_hello(self):
        self._expect_session_error(
            None, "protocol", then=protocol.pack_records([])
        )

    def test_duplicate_hello(self):
        self._expect_session_error(
            {"spec": "BTFN"}, "protocol",
            then=protocol.pack_json(protocol.FRAME_HELLO, {"spec": "BTFN"}),
        )

    def test_unknown_frame_type(self):
        self._expect_session_error(
            {"spec": "BTFN"}, "bad-frame", then=protocol.pack_frame(42)
        )

    def test_training_scheme_requires_train_frames(self):
        body = self._expect_session_error(
            {"spec": "Profile"}, "protocol", then=protocol.pack_records([])
        )
        assert "TRAIN" in body["error"]

    # JSON booleans are Python ints and 2.0 == 2: integer fields must be
    # checked by type, not by value, or ``true`` passes as 1
    @pytest.mark.parametrize(
        "hello",
        [
            {"version": True, "spec": "BTFN"},
            {"version": 2.0},
            {"version": "2"},
            {"version": 2, "max_sessions": True},
            {"version": 2, "max_sessions": 4.0},
        ],
    )
    def test_non_integer_hello_fields(self, hello):
        self._expect_session_error(hello, "bad-hello")

    @pytest.mark.parametrize(
        "fields",
        [
            {"session": True},
            {"session": False},
            {"session": 1.0},
            {"session": "1"},
            {"session": 1, "backend": 5},
        ],
    )
    def test_mistyped_open_fields(self, fields):
        self._expect_session_error(
            {"version": 2},
            "bad-session",
            then=protocol.pack_json(protocol.FRAME_OPEN, {"spec": "BTFN", **fields}),
        )

    def test_mistyped_v1_backend(self):
        self._expect_session_error({"spec": "BTFN", "backend": 5}, "bad-hello")

    @pytest.mark.parametrize("frame_type", ["CLOSE", "STATS_REQUEST"])
    def test_boolean_session_does_not_alias_session_one(self, frame_type):
        async def _run():
            server = await _started_server()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(protocol.pack_json(protocol.FRAME_HELLO, {"version": 2}))
                writer.write(
                    protocol.pack_json(
                        protocol.FRAME_OPEN, {"session": 1, "spec": "BTFN"}
                    )
                )
                for _ in range(2):
                    frame = await protocol.read_frame(reader)
                    assert frame is not None and frame[0] == protocol.FRAME_OK
                writer.write(
                    protocol.pack_json(
                        getattr(protocol, f"FRAME_{frame_type}"), {"session": True}
                    )
                )
                await writer.drain()
                await _expect_error(reader, "bad-session")
                writer.close()
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_client_raises_typed_error(self):
        async def _run():
            server = await _started_server()
            try:
                with pytest.raises(ProtocolError) as excinfo:
                    await AsyncPredictionClient.connect(
                        server.host, server.port, "NotAScheme(("
                    )
                assert excinfo.value.code == "bad-spec"
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())


class TestOperations:
    def test_stats_frame(self, program_trace):
        records = program_trace[:600]

        async def _run():
            server = await _started_server()
            try:
                spec_text = "AT(IHRT(,6SR),PT(2^6,A2),)"
                client = await AsyncPredictionClient.connect(
                    server.host, server.port, spec_text
                )
                await client.predict(records[:300])
                await client.predict(records[300:])
                stats = await client.stats()
                live = stats["server"]
                assert live["active_sessions"] == 1
                assert live["records_served"] == 600
                assert live["errors"] == 0
                assert sum(live["batch_size_histogram"].values()) >= 2
                scheme = live["schemes"][parse_spec(spec_text).canonical()]
                assert scheme["records"] == 600
                assert scheme["mean_batch_us"] >= 0.0
                session = stats["session"]
                assert 0.0 < session["accuracy"] <= 1.0
                final = await client.finish()
                assert final["final"] is True
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_connection_limit(self):
        async def _run():
            server = await _started_server(ServerConfig(max_connections=1))
            try:
                first = await AsyncPredictionClient.connect(
                    server.host, server.port, "BTFN"
                )
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                await _expect_error(reader, "busy")
                writer.close()
                await first.finish()  # the admitted session is unaffected
            finally:
                await server.stop(drain=False)

        asyncio.run(_run())

    def test_graceful_stop(self, program_trace):
        records = program_trace[:200]

        async def _run():
            server = await _started_server()
            port = server.port
            results, final = await _session_roundtrip(server, records)
            assert final["session"]["conditional"] > 0
            await server.stop()
            await server.wait_closed()
            assert server.active_sessions == 0
            with pytest.raises(OSError):
                await asyncio.open_connection(server.host, port)

        asyncio.run(_run())

    def test_sync_client(self, program_trace):
        """The blocking client against a server on a separate thread."""
        records = program_trace[:400]
        box = {}
        started = threading.Event()

        def _serve():
            async def _main():
                server = await _started_server()
                box["server"] = server
                box["loop"] = asyncio.get_running_loop()
                started.set()
                await server.wait_closed()

            asyncio.run(_main())

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        assert started.wait(10)
        try:
            with PredictionClient.connect(
                "127.0.0.1", box["server"].port, "GAg(6,A2)"
            ) as client:
                assert client.backend in ("scalar", "vector")
                served = client.predict(records)
                reference = ScalarStreamingScorer(parse_spec("GAg(6,A2)"))
                expected = reference.feed(records)
                got = [None if r is None else r.predicted for r in served]
                assert got == expected
                final = client.finish()
                assert final["session"]["conditional"] == (
                    reference.stats.conditional_total
                )
        finally:
            asyncio.run_coroutine_threadsafe(
                box["server"].stop(), box["loop"]
            ).result(10)
            thread.join(10)


class TestLoadgen:
    def test_bench_serve_payload(self, trace_cache):
        from repro.serve.loadgen import bench_serve

        payload = bench_serve(
            sessions=4, scale=1500, chunk=256, window=3, cache=trace_cache
        )
        assert payload["totals"]["parity"] == "verified"
        assert len(payload["sessions"]) == 4
        assert payload["totals"]["records"] == sum(
            session["records"] for session in payload["sessions"]
        )
        assert payload["totals"]["records_per_sec"] > 0
        latency = payload["totals"]["latency"]
        assert 0 <= latency["p50_ms"] <= latency["p99_ms"] <= latency["max_ms"]
        assert payload["server"]["sessions_total"] == 4
        assert payload["server"]["errors"] == 0
        for session in payload["sessions"]:
            assert session["backend"] in ("scalar", "vector")
            assert 0.0 < session["accuracy"] <= 1.0
