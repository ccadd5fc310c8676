"""``repro serve`` with the benchmark's server-side spans, installed on demand.

    python3 -u perfbench/serve_child.py LEDGER.json serve --host 127.0.0.1 --port 0

Until the process receives SIGUSR1 this is exactly ``repro serve``.  On
SIGUSR1 it wraps the server's wire-protocol decode and encode, its fused
scoring call and its STATS reply in spans and prints
``perfbench: spans installed``.  When the server has drained and exited,
every span is written to LEDGER.json for the benchmark process to read.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path
from typing import List

from spans import Tracer

INSTALLED = "perfbench: spans installed"

#: (entry point, span name) on the server's side of the wire
SERVER_SPANS = (
    ("repro.serve.protocol:split_session_payload", "serve.decode"),
    ("repro.serve.protocol:unpack_records_packed", "serve.decode"),
    ("repro.serve.protocol:unpack_records", "serve.decode"),
    ("repro.serve.protocol:encode_predictions_fused", "serve.encode"),
    ("repro.serve.protocol:encode_predictions", "serve.encode"),
    ("repro.serve.protocol:pack_predictions2", "serve.encode"),
    ("repro.serve.protocol:pack_frame", "serve.encode"),
    ("repro.serve.protocol:pack_json", "serve.stats_reply"),
)


def install(tracer: Tracer) -> None:
    for target, name in SERVER_SPANS:
        tracer.wrap(target, name)
    try:
        from repro.sim.streaming import MultiSessionScorer
    except ImportError:
        tracer.absent.append("repro.sim.streaming:MultiSessionScorer.feed_many")
        return
    tracer.wrap_overrides(MultiSessionScorer, "feed_many", "serve.score", MultiSessionScorer.__subclasses__())


def main(argv: List[str]) -> int:
    ledger, args = Path(argv[0]), argv[1:]
    from repro import cli

    tracer = Tracer()

    def on_signal(_signum: int, _frame: object) -> None:
        install(tracer)
        print(INSTALLED, flush=True)

    signal.signal(signal.SIGUSR1, on_signal)
    try:
        return cli.main(args)
    finally:
        tracer.restore()
        ledger.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
