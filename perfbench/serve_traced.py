"""Run ``capow serve`` with span recorders around every serving layer.

Usage::

    python perfbench/serve_traced.py OUT serve --models DIR --policy FILE ...

The arguments after OUT go to ``capow.cli.main`` unchanged. Spans are
kept in memory while the gate serves. SIGUSR1 marks the end of the
benchmark's fixed prefix and prints ``perfbench: marked <offset>``. On
SIGINT ``serve`` returns, and the launcher writes ``OUT.bin`` (packed
span records, see ``spans.RECORD``) and ``OUT.json`` (span names, marks,
set-up timings and the gate's state at exit).
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import spans


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    from capow import cli

    tracer = spans.Tracer(time.thread_time_ns)
    probe = spans.install_server(tracer, time.perf_counter)
    marks: list[int] = []

    def on_mark(signum, frame) -> None:
        marks.append(tracer.offset())
        print(f"perfbench: marked {marks[-1]}", flush=True)

    signal.signal(signal.SIGUSR1, on_mark)
    code = cli.main(argv[1:])
    out.with_suffix(".bin").write_bytes(tracer.buf)
    meta = {
        "names": tracer.names,
        "marks": marks,
        "load_s": probe.load_s,
        "state": probe.state() if probe.gates else None,
        "exit": code,
    }
    out.with_suffix(".json").write_text(json.dumps(meta), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
