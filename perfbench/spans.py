"""In-memory span recording for the benchmark's traced runs.

A span is one call into a wrapped function: its name, the session it
belongs to, its nesting depth, its duration, its self time (duration
minus the time of the spans it directly contains) and one integer the
wrapper observed about the call (a difficulty, a deciding model, ...).
Spans are packed into one ``bytearray`` whose ``extend`` runs under the
interpreter lock, so handler threads can record concurrently without a
lock and without interleaving records.

Nothing here edits ``capow`` on disk: :func:`install_server` rebinds
names in the imported modules of the process that calls it.
"""

from __future__ import annotations

import itertools
import struct
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

RECORD = struct.Struct("<HIBqqq")  # name id, session id, depth, total ns, self ns, value

Observe = Callable[[Any, tuple], int]


class Tracer:
    """Wraps callables so that each call records one span.

    A thread's spans share a session id until :meth:`begin_session` is
    called on that thread; the gate serves each connection on a thread
    of its own, so on the server a thread is a session.
    """

    def __init__(self, clock: Callable[[], int]) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.buf = bytearray()
        self._local = threading.local()
        self._sessions = itertools.count(1)

    def begin_session(self) -> None:
        self._local.sid = next(self._sessions)

    def offset(self) -> int:
        """Current end of the span buffer; pass it to :func:`read_spans` as a bound."""
        return len(self.buf)

    def wrap(self, name: str, fn: Callable, observe: Observe | None = None) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        clock = self.clock
        local = self._local
        pack = RECORD.pack
        buf = self.buf

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if getattr(local, "sid", None) is None:
                local.sid = next(self._sessions)
            children = [0]
            stack.append(children)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                total = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += total
                value = observe(result, args) if observe is not None and result is not None else 0
                buf.extend(pack(name_id, local.sid, len(stack), total, total - children[0], value))

        return traced


class Span(NamedTuple):
    name: str
    sid: int
    depth: int
    total_ns: int
    self_ns: int
    value: int


def read_spans(names: list[str], buf: bytes, start: int = 0, end: int | None = None) -> list[Span]:
    """Decode the records in ``buf[start:end]`` (offsets from :meth:`Tracer.offset`)."""
    view = memoryview(buf)[start:len(buf) if end is None else end]
    return [
        Span(names[n], sid, depth, total, self_ns, value)
        for n, sid, depth, total, self_ns, value in RECORD.iter_unpack(view)
    ]


@dataclass
class ServerProbe:
    """What the traced launcher keeps besides spans: the gate and set-up timings."""

    gates: list = field(default_factory=list)
    load_s: dict[str, float] = field(default_factory=dict)

    def state(self) -> dict[str, int]:
        """Server state at the time of the call: held records and queue depth."""
        gate = self.gates[-1]
        return {
            "outstanding": gate.registry.outstanding,
            "events_len": len(gate.events),
            "queue_depth": len(gate.queue),
        }


DECIDING_MODELS = ("dabr", "tam", "flow")


def install_server(tracer: Tracer, wall_clock: Callable[[], float]) -> ServerProbe:
    """Wrap the gate's layers where ``capow`` looks them up at serve time.

    ``capow.protocol`` binds the scoring, policy and codec functions as
    module globals, so those names are rebound there; the gate, registry
    and queue methods are rebound on their classes. ``capow.cli`` binds
    ``load_bundle`` and ``load_policy`` as its own globals.
    """
    from capow import cli, protocol
    from capow.pow_core import ChallengeRegistry
    from capow.protocol import GateServer, ServerQueue

    probe = ServerProbe()
    module_functions = [
        ("protocol.read_frame", "read_frame", None),
        ("protocol.decode_message", "decode_message", None),
        ("protocol.encode_message", "encode_message", None),
        ("flow_ingest.extract_context", "extract_context", None),
        ("cluster_models.score_dabr", "score_dabr", None),
        ("cluster_models.score_tam", "score_tam", lambda result, args: int(args[1] in args[0].intervals)),
        ("cluster_models.score_flow", "score_flow", None),
        ("cluster_models.fuse_scores", "fuse_scores",
         lambda result, args: DECIDING_MODELS.index(result.deciding_model.value)),
        ("policy_engine.map_difficulty", "map_difficulty", lambda result, args: result),
        ("policy_engine.request_rng", "request_rng", None),
    ]
    for span, attr, observe in module_functions:
        setattr(protocol, attr, tracer.wrap(span, getattr(protocol, attr), observe))

    methods = [
        ("protocol.GateServer.handle_request", GateServer, "handle_request", None),
        ("protocol.GateServer.score_request", GateServer, "score_request", None),
        ("protocol.GateServer.handle_solution", GateServer, "handle_solution", None),
        ("pow_core.ChallengeRegistry.issue", ChallengeRegistry, "issue", None),
        ("pow_core.ChallengeRegistry.verify", ChallengeRegistry, "verify",
         lambda result, args: int(result.accepted)),
        # the observed value is the queue position; a refusal returns None and records 0
        ("protocol.ServerQueue.try_enqueue", ServerQueue, "try_enqueue", lambda result, args: result),
    ]
    for span, cls, attr, observe in methods:
        setattr(cls, attr, tracer.wrap(span, getattr(cls, attr), observe))

    start = GateServer.start

    def start_and_keep(gate):
        probe.gates.append(gate)
        return start(gate)

    GateServer.start = start_and_keep

    for attr, key in (("load_bundle", "persistence.load_bundle_s"), ("load_policy", "policy_engine.load_policy_s")):
        setattr(cli, attr, _timed(getattr(cli, attr), key, probe.load_s, wall_clock))
    return probe


def _timed(fn: Callable, key: str, into: dict[str, float], clock: Callable[[], float]) -> Callable:
    def timed(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            into[key] = clock() - start

    return timed
