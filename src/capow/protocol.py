"""The networked admission gate and its wire protocol.

One session per request over a reliable stream: the client sends REQUEST,
the server scores it and answers with CHALLENGE (or REJECT), the client
solves and sends SOLUTION, the server verifies and answers ACCEPT with a
queue position or REJECT with a reason code.

Frames are length-prefixed: ``u32be body length || u8 msg_type || payload``.
Field-level layouts are documented on each message class. Each TCP
session holds its own authoritative challenge and ends with a verdict on
its audit record; a SOLUTION references the challenge only by seed
digest, so clients cannot downgrade their own difficulty.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, NamedTuple

from . import pow_core
from .cluster_models import ContextScore, fuse_scores, score_dabr, score_flow, score_tam
from .errors import ConfigError, ProtocolError, SchemaError, SolveTimeout
from .flow_ingest import extract_context
from .persistence import ModelBundle
from .policy_engine import PolicyConfig, map_difficulty, request_rng
from .pow_core import Challenge, ChallengeRegistry, Solution

logger = logging.getLogger(__name__)

MAX_FRAME_BYTES = 1 << 20
DEFAULT_QUEUE_CAPACITY = 1024
DEFAULT_IO_TIMEOUT_S = 120.0
ABANDONED = "abandoned"  # a verdict label only: no REJECT carries it


class MsgType(IntEnum):
    REQUEST = 1
    CHALLENGE = 2
    SOLUTION = 3
    ACCEPT = 4
    REJECT = 5


class RejectReason(IntEnum):
    BAD_REQUEST = 1
    UNAVAILABLE = 2
    EXPIRED = 3
    REPLAY = 4
    WRONG_SOLUTION = 5
    OVERLOADED = 6

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", "-")


@dataclass(frozen=True)
class Request:
    """Payload: u16be id length || id utf-8 || arrival_min f64be || u16be n || n * f64be."""

    user_id: str
    arrival_min: float
    flow_features: tuple[float, ...]


@dataclass(frozen=True)
class ChallengeMsg:
    """Payload: difficulty u8 || issue_ms u64be || seed 16B || expiry_ms u32be."""

    difficulty: int
    issue_ms: int
    seed: bytes
    expiry_ms: int


@dataclass(frozen=True)
class SolutionMsg:
    """Payload: seed digest 32B || nonce u64be."""

    seed_digest: bytes
    nonce: int


@dataclass(frozen=True)
class AcceptMsg:
    """Payload: queue position u32be."""

    queue_position: int


@dataclass(frozen=True)
class RejectMsg:
    """Payload: reason code u8."""

    reason: RejectReason


Message = Request | ChallengeMsg | SolutionMsg | AcceptMsg | RejectMsg


def encode_message(msg: Message) -> bytes:
    """Serialize a message into a complete length-prefixed frame."""
    if isinstance(msg, Request):
        uid = msg.user_id.encode("utf-8")
        if len(uid) > 0xFFFF:
            raise ProtocolError("user id too long")
        if len(msg.flow_features) > 0xFFFF:
            raise ProtocolError("flow vector too long")
        body = (
            bytes([MsgType.REQUEST])
            + struct.pack(">H", len(uid))
            + uid
            + struct.pack(">d", msg.arrival_min)
            + struct.pack(">H", len(msg.flow_features))
            + struct.pack(f">{len(msg.flow_features)}d", *msg.flow_features)
        )
    elif isinstance(msg, ChallengeMsg):
        if not 0 <= msg.difficulty <= 0xFF:
            raise ProtocolError("difficulty does not fit in one byte")
        if len(msg.seed) != pow_core.SEED_BYTES:
            raise ProtocolError("bad seed length")
        body = bytes([MsgType.CHALLENGE]) + struct.pack(
            f">BQ{pow_core.SEED_BYTES}sI", msg.difficulty, msg.issue_ms, msg.seed, msg.expiry_ms
        )
    elif isinstance(msg, SolutionMsg):
        if len(msg.seed_digest) != 32:
            raise ProtocolError("seed digest must be 32 bytes")
        body = bytes([MsgType.SOLUTION]) + msg.seed_digest + struct.pack(">Q", msg.nonce)
    elif isinstance(msg, AcceptMsg):
        body = bytes([MsgType.ACCEPT]) + struct.pack(">I", msg.queue_position)
    elif isinstance(msg, RejectMsg):
        body = bytes([MsgType.REJECT, int(msg.reason)])
    else:
        raise ProtocolError(f"cannot encode {type(msg).__name__}")
    return struct.pack(">I", len(body)) + body


def decode_message(body: bytes) -> Message:
    """Parse one frame body (without the length prefix) back into a message."""
    if not body:
        raise ProtocolError("empty frame")
    try:
        msg_type = MsgType(body[0])
    except ValueError:
        raise ProtocolError(f"unknown message type {body[0]}") from None
    payload = body[1:]
    try:
        if msg_type is MsgType.REQUEST:
            (id_len,) = struct.unpack_from(">H", payload, 0)
            uid = payload[2 : 2 + id_len].decode("utf-8")
            offset = 2 + id_len
            arrival, count = struct.unpack_from(">dH", payload, offset)
            offset += 10
            features = struct.unpack_from(f">{count}d", payload, offset)
            if offset + 8 * count != len(payload):
                raise ProtocolError("trailing bytes in REQUEST")
            return Request(user_id=uid, arrival_min=arrival, flow_features=tuple(features))
        if msg_type is MsgType.CHALLENGE:
            difficulty, issue_ms, seed, expiry_ms = struct.unpack(
                f">BQ{pow_core.SEED_BYTES}sI", payload
            )
            return ChallengeMsg(difficulty=difficulty, issue_ms=issue_ms, seed=seed, expiry_ms=expiry_ms)
        if msg_type is MsgType.SOLUTION:
            digest, nonce = struct.unpack(">32sQ", payload)
            return SolutionMsg(seed_digest=digest, nonce=nonce)
        if msg_type is MsgType.ACCEPT:
            (position,) = struct.unpack(">I", payload)
            return AcceptMsg(queue_position=position)
        (code,) = struct.unpack(">B", payload)
        try:
            return RejectMsg(reason=RejectReason(code))
        except ValueError:
            raise ProtocolError(f"unknown reject reason {code}") from None
    except (struct.error, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed {msg_type.name} payload: {exc}") from None


def write_frame(sock: socket.socket, frame: bytes) -> None:
    sock.sendall(frame)


def read_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame.

    Its first bytes may take the socket's timeout to come. The rest, length
    and body, must follow within one more timeout however they are paced, so
    a peer that trickles bytes holds a frame for at most twice the timeout.
    """
    timeout = sock.gettimeout()
    first = sock.recv(4)
    due = None if timeout is None else time.monotonic() + timeout
    try:
        (length,) = struct.unpack(">I", _recv_rest(sock, first, 4, due))
        if length == 0 or length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame length {length} out of bounds")
        return _recv_rest(sock, sock.recv(length), length, due)
    finally:
        if sock.gettimeout() != timeout:
            sock.settimeout(timeout)


def _recv_rest(sock: socket.socket, data: bytes, n: int, due: float | None) -> bytes:
    """Complete a read of n bytes whose first recv gave ``data``; the rest must come by ``due``."""
    if len(data) == n:
        return data
    chunks = bytearray(data)
    while len(chunks) < n:
        if not data:
            raise ProtocolError("connection closed mid-frame")
        if due is not None:
            left = due - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"{n - len(chunks)} of {n} bytes missing at the frame's deadline")
            sock.settimeout(left)
        data = sock.recv(n - len(chunks))
        chunks += data
    return bytes(chunks)


class ServerQueue:
    """Bounded FIFO of admitted request ids."""

    def __init__(self, capacity: int = DEFAULT_QUEUE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self._items: deque[str] = deque()
        self._lock = threading.Lock()

    def try_enqueue(self, request_id: str) -> int | None:
        """Admit a request; returns its 1-based position, or None when full."""
        with self._lock:
            if len(self._items) >= self.capacity:
                return None
            self._items.append(request_id)
            return len(self._items)

    def pop(self) -> str | None:
        with self._lock:
            return self._items.popleft() if self._items else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


@dataclass(slots=True)
class GateEvent:
    """The one audit record of a request: its score, its price and its verdict.

    A request refused before scoring has no ``score``, ``difficulty`` or
    ``seed_digest``; a challenged one has ``admitted`` None until its
    session's verdict. A refusal's ``reason`` is a REJECT label or ``abandoned``.
    """

    user_id: str
    arrival_min: float
    score: ContextScore | None = None
    difficulty: int | None = None
    seed_digest: str | None = None
    admitted: bool | None = None
    reason: str | None = None
    queue_position: int | None = None


class Session(NamedTuple):
    """One challenged request's puzzle and audit record, held by the session that was sent it."""

    challenge: Challenge
    event: GateEvent


class GateServer:
    """Scores requests, issues puzzles, verifies solutions, queues admissions.

    Models and policy are immutable and shared across sessions; the queue
    is the only synchronized mutable state. Each challenge lives in the
    :class:`Session` that :meth:`handle_request` returns until
    :meth:`handle_solution` gives it its one verdict. ``start()`` binds a
    threaded TCP listener (port 0 picks an ephemeral port) that runs one
    session per connection; tests can also call both methods directly.
    """

    def __init__(
        self,
        bundle: ModelBundle,
        policy: PolicyConfig,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        expiry_ms: int = pow_core.DEFAULT_EXPIRY_MS,
        clock_ms: Callable[[], int] | None = None,
        io_timeout_s: float = DEFAULT_IO_TIMEOUT_S,
    ) -> None:
        if bundle.scaler is None:
            raise ConfigError("model bundle has no feature scaler")
        if not 0 <= expiry_ms <= 0xFFFFFFFF:
            raise ConfigError(f"expiry_ms must be in [0, {0xFFFFFFFF}], got {expiry_ms}")
        if queue_capacity < 1:
            raise ConfigError(f"queue capacity must be at least 1, got {queue_capacity}")
        self.bundle = bundle
        self.policy = policy
        self.registry = ChallengeRegistry()  # never filled; perfbench's ServerProbe.state reads it
        self.queue = ServerQueue(queue_capacity)
        self.expiry_ms = expiry_ms
        self.events: list[GateEvent] = []
        self._clock_ms = clock_ms or (lambda: int(time.time() * 1000))
        self._embedder = bundle.embedder()
        self._dabr = bundle.dabr if "dabr" in policy.contexts_enabled else None
        self._tam = bundle.tam if "tam" in policy.contexts_enabled else None
        self._flow = bundle.flow if "flow" in policy.contexts_enabled else None
        self._host = host
        self._port = port
        self._io_timeout_s = io_timeout_s
        self._tcp: socketserver.ThreadingTCPServer | None = None
        self._thread: threading.Thread | None = None

    # ── Request handling ────────────────────────────────────────────

    def score_request(self, req: Request) -> ContextScore:
        """Run the enabled context models over one request; raises SchemaError on bad fields."""
        ip_attributes, flow_vector = extract_context(
            req.user_id, req.arrival_min, req.flow_features, self.bundle.scaler, self._embedder
        )
        alpha = beta = gamma = 0.0
        if self._dabr is not None:
            alpha = score_dabr(self._dabr, ip_attributes)
        if self._tam is not None:
            beta = score_tam(self._tam, req.user_id, req.arrival_min)
        if self._flow is not None:
            gamma = score_flow(self._flow, flow_vector)
        return fuse_scores(alpha, beta, gamma, self.policy.weights)

    def price(self, req: Request) -> tuple[ContextScore, int]:
        """Score one request and map the score to the puzzle difficulty it is charged."""
        score = self.score_request(req)
        rng = None
        if self.policy.policy_kind == "error_range":
            rng = request_rng(self.policy, req.user_id, req.arrival_min, req.flow_features)
        return score, min(map_difficulty(self.policy, score.phi, rng), pow_core.MAX_DIFFICULTY)

    def handle_request(self, req: Request) -> tuple[ChallengeMsg | RejectMsg, Session | None]:
        """Price one REQUEST; a CHALLENGE comes with the session that must settle it."""
        try:
            score, difficulty = self.price(req)
        except SchemaError:
            self.events.append(GateEvent(req.user_id, req.arrival_min, admitted=False,
                                         reason=RejectReason.BAD_REQUEST.label))
            return RejectMsg(reason=RejectReason.BAD_REQUEST), None

        challenge = pow_core.issue_challenge(
            req.user_id.encode("utf-8"), difficulty, self._clock_ms(), self.expiry_ms
        )
        event = GateEvent(req.user_id, req.arrival_min, score, difficulty,
                          challenge.seed_digest().hex())
        self.events.append(event)
        logger.debug("%s", event)
        reply = ChallengeMsg(
            difficulty=difficulty,
            issue_ms=challenge.issue_ms,
            seed=challenge.seed,
            expiry_ms=challenge.expiry_ms,
        )
        return reply, Session(challenge, event)

    def handle_solution(self, session: Session, msg: Message | None) -> AcceptMsg | RejectMsg:
        """The session's one verdict; ``msg`` None stands for a frame that did not decode.

        A session that already has its verdict answers REPLAY and keeps it.
        """
        challenge, event = session
        if event.admitted is not None:
            return RejectMsg(reason=RejectReason.REPLAY)
        if not isinstance(msg, SolutionMsg) or msg.seed_digest.hex() != event.seed_digest:
            reason = RejectReason.BAD_REQUEST
        elif challenge.expired(self._clock_ms()):
            reason = RejectReason.EXPIRED
        elif not pow_core.check_solution(challenge, msg.nonce):
            reason = RejectReason.WRONG_SOLUTION
        else:
            position = self.queue.try_enqueue(event.seed_digest)
            if position is not None:
                event.admitted, event.queue_position = True, position
                return AcceptMsg(queue_position=position)
            reason = RejectReason.OVERLOADED
        event.admitted, event.reason = False, reason.label
        return RejectMsg(reason=reason)

    # ── TCP plumbing ────────────────────────────────────────────────

    def start(self) -> tuple[str, int]:
        """Bind and serve on a background thread; returns the bound address."""
        gate = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                sock: socket.socket = self.request
                sock.settimeout(gate._io_timeout_s)
                session = None
                try:
                    first = decode_message(read_frame(sock))
                    if not isinstance(first, Request):
                        write_frame(sock, encode_message(RejectMsg(reason=RejectReason.BAD_REQUEST)))
                        return
                    reply, session = gate.handle_request(first)
                    write_frame(sock, encode_message(reply))
                    if session is None:
                        return
                    frame = read_frame(sock)
                    try:
                        second = decode_message(frame)
                    except ProtocolError:
                        second = None
                    write_frame(sock, encode_message(gate.handle_solution(session, second)))
                except ProtocolError as exc:
                    logger.debug("session aborted: %s", exc)
                    try:
                        write_frame(sock, encode_message(RejectMsg(reason=RejectReason.BAD_REQUEST)))
                    except OSError:
                        pass
                except OSError as exc:
                    logger.debug("session I/O error: %s", exc)
                finally:
                    # no SOLUTION frame came: a hang-up, an I/O timeout or a bad length header
                    if session is not None and session.event.admitted is None:
                        session.event.admitted, session.event.reason = False, ABANDONED

        class TcpServer(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._tcp = TcpServer((self._host, self._port), Handler)
        self._thread = threading.Thread(target=self._tcp.serve_forever, name="capow-gate", daemon=True)
        self._thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        if self._tcp is None:
            raise RuntimeError("server not started")
        addr = self._tcp.server_address
        return addr[0], addr[1]

    def stop(self) -> None:
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()
            self._tcp = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "GateServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass(frozen=True)
class SessionOutcome:
    """Client-side record of one request/solve/submit round trip."""

    user_id: str
    admitted: bool
    reason: str | None
    latency_ms: float
    attempts: int
    difficulty: int | None
    seed_digest: str | None


def client_session(
    request: Request,
    address: tuple[str, int],
    *,
    solve_deadline_s: float | None = None,
    io_timeout_s: float = DEFAULT_IO_TIMEOUT_S,
) -> SessionOutcome:
    """Run one full admission round trip against a gate server.

    Latency is wall time from sending REQUEST to receiving the final
    verdict. Transport failures and solver timeouts yield non-admitted
    outcomes with reasons ``transport`` and ``abandoned``.
    """
    started = time.perf_counter()
    difficulty = None
    digest_hex = None
    attempts = 0
    try:
        with socket.create_connection(address, timeout=io_timeout_s) as sock:
            sock.settimeout(io_timeout_s)
            started = time.perf_counter()
            write_frame(sock, encode_message(request))
            reply = decode_message(read_frame(sock))
            if isinstance(reply, RejectMsg):
                return _outcome(request, False, reply.reason.label, started, attempts, difficulty, digest_hex)
            if not isinstance(reply, ChallengeMsg):
                raise ProtocolError(f"expected CHALLENGE, got {type(reply).__name__}")
            difficulty = reply.difficulty
            challenge = Challenge(
                user_id=request.user_id.encode("utf-8"),
                issue_ms=reply.issue_ms,
                seed=reply.seed,
                difficulty=reply.difficulty,
                expiry_ms=reply.expiry_ms,
            )
            digest_hex = challenge.seed_digest().hex()
            try:
                solution: Solution = pow_core.solve(challenge, deadline_s=solve_deadline_s)
            except SolveTimeout:
                return _outcome(request, False, ABANDONED, started, attempts, difficulty, digest_hex)
            attempts = solution.attempts
            write_frame(
                sock,
                encode_message(SolutionMsg(seed_digest=solution.seed_digest, nonce=solution.nonce)),
            )
            final = decode_message(read_frame(sock))
            if isinstance(final, AcceptMsg):
                return _outcome(request, True, None, started, attempts, difficulty, digest_hex)
            if isinstance(final, RejectMsg):
                return _outcome(request, False, final.reason.label, started, attempts, difficulty, digest_hex)
            raise ProtocolError(f"expected verdict, got {type(final).__name__}")
    except (OSError, ProtocolError):
        return _outcome(request, False, "transport", started, attempts, difficulty, digest_hex)


def _outcome(request, admitted, reason, started, attempts, difficulty, digest_hex) -> SessionOutcome:
    return SessionOutcome(
        user_id=request.user_id,
        admitted=admitted,
        reason=reason,
        latency_ms=(time.perf_counter() - started) * 1000.0,
        attempts=attempts,
        difficulty=difficulty,
        seed_digest=digest_hex,
    )
