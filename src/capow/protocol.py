"""The networked admission gate and its wire protocol.

One session per request over a reliable stream: the client sends REQUEST,
the server scores it and answers with CHALLENGE (or REJECT), the client
solves and sends SOLUTION, the server verifies and answers ACCEPT with a
queue position or REJECT with a reason code.

Frames are length-prefixed: ``u32be body length || u8 msg_type || payload``.
Field-level layouts are documented on each message class. Each TCP
session holds its own authoritative challenge and ends with a verdict on
its audit record; a SOLUTION references the challenge only by seed
digest, so clients cannot downgrade their own difficulty. One thread
serves every connection; each closes ``expiry_ms`` after its accept, or
:data:`DEFAULT_IO_TIMEOUT_S` if that comes first.
"""

from __future__ import annotations

import logging
import random
import selectors
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, ClassVar, NamedTuple

from . import pow_core
from .cluster_models import ContextScore, fuse_scores, score_dabr, score_flow, score_tam
from .errors import ConfigError, ProtocolError, SchemaError, SolveTimeout
from .flow_ingest import extract_context
from .persistence import ModelBundle
from .policy_engine import PolicyConfig, map_difficulty, request_rng
from .pow_core import Challenge, ChallengeRegistry

logger = logging.getLogger(__name__)

MAX_FRAME_BYTES = 1 << 20
DEFAULT_QUEUE_CAPACITY = 1024
DEFAULT_IO_TIMEOUT_S = 120.0  # a client's network timeout, and the longest the gate keeps a connection open
# While the serving loop's recent waits for an event average under this, it polls without
# blocking for up to this long before it sleeps. Under load the next frame mostly comes
# sooner, so the thread is not put to sleep and woken once per frame, and the scheduler
# does not move another runnable thread onto its core in between. When events come
# slower, as while a lone client solves its puzzle, it sleeps at once.
POLL_SPIN_S = 100e-6
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


# A fixed-size message's LAYOUT packs its fields, in declaration order, after its TYPE byte.


@dataclass(frozen=True)
class ChallengeMsg:
    """Payload: difficulty u8 || issue_ms u64be || seed 16B || expiry_ms u32be."""

    TYPE: ClassVar[MsgType] = MsgType.CHALLENGE
    LAYOUT: ClassVar[struct.Struct] = struct.Struct(f">BQ{pow_core.SEED_BYTES}sI")
    difficulty: int
    issue_ms: int
    seed: bytes
    expiry_ms: int

    def __post_init__(self) -> None:
        if len(self.seed) != pow_core.SEED_BYTES:  # struct would pad a short seed
            raise ProtocolError("bad seed length")


@dataclass(frozen=True)
class SolutionMsg:
    """Payload: seed digest 32B || nonce u64be."""

    TYPE: ClassVar[MsgType] = MsgType.SOLUTION
    LAYOUT: ClassVar[struct.Struct] = struct.Struct(">32sQ")
    seed_digest: bytes
    nonce: int

    def __post_init__(self) -> None:
        if len(self.seed_digest) != 32:  # struct would pad a short digest
            raise ProtocolError("seed digest must be 32 bytes")


@dataclass(frozen=True)
class AcceptMsg:
    """Payload: queue position u32be."""

    TYPE: ClassVar[MsgType] = MsgType.ACCEPT
    LAYOUT: ClassVar[struct.Struct] = struct.Struct(">I")
    queue_position: int


@dataclass(frozen=True)
class RejectMsg:
    """Payload: reason code u8."""

    TYPE: ClassVar[MsgType] = MsgType.REJECT
    LAYOUT: ClassVar[struct.Struct] = struct.Struct(">B")
    reason: RejectReason


Message = Request | ChallengeMsg | SolutionMsg | AcceptMsg | RejectMsg
_FIXED_CLASSES = (ChallengeMsg, SolutionMsg, AcceptMsg, RejectMsg)
_FIXED_MESSAGES = {cls.TYPE: cls for cls in _FIXED_CLASSES}
_LENGTH = struct.Struct(">I")
_REQUEST_HEAD = struct.Struct(">BH")
_SOLUTION_BODY = 1 + SolutionMsg.LAYOUT.size  # the one frame the gate reads after its CHALLENGE


def encode_message(msg: Message) -> bytes:
    """Serialize a message into a complete length-prefixed frame."""
    try:
        if isinstance(msg, Request):
            uid = msg.user_id.encode("utf-8")
            n = len(msg.flow_features)
            body = (_REQUEST_HEAD.pack(MsgType.REQUEST, len(uid)) + uid
                    + struct.pack(f">dH{n}d", msg.arrival_min, n, *msg.flow_features))
        elif isinstance(msg, _FIXED_CLASSES):
            body = bytes([msg.TYPE]) + msg.LAYOUT.pack(*vars(msg).values())
        else:
            raise ProtocolError(f"cannot encode {type(msg).__name__}")
    except struct.error as exc:  # a field out of its range, or an id or vector past 0xFFFF
        raise ProtocolError(f"cannot encode {type(msg).__name__}: {exc}") from None
    return _LENGTH.pack(len(body)) + body


def decode_message(body: bytes) -> Message:
    """Parse one frame body (without the length prefix) back into a message."""
    if not body:
        raise ProtocolError("empty frame")
    try:
        msg_type = MsgType(body[0])
    except ValueError:
        raise ProtocolError(f"unknown message type {body[0]}") from None
    try:
        if msg_type is MsgType.REQUEST:
            end = 3 + _REQUEST_HEAD.unpack_from(body)[1]
            arrival, n = struct.unpack_from(">dH", body, end)
            features = struct.unpack(f">{n}d", body[end + 10:])  # a trailing byte fails here
            return Request(body[3:end].decode("utf-8"), arrival, features)
        cls = _FIXED_MESSAGES[msg_type]
        fields = cls.LAYOUT.unpack(body[1:])
        return RejectMsg(RejectReason(*fields)) if cls is RejectMsg else cls(*fields)
    except (struct.error, ValueError) as exc:
        raise ProtocolError(f"malformed {msg_type.name} payload: {exc}") from None


def write_frame(sock: socket.socket, frame: bytes) -> None:
    sock.sendall(frame)


def read_frame(sock: socket.socket) -> bytes:
    """Read one length-prefixed frame from a blocking socket and return its body."""
    return _recv_exactly(sock, _body_length(_recv_exactly(sock, _LENGTH.size), MAX_FRAME_BYTES))


def _body_length(buf: bytes | bytearray, bound: int) -> int:
    """The body length that a frame's prefix, at the start of ``buf``, announces: 1 to ``bound``."""
    (length,) = _LENGTH.unpack_from(buf)
    if length == 0 or length > bound:
        raise ProtocolError(f"frame length {length} out of bounds")
    return length


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    data = bytearray()
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        data += chunk
    return bytes(data)


class ServerQueue:
    """Bounded count of admitted requests; each takes the next 1-based position."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError(f"queue capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self._count = 0
        self._lock = threading.Lock()

    def try_enqueue(self) -> int | None:
        """Admit a request; returns its 1-based position, or None when full."""
        with self._lock:
            if self._count >= self.capacity:
                return None
            self._count += 1
            return self._count

    def __len__(self) -> int:
        return self._count


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


@dataclass(slots=True, eq=False)
class _Connection:
    """One open connection: its session's deadline, the part of its step's one frame read so far, its Session."""

    sock: socket.socket
    due: float
    inbox: bytearray = field(default_factory=bytearray)
    session: Session | None = None


class GateServer:
    """Scores requests, issues puzzles, verifies solutions, queues admissions.

    Models and policy are immutable and shared across sessions; the queue
    is the only synchronized mutable state. Each challenge lives in the
    :class:`Session` that :meth:`handle_request` returns until
    :meth:`handle_solution`, :meth:`abandon` or its deadline gives it its
    one verdict. ``start()`` binds a TCP listener (port 0 picks an
    ephemeral port) and serves every connection from one selector loop on
    one thread, closing each ``expiry_ms`` after its accept, or
    :data:`DEFAULT_IO_TIMEOUT_S` if that comes first: one still waiting for
    its SOLUTION is first sent REJECT ``expired``, and at ``expiry_ms`` 0 no
    connection is answered. Over TCP a challenge's lifetime thus counts from
    the accept, not from its ``issue_ms``. While events come fast, the
    loop polls for up to :data:`POLL_SPIN_S` before it sleeps. Each session
    step reads one frame, no longer than the longest REQUEST the bundle can
    price and then a SOLUTION, and answers it with one write: a connection
    is sent at most CHALLENGE and ACCEPT, 43 bytes, which any send buffer
    holds. The simulator and tests call these methods directly. Seeds come
    from ``seed_rng``, else the OS.
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
        seed_rng: random.Random | None = None,
    ) -> None:
        if bundle.scaler is None:
            raise ConfigError("model bundle has no feature scaler")
        if not 0 <= expiry_ms <= 0xFFFFFFFF:
            raise ConfigError(f"expiry_ms must be in [0, {0xFFFFFFFF}], got {expiry_ms}")
        self.bundle = bundle
        self.policy = policy
        self.registry = ChallengeRegistry()  # never filled; perfbench's ServerProbe.state reads it
        self.queue = ServerQueue(queue_capacity)
        self.expiry_ms = expiry_ms
        self.events: list[GateEvent] = []
        self._clock_ms = clock_ms or (lambda: int(time.time() * 1000))
        self._seed_rng = seed_rng
        self._embedder = bundle.embedder()
        contexts = policy.contexts_enabled & bundle.contexts_enabled
        if not contexts:
            raise ConfigError(f"the policy enables {sorted(policy.contexts_enabled)}, "
                              f"of which the bundle holds none (it holds {sorted(bundle.contexts_enabled)})")
        self._dabr = bundle.dabr if "dabr" in contexts else None
        self._tam = bundle.tam if "tam" in contexts else None
        self._flow = bundle.flow if "flow" in contexts else None
        # the longest REQUEST body the scaler can price: a 0xFFFF-byte id and its flow vector
        self._request_body = _REQUEST_HEAD.size + 0xFFFF + 10 + 8 * bundle.scaler.dimension
        self._host = host
        self._port = port
        self._address: tuple[str, int] | None = None
        self._wake: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._mean_wait_s = 0.0  # moving average of the loop's waits for an event

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
            req.user_id.encode("utf-8"), difficulty, self._clock_ms(), self.expiry_ms, self._seed_rng
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
            position = self.queue.try_enqueue()
            if position is not None:
                event.admitted, event.queue_position = True, position
                return AcceptMsg(queue_position=position)
            reason = RejectReason.OVERLOADED
        event.admitted, event.reason = False, reason.label
        return RejectMsg(reason=reason)

    def abandon(self, session: Session | None) -> None:
        """Settle a session whose SOLUTION never came: a hang-up, a stop, a client that gave up."""
        if session is not None and session.event.admitted is None:
            session.event.admitted, session.event.reason = False, ABANDONED

    # ── TCP plumbing ────────────────────────────────────────────────

    def start(self) -> tuple[str, int]:
        """Bind and serve on a background thread; returns the bound address."""
        listener = socket.create_server((self._host, self._port))
        listener.setblocking(False)
        wake, self._wake = socket.socketpair()
        self._address = listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, args=(listener, wake), name="capow-gate", daemon=True)
        self._thread.start()
        return self.address

    def _serve(self, listener: socket.socket, wake: socket.socket) -> None:
        """Serve every connection from one selector loop until :meth:`stop` writes to ``wake``."""
        # one lifetime for all, so deadlines fall in accept order: the first open connection expires next
        lifetime_s = min(self.expiry_ms / 1000, DEFAULT_IO_TIMEOUT_S)
        self._conns: dict[socket.socket, _Connection] = {}
        with selectors.DefaultSelector() as self._sel, listener, wake:
            self._sel.register(listener, selectors.EVENT_READ)
            self._sel.register(wake, selectors.EVENT_READ)
            try:
                while True:
                    now = time.monotonic()
                    while (first := next(iter(self._conns.values()), None)) is not None and first.due <= now:
                        self._expire(first)
                    for key, _ in self._poll(None if first is None else first.due - now):
                        if key.data is not None:
                            self._step(key.data)
                        elif key.fileobj is wake:
                            return
                        else:
                            try:
                                sock = listener.accept()[0]
                            except OSError as exc:  # e.g. out of descriptors: the peer waits in the backlog
                                logger.debug("accept failed: %s", exc)
                                continue
                            sock.setblocking(False)
                            conn = self._conns[sock] = _Connection(sock, time.monotonic() + lifetime_s)
                            self._sel.register(sock, selectors.EVENT_READ, conn)
            finally:
                for conn in list(self._conns.values()):
                    self._close(conn)

    def _poll(self, timeout: float | None) -> list:
        """The ready keys, waited for up to ``timeout``; see :data:`POLL_SPIN_S` for when it polls first."""
        started = time.monotonic()
        ready = []
        if self._mean_wait_s < POLL_SPIN_S:
            while not (ready := self._sel.select(0)) and time.monotonic() - started < POLL_SPIN_S:
                pass
        ready = ready or self._sel.select(timeout)
        self._mean_wait_s += (time.monotonic() - started - self._mean_wait_s) / 8
        return ready

    def _step(self, conn: _Connection) -> None:
        """Read the connection's input; any failure, or a session that has its answer, closes it."""
        try:
            if self._receive(conn):
                return
        except OSError as exc:
            logger.debug("session I/O error: %s", exc)
        except Exception:
            logger.exception("gate session failed")
        self._close(conn)

    def _frame_end(self, conn: _Connection) -> int:
        """Where the step's frame ends in the input: known once its prefix is in, else the most it may."""
        bound = self._request_body if conn.session is None else _SOLUTION_BODY
        return _LENGTH.size + (_body_length(conn.inbox, bound) if len(conn.inbox) >= _LENGTH.size else bound)

    def _receive(self, conn: _Connection) -> bool:
        """Answer each whole frame: a REQUEST opens the session, the next settles it; False ends it."""
        try:
            chunk = conn.sock.recv(self._frame_end(conn) - len(conn.inbox))
            if not chunk:
                raise ProtocolError("connection closed mid-frame")
            conn.inbox += chunk
            while len(conn.inbox) >= (end := self._frame_end(conn)):
                try:
                    msg = decode_message(bytes(conn.inbox[_LENGTH.size:end]))
                except ProtocolError:
                    msg = None
                del conn.inbox[:end]
                if conn.session is not None:
                    conn.sock.sendall(encode_message(self.handle_solution(conn.session, msg)))
                    return False
                if not isinstance(msg, Request):
                    raise ProtocolError("the first frame is not a REQUEST")
                reply, conn.session = self.handle_request(msg)
                conn.sock.sendall(encode_message(reply))
                if conn.session is None:
                    return False
            return True
        except ProtocolError:  # an open session reads abandoned once the connection closes
            conn.sock.sendall(encode_message(RejectMsg(reason=RejectReason.BAD_REQUEST)))
            return False

    def _expire(self, conn: _Connection) -> None:
        """Close a connection at its deadline; a session it holds is first refused as expired."""
        if conn.session is not None:  # an open connection's session has no verdict yet
            conn.session.event.admitted, conn.session.event.reason = False, RejectReason.EXPIRED.label
            try:  # 6 bytes after the 34-byte CHALLENGE: the send buffer holds them
                conn.sock.sendall(encode_message(RejectMsg(reason=RejectReason.EXPIRED)))
            except OSError as exc:  # the peer is gone; its challenge expired all the same
                logger.debug("expired session I/O error: %s", exc)
        self._close(conn)

    def _close(self, conn: _Connection) -> None:
        del self._conns[conn.sock]
        self._sel.unregister(conn.sock)
        conn.sock.close()
        self.abandon(conn.session)  # no SOLUTION came: a hang-up, a bad length header, a stop

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    def stop(self) -> None:
        """Close the listener and every open connection; each open session reads abandoned."""
        if self._thread is not None:
            self._wake.send(b"\0")
            self._thread.join(timeout=5)
            self._wake.close()
            self._thread = self._wake = self._address = None

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
    verdict. A solver timeout yields reason ``abandoned``; a transport
    failure, or any reply the client cannot use, yields ``transport``.
    """
    started = time.perf_counter()
    admitted, reason, attempts, difficulty, digest_hex = False, None, 0, None, None
    try:
        with socket.create_connection(address, timeout=io_timeout_s) as sock:
            started = time.perf_counter()
            write_frame(sock, encode_message(request))
            reply = decode_message(read_frame(sock))
            if isinstance(reply, ChallengeMsg):
                try:
                    challenge = Challenge(user_id=request.user_id.encode("utf-8"), issue_ms=reply.issue_ms,
                                          seed=reply.seed, difficulty=reply.difficulty,
                                          expiry_ms=reply.expiry_ms)
                except ValueError as exc:  # e.g. a difficulty above pow_core.MAX_DIFFICULTY
                    raise ProtocolError(f"unusable CHALLENGE: {exc}") from None
                difficulty, digest_hex = reply.difficulty, challenge.seed_digest().hex()
                solution = pow_core.solve(challenge, deadline_s=solve_deadline_s)
                attempts = solution.attempts
                write_frame(sock, encode_message(SolutionMsg(solution.seed_digest, solution.nonce)))
                reply = decode_message(read_frame(sock))
                admitted = isinstance(reply, AcceptMsg)
            if isinstance(reply, RejectMsg):
                reason = reply.reason.label
            elif not admitted:
                raise ProtocolError(f"unexpected {type(reply).__name__}")
    except SolveTimeout:
        reason = ABANDONED
    except (OSError, ProtocolError):
        reason = "transport"
    latency_ms = (time.perf_counter() - started) * 1000.0
    return SessionOutcome(request.user_id, admitted, reason, latency_ms, attempts, difficulty, digest_hex)
