from __future__ import annotations

import hashlib
import random
import socket
import struct
import threading
import time

import pytest

from capow import cli, pow_core, protocol
from capow.errors import ConfigError, ProtocolError
from capow.policy_engine import make_policy
from capow.pow_core import solve
from capow.protocol import (
    MAX_FRAME_BYTES,
    AcceptMsg,
    ChallengeMsg,
    GateServer,
    MsgType,
    RejectMsg,
    RejectReason,
    Request,
    ServerQueue,
    SolutionMsg,
    client_session,
    decode_message,
    encode_message,
    read_frame,
)

LEGIT_FLOW = (900.0, 18.0, 16.0, 25000.0, 620.0)
ATTACK_FLOW = (8.0, 120.0, 1.0, 800000.0, 64.0)


def body(frame: bytes) -> bytes:
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    return frame[4:]


def wait_for(predicate, timeout_s: float = 10.0) -> None:
    """Poll ``predicate`` until it holds; fail once ``timeout_s`` has passed."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition not met before the deadline"
        time.sleep(0.005)


def verdict(event) -> tuple:
    return event.admitted, event.reason


def exchange(sock: socket.socket, msg) -> object:
    sock.sendall(encode_message(msg))
    return decode_message(read_frame(sock))


# ── Message codec ────────────────────────────────────────────────────


def test_request_round_trip():
    msg = Request(user_id="10.0.0.1", arrival_min=130.5, flow_features=(1.0, 2.5))
    assert decode_message(body(encode_message(msg))) == msg


def test_challenge_round_trip_and_layout():
    msg = ChallengeMsg(difficulty=18, issue_ms=1_700_000_000_123, seed=bytes(range(16)), expiry_ms=30000)
    frame = encode_message(msg)
    assert decode_message(body(frame)) == msg
    # payload layout is fixed: type, d:u8, t:u64be, seed:16B, expiry:u32be
    payload = body(frame)
    assert payload[0] == MsgType.CHALLENGE
    assert payload[1] == 18
    assert payload[2:10] == (1_700_000_000_123).to_bytes(8, "big")
    assert payload[10:26] == bytes(range(16))
    assert payload[26:30] == (30000).to_bytes(4, "big")
    assert len(payload) == 30


def test_solution_accept_reject_round_trips():
    sol = SolutionMsg(seed_digest=bytes(range(32)), nonce=2**40)
    assert decode_message(body(encode_message(sol))) == sol
    acc = AcceptMsg(queue_position=7)
    assert decode_message(body(encode_message(acc))) == acc
    for reason in RejectReason:
        rej = RejectMsg(reason=reason)
        assert decode_message(body(encode_message(rej))) == rej


# One frame per message type, recorded from the codec before its layouts were tabled.
GOLDEN_FRAMES = [
    (Request("10.0.0.1·é", 130.5, (1.5, -2.25)),
     "0000002901000c31302e302e302e31c2b7c3a9406050000000000000023ff8000000000000c002000000000000"),
    (ChallengeMsg(difficulty=18, issue_ms=1_700_000_000_123, seed=bytes(range(16)), expiry_ms=30000),
     "0000001e02120000018bcfe5687b000102030405060708090a0b0c0d0e0f00007530"),
    (SolutionMsg(seed_digest=bytes(range(32)), nonce=2**40 + 7),
     "0000002903000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f0000010000000007"),
    (AcceptMsg(queue_position=7), "000000050400000007"),
    *((RejectMsg(reason), f"0000000205{reason:02x}") for reason in RejectReason),
]


@pytest.mark.parametrize("msg,frame_hex", GOLDEN_FRAMES)
def test_golden_frames(msg, frame_hex):
    # a round trip cannot see a layout that changed in encode and decode at once
    assert encode_message(msg).hex() == frame_hex
    assert decode_message(bytes.fromhex(frame_hex)[4:]) == msg


def test_decode_rejects_malformed_frames():
    with pytest.raises(ProtocolError):
        decode_message(b"")
    with pytest.raises(ProtocolError):
        decode_message(bytes([99]) + b"x")  # unknown type
    with pytest.raises(ProtocolError):
        decode_message(bytes([MsgType.SOLUTION]) + b"\x00" * 10)  # truncated
    with pytest.raises(ProtocolError):
        decode_message(bytes([MsgType.REJECT, 200]))  # unknown reason code
    good = body(encode_message(Request("u", 1.0, (2.0,))))
    with pytest.raises(ProtocolError):
        decode_message(good + b"\x00")  # trailing bytes


def test_encode_validates_fields():
    with pytest.raises(ProtocolError):
        encode_message(ChallengeMsg(difficulty=300, issue_ms=0, seed=bytes(16), expiry_ms=1))
    with pytest.raises(ProtocolError):
        encode_message(ChallengeMsg(difficulty=1, issue_ms=0, seed=b"short", expiry_ms=1))
    with pytest.raises(ProtocolError):
        encode_message(SolutionMsg(seed_digest=b"short", nonce=0))


def test_codec_fuzz_round_trip():
    rng = random.Random(13)
    for _ in range(500):
        kind = rng.randrange(5)
        if kind == 0:
            msg = Request(
                user_id="".join(rng.choice("abc.019") for _ in range(rng.randint(0, 40))),
                arrival_min=rng.uniform(0, 1439.99),
                flow_features=tuple(rng.uniform(-1e9, 1e9) for _ in range(rng.randint(0, 12))),
            )
        elif kind == 1:
            msg = ChallengeMsg(
                difficulty=rng.randint(0, 64),
                issue_ms=rng.randint(0, 2**63 - 1),
                seed=rng.randbytes(16),
                expiry_ms=rng.randint(0, 2**32 - 1),
            )
        elif kind == 2:
            msg = SolutionMsg(seed_digest=rng.randbytes(32), nonce=rng.randint(0, 2**64 - 1))
        elif kind == 3:
            msg = AcceptMsg(queue_position=rng.randint(0, 2**32 - 1))
        else:
            msg = RejectMsg(reason=rng.choice(list(RejectReason)))
        assert decode_message(body(encode_message(msg))) == msg


def test_decode_maps_bad_utf8_to_protocol_error():
    frame = encode_message(Request(user_id="ab", arrival_min=1.0, flow_features=(1.0,)))
    bad = bytearray(body(frame))
    bad[3:5] = b"\xff\xfe"
    with pytest.raises(ProtocolError):
        decode_message(bytes(bad))


def test_codec_fuzz_bytes_decode_or_protocol_error():
    rng = random.Random(29)
    valid = [
        body(encode_message(msg))
        for msg in (
            Request(user_id="10.0.0.1", arrival_min=500.0, flow_features=LEGIT_FLOW),
            Request(user_id="", arrival_min=0.0, flow_features=()),
            ChallengeMsg(difficulty=7, issue_ms=123, seed=bytes(16), expiry_ms=30000),
            SolutionMsg(seed_digest=bytes(32), nonce=99),
            AcceptMsg(queue_position=4),
            RejectMsg(reason=RejectReason.REPLAY),
        )
    ]
    cases = []
    for _ in range(2000):
        cases.append(rng.randbytes(rng.randint(0, 64)))
        frame = rng.choice(valid)
        cases.append(frame[: rng.randrange(len(frame))])
        flipped = bytearray(frame)
        for _ in range(rng.randint(1, 3)):
            flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        cases.append(bytes(flipped))
    for case in cases:
        try:
            decoded = decode_message(case)
        except ProtocolError:
            continue
        assert isinstance(decoded, (Request, ChallengeMsg, SolutionMsg, AcceptMsg, RejectMsg))


# ── Queue ────────────────────────────────────────────────────────────


def test_server_queue_positions_and_capacity():
    q = ServerQueue(capacity=2)
    assert q.try_enqueue() == 1
    assert q.try_enqueue() == 2
    assert q.try_enqueue() is None
    assert len(q) == 2
    with pytest.raises(ConfigError):
        ServerQueue(capacity=0)


def test_server_queue_gives_each_position_once_across_threads():
    q = ServerQueue(capacity=250)
    batches = []

    def admit():
        batches.append([q.try_enqueue() for _ in range(100)])

    workers = [threading.Thread(target=admit) for _ in range(4)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    results = [p for batch in batches for p in batch]
    assert sorted(p for p in results if p is not None) == list(range(1, 251))
    assert results.count(None) == 150
    assert len(q) == 250


# ── Gate handlers (driven directly) ──────────────────────────────────


@pytest.fixture()
def gate(trained):
    return GateServer(trained, make_policy("linear_shifted"))


def test_handle_request_issues_challenge_and_logs_scores(gate):
    req = Request("10.0.0.1", 500.0, LEGIT_FLOW)
    reply, session = gate.handle_request(req)
    assert isinstance(reply, ChallengeMsg)
    assert session.event is gate.events[-1]
    assert session.challenge.seed == reply.seed
    assert 10 <= reply.difficulty <= 20
    event = gate.events[-1]
    assert event.user_id == "10.0.0.1"
    assert 0 <= event.score.phi <= 10
    assert event.score.deciding_model in {"dabr", "tam", "flow"}
    assert event.score == gate.price(req)[0]
    assert event.difficulty == reply.difficulty
    assert event.admitted is None  # verdict pending


def test_unknown_flooder_scores_higher_than_trained_user(gate):
    legit, _ = gate.handle_request(Request("10.0.0.1", 500.0, LEGIT_FLOW))
    flood, _ = gate.handle_request(Request("198.51.100.77", 500.0, ATTACK_FLOW))
    assert flood.difficulty > legit.difficulty
    assert flood.difficulty == 20  # unknown user saturates the temporal score


def test_handle_request_rejects_bad_vectors(gate):
    refused = (RejectMsg(reason=RejectReason.BAD_REQUEST), None)
    assert gate.handle_request(Request("u", 2000.0, LEGIT_FLOW)) == refused
    assert gate.handle_request(Request("u", 10.0, (1.0,))) == refused
    nan_flow = (float("nan"),) + LEGIT_FLOW[1:]
    assert gate.handle_request(Request("u", 10.0, nan_flow)) == refused
    assert gate.handle_request(Request("u", float("nan"), LEGIT_FLOW)) == refused
    inf_flow = LEGIT_FLOW[:-1] + (float("inf"),)
    assert gate.handle_request(Request("u", 10.0, inf_flow)) == refused
    assert gate.events[-1].admitted is False


def test_full_admission_cycle_and_replay(gate):
    challenge, session = gate.handle_request(Request("10.0.0.1", 500.0, LEGIT_FLOW))
    solution = solve_challenge_msg(challenge, "10.0.0.1")
    accepted = gate.handle_solution(session, solution)
    assert isinstance(accepted, AcceptMsg)
    assert accepted.queue_position == 1
    event = next(e for e in gate.events if e.seed_digest == solution.seed_digest.hex())
    assert event is session.event
    assert event.admitted is True
    assert event.queue_position == 1
    # a settled session cannot be answered again, and the replay leaves the record alone
    replay = gate.handle_solution(session, solution)
    assert replay.reason is RejectReason.REPLAY
    assert (event.admitted, event.reason, event.queue_position) == (True, None, 1)
    # so does any later message, and it adds no record
    recorded = len(gate.events)
    unknown = SolutionMsg(seed_digest=random.Random(7).randbytes(32), nonce=0)
    assert gate.handle_solution(session, unknown) == RejectMsg(reason=RejectReason.REPLAY)
    assert len(gate.events) == recorded
    assert len(gate.queue) == 1


def test_wrong_solution_then_correct(gate):
    challenge, session = gate.handle_request(Request("10.0.0.1", 500.0, LEGIT_FLOW))
    good = solve_challenge_msg(challenge, "10.0.0.1")
    bad = SolutionMsg(seed_digest=good.seed_digest, nonce=good.nonce + 1 + 2**50)
    assert gate.handle_solution(session, bad).reason is RejectReason.WRONG_SOLUTION
    # a wrong nonce is the session's one verdict: the right one comes too late
    assert gate.handle_solution(session, good).reason is RejectReason.REPLAY
    assert verdict(session.event) == (False, "wrong-solution")


def test_handle_solution_answers_only_the_sessions_own_challenge(gate):
    challenge, session = gate.handle_request(Request("10.0.0.1", 500.0, LEGIT_FLOW))
    solution = solve_challenge_msg(challenge, "10.0.0.1")
    # another session's solution, a message that is no SOLUTION, a frame that did not decode
    for msg in (solution, challenge, None):
        _, other = gate.handle_request(Request("10.0.0.2", 600.0, LEGIT_FLOW))
        assert gate.handle_solution(other, msg) == RejectMsg(reason=RejectReason.BAD_REQUEST)
        assert verdict(other.event) == (False, "bad-request")
    assert session.event.admitted is None
    assert gate.handle_solution(session, solution) == AcceptMsg(queue_position=1)


def test_abandon_settles_only_a_pending_session(gate):
    gate.abandon(None)  # a REQUEST that drew a REJECT has no session
    challenge, admitted = gate.handle_request(Request("10.0.0.1", 500.0, LEGIT_FLOW))
    assert gate.handle_solution(admitted, solve_challenge_msg(challenge, "10.0.0.1")) == AcceptMsg(queue_position=1)
    gate.abandon(admitted)
    assert (admitted.event.admitted, admitted.event.reason, admitted.event.queue_position) == (True, None, 1)
    _, pending = gate.handle_request(Request("10.0.0.2", 600.0, LEGIT_FLOW))
    gate.abandon(pending)
    assert verdict(pending.event) == (False, "abandoned")
    assert gate.handle_solution(pending, None).reason is RejectReason.REPLAY
    assert verdict(pending.event) == (False, "abandoned")


def test_seeds_come_from_the_os_unless_the_gate_is_given_a_source(trained):
    req = Request("10.0.0.1", 500.0, LEGIT_FLOW)
    # built as `capow serve` builds it: no seed source
    served = GateServer(trained, make_policy("linear"), host="127.0.0.1", port=0,
                        queue_capacity=8, expiry_ms=30_000)
    assert served.handle_request(req)[0].seed != served.handle_request(req)[0].seed
    seeded = [GateServer(trained, make_policy("linear"), clock_ms=lambda: 0, seed_rng=random.Random(3))
              for _ in range(2)]
    assert seeded[0].handle_request(req)[0] == seeded[1].handle_request(req)[0]


def test_expired_challenge_rejected(trained):
    clock = {"now": 1000}
    gate = GateServer(trained, make_policy("linear"), expiry_ms=50,
                      clock_ms=lambda: clock["now"])
    challenge, session = gate.handle_request(Request("10.0.0.1", 500.0, LEGIT_FLOW))
    solution = solve_challenge_msg(challenge, "10.0.0.1")
    clock["now"] = 2000
    assert gate.handle_solution(session, solution).reason is RejectReason.EXPIRED
    assert verdict(session.event) == (False, "expired")


def test_queue_overflow_rejects_overloaded(trained):
    gate = GateServer(trained, make_policy("linear"), queue_capacity=1)
    first, session = gate.handle_request(Request("10.0.0.1", 500.0, LEGIT_FLOW))
    assert isinstance(gate.handle_solution(session, solve_challenge_msg(first, "10.0.0.1")), AcceptMsg)
    second, session = gate.handle_request(Request("10.0.0.1", 501.0, LEGIT_FLOW))
    refused = gate.handle_solution(session, solve_challenge_msg(second, "10.0.0.1"))
    assert refused.reason is RejectReason.OVERLOADED
    assert verdict(session.event) == (False, "overloaded")


@pytest.mark.parametrize("bad, message", [
    ({"expiry_ms": -1}, r"expiry_ms must be in \[0, 4294967295\], got -1"),
    ({"expiry_ms": 2**32}, r"expiry_ms must be in \[0, 4294967295\], got 4294967296"),
    ({"queue_capacity": 0}, "queue capacity must be at least 1, got 0"),
    ({"queue_capacity": -1}, "queue capacity must be at least 1, got -1"),
], ids=["negative-expiry", "expiry-over-u32", "no-queue", "negative-queue"])
def test_gate_refuses_config_it_cannot_serve(trained, bad, message):
    with pytest.raises(ConfigError, match=message):
        GateServer(trained, make_policy("linear"), **bad)
    GateServer(trained, make_policy("linear"), expiry_ms=2**32 - 1, queue_capacity=1)


def test_policy_context_selection_masks_models(trained):
    gate = GateServer(trained, make_policy("linear", contexts_enabled=frozenset({"flow"})))
    score = gate.score_request(Request("203.0.113.99", 500.0, ATTACK_FLOW))
    assert score.alpha == 0.0
    assert score.beta == 0.0
    assert score.gamma > 5.0


def solve_challenge_msg(msg: ChallengeMsg, user_id: str) -> SolutionMsg:
    from capow.pow_core import Challenge

    challenge = Challenge(
        user_id=user_id.encode(),
        issue_ms=msg.issue_ms,
        seed=msg.seed,
        difficulty=msg.difficulty,
        expiry_ms=msg.expiry_ms,
    )
    solution = solve(challenge)
    return SolutionMsg(seed_digest=solution.seed_digest, nonce=solution.nonce)


# ── Live loopback sessions ───────────────────────────────────────────


def test_client_session_round_trip(trained):
    with GateServer(trained, make_policy("linear")) as gate:
        outcome = client_session(
            Request("10.0.0.1", 500.0, LEGIT_FLOW), gate.address, solve_deadline_s=30
        )
    assert outcome.admitted
    assert outcome.reason is None
    assert outcome.difficulty is not None
    assert outcome.attempts >= 1
    assert outcome.latency_ms > 0
    assert outcome.seed_digest is not None


def test_client_session_bad_request_outcome(trained):
    with GateServer(trained, make_policy("linear")) as gate:
        outcome = client_session(Request("u", 9999.0, LEGIT_FLOW), gate.address)
    assert not outcome.admitted
    assert outcome.reason == "bad-request"


def test_client_session_abandons_on_hard_puzzle(trained):
    policy = make_policy("linear_shifted", difficulty_lo=40, difficulty_hi=60)
    with GateServer(trained, policy) as gate:
        outcome = client_session(
            Request("198.51.100.1", 100.0, ATTACK_FLOW), gate.address, solve_deadline_s=0.05
        )
        assert not outcome.admitted
        assert outcome.reason == "abandoned"
        assert outcome.difficulty >= 40
        # the server's record of the hang-up reads the same
        wait_for(lambda: gate.events[-1].admitted is not None)
        assert verdict(gate.events[-1]) == (False, "abandoned")


def test_client_session_transport_failure():
    outcome = client_session(Request("u", 1.0, (1.0,)), ("127.0.0.1", 9), io_timeout_s=0.3)
    assert not outcome.admitted
    assert outcome.reason == "transport"


def one_shot_gate(replies: list[bytes]) -> tuple[str, int]:
    """A listener for one connection: it reads a frame before it sends each of ``replies``, then closes."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        with listener, listener.accept()[0] as conn:
            conn.settimeout(10)
            for reply in replies:
                read_frame(conn)
                conn.sendall(reply)

    threading.Thread(target=serve, daemon=True).start()
    return listener.getsockname()


def challenge_frame(difficulty: int) -> bytes:
    return encode_message(ChallengeMsg(difficulty=difficulty, issue_ms=1, seed=bytes(16), expiry_ms=30000))


@pytest.mark.parametrize("replies", [
    [challenge_frame(200)],  # a difficulty no Challenge can hold
    [encode_message(AcceptMsg(queue_position=1))],  # a verdict before any puzzle
    [challenge_frame(0), challenge_frame(0)],  # a second puzzle where the verdict belongs
    [challenge_frame(0)[:9]],  # a torn frame
], ids=["difficulty-200", "accept-first", "challenge-second", "torn-frame"])
def test_a_reply_the_client_cannot_use_reads_transport(replies, capsys):
    request = Request("10.0.0.1", 500.0, (1.0,))
    outcome = client_session(request, one_shot_gate(replies), io_timeout_s=10)
    assert (outcome.admitted, outcome.reason) == (False, "transport")

    host, port = one_shot_gate(replies)
    code = cli.main(["solve", "--host", host, "--port", str(port), "--user", "10.0.0.1",
                     "--arrival", "500", "--features", "1"])
    assert code == cli.EXIT_RUNTIME
    assert "no usable reply from the gate" in capsys.readouterr().err


def test_concurrent_sessions(trained):
    import threading

    with GateServer(trained, make_policy("linear")) as gate:
        results = []
        lock = threading.Lock()

        def one(i):
            outcome = client_session(
                Request("10.0.0.1", 490.0 + i, LEGIT_FLOW), gate.address, solve_deadline_s=30
            )
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        assert all(r.admitted for r in results)
        positions = sorted(e.queue_position for e in gate.events if e.queue_position)
        assert positions == list(range(1, 9))


def test_solution_must_name_its_own_sessions_challenge(trained):
    with GateServer(trained, make_policy("linear")) as gate:
        # session A is admitted at position 1
        with socket.create_connection(gate.address, timeout=10) as a:
            challenge_a = exchange(a, Request("10.0.0.1", 500.0, LEGIT_FLOW))
            solution_a = solve_challenge_msg(challenge_a, "10.0.0.1")
            assert exchange(a, solution_a) == AcceptMsg(queue_position=1)
        # session B gets its own challenge, then sends A's solution
        with socket.create_connection(gate.address, timeout=10) as b:
            challenge_b = exchange(b, Request("10.0.0.2", 600.0, LEGIT_FLOW))
            assert isinstance(challenge_b, ChallengeMsg)
            assert exchange(b, solution_a) == RejectMsg(reason=RejectReason.BAD_REQUEST)
        record_a = next(e for e in gate.events if e.seed_digest == solution_a.seed_digest.hex())
        assert (record_a.admitted, record_a.reason, record_a.queue_position) == (True, None, 1)
        digest_b = hashlib.sha256(challenge_b.seed).hexdigest()
        record_b = next(e for e in gate.events if e.seed_digest == digest_b)
        assert (record_b.admitted, record_b.reason) == (False, "bad-request")
        assert len(gate.queue) == 1


def test_undecodable_second_frame_gets_a_bad_request_verdict(trained):
    with GateServer(trained, make_policy("linear")) as gate:
        with socket.create_connection(gate.address, timeout=10) as sock:
            assert isinstance(exchange(sock, Request("10.0.0.1", 500.0, LEGIT_FLOW)), ChallengeMsg)
            sock.sendall(bytes.fromhex("000000020300"))  # a SOLUTION with a 1-byte body
            assert decode_message(read_frame(sock)) == RejectMsg(reason=RejectReason.BAD_REQUEST)
        wait_for(lambda: gate.events[-1].admitted is not None)
        assert verdict(gate.events[-1]) == (False, "bad-request")


def test_silent_peer_is_sent_expired_at_the_challenge_expiry(trained):
    with GateServer(trained, make_policy("linear"), expiry_ms=300) as gate:
        with socket.create_connection(gate.address, timeout=10) as sock:
            started = time.monotonic()
            assert isinstance(exchange(sock, Request("10.0.0.1", 500.0, LEGIT_FLOW)), ChallengeMsg)
            assert decode_message(read_frame(sock)) == RejectMsg(reason=RejectReason.EXPIRED)
            assert 0.3 <= time.monotonic() - started < SESSION_BOUND_S
            assert sock.recv(1) == b""
        assert verdict(gate.events[-1]) == (False, "expired")


def test_a_long_expiry_still_closes_a_silent_peer_at_the_cap(trained, monkeypatch):
    monkeypatch.setattr(protocol, "DEFAULT_IO_TIMEOUT_S", 0.3)
    with GateServer(trained, make_policy("linear"), expiry_ms=2**32 - 1) as gate:
        with socket.create_connection(gate.address, timeout=10) as sock:
            started = time.monotonic()
            assert sock.recv(1) == b""  # no REQUEST, no reply
            assert 0.3 <= time.monotonic() - started < SESSION_BOUND_S
        assert gate.events == []


def test_a_solve_that_outlasts_the_expiry_reads_expired(trained, monkeypatch):
    real_solve = pow_core.solve

    def slow_solve(*args, **kwargs):
        time.sleep(0.5)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(pow_core, "solve", slow_solve)
    with GateServer(trained, make_policy("linear"), expiry_ms=300) as gate:
        outcome = client_session(Request("10.0.0.1", 500.0, LEGIT_FLOW), gate.address)
        assert (outcome.admitted, outcome.reason) == (False, "expired")
        assert verdict(gate.events[-1]) == (False, "expired")


def test_capow_solve_prints_a_rejection_for_a_solve_that_outlasts_the_expiry(trained, monkeypatch, capsys):
    real_solve = pow_core.solve

    def slow_solve(*args, **kwargs):
        time.sleep(0.5)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(pow_core, "solve", slow_solve)
    with GateServer(trained, make_policy("linear"), expiry_ms=300) as gate:
        host, port = gate.address
        code = cli.main(["solve", "--host", host, "--port", str(port), "--user", "10.0.0.1",
                         "--arrival", "500", "--features", ",".join(map(str, LEGIT_FLOW))])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("rejected (expired): ")


def test_silent_peers_are_expired_in_accept_order(trained):
    with GateServer(trained, make_policy("linear"), expiry_ms=300) as gate:
        socks, accepted = [], []
        try:
            for i in range(3):
                socks.append(socket.create_connection(gate.address, timeout=10))
                accepted.append(time.monotonic())
                reply = exchange(socks[-1], Request(f"10.0.0.{i + 1}", 500.0, LEGIT_FLOW))
                assert isinstance(reply, ChallengeMsg)
                time.sleep(0.1)
            for sock, started in zip(socks, accepted):
                assert decode_message(read_frame(sock)) == RejectMsg(reason=RejectReason.EXPIRED)
                assert 0.3 <= time.monotonic() - started < SESSION_BOUND_S
                assert sock.recv(1) == b""
        finally:
            for sock in socks:
                sock.close()
        assert [e.user_id for e in gate.events] == ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
        assert {verdict(e) for e in gate.events} == {(False, "expired")}


def test_at_expiry_zero_the_gate_answers_no_connection(trained):
    with GateServer(trained, make_policy("linear"), expiry_ms=0) as gate:
        with socket.create_connection(gate.address, timeout=10) as sock:
            assert sock.recv(1) == b""
        outcome = client_session(Request("10.0.0.1", 500.0, LEGIT_FLOW), gate.address, io_timeout_s=10)
        assert (outcome.admitted, outcome.reason) == (False, "transport")
        assert gate.events == []


def test_hang_ups_leave_only_abandoned_records(trained):
    def hang_up(n: int) -> None:
        # each session reads its CHALLENGE, then closes the connection
        for i in range(n):
            with socket.create_connection(gate.address, timeout=10) as sock:
                reply = exchange(sock, Request(f"198.51.100.{i % 250}", 500.0, ATTACK_FLOW))
                assert isinstance(reply, ChallengeMsg)

    with GateServer(trained, make_policy("linear")) as gate:
        workers = [threading.Thread(target=hang_up, args=(250,)) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
            assert not w.is_alive()
        wait_for(lambda: len(gate.events) == 500 and all(e.admitted is not None for e in gate.events))
        assert {verdict(e) for e in gate.events} == {(False, "abandoned")}
        assert gate.registry.outstanding == 0
        assert len(gate.queue) == 0


def test_second_frame_fuzz_every_record_gets_a_verdict(trained):
    rng = random.Random(41)
    with GateServer(trained, make_policy("linear")) as gate:
        for i in range(200):
            with socket.create_connection(gate.address, timeout=10) as sock:
                challenge = exchange(sock, Request("10.0.0.1", 500.0 + i % 100, LEGIT_FLOW))
                assert isinstance(challenge, ChallengeMsg)
                digest = hashlib.sha256(challenge.seed).digest()
                frame = encode_message(SolutionMsg(seed_digest=digest, nonce=rng.getrandbits(64)))
                kind = rng.randrange(4)
                if kind == 0:
                    sock.sendall(rng.randbytes(rng.randint(1, 48)))
                elif kind == 1:
                    sock.sendall(frame[: rng.randrange(len(frame))])
                elif kind == 2:
                    flipped = bytearray(frame)
                    flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
                    sock.sendall(bytes(flipped))
                # kind 3 hangs up; every session stops sending, so the gate sees the end of its frame
                try:
                    sock.shutdown(socket.SHUT_WR)
                    read_frame(sock)
                except (ProtocolError, OSError):
                    pass  # the gate may already have answered and closed
        wait_for(lambda: len(gate.events) == 200 and all(e.admitted is not None for e in gate.events))
        reasons = {e.reason for e in gate.events}
        assert reasons <= {None, "bad-request", "wrong-solution", "abandoned"}
        assert {"bad-request", "wrong-solution", "abandoned"} <= reasons


def trickle_until_closed(sock: socket.socket, parts, gap_s: float = 0.27) -> float:
    """Send ``parts`` ``gap_s`` apart; return the seconds until the gate sent its REJECT or closed."""
    sock.settimeout(gap_s)
    started = time.monotonic()
    for part in parts:
        try:
            sock.sendall(part)
            sock.recv(1)  # b"" at a close, else the first byte of the REJECT sent before it
            return time.monotonic() - started
        except socket.timeout:
            continue
        except OSError:
            return time.monotonic() - started
    raise AssertionError("the gate read the whole trickled frame")


def trickles(frame: bytes) -> list[list[bytes]]:
    """Two pacings of a frame: four pieces, the first of them half the length prefix; and byte by byte."""
    third = -(-(len(frame) - 2) // 3)
    return [[frame[:2], *(frame[at:at + third] for at in range(2, len(frame), third))],
            [frame[at:at + 1] for at in range(len(frame))]]


# parts come 0.9 expiries apart, so no single recv waits out the expiry; however they
# are paced, a session must end one expiry (0.3 s) after its accept, well within
# twice that plus scheduling slack
SESSION_BOUND_S = 0.6 + 0.25


def test_trickled_request_is_cut_off_unanswered_at_the_expiry(trained):
    frame = encode_message(Request("10.0.0.1", 500.0, LEGIT_FLOW))
    with GateServer(trained, make_policy("linear"), expiry_ms=300) as gate:
        for parts in trickles(frame):
            with socket.create_connection(gate.address, timeout=10) as sock:
                assert trickle_until_closed(sock, parts) < SESSION_BOUND_S
                assert sock.recv(1) == b""
        assert gate.events == []


def test_trickled_solution_is_expired_at_the_expiry(trained):
    with GateServer(trained, make_policy("linear"), expiry_ms=300) as gate:
        for pacing in range(2):
            with socket.create_connection(gate.address, timeout=10) as sock:
                challenge = exchange(sock, Request("10.0.0.1", 500.0, LEGIT_FLOW))
                parts = trickles(encode_message(solve_challenge_msg(challenge, "10.0.0.1")))[pacing]
                assert trickle_until_closed(sock, parts) < SESSION_BOUND_S
            wait_for(lambda: gate.events[-1].admitted is not None)
            assert verdict(gate.events[-1]) == (False, "expired")


def test_a_paced_session_ends_at_the_expiry(trained):
    # each frame goes as its first two bytes, then the rest, every part 0.27 s after the
    # last: each part comes within the expiry, yet the session must not outlast it
    replies = []
    with GateServer(trained, make_policy("linear"), expiry_ms=300) as gate:
        with socket.create_connection(gate.address, timeout=10) as sock:
            started = time.monotonic()
            frame = encode_message(Request("10.0.0.1", 500.0, LEGIT_FLOW))
            while frame is not None:
                for part in (frame[:2], frame[2:]):
                    time.sleep(0.27)
                    sock.sendall(part)
                try:
                    reply = decode_message(read_frame(sock))
                except (ProtocolError, OSError):
                    break
                replies.append(reply)
                frame = None
                if isinstance(reply, ChallengeMsg):
                    frame = encode_message(solve_challenge_msg(reply, "10.0.0.1"))
            closed_after = time.monotonic() - started
        assert replies == []
        assert closed_after < SESSION_BOUND_S
        assert gate.events == []


# ── One serving loop ─────────────────────────────────────────────────


def test_sequential_sessions_start_no_thread(trained, monkeypatch):
    started = []
    thread_start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        thread_start(thread)

    with GateServer(trained, make_policy("linear")) as gate:
        monkeypatch.setattr(threading.Thread, "start", counted)
        outcomes = [client_session(Request("10.0.0.1", 490.0 + i % 40, LEGIT_FLOW), gate.address)
                    for i in range(300)]
    assert all(o.admitted for o in outcomes)
    assert started == []


def test_idle_connections_hold_no_thread(trained):
    with GateServer(trained, make_policy("linear")) as gate:
        before = threading.active_count()
        idle = [socket.create_connection(gate.address, timeout=10) for _ in range(200)]
        try:
            # the listener accepts in arrival order, so this session is served after all 200 accepts
            assert client_session(Request("10.0.0.1", 500.0, LEGIT_FLOW), gate.address).admitted
            assert threading.active_count() == before
        finally:
            for sock in idle:
                sock.close()


def test_request_sent_a_byte_at_a_time_is_served(trained):
    with GateServer(trained, make_policy("linear")) as gate:
        with socket.create_connection(gate.address, timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in encode_message(Request("10.0.0.1", 500.0, LEGIT_FLOW)):
                sock.sendall(bytes([byte]))
                time.sleep(0.002)
            challenge = decode_message(read_frame(sock))
            assert exchange(sock, solve_challenge_msg(challenge, "10.0.0.1")) == AcceptMsg(queue_position=1)


def test_every_reply_of_a_session_fits_the_smallest_send_buffer():
    # the gate answers each frame with one sendall on a non-blocking socket; that cannot
    # block while all it ever writes to a connection fits the least buffer the kernel allows
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)
        smallest = sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
    most = len(challenge_frame(pow_core.MAX_DIFFICULTY)) + len(encode_message(AcceptMsg(queue_position=1)))
    assert most == 43 < smallest


def request_bound(bundle) -> int:
    """The longest REQUEST body the bundle can price: a 0xFFFF-byte id and its flow vector."""
    return 3 + 0xFFFF + 10 + 8 * bundle.scaler.dimension


def test_the_longest_request_the_bundle_can_price_is_challenged(trained):
    longest = Request("a" * 0xFFFF, 500.0, LEGIT_FLOW)
    assert len(body(encode_message(longest))) == request_bound(trained)
    with GateServer(trained, make_policy("linear")) as gate:
        with socket.create_connection(gate.address, timeout=10) as sock:
            assert isinstance(exchange(sock, longest), ChallengeMsg)


@pytest.mark.parametrize("announce", [lambda bound: bound + 1, lambda bound: MAX_FRAME_BYTES],
                         ids=["bound+1", "1MiB"])
def test_a_request_prefix_over_its_bound_is_refused_before_its_body(trained, announce):
    with GateServer(trained, make_policy("linear")) as gate:
        with socket.create_connection(gate.address, timeout=10) as sock:
            sock.sendall(struct.pack(">I", announce(request_bound(trained))))
            assert decode_message(read_frame(sock)) == RejectMsg(reason=RejectReason.BAD_REQUEST)
        assert gate.events == []


def test_a_second_frame_prefix_over_a_solution_is_refused_before_its_body(trained):
    solution_body = len(body(encode_message(SolutionMsg(seed_digest=bytes(32), nonce=0))))
    with GateServer(trained, make_policy("linear")) as gate:
        with socket.create_connection(gate.address, timeout=10) as sock:
            assert isinstance(exchange(sock, Request("10.0.0.1", 500.0, LEGIT_FLOW)), ChallengeMsg)
            sock.sendall(struct.pack(">I", solution_body + 1))
            assert decode_message(read_frame(sock)) == RejectMsg(reason=RejectReason.BAD_REQUEST)
        wait_for(lambda: gate.events[-1].admitted is not None)
        assert verdict(gate.events[-1]) == (False, "abandoned")


@pytest.mark.parametrize("junk, record", [
    (bytes.fromhex("000000020300"), "bad-request"),  # a SOLUTION with a 1-byte body
    (bytes(4), "abandoned"),  # a zero length prefix
    (b"\x00\x00", "abandoned"),  # half a length prefix, then the peer stops sending
])
def test_junk_after_a_request_in_one_send_gets_a_challenge_then_a_verdict(trained, junk, record):
    with GateServer(trained, make_policy("linear")) as gate:
        with socket.create_connection(gate.address, timeout=10) as sock:
            sock.sendall(encode_message(Request("10.0.0.1", 500.0, LEGIT_FLOW)) + junk)
            assert isinstance(decode_message(read_frame(sock)), ChallengeMsg)
            sock.shutdown(socket.SHUT_WR)
            assert decode_message(read_frame(sock)) == RejectMsg(reason=RejectReason.BAD_REQUEST)
        wait_for(lambda: gate.events[-1].admitted is not None)
        assert verdict(gate.events[-1]) == (False, record)


def test_a_session_that_raises_does_not_stop_the_next(trained, monkeypatch, gate_handler_errors_fail):
    handle_request = GateServer.handle_request
    calls = []

    def fails_once(gate, req):
        calls.append(req)
        if len(calls) == 1:
            raise RuntimeError("scoring blew up")
        return handle_request(gate, req)

    monkeypatch.setattr(GateServer, "handle_request", fails_once)
    with GateServer(trained, make_policy("linear")) as gate:
        first = client_session(Request("10.0.0.1", 500.0, LEGIT_FLOW), gate.address)
        second = client_session(Request("10.0.0.1", 500.0, LEGIT_FLOW), gate.address)
    assert (first.admitted, first.reason) == (False, "transport")
    assert second.admitted
    assert len(gate_handler_errors_fail) == 1 and "scoring blew up" in gate_handler_errors_fail[0]
    gate_handler_errors_fail.clear()


def test_an_idle_gate_sleeps_after_one_poll(trained, monkeypatch):
    # in-process sessions leave waits far under 50 ms, so the loop polls after the last
    # event; it must then sleep, not spend the rest of the idle half second polling
    monkeypatch.setattr(protocol, "POLL_SPIN_S", 0.05)
    with GateServer(trained, make_policy("linear")) as gate:
        assert client_session(Request("10.0.0.1", 500.0, LEGIT_FLOW), gate.address).admitted
        cpu = time.process_time()
        time.sleep(0.5)
        assert time.process_time() - cpu < 0.2


def test_stop_settles_an_open_session_promptly(trained):
    gate = GateServer(trained, make_policy("linear"))
    gate.start()
    with socket.create_connection(gate.address, timeout=10) as sock:
        assert isinstance(exchange(sock, Request("10.0.0.1", 500.0, LEGIT_FLOW)), ChallengeMsg)
        started = time.monotonic()
        gate.stop()
        assert time.monotonic() - started < 1.0
        assert verdict(gate.events[-1]) == (False, "abandoned")
        assert sock.recv(1) == b""


def test_a_session_ends_one_expiry_after_its_accept(trained):
    # the SOLUTION's parts come 0.45 s apart, each within one expiry of the last; the
    # session still ends at its one deadline, not at a read's
    with GateServer(trained, make_policy("linear"), expiry_ms=500) as gate:
        started = time.monotonic()
        with socket.create_connection(gate.address, timeout=10) as sock:
            challenge = exchange(sock, Request("10.0.0.1", 500.0, LEGIT_FLOW))
            parts = trickles(encode_message(solve_challenge_msg(challenge, "10.0.0.1")))[0]
            trickle_until_closed(sock, parts, gap_s=0.45)
            closed_after = time.monotonic() - started
        assert 0.5 <= closed_after < 0.8
        wait_for(lambda: gate.events[-1].admitted is not None)
        assert verdict(gate.events[-1]) == (False, "expired")
