from __future__ import annotations

import hashlib
import random
import socket
import struct
import threading
import time

import pytest

from capow.errors import ConfigError, ProtocolError
from capow.policy_engine import make_policy
from capow.pow_core import solve
from capow.protocol import (
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
    assert q.try_enqueue("a") == 1
    assert q.try_enqueue("b") == 2
    assert q.try_enqueue("c") is None
    assert q.pop() == "a"
    assert q.try_enqueue("c") == 2
    assert len(q) == 2
    with pytest.raises(ValueError):
        ServerQueue(capacity=0)


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


@pytest.mark.parametrize("bad", [{"expiry_ms": -1}, {"expiry_ms": 2**32}, {"queue_capacity": 0}],
                         ids=["negative-expiry", "expiry-over-u32", "no-queue"])
def test_gate_refuses_config_it_cannot_serve(trained, bad):
    with pytest.raises(ConfigError):
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


def test_silent_peer_is_abandoned_at_the_io_timeout(trained):
    with GateServer(trained, make_policy("linear"), io_timeout_s=0.3) as gate:
        with socket.create_connection(gate.address, timeout=10) as sock:
            assert isinstance(exchange(sock, Request("10.0.0.1", 500.0, LEGIT_FLOW)), ChallengeMsg)
            wait_for(lambda: gate.events[-1].admitted is not None)
            assert verdict(gate.events[-1]) == (False, "abandoned")


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
