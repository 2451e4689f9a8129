from __future__ import annotations

import hashlib
import random
import struct
import time
from types import SimpleNamespace

import pytest

from capow import pow_core
from capow.errors import SolveTimeout
from capow.pow_core import (
    DEFAULT_EXPIRY_MS,
    MAX_DIFFICULTY,
    REJECT_EXPIRED,
    REJECT_REPLAY,
    REJECT_WRONG_SOLUTION,
    SEED_BYTES,
    NONCE_SPACE,
    Challenge,
    ChallengeRegistry,
    check_solution,
    difficulty_bound,
    issue_challenge,
    leading_zero_bits,
    pack_puzzle_input,
    puzzle_digest,
    solve,
)

GOLDEN_USER = b"golden"
GOLDEN_MS = 1_700_000_000_000
GOLDEN_SEED = bytes(range(16))
# frozen solutions for the golden challenge, found by independent search
GOLDEN_NONCES = {0: 0, 8: 123, 12: 1290}
GOLDEN_D0_DIGEST = "e77d875f40677a5866c1d043bb035bda447121917e8bccec4038eb2db9b380ce"


def golden(difficulty):
    return Challenge(
        user_id=GOLDEN_USER,
        issue_ms=GOLDEN_MS,
        seed=GOLDEN_SEED,
        difficulty=difficulty,
    )


def oracle_leading_zero_bits(digest: bytes) -> int:
    bits = bin(int.from_bytes(digest, "big"))[2:].zfill(len(digest) * 8)
    return len(bits) - len(bits.lstrip("0"))


# ── Puzzle input and digest ──────────────────────────────────────────


def test_pack_puzzle_input_layout():
    packed = pack_puzzle_input(b"ab", 7, b"S" * 16, 300)
    expected = b"\x00\x00\x00\x02" + b"ab" + (7).to_bytes(8, "big") + b"S" * 16 + (300).to_bytes(8, "big")
    assert packed == expected
    assert len(packed) == 4 + 2 + 8 + 16 + 8


def test_puzzle_digest_is_sha256_of_packed_input():
    c = golden(0)
    expected = hashlib.sha256(pack_puzzle_input(GOLDEN_USER, GOLDEN_MS, GOLDEN_SEED, 0)).digest()
    assert puzzle_digest(c, 0) == expected
    assert puzzle_digest(c, 0).hex() == GOLDEN_D0_DIGEST


def test_leading_zero_bits_known_values():
    assert leading_zero_bits(b"\x80" + b"\x00" * 31) == 0
    assert leading_zero_bits(b"\x01") == 7
    assert leading_zero_bits(b"\x00\xff") == 8
    assert leading_zero_bits(b"\x00" * 4) == 32
    with pytest.raises(ValueError):
        leading_zero_bits(b"")


def test_leading_zero_bits_matches_oracle():
    rng = random.Random(2)
    for _ in range(500):
        digest = rng.randbytes(rng.randint(1, 32))
        assert leading_zero_bits(digest) == oracle_leading_zero_bits(digest)


def test_difficulty_bound_agrees_with_leading_zero_bits():
    rng = random.Random(5)
    for d in range(MAX_DIFFICULTY + 1):
        bound = difficulty_bound(d)
        value = int.from_bytes(bound, "big")
        digests = [bytes(32), b"\xff" * 32, bound, (value - 1).to_bytes(32, "big")]
        if d > 0:
            digests.append((value + 1).to_bytes(32, "big"))
        # random digests with 0-9 leading zero bytes reach every d in 0..64 from both sides
        for _ in range(40):
            zeros = rng.randint(0, 9)
            digests.append(bytes(zeros) + rng.randbytes(32 - zeros))
        for digest in digests:
            assert (digest <= bound) == (leading_zero_bits(digest) >= d), (d, digest.hex())


# ── Challenge construction ───────────────────────────────────────────


def test_challenge_validation():
    with pytest.raises(ValueError):
        Challenge(user_id=b"u", issue_ms=0, seed=b"short", difficulty=1)
    with pytest.raises(ValueError):
        Challenge(user_id=b"u", issue_ms=0, seed=bytes(16), difficulty=-1)
    with pytest.raises(ValueError):
        Challenge(user_id=b"u", issue_ms=0, seed=bytes(16), difficulty=MAX_DIFFICULTY + 1)


def test_issue_challenge_seeded_rng_is_reproducible():
    a = issue_challenge(b"u", 4, now_ms=5, rng=random.Random(1))
    b = issue_challenge(b"u", 4, now_ms=5, rng=random.Random(1))
    assert a.seed == b.seed
    assert len(a.seed) == SEED_BYTES


def test_issue_challenge_fresh_seeds():
    seeds = {issue_challenge(b"u", 1).seed for _ in range(100)}
    assert len(seeds) == 100


def test_challenge_expiry_boundary():
    c = Challenge(user_id=b"u", issue_ms=1000, seed=bytes(16), difficulty=1, expiry_ms=500)
    assert not c.expired(1499)
    assert c.expired(1500)
    assert c.expired(2000)


# ── Solver ───────────────────────────────────────────────────────────


def test_solve_golden_challenges():
    for difficulty, nonce in GOLDEN_NONCES.items():
        solution = solve(golden(difficulty))
        assert solution.nonce == nonce
        assert solution.attempts == nonce + 1
        assert solution.seed_digest == hashlib.sha256(GOLDEN_SEED).digest()


def test_solve_finds_minimal_nonce():
    c = golden(8)
    solution = solve(c)
    for nonce in range(solution.nonce):
        assert leading_zero_bits(puzzle_digest(c, nonce)) < 8
    assert check_solution(c, solution.nonce)


def test_solve_difficulty_zero_is_immediate():
    solution = solve(golden(0))
    assert solution.nonce == 0
    assert solution.attempts == 1


def test_solve_deadline():
    hard = Challenge(user_id=b"u", issue_ms=0, seed=bytes(16), difficulty=MAX_DIFFICULTY)
    with pytest.raises(SolveTimeout):
        solve(hard, deadline_s=0.05)


def test_solve_max_attempts_is_an_exact_hash_budget():
    # golden(12) first fits at nonce 1290, its 1291st attempt
    assert solve(golden(12), max_attempts=GOLDEN_NONCES[12] + 1).nonce == GOLDEN_NONCES[12]
    with pytest.raises(SolveTimeout, match="no solution in 1290 attempts"):
        solve(golden(12), max_attempts=GOLDEN_NONCES[12])
    with pytest.raises(SolveTimeout, match="no solution in 0 attempts"):
        solve(golden(0), max_attempts=0)


def oracle_solve(challenge, max_attempts):
    """The search by definition: one leading-zero count per nonce."""
    for nonce in range(max_attempts):
        if leading_zero_bits(puzzle_digest(challenge, nonce)) >= challenge.difficulty:
            return nonce, nonce + 1
    return f"no solution in {max_attempts} attempts at difficulty {challenge.difficulty}"


@pytest.mark.parametrize("deadline_s", [None, 3600.0])
def test_solve_matches_the_oracle_across_block_edges(deadline_s):
    # budgets that end on either side of the first and second clock reads
    for d in range(13):
        c = issue_challenge(b"oracle", d, now_ms=d, rng=random.Random(d))
        for max_attempts in (1, 2, 4095, 4096, 4097, 8193):
            expected = oracle_solve(c, max_attempts)
            try:
                found = solve(c, deadline_s=deadline_s, max_attempts=max_attempts)
            except SolveTimeout as exc:
                got = str(exc)
            else:
                got = (found.nonce, found.attempts)
                assert check_solution(c, found.nonce)
            assert got == expected, (d, max_attempts)


def test_solve_past_its_deadline_stops_within_one_block():
    hard = Challenge(user_id=b"u", issue_ms=0, seed=bytes(16), difficulty=MAX_DIFFICULTY)
    with pytest.raises(SolveTimeout, match="no solution after 4096 attempts"):
        solve(hard, deadline_s=0)
    # the clock is read where a block ends, not where a budget cuts one short
    with pytest.raises(SolveTimeout, match="no solution in 10 attempts"):
        solve(hard, deadline_s=0, max_attempts=10)
    with pytest.raises(SolveTimeout, match="no solution after 4096 attempts"):
        solve(hard, deadline_s=0, max_attempts=4096)


def test_solve_reads_the_clock_once_per_full_block(monkeypatch):
    reads = []

    def monotonic():
        reads.append(None)
        return time.monotonic()

    monkeypatch.setattr(pow_core, "time", SimpleNamespace(monotonic=monotonic, time=time.time))
    hard = Challenge(user_id=b"u", issue_ms=0, seed=bytes(16), difficulty=MAX_DIFFICULTY)
    # one read to set the deadline, then one where each of the two full blocks ends
    with pytest.raises(SolveTimeout, match="no solution in 8193 attempts"):
        solve(hard, deadline_s=3600.0, max_attempts=2 * pow_core.DEADLINE_CHECK_EVERY + 1)
    assert len(reads) == 3
    with pytest.raises(SolveTimeout, match="no solution in 8193 attempts"):
        solve(hard, max_attempts=8193)
    assert len(reads) == 3


def test_solve_gives_up_at_the_end_of_the_nonce_space(monkeypatch):
    # golden(8) first fits at nonce 123, past a nonce space of 100
    monkeypatch.setattr(pow_core, "NONCE_SPACE", 100)
    with pytest.raises(SolveTimeout, match="no solution in 100 attempts"):
        solve(golden(8))
    with pytest.raises(SolveTimeout, match="no solution in 100 attempts"):
        solve(golden(8), deadline_s=3600.0, max_attempts=200)


def test_check_solution_threshold_not_equality():
    # a nonce clearing more bits than required still verifies
    c = golden(8)
    deep = solve(golden(12))
    assert leading_zero_bits(puzzle_digest(c, deep.nonce)) >= 12
    assert check_solution(c, deep.nonce)


# ── Registry: replay, expiry, instrumentation ────────────────────────


def test_registry_accept_consumes_entry():
    reg = ChallengeRegistry()
    c = reg.issue(b"u", 4, now_ms=0)
    solution = solve(c)
    assert reg.outstanding == 1
    result = reg.verify(solution.seed_digest, solution.nonce, now_ms=1)
    assert result.accepted
    assert reg.outstanding == 0
    replay = reg.verify(solution.seed_digest, solution.nonce, now_ms=2)
    assert not replay.accepted
    assert replay.reason == REJECT_REPLAY


def test_registry_unknown_seed_is_replay():
    reg = ChallengeRegistry()
    result = reg.verify(hashlib.sha256(b"nope").digest(), 0, now_ms=0)
    assert not result.accepted
    assert result.reason == REJECT_REPLAY
    assert reg.hash_evaluations == 0


def test_registry_wrong_solution_keeps_challenge_live():
    reg = ChallengeRegistry()
    c = reg.issue(b"u", 20, now_ms=0)
    digest = c.seed_digest()
    wrong = reg.verify(digest, 0 if not check_solution(c, 0) else 1, now_ms=1)
    assert not wrong.accepted
    assert wrong.reason == REJECT_WRONG_SOLUTION
    assert reg.outstanding == 1
    # the honest solution still goes through afterwards
    solution = solve(c)
    assert reg.verify(digest, solution.nonce, now_ms=2).accepted


@pytest.mark.parametrize("nonce", [-1, NONCE_SPACE])
def test_registry_nonce_outside_u64_is_wrong_without_hashing(nonce):
    # at d 0 every u64 nonce fits, so only the range can refuse these
    assert not check_solution(golden(0), nonce)
    reg = ChallengeRegistry()
    c = reg.issue(b"u", 0, now_ms=0)
    result = reg.verify(c.seed_digest(), nonce, now_ms=1)
    assert (result.accepted, result.reason) == (False, REJECT_WRONG_SOLUTION)
    assert reg.hash_evaluations == 0
    assert reg.outstanding == 1


def test_registry_expired_challenge_rejected_without_hashing():
    reg = ChallengeRegistry()
    c = reg.issue(b"u", 0, now_ms=0, expiry_ms=100)
    before = reg.hash_evaluations
    result = reg.verify(c.seed_digest(), 0, now_ms=100)
    assert not result.accepted
    assert result.reason == REJECT_EXPIRED
    assert reg.hash_evaluations == before
    assert reg.outstanding == 0


def test_registry_verify_uses_exactly_one_hash_evaluation():
    reg = ChallengeRegistry()
    c = reg.issue(b"u", 4, now_ms=0)
    solution = solve(c)
    assert reg.hash_evaluations == 0
    reg.verify(solution.seed_digest, solution.nonce, now_ms=1)
    assert reg.hash_evaluations == 1
    c2 = reg.issue(b"u", 20, now_ms=0)
    reg.verify(c2.seed_digest(), 0 if not check_solution(c2, 0) else 1, now_ms=1)
    assert reg.hash_evaluations == 2


def test_expected_attempts_scale_with_difficulty():
    rng = random.Random(77)
    totals = {}
    for difficulty in (2, 6):
        attempts = [
            solve(issue_challenge(b"u", difficulty, now_ms=0, rng=rng)).attempts
            for _ in range(300)
        ]
        totals[difficulty] = sum(attempts) / len(attempts)
    assert totals[6] > totals[2] * 4  # 16x expected; 4x leaves wide noise margin


def test_solve_attempts_are_pinned():
    # attempts depend only on the seeded challenges and the nonce order, never on the host
    rng = random.Random(0)
    means = []
    for difficulty in range(13):
        attempts = [solve(issue_challenge(b"sweep", difficulty, now_ms=0, rng=rng)).attempts
                    for _ in range(5)]
        means.append(sum(attempts) / len(attempts))
    assert means == [
        1.0, 2.2, 3.4, 6.2, 11.0, 56.8, 71.2, 102.0, 236.4, 676.4, 1306.8, 822.2, 4399.0]


def test_default_expiry_constant():
    c = issue_challenge(b"u", 1, now_ms=0)
    assert c.expiry_ms == DEFAULT_EXPIRY_MS == 30_000
