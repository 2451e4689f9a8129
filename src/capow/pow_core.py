"""Hash-puzzle generation, solving, and verification.

A challenge binds a user id, an issue timestamp, a fresh 16-byte server
seed, and a difficulty d. The prover searches nonces counting up from
zero until ``SHA-256(len(u) || u || t || rho || nonce)`` has at least d
leading zero bits; the verifier re-checks the winning nonce with a
single hash evaluation. The byte layout is part of the protocol contract:

    len(u): u32 big-endian
    u:      user id bytes
    t:      u64 big-endian unix milliseconds
    rho:    16 seed bytes
    nonce:  u64 big-endian

Per-challenge seeds defeat precomputation. :class:`ChallengeRegistry` is
the library verifier and accepts at most one solution per seed (replay
defense); the gate does not use it, because each session holds its own.
"""

from __future__ import annotations

import hashlib
import random
import secrets
import struct
import threading
import time
from dataclasses import dataclass

from .errors import SolveTimeout

SEED_BYTES = 16
MAX_DIFFICULTY = 64  # sanity bound; 2^64 expected work is already absurd
NONCE_SPACE = 1 << 64  # nonces are u64 on the wire and in the hash input
DEFAULT_EXPIRY_MS = 30_000
DEADLINE_CHECK_EVERY = 4096  # nonces hashed between two reads of the clock

REJECT_EXPIRED = "expired"
REJECT_REPLAY = "replay"
REJECT_WRONG_SOLUTION = "wrong-solution"


@dataclass(frozen=True)
class Challenge:
    """Puzzle parameters issued by the server."""

    user_id: bytes
    issue_ms: int
    seed: bytes
    difficulty: int
    expiry_ms: int = DEFAULT_EXPIRY_MS

    def __post_init__(self) -> None:
        if not 0 <= self.difficulty <= MAX_DIFFICULTY:
            raise ValueError(f"difficulty {self.difficulty} outside [0, {MAX_DIFFICULTY}]")
        if len(self.seed) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(self.seed)}")
        if self.issue_ms < 0 or self.expiry_ms < 0:
            raise ValueError("timestamps must be non-negative")

    def seed_digest(self) -> bytes:
        """Public handle for this challenge; solutions reference it on the wire."""
        return seed_digest(self.seed)

    def expired(self, now_ms: int) -> bool:
        return now_ms >= self.issue_ms + self.expiry_ms


@dataclass(frozen=True)
class Solution:
    """A found nonce plus the prover-side attempt count."""

    seed_digest: bytes
    nonce: int
    attempts: int


def seed_digest(seed: bytes) -> bytes:
    """The digest that names a challenge on the wire."""
    return hashlib.sha256(seed).digest()


def _puzzle_prefix(user_id: bytes, issue_ms: int, seed: bytes) -> bytes:
    """Everything before the nonce; the user id is length-prefixed to keep fields unambiguous."""
    return struct.pack(">I", len(user_id)) + user_id + struct.pack(">Q", issue_ms) + seed


def pack_puzzle_input(user_id: bytes, issue_ms: int, seed: bytes, nonce: int) -> bytes:
    """Byte-exact hash input."""
    return _puzzle_prefix(user_id, issue_ms, seed) + struct.pack(">Q", nonce)


def puzzle_digest(challenge: Challenge, nonce: int) -> bytes:
    return hashlib.sha256(
        pack_puzzle_input(challenge.user_id, challenge.issue_ms, challenge.seed, nonce)
    ).digest()


def leading_zero_bits(digest: bytes) -> int:
    """Count consecutive zero bits from the most significant bit."""
    if not digest:
        raise ValueError("empty digest")
    value = int.from_bytes(digest, "big")
    return len(digest) * 8 - value.bit_length()


def difficulty_bound(difficulty: int) -> bytes:
    """The largest SHA-256 digest with at least ``difficulty`` leading zero bits.

    A digest meets difficulty d exactly when ``digest <= difficulty_bound(d)``,
    compared as bytes; the solver and the verifier both test it this way.
    """
    return ((1 << (256 - difficulty)) - 1).to_bytes(32, "big")


def check_solution(challenge: Challenge, nonce: int) -> bool:
    """The bare verification predicate: one hash evaluation, none for a nonce outside [0, 2^64)."""
    return 0 <= nonce < NONCE_SPACE and (
        puzzle_digest(challenge, nonce) <= difficulty_bound(challenge.difficulty))


def issue_challenge(
    user_id: bytes,
    difficulty: int,
    now_ms: int | None = None,
    expiry_ms: int = DEFAULT_EXPIRY_MS,
    rng: random.Random | None = None,
) -> Challenge:
    """Create a challenge with a fresh server seed.

    Seeds come from the OS entropy pool; pass a seeded ``rng`` only to make
    tests reproducible.
    """
    if now_ms is None:
        now_ms = int(time.time() * 1000)
    seed = rng.randbytes(SEED_BYTES) if rng is not None else secrets.token_bytes(SEED_BYTES)
    return Challenge(
        user_id=user_id,
        issue_ms=now_ms,
        seed=seed,
        difficulty=difficulty,
        expiry_ms=expiry_ms,
    )


def solve(
    challenge: Challenge,
    *,
    deadline_s: float | None = None,
    max_attempts: int | None = None,
) -> Solution:
    """Search nonces sequentially from zero until the digest fits.

    A digest fits when it is at most :func:`difficulty_bound` of the
    challenge's difficulty, compared as bytes. Nonces are hashed in blocks
    of :data:`DEADLINE_CHECK_EVERY`, and the clock is read once per block:
    a search past ``deadline_s`` (wall-clock seconds) stops at the end of
    the block it is in. ``max_attempts`` cuts the last block short, so it
    is an exact budget of hash evaluations. The search stays inside the
    u64 nonce space, and a search that reaches 2^64 gives up. Without a
    deadline or a budget the search is unbounded in practice; a caller
    worried about very hard puzzles passes one and handles
    :class:`SolveTimeout`.
    """
    prefix = hashlib.sha256(_puzzle_prefix(challenge.user_id, challenge.issue_ms, challenge.seed))
    bound = difficulty_bound(challenge.difficulty)
    deadline_at = None if deadline_s is None else time.monotonic() + deadline_s
    pack_nonce = struct.Struct(">Q").pack
    stop = NONCE_SPACE if max_attempts is None else min(max_attempts, NONCE_SPACE)
    for lo in range(0, stop, DEADLINE_CHECK_EVERY):
        hi = min(lo + DEADLINE_CHECK_EVERY, stop)
        for nonce in range(lo, hi):
            h = prefix.copy()
            h.update(pack_nonce(nonce))
            if h.digest() <= bound:
                return Solution(seed_digest=challenge.seed_digest(), nonce=nonce, attempts=nonce + 1)
        if hi == lo + DEADLINE_CHECK_EVERY and deadline_at is not None and time.monotonic() > deadline_at:
            raise SolveTimeout(f"no solution after {hi} attempts at difficulty {challenge.difficulty}")
    raise SolveTimeout(f"no solution in {stop} attempts at difficulty {challenge.difficulty}")


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None = None


class ChallengeRegistry:
    """Server-side table of outstanding challenges, keyed by seed digest.

    Entries leave the table on the first accepted solution or on expiry,
    so each seed admits at most one request. All operations are
    linearizable under the internal lock; ``hash_evaluations`` counts the
    digest computations performed by :meth:`verify`.
    """

    def __init__(self) -> None:
        self._pending: dict[bytes, Challenge] = {}
        self._lock = threading.Lock()
        self.hash_evaluations = 0

    def issue(
        self,
        user_id: bytes,
        difficulty: int,
        now_ms: int | None = None,
        expiry_ms: int = DEFAULT_EXPIRY_MS,
        rng: random.Random | None = None,
    ) -> Challenge:
        """Issue and record a challenge with a seed fresh within the table."""
        with self._lock:
            while True:
                challenge = issue_challenge(user_id, difficulty, now_ms, expiry_ms, rng)
                key = challenge.seed_digest()
                if key not in self._pending:
                    break
            self._pending[key] = challenge
            return challenge

    def verify(self, seed_digest: bytes, nonce: int, now_ms: int | None = None) -> VerifyResult:
        """Check a submitted nonce against its outstanding challenge.

        Exactly one hash evaluation happens when the challenge is live and
        the nonce is a u64; expired and unknown/consumed seeds, and any
        other nonce, are rejected without hashing.
        """
        if now_ms is None:
            now_ms = int(time.time() * 1000)
        with self._lock:
            challenge = self._pending.get(seed_digest)
            if challenge is None:
                return VerifyResult(accepted=False, reason=REJECT_REPLAY)
            if challenge.expired(now_ms):
                del self._pending[seed_digest]
                return VerifyResult(accepted=False, reason=REJECT_EXPIRED)
            if 0 <= nonce < NONCE_SPACE:
                self.hash_evaluations += 1
            if check_solution(challenge, nonce):
                del self._pending[seed_digest]
                return VerifyResult(accepted=True)
            # wrong nonce: the challenge stays live until solved or expired
            return VerifyResult(accepted=False, reason=REJECT_WRONG_SOLUTION)

    @property
    def outstanding(self) -> int:
        with self._lock:
            return len(self._pending)
