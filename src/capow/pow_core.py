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
DEFAULT_EXPIRY_MS = 30_000

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


def check_solution(challenge: Challenge, nonce: int) -> bool:
    """The bare verification predicate: one hash evaluation."""
    return leading_zero_bits(puzzle_digest(challenge, nonce)) >= challenge.difficulty


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
    start_nonce: int = 0,
    deadline_s: float | None = None,
    deadline_check_every: int = 4096,
) -> Solution:
    """Search nonces sequentially from ``start_nonce`` until the digest fits.

    The search itself is unbounded; a caller worried about very hard
    puzzles passes ``deadline_s`` (wall-clock seconds) and handles
    :class:`SolveTimeout`.
    """
    prefix = hashlib.sha256(_puzzle_prefix(challenge.user_id, challenge.issue_ms, challenge.seed))
    threshold_bits = challenge.difficulty
    digest_bits = 256
    deadline_at = None if deadline_s is None else time.monotonic() + deadline_s
    nonce = start_nonce
    pack_nonce = struct.Struct(">Q").pack
    while True:
        h = prefix.copy()
        h.update(pack_nonce(nonce))
        digest = h.digest()
        if digest_bits - int.from_bytes(digest, "big").bit_length() >= threshold_bits:
            return Solution(
                seed_digest=challenge.seed_digest(),
                nonce=nonce,
                attempts=nonce - start_nonce + 1,
            )
        nonce += 1
        if deadline_at is not None and nonce % deadline_check_every == 0:
            if time.monotonic() > deadline_at:
                raise SolveTimeout(
                    f"no solution after {nonce - start_nonce} attempts at difficulty {challenge.difficulty}"
                )


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None = None
    challenge: Challenge | None = None


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

        Exactly one hash evaluation happens when the challenge is live;
        expired and unknown/consumed seeds are rejected without hashing.
        """
        if now_ms is None:
            now_ms = int(time.time() * 1000)
        with self._lock:
            challenge = self._pending.get(seed_digest)
            if challenge is None:
                return VerifyResult(accepted=False, reason=REJECT_REPLAY)
            if challenge.expired(now_ms):
                del self._pending[seed_digest]
                return VerifyResult(accepted=False, reason=REJECT_EXPIRED, challenge=challenge)
            self.hash_evaluations += 1
            if check_solution(challenge, nonce):
                del self._pending[seed_digest]
                return VerifyResult(accepted=True, challenge=challenge)
            # wrong nonce: the challenge stays live until solved or expired
            return VerifyResult(accepted=False, reason=REJECT_WRONG_SOLUTION, challenge=challenge)

    def purge(self, now_ms: int | None = None) -> int:
        """Drop expired entries; returns how many were removed."""
        if now_ms is None:
            now_ms = int(time.time() * 1000)
        with self._lock:
            stale = [key for key, ch in self._pending.items() if ch.expired(now_ms)]
            for key in stale:
                del self._pending[key]
            return len(stale)

    @property
    def outstanding(self) -> int:
        with self._lock:
            return len(self._pending)
