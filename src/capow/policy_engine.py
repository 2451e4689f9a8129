"""Score-to-difficulty policies.

A policy is an operator-authored file mapping a fused context score onto
a puzzle difficulty, and it also carries the model weights and which
contexts are enabled. Three mapping kinds exist:

* ``linear``         - proportional map onto difficulties [0, 10]
* ``linear_shifted`` - proportional map onto difficulties [10, 20]
* ``error_range``    - linear value d_i, then a uniform draw from the
                       integer interval [ceil(d_i - eps), ceil(d_i + eps)]

Policy files use the flat ``key: value`` format (see ``kvconfig``).
``POLICY_TABLE`` names each key and the field it sets; the README's
"Policy file" section shows every key in an example a test loads.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import ConfigError
from .kvconfig import as_float, as_int, as_str, parse_kv_file
from .pow_core import MAX_DIFFICULTY

# Policy kind: its default difficulty span, which an omitted difficulty_lo or difficulty_hi takes.
POLICY_KIND_SPANS = {
    "linear": (0, 10),
    "linear_shifted": (10, 20),
    "error_range": (0, 10),
}
POLICY_KINDS = tuple(POLICY_KIND_SPANS)
ALL_CONTEXTS = frozenset({"dabr", "tam", "flow"})
DEFAULT_EPSILON = 0.2


@dataclass(frozen=True)
class PolicyConfig:
    """Validated policy: the score-to-difficulty rule plus model weights.

    An omitted ``difficulty_lo`` or ``difficulty_hi`` takes the kind's span.
    """

    policy_kind: str = "linear"
    score_lo: float = 0.0
    score_hi: float = 10.0
    difficulty_lo: int | None = None
    difficulty_hi: int | None = None
    epsilon: float = DEFAULT_EPSILON
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    rng_seed: int | None = None
    contexts_enabled: frozenset[str] = field(default_factory=lambda: ALL_CONTEXTS)

    def __post_init__(self) -> None:
        if self.policy_kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy_kind {self.policy_kind!r}, expected one of {POLICY_KINDS}")
        for name, default in zip(("difficulty_lo", "difficulty_hi"), POLICY_KIND_SPANS[self.policy_kind]):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if not -math.inf < self.score_lo < self.score_hi < math.inf:
            raise ConfigError(f"score range [{self.score_lo}, {self.score_hi}] must be finite, min below max")
        if not 0 <= self.difficulty_lo <= self.difficulty_hi <= MAX_DIFFICULTY:
            raise ConfigError(f"difficulty range [{self.difficulty_lo}, {self.difficulty_hi}] "
                              f"must be ascending within [0, {MAX_DIFFICULTY}]")
        if not all(0 <= x < math.inf for x in (self.epsilon, *self.weights)):
            raise ConfigError(f"epsilon {self.epsilon} and weights {self.weights} "
                              "must be finite and non-negative")
        if not self.contexts_enabled:
            raise ConfigError("at least one context must be enabled")
        unknown = self.contexts_enabled - ALL_CONTEXTS
        if unknown:
            raise ConfigError(f"unknown contexts: {sorted(unknown)}")


def make_policy(policy_kind: str = "linear", **overrides) -> PolicyConfig:
    """Build a policy of the given kind; the same as ``PolicyConfig(policy_kind, **overrides)``."""
    return PolicyConfig(policy_kind=policy_kind, **overrides)


def _parse_weights(raw: str, key: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"{key} must be three comma-separated numbers, got {raw!r}")
    return tuple(as_float(p, key) for p in parts)  # type: ignore[return-value]


def _parse_contexts(raw: str, key: str) -> frozenset[str]:
    return frozenset(token.strip().lower() for token in raw.split(",") if token.strip())


# Policy-file key: (PolicyConfig field, parser). An omitted key keeps the kind's default.
POLICY_TABLE = {
    "policy_kind": ("policy_kind", as_str),
    "score_min": ("score_lo", as_float),
    "score_max": ("score_hi", as_float),
    "difficulty_min": ("difficulty_lo", as_int),
    "difficulty_max": ("difficulty_hi", as_int),
    "epsilon": ("epsilon", as_float),
    "weights": ("weights", _parse_weights),
    "rng_seed": ("rng_seed", as_int),
    "contexts": ("contexts_enabled", _parse_contexts),
}


def load_policy(path: str | Path) -> PolicyConfig:
    """Load and validate a policy file, filling defaults for omitted keys."""
    doc = parse_kv_file(path)
    if doc.sections:
        raise ConfigError(f"{path}: policy files do not take [sections]")
    return make_policy(**doc.top.read(POLICY_TABLE, str(path)))


def map_difficulty(policy: PolicyConfig, phi: float, rng: random.Random | None = None) -> int:
    """Map a fused context score onto an integer puzzle difficulty.

    Scores outside ``[score_lo, score_hi]`` clamp to that range. For
    ``error_range`` the draw comes from ``rng``; when none is given a
    generator seeded from the policy's ``rng_seed`` is used, making a
    one-shot call deterministic.
    """
    phi = min(policy.score_hi, max(policy.score_lo, phi))
    fraction = (phi - policy.score_lo) / (policy.score_hi - policy.score_lo)
    d_real = policy.difficulty_lo + fraction * (policy.difficulty_hi - policy.difficulty_lo)
    if policy.policy_kind in ("linear", "linear_shifted"):
        d = _round_half_up(d_real)
    else:
        lo = math.ceil(d_real - policy.epsilon)
        hi = math.ceil(d_real + policy.epsilon)
        if rng is None:
            rng = random.Random(policy.rng_seed)
        d = rng.randint(lo, hi)
    return max(0, d)


def request_rng(policy: PolicyConfig, user_id: str, arrival_min: float, features: Sequence[float]) -> random.Random:
    """Per-request generator for error-range draws.

    Seeded from the policy seed and the request content, so difficulty
    assignments reproduce bit-exactly no matter how concurrent sessions
    interleave on the server.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(policy.rng_seed).encode())
    h.update(user_id.encode("utf-8"))
    h.update(struct.pack(">d", arrival_min))
    for x in features:
        h.update(struct.pack(">d", x))
    return random.Random(int.from_bytes(h.digest(), "big"))


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)
