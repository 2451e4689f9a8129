"""Score-to-difficulty policies.

A policy is an operator-authored file mapping a fused context score onto
a puzzle difficulty, and it also carries the model weights and which
contexts are enabled. Three mapping kinds exist:

* ``linear``         - proportional map onto difficulties [0, 10]
* ``linear_shifted`` - proportional map onto difficulties [10, 20]
* ``error_range``    - linear value d_i, then a uniform draw from the
                       integer interval [ceil(d_i - eps), ceil(d_i + eps)]

Policy files use the flat ``key: value`` format (see ``kvconfig``), e.g.::

    policy_kind: error_range
    difficulty_min: 0
    difficulty_max: 10
    epsilon: 0.2
    weights: 1, 1, 1
    contexts: dabr, tam, flow
    rng_seed: 7
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
from .kvconfig import as_float, as_int, parse_kv_file

POLICY_KINDS = ("linear", "linear_shifted", "error_range")
ALL_CONTEXTS = frozenset({"dabr", "tam", "flow"})
DEFAULT_EPSILON = 0.2

# Default difficulty span per policy kind.
DEFAULT_DIFFICULTY_RANGE = {
    "linear": (0, 10),
    "linear_shifted": (10, 20),
    "error_range": (0, 10),
}

_KNOWN_KEYS = {
    "policy_kind",
    "score_min",
    "score_max",
    "difficulty_min",
    "difficulty_max",
    "epsilon",
    "weights",
    "rng_seed",
    "contexts",
}


@dataclass(frozen=True)
class PolicyConfig:
    """Validated policy: the score-to-difficulty rule plus model weights."""

    policy_kind: str = "linear"
    score_lo: float = 0.0
    score_hi: float = 10.0
    difficulty_lo: int = 0
    difficulty_hi: int = 10
    epsilon: float = DEFAULT_EPSILON
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    rng_seed: int | None = None
    contexts_enabled: frozenset[str] = field(default_factory=lambda: ALL_CONTEXTS)

    def __post_init__(self) -> None:
        if self.policy_kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy_kind {self.policy_kind!r}, expected one of {POLICY_KINDS}")
        if self.score_lo >= self.score_hi:
            raise ConfigError("score range must have score_min < score_max")
        if self.difficulty_lo > self.difficulty_hi:
            raise ConfigError(
                f"difficulty range [{self.difficulty_lo}, {self.difficulty_hi}] is inverted"
            )
        if self.difficulty_lo < 0:
            raise ConfigError("difficulty levels must be non-negative")
        if self.epsilon < 0:
            raise ConfigError(f"epsilon must be non-negative, got {self.epsilon}")
        if any(w < 0 for w in self.weights):
            raise ConfigError(f"weights must be non-negative, got {self.weights}")
        if not self.contexts_enabled:
            raise ConfigError("at least one context must be enabled")
        unknown = self.contexts_enabled - ALL_CONTEXTS
        if unknown:
            raise ConfigError(f"unknown contexts: {sorted(unknown)}")


def make_policy(policy_kind: str = "linear", **overrides) -> PolicyConfig:
    """Build a policy of the given kind with per-kind difficulty defaults."""
    if policy_kind not in POLICY_KINDS:
        raise ConfigError(f"unknown policy_kind {policy_kind!r}, expected one of {POLICY_KINDS}")
    d_lo, d_hi = DEFAULT_DIFFICULTY_RANGE[policy_kind]
    params = {"difficulty_lo": d_lo, "difficulty_hi": d_hi}
    params.update(overrides)
    return PolicyConfig(policy_kind=policy_kind, **params)


def load_policy(path: str | Path) -> PolicyConfig:
    """Load and validate a policy file, filling defaults for omitted keys."""
    doc = parse_kv_file(path)
    if doc.sections:
        raise ConfigError(f"{path}: policy files do not take [sections]")
    top = doc.top
    unknown = set(top.values) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown policy keys: {sorted(unknown)}")

    kind = top.get("policy_kind", "linear")
    overrides: dict = {}
    if top.get("score_min") is not None:
        overrides["score_lo"] = as_float(top.get("score_min"), "score_min")
    if top.get("score_max") is not None:
        overrides["score_hi"] = as_float(top.get("score_max"), "score_max")
    if top.get("difficulty_min") is not None:
        overrides["difficulty_lo"] = as_int(top.get("difficulty_min"), "difficulty_min")
    if top.get("difficulty_max") is not None:
        overrides["difficulty_hi"] = as_int(top.get("difficulty_max"), "difficulty_max")
    if top.get("epsilon") is not None:
        overrides["epsilon"] = as_float(top.get("epsilon"), "epsilon")
    if top.get("rng_seed") is not None:
        overrides["rng_seed"] = as_int(top.get("rng_seed"), "rng_seed")
    if top.get("weights") is not None:
        overrides["weights"] = _parse_weights(top.get("weights"))
    if top.get("contexts") is not None:
        overrides["contexts_enabled"] = frozenset(
            token.strip().lower() for token in top.get("contexts").split(",") if token.strip()
        )
    return make_policy(kind, **overrides)


def _parse_weights(raw: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"weights must be three comma-separated numbers, got {raw!r}")
    return tuple(as_float(p, "weights") for p in parts)  # type: ignore[return-value]


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
