from __future__ import annotations

import dataclasses
import hashlib
import math
import random

import pytest

from capow import synthlog
from capow.errors import ConfigError
from capow.policy_engine import (
    POLICY_KINDS,
    POLICY_TABLE,
    PolicyConfig,
    load_policy,
    make_policy,
    map_difficulty,
    request_rng,
)
from capow.protocol import GateServer, Request


def test_make_policy_per_kind_defaults():
    assert make_policy("linear").difficulty_lo == 0
    assert make_policy("linear").difficulty_hi == 10
    assert make_policy("linear_shifted").difficulty_lo == 10
    assert make_policy("linear_shifted").difficulty_hi == 20
    assert make_policy("error_range").difficulty_hi == 10
    with pytest.raises(ConfigError):
        make_policy("quadratic")


def test_policy_validation():
    with pytest.raises(ConfigError):
        PolicyConfig(score_lo=5.0, score_hi=5.0)
    with pytest.raises(ConfigError):
        PolicyConfig(difficulty_lo=9, difficulty_hi=3)
    with pytest.raises(ConfigError):
        PolicyConfig(difficulty_lo=-1)
    with pytest.raises(ConfigError):
        PolicyConfig(epsilon=-0.1)
    with pytest.raises(ConfigError):
        PolicyConfig(weights=(1.0, -1.0, 1.0))
    with pytest.raises(ConfigError):
        PolicyConfig(contexts_enabled=frozenset())
    with pytest.raises(ConfigError):
        PolicyConfig(contexts_enabled=frozenset({"dabr", "dns"}))


@pytest.mark.parametrize("overrides", [
    {"weights": (math.nan, 1.0, 1.0)},
    {"weights": (1.0, math.inf, 1.0)},
    {"epsilon": math.nan},
    {"score_lo": math.nan},
    {"score_hi": math.inf},
    {"difficulty_hi": 65},
    {"difficulty_hi": 10**400},
])
def test_make_policy_refuses_non_finite_numbers_and_levels_above_the_top(overrides):
    with pytest.raises(ConfigError):
        make_policy("linear_shifted", **overrides)


def test_a_policy_config_takes_its_kinds_span_as_make_policy_does():
    for kind in POLICY_KINDS:
        assert PolicyConfig(policy_kind=kind) == make_policy(kind)
    shifted = PolicyConfig(policy_kind="linear_shifted")
    assert (shifted.difficulty_lo, shifted.difficulty_hi) == (10, 20)
    assert map_difficulty(shifted, 0.0) == 10
    # a bound that is given keeps its value; only the omitted one takes the kind's
    assert PolicyConfig(policy_kind="linear_shifted", difficulty_hi=15).difficulty_lo == 10


def test_each_policy_field_is_set_by_exactly_one_file_key():
    set_by_keys = sorted(name for name, _ in POLICY_TABLE.values())
    assert set_by_keys == sorted(f.name for f in dataclasses.fields(PolicyConfig))


def test_linear_mapping_endpoints_and_rounding():
    p = make_policy("linear")
    assert map_difficulty(p, 0.0) == 0
    assert map_difficulty(p, 10.0) == 10
    assert map_difficulty(p, 8.0) == 8
    assert map_difficulty(p, 3.4) == 3
    assert map_difficulty(p, 3.5) == 4  # half rounds up
    assert map_difficulty(p, 3.6) == 4


def test_linear_shifted_mapping():
    p = make_policy("linear_shifted")
    assert map_difficulty(p, 0.0) == 10
    assert map_difficulty(p, 8.0) == 18
    assert map_difficulty(p, 10.0) == 20


def test_out_of_range_scores_clamp():
    p = make_policy("linear")
    assert map_difficulty(p, -3.0) == 0
    assert map_difficulty(p, 25.0) == 10


def test_error_range_draws_stay_in_band():
    p = make_policy("error_range", epsilon=0.2, rng_seed=9)
    rng = random.Random(9)
    seen = {map_difficulty(p, 5.0, rng) for _ in range(2000)}
    assert seen == {5, 6}  # ceil(4.8) .. ceil(5.2)


def test_error_range_integer_score_with_zero_epsilon():
    p = make_policy("error_range", epsilon=0.0)
    rng = random.Random(1)
    assert {map_difficulty(p, 7.0, rng) for _ in range(100)} == {7}


def test_error_range_never_negative():
    p = make_policy("error_range", epsilon=0.5)
    rng = random.Random(4)
    draws = {map_difficulty(p, 0.0, rng) for _ in range(500)}
    assert draws == {0, 1}  # ceil(-0.5) = 0 after clamping at zero


def test_error_range_default_rng_is_deterministic():
    p = make_policy("error_range", rng_seed=33)
    assert map_difficulty(p, 5.0) == map_difficulty(p, 5.0)


def test_request_rng_reproducible_and_content_sensitive():
    p = make_policy("error_range", rng_seed=1)
    a = request_rng(p, "u1", 100.0, (1.0, 2.0)).random()
    b = request_rng(p, "u1", 100.0, (1.0, 2.0)).random()
    c = request_rng(p, "u2", 100.0, (1.0, 2.0)).random()
    assert a == b
    assert a != c


def test_load_policy_full_file(tmp_path):
    path = tmp_path / "policy.kv"
    path.write_text(
        """# difficulty policy
policy_kind: error_range
score_min: 0
score_max: 10
difficulty_min: 2
difficulty_max: 12
epsilon: 0.3
weights: 1, 0.5, 2
rng_seed: 77
contexts: tam, flow
"""
    )
    p = load_policy(path)
    assert p.policy_kind == "error_range"
    assert (p.difficulty_lo, p.difficulty_hi) == (2, 12)
    assert p.epsilon == 0.3
    assert p.weights == (1.0, 0.5, 2.0)
    assert p.rng_seed == 77
    assert p.contexts_enabled == frozenset({"tam", "flow"})


def test_load_policy_defaults(tmp_path):
    path = tmp_path / "p.kv"
    path.write_text("policy_kind: linear_shifted\n")
    p = load_policy(path)
    assert (p.difficulty_lo, p.difficulty_hi) == (10, 20)
    assert p.weights == (1.0, 1.0, 1.0)


def test_load_policy_rejects_unknown_keys(tmp_path):
    path = tmp_path / "p.kv"
    path.write_text("policy_kind: linear\nturbo: yes\n")
    with pytest.raises(ConfigError):
        load_policy(path)


def test_load_policy_rejects_sections_and_bad_weights(tmp_path):
    sectioned = tmp_path / "s.kv"
    sectioned.write_text("[user x]\nrole: legitimate\n")
    with pytest.raises(ConfigError):
        load_policy(sectioned)
    bad = tmp_path / "w.kv"
    bad.write_text("weights: 1, 2\n")
    with pytest.raises(ConfigError):
        load_policy(bad)


def test_prices_are_pinned(trained, corpus):
    """What the gate charges, pinned: a changed score, deciding model or difficulty moves the digest."""
    rng = random.Random(2024)
    roster = [user.user_id for user in corpus["users"]]
    requests = []
    for _ in range(2000):
        user_id = rng.choice(roster) if rng.random() < 0.5 else f"198.51.100.{rng.randrange(256)}"
        label = rng.choice(("legitimate", "malicious"))
        requests.append(Request(user_id, rng.uniform(0.0, 1440.0), synthlog.sample_flow(rng, label)))
    h = hashlib.sha256()
    for policy in (make_policy("linear"), make_policy("linear_shifted"),
                   make_policy("error_range", rng_seed=7)):
        gate = GateServer(trained, policy)
        for request in requests:
            score, difficulty = gate.price(request)
            fields = (*(x.hex() for x in (score.alpha, score.beta, score.gamma, score.phi)),
                      score.deciding_model.value, str(difficulty))
            h.update((",".join(fields) + "\n").encode())
    assert h.hexdigest() == "44695b8873b989c0887937202fd546572cf4e2b744d95f9cbb7e227d01a04d3b"
