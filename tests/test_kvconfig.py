from __future__ import annotations

import random
from pathlib import Path

import pytest

from capow.errors import ConfigError
from capow.kvconfig import parse_kv_text
from capow.policy_engine import POLICY_TABLE, load_policy, map_difficulty
from capow.simulate import SCENARIO_TABLE, USER_TABLE, SimulationScenario, load_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str) -> str:
    """The first fenced block under a README heading, exactly as written."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(f"\n{heading}\n"):]
    opening = after.index("```")
    start = after.index("\n", opening) + 1
    return after[start:after.index("```", start)]


def test_trailing_comments_are_dropped():
    doc = parse_kv_text("# a comment line\n"
                        "  # an indented one\n"
                        "a: 1      # after whitespace\n"
                        "b: id#2\n"
                        "c:\tx\t# after a tab\n"
                        "[user 10.0.0.1]   # after a section\n"
                        "d: 4\n")
    assert doc.top.values == {"a": ["1"], "b": ["id#2"], "c": ["x"]}
    assert [(s.name, s.values) for s in doc.sections] == [("user 10.0.0.1", {"d": ["4"]})]


def test_readme_policy_example_loads_as_written(tmp_path):
    path = tmp_path / "policy.kv"
    path.write_text(block := readme_block("### Policy file"), encoding="utf-8")
    assert parse_kv_text(block).top.values.keys() == POLICY_TABLE.keys()
    policy = load_policy(path)
    assert policy.policy_kind == "error_range"
    assert (policy.score_lo, policy.difficulty_hi, policy.epsilon, policy.rng_seed) == (0.0, 10, 0.2, 7)
    assert policy.contexts_enabled == frozenset({"dabr", "tam", "flow"})


def test_readme_scenario_example_loads_as_written(tmp_path):
    path = tmp_path / "scenario.kv"
    path.write_text(block := readme_block("### Scenario file"), encoding="utf-8")
    doc = parse_kv_text(block)
    assert doc.top.values.keys() == SCENARIO_TABLE.keys()
    assert set().union(*(section.values for section in doc.sections)) == USER_TABLE.keys()
    scenario = load_scenario(path)
    assert scenario.train_logs == (tmp_path / "day0.csv",)
    assert (scenario.solve_timeout_s, scenario.queue_capacity) == (30.0, 1024)
    legit, attacker = scenario.users
    assert (legit.role, legit.requests, legit.arrival_lo, legit.arrival_hi) == ("legitimate", 40, 490.0, 530.0)
    assert (attacker.flow_kind, attacker.spoof) == ("replay", True)


SCENARIO = "train_log: x.csv\npolicy: p.kv\n{top}\n[user u]\nrole: attacker\n{user}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309"])
@pytest.mark.parametrize("file, line", [
    ("policy", "score_min: {}"),
    ("policy", "score_max: {}"),
    ("policy", "epsilon: {}"),
    ("policy", "weights: {}, 1, 1"),
    ("scenario", "duration_s: {}"),
    ("scenario", "gap_merge_min: {}"),
    ("scenario", "solve_timeout_s: {}"),
    ("user", "rate_rps: {}"),
    ("user", "rate_rps: 1\narrival: 400, {}"),
])
def test_every_float_key_refuses_a_non_finite_number(tmp_path, file, line, value):
    path = tmp_path / "operator.kv"
    if file == "policy":
        path.write_text(f"policy_kind: linear_shifted\n{line.format(value)}\n")
        with pytest.raises(ConfigError, match="finite"):
            load_policy(path)
        return
    text = line.format(value)
    path.write_text(SCENARIO.format(top=text if file == "scenario" else "",
                                    user=text if file == "user" else "rate_rps: 1"))
    with pytest.raises(ConfigError, match="finite"):
        load_scenario(path)


# what an operator might type into any key: numbers fit for some keys, and junk
FUZZ_VALUES = ["0", "1", "7", "0.2", "10", "64", "65", "-1", "-0.5", "nan", "inf", "-inf", "1e309", "1e200",
               "9" * 40, "9" * 400, "", "banana", ",", "1,", ", 2", "1, 2, 3, 4", "true", "legitimate"]


def readme_values(heading: str) -> dict[str, list[str]]:
    """Each key's values across the README example, top level and sections alike."""
    doc = parse_kv_text(readme_block(heading))
    values: dict[str, list[str]] = {}
    for section in (doc.top, *doc.sections):
        for key, vals in section.values.items():
            values.setdefault(key, []).extend(vals)
    return values


def fuzz_lines(rng: random.Random, fit: dict[str, list[str]], keys, always=()) -> str:
    """Some of ``keys``, each with a value from the README (fit) or from FUZZ_VALUES."""
    chosen = [k for k in keys if rng.random() < (0.9 if k in always else 0.5)]
    return "".join(f"{k}: {rng.choice(fit[k] if rng.random() < 0.7 else FUZZ_VALUES)}\n" for k in chosen)


def test_operator_file_fuzz_loads_or_config_error(tmp_path):
    rng = random.Random(53)
    path = tmp_path / "fuzz.kv"
    policy_fit, scenario_fit = readme_values("### Policy file"), readme_values("### Scenario file")
    loaded = {"policy": 0, "scenario": 0}
    for _ in range(2000):
        path.write_text(fuzz_lines(rng, policy_fit, POLICY_TABLE))
        try:
            policy = load_policy(path)
        except ConfigError:
            continue
        loaded["policy"] += 1
        for phi in (0.0, 5.0, 10.0):
            difficulty = map_difficulty(policy, phi, random.Random(0))
            assert isinstance(difficulty, int) and difficulty >= 0
    for _ in range(2000):
        users = "".join(f"[user u{i}]\n" + fuzz_lines(rng, scenario_fit, USER_TABLE, always=("role", "rate_rps"))
                        for i in range(rng.randint(0, 2)))
        path.write_text(fuzz_lines(rng, scenario_fit, SCENARIO_TABLE, always=("train_log", "policy")) + users)
        try:
            assert isinstance(load_scenario(path), SimulationScenario)
        except ConfigError:
            continue
        loaded["scenario"] += 1
    assert min(loaded.values()) > 50, loaded  # enough files load to exercise the numbers that get through
