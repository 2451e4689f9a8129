from __future__ import annotations

from pathlib import Path

from capow.kvconfig import parse_kv_text
from capow.policy_engine import load_policy
from capow.simulate import load_scenario

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
    path.write_text(readme_block("### Policy file"), encoding="utf-8")
    policy = load_policy(path)
    assert policy.policy_kind == "error_range"
    assert (policy.score_lo, policy.difficulty_hi, policy.epsilon, policy.rng_seed) == (0.0, 10, 0.2, 7)
    assert policy.contexts_enabled == frozenset({"dabr", "tam", "flow"})


def test_readme_scenario_example_loads_as_written(tmp_path):
    path = tmp_path / "scenario.kv"
    path.write_text(readme_block("### Scenario file"), encoding="utf-8")
    scenario = load_scenario(path)
    assert scenario.train_logs == (tmp_path / "day0.csv",)
    assert (scenario.solve_timeout_s, scenario.queue_capacity) == (30.0, 1024)
    legit, attacker = scenario.users
    assert (legit.role, legit.requests, legit.arrival_lo, legit.arrival_hi) == ("legitimate", 40, 490.0, 530.0)
    assert (attacker.flow_kind, attacker.spoof) == ("replay", True)
