from __future__ import annotations

import csv

import pytest

from capow.errors import ConfigError
from capow.simulate import (
    SweepRow,
    UserSpec,
    difficulty_sweep,
    load_scenario,
    run_simulation,
    write_sweep_csv,
)


def scenario_text(log_name, policy_name, ip_name):
    return f"""train_log: {log_name}
policy: {policy_name}
ip_attributes: {ip_name}
duration_s: 1.5
seed: 11
solve_timeout_s: 5
queue_capacity: 64

[user 10.0.0.1]
role: legitimate
rate_rps: 4
arrival: 490, 530

[user 198.51.100.3]
role: attacker
rate_rps: 4
arrival: 200
"""


@pytest.fixture()
def scenario_file(corpus, tmp_path):
    policy = tmp_path / "p2.kv"
    policy.write_text("policy_kind: linear_shifted\n")
    path = tmp_path / "scenario.kv"
    path.write_text(
        scenario_text(corpus["logs"][0], policy, corpus["ip"])
    )
    return path


def test_load_scenario(scenario_file):
    scenario = load_scenario(scenario_file)
    assert len(scenario.train_logs) == 1
    assert scenario.duration_s == 1.5
    assert scenario.seed == 11
    assert scenario.queue_capacity == 64
    legit, attacker = scenario.users
    assert legit.user_id == "10.0.0.1"
    assert legit.requests == 6  # rate 4 over 1.5 s
    assert (legit.arrival_lo, legit.arrival_hi) == (490.0, 530.0)
    assert attacker.flow_kind == "malicious"  # defaulted from the role
    assert (attacker.arrival_lo, attacker.arrival_hi) == (200.0, 200.0)


def test_scenario_validation(tmp_path):
    bad = tmp_path / "bad.kv"
    bad.write_text("train_log: x.csv\npolicy: p.kv\n")
    with pytest.raises(ConfigError):
        load_scenario(bad)  # no users
    bad.write_text("train_log: x.csv\npolicy: p.kv\nwarp_speed: 9\n[user u]\nrole: legitimate\nrate_rps: 1\n")
    with pytest.raises(ConfigError):
        load_scenario(bad)  # unknown top key
    bad.write_text("train_log: x.csv\npolicy: p.kv\n[user u]\nrole: wizard\nrate_rps: 1\n")
    with pytest.raises(ConfigError):
        load_scenario(bad)  # unknown role
    bad.write_text("train_log: x.csv\npolicy: p.kv\n[intruder u]\nrole: legitimate\nrate_rps: 1\n")
    with pytest.raises(ConfigError):
        load_scenario(bad)  # unknown section


def test_user_spec_validation():
    with pytest.raises(ConfigError):
        UserSpec("u", "legitimate", 0.0, 1, 0, 0, "legitimate")
    with pytest.raises(ConfigError):
        UserSpec("u", "legitimate", 1.0, 0, 0, 0, "legitimate")
    with pytest.raises(ConfigError):
        UserSpec("u", "legitimate", 1.0, 1, 100, 2000, "legitimate")
    with pytest.raises(ConfigError):
        UserSpec("u", "legitimate", 1.0, 1, 0, 0, "telepathic")


def replay_scenario_text(log_name, policy_name, ip_name, eval_name):
    return f"""train_log: {log_name}
eval_log: {eval_name}
policy: {policy_name}
ip_attributes: {ip_name}
duration_s: 0.5
seed: 21
solve_timeout_s: 30

[user 10.0.0.1]
role: legitimate
rate_rps: 8
arrival: 490, 530
spoof: true

[user 203.0.113.1]
role: attacker
rate_rps: 8
flow: replay
"""


@pytest.fixture()
def replay_scenario_file(corpus, tmp_path):
    policy = tmp_path / "p1.kv"
    policy.write_text("policy_kind: linear\n")
    path = tmp_path / "replay.kv"
    path.write_text(
        replay_scenario_text(corpus["logs"][0], policy, corpus["ip"], corpus["logs"][1])
    )
    return path


def test_load_scenario_replay_and_spoof(replay_scenario_file):
    scenario = load_scenario(replay_scenario_file)
    spoofer, replayer = scenario.users
    assert spoofer.spoof and not spoofer.replay_arrival
    assert replayer.flow_kind == "replay"
    assert replayer.replay_arrival  # no explicit arrival -> reuse the log row's
    assert not replayer.spoof


def test_replay_requires_eval_log(tmp_path):
    bad = tmp_path / "bad.kv"
    bad.write_text("train_log: x.csv\npolicy: p.kv\n[user u]\nrole: attacker\nrate_rps: 1\nflow: replay\n")
    with pytest.raises(ConfigError):
        load_scenario(bad)


def test_bad_spoof_value(tmp_path):
    bad = tmp_path / "bad.kv"
    bad.write_text("train_log: x.csv\npolicy: p.kv\n[user u]\nrole: attacker\nrate_rps: 1\nspoof: maybe\n")
    with pytest.raises(ConfigError):
        load_scenario(bad)


def test_replay_user_missing_from_eval_log(replay_scenario_file):
    text = replay_scenario_file.read_text().replace("[user 203.0.113.1]", "[user 203.0.113.99]")
    replay_scenario_file.write_text(text)
    scenario = load_scenario(replay_scenario_file)
    with pytest.raises(ConfigError, match="203.0.113.99"):
        run_simulation(scenario)


def test_replay_and_spoof_simulation(replay_scenario_file):
    result = run_simulation(load_scenario(replay_scenario_file))
    by_user = {row.user_id: row for row in result.report}

    # every spoofed request carries a fresh unknown id, so the temporal
    # score pins at its ceiling
    spoofer = by_user["10.0.0.1"]
    assert spoofer.requests_sent == 4
    assert spoofer.mean_beta == 10.0

    # the replayer resends its own malicious rows, landing near the
    # malicious flow centroid
    replayer = by_user["203.0.113.1"]
    assert replayer.requests_sent == 4
    assert replayer.mean_gamma > 5.0
    for event in result.events:
        assert 0.0 <= event.arrival_min < 1440.0


def test_run_simulation_outputs(scenario_file, tmp_path):
    scenario = load_scenario(scenario_file)
    out = tmp_path / "out"
    result = run_simulation(scenario, out)

    sent = {row.user_id: row.requests_sent for row in result.report}
    assert sent == {"10.0.0.1": 6, "198.51.100.3": 6}
    for row in result.report:
        assert row.admitted + row.rejected + row.abandoned == row.requests_sent

    by_user = {row.user_id: row for row in result.report}
    assert by_user["198.51.100.3"].mean_difficulty > by_user["10.0.0.1"].mean_difficulty

    with open(out / "events.csv") as fh:
        events = list(csv.DictReader(fh))
    assert len(events) == 12
    assert {e["user_id"] for e in events} == {"10.0.0.1", "198.51.100.3"}
    for e in events:
        if e["admitted"] == "1":
            assert e["difficulty"] != ""
            assert float(e["phi"]) >= 0.0
    # the gate's score joins every challenged row and no other
    score_columns = ("alpha", "beta", "gamma", "phi", "deciding_model")
    for e in events:
        filled = [e[c] != "" for c in score_columns]
        assert filled == [e["difficulty"] != ""] * len(score_columns)

    with open(out / "report.csv") as fh:
        report_rows = list(csv.DictReader(fh))
    assert len(report_rows) == 2


def test_simulation_difficulties_reproduce(scenario_file, tmp_path):
    scenario = load_scenario(scenario_file)
    a = run_simulation(scenario, tmp_path / "a")
    b = run_simulation(scenario, tmp_path / "b")

    def difficulty_column(result):
        return sorted(
            (e.user_id, e.request_index, e.outcome.difficulty) for e in result.events
        )

    assert difficulty_column(a) == difficulty_column(b)


def test_difficulty_sweep_rows():
    rows = difficulty_sweep(max_difficulty=3, trials=5, seed=2)
    assert [r.difficulty for r in rows] == [0, 1, 2, 3]
    assert all(r.trials == 5 for r in rows)
    assert rows[0].mean_attempts == 1.0  # difficulty 0 always hits on the first nonce
    assert rows[-1].mean_attempts >= 1.0


def test_write_sweep_csv(tmp_path):
    rows = [SweepRow(difficulty=1, trials=2, median_solve_s=0.5, mean_attempts=2.0)]
    path = write_sweep_csv(rows, tmp_path / "sweep.csv")
    text = path.read_text().splitlines()
    assert text[0] == "difficulty,trials,median_solve_s,mean_attempts"
    assert text[1].startswith("1,2,0.5")
