from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import socket
import threading

import pytest

from capow import cli
from capow.errors import ConfigError, SchemaError
from capow.flow_ingest import RESERVED_COLUMNS
from capow.simulate import HASH_RATE, UserSpec, load_scenario, run_simulation


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
    bad.write_text("train_log: x.csv\npolicy: p.kv\n[user u]\nrole: legitimate\nrate_rps: 1\nburst: 9\n")
    with pytest.raises(ConfigError, match=r"unknown keys: \['burst'\]"):
        load_scenario(bad)  # unknown user key


def test_a_user_id_given_twice_is_refused(tmp_path, capsys):
    bad = tmp_path / "bad.kv"
    bad.write_text("train_log: x.csv\npolicy: p.kv\n[user u]\nrole: legitimate\nrate_rps: 1\n"
                   "[user u]\nrole: attacker\nrate_rps: 1\n")
    with pytest.raises(ConfigError, match="user u is given twice"):
        load_scenario(bad)
    assert cli.main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


def test_requests_rate_times_duration_that_overflows_is_refused(tmp_path):
    bad = tmp_path / "bad.kv"
    bad.write_text("train_log: x.csv\npolicy: p.kv\nduration_s: 1e200\n[user u]\nrole: legitimate\nrate_rps: 1e200\n")
    with pytest.raises(ConfigError, match="overflows"):
        load_scenario(bad)


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


def rewrite_flow_columns(src, dst, pick) -> None:
    """Copy an activity log, keeping its reserved columns and the flow columns ``pick`` returns, in that order."""
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    flows = [name for name in rows[0] if name not in RESERVED_COLUMNS]
    with open(dst, "w", newline="") as fh:
        writer = csv.DictWriter(fh, [name for name in rows[0] if name in RESERVED_COLUMNS] + pick(flows),
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("pick", [lambda flows: flows[::-1], lambda flows: flows[:-1]],
                         ids=["reversed", "one-fewer"])
def test_an_eval_log_with_other_flow_columns_is_refused(corpus, replay_scenario_file, tmp_path, capsys, pick):
    eval_log = tmp_path / "eval.csv"
    rewrite_flow_columns(corpus["logs"][1], eval_log, pick)
    replay_scenario_file.write_text(replay_scenario_file.read_text().replace(str(corpus["logs"][1]), str(eval_log)))
    with pytest.raises(SchemaError, match="flow columns .* differ from"):
        run_simulation(load_scenario(replay_scenario_file))
    assert cli.main(["simulate", "--scenario", str(replay_scenario_file), "--out", str(tmp_path / "out")]) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "events.csv").exists()


@pytest.mark.parametrize("pick", [lambda flows: flows[1:3], lambda flows: flows[::-1]],
                         ids=["two-columns", "reversed"])
def test_synthesized_flows_on_other_training_columns_are_refused(corpus, tmp_path, capsys, pick):
    train_log = tmp_path / "train.csv"
    rewrite_flow_columns(corpus["logs"][0], train_log, pick)
    (tmp_path / "p.kv").write_text("policy_kind: linear\n")
    scenario = tmp_path / "s.kv"
    scenario.write_text("train_log: train.csv\npolicy: p.kv\n\n[user 10.0.0.1]\nrole: legitimate\n"
                        "rate_rps: 4\nrequests: 4\nflow: legitimate\n")
    with pytest.raises(SchemaError, match="flow columns .* differ from"):
        run_simulation(load_scenario(scenario))
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "events.csv").exists()


def test_a_replay_only_roster_runs_on_other_flow_columns(corpus, tmp_path):
    for day, log in enumerate(corpus["logs"]):
        rewrite_flow_columns(log, tmp_path / f"day{day}.csv", lambda flows: flows[::-1])
    (tmp_path / "p.kv").write_text("policy_kind: linear\n")
    scenario = tmp_path / "s.kv"
    scenario.write_text(f"train_log: day0.csv\neval_log: day1.csv\npolicy: p.kv\nip_attributes: {corpus['ip']}\n\n"
                        "[user 203.0.113.1]\nrole: attacker\nrate_rps: 8\nrequests: 4\nflow: replay\n")
    result = run_simulation(load_scenario(scenario))
    assert [row.user_id for row in result.report] == ["203.0.113.1"]
    assert result.report[0].requests_sent == 4
    assert all(event.outcome.reason != "bad-request" for event in result.events)


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
    run_simulation(scenario, tmp_path / "a")
    run_simulation(scenario, tmp_path / "b")
    for name in ("events.csv", "report.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


PINNED_SCENARIO = """train_log: {log}
policy: {policy}
ip_attributes: {ip}
duration_s: 1
seed: 5

[user 10.0.0.1]
role: legitimate
rate_rps: 3
arrival: 490, 530

[user 198.51.100.9]
role: attacker
rate_rps: 3
arrival: 200, 260
spoof: true
"""


def test_simulation_outputs_are_pinned(corpus, tmp_path):
    # a seeded scenario's files are byte-identical from run to run and across interpreters;
    # a change that means to move them updates these digests and says why
    policy = tmp_path / "policy.kv"
    policy.write_text("policy_kind: error_range\nrng_seed: 17\n")
    path = tmp_path / "scenario.kv"
    path.write_text(PINNED_SCENARIO.format(log=corpus["logs"][0], policy=policy, ip=corpus["ip"]))
    result = run_simulation(load_scenario(path), tmp_path / "out")
    assert {e.outcome.reason for e in result.events} == {None}  # every session admitted
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in ("events.csv", "report.csv")}
    assert digests == {
        "events.csv": "cfda90c84264efcdb5b3fde516c1da47e72f0bcae9fbf7233291d920a7163c29",
        "report.csv": "03f5cf7d189fed46baea4e235198c50b6f12b5ee1074cfe985d0b595dbe68606",
    }


def test_simulation_starts_no_thread_and_opens_no_socket(replay_scenario_file, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the simulator must run on one thread without sockets")

    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    result = run_simulation(load_scenario(replay_scenario_file))
    assert sum(row.requests_sent for row in result.report) == 8


def test_solve_timeout_is_a_hash_budget_on_the_virtual_clock(scenario_file):
    scenario = dataclasses.replace(load_scenario(scenario_file), solve_timeout_s=0.004)
    budget = math.ceil(0.004 * HASH_RATE)
    outcomes = [event.outcome for event in run_simulation(scenario).events]
    for out in outcomes:
        assert out.latency_ms == out.attempts / HASH_RATE * 1000.0
        assert out.attempts <= budget
        assert out.admitted or (out.reason == "abandoned" and out.attempts == budget)
    assert {out.admitted for out in outcomes} == {True, False}


def test_negative_solve_timeout_is_refused(scenario_file):
    with pytest.raises(ConfigError, match="solve_timeout_s"):
        dataclasses.replace(load_scenario(scenario_file), solve_timeout_s=-1.0)

