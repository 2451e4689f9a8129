from __future__ import annotations

import argparse
import json
import math
import socket
import struct
import subprocess
import sys
import time

import pytest

from capow import cli
from capow.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main
from capow.persistence import load_bundle
from capow.policy_engine import load_policy
from capow.protocol import (
    ChallengeMsg,
    GateServer,
    Request,
    decode_message,
    encode_message,
    read_frame,
    write_frame,
)


@pytest.fixture()
def workspace(tmp_path):
    """Synthetic data plus a trained bundle produced through the CLI."""
    log = tmp_path / "day0.csv"
    ip = tmp_path / "ip.csv"
    models = tmp_path / "models"
    assert main(["synth", "--out-log", str(log), "--out-ip", str(ip), "--seed", "3"]) == EXIT_OK
    assert main(["train", "--log", str(log), "--ip-attributes", str(ip),
                 "--out", str(models)]) == EXIT_OK
    policy = tmp_path / "p2.kv"
    policy.write_text("policy_kind: linear_shifted\n")
    return {"log": log, "ip": ip, "models": models, "policy": policy, "root": tmp_path}


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required flags
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE


def test_missing_file_exits_2(tmp_path):
    code = main(["train", "--log", str(tmp_path / "ghost.csv"), "--out", str(tmp_path / "m")])
    assert code == EXIT_DATA


def test_train_partial_exits_2(tmp_path, capsys):
    log = tmp_path / "legit.csv"
    log.write_text("user_id,timestamp,label,f1\nu1,10,legitimate,1\nu1,20,legitimate,2\n")
    code = main(["train", "--log", str(log), "--out", str(tmp_path / "m")])
    assert code == EXIT_DATA
    out = capsys.readouterr().out
    assert "warning" in out
    assert "contexts enabled: tam" in out


def test_score_human_and_csv_output(workspace, capsys):
    base = ["score", "--models", str(workspace["models"]), "--policy", str(workspace["policy"]),
            "--user", "10.0.0.1", "--arrival", "500", "--features", "900,18,16,25000,620"]
    assert main(base) == EXIT_OK
    human = capsys.readouterr().out
    assert "fused score" in human
    assert "difficulty" in human

    assert main(base + ["--csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "user_id,alpha,beta,gamma,phi,deciding_model,difficulty"
    fields = lines[1].split(",")
    assert fields[0] == "10.0.0.1"
    assert fields[5] in {"dabr", "tam", "flow"}
    assert 10 <= int(fields[6]) <= 20


def test_score_policy_from_environment(workspace, capsys, monkeypatch):
    monkeypatch.setenv("CAPOW_POLICY", str(workspace["policy"]))
    code = main(["score", "--models", str(workspace["models"]), "--user", "u9",
                 "--arrival", "10", "--features", "1,2,3,4,5"])
    assert code == EXIT_OK
    assert "difficulty" in capsys.readouterr().out


def test_score_without_policy_exits_1(workspace, monkeypatch, capsys):
    monkeypatch.delenv("CAPOW_POLICY", raising=False)
    code = main(["score", "--models", str(workspace["models"]), "--user", "u",
                 "--arrival", "1", "--features", "1,2,3,4,5"])
    assert code == EXIT_USAGE


def test_bad_features_exit_1(workspace):
    code = main(["score", "--models", str(workspace["models"]), "--policy", str(workspace["policy"]),
                 "--user", "u", "--arrival", "1", "--features", "a,b"])
    assert code == EXIT_USAGE


def test_score_accepts_csv_row(workspace, capsys):
    base = ["score", "--models", str(workspace["models"]), "--policy", str(workspace["policy"])]
    assert main(base + ["--user", "10.0.0.1", "--arrival", "500",
                        "--features", "900,18,16,25000,620", "--csv"]) == EXIT_OK
    from_flags = capsys.readouterr().out
    assert main(base + ["--row", "10.0.0.1, 500, 900, 18, 16, 25000, 620", "--csv"]) == EXIT_OK
    assert capsys.readouterr().out == from_flags


def test_score_request_argument_errors(workspace):
    base = ["score", "--models", str(workspace["models"]), "--policy", str(workspace["policy"])]
    # row and flags are mutually exclusive
    assert main(base + ["--row", "u,1,2", "--user", "u"]) == EXIT_USAGE
    # neither form complete
    assert main(base + ["--user", "u", "--arrival", "1"]) == EXIT_USAGE
    # row too short to hold any feature
    assert main(base + ["--row", "u,500"]) == EXIT_USAGE
    # arrival outside the day
    assert main(base + ["--user", "u", "--arrival", "2000",
                        "--features", "1,2,3,4,5"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "policy_text",
    ["policy_kind: linear\n", "policy_kind: linear_shifted\n", "policy_kind: error_range\nrng_seed: 11\n"],
)
def test_score_prints_the_difficulty_serve_charges(workspace, capsys, policy_text):
    policy_path = workspace["root"] / "priced.kv"
    policy_path.write_text(policy_text)
    requests = [
        Request("10.0.0.1", 500.0, (900.0, 18.0, 16.0, 25000.0, 620.0)),
        Request("10.0.0.2", 1200.5, (850.0, 20.0, 14.0, 24000.0, 600.0)),
        Request("203.0.113.1", 30.25, (8.0, 120.0, 1.0, 800000.0, 64.0)),
        Request("198.51.100.7", 720.0, (400.0, 60.0, 8.0, 300000.0, 300.0)),
    ]
    gate = GateServer(load_bundle(workspace["models"]), load_policy(policy_path))
    with gate:
        charged = []
        for req in requests:
            with socket.create_connection(gate.address, timeout=10) as sock:
                write_frame(sock, encode_message(req))
                charged.append(decode_message(read_frame(sock)).difficulty)
    printed = []
    for req in requests:
        features = ",".join(repr(x) for x in req.flow_features)
        assert main(["score", "--models", str(workspace["models"]), "--policy", str(policy_path),
                     "--user", req.user_id, "--arrival", repr(req.arrival_min),
                     "--features", features, "--csv"]) == EXIT_OK
        printed.append(int(capsys.readouterr().out.strip().splitlines()[1].rsplit(",", 1)[1]))
    assert printed == charged


def test_score_refuses_non_finite_features(workspace):
    base = ["score", "--models", str(workspace["models"]), "--policy", str(workspace["policy"]),
            "--user", "10.0.0.1", "--arrival", "500"]
    assert main(base + ["--features", "nan,18,16,25000,620"]) == EXIT_DATA
    assert main(base + ["--features", "900,18,16,inf,620"]) == EXIT_DATA


def test_score_refuses_a_bundle_the_gate_cannot_use(workspace, capsys):
    # dropping the IP table leaves a 3-dimension DAbR centroid against 4 address octets
    manifest = workspace["models"] / "manifest.json"
    doc = json.loads(manifest.read_text())
    del doc["files"]["ip_table"]
    manifest.write_text(json.dumps(doc))
    code = main(["score", "--models", str(workspace["models"]), "--policy", str(workspace["policy"]),
                 "--user", "10.0.0.1", "--arrival", "500", "--features", "900,18,16,25000,620"])
    assert code == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


def test_score_prices_a_tam_document_whose_first_user_holds_no_interval(workspace, capsys):
    tam = workspace["models"] / "tam.json"
    doc = json.loads(tam.read_text())
    doc["intervals"] = {"0.0.0.0": [], "10.0.0.1": [[500.0, 510.0]]}
    tam.write_text(json.dumps(doc))
    policy = workspace["root"] / "tam.kv"
    policy.write_text("policy_kind: linear\ncontexts: tam\n")
    base = ["score", "--models", str(workspace["models"]), "--policy", str(policy),
            "--features", "900,18,16,25000,620", "--csv"]
    rows = []
    for user, arrival in [("10.0.0.1", "505"), ("10.0.0.1", "700"), ("0.0.0.0", "505")]:
        assert main(base + ["--user", user, "--arrival", arrival]) == EXIT_OK
        rows.append(capsys.readouterr().out.strip().splitlines()[1].split(","))
    inside, after, empty = rows
    assert (inside[2], inside[6]) == ("0.000000", "0")
    assert after[5] == "tam" and 0 < int(after[6]) < 10
    assert (empty[2], empty[5], empty[6]) == ("10.000000", "tam", "10")


def test_score_refuses_a_policy_none_of_whose_contexts_the_bundle_holds(workspace, capsys):
    models = workspace["root"] / "no-feed"
    assert main(["train", "--log", str(workspace["log"]), "--out", str(models)]) == EXIT_OK
    capsys.readouterr()
    policy = workspace["root"] / "dabr.kv"
    policy.write_text("policy_kind: linear_shifted\ncontexts: dabr\n")
    base = ["score", "--models", str(models), "--user", "10.0.0.1", "--arrival", "500",
            "--features", "900,18,16,25000,620"]
    assert main(base + ["--policy", str(policy)]) == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err
    # the default policy enables all three contexts and prices with the two the bundle holds
    assert main(base + ["--policy", str(workspace["policy"])]) == EXIT_OK
    assert "difficulty" in capsys.readouterr().out


def test_score_refuses_an_unreadable_manifest(workspace, capsys):
    manifest = workspace["models"] / "manifest.json"
    manifest.write_text(manifest.read_text().rstrip().rstrip("}") + ",}")  # a trailing comma
    code = main(["score", "--models", str(workspace["models"]), "--policy", str(workspace["policy"]),
                 "--user", "10.0.0.1", "--arrival", "500", "--features", "900,18,16,25000,620"])
    assert code == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


def test_score_refuses_a_policy_number_it_cannot_price_with(workspace, capsys):
    policy = workspace["root"] / "broken.kv"
    base = ["score", "--models", str(workspace["models"]), "--policy", str(policy),
            "--user", "198.51.100.66", "--arrival", "3", "--features", "8,120,1,800000,64"]
    for text in ["epsilon: nan", "score_min: nan", "weights: nan, 1, 1", "score_max: inf",
                 "difficulty_max: 1000", "difficulty_max: " + "9" * 401]:
        policy.write_text(f"policy_kind: linear_shifted\n{text}\n")
        assert main(base) == EXIT_USAGE, text
        assert "configuration error" in capsys.readouterr().err


def test_synth_more_legit_users_than_fit_one_day(tmp_path, capsys):
    assert main(["synth", "--out-log", str(tmp_path / "log.csv"), "--legit", "12"]) == EXIT_OK
    assert "wrote" in capsys.readouterr().out


def test_serve_rejects_bad_endpoint(workspace):
    code = main(["serve", "--models", str(workspace["models"]),
                 "--policy", str(workspace["policy"]), "--listen", "nonsense"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("flags", [["--expiry-ms", "-1"], ["--expiry-ms", "5000000000"],
                                   ["--queue-capacity", "0"]],
                         ids=["negative-expiry", "expiry-over-u32", "no-queue"])
def test_serve_rejects_gate_config_it_cannot_serve(workspace, capsys, flags):
    code = main(["serve", "--models", str(workspace["models"]),
                 "--policy", str(workspace["policy"]), *flags])
    assert code == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


def test_report_prices_each_difficulty_at_both_rates(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "measure_hash_rates", lambda: (1e6, 2e7))
    out = tmp_path / "report.csv"
    assert main(["report", "--max-difficulty", "10", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "difficulty,hashes,reference_s,native_s"
    assert lines[1] == "0,1,1e-06,5e-08"
    assert lines[11] == "10,1024,0.001024,5.12e-05"
    assert len(lines) == 12
    printed = capsys.readouterr().out
    assert "reference rate: 1e+06 hashes/s" in printed
    assert "native ceiling: 2e+07 hashes/s" in printed


def test_report_runs_to_difficulty_64(capsys):
    assert main(["report", "--max-difficulty", "64"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[3:]
    assert len(rows) == 65
    assert rows[-1].split()[:2] == ["64", str(2**64)]


def test_report_into_a_closed_pipe_ends_quietly():
    # the report measures for ~0.3 s before its first write; the reader is gone long before
    proc = subprocess.Popen([sys.executable, "-m", "capow.cli", "report", "--max-difficulty", "64"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (EXIT_OK, b"")


@pytest.mark.parametrize("flags", [["--max-difficulty", "65"], ["--max-difficulty", "-1"]],
                         ids=["difficulty-over-64", "negative-difficulty"])
def test_report_refuses_a_sweep_it_cannot_run(capsys, flags):
    assert main(["report", *flags]) == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


def test_serve_refuses_a_port_past_65535(workspace, capsys):
    code = main(["serve", "--models", str(workspace["models"]),
                 "--policy", str(workspace["policy"]), "--listen", "127.0.0.1:70000"])
    assert code == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


def test_solve_refuses_a_port_past_65535(monkeypatch, capsys):
    def dial(*args, **kwargs):
        raise AssertionError("solve dialled a port it should have refused")

    monkeypatch.setattr(socket, "create_connection", dial)
    code = main(["solve", "--port", "70000", "--user", "10.0.0.1",
                 "--arrival", "500", "--features", "1,2,3,4,5"])
    assert code == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


def test_solve_refuses_a_negative_timeout(monkeypatch, capsys):
    def dial(*args, **kwargs):
        raise AssertionError("solve dialled with a deadline already past")

    monkeypatch.setattr(socket, "create_connection", dial)
    code = main(["solve", "--port", "7757", "--user", "10.0.0.1", "--arrival", "500",
                 "--features", "1,2,3,4,5", "--timeout", "-0.5"])
    assert code == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--legit", "-1"], ["--attackers", "-1"], ["--days", "0"]],
                         ids=["negative-legit", "negative-attackers", "no-days"])
def test_synth_refuses_a_count_below_its_floor(tmp_path, capsys, flags):
    log = tmp_path / "log.csv"
    assert main(["synth", "--out-log", str(log), *flags]) == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err
    assert not log.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("flag", ["--gap-merge", "--dabr-delta-max"])
def test_train_refuses_a_non_finite_or_negative_flag(workspace, capsys, flag, value):
    code = main(["train", "--log", str(workspace["log"]), "--ip-attributes", str(workspace["ip"]),
                 "--out", str(workspace["root"] / "retrained"), flag, value])
    assert code == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err
    assert not (workspace["root"] / "retrained").exists()


@pytest.mark.parametrize("flags", [["--gap-merge", "-1"], ["--aging-window", "0"]],
                         ids=["negative-gap-merge", "no-aging-window"])
def test_train_refuses_tam_settings_when_no_temporal_model_trains(tmp_path, capsys, flags):
    log = tmp_path / "malicious.csv"
    log.write_text("user_id,timestamp,label,f1\n203.0.113.9,10,malicious,1\n")
    code = main(["train", "--log", str(log), "--out", str(tmp_path / "m"), *flags])
    assert code == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_train_refuses_a_non_finite_ip_attribute(workspace, capsys, cell):
    header, first, *rest = workspace["ip"].read_text().splitlines()
    cells = first.split(",")
    cells[1] = cell
    feed = workspace["root"] / "ip_bad.csv"
    feed.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    code = main(["train", "--log", str(workspace["log"]), "--ip-attributes", str(feed),
                 "--out", str(workspace["root"] / "retrained")])
    assert code == EXIT_DATA
    assert "IP attribute values must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
def test_score_refuses_a_non_finite_model_number(workspace, capsys, value):
    dabr = workspace["models"] / "dabr.json"
    dabr.write_text(json.dumps({**json.loads(dabr.read_text()), "delta_max": value}))
    code = main(["score", "--models", str(workspace["models"]), "--policy", str(workspace["policy"]),
                 "--user", "198.51.100.66", "--arrival", "3", "--features", "8,120,1,800000,64"])
    assert code == EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


def test_no_option_parses_a_bare_float():
    # float() takes "nan" and "inf"; each float option parses through the finite check
    parsers, bare = [build_parser()], []
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if action.type is float:
                bare.append(f"{parser.prog} {action.option_strings}")
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert bare == []


def test_serve_and_solve_subprocess(workspace):
    proc = subprocess.Popen(
        [sys.executable, "-m", "capow.cli", "serve",
         "--models", str(workspace["models"]), "--policy", str(workspace["policy"]),
         "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line
        port = int(line.rsplit(":", 1)[1])
        _wait_for_port(port)
        code = main(["solve", "--port", str(port), "--user", "10.0.0.1",
                     "--arrival", "500", "--features", "900,18,16,25000,620",
                     "--timeout", "30"])
        assert code == EXIT_OK
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_serve_keeps_answering_when_nobody_reads_its_stderr(workspace):
    # a narrow score range clamps every spoofed request's score; neither the
    # clamp nor the request itself may write to stderr, or a full pipe stalls
    # every session
    policy = workspace["root"] / "narrow.kv"
    policy.write_text("policy_kind: linear\nscore_max: 5\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "capow.cli", "serve",
         "--models", str(workspace["models"]), "--policy", str(policy),
         "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        port = int(proc.stdout.readline().rsplit(":", 1)[1])
        _wait_for_port(port)
        features = (900.0, 18.0, 16.0, 25000.0, 620.0)
        for i in range(2000):
            # request a challenge, then hang up without solving it
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                write_frame(sock, encode_message(Request(f"spoof-{i:04d}", 500.0, features)))
                reply = decode_message(read_frame(sock))
            assert isinstance(reply, ChallengeMsg), f"session {i} got {reply!r}"
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()


def test_simulate_command(workspace, capsys):
    scenario = workspace["root"] / "scenario.kv"
    scenario.write_text(
        f"""train_log: {workspace['log'].name}
policy: {workspace['policy'].name}
ip_attributes: {workspace['ip'].name}
duration_s: 1
seed: 5
solve_timeout_s: 5

[user 10.0.0.1]
role: legitimate
rate_rps: 3
arrival: 490, 530

[user 198.51.100.9]
role: attacker
rate_rps: 3
"""
    )
    out_dir = workspace["root"] / "sim"
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out_dir)])
    assert code == EXIT_OK
    assert (out_dir / "events.csv").exists()
    assert (out_dir / "report.csv").exists()
    table = capsys.readouterr().out
    assert "10.0.0.1" in table
    assert "198.51.100.9" in table


def _wait_for_port(port, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                return
        except OSError:
            time.sleep(0.05)
    raise TimeoutError(f"port {port} never opened")
