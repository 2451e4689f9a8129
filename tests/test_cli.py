from __future__ import annotations

import socket
import struct
import subprocess
import sys
import time

import pytest

from capow.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
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


def test_report_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["report", "--max-difficulty", "4", "--trials", "3", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "difficulty,trials,median_solve_s,mean_attempts"
    assert len(lines) == 6  # header + difficulties 0..4


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
