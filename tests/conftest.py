from __future__ import annotations

import socketserver
import traceback

import pytest

from capow import synthlog
from capow.training import train_bundle


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """A synthetic two-day training corpus plus IP attribute feed."""
    root = tmp_path_factory.mktemp("corpus")
    users = synthlog.default_population()
    paths = []
    for day in range(2):
        path = root / f"day{day}.csv"
        synthlog.write_activity_log(path, users, days=1, seed=100 + day,
                                    include_day_column=False)
        paths.append(path)
    ip_path = root / "ip.csv"
    synthlog.write_ip_attributes(ip_path, users, seed=5)
    return {"logs": paths, "ip": ip_path, "users": users, "root": root}


@pytest.fixture(scope="session")
def trained(corpus):
    """Bundle trained on the full synthetic corpus (all three contexts)."""
    bundle, report = train_bundle(corpus["logs"], ip_attributes_path=corpus["ip"])
    assert report.contexts_enabled == frozenset({"dabr", "tam", "flow"})
    return bundle


@pytest.fixture(autouse=True)
def gate_handler_errors_fail(monkeypatch):
    """Fail the test if a socketserver handler raised; socketserver itself only prints it."""
    errors: list[str] = []

    def record(server, request, client_address) -> None:
        errors.append(traceback.format_exc())

    monkeypatch.setattr(socketserver.BaseServer, "handle_error", record)
    yield
    assert not errors, "a gate handler raised:\n" + "\n".join(errors)
