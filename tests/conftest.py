from __future__ import annotations

import logging

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
def gate_handler_errors_fail():
    """Fail the test if a gate session raised; the serving loop only logs it and serves on.

    Yields the recorded failures, so a test that provokes one can check it and clear the list.
    """
    errors: list[str] = []

    class Record(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            errors.append(self.format(record))

    handler = Record(logging.ERROR)
    gate_logger = logging.getLogger("capow.protocol")
    gate_logger.addHandler(handler)
    try:
        yield errors
    finally:
        gate_logger.removeHandler(handler)
    assert not errors, "a gate session raised:\n" + "\n".join(errors)
