"""Synthetic activity-log generation.

Produces labeled flow logs and IP attribute tables with the same shape as
real capture exports, so training, simulation, and tests can run without
external datasets. Legitimate users browse in fixed daily windows with
moderate flow statistics; attackers emit rapid short flows around the
clock from a distinct address block.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

from .flow_ingest import MINUTES_PER_DAY

FLOW_COLUMNS = ("duration_ms", "fwd_packets", "bwd_packets", "bytes_per_s", "mean_packet_len")

LEGIT_BLOCK = "10.0.0."
ATTACK_BLOCK = "203.0.113."


@dataclass(frozen=True)
class SyntheticUser:
    user_id: str
    label: str
    windows: tuple[tuple[float, float], ...]
    requests_per_day: int

    def __post_init__(self) -> None:
        for lo, hi in self.windows:
            if not 0 <= lo < hi <= MINUTES_PER_DAY:
                raise ValueError(f"window ({lo}, {hi}) outside the day")


def default_population(n_legit: int = 4, n_attackers: int = 2) -> tuple[SyntheticUser, ...]:
    """A small mixed population with staggered legitimate activity windows."""
    users = []
    for i in range(n_legit):
        # start 90 minutes apart, wrapping every 10 users; an evening
        # window that would run past midnight moves to the morning
        start = 8 * 60 + (i * 90.0) % 900.0
        late = start + 600.0 if start + 660.0 <= MINUTES_PER_DAY else start - 600.0
        windows = ((start, start + 60.0), (late, late + 60.0))
        users.append(
            SyntheticUser(
                user_id=f"{LEGIT_BLOCK}{i + 1}",
                label="legitimate",
                windows=windows,
                requests_per_day=40,
            )
        )
    for i in range(n_attackers):
        users.append(
            SyntheticUser(
                user_id=f"{ATTACK_BLOCK}{i + 1}",
                label="malicious",
                windows=((0.0, MINUTES_PER_DAY),),
                requests_per_day=400,
            )
        )
    return tuple(users)


def sample_flow(rng: random.Random, label: str) -> tuple[float, ...]:
    """Draw one flow feature vector; attack flows are short, fast, and one-sided."""
    if label == "malicious":
        return (
            max(0.5, rng.gauss(8.0, 3.0)),
            max(10.0, rng.gauss(120.0, 30.0)),
            max(0.0, rng.gauss(1.0, 1.0)),
            max(1e4, rng.gauss(8e5, 2e5)),
            max(20.0, rng.gauss(64.0, 10.0)),
        )
    return (
        max(5.0, rng.gauss(900.0, 250.0)),
        max(1.0, rng.gauss(18.0, 6.0)),
        max(1.0, rng.gauss(16.0, 6.0)),
        max(1e2, rng.gauss(2.5e4, 8e3)),
        max(40.0, rng.gauss(620.0, 120.0)),
    )


def write_activity_log(
    path: str | Path,
    users: tuple[SyntheticUser, ...] | None = None,
    *,
    days: int = 1,
    seed: int = 0,
    include_day_column: bool = True,
    include_labels: bool = True,
) -> int:
    """Write a CSV activity log; returns the number of data rows."""
    users = users if users is not None else default_population()
    rng = random.Random(seed)
    rows: list[tuple] = []
    for day in range(days):
        for user in users:
            spans = [hi - lo for lo, hi in user.windows]
            total = sum(spans)
            for _ in range(user.requests_per_day):
                pick = rng.uniform(0, total)
                for (lo, hi), span in zip(user.windows, spans):
                    if pick <= span:
                        t = min(lo + pick, MINUTES_PER_DAY - 1e-6)
                        break
                    pick -= span
                rows.append((day, t, user, sample_flow(rng, user.label)))
    rows.sort(key=lambda r: (r[0], r[1]))

    header = ["user_id", "timestamp"]
    if include_day_column:
        header.append("day")
    if include_labels:
        header.append("label")
    header.extend(FLOW_COLUMNS)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for day, t, user, flow in rows:
            row: list = [user.user_id, f"{t:.3f}"]
            if include_day_column:
                row.append(day)
            if include_labels:
                row.append(user.label)
            row.extend(f"{x:.3f}" for x in flow)
            writer.writerow(row)
    return len(rows)


def write_ip_attributes(
    path: str | Path,
    users: tuple[SyntheticUser, ...] | None = None,
    *,
    seed: int = 0,
) -> int:
    """Write an IP attribute table (reputation, geo risk, abuse reports)."""
    users = users if users is not None else default_population()
    rng = random.Random(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ip", "reputation", "geo_risk", "abuse_reports"])
        for user in users:
            if user.label == "malicious":
                row = (rng.uniform(0.0, 0.2), rng.uniform(0.7, 1.0), rng.uniform(50, 200))
            else:
                row = (rng.uniform(0.7, 1.0), rng.uniform(0.0, 0.3), rng.uniform(0, 5))
            writer.writerow([user.user_id] + [f"{x:.4f}" for x in row])
    return len(users)
