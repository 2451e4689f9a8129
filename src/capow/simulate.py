"""Closed-loop load simulation against an in-process admission gate.

A scenario file names training logs, a policy, and a roster of users
with request rates and arrival behavior. Users either synthesize flow
vectors from a role archetype or replay their own rows from an eval
log; attackers can additionally spoof a fresh user id per request. The
simulator trains models, starts a loopback gate server, replays each
user from its own thread (sequentially, so slow puzzles throttle that
user's later requests), and merges client outcomes with the server's
scoring log into per-event and per-user CSV reports.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import random
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import pow_core, synthlog
from .cluster_models import DEFAULT_AGING_WINDOW_DAYS, DEFAULT_GAP_MERGE_MIN, ContextScore
from .errors import ConfigError
from .flow_ingest import MINUTES_PER_DAY, ActivityRecord, parse_activity_log
from .kvconfig import as_bool, as_float, as_int, parse_kv_file
from .policy_engine import load_policy
from .protocol import DEFAULT_QUEUE_CAPACITY, GateServer, Request, SessionOutcome
from .protocol import client_session as run_client_session
from .training import train_bundle

logger = logging.getLogger(__name__)

ROLES = ("legitimate", "attacker")
FLOW_KINDS = ("legitimate", "malicious", "replay")

_SCENARIO_KEYS = {
    "train_log", "eval_log", "policy", "duration_s", "seed", "queue_capacity",
    "gap_merge_min", "aging_window_days", "ip_attributes",
    "solve_timeout_s", "expiry_ms",
}
_USER_KEYS = {"role", "rate_rps", "requests", "arrival", "flow", "spoof"}


@dataclass(frozen=True)
class UserSpec:
    user_id: str
    role: str
    rate_rps: float
    requests: int
    arrival_lo: float
    arrival_hi: float
    flow_kind: str
    # replay users without an explicit arrival window reuse the replayed
    # row's timestamp; spoofing sends a fresh random user id per request
    replay_arrival: bool = False
    spoof: bool = False

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ConfigError(f"user {self.user_id}: role must be one of {ROLES}")
        if self.flow_kind not in FLOW_KINDS:
            raise ConfigError(f"user {self.user_id}: flow must be one of {FLOW_KINDS}")
        if self.rate_rps <= 0:
            raise ConfigError(f"user {self.user_id}: rate_rps must be positive")
        if self.requests < 1:
            raise ConfigError(f"user {self.user_id}: request count must be positive")
        if not 0 <= self.arrival_lo <= self.arrival_hi < MINUTES_PER_DAY:
            raise ConfigError(f"user {self.user_id}: arrival range outside the day")

    def sample_arrival(self, rng: random.Random) -> float:
        if self.arrival_lo == self.arrival_hi:
            return self.arrival_lo
        return rng.uniform(self.arrival_lo, self.arrival_hi)


@dataclass(frozen=True)
class SimulationScenario:
    train_logs: tuple[Path, ...]
    policy_path: Path
    users: tuple[UserSpec, ...]
    duration_s: float = 10.0
    seed: int = 0
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    gap_merge_min: float = DEFAULT_GAP_MERGE_MIN
    aging_window_days: int = DEFAULT_AGING_WINDOW_DAYS
    ip_attributes: Path | None = None
    eval_log: Path | None = None
    solve_timeout_s: float | None = 30.0
    expiry_ms: int = pow_core.DEFAULT_EXPIRY_MS

    def __post_init__(self) -> None:
        if not self.train_logs:
            raise ConfigError("scenario needs at least one train_log")
        if not self.users:
            raise ConfigError("scenario needs at least one [user ...] section")
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        replayers = [u.user_id for u in self.users if u.flow_kind == "replay"]
        if replayers and self.eval_log is None:
            raise ConfigError(f"users {replayers} replay flows but no eval_log is given")


def load_scenario(path: str | Path) -> SimulationScenario:
    """Parse and validate a scenario file; paths resolve against its directory."""
    path = Path(path)
    base = path.parent
    doc = parse_kv_file(path)

    unknown = set(doc.top.values) - _SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown scenario keys: {sorted(unknown)}")

    def optional(key: str, parse):
        # an absent key takes the SimulationScenario field's own default
        raw = doc.top.get(key)
        return getattr(SimulationScenario, key) if raw is None else parse(raw, key)

    duration = optional("duration_s", as_float)
    users: list[UserSpec] = []
    for section in doc.sections:
        parts = section.name.split(None, 1)
        if len(parts) != 2 or parts[0] != "user":
            raise ConfigError(f"{path}: unexpected section [{section.name}]")
        bad = set(section.values) - _USER_KEYS
        if bad:
            raise ConfigError(f"{path}: [{section.name}] unknown keys: {sorted(bad)}")
        user_id = parts[1]
        role = section.require("role")
        rate = as_float(section.require("rate_rps"), "rate_rps")
        requests = (
            as_int(section.get("requests"), "requests")
            if section.get("requests") is not None
            else max(1, round(rate * duration))
        )
        flow_kind = section.get("flow") or ("legitimate" if role == "legitimate" else "malicious")
        arrival_raw = section.get("arrival")
        arrival_lo, arrival_hi = _parse_arrival(arrival_raw if arrival_raw is not None else "720")
        spoof_raw = section.get("spoof")
        users.append(
            UserSpec(
                user_id=user_id,
                role=role,
                rate_rps=rate,
                requests=requests,
                arrival_lo=arrival_lo,
                arrival_hi=arrival_hi,
                flow_kind=flow_kind,
                replay_arrival=flow_kind == "replay" and arrival_raw is None,
                spoof=as_bool(spoof_raw, "spoof") if spoof_raw is not None else False,
            )
        )

    ip_attrs = doc.top.get("ip_attributes")
    eval_log = doc.top.get("eval_log")
    solve_timeout = doc.top.get("solve_timeout_s")
    return SimulationScenario(
        train_logs=tuple(base / p for p in doc.top.get_all("train_log")),
        policy_path=base / doc.top.require("policy"),
        users=tuple(users),
        duration_s=duration,
        seed=optional("seed", as_int),
        queue_capacity=optional("queue_capacity", as_int),
        gap_merge_min=optional("gap_merge_min", as_float),
        aging_window_days=optional("aging_window_days", as_int),
        ip_attributes=base / ip_attrs if ip_attrs else None,
        eval_log=base / eval_log if eval_log else None,
        # an empty solve_timeout_s turns the solve deadline off
        solve_timeout_s=None if solve_timeout == "" else optional("solve_timeout_s", as_float),
        expiry_ms=optional("expiry_ms", as_int),
    )


def _parse_arrival(raw: str) -> tuple[float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) == 1:
        value = as_float(parts[0], "arrival")
        return value, value
    if len(parts) == 2:
        return as_float(parts[0], "arrival"), as_float(parts[1], "arrival")
    raise ConfigError(f"arrival takes one minute or 'lo, hi', got {raw!r}")


EVENT_COLUMNS = (
    "user_id", "role", "request_index", "arrival_min",
    "alpha", "beta", "gamma", "phi", "deciding_model",
    "difficulty", "admitted", "reason", "latency_ms", "attempts", "seed_digest",
)

REPORT_COLUMNS = (
    "user_id", "role", "requests_sent", "admitted", "rejected", "abandoned",
    "admit_rate", "mean_difficulty", "mean_phi", "mean_alpha", "mean_beta",
    "mean_gamma", "median_latency_ms",
)


@dataclass
class MergedEvent:
    """One request seen end to end: client outcome joined with the gate's score."""

    user_id: str
    role: str
    request_index: int
    arrival_min: float
    outcome: SessionOutcome
    score: ContextScore | None = None

    def row(self) -> list:
        out = self.outcome
        s = self.score
        scored = [""] * 5 if s is None else [
            f"{s.alpha:.6f}", f"{s.beta:.6f}", f"{s.gamma:.6f}", f"{s.phi:.6f}",
            s.deciding_model.value,
        ]
        return [
            self.user_id, self.role, self.request_index, f"{self.arrival_min:.3f}",
            *scored,
            "" if out.difficulty is None else out.difficulty,
            int(out.admitted), out.reason or "", f"{out.latency_ms:.3f}",
            out.attempts, out.seed_digest or "",
        ]


@dataclass
class ReportRow:
    user_id: str
    role: str
    requests_sent: int
    admitted: int
    rejected: int
    abandoned: int
    admit_rate: float
    mean_difficulty: float | None
    mean_phi: float | None
    mean_alpha: float | None
    mean_beta: float | None
    mean_gamma: float | None
    median_latency_ms: float

    def row(self) -> list:
        fmt = lambda x: "" if x is None else f"{x:.6f}"
        return [
            self.user_id, self.role, self.requests_sent, self.admitted,
            self.rejected, self.abandoned, f"{self.admit_rate:.4f}",
            fmt(self.mean_difficulty), fmt(self.mean_phi), fmt(self.mean_alpha),
            fmt(self.mean_beta), fmt(self.mean_gamma), f"{self.median_latency_ms:.3f}",
        ]


@dataclass
class SimulationResult:
    events: list[MergedEvent]
    report: list[ReportRow]
    events_path: Path | None = None
    report_path: Path | None = None


def run_simulation(
    scenario: SimulationScenario,
    out_dir: str | Path | None = None,
    *,
    plots: bool = False,
) -> SimulationResult:
    """Train, serve, replay the roster, and merge both sides of the session log."""
    bundle, train_report = train_bundle(
        scenario.train_logs,
        ip_attributes_path=scenario.ip_attributes,
        aging_window_days=scenario.aging_window_days,
        gap_merge_min=scenario.gap_merge_min,
    )
    policy = load_policy(scenario.policy_path)
    replay_rows = _load_replay_rows(scenario)
    server = GateServer(
        bundle,
        policy,
        queue_capacity=scenario.queue_capacity,
        expiry_ms=scenario.expiry_ms,
    )
    address = server.start()
    logger.info(
        "gate on %s:%d, policy %s, contexts %s",
        address[0], address[1], policy.policy_kind, sorted(train_report.contexts_enabled),
    )

    per_user: dict[str, list[tuple[int, float, SessionOutcome]]] = {u.user_id: [] for u in scenario.users}
    threads = [
        threading.Thread(
            target=_drive_user,
            args=(spec, address, scenario, per_user[spec.user_id], replay_rows.get(spec.user_id)),
            name=f"capow-user-{spec.user_id}",
            daemon=True,
        )
        for spec in scenario.users
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    server.stop()

    scores = {e.seed_digest: e.score for e in server.events if e.seed_digest}
    events = [
        MergedEvent(spec.user_id, spec.role, index, arrival, outcome, scores.get(outcome.seed_digest))
        for spec in scenario.users
        for index, arrival, outcome in per_user[spec.user_id]
    ]

    report = [_summarize(spec, [e for e in events if e.user_id == spec.user_id])
              for spec in scenario.users]
    result = SimulationResult(events=events, report=report)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        result.events_path = _write_csv(out_dir / "events.csv", EVENT_COLUMNS, (e.row() for e in events))
        result.report_path = _write_csv(out_dir / "report.csv", REPORT_COLUMNS, (r.row() for r in report))
        if plots:
            render_score_plot(events, out_dir / "scores.png")
    return result


def _load_replay_rows(scenario: SimulationScenario) -> dict[str, list[ActivityRecord]]:
    """Group the eval log by user id and check every replayer has rows."""
    if scenario.eval_log is None:
        return {}
    rows: dict[str, list[ActivityRecord]] = {}
    for record in parse_activity_log(scenario.eval_log).records:
        rows.setdefault(record.user_id, []).append(record)
    for spec in scenario.users:
        if spec.flow_kind == "replay" and not rows.get(spec.user_id):
            raise ConfigError(
                f"user {spec.user_id} replays flows but has no rows in {scenario.eval_log}"
            )
    return rows


def _drive_user(
    spec: UserSpec,
    address: tuple[str, int],
    scenario: SimulationScenario,
    sink: list[tuple[int, float, SessionOutcome]],
    replay_rows: Sequence[ActivityRecord] | None,
) -> None:
    """Send this user's requests at its nominal rate, one at a time.

    Sessions run sequentially, so a slow puzzle pushes the later requests
    past their schedule; that backpressure is the effect under study.
    """
    digest = hashlib.blake2b(
        f"{scenario.seed}:{spec.user_id}".encode(), digest_size=8
    ).digest()
    rng = random.Random(int.from_bytes(digest, "big"))
    interval = 1.0 / spec.rate_rps
    t0 = time.monotonic()
    for index in range(spec.requests):
        delay = (t0 + index * interval) - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        if spec.flow_kind == "replay":
            record = replay_rows[index % len(replay_rows)]
            features = record.flow_features
            arrival = record.timestamp_min if spec.replay_arrival else spec.sample_arrival(rng)
        else:
            arrival = spec.sample_arrival(rng)
            features = synthlog.sample_flow(rng, spec.flow_kind)
        wire_id = spec.user_id
        if spec.spoof:
            wire_id = f"{spec.user_id}-{rng.getrandbits(32):08x}"
        request = Request(user_id=wire_id, arrival_min=arrival, flow_features=features)
        outcome = run_client_session(
            request, address, solve_deadline_s=scenario.solve_timeout_s
        )
        sink.append((index, arrival, outcome))


def _summarize(spec: UserSpec, events: Sequence[MergedEvent]) -> ReportRow:
    admitted = sum(1 for e in events if e.outcome.admitted)
    abandoned = sum(1 for e in events if e.outcome.reason == "abandoned")
    rejected = len(events) - admitted - abandoned
    difficulties = [e.outcome.difficulty for e in events if e.outcome.difficulty is not None]
    scores = [e.score for e in events if e.score is not None]
    latencies = [e.outcome.latency_ms for e in events]
    mean = lambda xs: statistics.fmean(xs) if xs else None
    return ReportRow(
        user_id=spec.user_id,
        role=spec.role,
        requests_sent=len(events),
        admitted=admitted,
        rejected=rejected,
        abandoned=abandoned,
        admit_rate=admitted / len(events) if events else 0.0,
        mean_difficulty=mean(difficulties),
        mean_phi=mean([s.phi for s in scores]),
        mean_alpha=mean([s.alpha for s in scores]),
        mean_beta=mean([s.beta for s in scores]),
        mean_gamma=mean([s.gamma for s in scores]),
        median_latency_ms=statistics.median(latencies) if latencies else 0.0,
    )


def _write_csv(path: Path, header: Sequence[str], rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# ── Difficulty sweep ─────────────────────────────────────────────────


@dataclass(frozen=True)
class SweepRow:
    difficulty: int
    trials: int
    median_solve_s: float
    mean_attempts: float


def difficulty_sweep(
    max_difficulty: int = 12,
    trials: int = 30,
    seed: int = 0,
    difficulties: Sequence[int] | None = None,
) -> list[SweepRow]:
    """Median wall-clock solve time per difficulty level over fresh puzzles."""
    levels = list(difficulties) if difficulties is not None else list(range(max_difficulty + 1))
    rng = random.Random(seed)
    rows = []
    for d in levels:
        times = []
        attempts = []
        for _ in range(trials):
            challenge = pow_core.issue_challenge(b"sweep", d, now_ms=0, rng=rng)
            start = time.perf_counter()
            solution = pow_core.solve(challenge)
            times.append(time.perf_counter() - start)
            attempts.append(solution.attempts)
        rows.append(
            SweepRow(
                difficulty=d,
                trials=trials,
                median_solve_s=statistics.median(times),
                mean_attempts=statistics.fmean(attempts),
            )
        )
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> Path:
    return _write_csv(
        Path(path),
        ("difficulty", "trials", "median_solve_s", "mean_attempts"),
        ([r.difficulty, r.trials, f"{r.median_solve_s:.6f}", f"{r.mean_attempts:.2f}"] for r in rows),
    )


# ── Plots (optional; needs matplotlib) ───────────────────────────────


def render_score_plot(events: Sequence[MergedEvent], path: str | Path) -> Path | None:
    """Scatter fused scores per request, colored by roster role."""
    plt = _pyplot()
    if plt is None:
        return None
    fig, ax = plt.subplots(figsize=(8, 4.5))
    colors = {"legitimate": "tab:blue", "attacker": "tab:red"}
    for role in ROLES:
        xs = [i for i, e in enumerate(events) if e.role == role and e.score is not None]
        ys = [e.score.phi for e in events if e.role == role and e.score is not None]
        if xs:
            ax.scatter(xs, ys, s=18, label=role, color=colors[role], alpha=0.8)
    ax.set_xlabel("request")
    ax.set_ylabel("fused score")
    ax.set_ylim(-0.5, 10.5)
    ax.legend()
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    plt.close(fig)
    return Path(path)


def render_sweep_plot(rows: Sequence[SweepRow], path: str | Path) -> Path | None:
    """Median solve time against difficulty, log-scaled."""
    plt = _pyplot()
    if plt is None:
        return None
    fig, ax = plt.subplots(figsize=(8, 4.5))
    ax.plot([r.difficulty for r in rows], [max(r.median_solve_s, 1e-7) for r in rows], marker="o")
    ax.set_xlabel("difficulty (leading zero bits)")
    ax.set_ylabel("median solve time (s)")
    ax.set_yscale("log")
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    plt.close(fig)
    return Path(path)


def _pyplot():
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        return plt
    except ImportError:
        logger.warning("matplotlib not installed; skipping plot")
        return None
