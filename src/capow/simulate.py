"""Closed-loop load simulation against an in-process admission gate.

A scenario file names training logs, a policy, and a roster of users
with request rates and arrival behavior. Users either synthesize flow
vectors from a role archetype or replay their own rows from an eval
log; attackers can additionally spoof a fresh user id per request. The
simulator trains models, then runs the roster on one thread and a
virtual clock, calling the gate's handlers directly (each user sends
sequentially, so slow puzzles throttle its later requests). Every client
hashes at ``HASH_RATE``, so ``solve_timeout_s`` and ``latency_ms`` are
virtual time, and a scenario's outputs are byte-reproducible. The TCP
path is left to ``serve``, the protocol tests and the benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import logging
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import pow_core, synthlog
from .cluster_models import DEFAULT_AGING_WINDOW_DAYS, DEFAULT_GAP_MERGE_MIN, ContextScore
from .errors import ConfigError, SchemaError, SolveTimeout
from .flow_ingest import MINUTES_PER_DAY, ActivityRecord, parse_activity_log
from .kvconfig import as_bool, as_float, as_int, as_str, parse_kv_file
from .policy_engine import load_policy
from .protocol import ABANDONED, DEFAULT_QUEUE_CAPACITY, GateServer, Request, SessionOutcome, SolutionMsg
from .training import train_bundle

logger = logging.getLogger(__name__)

ROLES = ("legitimate", "attacker")
HASH_RATE = 1_000_000  # hashes per virtual second, the same for every simulated client
FLOW_KINDS = ("legitimate", "malicious", "replay")


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
        if self.solve_timeout_s is not None and self.solve_timeout_s < 0:
            raise ConfigError("solve_timeout_s must be at least 0")
        replayers = [u.user_id for u in self.users if u.flow_kind == "replay"]
        if replayers and self.eval_log is None:
            raise ConfigError(f"users {replayers} replay flows but no eval_log is given")


def _parse_arrival(raw: str, key: str) -> tuple[float, float]:
    minutes = [as_float(part, key) for part in raw.split(",")]
    if len(minutes) > 2:
        raise ConfigError(f"{key} takes one minute or 'lo, hi', got {raw!r}")
    return minutes[0], minutes[-1]


def _as_path(raw: str, key: str) -> Path | None:
    return Path(raw) if raw else None


def _as_deadline(raw: str, key: str) -> float | None:
    return as_float(raw, key) if raw else None


# Scenario-file key: (SimulationScenario field, parser); an omitted key keeps the
# field's default. load_scenario reads the required policy and the repeated train_log.
SCENARIO_TABLE = {
    "train_log": ("train_logs", None),
    "policy": ("policy_path", None),
    "eval_log": ("eval_log", _as_path),
    "ip_attributes": ("ip_attributes", _as_path),
    "duration_s": ("duration_s", as_float),
    "seed": ("seed", as_int),
    "queue_capacity": ("queue_capacity", as_int),
    "gap_merge_min": ("gap_merge_min", as_float),
    "aging_window_days": ("aging_window_days", as_int),
    "solve_timeout_s": ("solve_timeout_s", _as_deadline),  # empty: no solve deadline
    "expiry_ms": ("expiry_ms", as_int),
}

# [user <id>] key: (UserSpec field, parser); role and rate_rps are required.
USER_TABLE = {
    "role": ("role", as_str),
    "rate_rps": ("rate_rps", as_float),
    "requests": ("requests", as_int),
    "arrival": ("arrival", _parse_arrival),  # sets arrival_lo and arrival_hi
    "flow": ("flow_kind", as_str),
    "spoof": ("spoof", as_bool),
}


def load_scenario(path: str | Path) -> SimulationScenario:
    """Parse and validate a scenario file; paths resolve against its directory."""
    path = Path(path)
    base = path.parent
    doc = parse_kv_file(path)
    given = doc.top.read(SCENARIO_TABLE, str(path))
    duration = given.get("duration_s", SimulationScenario.duration_s)
    users: dict[str, UserSpec] = {}  # by id: a user's rng and report row are keyed by it
    for section in doc.sections:
        parts = section.name.split(None, 1)
        if len(parts) != 2 or parts[0] != "user":
            raise ConfigError(f"{path}: unexpected section [{section.name}]")
        if parts[1] in users:
            raise ConfigError(f"{path}: user {parts[1]} is given twice")
        user = section.read(USER_TABLE, f"{path}: [{section.name}]")
        section.require("role")
        section.require("rate_rps")
        arrival = user.pop("arrival", None)
        user["arrival_lo"], user["arrival_hi"] = arrival or (720.0, 720.0)
        if not user.get("flow_kind"):  # an omitted or empty flow takes the role's archetype
            user["flow_kind"] = "legitimate" if user["role"] == "legitimate" else "malicious"
        user["replay_arrival"] = user["flow_kind"] == "replay" and arrival is None
        if "requests" not in user:
            planned = user["rate_rps"] * duration
            if not math.isfinite(planned):
                raise ConfigError(f"{path}: [{section.name}]: rate_rps * duration_s overflows")
            user["requests"] = max(1, round(planned))
        users[parts[1]] = UserSpec(user_id=parts[1], **user)
    return SimulationScenario(
        train_logs=tuple(base / p for p in doc.top.get_all("train_log")),
        policy_path=base / doc.top.require("policy"),
        users=tuple(users.values()),
        **{name: base / value if isinstance(value, Path) else value for name, value in given.items()},
    )


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
    """One request seen end to end: the session's outcome and the gate's score for it."""

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


def run_simulation(scenario: SimulationScenario, out_dir: str | Path | None = None) -> SimulationResult:
    """Train, then replay the roster against the gate on a virtual clock."""
    bundle, train_report = train_bundle(
        scenario.train_logs,
        ip_attributes_path=scenario.ip_attributes,
        aging_window_days=scenario.aging_window_days,
        gap_merge_min=scenario.gap_merge_min,
    )
    policy = load_policy(scenario.policy_path)
    replay_rows = _load_replay_rows(scenario, bundle.flow_columns)
    synthesizers = [u.user_id for u in scenario.users if u.flow_kind != "replay"]
    if synthesizers and bundle.flow_columns != synthlog.FLOW_COLUMNS:
        raise SchemaError(f"users {synthesizers} synthesize flow columns {synthlog.FLOW_COLUMNS}, "
                          f"which differ from {bundle.flow_columns}")
    now = 0.0  # virtual seconds; the gate's clock reads it
    server = GateServer(
        bundle,
        policy,
        queue_capacity=scenario.queue_capacity,
        expiry_ms=scenario.expiry_ms,
        clock_ms=lambda: int(now * 1000),
        seed_rng=random.Random(scenario.seed),
    )
    logger.info("policy %s, contexts %s", policy.policy_kind, sorted(train_report.contexts_enabled))

    per_user: list[list[MergedEvent]] = [[] for _ in scenario.users]
    users = [_drive_user(spec, server, scenario, replay_rows.get(spec.user_id), sink)
             for spec, sink in zip(scenario.users, per_user)]
    # (virtual time, roster position, user): a tie goes to the earlier roster entry
    heap = [(next(user), position, user) for position, user in enumerate(users)]
    heapq.heapify(heap)
    while heap:
        now, position, user = heapq.heappop(heap)
        wake = next(user, None)
        if wake is not None:
            heapq.heappush(heap, (wake, position, user))

    events = [event for sink in per_user for event in sink]
    report = [_summarize(spec, sink) for spec, sink in zip(scenario.users, per_user)]
    result = SimulationResult(events=events, report=report)

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        result.events_path = write_csv(out_dir / "events.csv", EVENT_COLUMNS, (e.row() for e in events))
        result.report_path = write_csv(out_dir / "report.csv", REPORT_COLUMNS, (r.row() for r in report))
    return result


def _load_replay_rows(
    scenario: SimulationScenario, flow_columns: tuple[str, ...]
) -> dict[str, list[ActivityRecord]]:
    """Group the eval log by user id; check it has the training flow columns and every replayer has rows."""
    if scenario.eval_log is None:
        return {}
    parsed = parse_activity_log(scenario.eval_log)
    if parsed.flow_columns != flow_columns:
        raise SchemaError(f"{scenario.eval_log}: flow columns {parsed.flow_columns} differ from {flow_columns}")
    rows: dict[str, list[ActivityRecord]] = {}
    for record in parsed.records:
        rows.setdefault(record.user_id, []).append(record)
    for spec in scenario.users:
        if spec.flow_kind == "replay" and not rows.get(spec.user_id):
            raise ConfigError(
                f"user {spec.user_id} replays flows but has no rows in {scenario.eval_log}"
            )
    return rows


def _drive_user(
    spec: UserSpec,
    gate: GateServer,
    scenario: SimulationScenario,
    replay_rows: Sequence[ActivityRecord] | None,
    sink: list[MergedEvent],
):
    """Send this user's requests at its nominal rate, one at a time.

    A generator that yields the virtual time of each next step. A request
    goes out at the later of its schedule and the previous session's end,
    so a slow puzzle delays the later ones; that backpressure is the
    effect under study.
    """
    digest = hashlib.blake2b(
        f"{scenario.seed}:{spec.user_id}".encode(), digest_size=8
    ).digest()
    rng = random.Random(int.from_bytes(digest, "big"))
    budget = None if scenario.solve_timeout_s is None else math.ceil(scenario.solve_timeout_s * HASH_RATE)
    interval = 1.0 / spec.rate_rps
    end = 0.0
    for index in range(spec.requests):
        sent = max(index * interval, end)
        yield sent
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
        reply, session = gate.handle_request(request)
        if session is None:
            outcome = SessionOutcome(wire_id, False, reply.reason.label, 0.0, 0, None, None)
            sink.append(MergedEvent(spec.user_id, spec.role, index, arrival, outcome))
            continue
        try:
            solution = pow_core.solve(session.challenge, max_attempts=budget)
            attempts = solution.attempts
        except SolveTimeout:
            solution, attempts = None, budget
        end = sent + attempts / HASH_RATE
        yield end  # the SOLUTION arrives, or the client gives up, when hashing ends
        if solution is None:
            gate.abandon(session)
        else:
            gate.handle_solution(session, SolutionMsg(solution.seed_digest, solution.nonce))
        event = session.event
        outcome = SessionOutcome(wire_id, event.admitted, event.reason, attempts / HASH_RATE * 1000.0,
                                 attempts, event.difficulty, event.seed_digest)
        sink.append(MergedEvent(spec.user_id, spec.role, index, arrival, outcome, event.score))


def _summarize(spec: UserSpec, events: Sequence[MergedEvent]) -> ReportRow:
    admitted = sum(1 for e in events if e.outcome.admitted)
    abandoned = sum(1 for e in events if e.outcome.reason == ABANDONED)
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


def write_csv(path: Path, header: Sequence[str], rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path

