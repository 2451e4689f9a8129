"""The benchmark's inputs: roster, model bundle, policies and traffic plans.

The roster and the bundle trained from it are fixed (``ROSTER_SEED``), so
every workload and every seed is priced by the same models. The workload
seed draws only the requests, their roles and their order.

Roles: ``legit`` sessions come from trained roster users, arriving
inside an activity interval the bundle learned for them, with legitimate
flows, and run the whole session;
``flood`` sessions send a REQUEST with a spoofed id and a malicious flow
and hang up after the CHALLENGE; ``payer`` sessions are spoofing
attackers that solve their puzzle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from capow import synthlog
from capow.flow_ingest import MINUTES_PER_DAY
from capow.persistence import load_bundle, save_bundle
from capow.protocol import Request
from capow.training import train_bundle

ROSTER_SEED = 20230127
N_LEGIT = 300
N_ATTACKERS = 20
TRAIN_DAYS = 4
WINDOW_MIN = 60.0

LEGIT, FLOOD, PAYER = "legit", "flood", "payer"
ATTACKER_ROLES = (FLOOD, PAYER)

POLICIES = {
    "linear": "policy_kind: linear\n",
    "error_range": "policy_kind: error_range\nrng_seed: 7\n",
}

# abandon-flood's offered rates (sessions/s); together well below steady-legit capacity
FLOOD_LEGIT_RATE = 150.0
FLOOD_ATTACK_RATE = 450.0


def build_roster() -> tuple[synthlog.SyntheticUser, ...]:
    """A few hundred legitimate users with two daily windows each, plus attackers.

    Built from ``SyntheticUser`` directly: ``default_population`` places
    windows past midnight once it has five or more legitimate users.
    """
    rng = random.Random(ROSTER_SEED)
    users = []
    for i in range(N_LEGIT):
        starts = sorted(rng.uniform(0.0, MINUTES_PER_DAY - WINDOW_MIN) for _ in range(2))
        windows = [(starts[0], starts[0] + WINDOW_MIN)]
        if starts[1] <= windows[0][1]:
            windows[0] = (starts[0], starts[1] + WINDOW_MIN)
        else:
            windows.append((starts[1], starts[1] + WINDOW_MIN))
        users.append(synthlog.SyntheticUser(
            user_id=f"10.0.{i // 200}.{i % 200 + 1}",
            label="legitimate",
            windows=tuple(windows),
            requests_per_day=24,
        ))
    for i in range(N_ATTACKERS):
        users.append(synthlog.SyntheticUser(
            user_id=f"203.0.113.{i + 1}",
            label="malicious",
            windows=((0.0, MINUTES_PER_DAY),),
            requests_per_day=200,
        ))
    return tuple(users)


def build_bundle(roster: tuple[synthlog.SyntheticUser, ...], workdir: Path) -> Path:
    """Write several days of logs plus an IP table, train, and save the bundle."""
    logs = []
    for day in range(TRAIN_DAYS):
        path = workdir / f"day{day}.csv"
        synthlog.write_activity_log(path, roster, days=1, seed=ROSTER_SEED + day,
                                    include_day_column=False)
        logs.append(path)
    ip_path = workdir / "ip.csv"
    synthlog.write_ip_attributes(ip_path, roster, seed=ROSTER_SEED)
    bundle, report = train_bundle(logs, ip_attributes_path=ip_path)
    if report.contexts_enabled != {"dabr", "tam", "flow"}:
        raise RuntimeError(f"roster trained only {sorted(report.contexts_enabled)}")
    return save_bundle(bundle, workdir / "bundle")


def legit_request(rng: random.Random, user_id: str, intervals) -> Request:
    """A trained user arriving inside one of the activity intervals the bundle learned."""
    widths = [end - start for start, end in intervals]
    start, end = rng.choices(intervals, weights=widths)[0] if any(widths) else rng.choice(intervals)
    return Request(user_id, rng.uniform(start, end), synthlog.sample_flow(rng, "legitimate"))


def spoofed_request(rng: random.Random) -> Request:
    """An attacker claiming an id from 198.18.0.0/15, which no roster user holds."""
    user_id = f"198.{18 + rng.randrange(2)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
    return Request(user_id, rng.uniform(0.0, MINUTES_PER_DAY - 1e-3),
                   synthlog.sample_flow(rng, "malicious"))


@dataclass(frozen=True)
class Session:
    role: str
    index: int  # into Plan.requests; the correctness gate looks up its reference here


@dataclass
class Plan:
    """Everything one run sends, drawn from the workload seed before it starts.

    ``prefix`` is sent once, closed loop, before the timed window. A
    closed-loop window cycles through ``pool``; an open-loop window sends
    ``lanes``, one list of ``(due_s, session)`` per connection.
    """

    policy: str
    connections: int
    requests: list[Request] = field(default_factory=list)
    prefix: list[Session] = field(default_factory=list)
    pool: list[Session] = field(default_factory=list)
    lanes: list[list[tuple[float, Session]]] = field(default_factory=list)

    @property
    def open_loop(self) -> bool:
        return bool(self.lanes)

    def add(self, role: str, request: Request) -> Session:
        self.requests.append(request)
        return Session(role, len(self.requests) - 1)


def _draw(plan: Plan, rng: random.Random, legit_users, role: str) -> Session:
    if role == LEGIT:
        user_id, intervals = rng.choice(legit_users)
        return plan.add(role, legit_request(rng, user_id, intervals))
    return plan.add(role, spoofed_request(rng))


def plan_steady_legit(rng: random.Random, legit_users, seconds: int) -> Plan:
    plan = Plan("linear", connections=2)
    # 256 flood probes ride in the prefix only, so attacker_work_ratio has attackers to price
    roles = [LEGIT] * 2048 + [FLOOD] * 256
    rng.shuffle(roles)
    plan.prefix = [_draw(plan, rng, legit_users, role) for role in roles]
    plan.pool = [_draw(plan, rng, legit_users, LEGIT) for _ in range(4096)]
    return plan


def plan_abandon_flood(rng: random.Random, legit_users, seconds: int) -> Plan:
    plan = Plan("linear", connections=2)
    roles = [LEGIT] * 128 + [FLOOD] * 384
    rng.shuffle(roles)
    plan.prefix = [_draw(plan, rng, legit_users, role) for role in roles]
    for role, rate in ((LEGIT, FLOOD_LEGIT_RATE), (FLOOD, FLOOD_ATTACK_RATE)):
        plan.lanes.append([
            (k / rate, _draw(plan, rng, legit_users, role)) for k in range(int(rate * seconds))
        ])
    return plan


def plan_priced_mix(rng: random.Random, legit_users, seconds: int) -> Plan:
    plan = Plan("error_range", connections=1)
    plan.prefix = [_draw(plan, rng, legit_users, rng.choice((LEGIT, PAYER))) for _ in range(1536)]
    plan.pool = [_draw(plan, rng, legit_users, rng.choice((LEGIT, PAYER))) for _ in range(4096)]
    return plan


WORKLOADS = {
    "steady-legit": plan_steady_legit,
    "abandon-flood": plan_abandon_flood,
    "priced-mix": plan_priced_mix,
}


def make_plan(workload: str, seed: int, bundle_dir: Path, seconds: int) -> Plan:
    """Draw a workload's plan; legit users and their intervals come from the trained bundle."""
    legit_users = sorted(load_bundle(bundle_dir).tam.intervals.items())  # TAM learns legit users only
    return WORKLOADS[workload](random.Random(seed), legit_users, seconds)
