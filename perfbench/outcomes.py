"""Session records, outcome accounting and the benchmark's correctness gate."""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import NamedTuple, Sequence

from capow import pow_core
from capow.persistence import load_bundle
from capow.policy_engine import load_policy, map_difficulty, request_rng
from capow.protocol import GateServer, RejectReason, Request

from workloads import ATTACKER_ROLES, FLOOD, LEGIT

# Every way a session can end, as the client sees it: admitted, a flood
# session that got its CHALLENGE and hung up, each REJECT reason, or no
# usable reply (transport) in time (timeout).
REASONS = ("admitted", "challenged", *(r.label for r in RejectReason), "transport", "timeout")
NO_REPLY = ("transport", "timeout")


class Record(NamedTuple):
    """One session as the client saw it."""

    role: str
    index: int  # request index in the plan
    reason: str
    difficulty: int | None  # from the CHALLENGE, None when there was none
    position: int | None  # from the ACCEPT
    latency_s: float  # from send (closed loop) or due time (open loop) to the last reply
    lag_s: float  # how late the open-loop generator started the session
    end_s: float  # perf_counter() when the session ended


def session_ok(record: Record) -> bool:
    """A legit session must be admitted; an attacker only has to be priced."""
    if record.role == LEGIT:
        return record.reason == "admitted"
    return record.difficulty is not None


def exchange_failed(record: Record) -> bool:
    """Whether the session's exchange with the gate broke down.

    A flood session waits for its CHALLENGE; every other session waits
    for a verdict on its solution. ACCEPT and the full queue's REJECT
    ``overloaded`` are both verdicts the gate is built to give, so they
    end the exchange; whether the role wanted them is ``session_ok``.
    No reply, or any other REJECT of a well-formed, solved session, is a
    failed exchange.
    """
    if record.role == FLOOD:
        return record.reason != "challenged"
    return record.reason not in ("admitted", "overloaded")


def count_reasons(records: Sequence[Record]) -> Counter:
    counts = Counter({reason: 0 for reason in REASONS})
    counts.update(r.reason for r in records)
    return counts


def reference_difficulties(bundle_dir: Path, policy_path: Path, requests: Sequence[Request]) -> list[int]:
    """The difficulty each request must be charged, computed the way ``capow score`` does."""
    bundle = load_bundle(bundle_dir)
    policy = load_policy(policy_path)
    gate = GateServer(bundle, policy)
    out = []
    for req in requests:
        score = gate.score_request(req)
        rng = None
        if policy.policy_kind == "error_range":
            rng = request_rng(policy, req.user_id, req.arrival_min, req.flow_features)
        out.append(min(map_difficulty(policy, score.phi, rng), pow_core.MAX_DIFFICULTY))
    return out


def gate_errors(records: Sequence[Record], reference: Sequence[int]) -> list[str]:
    """Check one server's sessions: every CHALLENGE priced as the reference says,
    and the ACCEPTs holding queue positions exactly 1..K."""
    errors = [
        f"{r.role} request {r.index}: CHALLENGE difficulty {r.difficulty}, reference {reference[r.index]}"
        for r in records
        if r.difficulty is not None and r.difficulty != reference[r.index]
    ]
    positions = sorted(r.position for r in records if r.reason == "admitted")
    if positions != list(range(1, len(positions) + 1)):
        errors.append(f"the {len(positions)} ACCEPT queue positions are not exactly 1..{len(positions)}")
    return errors


def attacker_work_ratio(records: Sequence[Record]) -> float:
    """Mean 2^d charged to attackers over mean 2^d charged to legit sessions."""
    def mean_work(roles) -> float:
        work = [2.0 ** r.difficulty for r in records if r.role in roles and r.difficulty is not None]
        return sum(work) / len(work) if work else 0.0

    legit = mean_work((LEGIT,))
    return mean_work(ATTACKER_ROLES) / legit if legit else 0.0
