"""Tests of the benchmark itself: correctness gate, span recorder, plans and metric names.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import threading

import pytest

import outcomes
import run
import spans
import workloads
from capow.policy_engine import make_policy
from capow.persistence import load_bundle
from capow.protocol import GateServer


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    work = tmp_path_factory.mktemp("perfbench")
    workloads.build_bundle(workloads.build_roster(), work)
    (work / "linear.kv").write_text(workloads.POLICIES["linear"], encoding="utf-8")
    return work


def _serve_and_check(work, plan, sessions, policy):
    reference = outcomes.reference_difficulties(work / "bundle", work / "linear.kv", plan.requests)
    with GateServer(load_bundle(work / "bundle"), policy) as gate:
        records = run.Client(gate.address, plan).closed(sessions)
    return records, outcomes.gate_errors(records, reference)


def test_gate_passes_a_server_priced_like_the_reference(trained):
    work = trained
    plan = workloads.make_plan("steady-legit", 3, work / "bundle", 1)
    records, errors = _serve_and_check(work, plan, plan.prefix[:40], make_policy("linear"))
    assert errors == []
    assert all(r.reason in ("admitted", "challenged") for r in records)
    assert sorted(r.position for r in records if r.position) == list(range(1, sum(r.reason == "admitted" for r in records) + 1))


def test_gate_catches_a_server_that_prices_differently(trained):
    work = trained
    plan = workloads.make_plan("steady-legit", 3, work / "bundle", 1)
    _, errors = _serve_and_check(work, plan, plan.prefix[:40], make_policy("linear_shifted"))
    assert errors and all("CHALLENGE difficulty" in e for e in errors)


def test_open_loop_times_sessions_from_their_due_time(trained):
    work = trained
    plan = workloads.make_plan("abandon-flood", 4, work / "bundle", 1)
    plan.lanes = [lane[:15] for lane in plan.lanes]
    reference = outcomes.reference_difficulties(work / "bundle", work / "linear.kv", plan.requests)
    with GateServer(load_bundle(work / "bundle"), make_policy("linear")) as gate:
        records = run.Client(gate.address, plan).open(plan.lanes)
    assert len(records) == 30
    assert outcomes.gate_errors(records, reference) == []
    assert {r.reason for r in records if r.role == workloads.FLOOD} == {"challenged"}
    assert all(r.latency_s >= 0 and r.lag_s >= 0 for r in records)


def _record(index, difficulty, reason="admitted", position=None, role=workloads.LEGIT, latency_s=0.001):
    return outcomes.Record(role, index, reason, difficulty, position, latency_s, 0.0, float(index))


def test_gate_catches_a_single_injected_difficulty_mismatch():
    reference = [3, 3, 10]
    good = [_record(0, 3, position=1), _record(1, 3, position=2),
            _record(2, 10, "challenged", role=workloads.FLOOD)]
    assert outcomes.gate_errors(good, reference) == []
    bad = good[:2] + [_record(2, 9, "challenged", role=workloads.FLOOD)]
    assert len(outcomes.gate_errors(bad, reference)) == 1


@pytest.mark.parametrize("positions", [(1, 3), (1, 1), (2, 3), (0, 1)])
def test_gate_catches_queue_positions_other_than_one_to_k(positions):
    records = [_record(i, 3, position=p) for i, p in enumerate(positions)]
    assert outcomes.gate_errors(records, [3] * len(records))


def test_outcomes_count_flood_ok_only_with_a_challenge_and_legit_only_when_admitted():
    assert outcomes.session_ok(_record(0, 3, "admitted", 1))
    assert not outcomes.session_ok(_record(0, 3, "overloaded"))
    assert outcomes.session_ok(_record(0, 10, "challenged", role=workloads.FLOOD))
    assert not outcomes.session_ok(_record(0, None, "transport", role=workloads.FLOOD))
    assert outcomes.session_ok(_record(0, 10, "overloaded", role=workloads.PAYER))


def test_exchange_fails_only_without_the_answer_the_role_waits_for():
    assert not outcomes.exchange_failed(_record(0, 3, "admitted", 1))
    assert not outcomes.exchange_failed(_record(0, 3, "overloaded"))
    assert not outcomes.exchange_failed(_record(0, 10, "overloaded", role=workloads.PAYER))
    assert not outcomes.exchange_failed(_record(0, 10, "challenged", role=workloads.FLOOD))
    for reason in ("expired", "replay", "wrong-solution", "bad-request", "unavailable", "transport", "timeout"):
        assert outcomes.exchange_failed(_record(0, 3, reason))
    assert outcomes.exchange_failed(_record(0, None, "bad-request", role=workloads.FLOOD))


def test_ok_frac_does_not_depend_on_how_many_window_sessions_fit():
    plan = workloads.Plan("linear", connections=2)
    prefix = [_record(0, 3, position=1), _record(1, 3, "overloaded"),
              _record(2, 10, "challenged", role=workloads.FLOOD)]

    def metrics(window_len):
        window = [_record(3 + i, 3, "overloaded") for i in range(window_len)]
        result = run.PhaseResult(prefix, window, 1.0, 1.0, 1.0, 20.0)
        return run.end_to_end(plan, result, [0.1])

    slow, fast = metrics(100), metrics(400)
    assert slow["ok_frac"] == fast["ok_frac"] == pytest.approx(2 / 3)
    assert slow["attacker_work_ratio"] == fast["attacker_work_ratio"]
    assert fast["sessions_per_s"] == 4 * slow["sessions_per_s"]


def test_tail_is_the_median_of_per_chunk_percentiles():
    # three chunks of 1000 for p99; the middle one holds a stall that must not set the result
    records = []
    for i in range(3000):
        stalled = 1000 <= i < 1100
        records.append(_record(i, 3, latency_s=0.050 if stalled else 0.001 + (i % 1000) * 1e-6))
    assert run.chunked_percentile(records, 99) == pytest.approx(1.0 + 989e-3)
    assert run.chunked_percentile(records[:1000], 99) == pytest.approx(1.0 + 989e-3)
    # p95 uses chunks of 200, so each chunk still has ten sessions beyond its percentile
    assert run.chunked_percentile(records[2000:2200], 95) == pytest.approx(1.0 + 189e-3)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile([], 99) == 0.0


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 10
        return self.now


def test_tracer_self_time_excludes_direct_children():
    tracer = spans.Tracer(FakeClock())
    leaf = tracer.wrap("leaf", lambda: 7, lambda result, args: result)
    outer = tracer.wrap("outer", lambda: leaf() + leaf())
    assert outer() == 14
    recorded = spans.read_spans(tracer.names, tracer.buf)
    assert [s.name for s in recorded] == ["leaf", "leaf", "outer"]
    leaf_a, leaf_b, top = recorded
    assert (leaf_a.depth, top.depth) == (1, 0)
    assert leaf_a.value == 7 and top.value == 0
    assert top.self_ns == top.total_ns - leaf_a.total_ns - leaf_b.total_ns
    assert len({s.sid for s in recorded}) == 1


def test_tracer_records_concurrent_threads_without_interleaving():
    tracer = spans.Tracer(FakeClock())
    inner = tracer.wrap("inner", lambda i: i, lambda result, args: result)
    outer = tracer.wrap("outer", lambda i: inner(i))

    def worker(offset):
        for i in range(2000):
            tracer.begin_session()
            outer(offset + i)

    threads = [threading.Thread(target=worker, args=(k * 10_000,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    recorded = spans.read_spans(tracer.names, tracer.buf)
    assert len(recorded) == 4 * 2000 * 2
    values = sorted(s.value for s in recorded if s.name == "inner")
    assert values == sorted(k * 10_000 + i for k in range(4) for i in range(2000))
    assert len({s.sid for s in recorded}) == 4 * 2000


def test_tracer_marks_split_the_buffer():
    tracer = spans.Tracer(FakeClock())
    f = tracer.wrap("f", lambda: None)
    f()
    mark = tracer.offset()
    f()
    f()
    assert len(spans.read_spans(tracer.names, tracer.buf, 0, mark)) == 1
    assert len(spans.read_spans(tracer.names, tracer.buf, mark)) == 2


def test_plans_repeat_for_a_seed_and_change_with_it(trained):
    for name in workloads.WORKLOADS:
        a = workloads.make_plan(name, 5, trained / "bundle", 2)
        b = workloads.make_plan(name, 5, trained / "bundle", 2)
        c = workloads.make_plan(name, 6, trained / "bundle", 2)
        assert a.requests == b.requests and a.prefix == b.prefix and a.lanes == b.lanes
        assert a.requests != c.requests


def test_abandon_flood_schedule_is_fixed_by_rate_and_seconds(trained):
    plan = workloads.make_plan("abandon-flood", 1, trained / "bundle", 4)
    legit, flood = plan.lanes
    assert len(legit) == 4 * workloads.FLOOD_LEGIT_RATE and len(flood) == 4 * workloads.FLOOD_ATTACK_RATE
    assert {s.role for _, s in legit} == {workloads.LEGIT}
    assert {s.role for _, s in flood} == {workloads.FLOOD}


def test_roster_has_distinct_users():
    roster = workloads.build_roster()
    assert sum(u.label == "legitimate" for u in roster) == workloads.N_LEGIT
    ids = [u.user_id for u in roster]
    assert len(set(ids)) == len(ids)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
