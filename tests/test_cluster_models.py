from __future__ import annotations

import math
import random

import pytest

from capow.cluster_models import (
    ModelName,
    TemporalModel,
    context_score,
    euclid_distance,
    fuse_scores,
    merge_arrivals,
    score_dabr,
    score_flow,
    score_tam,
    tam_local_deviation,
    train_dabr,
    train_flow,
    train_tam,
)
from capow.errors import (
    ConfigError,
    DegenerateModelError,
    EmptyTrainingSetError,
)
from capow.flow_ingest import ActivityRecord


def rec(user, t, day=0, label="legitimate"):
    return ActivityRecord(user, t, day, (1.0,), label)


# ── Distance and score normalization ─────────────────────────────────


def test_euclid_distance_known_values():
    assert euclid_distance((0, 0), (3, 4)) == 5.0
    assert euclid_distance((1, 1, 1), (1, 1, 1)) == 0.0
    assert euclid_distance((0,), (2,)) == 2.0


def test_euclid_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        euclid_distance((1, 2), (1, 2, 3))


def test_context_score_saturation_and_bounds():
    assert context_score(0.0, 10.0) == 0.0
    assert context_score(5.0, 10.0) == 5.0
    assert context_score(10.0, 10.0) == 10.0
    assert context_score(50.0, 10.0) == 10.0
    assert context_score(3.0, 12.0, scale=6) == 1.5
    with pytest.raises(ConfigError):
        context_score(1.0, 0.0)
    with pytest.raises(ValueError):
        context_score(-1.0, 10.0)


# ── DAbR ─────────────────────────────────────────────────────────────


def test_train_dabr_centroid_and_default_delta_max():
    model = train_dabr([(0.0, 0.0), (1.0, 1.0)])
    assert model.centroid == (0.5, 0.5)
    assert model.delta_max == math.sqrt(2)

    custom = train_dabr([(0.0, 0.0)], delta_max=3.0)
    assert custom.delta_max == 3.0


def test_score_dabr_inverts_distance():
    model = train_dabr([(0.0, 0.0)], delta_max=1.0)
    assert score_dabr(model, (0.0, 0.0)) == 10.0
    assert score_dabr(model, (1.0, 0.0)) == 0.0
    assert score_dabr(model, (5.0, 0.0)) == 0.0
    mid = score_dabr(model, (0.5, 0.0))
    assert abs(mid - 5.0) < 1e-12


def test_train_dabr_empty():
    with pytest.raises(EmptyTrainingSetError):
        train_dabr([])


# ── TAM ──────────────────────────────────────────────────────────────


def test_merge_arrivals_gap_splitting():
    assert merge_arrivals([], 5.0) == ()
    assert merge_arrivals([10.0], 5.0) == ((10.0, 10.0),)
    got = merge_arrivals([10, 12, 14, 30, 31, 90], 5.0)
    assert got == ((10.0, 14.0), (30.0, 31.0), (90.0, 90.0))
    # unsorted input is sorted first
    assert merge_arrivals([31, 10, 90, 12, 30, 14], 5.0) == got


def test_train_tam_groups_by_user():
    records = [rec("a", 100), rec("a", 102), rec("a", 300), rec("b", 50)]
    model = train_tam(records, gap_merge_min=5.0)
    assert model.intervals["a"] == ((100.0, 102.0), (300.0, 300.0))
    assert model.intervals["b"] == ((50.0, 50.0),)


def test_train_tam_aging_window():
    records = [rec("a", 100, day=0), rec("a", 500, day=10)]
    model = train_tam(records, aging_window_days=5)
    assert model.intervals["a"] == ((500.0, 500.0),)
    wide = train_tam(records, aging_window_days=30)
    assert wide.intervals["a"] == ((100.0, 100.0), (500.0, 500.0))


def test_train_tam_gap_merge_must_be_non_negative():
    records = [rec("u1", 10), rec("u1", 10), rec("u1", 11)]
    assert train_tam(records, gap_merge_min=0.0).intervals["u1"] == ((10.0, 10.0), (11.0, 11.0))
    for gap in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigError):
            train_tam(records, gap_merge_min=gap)


def test_train_tam_errors():
    with pytest.raises(EmptyTrainingSetError):
        train_tam([])
    with pytest.raises(ConfigError):
        train_tam([rec("a", 1)], aging_window_days=0)


def test_tam_local_deviation_cases():
    ivs = ((130.0, 140.0), (160.0, 170.0), (600.0, 670.0), (720.0, 760.0))
    assert tam_local_deviation(ivs, 135.0) == 0.0          # inside a cluster
    assert tam_local_deviation(ivs, 130.0) == 0.0          # on an edge
    assert tam_local_deviation(ivs, 150.0) == 20.0         # bracketed gap
    assert tam_local_deviation(ivs, 700.0) == 50.0         # bracketed gap
    assert tam_local_deviation(ivs, 100.0) == 60.0         # before first: 2 * 30
    assert tam_local_deviation(ivs, 800.0) == 80.0         # after last: 2 * 40


def test_score_tam_unknown_user_maxes_out():
    model = TemporalModel(intervals={"known": ((10.0, 20.0),)})
    assert score_tam(model, "stranger", 15.0) == 10.0


def test_score_tam_saturates_at_delta_max():
    model = TemporalModel(intervals={"u": ((0.0, 1.0), (1430.0, 1439.0))}, delta_max_min=100.0)
    # bracketed gap of 1429 minutes far exceeds delta_max
    assert score_tam(model, "u", 700.0) == 10.0


def test_score_tam_validates_arrival():
    model = TemporalModel(intervals={"u": ((10.0, 20.0),)})
    with pytest.raises(ValueError):
        score_tam(model, "u", 1440.0)


def test_temporal_model_validates_intervals():
    with pytest.raises(ValueError):
        TemporalModel(intervals={"u": ((20.0, 10.0),)})
    with pytest.raises(ValueError):
        TemporalModel(intervals={"u": ((10.0, 30.0), (20.0, 40.0))})
    with pytest.raises(ValueError):
        TemporalModel(intervals={"u": ((1400.0, 1441.0),)})


# ── Flow ─────────────────────────────────────────────────────────────


def test_train_flow_and_score_endpoints():
    model = train_flow([(0.0, 0.0), (0.2, 0.0)], [(1.0, 1.0), (0.8, 1.0)])
    assert model.legit_centroid == (0.1, 0.0)
    assert model.malicious_centroid == (0.9, 1.0)
    assert score_flow(model, model.legit_centroid) == 0.0
    assert score_flow(model, model.malicious_centroid) == 10.0
    mid = tuple((a + b) / 2 for a, b in zip(model.legit_centroid, model.malicious_centroid))
    assert abs(score_flow(model, mid) - 5.0) < 1e-12


def test_train_flow_degenerate_centroids():
    with pytest.raises(DegenerateModelError):
        train_flow([(1.0, 1.0)], [(1.0, 1.0)])


def test_train_flow_empty_class():
    with pytest.raises(EmptyTrainingSetError):
        train_flow([], [(1.0,)])


# ── Fusion ───────────────────────────────────────────────────────────


def test_fuse_scores_max_and_deciding_model():
    fused = fuse_scores(2.0, 7.0, 4.0)
    assert fused.phi == 7.0
    assert fused.deciding_model is ModelName.TAM

    weighted = fuse_scores(2.0, 7.0, 4.0, weights=(5.0, 1.0, 1.0))
    assert weighted.phi == 10.0  # 5 * 2 = 10 clamps exactly at the cap
    assert weighted.deciding_model is ModelName.DABR


def test_fuse_scores_clamps_to_range():
    assert fuse_scores(0.0, 0.0, 8.0, weights=(1.0, 1.0, 2.0)).phi == 10.0
    assert fuse_scores(0.0, 0.0, 0.0).phi == 0.0


def test_fuse_scores_tie_breaks_in_model_order():
    assert fuse_scores(3.0, 3.0, 3.0).deciding_model is ModelName.DABR
    assert fuse_scores(1.0, 3.0, 3.0).deciding_model is ModelName.TAM
    assert fuse_scores(0.0, 0.0, 0.0).deciding_model is ModelName.DABR


def test_fuse_scores_rejects_negative_weights():
    with pytest.raises(ValueError):
        fuse_scores(1.0, 1.0, 1.0, weights=(-1.0, 1.0, 1.0))


def test_fusion_random_property_max_dominates():
    rng = random.Random(11)
    for _ in range(300):
        a, b, g = (rng.uniform(0, 10) for _ in range(3))
        w = tuple(rng.uniform(0, 2) for _ in range(3))
        fused = fuse_scores(a, b, g, weights=w)
        assert fused.phi <= 10.0
        assert fused.phi >= 0.0
        expected = max(w[0] * a, w[1] * b, w[2] * g)
        assert fused.phi == min(10.0, max(0.0, expected))
