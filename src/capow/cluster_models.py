"""Context-aware base models and score fusion.

Three base models judge how far a request sits from learned normal
activity, each emitting a score in [0, 10]:

* DAbR   - distance of the request's IP-attribute vector to a centroid of
           known-malicious IP attributes (close to malicious = high score).
* TAM    - per-user historical activity intervals on the minutes-of-day
           axis; the deviation is the gap between the two intervals
           bracketing the arrival.
* Flow   - dual centroids (legitimate / malicious) over normalized flow
           features; the score is the normalized pull toward the
           malicious side.

The fused score is the maximum of the weighted components, with the
winning model recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError, DegenerateModelError, EmptyTrainingSetError
from .flow_ingest import MINUTES_PER_DAY, ActivityRecord

SCORE_MAX = 10
TAM_DELTA_MAX_MIN = 720.0  # minutes; temporal deviations saturate the score here
DEFAULT_GAP_MERGE_MIN = 5.0
DEFAULT_AGING_WINDOW_DAYS = 5

Interval = tuple[float, float]


class ModelName(str, Enum):
    DABR = "dabr"
    TAM = "tam"
    FLOW = "flow"


def euclid_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Euclidean distance between two equal-dimension vectors."""
    if len(p) != len(q):
        raise ValueError(f"dimension mismatch: {len(p)} vs {len(q)}")
    return math.dist(p, q)


def context_score(delta: float, delta_max: float, scale: int = SCORE_MAX) -> float:
    """Map a raw deviation onto [0, scale], saturating at delta_max."""
    if delta_max <= 0:
        raise ConfigError(f"delta_max must be positive, got {delta_max}")
    if delta < 0:
        raise ValueError(f"deviation must be non-negative, got {delta}")
    return (min(delta, delta_max) / delta_max) * scale


# ── DAbR ─────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class CentroidModel:
    """Single-cluster model: centroid plus the saturation deviation."""

    centroid: tuple[float, ...]
    delta_max: float
    scale_i: int = SCORE_MAX

    def __post_init__(self) -> None:
        if self.delta_max <= 0:
            raise ConfigError(f"delta_max must be positive, got {self.delta_max}")
        if any(not math.isfinite(x) for x in self.centroid):
            raise ValueError("centroid contains non-finite values")


def train_dabr(
    malicious_ip_attributes: Sequence[Sequence[float]],
    delta_max: float | None = None,
    scale_i: int = SCORE_MAX,
) -> CentroidModel:
    """Fit the malicious-IP centroid.

    ``delta_max`` defaults to the unit-hypercube diagonal sqrt(n), the
    largest separation two normalized attribute vectors can have.
    """
    centroid = _mean_vector(malicious_ip_attributes)
    if delta_max is None:
        delta_max = math.sqrt(len(centroid))
    return CentroidModel(centroid=centroid, delta_max=delta_max, scale_i=scale_i)


def score_dabr(model: CentroidModel, ip_attributes: Sequence[float]) -> float:
    """Score proximity to the malicious cluster: 10 on the centroid, 0 beyond delta_max."""
    d_m = euclid_distance(ip_attributes, model.centroid)
    return model.scale_i - context_score(d_m, model.delta_max, model.scale_i)


# ── TAM ──────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class TemporalModel:
    """Per-user sorted activity intervals on the minutes-of-day axis."""

    intervals: Mapping[str, tuple[Interval, ...]]
    delta_max_min: float = TAM_DELTA_MAX_MIN
    aging_window_days: int = DEFAULT_AGING_WINDOW_DAYS

    def __post_init__(self) -> None:
        if self.delta_max_min <= 0:
            raise ConfigError("delta_max_min must be positive")
        if self.aging_window_days < 1:
            raise ConfigError("aging_window_days must be a positive integer")
        for user, ivs in self.intervals.items():
            prev_end = -1.0
            for start, end in ivs:
                if not (0.0 <= start <= end < MINUTES_PER_DAY):
                    raise ValueError(f"interval [{start}, {end}] for {user} outside [0, 1440)")
                if start <= prev_end:
                    raise ValueError(f"intervals for {user} overlap or are unsorted")
                prev_end = end


def train_tam(
    records: Iterable[ActivityRecord],
    gap_merge_min: float = DEFAULT_GAP_MERGE_MIN,
    aging_window_days: int = DEFAULT_AGING_WINDOW_DAYS,
    delta_max_min: float = TAM_DELTA_MAX_MIN,
) -> TemporalModel:
    """Cluster each user's arrival minutes into activity intervals.

    Only the newest ``aging_window_days`` log days (relative to the highest
    day index present) contribute; older logs are aged out. Arrivals at
    most ``gap_merge_min`` minutes apart merge into one interval.
    """
    records = list(records)
    if not records:
        raise EmptyTrainingSetError("cannot train the temporal model on zero records")
    if aging_window_days < 1:
        raise ConfigError("aging_window_days must be a positive integer")
    newest = max(r.day_index for r in records)
    cutoff = newest - aging_window_days
    by_user: dict[str, list[float]] = {}
    for rec in records:
        if rec.day_index > cutoff:
            by_user.setdefault(rec.user_id, []).append(rec.timestamp_min)
    if not by_user:
        raise EmptyTrainingSetError("aging window excludes every record")
    intervals = {
        user: merge_arrivals(times, gap_merge_min) for user, times in by_user.items()
    }
    return TemporalModel(
        intervals=intervals,
        delta_max_min=delta_max_min,
        aging_window_days=aging_window_days,
    )


def merge_arrivals(arrival_minutes: Sequence[float], gap_merge_min: float) -> tuple[Interval, ...]:
    """Merge sorted arrivals into intervals; gaps > gap_merge_min split runs."""
    times = sorted(arrival_minutes)
    if not times:
        return ()
    intervals: list[Interval] = []
    start = prev = times[0]
    for t in times[1:]:
        if t - prev > gap_merge_min:
            intervals.append((start, prev))
            start = t
        prev = t
    intervals.append((start, prev))
    return tuple(intervals)


def score_tam(model: TemporalModel, user_id: str, arrival_min: float) -> float:
    """Temporal deviation score for one arrival.

    Users without any learned cluster score the maximum. An arrival inside
    any interval scores 0. Between intervals the deviation is the gap
    between the two bracketing clusters; before the first or after the
    last interval it is twice the distance to the nearest interval edge
    (a symmetric virtual bracket).
    """
    if not 0.0 <= arrival_min < MINUTES_PER_DAY:
        raise ValueError(f"arrival_min {arrival_min} outside [0, {MINUTES_PER_DAY})")
    intervals = model.intervals.get(user_id)
    if not intervals:
        return float(SCORE_MAX)
    delta_local = tam_local_deviation(intervals, arrival_min)
    return min(delta_local / model.delta_max_min, 1.0) * SCORE_MAX


def tam_local_deviation(intervals: Sequence[Interval], arrival_min: float) -> float:
    """Raw temporal deviation in minutes for an arrival against sorted intervals."""
    first_start = intervals[0][0]
    last_end = intervals[-1][1]
    if arrival_min < first_start:
        return 2.0 * (first_start - arrival_min)
    if arrival_min > last_end:
        return 2.0 * (arrival_min - last_end)
    prev_end = None
    for start, end in intervals:
        if start <= arrival_min <= end:
            return 0.0
        if arrival_min < start:
            # bracketed: gap between the two nearest clusters
            return start - prev_end
        prev_end = end
    raise AssertionError("unreachable: arrival within [first_start, last_end] must bracket")


# ── Flow ─────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class FlowModel:
    """Dual-centroid model over normalized flow feature vectors."""

    legit_centroid: tuple[float, ...]
    malicious_centroid: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.legit_centroid) != len(self.malicious_centroid):
            raise ValueError("flow centroids have mismatched dimensions")
        if euclid_distance(self.legit_centroid, self.malicious_centroid) == 0.0:
            raise DegenerateModelError("legitimate and malicious centroids coincide")

    @property
    def dimension(self) -> int:
        return len(self.legit_centroid)


def train_flow(
    legit: Sequence[Sequence[float]],
    malicious: Sequence[Sequence[float]],
) -> FlowModel:
    """Fit the legitimate and malicious flow centroids (component-wise means)."""
    return FlowModel(
        legit_centroid=_mean_vector(legit, which="legitimate"),
        malicious_centroid=_mean_vector(malicious, which="malicious"),
    )


def score_flow(model: FlowModel, flow_vector: Sequence[float]) -> float:
    """Normalized pull toward the malicious cluster.

    0 on the legitimate centroid, 10 on the malicious centroid, 5 when
    equidistant. The ratio d_l / (d_l + d_m) is self-normalizing, so no
    flow-space delta_max is needed.
    """
    d_l = euclid_distance(flow_vector, model.legit_centroid)
    d_m = euclid_distance(flow_vector, model.malicious_centroid)
    # distinct-centroid invariant makes d_l + d_m = 0 impossible
    return SCORE_MAX * d_l / (d_l + d_m)


# ── Fusion ───────────────────────────────────────────────────────────


@dataclass(frozen=True, slots=True)
class ContextScore:
    """Component scores and the fused score, with the model that decided it."""

    alpha: float
    beta: float
    gamma: float
    phi: float
    deciding_model: ModelName


def fuse_scores(
    alpha: float,
    beta: float,
    gamma: float,
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> ContextScore:
    """Fuse component scores: phi = max of weighted components, clamped to [0, 10].

    The deciding model is the argmax; ties break in the fixed order
    DAbR, TAM, Flow.
    """
    if any(w < 0 for w in weights):
        raise ValueError(f"weights must be non-negative, got {weights}")
    weighted = (weights[0] * alpha, weights[1] * beta, weights[2] * gamma)
    best = 0
    for i in (1, 2):
        if weighted[i] > weighted[best]:
            best = i
    phi = min(float(SCORE_MAX), max(0.0, weighted[best]))
    return ContextScore(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        phi=phi,
        deciding_model=(ModelName.DABR, ModelName.TAM, ModelName.FLOW)[best],
    )


def _mean_vector(vectors: Sequence[Sequence[float]], which: str = "training") -> tuple[float, ...]:
    if not vectors:
        raise EmptyTrainingSetError(f"empty {which} set")
    dim = len(vectors[0])
    sums = [0.0] * dim
    for vec in vectors:
        if len(vec) != dim:
            raise ValueError(f"inconsistent vector dimensions: {len(vec)} vs {dim}")
        for j, x in enumerate(vec):
            sums[j] += x
    n = len(vectors)
    return tuple(s / n for s in sums)
