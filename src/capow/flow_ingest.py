"""Activity-log parsing and request context extraction.

Turns CSV activity logs into ``ActivityRecord`` rows, and checks a live
request's wire fields before they reach the models. The log format is a
plain UTF-8 CSV with a header: ``user_id, timestamp, label`` plus at
least one numeric flow column (an optional ``day`` column assigns rows
to log days). All flow features are min-max scaled into the unit
hypercube so every model downstream operates in a comparable Euclidean
space.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import CorruptLogError, EmptyTrainingSetError, SchemaError

logger = logging.getLogger(__name__)

LABEL_LEGITIMATE = "legitimate"
LABEL_MALICIOUS = "malicious"
LABEL_UNLABELED = "unlabeled"
LABELS = (LABEL_LEGITIMATE, LABEL_MALICIOUS, LABEL_UNLABELED)

# Columns with fixed meaning; everything else in the header is a flow feature.
RESERVED_COLUMNS = ("user_id", "timestamp", "label", "day")
REQUIRED_COLUMNS = ("user_id", "timestamp", "label")

MINUTES_PER_DAY = 1440.0

# An embedder maps a user id (usually an IPv4 address) to a numeric vector.
IpEmbedder = Callable[[str], tuple[float, ...]]


@dataclass(frozen=True)
class ActivityRecord:
    """One request row from an activity log."""

    user_id: str
    timestamp_min: float  # minutes since midnight of the log day, [0, 1440)
    day_index: int
    flow_features: tuple[float, ...]
    label: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.timestamp_min < MINUTES_PER_DAY:
            raise ValueError(f"timestamp_min {self.timestamp_min} outside [0, {MINUTES_PER_DAY})")
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")


@dataclass(frozen=True)
class ParsedLog:
    """Result of parsing one activity log file."""

    records: tuple[ActivityRecord, ...]
    skipped_rows: int
    flow_columns: tuple[str, ...]
    path: str


@dataclass(frozen=True)
class FeatureScaler:
    """Per-dimension min/max bounds for unit-interval normalization."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.mins) != len(self.maxs):
            raise SchemaError("scaler min/max dimension mismatch")
        for lo, hi in zip(self.mins, self.maxs):
            if lo > hi:
                raise ValueError(f"scaler bound min {lo} > max {hi}")

    @property
    def dimension(self) -> int:
        return len(self.mins)

    def transform(self, features: Sequence[float]) -> tuple[float, ...]:
        """Scale into [0, 1], clamping out-of-range values.

        Constant dimensions (min == max) map to 0.5.
        """
        if len(features) != self.dimension:
            raise SchemaError(
                f"feature vector has {len(features)} dimensions, scaler expects {self.dimension}"
            )
        out = []
        for x, lo, hi in zip(features, self.mins, self.maxs):
            if hi == lo:
                out.append(0.5)
            else:
                out.append(min(1.0, max(0.0, (x - lo) / (hi - lo))))
        return tuple(out)


def parse_activity_log(
    path: str | Path,
    schema: Sequence[str] | None = None,
    *,
    day_index: int = 0,
) -> ParsedLog:
    """Parse a CSV activity log into records.

    ``schema`` is the expected column-name list; the file header must match
    it exactly. Pass ``None`` to adopt the file's own header. Malformed rows
    are skipped and counted; more than 50% malformed raises
    :class:`CorruptLogError`. ``day_index`` applies to every row unless the
    schema carries a ``day`` column.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        if schema is not None:
            declared = [s.strip() for s in schema]
            if header != declared:
                raise SchemaError(f"{path}: header {header} does not match declared schema {declared}")
        _validate_schema(header, path)

        col_index = {name: i for i, name in enumerate(header)}
        flow_columns = tuple(name for name in header if name not in RESERVED_COLUMNS)
        flow_idx = [col_index[name] for name in flow_columns]
        day_col = col_index.get("day")

        records: list[ActivityRecord] = []
        skipped = 0
        total = 0
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            total += 1
            record = _parse_row(row, header, col_index, flow_idx, day_col, day_index)
            if record is None:
                skipped += 1
            else:
                records.append(record)

    if total and skipped > total / 2:
        raise CorruptLogError(f"{path}: {skipped}/{total} rows malformed")
    if skipped:
        logger.warning("%s: skipped %d of %d malformed rows", path, skipped, total)
    return ParsedLog(records=tuple(records), skipped_rows=skipped, flow_columns=flow_columns, path=str(path))


def _validate_schema(header: Sequence[str], path: Path) -> None:
    for required in REQUIRED_COLUMNS:
        if required not in header:
            raise SchemaError(f"{path}: missing required column '{required}'")
    if not any(name not in RESERVED_COLUMNS for name in header):
        raise SchemaError(f"{path}: schema declares no flow feature columns")


def _parse_row(row, header, col_index, flow_idx, day_col, default_day) -> ActivityRecord | None:
    if len(row) != len(header):
        return None
    try:
        timestamp = float(row[col_index["timestamp"]])
        features = tuple(float(row[i]) for i in flow_idx)
        day = int(row[day_col]) if day_col is not None else default_day
    except ValueError:
        return None
    if not 0.0 <= timestamp < MINUTES_PER_DAY:
        return None
    if any(x != x or x in (float("inf"), float("-inf")) for x in features):
        return None
    label = row[col_index["label"]].strip().lower()
    if label not in LABELS:
        return None
    user_id = row[col_index["user_id"]].strip()
    if not user_id:
        return None
    return ActivityRecord(
        user_id=user_id,
        timestamp_min=timestamp,
        day_index=day,
        flow_features=features,
        label=label,
    )


def fit_scaler(records: Iterable[ActivityRecord]) -> FeatureScaler:
    """Compute per-dimension min/max over all flow feature vectors."""
    records = list(records)
    if not records:
        raise EmptyTrainingSetError("cannot fit a scaler on zero records")
    dim = len(records[0].flow_features)
    mins = list(records[0].flow_features)
    maxs = list(records[0].flow_features)
    for rec in records[1:]:
        if len(rec.flow_features) != dim:
            raise SchemaError(
                f"inconsistent flow dimensions: {len(rec.flow_features)} vs {dim}"
            )
        for j, x in enumerate(rec.flow_features):
            if x < mins[j]:
                mins[j] = x
            if x > maxs[j]:
                maxs[j] = x
    return FeatureScaler(mins=tuple(mins), maxs=tuple(maxs))


def extract_context(
    user_id: str,
    arrival_min: float,
    flow_features: Sequence[float],
    scaler: FeatureScaler,
    embedder: IpEmbedder | None = None,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Check one request's wire fields; return its IP attributes and scaled flow vector.

    This is the only check a live request gets before scoring: it raises
    :class:`SchemaError` for an arrival outside [0, 1440), a NaN or
    infinite value, or a flow vector of the wrong length.
    """
    if not 0.0 <= arrival_min < MINUTES_PER_DAY:
        raise SchemaError(f"arrival {arrival_min} outside [0, {MINUTES_PER_DAY})")
    if not all(math.isfinite(x) for x in flow_features):
        raise SchemaError("flow features must be finite")
    return tuple((embedder or octet_embedding)(user_id)), scaler.transform(flow_features)


def octet_embedding(user_id: str) -> tuple[float, ...]:
    """Default IP embedding: the four address octets scaled by 255.

    Opaque (non dotted-quad) tokens fall back to four hash-derived bytes so
    the embedding stays total and deterministic.
    """
    parts = user_id.split(".")
    if len(parts) == 4:
        try:
            octets = [int(p) for p in parts]
        except ValueError:
            octets = None
        if octets is not None and all(0 <= o <= 255 for o in octets):
            return tuple(o / 255.0 for o in octets)
    digest = hashlib.blake2b(user_id.encode("utf-8"), digest_size=4).digest()
    return tuple(b / 255.0 for b in digest)


class IpAttributeTable:
    """IP-attribute feed: maps an IP to an n-dimensional attribute vector.

    Loaded from a CSV with an ``ip`` column followed by numeric attribute
    columns. Vectors are min-max normalized over the table so DAbR's default
    delta_max (the unit-hypercube diagonal) stays meaningful. IPs absent
    from the feed embed to the configurable ``fallback`` point, the
    mid-cube by default.
    """

    def __init__(
        self,
        rows: dict[str, tuple[float, ...]],
        columns: tuple[str, ...],
        fallback: tuple[float, ...] | None = None,
    ) -> None:
        if not rows:
            raise EmptyTrainingSetError("IP attribute table has no rows")
        dims = {len(v) for v in rows.values()}
        if dims != {len(columns)}:
            raise SchemaError("IP attribute rows do not all match the declared columns")
        self.rows = dict(rows)
        self.columns = tuple(columns)
        mins = [min(v[j] for v in rows.values()) for j in range(len(columns))]
        maxs = [max(v[j] for v in rows.values()) for j in range(len(columns))]
        self.scaler = FeatureScaler(mins=tuple(mins), maxs=tuple(maxs))
        self.fallback = tuple(fallback) if fallback is not None else (0.5,) * len(columns)
        if len(self.fallback) != len(columns):
            raise SchemaError("fallback vector dimension does not match the table")

    @classmethod
    def from_csv(cls, path: str | Path, fallback: Sequence[float] | None = None) -> "IpAttributeTable":
        path = Path(path)
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise SchemaError(f"{path}: empty IP attribute feed") from None
            if not header or header[0] != "ip" or len(header) < 2:
                raise SchemaError(f"{path}: expected header 'ip, <attr>, ...'")
            rows: dict[str, tuple[float, ...]] = {}
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise SchemaError(f"{path}:{lineno}: expected {len(header)} fields")
                try:
                    rows[row[0].strip()] = tuple(float(c) for c in row[1:])
                except ValueError:
                    raise SchemaError(f"{path}:{lineno}: non-numeric attribute value") from None
        return cls(rows, tuple(header[1:]), fallback=tuple(fallback) if fallback else None)

    @property
    def dimension(self) -> int:
        return len(self.columns)

    def vectors(self) -> list[tuple[float, ...]]:
        """All normalized attribute vectors; DAbR's training input."""
        return [self.scaler.transform(v) for v in self.rows.values()]

    def embed(self, user_id: str) -> tuple[float, ...]:
        raw = self.rows.get(user_id)
        if raw is None:
            return self.fallback
        return self.scaler.transform(raw)
