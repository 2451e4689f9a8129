"""Training pipeline: labeled activity logs in, scoring model bundle out.

Routing by label: the temporal model learns from legitimate rows only,
the flow model needs both labeled classes, and the IP-distance model
trains on the attribute vectors of addresses seen behaving maliciously
(or on the whole attribute feed when the logs carry no malicious rows,
treating the feed as a blocklist).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .cluster_models import (
    DEFAULT_AGING_WINDOW_DAYS,
    DEFAULT_GAP_MERGE_MIN,
    check_tam_settings,
    train_dabr,
    train_flow,
    train_tam,
)
from .errors import DegenerateModelError, EmptyTrainingSetError, SchemaError
from .flow_ingest import (
    LABEL_LEGITIMATE,
    LABEL_MALICIOUS,
    ActivityRecord,
    IpAttributeTable,
    fit_scaler,
    parse_activity_log,
)
from .persistence import ModelBundle

logger = logging.getLogger(__name__)


@dataclass
class TrainReport:
    """What trained, what did not, and why."""

    records_total: int = 0
    rows_skipped: int = 0
    tam_users: int = 0
    dabr_vectors: int = 0
    contexts_enabled: frozenset[str] = frozenset()
    warnings: list[str] = field(default_factory=list)
    partial: bool = False  # a labeled class was missing, so a model is degraded

    def warn(self, message: str, *, partial: bool = False) -> None:
        self.warnings.append(message)
        self.partial = self.partial or partial
        logger.warning("%s", message)


def train_bundle(
    log_paths: Sequence[str | Path],
    *,
    ip_attributes_path: str | Path | None = None,
    aging_window_days: int = DEFAULT_AGING_WINDOW_DAYS,
    gap_merge_min: float = DEFAULT_GAP_MERGE_MIN,
    dabr_delta_max: float | None = None,
) -> tuple[ModelBundle, TrainReport]:
    """Train every context model the inputs support.

    Logs are assigned day indices by position (first file is day 0)
    unless they carry their own ``day`` column. All logs must share one
    flow schema. Missing inputs disable the corresponding context rather
    than failing the whole run; the report records each degradation.
    """
    check_tam_settings(gap_merge_min, aging_window_days)
    report = TrainReport()

    records: list[ActivityRecord] = []
    flow_columns: tuple[str, ...] | None = None
    for position, path in enumerate(log_paths):
        parsed = parse_activity_log(path, day_index=position)
        if flow_columns is None:
            flow_columns = parsed.flow_columns
        elif parsed.flow_columns != flow_columns:
            raise SchemaError(
                f"{path}: flow columns {parsed.flow_columns} differ from {flow_columns}"
            )
        records.extend(parsed.records)
        report.rows_skipped += parsed.skipped_rows
    report.records_total = len(records)
    if not records:
        raise EmptyTrainingSetError("activity logs contain no usable rows")

    scaler = fit_scaler(r.flow_features for r in records)
    legitimate = [r for r in records if r.label == LABEL_LEGITIMATE]
    malicious = [r for r in records if r.label == LABEL_MALICIOUS]

    tam = None
    if legitimate:
        tam = train_tam(legitimate, gap_merge_min, aging_window_days)
        report.tam_users = len(tam.intervals)
    else:
        report.warn("temporal model disabled: no legitimate-labeled rows", partial=True)

    flow = None
    if legitimate and malicious:
        try:
            flow = train_flow(
                [scaler.transform(r.flow_features) for r in legitimate],
                [scaler.transform(r.flow_features) for r in malicious],
            )
        except DegenerateModelError as exc:
            report.warn(f"flow model disabled: {exc}", partial=True)
    else:
        missing = "malicious" if legitimate else "legitimate"
        report.warn(f"flow model disabled: no {missing}-labeled rows", partial=True)

    dabr = None
    ip_table = None
    if ip_attributes_path is not None:
        ip_table = IpAttributeTable.from_csv(ip_attributes_path)
        bad_ids = sorted({r.user_id for r in malicious})
        vectors = [ip_table.embed(uid) for uid in bad_ids] if bad_ids else ip_table.vectors()
        dabr = train_dabr(vectors, delta_max=dabr_delta_max)
        report.dabr_vectors = len(vectors)
    else:
        report.warn("ip-distance model disabled: no IP attribute table given")

    bundle = ModelBundle(
        scaler=scaler,
        tam=tam,
        flow=flow,
        dabr=dabr,
        ip_table=ip_table,
        flow_columns=flow_columns,
    )
    report.contexts_enabled = bundle.contexts_enabled
    return bundle, report
