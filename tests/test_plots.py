from __future__ import annotations

import pytest

pytest.importorskip("matplotlib")

from capow.cluster_models import fuse_scores
from capow.protocol import SessionOutcome
from capow.simulate import MergedEvent, SweepRow, render_score_plot, render_sweep_plot


def make_event(role: str, phi: float) -> MergedEvent:
    outcome = SessionOutcome(
        user_id="u",
        admitted=True,
        reason=None,
        latency_ms=1.5,
        attempts=3,
        difficulty=2,
        seed_digest="ab",
    )
    return MergedEvent(
        user_id="u", role=role, request_index=0, arrival_min=10.0, outcome=outcome,
        score=fuse_scores(phi, 0.0, 0.0),
    )


def test_render_score_plot(tmp_path):
    events = [make_event("legitimate", 1.0), make_event("attacker", 9.0)]
    path = render_score_plot(events, tmp_path / "scores.png")
    assert path is not None
    assert path.exists() and path.stat().st_size > 0


def test_render_sweep_plot(tmp_path):
    rows = [
        SweepRow(difficulty=d, trials=3, median_solve_s=1e-5 * 2**d, mean_attempts=float(2**d))
        for d in range(5)
    ]
    path = render_sweep_plot(rows, tmp_path / "sweep.png")
    assert path is not None
    assert path.exists() and path.stat().st_size > 0
