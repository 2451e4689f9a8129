"""Context-aware proof-of-work admission control.

Requests are scored by their deviation from learned normal activity
(IP attributes, per-user timing, flow statistics); the fused score sets
the difficulty of a hash puzzle the client must solve before admission.
"""

from .cluster_models import (
    CentroidModel,
    ContextScore,
    FlowModel,
    ModelName,
    TemporalModel,
    fuse_scores,
    score_dabr,
    score_flow,
    score_tam,
    train_dabr,
    train_flow,
    train_tam,
)
from .errors import (
    CapowError,
    ConfigError,
    CorruptLogError,
    DegenerateModelError,
    EmptyTrainingSetError,
    ProtocolError,
    SchemaError,
    SolveTimeout,
)
from .flow_ingest import (
    ActivityRecord,
    FeatureScaler,
    IpAttributeTable,
    extract_context,
    fit_scaler,
    parse_activity_log,
)
from .persistence import ModelBundle, load_bundle, load_model, save_bundle, save_model
from .policy_engine import PolicyConfig, load_policy, make_policy, map_difficulty
from .pow_core import (
    Challenge,
    ChallengeRegistry,
    Solution,
    check_solution,
    issue_challenge,
    leading_zero_bits,
    puzzle_digest,
    solve,
)
from .protocol import GateServer, Request, SessionOutcome, client_session
from .training import TrainReport, train_bundle

__version__ = "0.1.0"

__all__ = [
    "ActivityRecord",
    "CapowError",
    "CentroidModel",
    "Challenge",
    "ChallengeRegistry",
    "ConfigError",
    "ContextScore",
    "CorruptLogError",
    "DegenerateModelError",
    "EmptyTrainingSetError",
    "FeatureScaler",
    "FlowModel",
    "GateServer",
    "IpAttributeTable",
    "ModelBundle",
    "ModelName",
    "PolicyConfig",
    "ProtocolError",
    "Request",
    "SchemaError",
    "SessionOutcome",
    "Solution",
    "SolveTimeout",
    "TemporalModel",
    "TrainReport",
    "check_solution",
    "client_session",
    "extract_context",
    "fit_scaler",
    "fuse_scores",
    "issue_challenge",
    "leading_zero_bits",
    "load_bundle",
    "load_model",
    "load_policy",
    "make_policy",
    "map_difficulty",
    "parse_activity_log",
    "puzzle_digest",
    "save_bundle",
    "save_model",
    "score_dabr",
    "score_flow",
    "score_tam",
    "solve",
    "train_bundle",
    "train_dabr",
    "train_flow",
    "train_tam",
]
