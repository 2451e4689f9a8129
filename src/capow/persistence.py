"""Model persistence: one versioned JSON document per trained model.

A document holds the model's constructor fields, its kind, a format tag
and a schema version. Serialization is canonical (sorted keys, fixed
separators, trailing newline) so a save -> load -> save round trip is
bit-exact.

A model *bundle* is a directory holding ``<kind>.json`` for each model
it carries and a manifest naming those files and the flow column schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .cluster_models import CentroidModel, FlowModel, ModelName, TemporalModel
from .errors import CapowError, ConfigError
from .flow_ingest import FeatureScaler, IpAttributeTable, IpEmbedder, octet_embedding

FORMAT_TAG = "capow-model"
MANIFEST_TAG = "capow-manifest"
SCHEMA_VERSION = 1
MANIFEST_FILE = "manifest.json"

# A kind names the model's document, its ModelBundle slot and its file, <kind>.json.
MODEL_KINDS = {
    "scaler": FeatureScaler,
    "dabr": CentroidModel,
    "tam": TemporalModel,
    "flow": FlowModel,
    "ip_table": IpAttributeTable,
}
_KIND_OF = {cls: kind for kind, cls in MODEL_KINDS.items()}

Model = CentroidModel | TemporalModel | FlowModel | FeatureScaler | IpAttributeTable


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _thaw(value):
    """A parsed JSON value with every array made a tuple, at every depth."""
    if type(value) is list:
        return tuple(map(_thaw, value))
    if type(value) is dict:
        return {key: _thaw(item) for key, item in value.items()}
    return value


def dumps_model(model: Model) -> str:
    """Serialize a model to its canonical JSON document."""
    kind = _KIND_OF.get(type(model))
    if kind is None:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    doc = {f.name: getattr(model, f.name) for f in fields(model)}
    return _canonical({**doc, "kind": kind, "format": FORMAT_TAG, "schema_version": SCHEMA_VERSION})


def loads_model(text: str) -> Model:
    """Parse a canonical model document back into its typed form."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.pop("format", None) != FORMAT_TAG:
        raise ConfigError("not a capow model document")
    version = doc.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported model schema version {version!r}")
    kind = doc.pop("kind", None)
    cls = MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown model kind {kind!r}")
    try:
        return cls(**{name: _thaw(value) for name, value in doc.items()})
    except (CapowError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"unusable {kind} model: {exc}") from None


def save_model(model: Model, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(dumps_model(model), encoding="utf-8")
    return path


def load_model(path: str | Path) -> Model:
    try:
        return loads_model(Path(path).read_text(encoding="utf-8"))
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass
class ModelBundle:
    """Everything the gate needs to score requests; its contexts are the context models it holds."""

    scaler: FeatureScaler
    tam: TemporalModel | None = None
    flow: FlowModel | None = None
    dabr: CentroidModel | None = None
    ip_table: IpAttributeTable | None = None
    flow_columns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # parts that do not fit together would fail every request
        if self.flow is not None and self.flow.dimension != self.scaler.dimension:
            raise ConfigError(f"flow model is {self.flow.dimension}-D, the scaler {self.scaler.dimension}-D")
        dims = len(self.embedder()("0.0.0.0"))
        if self.dabr is not None and len(self.dabr.centroid) != dims:
            raise ConfigError(f"dabr centroid is {len(self.dabr.centroid)}-D, the IP embedding {dims}-D")

    @property
    def contexts_enabled(self) -> frozenset[str]:
        return frozenset(m.value for m in ModelName if getattr(self, m.value) is not None)

    def embedder(self) -> IpEmbedder:
        if self.ip_table is not None:
            return self.ip_table.embed
        return octet_embedding


def save_bundle(bundle: ModelBundle, directory: str | Path) -> Path:
    """Write the bundle's models plus a manifest into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {kind: save_model(model, directory / f"{kind}.json").name
             for kind in MODEL_KINDS if (model := getattr(bundle, kind)) is not None}
    manifest = {
        "format": MANIFEST_TAG,
        "schema_version": SCHEMA_VERSION,
        "contexts_enabled": sorted(bundle.contexts_enabled),  # for readers; never read back
        "files": files,
        "flow_columns": list(bundle.flow_columns),
    }
    (directory / MANIFEST_FILE).write_text(_canonical(manifest), encoding="utf-8")
    return directory


def load_bundle(directory: str | Path) -> ModelBundle:
    """Load a bundle directory; one the gate could not use raises ConfigError."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.exists():
        raise ConfigError(f"{directory}: no {MANIFEST_FILE}; not a model bundle")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{manifest_path}: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_TAG:
        raise ConfigError(f"{manifest_path}: not a capow manifest")
    files = manifest.get("files", {})
    if not isinstance(files, dict) or "scaler" not in files:
        raise ConfigError(f"{directory}: bundle has no scaler")
    columns = manifest.get("flow_columns", [])
    if not isinstance(columns, list) or not all(isinstance(x, str) for x in (*files.values(), *columns)):
        raise ConfigError(f"{manifest_path}: file names and flow columns must be strings")
    models = {}
    for kind, filename in files.items():
        if kind not in MODEL_KINDS:
            raise ConfigError(f"{manifest_path}: {kind!r} names no model kind")
        models[kind] = model = load_model(directory / filename)
        if type(model) is not MODEL_KINDS[kind]:
            raise ConfigError(f"{directory}: {filename} holds a {_KIND_OF[type(model)]} model, not {kind}")
    return ModelBundle(**models, flow_columns=tuple(columns))
