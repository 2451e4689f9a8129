from __future__ import annotations

import json
import math
import random
import shutil

import pytest

from capow import synthlog
from capow.cluster_models import CentroidModel, FlowModel, TemporalModel
from capow.errors import ConfigError
from capow.flow_ingest import FeatureScaler, IpAttributeTable
from capow.persistence import (
    MODEL_KINDS,
    ModelBundle,
    dumps_model,
    load_bundle,
    loads_model,
    save_bundle,
    save_model,
)
from capow.policy_engine import make_policy
from capow.protocol import GateServer, Request


def random_scaler(rng):
    n = rng.randint(1, 6)
    mins = [rng.uniform(-100, 100) for _ in range(n)]
    return FeatureScaler(
        mins=tuple(mins),
        maxs=tuple(m + rng.uniform(0, 50) for m in mins),
    )


def random_dabr(rng):
    n = rng.randint(1, 6)
    return CentroidModel(
        centroid=tuple(rng.uniform(0, 1) for _ in range(n)),
        delta_max=rng.uniform(0.1, 10),
        scale_i=10,
    )


def random_tam(rng):
    users = {}
    for u in range(rng.randint(1, 4)):
        edges = sorted(rng.uniform(0, 1439) for _ in range(rng.randint(1, 3) * 2))
        ivs = []
        prev_end = -1.0
        for i in range(0, len(edges), 2):
            start, end = edges[i], edges[i + 1]
            if start > prev_end:
                ivs.append((start, end))
                prev_end = end
        if ivs:
            users[f"user{u}"] = tuple(ivs)
    if not users:
        users = {"user0": ((10.0, 20.0),)}
    return TemporalModel(intervals=users, delta_max_min=rng.uniform(100, 720))


def random_flow(rng):
    n = rng.randint(1, 6)
    legit = tuple(rng.uniform(0, 1) for _ in range(n))
    malicious = tuple(x + rng.uniform(0.01, 1) for x in legit)
    return FlowModel(legit_centroid=legit, malicious_centroid=malicious)


def random_ip_table(rng):
    cols = tuple(f"a{i}" for i in range(rng.randint(1, 4)))
    rows = {
        f"10.0.{i}.{rng.randint(0, 255)}": tuple(rng.uniform(0, 100) for _ in cols)
        for i in range(rng.randint(1, 8))
    }
    return IpAttributeTable(rows, cols)


MAKERS = (random_scaler, random_dabr, random_tam, random_flow, random_ip_table)


def equivalent(a, b):
    if isinstance(a, IpAttributeTable):
        return a.rows == b.rows and a.columns == b.columns and a.fallback == b.fallback
    return a == b


def test_round_trip_every_model_kind():
    rng = random.Random(31)
    for maker in MAKERS:
        for _ in range(50):
            model = maker(rng)
            text = dumps_model(model)
            back = loads_model(text)
            assert type(back) is type(model)
            assert equivalent(model, back)
            assert dumps_model(back) == text  # canonical form is stable


def test_save_load_file(tmp_path):
    model = CentroidModel(centroid=(0.25, 0.75), delta_max=1.5)
    path = save_model(model, tmp_path / "dabr.json")
    text_1 = path.read_text()
    back = loads_model(text_1)
    assert back == model
    save_model(back, path)
    assert path.read_text() == text_1  # save -> load -> save is bit-identical


def test_loads_model_rejects_bad_documents():
    with pytest.raises(ConfigError):
        loads_model("{}")
    with pytest.raises(ConfigError):
        loads_model('{"format": "capow-model", "schema_version": 99, "kind": "dabr"}')
    with pytest.raises(ConfigError):
        loads_model('{"format": "capow-model", "schema_version": 1, "kind": "mystery"}')
    with pytest.raises(ConfigError):
        loads_model('{"format": "capow-model", "schema_version": 1, "kind": "dabr"}')


def test_bundle_round_trip(tmp_path, trained):
    directory = save_bundle(trained, tmp_path / "models")
    back = load_bundle(directory)
    assert back.scaler == trained.scaler
    assert back.tam == trained.tam
    assert back.flow == trained.flow
    assert back.dabr == trained.dabr
    assert equivalent(back.ip_table, trained.ip_table)
    assert back.flow_columns == trained.flow_columns
    assert back.contexts_enabled == trained.contexts_enabled


def test_partial_bundle_round_trip(tmp_path):
    bundle = ModelBundle(
        scaler=FeatureScaler(mins=(0.0,), maxs=(1.0,)),
        tam=TemporalModel(intervals={"u": ((1.0, 2.0),)}),
    )
    back = load_bundle(save_bundle(bundle, tmp_path / "models"))
    assert back.flow is None
    assert back.dabr is None
    assert back.ip_table is None
    assert back.contexts_enabled == frozenset({"tam"})


def test_load_bundle_requires_manifest(tmp_path):
    with pytest.raises(ConfigError):
        load_bundle(tmp_path)


def test_bundle_embedder_fallback():
    bundle = ModelBundle(scaler=FeatureScaler(mins=(0.0,), maxs=(1.0,)))
    assert bundle.embedder()("10.0.0.1") == (10 / 255, 0.0, 0.0, 1 / 255)


def edit_json(path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def test_bundle_refuses_flow_model_of_another_dimension(tmp_path, trained):
    directory = save_bundle(trained, tmp_path / "models")
    save_model(FeatureScaler(mins=(0.0,), maxs=(1.0,)), directory / "scaler.json")
    with pytest.raises(ConfigError, match="flow model is 5-D, the scaler 1-D"):
        load_bundle(directory)


def test_bundle_refuses_dabr_centroid_its_embedder_cannot_reach(tmp_path, trained):
    # without its IP table the bundle embeds the four address octets
    directory = save_bundle(trained, tmp_path / "models")
    edit_json(directory / "manifest.json", lambda m: m["files"].pop("ip_table"))
    with pytest.raises(ConfigError, match="dabr centroid is 3-D, the IP embedding 4-D"):
        load_bundle(directory)


def test_bundle_refuses_a_slot_that_names_no_model_kind(tmp_path, trained):
    directory = save_bundle(trained, tmp_path / "models")
    edit_json(directory / "manifest.json", lambda m: m["files"].update(dns="dabr.json"))
    with pytest.raises(ConfigError, match="'dns' names no model kind"):
        load_bundle(directory)


def test_bundle_refuses_a_file_of_another_kind_than_its_slot(tmp_path, trained):
    directory = save_bundle(trained, tmp_path / "models")
    edit_json(directory / "manifest.json", lambda m: m["files"].update(tam="flow.json"))
    with pytest.raises(ConfigError, match="holds a flow model, not tam"):
        load_bundle(directory)


@pytest.mark.parametrize("kind, field, value", [
    ("tam", "intervals", {"10.0.0.1": [[30, 20]]}),  # the model refuses it with ValueError
    ("dabr", "centroid", "abc"),  # TypeError
    ("ip_table", "rows", [1, 2]),  # AttributeError
])
def test_bundle_refuses_a_field_its_model_refuses(tmp_path, trained, kind, field, value):
    directory = save_bundle(trained, tmp_path / "models")
    edit_json(directory / f"{kind}.json", lambda doc: doc.update({field: value}))
    with pytest.raises(ConfigError, match=f"{kind}.json: unusable {kind} model"):
        load_bundle(directory)


def first_number_to(value, x):
    """``value`` with its first number, at any depth, replaced by ``x``."""
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: first_number_to(value[key], x)}
    if isinstance(value, list):
        return [first_number_to(value[0], x), *value[1:]]
    return x


@pytest.mark.parametrize("x", [math.nan, math.inf], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("kind, field", [
    ("scaler", "mins"), ("scaler", "maxs"),
    ("dabr", "centroid"), ("dabr", "delta_max"),
    ("tam", "delta_max_min"),
    ("flow", "legit_centroid"), ("flow", "malicious_centroid"),
    ("ip_table", "rows"), ("ip_table", "fallback"),
])
def test_bundle_refuses_a_non_finite_model_number(tmp_path, trained, kind, field, x):
    directory = save_bundle(trained, tmp_path / "models")
    edit_json(directory / f"{kind}.json", lambda doc: doc.update({field: first_number_to(doc[field], x)}))
    assert ("NaN" if math.isnan(x) else "Infinity") in (directory / f"{kind}.json").read_text()
    with pytest.raises(ConfigError, match=f"{kind}.json: unusable {kind} model"):
        load_bundle(directory)


@pytest.mark.parametrize("rewrite", [
    lambda m: json.dumps(m)[:-1] + ",}",
    lambda m: "[1]",
    lambda m: json.dumps({**m, "files": {**m["files"], "tam": 7}}),
    lambda m: json.dumps({**m, "flow_columns": 5}),
    lambda m: json.dumps({**m, "files": {k: v for k, v in m["files"].items() if k != "scaler"}}),
], ids=["trailing-comma", "not-an-object", "file-name-not-a-string", "flow-columns-not-a-list", "no-scaler"])
def test_bundle_refuses_a_manifest_it_cannot_read(tmp_path, trained, rewrite):
    directory = save_bundle(trained, tmp_path / "models")
    manifest = directory / "manifest.json"
    manifest.write_text(rewrite(json.loads(manifest.read_text())))
    with pytest.raises(ConfigError, match="manifest.json"):
        load_bundle(directory)


def test_contexts_are_the_models_a_bundle_holds(tmp_path, trained):
    directory = save_bundle(trained, tmp_path / "models")
    edit_json(directory / "manifest.json", lambda m: m.update(contexts_enabled=["tam"]))
    assert load_bundle(directory).contexts_enabled == frozenset({"dabr", "tam", "flow"})


def containers(holder):
    """(holder, key, value) for every non-empty array and object under ``holder``, at any depth."""
    for key, value in (holder.items() if isinstance(holder, dict) else enumerate(holder)):
        if isinstance(value, (list, dict)) and value:
            yield holder, key, value
            yield from containers(value)


def empty_one_container(doc, rng) -> None:
    """Empty one nested array of ``doc``, or empty one object's entry and move it first."""
    found = list(containers(doc))
    objects = [c for c in found if isinstance(c[2], dict)]
    if objects and rng.random() < 0.5:
        holder, key, obj = rng.choice(objects)
        first = rng.choice(list(obj))
        holder[key] = {first: [], **{k: v for k, v in obj.items() if k != first}}
    else:
        holder, key, _ = rng.choice([c for c in found if isinstance(c[2], list)])
        holder[key] = []


def test_a_bundle_with_an_emptied_container_is_refused_or_prices(tmp_path, trained):
    base = save_bundle(trained, tmp_path / "base")
    rng = random.Random(0)
    users = [*list(trained.tam.intervals)[:6], *list(trained.ip_table.rows)[:6], "198.51.100.7", "opaque-id"]
    requests = [Request(rng.choice(users), rng.random() * 1440.0,
                        synthlog.sample_flow(rng, rng.choice(("legitimate", "malicious"))))
                for _ in range(160)]
    policies = (make_policy("linear"), make_policy("linear_shifted"), make_policy("error_range", rng_seed=7))
    for seed in range(300):
        rng = random.Random(seed)
        directory = shutil.copytree(base, tmp_path / str(seed))
        edit_json(directory / f"{rng.choice(sorted(MODEL_KINDS))}.json", lambda doc: empty_one_container(doc, rng))
        try:
            gate = GateServer(load_bundle(directory), policies[seed % 3])
        except ConfigError:
            continue
        for req in requests:
            gate.handle_request(req)
