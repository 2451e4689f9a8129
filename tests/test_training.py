from __future__ import annotations

import hashlib

import pytest

from capow.errors import EmptyTrainingSetError, SchemaError
from capow.persistence import save_bundle
from capow.training import train_bundle


def write(path, text):
    path.write_text(text)
    return path


FULL_LOG = """user_id,timestamp,label,f1,f2
10.0.0.1,100,legitimate,1.0,5.0
10.0.0.1,105,legitimate,2.0,6.0
10.0.0.1,700,legitimate,3.0,7.0
203.0.113.9,50,malicious,100.0,0.5
203.0.113.9,51,malicious,110.0,0.4
"""

IP_CSV = """ip,rep,risk
10.0.0.1,0.9,0.1
203.0.113.9,0.1,0.9
"""


def test_full_training_enables_all_contexts(tmp_path):
    log = write(tmp_path / "log.csv", FULL_LOG)
    ip = write(tmp_path / "ip.csv", IP_CSV)
    bundle, report = train_bundle([log], ip_attributes_path=ip)
    assert report.contexts_enabled == frozenset({"dabr", "tam", "flow"})
    assert not report.partial
    assert report.records_total == 5
    # temporal model covers only legitimate users
    assert set(bundle.tam.intervals) == {"10.0.0.1"}
    # flow centroids separate by label
    assert bundle.flow.legit_centroid != bundle.flow.malicious_centroid
    # ip-distance centroid sits on the malicious address's attributes
    assert bundle.dabr.centroid == bundle.ip_table.embed("203.0.113.9")


def test_no_malicious_rows_degrades_flow(tmp_path):
    text = "user_id,timestamp,label,f1\nu1,10,legitimate,1\nu1,20,legitimate,2\n"
    bundle, report = train_bundle([write(tmp_path / "log.csv", text)])
    assert bundle.flow is None
    assert bundle.tam is not None
    assert report.partial
    assert any("flow model" in w for w in report.warnings)


def test_identical_flows_disable_the_flow_model(tmp_path):
    text = "user_id,timestamp,label,f1\nu1,10,legitimate,1\nu2,20,malicious,1\n"
    bundle, report = train_bundle([write(tmp_path / "log.csv", text)])
    assert bundle.flow is None
    assert bundle.tam is not None
    assert report.partial
    assert any("flow model disabled: legitimate and malicious centroids coincide" in w for w in report.warnings)


def test_no_legitimate_rows_degrades_tam_and_flow(tmp_path):
    text = "user_id,timestamp,label,f1\nu1,10,malicious,1\nu1,20,malicious,2\n"
    bundle, report = train_bundle([write(tmp_path / "log.csv", text)])
    assert bundle.tam is None
    assert bundle.flow is None
    assert report.partial


def test_missing_ip_table_is_warning_not_partial(tmp_path):
    bundle, report = train_bundle([write(tmp_path / "log.csv", FULL_LOG)])
    assert bundle.dabr is None
    assert not report.partial
    assert any("ip-distance" in w for w in report.warnings)
    assert report.contexts_enabled == frozenset({"tam", "flow"})


def test_dabr_without_malicious_rows_uses_whole_feed(tmp_path):
    text = "user_id,timestamp,label,f1\n10.0.0.1,10,legitimate,1\n10.0.0.1,20,legitimate,2\n"
    log = write(tmp_path / "log.csv", text)
    ip = write(tmp_path / "ip.csv", IP_CSV)
    bundle, report = train_bundle([log], ip_attributes_path=ip)
    assert bundle.dabr is not None
    assert report.dabr_vectors == 2  # the feed acts as a blocklist


def test_multiple_logs_get_positional_day_indices(tmp_path):
    day0 = write(tmp_path / "d0.csv", "user_id,timestamp,label,f1\nu1,100,legitimate,1\n")
    day1 = write(tmp_path / "d1.csv", "user_id,timestamp,label,f1\nu1,700,legitimate,2\n")
    bundle, _ = train_bundle([day0, day1], aging_window_days=1)
    # window of 1 day keeps only the newest log
    assert bundle.tam.intervals["u1"] == ((700.0, 700.0),)
    wide, _ = train_bundle([day0, day1], aging_window_days=5)
    assert wide.tam.intervals["u1"] == ((100.0, 100.0), (700.0, 700.0))


def test_mismatched_flow_schemas_rejected(tmp_path):
    a = write(tmp_path / "a.csv", "user_id,timestamp,label,f1\nu1,1,legitimate,1\n")
    b = write(tmp_path / "b.csv", "user_id,timestamp,label,other\nu1,1,legitimate,1\n")
    with pytest.raises(SchemaError):
        train_bundle([a, b])


def test_empty_inputs(tmp_path):
    with pytest.raises(EmptyTrainingSetError):
        train_bundle([])
    empty = write(tmp_path / "e.csv", "user_id,timestamp,label,f1\n")
    with pytest.raises(EmptyTrainingSetError):
        train_bundle([empty])


def test_gap_merge_passthrough(tmp_path):
    text = "user_id,timestamp,label,f1\nu1,100,legitimate,1\nu1,104,legitimate,1\nu1,120,legitimate,1\n"
    log = write(tmp_path / "log.csv", text)
    merged, _ = train_bundle([log], gap_merge_min=5.0)
    assert merged.tam.intervals["u1"] == ((100.0, 104.0), (120.0, 120.0))
    split, _ = train_bundle([log], gap_merge_min=2.0)
    assert split.tam.intervals["u1"] == ((100.0, 100.0), (104.0, 104.0), (120.0, 120.0))


# SHA-256 of each bundle file trained from the conftest corpus; a change to
# parsing, scaling or any trainer that moves one byte of a model shows here.
GOLDEN_BUNDLE = {
    "dabr.json": "25996a02707185cdb231968f0def96d9c0cc471ad89101269037d58e43699526",
    "flow.json": "6b9277b238e0a1f1a212d6793cc160540fdeb6a8f8ae813f9ebf87756652004b",
    "ip_table.json": "3848c246338f88053b2f4c2fab89e628cf15d7c147154dd84bff06ce33e48f85",
    "manifest.json": "f67b37a3ae6f3fae5602a0fbcf96d0d4acda3826ab523901c88ecc09b59b842d",
    "scaler.json": "95dfea81b3c1b990741e9407fa288ab4bed4c810966b47b0640fbf78ba3fecf1",
    "tam.json": "c14bcd4fbef3ac77b1c158037f160092196588cc11c889f0e4b064a1aca2043e",
}
GOLDEN_BUNDLE_NO_FEED = {
    "flow.json": GOLDEN_BUNDLE["flow.json"],
    "manifest.json": "f436456c28ca251bc13ac7d62ec6fb830eb8f89998d21a013fbacd042d8ddce8",
    "scaler.json": GOLDEN_BUNDLE["scaler.json"],
    "tam.json": GOLDEN_BUNDLE["tam.json"],
}


@pytest.mark.parametrize("with_feed, golden", [(True, GOLDEN_BUNDLE), (False, GOLDEN_BUNDLE_NO_FEED)],
                         ids=["with-feed", "without-feed"])
def test_bundle_bytes_are_pinned(corpus, tmp_path, with_feed, golden):
    bundle, _ = train_bundle(corpus["logs"], ip_attributes_path=corpus["ip"] if with_feed else None)
    out = save_bundle(bundle, tmp_path / "bundle")
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert digests == golden
