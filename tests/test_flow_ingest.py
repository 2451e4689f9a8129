from __future__ import annotations

import random

import pytest

from capow.errors import CorruptLogError, EmptyTrainingSetError, SchemaError
from capow.flow_ingest import (
    ActivityRecord,
    FeatureScaler,
    IpAttributeTable,
    extract_context,
    fit_scaler,
    octet_embedding,
    parse_activity_log,
)


def write(path, text):
    path.write_text(text)
    return path


GOOD_LOG = """user_id,timestamp,label,duration_ms,fwd_packets
10.0.0.1,130.5,legitimate,900,18
10.0.0.1,131.0,legitimate,850,20
203.0.113.9,700.25,malicious,8,120
"""


def test_parse_good_log(tmp_path):
    parsed = parse_activity_log(write(tmp_path / "log.csv", GOOD_LOG))
    assert len(parsed.records) == 3
    assert parsed.skipped_rows == 0
    assert parsed.flow_columns == ("duration_ms", "fwd_packets")
    first = parsed.records[0]
    assert first.user_id == "10.0.0.1"
    assert first.timestamp_min == 130.5
    assert first.day_index == 0
    assert first.flow_features == (900.0, 18.0)
    assert first.label == "legitimate"


def test_parse_day_column_and_default(tmp_path):
    text = """user_id,timestamp,day,label,f1
u1,10,3,legitimate,1.0
u1,20,4,legitimate,2.0
"""
    parsed = parse_activity_log(write(tmp_path / "log.csv", text))
    assert [r.day_index for r in parsed.records] == [3, 4]

    no_day = parse_activity_log(write(tmp_path / "plain.csv", GOOD_LOG), day_index=7)
    assert {r.day_index for r in no_day.records} == {7}


def test_missing_required_column(tmp_path):
    path = write(tmp_path / "log.csv", "user_id,duration_ms\nu1,5\n")
    with pytest.raises(SchemaError):
        parse_activity_log(path)


@pytest.mark.parametrize("header", ["user_id,timestamp,label,f1,f1", "user_id,timestamp,label,timestamp,f1"],
                         ids=["flow-column", "timestamp"])
def test_a_column_named_twice_is_refused(tmp_path, header):
    path = write(tmp_path / "log.csv", f"{header}\nu1,10,legitimate,1,100\n")
    with pytest.raises(SchemaError, match="named more than once"):
        parse_activity_log(path)


def test_empty_file_is_schema_error(tmp_path):
    with pytest.raises(SchemaError):
        parse_activity_log(write(tmp_path / "log.csv", ""))


def test_malformed_rows_skipped_and_counted(tmp_path):
    text = """user_id,timestamp,label,f1
u1,10,legitimate,1.0
u1,nonsense,legitimate,1.0
u1,20,legitimate,not-a-number
u1,30,banana,1.0
u1,2000,legitimate,1.0
u1,40,legitimate,1.0
u1,50,legitimate
u1,60,legitimate,1.0
u1,70,legitimate,1.0
u1,80,legitimate,1.0
u1,90,legitimate,1.0
u1,100,legitimate,inf
u1,110,legitimate,nan
u1,nan,legitimate,1.0
 ,120,legitimate,1.0
u1,130,legitimate,1.0
u1,140,legitimate,1.0
u1,150,legitimate,1.0
u1,160,legitimate,1.0
u1,170,legitimate,1.0
"""
    parsed = parse_activity_log(write(tmp_path / "log.csv", text))
    assert len(parsed.records) == 11
    assert parsed.skipped_rows == 9

    with_day = """user_id,timestamp,day,label,f1
u1,10,0,legitimate,1.0
u1,20,1.5,legitimate,1.0
u1,30,two,legitimate,1.0
u1,40,2,legitimate,1.0
u1,50,3,legitimate,1.0
"""
    parsed = parse_activity_log(write(tmp_path / "day.csv", with_day))
    assert [r.day_index for r in parsed.records] == [0, 2, 3]
    assert parsed.skipped_rows == 2


def test_mostly_malformed_log_rejected(tmp_path):
    text = "user_id,timestamp,label,f1\n" + "u1,bad,legitimate,1\n" * 6 + "u1,10,legitimate,1\n"
    with pytest.raises(CorruptLogError):
        parse_activity_log(write(tmp_path / "log.csv", text))


def test_record_validation():
    with pytest.raises(ValueError):
        ActivityRecord("u", 1440.0, 0, (1.0,), "legitimate")
    with pytest.raises(ValueError):
        ActivityRecord("u", -0.1, 0, (1.0,), "legitimate")
    with pytest.raises(ValueError):
        ActivityRecord("u", 5.0, 0, (1.0,), "suspicious")
    with pytest.raises(ValueError):
        ActivityRecord("", 5.0, 0, (1.0,), "legitimate")
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            ActivityRecord("u", 5.0, 0, (1.0, bad), "legitimate")


def test_scaler_round_trip_and_clamp():
    rng = random.Random(3)
    vectors = [(rng.uniform(-5, 5), rng.uniform(10, 90)) for _ in range(50)]
    scaler = fit_scaler(vectors)
    for vec in vectors:
        out = scaler.transform(vec)
        assert all(0.0 <= x <= 1.0 for x in out)
    lo = scaler.transform((min(v[0] for v in vectors), 10.0))
    assert lo[0] == 0.0
    assert scaler.transform((-1e9, 50.0))[0] == 0.0
    assert scaler.transform((1e9, 50.0))[0] == 1.0


def test_scaler_constant_dimension_maps_to_half():
    scaler = fit_scaler((7.0, float(i)) for i in range(5))
    assert scaler.transform((7.0, 2.0))[0] == 0.5
    assert scaler.transform((123.0, 2.0))[0] == 0.5


def test_scaler_errors():
    with pytest.raises(EmptyTrainingSetError):
        fit_scaler([])
    bad = [(1.0, 2.0), (1.0,)]
    with pytest.raises(SchemaError):
        fit_scaler(bad)
    scaler = fit_scaler(bad[:1])
    with pytest.raises(SchemaError):
        scaler.transform((1.0, 2.0, 3.0))


def test_octet_embedding():
    assert octet_embedding("0.0.0.0") == (0.0, 0.0, 0.0, 0.0)
    assert octet_embedding("255.255.255.255") == (1.0, 1.0, 1.0, 1.0)
    assert octet_embedding("10.0.0.1") == (10 / 255, 0.0, 0.0, 1 / 255)
    # opaque tokens stay deterministic, total, and in the unit cube
    a = octet_embedding("alice@example.com")
    assert a == octet_embedding("alice@example.com")
    assert len(a) == 4 and all(0.0 <= x <= 1.0 for x in a)
    assert octet_embedding("999.0.0.1") != (999 / 255, 0.0, 0.0, 1 / 255)


def test_extract_context(trained):
    flow = (900.0, 18.0, 16.0, 25000.0, 620.0)
    ip_attributes, flow_vector = extract_context("10.0.0.1", 500.0, flow, trained.scaler, trained.embedder())
    assert len(flow_vector) == 5
    assert all(0.0 <= x <= 1.0 for x in flow_vector)
    assert len(ip_attributes) == trained.ip_table.dimension


@pytest.mark.parametrize(
    "arrival, flow",
    [
        (1440.0, (1.0, 2.0)),
        (-0.5, (1.0, 2.0)),
        (float("nan"), (1.0, 2.0)),
        (float("inf"), (1.0, 2.0)),
        (10.0, (float("nan"), 2.0)),
        (10.0, (1.0, float("-inf"))),
        (10.0, (1.0,)),
        (10.0, (1.0, 2.0, 3.0)),
    ],
)
def test_extract_context_rejects_bad_fields(arrival, flow):
    scaler = FeatureScaler(mins=(0.0, 0.0), maxs=(10.0, 10.0))
    with pytest.raises(SchemaError):
        extract_context("u", arrival, flow, scaler, octet_embedding)


def test_ip_table_from_csv(tmp_path):
    path = write(tmp_path / "ip.csv", "ip,rep,risk\n1.2.3.4,0.9,0.1\n5.6.7.8,0.1,0.8\n")
    table = IpAttributeTable.from_csv(path)
    assert table.columns == ("rep", "risk")
    assert table.embed("1.2.3.4") == (1.0, 0.0)
    assert table.embed("5.6.7.8") == (0.0, 1.0)
    assert table.embed("9.9.9.9") == (0.5, 0.5)
    assert len(table.vectors()) == 2


def test_ip_table_errors(tmp_path):
    with pytest.raises(SchemaError):
        IpAttributeTable.from_csv(write(tmp_path / "a.csv", "addr,rep\n1.2.3.4,0.9\n"))
    with pytest.raises(SchemaError):
        IpAttributeTable.from_csv(write(tmp_path / "b.csv", "ip,rep\n1.2.3.4,high\n"))
    with pytest.raises(SchemaError):
        IpAttributeTable.from_csv(write(tmp_path / "c.csv", "ip,rep\n1.2.3.4,0.9,17\n"))
    with pytest.raises(EmptyTrainingSetError):
        IpAttributeTable.from_csv(write(tmp_path / "d.csv", "ip,rep\n"))
