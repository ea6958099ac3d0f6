"""Seeded inputs for the six workloads.

Everything a workload feeds the program under test is built here from
``--seed`` alone: record contents and the order of the schema corpus.
The programs (generator loop and peers) receive the built inputs, never
the seed.  ``input_digest`` is recorded in every result so two runs can
be shown to have measured the same inputs.

Strings are drawn from equal-length vocabularies and dynamic arrays
have fixed counts, so every record of a workload has the same wire
size and ``wire_bytes_per_record`` is exact rather than seed-dependent.
"""

from __future__ import annotations

import hashlib
import random
import struct

from repro.workloads import (
    ASDOFF_A_SCHEMA,
    ASDOFF_B_SCHEMA,
    ASDOFF_CD_SCHEMA,
    WeatherWorkload,
    make_synthetic_schema,
)

#: Copied from benchmarks/test_columnar.py (not imported: the legacy
#: benchmark files must stay deletable without touching this harness).
SENSOR_SCHEMA = """<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/1999/XMLSchema">
  <xsd:complexType name="SensorFrame">
    <xsd:element name="seq" type="xsd:unsigned-int" />
    <xsd:element name="timestamp" type="xsd:double" />
    <xsd:element name="sensor" type="xsd:unsigned-short" />
    <xsd:element name="flags" type="xsd:unsigned-short" />
    <xsd:element name="value" type="xsd:double" />
    <xsd:element name="samples" type="xsd:double" minOccurs="0" maxOccurs="*" />
  </xsd:complexType>
</xsd:schema>"""

SENSOR_SCALARS = ("seq", "timestamp", "sensor", "flags", "value")
SAMPLES_PER_RECORD = 128
BATCH_RECORDS = 256
BATCH_POOL = 8

#: The subscriber's native (v1) SurfaceObservation is the stock weather schema;
#: the publisher's v2 adds two elements, so every delivery is decoded
#: through the fused decode+project converter.
WEATHER_V1_SCHEMA = WeatherWorkload.schema
WEATHER_V2_SCHEMA = WEATHER_V1_SCHEMA.replace(
    '    <xsd:element name="remarks" type="xsd:string" />\n',
    '    <xsd:element name="remarks" type="xsd:string" />\n'
    '    <xsd:element name="pressure_trend" type="xsd:short" />\n'
    '    <xsd:element name="runway_visual_range" type="xsd:float" />\n',
)
WEATHER_FORMAT = "SurfaceObservation"
#: The double field that carries the open-loop due time across processes.
STAMP_FIELD = "altimeter"

RECORD_POOL = 1024
CORPUS_SIZE = 64

_CENTERS = ["ZTL", "ZNY", "ZAU", "ZFW", "ZLA", "ZOB", "ZDC", "ZMA", "ZSE", "ZDV"]
_AIRLINES = ["DL", "UA", "AA", "WN", "AF", "BA", "LH", "NW", "CO", "US"]
_EQUIPMENT = ["B727", "B737", "B757", "B767", "B777", "MD80", "MD11", "A320"]
_AIRPORTS = ["ATL", "ORD", "DFW", "LAX", "JFK", "SFO", "DEN", "SEA", "MIA", "BOS"]
_STATIONS = ["KATL", "KORD", "KDFW", "KLAX", "KJFK", "KSEA", "KDEN", "KMIA"]
_REMARKS = ["AO2 SLP123", "AO2 SLP092", "RAB05 E18 ", "TWR VIS 2 "]


def _float32(value: float) -> float:
    return struct.unpack("f", struct.pack("f", value))[0]


def record_b(rng: random.Random) -> dict:
    """One ASDOff structure B record (104 B framed from SPARC_32)."""
    off_time = rng.randrange(946684800, 978307200)
    return {
        "cntrID": rng.choice(_CENTERS),
        "arln": rng.choice(_AIRLINES),
        "fltNum": rng.randrange(1, 9999),
        "equip": rng.choice(_EQUIPMENT),
        "org": rng.choice(_AIRPORTS),
        "dest": rng.choice(_AIRPORTS),
        "off": [off_time + i * 60 for i in range(5)],
        "eta": [off_time + 3600 + i * 300 for i in range(3)],
        "eta_count": 3,
    }


def record_cd(rng: random.Random) -> dict:
    """One nested structure CD record (three Bs and two doubles)."""
    return {
        "one": record_b(rng),
        "bart": rng.uniform(0.0, 1.0),
        "two": record_b(rng),
        "lisa": rng.uniform(0.0, 1.0),
        "three": record_b(rng),
    }


def weather_v2(rng: random.Random) -> dict:
    """One SurfaceObservation v2 record; ``altimeter`` is overwritten
    with the due time at publish."""
    return {
        "station": rng.choice(_STATIONS),
        "issued": rng.randrange(946684800, 978307200),
        "temperature": _float32(round(rng.uniform(-20.0, 40.0), 1)),
        "dewpoint": _float32(round(rng.uniform(-25.0, 25.0), 1)),
        "wind_dir": rng.randrange(0, 360),
        "wind_speed": rng.randrange(0, 45),
        "gusting": rng.random() < 0.2,
        "altimeter": 0.0,
        "visibility": _float32(round(rng.uniform(0.25, 10.0), 2)),
        "cloud_layers": [rng.randrange(5, 250) * 100 for _ in range(3)],
        "cloud_layers_count": 3,
        "remarks": rng.choice(_REMARKS),
        "pressure_trend": rng.randrange(-9, 10),
        "runway_visual_range": _float32(rng.randrange(6, 60) * 100.0),
    }


#: v2 fields the v1 subscriber never sees.
WEATHER_V2_ONLY = ("pressure_trend", "runway_visual_range")


def sensor_batch(rng: random.Random, first_seq: int) -> list[dict]:
    """One batch of SensorFrame rows; samples stay plain lists here and
    are turned into ndarrays by the sender (the bulk-sender idiom)."""
    rows = []
    for index in range(BATCH_RECORDS):
        seq = first_seq + index
        rows.append({
            "seq": seq,
            "timestamp": 954547200.0 + seq * 0.001,
            "sensor": rng.randrange(64),
            "flags": rng.randrange(4),
            "value": rng.randrange(4000) * 0.25,
            "samples": [rng.random() for _ in range(SAMPLES_PER_RECORD)],
            "samples_count": SAMPLES_PER_RECORD,
        })
    return rows


def schema_corpus(rng: random.Random) -> list[tuple[str, str, str, dict]]:
    """The 64 schemas of ``discover_cold`` as (path, format, xml, record).

    Content is fixed (the three ASDOff structures plus synthetic
    schemas of 8..64 fields); only the order and the one record encoded
    per schema come from the seed.
    """
    corpus = [
        ("/asdoff_a.xsd", "ASDOffEvent", ASDOFF_A_SCHEMA, _record_a(rng)),
        ("/asdoff_b.xsd", "ASDOffEvent", ASDOFF_B_SCHEMA, record_b(rng)),
        ("/asdoff_cd.xsd", "threeASDOffs", ASDOFF_CD_SCHEMA, record_cd(rng)),
    ]
    synthetic = CORPUS_SIZE - len(corpus)
    for index in range(synthetic):
        fields = 8 + round(index * (64 - 8) / (synthetic - 1))
        name = f"Synthetic{index:02d}"
        xml = make_synthetic_schema(fields, type_name=name)
        corpus.append(
            (f"/synthetic/{index:02d}.xsd", name, xml, _synthetic_record(rng, fields))
        )
    rng.shuffle(corpus)
    return corpus


def _record_a(rng: random.Random) -> dict:
    base = record_b(rng)
    off_time = base["off"][0]
    del base["eta_count"]
    base["off"] = off_time
    base["eta"] = off_time + 7200
    return base


# The "mixed" cycle of repro.workloads.synthetic, by field index.
_SYNTHETIC_CYCLE = ("integer", "double", "string", "float", "unsigned-long", "short")


def _synthetic_record(rng: random.Random, fields: int) -> dict:
    record = {}
    for index in range(fields):
        kind = _SYNTHETIC_CYCLE[index % len(_SYNTHETIC_CYCLE)]
        if kind == "string":
            value = "".join(rng.choice("abcdefghijklmnop") for _ in range(8))
        elif kind == "float":
            value = _float32(rng.uniform(-1000, 1000))
        elif kind == "double":
            value = round(rng.uniform(-1000, 1000), 3)
        elif kind == "short":
            value = rng.randrange(-30000, 30000)
        elif kind == "unsigned-long":
            value = rng.randrange(0, 2**31)
        else:
            value = rng.randrange(-(2**31), 2**31)
        record[f"f{index}"] = value
    return record


def build_inputs(workload: str, seed: int) -> dict:
    """The picklable inputs of ``workload`` for ``seed``, with a digest."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "stream_small":
        inputs = {"records": [record_b(rng) for _ in range(RECORD_POOL)]}
    elif workload == "stream_bulk":
        inputs = {
            "batches": [
                sensor_batch(rng, first_seq=index * BATCH_RECORDS)
                for index in range(BATCH_POOL)
            ]
        }
    elif workload == "rpc_echo":
        inputs = {"records": [record_cd(rng) for _ in range(RECORD_POOL // 4)]}
    elif workload in ("broker_open", "broker_open_aio"):
        # Same inputs on both planes: the broker is the only variable.
        rng = random.Random(f"broker_open:{seed}")
        inputs = {"records": [weather_v2(rng) for _ in range(RECORD_POOL)]}
    elif workload == "discover_cold":
        inputs = {"corpus": schema_corpus(rng)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inputs["digest"] = hashlib.sha256(
        repr(sorted(inputs.items())).encode("utf-8")
    ).hexdigest()[:16]
    return inputs
