"""Unit tests for the columnar bulk codec (repro.pbio.columnar).

Round-trip coverage lives in tests/property and tests/wire; this file
pins the codec's edges — input validation, numpy detection, the
count cross-checks, the zero-copy :class:`ColumnBatchView` — plus the
batch metrics counters.
"""

import pytest

from repro.core.xml2wire import XML2Wire
from repro.errors import DecodeError, EncodeError
from repro.pbio import ColumnBatchView, IOContext, get_columnar_plan
from repro.pbio import types as pbio_types
from repro.workloads import (
    ASDOFF_B_SCHEMA,
    ASDOFF_CD_SCHEMA,
    AirlineWorkload,
    MiningWorkload,
    WeatherWorkload,
)

HAVE_NUMPY = pbio_types.numpy is not None

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def register(schema, name):
    context = IOContext()
    XML2Wire(context).register_schema(schema)
    return context, context.lookup_format(name)


@pytest.fixture
def asdoff_b():
    return register(ASDOFF_B_SCHEMA, "ASDOffEvent")


@pytest.fixture
def weather():
    workload = WeatherWorkload(seed=3)
    context, fmt = register(workload.schema, workload.format_name)
    return context, fmt, workload


class TestInputValidation:
    def test_empty_batch_rejected(self, asdoff_b):
        context, fmt = asdoff_b
        with pytest.raises(EncodeError) as excinfo:
            context.encode_batch(fmt, [])
        assert "at least one record" in str(excinfo.value)

    def test_nested_format_rejected(self):
        context, fmt = register(ASDOFF_CD_SCHEMA, "threeASDOffs")
        record = AirlineWorkload(seed=1).record_cd()
        with pytest.raises(EncodeError) as excinfo:
            context.encode_batch(fmt, [record])
        assert "nested" in str(excinfo.value)

    def test_missing_field_names_the_row(self, asdoff_b):
        context, fmt = asdoff_b
        records = AirlineWorkload(seed=1).batch_b(3)
        del records[2]["org"]
        with pytest.raises(EncodeError) as excinfo:
            context.encode_batch(fmt, records)
        text = str(excinfo.value)
        assert "record 2" in text and "org" in text

    def test_count_cross_check_names_the_row(self, asdoff_b):
        context, fmt = asdoff_b
        records = AirlineWorkload(seed=1).batch_b(3)
        records[1]["eta_count"] = 99  # contradicts len(records[1]["eta"])
        with pytest.raises(EncodeError) as excinfo:
            context.encode_batch(fmt, records)
        assert "record 1" in str(excinfo.value)

    def test_plan_is_cached_per_format(self, asdoff_b):
        _, fmt = asdoff_b
        assert get_columnar_plan(fmt) is get_columnar_plan(fmt)


class TestNumpyTriState:
    """numpy is detected, never asked for: both paths, same bytes."""

    def test_auto_and_explicit_paths_agree(self, weather, pure_python):
        context, fmt, workload = weather
        records = workload.batch(16)
        detected = context.encode_batch(fmt, records)
        with pure_python():
            assert context.encode_batch(fmt, records) == detected

    def test_require_numpy_raises_when_absent(self, weather, pure_python):
        """Column views are the one thing that needs numpy: typed error."""
        context, fmt, workload = weather
        message = context.encode_batch(fmt, workload.batch(2))
        with pure_python():
            view = context.decode_batch_view(message)
            with pytest.raises(DecodeError, match="needs numpy"):
                view.column(fmt.field_names()[0])
            assert view.row(0) == context.decode_batch(message)[0]

    def test_pure_python_decode_without_numpy(self, weather, pure_python):
        """With numpy gone entirely, batches still round-trip."""
        context, fmt, workload = weather
        records = workload.batch(8)
        message = context.encode_batch(fmt, records)
        with pure_python():
            assert context.encode_batch(fmt, records) == message
            assert list(context.decode_batch(message)) == records


class TestPayloadHelpers:
    def test_payload_roundtrip_without_header(self, asdoff_b):
        context, fmt = asdoff_b
        records = AirlineWorkload(seed=9).batch_b(6)
        plan = get_columnar_plan(fmt)
        assert plan.decode_records(plan.encode(records)) == records

    def test_decoded_batch_sequence_protocol(self, asdoff_b):
        context, fmt = asdoff_b
        records = AirlineWorkload(seed=9).batch_b(4)
        batch = context.decode_batch(context.encode_batch(fmt, records))
        assert len(batch) == 4
        assert batch[0] == records[0]
        assert batch[-1] == records[-1]
        assert list(batch) == records
        assert batch.format_name == "ASDOffEvent"

    def test_decode_accepts_bytearray(self, asdoff_b):
        context, fmt = asdoff_b
        records = AirlineWorkload(seed=9).batch_b(2)
        message = bytearray(context.encode_batch(fmt, records))
        assert list(context.decode_batch(message)) == records


class TestColumnBatchView:
    @needs_numpy
    def test_scalar_column_is_zero_copy(self, asdoff_b):
        import numpy

        context, fmt = asdoff_b
        records = AirlineWorkload(seed=2).batch_b(32)
        view = context.decode_batch_view(context.encode_batch(fmt, records))
        flt = view.column("fltNum")
        assert flt.shape == (32,)
        assert flt.tolist() == [r["fltNum"] for r in records]
        # Aliases the payload: no copy was made.
        assert flt.base is not None

    @needs_numpy
    def test_static_array_column_shape(self, asdoff_b):
        context, fmt = asdoff_b
        records = AirlineWorkload(seed=2).batch_b(8)
        view = context.decode_batch_view(context.encode_batch(fmt, records))
        off = view.column("off")
        assert off.shape == (8, 5)
        assert off.tolist() == [r["off"] for r in records]

    @needs_numpy
    def test_dynamic_column_flat_and_counts(self, asdoff_b):
        context, fmt = asdoff_b
        workload = AirlineWorkload(seed=2)
        records = [workload.record_b(eta_count=n) for n in (3, 0, 2, 5)]
        view = context.decode_batch_view(context.encode_batch(fmt, records))
        flat, counts = view.dynamic_column("eta")
        assert counts.tolist() == [3, 0, 2, 5]
        expected = [value for r in records for value in r["eta"]]
        assert flat.tolist() == expected

    def test_strings_column(self, asdoff_b):
        if not HAVE_NUMPY:
            pytest.skip("view requires numpy for offset access")
        context, fmt = asdoff_b
        records = AirlineWorkload(seed=2).batch_b(8)
        view = context.decode_batch_view(context.encode_batch(fmt, records))
        assert view.strings("dest") == [r["dest"] for r in records]
        with pytest.raises(DecodeError):
            view.strings("fltNum")

    def test_row_access_and_iteration(self, weather):
        context, fmt, workload = weather
        records = workload.batch(6)
        view = context.decode_batch_view(context.encode_batch(fmt, records))
        assert len(view) == 6
        assert view.row(0) == records[0]
        assert view.row(-1) == records[-1]
        with pytest.raises(IndexError):
            view.row(6)
        assert list(view) == records
        assert view.materialize() is view.materialize()  # cached

    @needs_numpy
    def test_char_column_rejected(self, weather):
        context, fmt, workload = weather
        view = context.decode_batch_view(
            context.encode_batch(fmt, workload.batch(2))
        )
        with pytest.raises(DecodeError) as excinfo:
            view.column("station")
        assert "station" in str(excinfo.value)


class TestBatchMetrics:
    def test_counters_track_messages_and_records(self, fresh_registry):
        workload = MiningWorkload(seed=4)
        context, fmt = register(workload.schema, workload.format_name)
        records = workload.batch(12)
        message = context.encode_batch(fmt, records)
        context.decode_batch(message)
        registry = fresh_registry
        text = registry.render()
        assert 'pbio_batch_total{op="encode"} 1' in text
        assert 'pbio_batch_records_total{op="encode"} 12' in text
        assert 'pbio_batch_total{op="decode"} 1' in text
        assert 'pbio_batch_records_total{op="decode"} 12' in text

    def test_disabled_registry_skips_counters(self, fresh_registry):
        workload = MiningWorkload(seed=4)
        context, fmt = register(workload.schema, workload.format_name)
        fresh_registry.disable()
        message = context.encode_batch(fmt, workload.batch(3))
        context.decode_batch(message)
        assert "pbio_batch_total" not in fresh_registry.render()
