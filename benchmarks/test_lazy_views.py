"""Ablation A3 — lazy record views versus eager conversion.

PBIO's homogeneous receive hands out pointers into the receive buffer;
:class:`~repro.pbio.RecordView` reproduces that: fields unpack only when
touched.  For selective consumers (a display point reading 2 of 64
fields) the view should win big; for consumers that touch everything the
eager generated converter should win (one batched unpack beats 64 lazy
ones).  Both ends of that trade-off are measured, so the crossover is
visible in the report.
"""

import pytest

from repro import IOContext, SPARC_32, XML2Wire
from repro.pbio import RecordView
from repro.pbio.codegen import make_converter
from repro.pbio.encode import encode_record
from repro.workloads import SyntheticWorkload

FIELDS = 64


@pytest.fixture(scope="module")
def wide_record():
    workload = SyntheticWorkload(FIELDS, mix="mixed")
    context = IOContext(SPARC_32)
    XML2Wire(context).register_schema(workload.schema)
    fmt = context.lookup_format("Synthetic")
    payload = encode_record(fmt, workload.record())
    return fmt, payload


def test_selective_access_eager(benchmark, wide_record):
    """Touch 2 of 64 fields after a full eager conversion."""
    fmt, payload = wide_record
    convert = make_converter(fmt)

    def read_two():
        record = convert(payload)
        return record["f0"], record["f3"]

    benchmark(read_two)


def test_selective_access_lazy(benchmark, wide_record):
    """Touch 2 of 64 fields through a view: only those two unpack."""
    fmt, payload = wide_record

    def read_two():
        view = RecordView(fmt, payload)
        return view["f0"], view["f3"]

    benchmark(read_two)


def test_full_access_eager(benchmark, wide_record):
    fmt, payload = wide_record
    convert = make_converter(fmt)
    names = fmt.field_names()

    def read_all():
        record = convert(payload)
        return [record[name] for name in names]

    benchmark(read_all)


def test_full_access_lazy(benchmark, wide_record):
    fmt, payload = wide_record
    names = fmt.field_names()

    def read_all():
        view = RecordView(fmt, payload)
        return [view[name] for name in names]

    benchmark(read_all)


def test_lazy_wins_selective_eager_wins_full(benchmark, wide_record):
    """The crossover, asserted."""
    import time

    fmt, payload = wide_record
    convert = make_converter(fmt)
    names = fmt.field_names()

    def timed(func, rounds=2000):
        start = time.perf_counter()
        for _ in range(rounds):
            func()
        return time.perf_counter() - start

    lazy_selective = timed(lambda: RecordView(fmt, payload)["f0"])
    eager_selective = timed(lambda: convert(payload)["f0"])
    assert lazy_selective < eager_selective

    lazy_full = timed(lambda: [RecordView(fmt, payload)[n] for n in names], 300)
    eager_full = timed(lambda: convert(payload), 300)
    assert eager_full < lazy_full
    benchmark.extra_info["eager_over_lazy_selective"] = round(
        eager_selective / lazy_selective, 2
    )
    benchmark(lambda: RecordView(fmt, payload)["f0"])
