"""Registration builds metadata; code is generated at first use.

``register_schema`` / ``register_format`` / ``learn_format`` compile
nothing.  The ``encode`` encoder, the ``encode_into`` encoder and the
converter are each generated and compiled by the first call that needs
them — exactly once — and the bytes are the golden vectors' bytes either
way.
"""

import threading

import pytest

from repro import IOContext, SPARC_32, X86_64, XML2Wire
from repro.pbio.encode import get_generated_encoder
from repro.workloads import ASDOFF_B_SCHEMA, ASDOFF_CD_SCHEMA

from tests.golden import vectors


def misses(registry):
    """``pbio_codegen_total`` misses by kind (absent kinds are 0)."""
    series = registry.snapshot().get("pbio_codegen_total", {})
    return {dict(labels)["kind"]: int(value) for labels, value in series.items()}


class TestRegistrationCompilesNothing:
    def test_register_format(self, fresh_registry):
        context, fmt, _ = vectors.build("asdoff_cd")
        assert misses(fresh_registry) == {}
        assert context.converter_cache_stats()["builds"] == 0
        for nested in [fmt, *fmt.nested_formats()]:
            assert not hasattr(nested, "_encode_plan")
            assert not hasattr(nested, "_generated_encoder")
            assert not hasattr(nested, "_generated_encode_into")

    def test_register_schema(self, fresh_registry):
        context = IOContext(SPARC_32)
        formats = XML2Wire(context).register_schema(ASDOFF_CD_SCHEMA)
        assert len(formats) == 2
        assert misses(fresh_registry) == {}
        assert context.converter_cache_stats()["builds"] == 0

    def test_learn_format(self, fresh_registry):
        _, fmt, _ = vectors.build("asdoff_b")
        receiver = IOContext(X86_64)
        receiver.learn_format(fmt.to_wire_metadata())
        assert misses(fresh_registry) == {}
        assert receiver.converter_cache_stats()["builds"] == 0


class TestEachRoutineIsBuiltByItsFirstUse:
    def test_one_build_per_routine(self, fresh_registry):
        sender, fmt, record = vectors.build("asdoff_b")

        message = sender.encode(fmt, record)
        assert misses(fresh_registry) == {"encoder": 1}
        assert sender.encode(fmt, record) == message
        assert misses(fresh_registry) == {"encoder": 1}

        buffer = bytearray(len(message))
        assert sender.encode_into(fmt, record, buffer) == len(message)
        assert bytes(buffer) == message
        assert misses(fresh_registry) == {"encoder": 1, "encode_into": 1}
        sender.encode_into(fmt, record, buffer)
        assert misses(fresh_registry) == {"encoder": 1, "encode_into": 1}

        receiver = IOContext(X86_64)
        receiver.learn_format(fmt.to_wire_metadata())
        assert receiver.decode(message).values == record
        assert misses(fresh_registry)["converter"] == 1
        assert receiver.converter_cache_stats()["builds"] == 1
        receiver.decode(message)
        assert misses(fresh_registry)["converter"] == 1
        assert receiver.converter_cache_stats()["builds"] == 1

    def test_receive_only_context_never_builds_an_encoder(self, fresh_registry):
        sender, fmt, record = vectors.build("asdoff_a")
        message = sender.encode(fmt, record)
        receiver = IOContext(X86_64)
        XML2Wire(receiver).register_schema(ASDOFF_B_SCHEMA)  # its native formats
        receiver.learn_format(fmt.to_wire_metadata())
        receiver.decode(message)
        assert misses(fresh_registry) == {"encoder": 1, "converter": 1}

    def test_pre_warming_is_the_existing_getter(self, fresh_registry):
        sender, fmt, record = vectors.build("asdoff_a")
        get_generated_encoder(fmt)
        get_generated_encoder(fmt, into=True)
        assert misses(fresh_registry) == {"encoder": 1, "encode_into": 1}
        sender.encode(fmt, record)
        sender.encode_into(fmt, record, bytearray(256))
        assert misses(fresh_registry) == {"encoder": 1, "encode_into": 1}

    @pytest.mark.parametrize("name", vectors.VECTOR_NAMES)
    def test_first_encode_is_the_golden_message(self, name):
        context, fmt, record = vectors.build(name)
        assert context.encode(fmt, record) == vectors.data_path(name).read_bytes()


class TestRacingTheFirstEncode:
    def test_two_threads_both_get_the_right_bytes(self):
        expected = vectors.data_path("asdoff_cd").read_bytes()
        for _ in range(20):
            context, fmt, record = vectors.build("asdoff_cd")
            barrier = threading.Barrier(2)
            results = []

            def first_encode():
                barrier.wait()
                results.append(context.encode(fmt, record))

            threads = [threading.Thread(target=first_encode) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results == [expected, expected]
