"""The reference decoder: the executable specification of NDR decoding.

Everything a receiver does to a record is written here a second time,
the slow and obvious way — walk the wire plan's leaves one
``unpack_from`` at a time, chase every pointer, assemble the wire-shaped
dict, then (when the native format differs) walk the projection steps
over it.  Nothing on a data path calls this module.  It exists so that
the generated converter (:mod:`repro.pbio.codegen`) has something
independent to be tested against — :func:`reference_decode` must agree
with :meth:`IOContext.decode <repro.pbio.context.IOContext.decode>` on
every payload — and as the interpreted baseline of the ablation
benchmark (experiment A1).  The matching reference *encoder* is
:meth:`EncodePlan.encode <repro.pbio.encode.EncodePlan.encode>`.
"""

from __future__ import annotations

import copy
import struct
from typing import Callable

from repro.errors import DecodeError
from repro.pbio.codegen import Converter, _read_string
from repro.pbio.encode import get_encode_plan
from repro.pbio.evolution import _plan_steps
from repro.pbio.format import IOFormat

Projection = Callable[[dict], dict]


def make_interpreted_converter(wire_format: IOFormat) -> Converter:
    """A converter that walks the format metadata for every record.

    Semantically identical to the generated converter for the wire
    format's own shape.  It still uses the precompiled plan's leaf list,
    but performs per-leaf unpacking, dictionary assembly and dispatch at
    run time for every record.
    """
    plan = get_encode_plan(wire_format)
    order = plan.order
    count_paths = {
        measured: leaf.path for leaf in plan.leaves for measured in leaf.measures
    }
    unpack_from = struct.unpack_from

    def convert(payload: bytes) -> dict:
        flat: dict[tuple[str, ...], object] = {}
        for leaf in plan.leaves:
            offset = leaf.offset
            if leaf.role in ("scalar", "count", "string_ptr", "dyn_ptr"):
                (value,) = unpack_from(order + leaf.code, payload, offset)
            elif leaf.role == "char":
                (raw,) = unpack_from(order + leaf.code, payload, offset)
                value = raw.decode("latin-1")
            elif leaf.role == "bool":
                (raw,) = unpack_from(order + leaf.code, payload, offset)
                value = bool(raw)
            elif leaf.role == "chararray":
                (raw,) = unpack_from(order + leaf.code, payload, offset)
                value = raw.split(b"\x00", 1)[0].decode("utf-8")
            else:  # static array
                value = list(unpack_from(order + leaf.code, payload, offset))
            flat[leaf.path] = value
        for item in plan.var_items:
            pointer = flat[item.path]
            if item.kind == "string":
                flat[item.path] = _read_string(payload, pointer)
            elif pointer:
                count = flat[count_paths[item.path]]
                flat[item.path] = list(
                    unpack_from(f"{order}{count}{item.element_code}", payload, pointer)
                )
            else:
                flat[item.path] = []
        return _assemble(wire_format, (), flat)

    return convert


def _assemble(fmt: IOFormat, prefix: tuple[str, ...], flat: dict) -> dict:
    record: dict = {}
    for field in fmt.compiled_fields:
        path = prefix + (field.name,)
        if field.nested is not None:
            if field.static_count == 1:
                record[field.name] = _assemble(field.nested, path, flat)
            else:
                record[field.name] = [
                    _assemble(field.nested, path + (str(i),), flat)
                    for i in range(field.static_count)
                ]
        elif field.is_string and field.static_count > 1:
            record[field.name] = [
                flat[path + (str(i),)] for i in range(field.static_count)
            ]
        else:
            record[field.name] = flat[path]
    return record


def make_interpreted_projection(
    wire_format: IOFormat, target_format: IOFormat
) -> Projection:
    """The metadata-walking projection: a flat loop over the plan steps.

    Maps a wire-shaped record onto ``target_format`` by name.  Every
    projected record owns its default lists and dicts outright — the
    freshness the generated converter gets from inlined literals.
    """
    plan: list[tuple[str, str, object]] = []
    for field, action, extra in _plan_steps(wire_format, target_format):
        if action in ("nested", "nested_list"):
            extra = make_interpreted_projection(*extra)
        plan.append((field.name, action, extra))

    def project(record: dict) -> dict:
        result: dict = {}
        for name, action, extra in plan:
            if action == "copy":
                result[name] = record[name]
            elif action == "default":
                # Deep-copy mutable defaults so records never alias
                # each other (or the plan) through a defaulted field.
                result[name] = (
                    copy.deepcopy(extra)
                    if isinstance(extra, (list, dict))
                    else extra
                )
            elif action == "nested":
                result[name] = extra(record[name])
            else:  # nested_list
                result[name] = [extra(element) for element in record[name]]
        return result

    return project


def reference_decode(
    wire_format: IOFormat, payload, target_format: IOFormat | None = None
) -> dict:
    """Decode one NDR payload the interpreted way.

    ``payload`` is the bare NDR payload (no message header).  With a
    ``target_format`` the wire-shaped record is then projected onto it.
    Raises :class:`~repro.errors.DecodeError` for short or corrupt
    payloads, exactly where :meth:`IOContext.decode` does.
    """
    if len(payload) < wire_format.record_length:
        raise DecodeError(
            f"payload of {len(payload)} bytes is shorter than the "
            f"{wire_format.record_length}-byte base record of "
            f"{wire_format.name!r}"
        )
    try:
        record = make_interpreted_converter(wire_format)(payload)
    except (IndexError, ValueError, struct.error) as exc:
        raise DecodeError(
            f"corrupt payload for format {wire_format.name!r}: {exc}"
        ) from exc
    if target_format is None:
        return record
    return make_interpreted_projection(wire_format, target_format)(record)
