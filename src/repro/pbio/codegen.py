"""Run-time generation of specialized conversion routines.

PBIO's performance story rests on converting incoming records with
"custom routines created on-the-fly through dynamic code generation",
specialized to the exact (wire format, native format) pair.  This module
is the Python analogue: given a wire format's metadata, it *writes Python
source* for a converter function — every offset, struct code and field
name baked in as a literal — compiles it with :func:`compile`/``exec``,
and returns the resulting function.

The generated converter makes exactly one ``struct.unpack_from`` call for
the entire fixed region of the record (pad bytes standing in for
compiler padding and skipped wire fields), then fixes up strings and
dynamic arrays from the variable section.  When the receiver's native
format differs from the wire format (format evolution), the projection
is baked into the same routine — there is one generator, and decoding a
record in its own wire shape is the case ``target = wire``.  The
interpreted walker in :mod:`repro.pbio.reference` is the executable
specification it is tested against, and the baseline of the ablation
benchmark (experiment A1): the generated/interpreted gap is this
module's reason to exist.

Example of generated source for the paper's Structure A on sparc_32::

    def convert(payload, unpack_from=unpack_from):
        v = unpack_from('>IIiIII4xLL', payload, 0)
        return {
            'cntrId': _str(payload, v[0]),
            'arln': _str(payload, v[1]),
            'fltNum': v[2],
            ...
        }
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.errors import ConversionError, EncodeError
from repro.pbio.encode import (
    EncodePlan,
    _char_buffer,
    _char_byte,
    get_encode_plan,
    ndarray_wire_bytes,
)
from repro.pbio.evolution import _plan_steps
from repro.pbio.format import IOFormat
from repro.pbio.types import DTYPE_CHARS

Converter = Callable[[bytes], dict]


def _read_string(payload, offset: int) -> str | None:
    """Shared helper injected into generated code: NUL-terminated string.

    Accepts any buffer (``bytes``, ``bytearray``, ``memoryview``).
    ``memoryview`` has no ``index``, so the terminator scan copies small
    windows (128 bytes) instead of the whole payload — strings stay
    cheap on the zero-copy receive path.
    """
    if offset == 0:
        return None
    try:
        end = payload.index(0, offset)
    except AttributeError:
        position = offset
        total = len(payload)
        while True:
            window_end = min(position + 128, total)
            found = bytes(payload[position:window_end]).find(0)
            if found >= 0:
                end = position + found
                break
            if window_end == total:
                raise ValueError("unterminated string in payload") from None
            position = window_end
    return str(payload[offset:end], "utf-8")


def _compile(source: str, entry_point: str, label: str, namespace: dict):
    """Compile generated ``source`` and return its ``entry_point`` function.

    The one ``exec`` of generated routines: every converter and encoder
    (and the XDR comparator's stubs) goes through here.  ``namespace``
    supplies the helpers the source refers to and receives everything it
    defines.  A generator bug surfaces as a
    :class:`~repro.errors.ConversionError` carrying the offending source.
    """
    try:
        exec(compile(source, f"<{label}>", "exec"), namespace)  # noqa: S102 - the DCG mechanism itself
    except SyntaxError as exc:
        raise ConversionError(
            f"generated {label} failed to compile: {exc}\n{source}"
        ) from exc
    return namespace[entry_point]


def generate_converter_source(
    wire_format: IOFormat,
    target_format: IOFormat | None = None,
    *,
    function_name: str = "convert",
) -> str:
    """Python source of the converter for one (wire, target) format pair.

    The routine makes one ``unpack_from`` over the wire record's fixed
    region and returns a dict display shaped like ``target_format``
    (``None`` means the wire format itself): matched fields read
    straight out of the unpacked tuple, fields the wire lacks are inlined
    default literals (fresh objects per record, so nothing aliases), and
    wire fields the target drops cost nothing — their positions are
    never read and their dynamic arrays never unpacked.  Which of those
    applies is decided by :func:`repro.pbio.evolution._plan_steps`, the
    same steps the reference projection and ``describe_projection``
    follow.  Exposed separately from :func:`make_converter` so tests and
    tools can inspect the generated code.
    """
    plan = get_encode_plan(wire_format)
    array_names = {
        item.path: f"a{number}"
        for number, item in enumerate(plan.var_items)
        if item.kind == "array"
    }
    used_arrays: set[tuple[str, ...]] = set()
    body = _emit_record(
        plan, wire_format, target_format or wire_format, (),
        array_names, used_arrays, indent=2,
    )
    prologue = [
        # Dynamic arrays unpack with a run-time count: one statement per
        # array the target keeps, ahead of the dict display.
        f"    {array_names[item.path]} = ("
        f"list(unpack_from({plan.order!r} + str(v[{item.count_position}]) + "
        f"{item.element_code!r}, payload, v[{item.pointer_position}])) "
        f"if v[{item.pointer_position}] else [])"
        for item in plan.var_items
        if item.path in used_arrays
    ]
    lines = [
        f"def {function_name}(payload, unpack_from=unpack_from, _str=_str):",
        f"    v = unpack_from({plan.fixed_struct.format!r}, payload, 0)",
        *prologue,
        f"    return {body}",
        "",
    ]
    return "\n".join(lines)


def make_converter(
    wire_format: IOFormat, target_format: IOFormat | None = None
) -> Converter:
    """Compile the converter for the pair (see :func:`generate_converter_source`)."""
    label = f"pbio converter {wire_format.name}"
    if target_format is not None:
        label += f" -> {target_format.name}"
    return _compile(
        generate_converter_source(wire_format, target_format),
        "convert",
        label,
        {"unpack_from": struct.unpack_from, "_str": _read_string},
    )


# -- generation internals -----------------------------------------------------


def _wire_value_expr(plan: EncodePlan, field, path: tuple[str, ...]) -> str:
    """The expression extracting a static (non-nested) wire field's value."""
    if field.is_string:
        if field.static_count == 1:
            return f"_str(payload, v[{plan.leaf_by_path[path].position}])"
        parts = [
            f"_str(payload, v[{plan.leaf_by_path[path + (str(i),)].position}])"
            for i in range(field.static_count)
        ]
        return "[" + ", ".join(parts) + "]"
    leaf = plan.leaf_by_path[path]
    start = leaf.position
    if leaf.role == "chararray":
        return f"v[{start}].split(b'\\x00', 1)[0].decode('utf-8')"
    if leaf.role == "array":
        return f"list(v[{start}:{start + leaf.count}])"
    if leaf.role == "char":
        return f"v[{start}].decode('latin-1')"
    if leaf.role == "bool":
        return f"bool(v[{start}])"
    return f"v[{start}]"  # scalar or count


def _emit_record(
    plan: EncodePlan,
    wire_fmt: IOFormat,
    target_fmt: IOFormat,
    prefix: tuple[str, ...],
    array_names: dict[tuple[str, ...], str],
    used_arrays: set[tuple[str, ...]],
    indent: int,
) -> str:
    """Emit the target-shaped dict display sourced from the wire plan."""
    pad = " " * (indent * 4)
    inner = " " * ((indent + 1) * 4)
    entries: list[str] = []
    for field, action, extra in _plan_steps(wire_fmt, target_fmt):
        path = prefix + (field.name,)
        if action == "default":
            value = repr(extra)
        elif action == "copy":
            if extra.type.is_dynamic_array:
                used_arrays.add(path)
                value = array_names[path]
            else:
                value = _wire_value_expr(plan, extra, path)
        elif action == "nested":
            value = _emit_record(
                plan, *extra, path, array_names, used_arrays, indent + 1
            )
        else:  # nested_list
            elements = [
                _emit_record(
                    plan, *extra, path + (str(i),), array_names, used_arrays,
                    indent + 1,
                )
                for i in range(field.static_count)
            ]
            value = "[" + ", ".join(elements) + "]"
        entries.append(f"{inner}{field.name!r}: {value},")
    return "{\n" + "\n".join(entries) + f"\n{pad}}}"


# -- generated encoder (sender-side DCG) ---------------------------------------
#
# PBIO's sender side is a memory copy; the closest Python analogue is a
# generated function that evaluates every field expression inline and
# packs the whole fixed region in one call.  Error parity with the
# plan-based encoder is preserved by falling back to it on unexpected
# exceptions: the plan re-runs the record and raises its precise
# EncodeError (or, should it somehow succeed, supplies the result).


def _path_expr(path: tuple[str, ...]) -> str:
    parts = []
    for part in path:
        if part.isdigit():
            parts.append(f"[{part}]")
        else:
            parts.append(f"[{part!r}]")
    return "record" + "".join(parts)


def _container_get_expr(prefix: tuple[str, ...], name: str) -> str:
    container = _path_expr(prefix) if prefix else "record"
    return f"{container}.get({name!r})"


def generate_encoder_source(fmt: IOFormat, *, into: bool = False) -> str:
    """Produce Python source for a specialized encoder for ``fmt``.

    The function is ``encode(record)`` returning fresh ``bytes``; with
    ``into=True`` it is ``encode_into(record, buffer, offset)``, which
    writes the payload in place with ``pack_into`` — the sender-side
    zero-copy path.  Every error message is emitted as the ``repr`` of
    the complete text, never as a name spliced into a hand-built literal.
    """
    plan = get_encode_plan(fmt)
    order = plan.order
    prefix = f"format {fmt.name!r}: "
    if into:
        signature = (
            "def encode_into(record, buffer, offset, "
            "pack_into=pack_into, pack_arr=pack_arr, "
            "_chr=_chr, _buf=_buf, len=len):"
        )
    else:
        signature = (
            "def encode(record, pack=pack, pack_arr=pack_arr, "
            "_chr=_chr, _buf=_buf, len=len):"
        )
    lines = [
        signature,
        "    var = []",
        f"    cursor = {fmt.record_length}",
    ]
    # Variable section, in plan order (byte-exact parity with the plan).
    pointer_names: dict[tuple[str, ...], str] = {}
    for index, item in enumerate(plan.var_items):
        name = f"p{index}"
        pointer_names[item.path] = name
        value = _path_expr(item.path)
        if item.kind == "string":
            lines += [
                f"    s = {value}",
                f"    if s is None:",
                f"        {name} = 0",
                f"    else:",
                f"        d = s.encode('utf-8') + b'\\x00'",
                f"        pad = (-cursor) & 3",
                f"        if pad:",
                f"            var.append(b'\\x00' * pad); cursor += pad",
                f"        {name} = cursor; var.append(d); cursor += len(d)",
            ]
        else:
            mask = item.alignment - 1
            dtype_char = DTYPE_CHARS.get((item.element_kind, item.element_size))
            if dtype_char is not None:
                ndarray_case = (
                    f"_nd(a, {(order + dtype_char)!r}) if hasattr(a, 'dtype') else "
                )
            else:
                ndarray_case = ""
            lines += [
                f"    a = {value}",
                f"    if a is None or len(a) == 0:",
                f"        {name} = 0",
                f"    else:",
                f"        pad = (-cursor) & {mask}",
                f"        if pad:",
                f"            var.append(b'\\x00' * pad); cursor += pad",
                f"        d = {ndarray_case}pack_arr({order!r} + str(len(a)) + "
                f"{item.element_code!r}, *a)",
                f"        {name} = cursor; var.append(d); cursor += len(d)",
            ]
    # Count values (+ consistency checks matching the plan's messages).
    count_names: dict[tuple[str, ...], str] = {}
    for index, leaf in enumerate(plan.leaves):
        if leaf.role != "count":
            continue
        name = f"n{index}"
        count_names[leaf.path] = name
        dotted = ".".join(leaf.path)
        first = _path_expr(leaf.measures[0])
        lines.append(f"    _a = {first}")
        lines.append(f"    {name} = 0 if _a is None else len(_a)")
        differing = (
            f"{prefix}arrays sharing count field '{dotted}' have differing lengths"
        )
        for other in leaf.measures[1:]:
            lines += [
                f"    _b = {_path_expr(other)}",
                f"    if (0 if _b is None else len(_b)) != {name}:",
                f"        raise EncodeError({differing!r})",
            ]
        mismatch = (
            f"{prefix}count field '{dotted}' is %r but the array has %d elements"
        )
        lines += [
            f"    _e = {_container_get_expr(leaf.path[:-1], leaf.path[-1])}",
            f"    if _e is not None and _e != {name}:",
            f"        raise EncodeError({mismatch!r} % (_e, {name}))",
        ]
    # Static array length checks + pack arguments.
    args: list[str] = []
    for index, leaf in enumerate(plan.leaves):
        value = _path_expr(leaf.path)
        if leaf.role in ("string_ptr", "dyn_ptr"):
            args.append(pointer_names[leaf.path])
        elif leaf.role == "count":
            args.append(count_names[leaf.path])
        elif leaf.role == "char":
            args.append(f"_chr({value})")
        elif leaf.role == "bool":
            args.append(f"(1 if {value} else 0)")
        elif leaf.role == "chararray":
            args.append(f"_buf({value}, {leaf.count})")
        elif leaf.role == "array":
            name = f"arr{index}"
            dotted = ".".join(leaf.path)
            wrong_length = (
                f"{prefix}field '{dotted}' expects exactly {leaf.count} "
                f"elements, got %d"
            )
            lines += [
                f"    {name} = {value}",
                f"    if len({name}) != {leaf.count}:",
                f"        raise EncodeError({wrong_length!r} % len({name}))",
            ]
            args.append(f"*{name}")
        else:
            args.append(value)
    joined = ",\n        ".join(args)
    if into:
        too_small = f"{prefix}buffer has %d bytes free, payload needs %d"
        lines += [
            "    if len(buffer) - offset < cursor:",
            f"        _e = EncodeError({too_small!r}"
            f" % (len(buffer) - offset, cursor))",
            "        _e.needed = cursor",
            "        raise _e",
            f"    pack_into(\n        buffer, offset,\n        {joined},\n    )",
            f"    pos = offset + {fmt.record_length}",
            # Write var parts through a memoryview: bytearray slice
            # assignment materializes a temporary copy of the source,
            # a view assignment is a straight memcpy.
            "    mv = memoryview(buffer)",
            "    for d in var:",
            "        _n = len(d)",
            "        mv[pos:pos + _n] = d",
            "        pos += _n",
            "    return cursor",
        ]
    else:
        lines.append(f"    return pack(\n        {joined},\n    ) + b''.join(var)")
    return "\n".join(lines) + "\n"


def make_generated_encoder(fmt: IOFormat, *, into: bool = False):
    """Compile the specialized encoder; falls back to the plan on errors.

    Same contract as :meth:`EncodePlan.encode` — with ``into=True``, as
    :meth:`EncodePlan.encode_into` (capacity :class:`EncodeError` with
    ``.needed`` raised before anything is written) — and byte-identical
    output, but with every field expression inlined so the steady-state
    sender pays no plan-walking allocations.
    """
    plan = get_encode_plan(fmt)
    entry_point = "encode_into" if into else "encode"
    fast = _compile(
        generate_encoder_source(fmt, into=into),
        entry_point,
        f"pbio {entry_point} for {fmt.name}",
        {
            "pack": plan.fixed_struct.pack,
            "pack_into": plan.fixed_struct.pack_into,
            "pack_arr": struct.pack,
            "_chr": _char_byte,
            "_buf": _char_buffer,
            "_nd": ndarray_wire_bytes,
            "EncodeError": EncodeError,
        },
    )

    # On anything but an EncodeError, re-run through the plan for a
    # precise diagnostic (or, in the unexpected case the plan succeeds,
    # its result).
    if into:

        def encode_into(record: dict, buffer, offset: int = 0) -> int:
            try:
                return fast(record, buffer, offset)
            except EncodeError:
                raise
            except Exception:
                return plan.encode_into(record, buffer, offset)

        return encode_into

    def encode(record: dict) -> bytes:
        try:
            return fast(record)
        except EncodeError:
            raise
        except Exception:
            return plan.encode(record)

    return encode
