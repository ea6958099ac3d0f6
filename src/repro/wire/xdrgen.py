"""Generated XDR stubs — the rpcgen-style compiled baseline.

Sun RPC's ``rpcgen`` compiled XDR marshaling into per-format C stubs; an
XDR system in production was *not* walking metadata per record.  To keep
the NDR/XDR comparison honest after NDR gained generated encoders and
converters, this module generates specialized Python XDR stubs for a
format: every field becomes inline code, contiguous fixed-size fields
collapse into single ``struct`` calls where XDR's 4-byte quantization
allows.

With both systems generated, the measured gap isolates the *format*
costs the paper attributes to XDR — widening small fields, canonical
byte order regardless of endpoints, and length-prefixed strings — from
mere interpretation overhead.  Benchmarks ``benchmarks/
test_ablation_codegen.py`` (A4 section) and the report's C1 table use
these stubs as the "XDR (generated)" row.

The generated code produces byte-identical output to
:class:`~repro.wire.xdr.XDRCodec` (asserted by tests and a property),
and falls back to it on unexpected errors for diagnostics.
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.arch.model import TypeKind
from repro.errors import WireError
from repro.pbio.codegen import _compile
from repro.pbio.format import CompiledField, IOFormat
from repro.wire.xdr import XDRCodec, _NULL_STRING


def _scalar_code(field: CompiledField) -> str:
    """struct code (big-endian implied) for one XDR scalar."""
    kind, size = field.kind, field.size
    if kind == TypeKind.SIGNED_INT:
        return "q" if size == 8 else "i"
    if kind in (TypeKind.UNSIGNED_INT, TypeKind.ENUMERATION):
        return "Q" if size == 8 else "I"
    if kind == TypeKind.FLOAT:
        return "d" if size == 8 else "f"
    if kind == TypeKind.BOOLEAN:
        return "i"
    if kind == TypeKind.CHAR:
        return "i"
    raise WireError(f"XDR: unsupported kind {kind} for field {field.name!r}")


def _value_expr(field: CompiledField, value: str) -> str:
    """Expression converting a record value for packing."""
    if field.kind == TypeKind.BOOLEAN:
        return f"(1 if {value} else 0)"
    if field.kind == TypeKind.CHAR:
        return f"_ord({value})"
    return value


def _ord(value) -> int:
    """Injected helper: one char (str/bytes/int) to its code point."""
    if isinstance(value, str):
        raw = value.encode("utf-8")[:1] or b"\x00"
        return raw[0]
    if isinstance(value, bytes):
        return value[0] if value else 0
    return int(value)


def _decode_expr(field: CompiledField, value: str) -> str:
    if field.kind == TypeKind.BOOLEAN:
        return f"bool({value})"
    if field.kind == TypeKind.CHAR:
        return f"chr({value})"
    return value


def generate_xdr_source(fmt: IOFormat) -> str:
    """Source for ``xdr_encode(record)`` and ``xdr_decode(data)``."""
    encode_lines = [
        "def xdr_encode(record, pack=pack, _ord=_ord, len=len):",
        "    out = []",
    ]
    _emit_encode(fmt, "record", encode_lines, depth=1)
    encode_lines.append("    return b''.join(out)")

    decode_lines = [
        "def xdr_decode(data, unpack_from=unpack_from):",
        "    cursor = 0",
    ]
    result_expr = _emit_decode(fmt, decode_lines, depth=1)
    decode_lines.append("    if cursor != len(data):")
    decode_lines.append(
        "        raise WireError('XDR: %d trailing bytes' % (len(data) - cursor))"
    )
    decode_lines.append(f"    return {result_expr}")
    return "\n".join(encode_lines) + "\n\n\n" + "\n".join(decode_lines) + "\n"


# -- encode generation ---------------------------------------------------------


def _emit_encode(fmt: IOFormat, record_expr: str, lines: list[str], depth: int) -> None:
    pad = "    " * depth
    # Group runs of plain scalars into single pack calls.
    run_codes: list[str] = []
    run_values: list[str] = []

    def flush() -> None:
        if run_codes:
            lines.append(
                f"{pad}out.append(pack('>{''.join(run_codes)}', "
                f"{', '.join(run_values)}))"
            )
            run_codes.clear()
            run_values.clear()

    for field in fmt.compiled_fields:
        value = f"{record_expr}[{field.name!r}]"
        if field.nested is not None:
            flush()
            if field.static_count == 1:
                _emit_encode(field.nested, value, lines, depth)
            else:
                element = f"_e{depth}"
                lines.append(f"{pad}for {element} in {value}:")
                _emit_encode(field.nested, element, lines, depth + 1)
            continue
        if field.type.is_dynamic_array:
            flush()
            array = f"_a{depth}"
            lines.append(f"{pad}{array} = {value} or []")
            code = _scalar_code(field)
            lines.append(
                f"{pad}out.append(pack('>I' + str(len({array})) + "
                f"{code!r}, len({array}), *{array}))"
            )
            continue
        if field.is_string:
            flush()
            for index in range(field.static_count):
                item = value if field.static_count == 1 else f"{value}[{index}]"
                text = f"_s{depth}"
                lines.append(f"{pad}{text} = {item}")
                lines.append(f"{pad}if {text} is None:")
                lines.append(f"{pad}    out.append(_NULL)")
                lines.append(f"{pad}else:")
                lines.append(f"{pad}    _b = {text}.encode('utf-8')")
                lines.append(
                    f"{pad}    out.append(pack('>I', len(_b)) + _b + "
                    f"b'\\x00' * ((-len(_b)) % 4))"
                )
            continue
        if field.kind == TypeKind.CHAR and field.type.is_static_array:
            flush()
            count = field.static_count
            lines.append(
                f"{pad}out.append(_buf({value}, {count}) + "
                f"b'\\x00' * {(-count) % 4})"
            )
            continue
        if field.type.is_static_array:
            flush()
            code = _scalar_code(field)
            converted = _value_expr(field, "v")
            if converted == "v":
                lines.append(
                    f"{pad}out.append(pack('>{field.static_count}{code}', *{value}))"
                )
            else:
                lines.append(
                    f"{pad}out.append(pack('>{field.static_count}{code}', "
                    f"*[{converted} for v in {value}]))"
                )
            continue
        run_codes.append(_scalar_code(field))
        run_values.append(_value_expr(field, value))
    flush()


def _buf(value, count: int) -> bytes:
    raw = value.encode("utf-8") if isinstance(value, str) else bytes(value)
    return raw[:count].ljust(count, b"\x00")


# -- decode generation ---------------------------------------------------------

_counter = 0


def _emit_decode(fmt: IOFormat, lines: list[str], depth: int) -> str:
    """Emit decoding statements; returns the dict-literal expression."""
    global _counter
    pad = "    " * depth
    entries: list[str] = []
    # Batch contiguous plain scalars.
    run: list[tuple[CompiledField, str]] = []

    def flush() -> None:
        global _counter
        if not run:
            return
        codes = "".join(_scalar_code(field) for field, _ in run)
        names = ", ".join(name for _, name in run)
        size = struct.calcsize(">" + codes)
        lines.append(f"{pad}({names},) = unpack_from('>{codes}', data, cursor)")
        lines.append(f"{pad}cursor += {size}")
        run.clear()

    for field in fmt.compiled_fields:
        _counter += 1
        var = f"v{_counter}"
        if field.nested is not None:
            flush()
            if field.static_count == 1:
                inner = _emit_decode(field.nested, lines, depth)
                entries.append(f"{field.name!r}: {inner}")
            else:
                lines.append(f"{pad}{var} = []")
                lines.append(f"{pad}for _ in range({field.static_count}):")
                inner = _emit_decode(field.nested, lines, depth + 1)
                lines.append(f"{pad}    {var}.append({inner})")
                entries.append(f"{field.name!r}: {var}")
            continue
        if field.type.is_dynamic_array:
            flush()
            code = _scalar_code(field)
            element_size = struct.calcsize(">" + code)
            lines.append(f"{pad}(_n,) = unpack_from('>I', data, cursor)")
            lines.append(f"{pad}cursor += 4")
            lines.append(
                f"{pad}{var} = list(unpack_from('>' + str(_n) + {code!r}, "
                f"data, cursor))"
            )
            lines.append(f"{pad}cursor += _n * {element_size}")
            entries.append(f"{field.name!r}: {var}")
            continue
        if field.is_string:
            flush()
            if field.static_count == 1:
                lines.append(f"{pad}{var}, cursor = _string(data, cursor)")
            else:
                lines.append(f"{pad}{var} = []")
                lines.append(f"{pad}for _ in range({field.static_count}):")
                lines.append(f"{pad}    _t, cursor = _string(data, cursor)")
                lines.append(f"{pad}    {var}.append(_t)")
            entries.append(f"{field.name!r}: {var}")
            continue
        if field.kind == TypeKind.CHAR and field.type.is_static_array:
            flush()
            count = field.static_count
            lines.append(
                f"{pad}{var} = data[cursor:cursor + {count}]"
                f".split(b'\\x00', 1)[0].decode('utf-8')"
            )
            lines.append(f"{pad}cursor += {count + ((-count) % 4)}")
            entries.append(f"{field.name!r}: {var}")
            continue
        if field.type.is_static_array:
            flush()
            code = _scalar_code(field)
            size = struct.calcsize(">" + code) * field.static_count
            raw = f"unpack_from('>{field.static_count}{code}', data, cursor)"
            converted = _decode_expr(field, "v")
            if converted == "v":
                lines.append(f"{pad}{var} = list({raw})")
            else:
                lines.append(f"{pad}{var} = [{converted} for v in {raw}]")
            lines.append(f"{pad}cursor += {size}")
            entries.append(f"{field.name!r}: {var}")
            continue
        converted = _decode_expr(field, var)
        if converted == var:
            run.append((field, var))
            entries.append(f"{field.name!r}: {var}")
        else:
            flush()
            code = _scalar_code(field)
            size = struct.calcsize(">" + code)
            lines.append(f"{pad}({var},) = unpack_from('>{code}', data, cursor)")
            lines.append(f"{pad}cursor += {size}")
            entries.append(f"{field.name!r}: {converted}")
    flush()
    return "{" + ", ".join(entries) + "}"


def _decode_string(data: bytes, cursor: int):
    (length,) = struct.unpack_from(">I", data, cursor)
    cursor += 4
    if length == _NULL_STRING:
        return None, cursor
    raw = data[cursor : cursor + length]
    if len(raw) != length:
        raise WireError("XDR: truncated string")
    return raw.decode("utf-8"), cursor + length + ((-length) % 4)


def make_generated_xdr(fmt: IOFormat) -> tuple[Callable, Callable]:
    """Compile and return ``(encode, decode)`` stubs for ``fmt``.

    Both fall back to the interpreted :class:`XDRCodec` on unexpected
    errors, so error behaviour matches the baseline exactly.
    """
    source = generate_xdr_source(fmt)
    namespace = {
        "pack": struct.pack,
        "unpack_from": struct.unpack_from,
        "_ord": _ord,
        "_buf": _buf,
        "_string": _decode_string,
        "_NULL": struct.pack(">I", _NULL_STRING),
        "WireError": WireError,
    }
    fast_encode = _compile(source, "xdr_encode", f"xdr stubs for {fmt.name}", namespace)
    fast_decode = namespace["xdr_decode"]
    fallback = XDRCodec(fmt)

    def encode(record: dict) -> bytes:
        try:
            return fast_encode(record)
        except WireError:
            raise
        except Exception:
            return fallback.encode(record)

    def decode(data: bytes) -> dict:
        try:
            return fast_decode(data)
        except WireError:
            raise
        except Exception:
            return fallback.decode(data)

    return encode, decode
