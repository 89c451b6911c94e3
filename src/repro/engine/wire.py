"""Compact wire format for partial aggregate states.

The distributed runtime ships partial-state relations between nodes: tuples
such as ``SumAccumulator``'s ``(int_total, float_expansion, present,
all_int, specials, int_overflow)`` or ``StatAccumulator``'s exact rational
moments ``(n, Σx, Σx²)``.  The cost model used to size those shipments with
``len(str(value))`` — the *text* of a nested tuple of floats and Fractions,
several times larger than the data — which overstated the traffic of the
partial-aggregation protocol and understated its win.

This module packs exactly the value vocabulary partial states use into a
tagged binary encoding (:func:`pack_value` / :func:`unpack_value` round-trip
bit for bit) and computes the encoded size without materializing the bytes
(:func:`packed_size`).  :meth:`repro.engine.table.Relation.estimated_bytes`
charges tuple- and Fraction-valued cells at their packed size, so the
transfer log and the link-latency cost model see realistic state sizes.

Encoding: one tag byte per value, little-endian fixed-width payloads.
Ints within 64 bits pack as ``<q``; arbitrary-precision ints (exact
int SUMs can exceed 64 bits) and Fraction components fall back to a
length-prefixed two's-complement byte string.  Tuples nest with a
length-prefixed element count.
"""

from __future__ import annotations

import struct
import sys
from array import array
from datetime import datetime
from fractions import Fraction
from typing import Any, Tuple

from repro.engine.columns import BOOL, FLOAT64, INT64, TypedColumn

_TAG_NONE = b"\x00"
_TAG_FALSE = b"\x01"
_TAG_TRUE = b"\x02"
_TAG_INT64 = b"\x03"
_TAG_BIGINT = b"\x04"
_TAG_FLOAT = b"\x05"
_TAG_STR = b"\x06"
_TAG_FRACTION = b"\x07"
_TAG_TUPLE = b"\x08"
_TAG_DATETIME = b"\x09"

_INT64 = struct.Struct("<q")
_FLOAT = struct.Struct("<d")
_LENGTH = struct.Struct("<I")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class WireFormatError(ValueError):
    """Raised when a value cannot be encoded or a payload cannot be decoded."""


def _bigint_bytes(value: int) -> bytes:
    length = (value.bit_length() + 8) // 8  # +8 keeps a sign bit
    return value.to_bytes(length or 1, "little", signed=True)


def pack_value(value: Any) -> bytes:
    """Encode one partial-state value (scalars, Fractions, nested tuples)."""
    if value is None:
        return _TAG_NONE
    if value is True:
        return _TAG_TRUE
    if value is False:
        return _TAG_FALSE
    if isinstance(value, bool):  # numpy-like bool subclasses
        return _TAG_TRUE if value else _TAG_FALSE
    if isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            return _TAG_INT64 + _INT64.pack(value)
        payload = _bigint_bytes(value)
        return _TAG_BIGINT + _LENGTH.pack(len(payload)) + payload
    if isinstance(value, float):
        return _TAG_FLOAT + _FLOAT.pack(value)
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return _TAG_STR + _LENGTH.pack(len(payload)) + payload
    if isinstance(value, Fraction):
        numerator = _bigint_bytes(value.numerator)
        denominator = _bigint_bytes(value.denominator)
        return (
            _TAG_FRACTION
            + _LENGTH.pack(len(numerator))
            + numerator
            + _LENGTH.pack(len(denominator))
            + denominator
        )
    if isinstance(value, tuple):
        parts = [_TAG_TUPLE, _LENGTH.pack(len(value))]
        parts.extend(pack_value(element) for element in value)
        return b"".join(parts)
    if isinstance(value, datetime):
        # CAST(... AS TIMESTAMP) results; isoformat() round-trips exactly
        # through fromisoformat() (the fold attribute is not preserved).
        payload = value.isoformat().encode("utf-8")
        return _TAG_DATETIME + _LENGTH.pack(len(payload)) + payload
    raise WireFormatError(f"Cannot pack value of type {type(value).__name__}")


def _take(data: bytes, offset: int, length: int) -> Tuple[bytes, int]:
    """Bounds-checked slice of ``length`` bytes; raises on truncation."""
    end = offset + length
    if end > len(data):
        raise WireFormatError("Truncated payload")
    return data[offset:end], end


def _unpack(data: bytes, offset: int) -> Tuple[Any, int]:
    tag, offset = _take(data, offset, 1)
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT64:
        payload, offset = _take(data, offset, 8)
        return _INT64.unpack(payload)[0], offset
    if tag == _TAG_BIGINT:
        payload, offset = _take(data, offset, 4)
        (length,) = _LENGTH.unpack(payload)
        payload, offset = _take(data, offset, length)
        return int.from_bytes(payload, "little", signed=True), offset
    if tag == _TAG_FLOAT:
        payload, offset = _take(data, offset, 8)
        return _FLOAT.unpack(payload)[0], offset
    if tag == _TAG_STR:
        payload, offset = _take(data, offset, 4)
        (length,) = _LENGTH.unpack(payload)
        payload, offset = _take(data, offset, length)
        return payload.decode("utf-8"), offset
    if tag == _TAG_FRACTION:
        payload, offset = _take(data, offset, 4)
        (length,) = _LENGTH.unpack(payload)
        payload, offset = _take(data, offset, length)
        numerator = int.from_bytes(payload, "little", signed=True)
        payload, offset = _take(data, offset, 4)
        (length,) = _LENGTH.unpack(payload)
        payload, offset = _take(data, offset, length)
        denominator = int.from_bytes(payload, "little", signed=True)
        return Fraction(numerator, denominator), offset
    if tag == _TAG_TUPLE:
        payload, offset = _take(data, offset, 4)
        (count,) = _LENGTH.unpack(payload)
        elements = []
        for _ in range(count):
            element, offset = _unpack(data, offset)
            elements.append(element)
        return tuple(elements), offset
    if tag == _TAG_DATETIME:
        payload, offset = _take(data, offset, 4)
        (length,) = _LENGTH.unpack(payload)
        payload, offset = _take(data, offset, length)
        try:
            return datetime.fromisoformat(payload.decode("utf-8")), offset
        except ValueError as error:
            raise WireFormatError(f"Malformed datetime payload: {error}")
    raise WireFormatError(f"Unknown tag byte: {tag!r}")


def unpack_value(data: bytes) -> Any:
    """Decode a payload produced by :func:`pack_value` (exact round-trip)."""
    value, offset = _unpack(data, 0)
    if offset != len(data):
        raise WireFormatError(f"{len(data) - offset} trailing bytes after value")
    return value


def packed_size(value: Any) -> int:
    """Size in bytes of ``pack_value(value)``, without building the bytes.

    The cost model calls this per cell of every shipped state relation, so
    it avoids the allocation; the wire tests assert it always equals
    ``len(pack_value(value))``.
    """
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            return 9
        return 5 + ((value.bit_length() + 8) // 8 or 1)
    if isinstance(value, float):
        return 9
    if isinstance(value, str):
        return 5 + len(value.encode("utf-8"))
    if isinstance(value, Fraction):
        return (
            9
            + ((value.numerator.bit_length() + 8) // 8 or 1)
            + ((value.denominator.bit_length() + 8) // 8 or 1)
        )
    if isinstance(value, tuple):
        return 5 + sum(packed_size(element) for element in value)
    if isinstance(value, datetime):
        return 5 + len(value.isoformat().encode("utf-8"))
    raise WireFormatError(f"Cannot pack value of type {type(value).__name__}")


# ---------------------------------------------------------------------------
# whole-relation codec (shipments, checkpoints, process-boundary transport)
# ---------------------------------------------------------------------------
#
# Every inter-node shipment, every checkpoint and every task that crosses a
# process-pool boundary moves relations through this codec, so the transfer
# log, the link-latency cost model and the recovery machinery all see the
# same real bytes.  A decoded relation must be *exactly* the relation that
# was encoded — merging a restored state must be indistinguishable from
# merging the original.
#
# Layout: a 4-byte magic (versioned), the name and schema through
# :func:`pack_value`, a row count, then one backing tag per column.  Typed
# int64/float64/bool columns travel as a bit-packed NULL bitmap plus their
# raw little-endian buffer (a memcpy on both ends); generic columns fall
# back to one tagged cell at a time.  Relations whose cells fall outside the
# wire vocabulary raise :class:`WireFormatError`; checkpoint callers treat
# that as "not checkpointable" and simply re-execute.

#: Magic prefix of a packed relation.  0x50 ('P') is not a value tag, so a
#: relation payload can never be confused with a ``pack_value`` payload.
_RELATION_MAGIC = b"PRL1"

_COL_GENERIC = b"\x00"
_COL_INT64 = b"\x01"
_COL_FLOAT64 = b"\x02"
_COL_BOOL = b"\x03"

_COL_TYPECODES = {_COL_INT64: INT64, _COL_FLOAT64: FLOAT64, _COL_BOOL: BOOL}
_COL_TAGS = {INT64: _COL_INT64, FLOAT64: _COL_FLOAT64, BOOL: _COL_BOOL}


def _pack_bitmap(nulls) -> bytes:
    """Bit-pack a byte-per-row NULL map, LSB-first."""
    packed = bytearray((len(nulls) + 7) // 8)
    for index, flag in enumerate(nulls):
        if flag:
            packed[index >> 3] |= 1 << (index & 7)
    return bytes(packed)


def _unpack_bitmap(bitmap: bytes, count: int) -> bytearray:
    nulls = bytearray(count)
    if any(bitmap):
        for index in range(count):
            if bitmap[index >> 3] & (1 << (index & 7)):
                nulls[index] = 1
    return nulls


def pack_relation(relation: "Any") -> bytes:
    """Encode a relation (name, schema, columnar data) bit-exactly."""
    schema_spec = tuple(
        (column.name, column.data_type.value) for column in relation.schema.columns
    )
    parts = [
        _RELATION_MAGIC,
        pack_value(relation.name),
        pack_value(schema_spec),
        _LENGTH.pack(len(relation)),
    ]
    for column in relation.columns():
        if isinstance(column, TypedColumn):
            parts.append(_COL_TAGS[column.typecode])
            parts.append(_pack_bitmap(column.null_map()))
            data = column.data_array()
            if sys.byteorder != "little":  # pragma: no cover - exotic hosts
                data = data[:]
                data.byteswap()
            parts.append(data.tobytes())
        else:
            parts.append(_COL_GENERIC)
            parts.extend(pack_value(cell) for cell in column)
    return b"".join(parts)


def unpack_relation(data: bytes) -> "Any":
    """Decode a payload from :func:`pack_relation` into a Relation."""
    from repro.engine.schema import ColumnDef, Schema
    from repro.engine.table import Relation
    from repro.engine.types import DataType

    magic, offset = _take(data, 0, len(_RELATION_MAGIC))
    if magic != _RELATION_MAGIC:
        raise WireFormatError("Malformed state-relation payload (bad magic)")
    name, offset = _unpack(data, offset)
    schema_spec, offset = _unpack(data, offset)
    if not isinstance(name, str) or not isinstance(schema_spec, tuple):
        raise WireFormatError("Malformed state-relation payload")
    payload, offset = _take(data, offset, 4)
    (nrows,) = _LENGTH.unpack(payload)
    column_defs = []
    try:
        for column_name, type_value in schema_spec:
            column_defs.append(
                ColumnDef(name=column_name, data_type=DataType(type_value))
            )
    except (TypeError, ValueError) as error:
        raise WireFormatError(f"Malformed relation schema: {error}")
    columns = []
    for _ in column_defs:
        tag, offset = _take(data, offset, 1)
        typecode = _COL_TYPECODES.get(tag)
        if typecode is not None:
            bitmap, offset = _take(data, offset, (nrows + 7) // 8)
            values = array(typecode)
            raw, offset = _take(data, offset, nrows * values.itemsize)
            values.frombytes(raw)
            if sys.byteorder != "little":  # pragma: no cover - exotic hosts
                values.byteswap()
            columns.append(
                TypedColumn(typecode, values, _unpack_bitmap(bitmap, nrows))
            )
        elif tag == _COL_GENERIC:
            cells = []
            for _ in range(nrows):
                cell, offset = _unpack(data, offset)
                cells.append(cell)
            columns.append(cells)
        else:
            raise WireFormatError(f"Unknown column backing tag: {tag!r}")
    if offset != len(data):
        raise WireFormatError(f"{len(data) - offset} trailing bytes after relation")
    return Relation.from_columns(
        Schema(column_defs), columns, name=name
    )


def pack_state_relation(relation: "Any") -> bytes:
    """Encode a relation bit-exactly (checkpoint-facing alias)."""
    return pack_relation(relation)


def unpack_state_relation(data: bytes) -> "Any":
    """Decode a payload from :func:`pack_state_relation` into a Relation."""
    return unpack_relation(data)
