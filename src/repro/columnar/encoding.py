"""Column page encodings: n-bit packing and dictionary compression.

SAP IQ compresses columnar data with dictionary encoding plus the *n-bit
representation* (values stored in just enough bits), then applies page-level
compression on top.  This module implements the inner layer:

- **integers**: frame-of-reference + n-bit packing — the page stores the
  minimum and each value's delta in ``ceil(log2(max-min+1))`` bits;
- **floats**: raw IEEE doubles (page-level zlib still helps);
- **strings**: a page-local dictionary of distinct values with n-bit codes.

Every encoder returns ``bytes`` and every decoder returns the exact value
list, so encode/decode is a strict round trip (property-tested).
"""

from __future__ import annotations

import struct
from typing import List, Sequence

import numpy as np

from repro.columnar import vec

INT_TAG = b"I"
FLOAT_TAG = b"F"
STR_TAG = b"S"

_HEADER = struct.Struct(">cI")  # tag, value count


class EncodingError(Exception):
    """Unknown tags or corrupt payloads."""


def bits_needed(span: int) -> int:
    """Bits required to represent values in ``[0, span]``."""
    if span < 0:
        raise EncodingError(f"span must be non-negative, got {span}")
    return max(1, span.bit_length())


def _pack_nbit(values: "Sequence[int]", width: int) -> bytes:
    """Pack non-negative ints into ``width``-bit fields (big chunks)."""
    acc = 0
    for value in values:
        acc = (acc << width) | value
    total_bits = width * len(values)
    nbytes = (total_bits + 7) // 8
    acc <<= nbytes * 8 - total_bits  # left-align the last partial byte
    return acc.to_bytes(nbytes, "big") if nbytes else b""

def _unpack_nbit(payload: bytes, width: int, count: int) -> "List[int]":
    if count == 0:
        return []
    acc = int.from_bytes(payload, "big")
    total_bits = width * count
    acc >>= len(payload) * 8 - total_bits
    mask = (1 << width) - 1
    out = [0] * count
    for i in range(count - 1, -1, -1):
        out[i] = acc & mask
        acc >>= width
    return out


def encode_ints(values: "Sequence[int]") -> bytes:
    """Frame-of-reference n-bit encoding of signed integers."""
    count = len(values)
    if count == 0:
        return _HEADER.pack(INT_TAG, 0)
    lo = min(values)
    hi = max(values)
    width = bits_needed(hi - lo)
    body = _pack_nbit([v - lo for v in values], width)
    return (
        _HEADER.pack(INT_TAG, count)
        + struct.pack(">qB", lo, width)
        + body
    )


def encode_floats(values: "Sequence[float]") -> bytes:
    return _HEADER.pack(FLOAT_TAG, len(values)) + struct.pack(
        f">{len(values)}d", *values
    )


def encode_strings(values: "Sequence[str]") -> bytes:
    """Page-local dictionary + n-bit codes."""
    count = len(values)
    distinct: "List[str]" = sorted(set(values))
    index = {value: code for code, value in enumerate(distinct)}
    width = bits_needed(max(0, len(distinct) - 1))
    codes = _pack_nbit([index[v] for v in values], width) if count else b""
    dictionary = "\x00".join(distinct).encode("utf-8")
    return (
        _HEADER.pack(STR_TAG, count)
        + struct.pack(">IB", len(dictionary), width)
        + dictionary
        + codes
    )


def encode_values(kind: str, values: "Sequence[object]") -> bytes:
    """Encode a page of values of a column ``kind``.

    ``date`` columns are stored as ints (ordinal days).
    """
    if kind in ("int", "date"):
        return encode_ints(values)  # type: ignore[arg-type]
    if kind == "float":
        return encode_floats(values)  # type: ignore[arg-type]
    if kind == "str":
        return encode_strings(values)  # type: ignore[arg-type]
    raise EncodingError(f"unknown column kind {kind!r}")


def decode_values_np(payload: bytes):
    """Decode a page into a read-only numpy column vector.

    The executor's decode path (DESIGN.md §14): floats come back as a
    zero-copy big-endian view straight over the page bytes, ints as a
    frame-of-reference bias over a vectorized n-bit unpack, and strings
    as a fancy-indexed page dictionary.  Values are element-wise
    identical to :func:`decode_values`; arrays are marked read-only so a
    query's decoded-page cache can hand them to every scan of the page.
    """
    if len(payload) < _HEADER.size:
        raise EncodingError("truncated page payload")
    tag, count = _HEADER.unpack_from(payload)
    offset = _HEADER.size
    if tag == INT_TAG:
        if count == 0:
            values = np.empty(0, dtype=np.int64)
        else:
            lo, width = struct.unpack_from(">qB", payload, offset)
            offset += struct.calcsize(">qB")
            values = lo + vec.unpack_nbit(payload[offset:], width, count)
    elif tag == FLOAT_TAG:
        values = np.frombuffer(
            payload, dtype=">f8", count=count, offset=offset
        )
    elif tag == STR_TAG:
        dict_len, width = struct.unpack_from(">IB", payload, offset)
        offset += struct.calcsize(">IB")
        dictionary_raw = payload[offset:offset + dict_len].decode("utf-8")
        distinct = dictionary_raw.split("\x00") if dict_len else [""]
        offset += dict_len
        if count == 0:
            values = np.empty(0, dtype=str)
        else:
            codes = vec.unpack_nbit(payload[offset:], width, count)
            values = np.array(distinct)[codes]
    else:
        raise EncodingError(f"unknown page tag {tag!r}")
    values.setflags(write=False)
    return values


def decode_values(payload: bytes) -> "List[object]":
    """Invert :func:`encode_values` (the tag identifies the kind)."""
    if len(payload) < _HEADER.size:
        raise EncodingError("truncated page payload")
    tag, count = _HEADER.unpack_from(payload)
    offset = _HEADER.size
    if tag == INT_TAG:
        if count == 0:
            return []
        lo, width = struct.unpack_from(">qB", payload, offset)
        offset += struct.calcsize(">qB")
        deltas = _unpack_nbit(payload[offset:], width, count)
        return [lo + d for d in deltas]
    if tag == FLOAT_TAG:
        return list(struct.unpack_from(f">{count}d", payload, offset))
    if tag == STR_TAG:
        dict_len, width = struct.unpack_from(">IB", payload, offset)
        offset += struct.calcsize(">IB")
        dictionary_raw = payload[offset:offset + dict_len].decode("utf-8")
        distinct = dictionary_raw.split("\x00") if dict_len else [""]
        offset += dict_len
        if count == 0:
            return []
        codes = _unpack_nbit(payload[offset:], width, count)
        return [distinct[code] for code in codes]
    raise EncodingError(f"unknown page tag {tag!r}")
