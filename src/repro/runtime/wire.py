"""Canonical wire encodings for protocol payloads.

Two codecs share one value model:

* :class:`WireCodec` ("v1") — the legacy format: every value is
  type-tagged (1 byte) and length-prefixed with a fixed 4-byte
  big-endian length.  Stateless; one frame decodes the same way
  regardless of what was sent before it.
* :class:`WireCodecV2` ("v2") — the compact format the transport
  actually ships: LEB128 varints replace every fixed-width length and
  count, self-delimiting types drop their length prefix entirely, and
  group elements pass through a per-channel *interning table* — each
  distinct element is sent raw exactly once and referenced by index
  thereafter (``g``, ``y``, pool-drawn ``(g^r, y^r)`` pairs and
  rerandomized chain entries repeat constantly on the hot path).

Value grammar (both codecs; v1 frames each value as
``tag ‖ len32 ‖ body``, v2 as ``tag ‖ body`` with self-delimiting
bodies):

    S  signed integer (zigzag; v2: one varint)
    N  None
    Y  bytes
    U  UTF-8 string
    E  bare group element (explicit; see :meth:`encode_element`)
    C  ElGamal ciphertext (two elements)
    B  bitwise ciphertext (count + element pairs; v2 drops per-bit tags)
    L  list (count + items)
    T  tuple (count + items)
    O  registered protocol object (type id + fields)

v2 element bodies are ``varint(0) ‖ raw`` for a first occurrence (raw is
exactly ``group.wire_bytes`` bytes, so no length is needed) or
``varint(index+1)`` for an interned reference.  Encoder and decoder
tables stay synchronized because the transport *transcodes* (encodes
then immediately decodes) every message on its channel in order.

Bare group elements are type-ambiguous with integers (DL groups) and
tuples (curves), so ``encode`` treats them structurally; only
:meth:`encode_element` asserts elementhood.  Ciphertext internals are
typed and therefore get the full element treatment (serialization cache
plus interning).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.bitenc import BitProof, BitwiseCiphertext
from repro.crypto.elgamal import Ciphertext
from repro.groups.base import Group
from repro.runtime.errors import ProtocolError


class WireConformanceError(ProtocolError):
    """Measured encoded size drifted outside tolerance of the declared one."""

    def __init__(self, tag: str, declared_bits: int, measured_bits: int,
                 band: Tuple[float, float]):
        self.tag = tag
        self.declared_bits = declared_bits
        self.measured_bits = measured_bits
        super().__init__(
            f"wire conformance failure for {tag!r}: declared "
            f"{declared_bits} bits, measured {measured_bits} bits "
            f"(allowed {band[0]:g}x..{band[1]:g}x of declared)"
        )


class WireDecodeError(ProtocolError, ValueError):
    """Bytes that do not decode: truncated, trailing or unknown data, an
    interned reference out of range, nesting past :data:`MAX_DEPTH`, or
    an element body outside the group.  A ``ValueError`` too, so callers
    that caught the bare errors keep working."""


#: Deepest container nesting (lists, tuples, objects) a frame may carry;
#: protocol payloads nest a few levels, and the bound keeps hostile
#: bytes from exhausting the interpreter stack.
MAX_DEPTH = 32


# ---------------------------------------------------------------------------
# Varint / zigzag primitives (v2)
# ---------------------------------------------------------------------------

def encode_varint(value: int) -> bytes:
    """Unsigned LEB128: 7 value bits per byte, MSB = continuation."""
    if value < 0:
        raise ValueError("varint requires a non-negative integer")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode one LEB128 varint; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise WireDecodeError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def zigzag(value: int) -> int:
    """Standard zigzag: 0, -1, 1, -2, … → 0, 1, 2, 3, … (bijective,
    so small magnitudes of either sign stay one varint byte)."""
    return (value << 1) if value >= 0 else (((-value) << 1) - 1)


def unzigzag(encoded: int) -> int:
    return -((encoded + 1) >> 1) if encoded & 1 else encoded >> 1


# ---------------------------------------------------------------------------
# Registered protocol objects (tag O)
# ---------------------------------------------------------------------------
#
# Fixed ids; append-only.  Field order is the constructor order, so a
# decoded object is rebuilt with ``cls(*fields)``.

_REGISTRY: Optional[Tuple[Tuple[type, Tuple[str, ...]], ...]] = None


def registered_types() -> Tuple[Tuple[type, Tuple[str, ...]], ...]:
    """The (class, field names) table, id = position.

    Imported lazily: some registered payload classes live in modules
    that themselves import the runtime.
    """
    global _REGISTRY
    if _REGISTRY is None:
        from repro.core.parties import Submission
        from repro.crypto.zkp import NIZKProof
        from repro.dotproduct.ioannidis import AliceResponse, BobRequest

        _REGISTRY = (
            (BobRequest, ("qx", "c_blinded", "g_blinded")),
            (AliceResponse, ("a", "h")),
            (NIZKProof, ("commitment", "response")),
            (BitProof, ("a0", "b0", "a1", "b1", "e0", "e1", "z0", "z1")),
            (Submission, ("rank", "values")),
        )
    return _REGISTRY


def _registered_id(value: Any) -> Optional[int]:
    for type_id, (cls, _) in enumerate(registered_types()):
        if type(value) is cls:
            return type_id
    return None


# ---------------------------------------------------------------------------
# Element interning (v2)
# ---------------------------------------------------------------------------

class InternTable:
    """Per-direction element dictionary, index-synchronized across ends.

    Bounded: once ``max_size`` entries exist, further elements are sent
    raw and *not* registered — both ends apply the same rule against the
    same stream, so their tables never diverge.
    """

    __slots__ = ("max_size", "index_of", "elements")

    def __init__(self, max_size: int = 4096):
        self.max_size = max_size
        self.index_of: Dict[Any, int] = {}
        self.elements: List[Any] = []

    def lookup(self, element: Any) -> Optional[int]:
        return self.index_of.get(element)

    def register(self, element: Any) -> None:
        if len(self.elements) < self.max_size and element not in self.index_of:
            self.index_of[element] = len(self.elements)
            self.elements.append(element)

    def get(self, index: int) -> Any:
        return self.elements[index]

    def truncate(self, size: int) -> None:
        """Roll back to ``size`` entries (undo a failed partial encode)."""
        while len(self.elements) > size:
            del self.index_of[self.elements.pop()]

    def __len__(self) -> int:
        return len(self.elements)


# ---------------------------------------------------------------------------
# v1: tag + 4-byte length framing (stateless)
# ---------------------------------------------------------------------------

class WireCodec:
    """Encoder/decoder bound to one group (for element serialization)."""

    version = "v1"

    def __init__(self, group: Group):
        self.group = group

    # -- encoding ---------------------------------------------------------------
    def encode(self, value: Any) -> bytes:
        """Encode ints, ciphertexts, registered objects, and containers.

        Bare group elements are type-ambiguous with integers (DL groups)
        and tuples (curves); encode them explicitly with
        :meth:`encode_element`.
        """
        if value is None:
            return self._frame(b"N", b"")
        if isinstance(value, bool):
            raise TypeError("encode booleans as integers explicitly")
        if isinstance(value, int):
            return self._encode_int(value)
        if isinstance(value, Ciphertext):
            return self._frame(b"C", self._elements(value.c1, value.c2))
        if isinstance(value, BitwiseCiphertext):
            body = struct.pack(">I", value.bit_length) + b"".join(
                self.encode(bit) for bit in value
            )
            return self._frame(b"B", body)
        if isinstance(value, (bytes, bytearray)):
            return self._frame(b"Y", bytes(value))
        if isinstance(value, str):
            return self._frame(b"U", value.encode("utf-8"))
        type_id = _registered_id(value)
        if type_id is not None:
            _, names = registered_types()[type_id]
            body = bytes([type_id]) + b"".join(
                self.encode(getattr(value, name)) for name in names
            )
            return self._frame(b"O", body)
        if isinstance(value, (list, tuple)):
            tag = b"T" if isinstance(value, tuple) else b"L"
            body = struct.pack(">I", len(value)) + b"".join(
                self.encode(item) for item in value
            )
            return self._frame(tag, body)
        raise TypeError(f"cannot wire-encode {type(value).__name__}")

    def encode_element(self, element: Any) -> bytes:
        """Explicit encoding of one bare group element."""
        if not self.group.is_element(element):
            raise TypeError("value is not an element of this codec's group")
        return self._frame(b"E", self.group.serialize_cached(element))

    def _encode_int(self, value: int) -> bytes:
        # Zigzag: non-negative -> even, negative -> odd; arbitrary precision.
        z = zigzag(value)
        raw = z.to_bytes(max(1, (z.bit_length() + 7) // 8), "big")
        return self._frame(b"S", raw)

    def _elements(self, *elements) -> bytes:
        return b"".join(self.group.serialize_cached(element) for element in elements)

    @staticmethod
    def _frame(tag: bytes, body: bytes) -> bytes:
        return tag + struct.pack(">I", len(body)) + body

    # -- decoding ---------------------------------------------------------------
    def decode(self, data: bytes) -> Any:
        value, remainder = _typed_decode(self._decode_one, data)
        if remainder:
            raise WireDecodeError(f"{len(remainder)} trailing bytes after decode")
        return value

    def _decode_one(self, data: bytes, depth: int = 0):
        if depth > MAX_DEPTH:
            raise WireDecodeError(f"nesting deeper than {MAX_DEPTH}")
        if len(data) < 5:
            raise ValueError("truncated frame header")
        tag = data[:1]
        (length,) = struct.unpack(">I", data[1:5])
        body, remainder = data[5 : 5 + length], data[5 + length :]
        if len(body) != length:
            raise ValueError("truncated frame body")
        if tag == b"S":
            return unzigzag(int.from_bytes(body, "big")), remainder
        if tag == b"N":
            return None, remainder
        if tag == b"Y":
            return body, remainder
        if tag == b"U":
            return body.decode("utf-8"), remainder
        if tag == b"E":
            return self._deserialize_element(body), remainder
        if tag == b"C":
            element_bytes = len(body) // 2
            return (
                Ciphertext(
                    c1=self._deserialize_element(body[:element_bytes]),
                    c2=self._deserialize_element(body[element_bytes:]),
                ),
                remainder,
            )
        if tag == b"B":
            (count,) = struct.unpack(">I", body[:4])
            rest = body[4:]
            bits: List[Ciphertext] = []
            for _ in range(count):
                bit, rest = self._decode_one(rest, depth + 1)
                bits.append(bit)
            if rest:
                raise ValueError("trailing bytes inside bitwise ciphertext")
            return BitwiseCiphertext(bits=tuple(bits)), remainder
        if tag == b"O":
            if not body:
                raise ValueError("empty object frame")
            type_id = body[0]
            registry = registered_types()
            if type_id >= len(registry):
                raise ValueError(f"unknown object type id {type_id}")
            cls, names = registry[type_id]
            rest = body[1:]
            values = []
            for _ in names:
                item, rest = self._decode_one(rest, depth + 1)
                values.append(item)
            if rest:
                raise ValueError("trailing bytes inside object frame")
            return cls(*values), remainder
        if tag in (b"L", b"T"):
            (count,) = struct.unpack(">I", body[:4])
            rest = body[4:]
            items = []
            for _ in range(count):
                item, rest = self._decode_one(rest, depth + 1)
                items.append(item)
            if rest:
                raise ValueError("trailing bytes inside list")
            return (tuple(items) if tag == b"T" else items), remainder
        raise ValueError(f"unknown wire tag {tag!r}")

    def _deserialize_element(self, data: bytes):
        return self.group.deserialize_cached(data)

    # -- size accounting ----------------------------------------------------------
    def encoded_bits(self, value: Any) -> int:
        return 8 * len(self.encode(value))

    # -- transactional interning (transport-facing; v1 keeps no state) -----------
    def intern_mark(self) -> int:
        return 0

    def intern_rollback(self, mark: int) -> None:
        pass


# ---------------------------------------------------------------------------
# v2: varint framing + element interning (stateful per channel)
# ---------------------------------------------------------------------------

class WireCodecV2:
    """Compact codec for one *directed* channel.

    Holds two interning tables — one advanced by :meth:`encode`, one by
    :meth:`decode` — so the transcode pattern
    ``codec.decode(codec.encode(payload))`` keeps both ends of the
    simulated channel synchronized message by message.
    """

    version = "v2"

    def __init__(self, group: Group, intern: Optional[bool] = None,
                 max_intern: int = 4096):
        self.group = group
        # Interning requires serialize/deserialize to round-trip distinct
        # elements; the counting group collapses everything to 1 and
        # would dedupe all traffic, so it opts out via wire_faithful.
        self.intern = group.wire_faithful if intern is None else intern
        self._enc_table = InternTable(max_intern)
        self._dec_table = InternTable(max_intern)

    # -- encoding ---------------------------------------------------------------
    def encode(self, value: Any) -> bytes:
        return b"".join(self._encode_value(value))

    def _encode_value(self, value: Any) -> List[bytes]:
        if value is None:
            return [b"N"]
        if isinstance(value, bool):
            raise TypeError("encode booleans as integers explicitly")
        if isinstance(value, int):
            return [b"S", encode_varint(zigzag(value))]
        if isinstance(value, Ciphertext):
            return [b"C", self._encode_element_body(value.c1),
                    self._encode_element_body(value.c2)]
        if isinstance(value, BitwiseCiphertext):
            parts = [b"B", encode_varint(value.bit_length)]
            for bit in value:
                parts.append(self._encode_element_body(bit.c1))
                parts.append(self._encode_element_body(bit.c2))
            return parts
        if isinstance(value, (bytes, bytearray)):
            return [b"Y", encode_varint(len(value)), bytes(value)]
        if isinstance(value, str):
            raw = value.encode("utf-8")
            return [b"U", encode_varint(len(raw)), raw]
        type_id = _registered_id(value)
        if type_id is not None:
            _, names = registered_types()[type_id]
            parts = [b"O", encode_varint(type_id)]
            for name in names:
                parts.extend(self._encode_value(getattr(value, name)))
            return parts
        if isinstance(value, (list, tuple)):
            parts = [b"T" if isinstance(value, tuple) else b"L",
                     encode_varint(len(value))]
            for item in value:
                parts.extend(self._encode_value(item))
            return parts
        raise TypeError(f"cannot wire-encode {type(value).__name__}")

    def encode_element(self, element: Any) -> bytes:
        """Explicit encoding of one bare group element."""
        if not self.group.is_element(element):
            raise TypeError("value is not an element of this codec's group")
        return b"E" + self._encode_element_body(element)

    def _encode_element_body(self, element: Any) -> bytes:
        if self.intern:
            index = self._enc_table.lookup(element)
            if index is not None:
                return encode_varint(index + 1)
            raw = self.group.serialize_cached(element)
            self._enc_table.register(element)
            return b"\x00" + raw
        return b"\x00" + self.group.serialize_cached(element)

    # -- decoding ---------------------------------------------------------------
    def decode(self, data: bytes) -> Any:
        value, offset = _typed_decode(self._decode_value, data, 0)
        if offset != len(data):
            raise WireDecodeError(
                f"{len(data) - offset} trailing bytes after decode"
            )
        return value

    def _decode_value(self, data: bytes, offset: int,
                      depth: int = 0) -> Tuple[Any, int]:
        if offset >= len(data):
            raise ValueError("truncated value")
        if depth > MAX_DEPTH:
            raise WireDecodeError(f"nesting deeper than {MAX_DEPTH}")
        tag = data[offset:offset + 1]
        offset += 1
        if tag == b"S":
            z, offset = decode_varint(data, offset)
            return unzigzag(z), offset
        if tag == b"N":
            return None, offset
        if tag == b"Y":
            length, offset = decode_varint(data, offset)
            body = data[offset:offset + length]
            if len(body) != length:
                raise ValueError("truncated bytes body")
            return body, offset + length
        if tag == b"U":
            length, offset = decode_varint(data, offset)
            body = data[offset:offset + length]
            if len(body) != length:
                raise ValueError("truncated string body")
            return body.decode("utf-8"), offset + length
        if tag == b"E":
            return self._decode_element_body(data, offset)
        if tag == b"C":
            c1, offset = self._decode_element_body(data, offset)
            c2, offset = self._decode_element_body(data, offset)
            return Ciphertext(c1=c1, c2=c2), offset
        if tag == b"B":
            count, offset = decode_varint(data, offset)
            bits: List[Ciphertext] = []
            for _ in range(count):
                c1, offset = self._decode_element_body(data, offset)
                c2, offset = self._decode_element_body(data, offset)
                bits.append(Ciphertext(c1=c1, c2=c2))
            return BitwiseCiphertext(bits=tuple(bits)), offset
        if tag == b"O":
            type_id, offset = decode_varint(data, offset)
            registry = registered_types()
            if type_id >= len(registry):
                raise ValueError(f"unknown object type id {type_id}")
            cls, names = registry[type_id]
            values = []
            for _ in names:
                item, offset = self._decode_value(data, offset, depth + 1)
                values.append(item)
            return cls(*values), offset
        if tag in (b"L", b"T"):
            count, offset = decode_varint(data, offset)
            items = []
            for _ in range(count):
                item, offset = self._decode_value(data, offset, depth + 1)
                items.append(item)
            return (tuple(items) if tag == b"T" else items), offset
        raise ValueError(f"unknown wire tag {tag!r}")

    def _decode_element_body(self, data: bytes, offset: int) -> Tuple[Any, int]:
        if not self.intern:
            if offset >= len(data) or data[offset] != 0:
                raise ValueError("expected raw element marker")
            offset += 1
            raw = data[offset:offset + self.group.wire_bytes]
            if len(raw) != self.group.wire_bytes:
                raise ValueError("truncated element body")
            return self.group.deserialize_cached(raw), offset + len(raw)
        marker, offset = decode_varint(data, offset)
        if marker == 0:
            raw = data[offset:offset + self.group.wire_bytes]
            if len(raw) != self.group.wire_bytes:
                raise ValueError("truncated element body")
            element = self.group.deserialize_cached(raw)
            self._dec_table.register(element)
            return element, offset + len(raw)
        index = marker - 1
        if index >= len(self._dec_table):
            raise ValueError(f"interned element reference {index} out of range")
        return self._dec_table.get(index), offset

    # -- size accounting ----------------------------------------------------------
    def encoded_bits(self, value: Any) -> int:
        return 8 * len(self.encode(value))

    # -- transactional interning (transport-facing) ------------------------------
    def intern_mark(self) -> int:
        return len(self._enc_table)

    def intern_rollback(self, mark: int) -> None:
        self._enc_table.truncate(mark)


def _typed_decode(decode_one: Any, *args: Any) -> Any:
    """Run a codec's recursive decoder, raising every failure it meets —
    truncation, bad tags, bad UTF-8, elements outside the group — as a
    :class:`WireDecodeError`."""
    try:
        return decode_one(*args)
    except WireDecodeError:
        raise
    except (ValueError, TypeError, struct.error) as exc:
        raise WireDecodeError(str(exc)) from exc


def make_codec(group: Group, version: str):
    if version == "v1":
        return WireCodec(group)
    if version == "v2":
        return WireCodecV2(group)
    raise ValueError(f"unknown wire codec version {version!r}")


# ---------------------------------------------------------------------------
# Fragmentation model
# ---------------------------------------------------------------------------

def fragment_count(payload: Any) -> int:
    """How many wire messages this payload costs without coalescing.

    Models the v1 per-datum transport: a bitwise ciphertext is one
    broadcast *per bit* and ciphertext-set transfers (τ sets, chain
    vectors, final sets) one message *per ciphertext* — the O(n·l)
    phase-2 flood that coalescing collapses to one batch per
    (sender, receiver, round).  Scalar payloads count 1.
    """
    if isinstance(payload, BitwiseCiphertext):
        return max(1, payload.bit_length)
    if (
        isinstance(payload, (list, tuple))
        and payload
        and all(
            isinstance(item, (Ciphertext, BitwiseCiphertext, list, tuple))
            for item in payload
        )
    ):
        return sum(fragment_count(item) for item in payload)
    return 1
