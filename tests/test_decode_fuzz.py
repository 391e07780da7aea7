"""Fuzzing the byte boundaries a peer controls.

Malformed input to the v2 wire decoder and to the transport frame
parsers must fail with a typed :class:`ProtocolError` subclass — never
a ``RecursionError``, an ``IndexError`` or a bare ``ValueError``.  Each
property starts from real encodings (ciphertexts, bitwise ciphertexts,
registered objects, containers) sent in order on one channel, so the
decoder's interning table is populated, and then damages them:
truncation, bit flips, oversized varints and out-of-range intern
references.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parties import Submission
from repro.crypto.bitenc import BitwiseElGamal
from repro.crypto.zkp import NIZKProof
from repro.groups.curves import build_tiny_curve
from repro.groups.dl import DLGroup
from repro.math.rng import SeededRNG
from repro.runtime.errors import ProtocolError
from repro.runtime.transport import frames
from repro.runtime.wire import (
    MAX_DEPTH,
    WireCodecV2,
    WireDecodeError,
    encode_varint,
)

GROUPS = {
    "dl": DLGroup.random(48, rng=SeededRNG(101)),
    "curve": build_tiny_curve(field_bits=14, rng=SeededRNG(303)),
}


def _stream(group):
    """Encodings of a realistic payload sequence on one channel."""
    rng = SeededRNG(11)
    bitenc = BitwiseElGamal(group)
    keypair = bitenc.scheme.generate_keypair(rng)
    cipher = bitenc.scheme.encrypt(1, keypair.public, rng)
    payloads = [
        cipher,
        bitenc.encrypt(0b101101, 6, keypair.public, rng),
        [cipher, cipher, bitenc.scheme.encrypt(0, keypair.public, rng)],
        NIZKProof(commitment=keypair.public, response=2**70 + 3),
        Submission(rank=1, values=(4, -9, 2**40)),
        (None, b"\x00\xff", "tau-sets", [[-1]]),
    ]
    encoder = WireCodecV2(group)
    return [encoder.encode(payload) for payload in payloads]


STREAMS = {name: _stream(group) for name, group in GROUPS.items()}


def _decode_stream(group, stream):
    """Decode a channel's frames in order on a fresh decoder; stop at
    the first typed rejection.  Any other exception fails the test."""
    decoder = WireCodecV2(group)
    for data in stream:
        try:
            decoder.decode(data)
        except ProtocolError:
            return


def _damaged(stream, index, damage):
    index %= len(stream)
    return stream[:index] + [damage(stream[index])] + stream[index + 1:]


@pytest.mark.parametrize("name", sorted(GROUPS))
class TestWireDecoder:
    def test_undamaged_stream_decodes(self, name):
        decoder = WireCodecV2(GROUPS[name])
        for data in STREAMS[name]:
            decoder.decode(data)

    @given(index=st.integers(0, 100), cut=st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_truncation(self, name, index, cut):
        stream = _damaged(STREAMS[name], index,
                          lambda data: data[:cut % len(data)])
        _decode_stream(GROUPS[name], stream)

    @given(index=st.integers(0, 100),
           flips=st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_bit_flips(self, name, index, flips):
        def flip(data):
            damaged = bytearray(data)
            for bit in flips:
                bit %= 8 * len(damaged)
                damaged[bit // 8] ^= 1 << (bit % 8)
            return bytes(damaged)

        _decode_stream(GROUPS[name], _damaged(STREAMS[name], index, flip))

    @given(index=st.integers(0, 100), at=st.integers(0, 10**6),
           width=st.integers(1, 40), tag=st.sampled_from(b"SYULTBOE"))
    @settings(max_examples=200, deadline=None)
    def test_oversized_varints(self, name, index, at, width, tag):
        """A tag followed by a varint of up to 40 bytes (a count or a
        length near 2^280), spliced into a real frame."""
        varint = b"\xff" * width + b"\x7f"

        def splice(data):
            at_ = at % (len(data) + 1)
            return data[:at_] + bytes([tag]) + varint + data[at_:]

        _decode_stream(GROUPS[name], _damaged(STREAMS[name], index, splice))

    @given(reference=st.integers(0, 2**64),
           tag=st.sampled_from([b"E", b"C", b"B\x01"]))
    @settings(max_examples=100, deadline=None)
    def test_out_of_range_intern_references(self, name, reference, tag):
        group = GROUPS[name]
        decoder = WireCodecV2(group)
        for data in STREAMS[name]:
            decoder.decode(data)
        table = len(decoder._dec_table)
        index = table + reference
        body = encode_varint(index + 1) * 2
        with pytest.raises(WireDecodeError, match="out of range"):
            decoder.decode(tag + body)

    @given(data=st.binary(max_size=256))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes(self, name, data):
        _decode_stream(GROUPS[name], STREAMS[name] + [data])

    def test_deep_nesting_is_bounded(self, name):
        decoder = WireCodecV2(GROUPS[name])
        with pytest.raises(WireDecodeError, match="nesting"):
            decoder.decode(b"L\x01" * 5000 + b"N")
        # Within the bound, nesting still decodes.
        nested = b"L\x01" * MAX_DEPTH + b"N"
        value = decoder.decode(nested)
        for _ in range(MAX_DEPTH):
            value = value[0]
        assert value is None

    def test_decode_errors_stay_value_errors(self, name):
        """Typed, and still caught by callers that catch ValueError."""
        with pytest.raises(ValueError):
            WireCodecV2(GROUPS[name]).decode(b"Z")


# -- transport frame bodies ---------------------------------------------------

HEADER = {"src": 1, "dst": 2, "tag": "tau-sets", "round": 3,
          "size_bits": 512, "payload_bits": 480, "wire_messages": 1,
          "enc": "v2"}
MSG_BODY = (json.dumps(HEADER, sort_keys=True).encode() + b"\n"
            + STREAMS["dl"][0])


def _only_typed(parse, body):
    try:
        parse(body)
    except ProtocolError:
        pass


class TestFrameParsers:
    @given(body=st.binary(max_size=512))
    @settings(max_examples=200, deadline=None)
    def test_split_msg_arbitrary_bytes(self, body):
        _only_typed(frames.split_msg, body)

    @given(cut=st.integers(0, len(MSG_BODY)))
    @settings(max_examples=100, deadline=None)
    def test_split_msg_truncation(self, cut):
        _only_typed(frames.split_msg, MSG_BODY[:cut])

    @given(flips=st.lists(st.integers(0, 8 * len(MSG_BODY) - 1),
                          min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_split_msg_bit_flips(self, flips):
        body = bytearray(MSG_BODY)
        for bit in flips:
            body[bit // 8] ^= 1 << (bit % 8)
        _only_typed(frames.split_msg, bytes(body))

    @given(body=st.binary(max_size=512))
    @settings(max_examples=200, deadline=None)
    def test_decode_json_arbitrary_bytes(self, body):
        _only_typed(frames.decode_json, body)

    @given(depth=st.integers(1, 200_000))
    @settings(max_examples=20, deadline=None)
    def test_decode_json_deep_nesting(self, depth):
        _only_typed(frames.decode_json, b"[" * depth + b"]" * depth)

    def test_decode_json_rejects_non_objects(self):
        for body in (b"[]", b"3", b'"x"', b"\xff\xfe", b"{"):
            with pytest.raises(frames.TransportError):
                frames.decode_json(body)
