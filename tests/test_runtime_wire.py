"""Tests for the canonical wire codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.bitenc import BitwiseCiphertext, BitwiseElGamal
from repro.crypto.elgamal import ExponentialElGamal
from repro.math.rng import SeededRNG
from repro.runtime.wire import WireCodec


@pytest.fixture
def codec(small_dl_group):
    return WireCodec(small_dl_group)


@pytest.fixture
def curve_codec(tiny_curve):
    return WireCodec(tiny_curve)


class TestIntegers:
    @given(st.integers(-(10**30), 10**30))
    @settings(max_examples=50)
    def test_roundtrip(self, value):
        from repro.groups.dl import DLGroup

        codec = WireCodec(DLGroup.random(32, rng=SeededRNG(99)))
        assert codec.decode(codec.encode(value)) == value

    def test_zero(self, codec):
        assert codec.decode(codec.encode(0)) == 0

    def test_sign_distinction(self, codec):
        assert codec.decode(codec.encode(-5)) == -5
        assert codec.decode(codec.encode(5)) == 5


class TestGroupValues:
    def test_element_roundtrip(self, codec, small_dl_group):
        element = small_dl_group.random_element(SeededRNG(1))
        decoded = codec.decode(codec.encode_element(element))
        assert small_dl_group.eq(decoded, element)

    def test_curve_element_roundtrip(self, curve_codec, tiny_curve):
        point = tiny_curve.random_element(SeededRNG(2))
        decoded = curve_codec.decode(curve_codec.encode_element(point))
        assert tiny_curve.eq(decoded, point)

    def test_encode_element_rejects_non_elements(self, codec, small_dl_group):
        with pytest.raises(TypeError):
            codec.encode_element(small_dl_group.modulus + 1)

    def test_ciphertext_roundtrip(self, codec, small_dl_group):
        scheme = ExponentialElGamal(small_dl_group)
        rng = SeededRNG(3)
        keypair = scheme.generate_keypair(rng)
        ciphertext = scheme.encrypt(7, keypair.public, rng)
        decoded = codec.decode(codec.encode(ciphertext))
        assert scheme.decrypt_small(decoded, keypair.secret, 10) == 7

    def test_bitwise_ciphertext_roundtrip(self, codec, small_dl_group):
        bitenc = BitwiseElGamal(small_dl_group)
        rng = SeededRNG(4)
        keypair = bitenc.scheme.generate_keypair(rng)
        ciphertext = bitenc.encrypt(0b1011, 6, keypair.public, rng)
        decoded = codec.decode(codec.encode(ciphertext))
        assert isinstance(decoded, BitwiseCiphertext)
        assert bitenc.decrypt(decoded, keypair.secret) == 0b1011

    def test_nested_lists(self, codec, small_dl_group):
        scheme = ExponentialElGamal(small_dl_group)
        rng = SeededRNG(5)
        keypair = scheme.generate_keypair(rng)
        payload = [
            [scheme.encrypt(1, keypair.public, rng)],
            [scheme.encrypt(0, keypair.public, rng), 42],
        ]
        decoded = codec.decode(codec.encode(payload))
        assert len(decoded) == 2
        assert decoded[1][1] == 42


class TestRobustness:
    def test_truncated_data_rejected(self, codec):
        encoded = codec.encode(12345)
        with pytest.raises(ValueError):
            codec.decode(encoded[:-1])

    def test_trailing_garbage_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.decode(codec.encode(1) + b"\x00")

    def test_unknown_tag_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.decode(b"X\x00\x00\x00\x01\x00")

    def test_non_element_bytes_rejected(self, codec, small_dl_group):
        import struct

        # Encode an out-of-range "element".
        fake = small_dl_group.modulus.to_bytes(
            (small_dl_group.element_bits + 7) // 8, "big"
        )
        frame = b"E" + struct.pack(">I", len(fake)) + fake
        with pytest.raises(ValueError):
            codec.decode(frame)

    def test_unencodable_type_rejected(self, codec):
        with pytest.raises(TypeError):
            codec.encode(object())
        with pytest.raises(TypeError):
            codec.encode(True)


class TestSizeAccounting:
    def test_declared_protocol_sizes_are_realistic(self, codec, small_dl_group):
        """The engine's declared size for a bitwise ciphertext
        (2·l·element_bits) must be within the framing overhead of the
        real encoding."""
        bitenc = BitwiseElGamal(small_dl_group)
        rng = SeededRNG(6)
        keypair = bitenc.scheme.generate_keypair(rng)
        width = 16
        ciphertext = bitenc.encrypt(1234, width, keypair.public, rng)
        declared = bitenc.ciphertext_bits(width)
        actual = codec.encoded_bits(ciphertext)
        assert declared <= actual <= declared * 1.6  # framing overhead only


# ---------------------------------------------------------------------------
# v2: varint framing + element interning
# ---------------------------------------------------------------------------

from repro.runtime.wire import (  # noqa: E402
    InternTable,
    WireCodecV2,
    decode_varint,
    encode_varint,
    fragment_count,
    make_codec,
    unzigzag,
    zigzag,
)


@pytest.fixture
def codec_v2(small_dl_group):
    return WireCodecV2(small_dl_group)


@pytest.fixture
def curve_codec_v2(tiny_curve):
    return WireCodecV2(tiny_curve)


class TestVarints:
    @given(st.integers(0, 2**70))
    @settings(max_examples=100)
    def test_roundtrip(self, value):
        encoded = encode_varint(value)
        decoded, offset = decode_varint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    def test_single_byte_boundary(self):
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_truncated_varint_rejected(self):
        with pytest.raises(ValueError):
            decode_varint(b"\x80")  # continuation bit set, nothing follows

    @given(st.integers(-(2**62), 2**62))
    @settings(max_examples=100)
    def test_zigzag_roundtrip(self, value):
        assert unzigzag(zigzag(value)) == value

    def test_zigzag_keeps_small_magnitudes_small(self):
        # -1 -> 1, 1 -> 2: one byte either way on the wire.
        assert zigzag(-1) == 1
        assert len(encode_varint(zigzag(-64))) == 1


@pytest.mark.parametrize("version", ["v1", "v2"])
class TestBothCodecsRoundtrip:
    """The property battery runs over both codec generations and both
    group families — the wire is codec- and group-agnostic."""

    def _codecs(self, version, small_dl_group, tiny_curve):
        return make_codec(small_dl_group, version), make_codec(tiny_curve, version)

    @given(value=st.integers(-(10**30), 10**30))
    @settings(max_examples=40)
    def test_integers(self, version, value):
        from repro.groups.dl import DLGroup

        codec = make_codec(DLGroup.random(32, rng=SeededRNG(99)), version)
        assert codec.decode(codec.encode(value)) == value

    def test_none_bytes_str(self, version, small_dl_group, tiny_curve):
        codec, _ = self._codecs(version, small_dl_group, tiny_curve)
        for value in (None, b"", b"\x00\xff" * 5, "", "tag-name", "π"):
            assert codec.decode(codec.encode(value)) == value

    def test_bool_rejected(self, version, small_dl_group, tiny_curve):
        # bool is int's subclass; letting it through would silently turn
        # flags into integers on the far side.
        codec, _ = self._codecs(version, small_dl_group, tiny_curve)
        with pytest.raises(TypeError):
            codec.encode(True)
        with pytest.raises(TypeError):
            codec.encode([1, False])

    def test_tuple_list_distinction(self, version, small_dl_group, tiny_curve):
        codec, _ = self._codecs(version, small_dl_group, tiny_curve)
        decoded = codec.decode(codec.encode((1, [2, (3,)], -4)))
        assert decoded == (1, [2, (3,)], -4)
        assert isinstance(decoded, tuple)
        assert isinstance(decoded[1], list)
        assert isinstance(decoded[1][1], tuple)

    def test_nested_ciphertext_lists(self, version, small_dl_group, tiny_curve):
        for group in (small_dl_group, tiny_curve):
            codec = make_codec(group, version)
            scheme = ExponentialElGamal(group)
            rng = SeededRNG(5)
            keypair = scheme.generate_keypair(rng)
            payload = [
                [scheme.encrypt(1, keypair.public, rng)],
                [scheme.encrypt(0, keypair.public, rng), 42],
            ]
            decoded = codec.decode(codec.encode(payload))
            assert decoded[1][1] == 42
            assert scheme.decrypt_small(decoded[0][0], keypair.secret, 4) == 1

    def test_bitwise_ciphertext(self, version, small_dl_group, tiny_curve):
        for group in (small_dl_group, tiny_curve):
            codec = make_codec(group, version)
            bitenc = BitwiseElGamal(group)
            rng = SeededRNG(4)
            keypair = bitenc.scheme.generate_keypair(rng)
            ciphertext = bitenc.encrypt(0b1011, 6, keypair.public, rng)
            decoded = codec.decode(codec.encode(ciphertext))
            assert isinstance(decoded, BitwiseCiphertext)
            assert bitenc.decrypt(decoded, keypair.secret) == 0b1011

    def test_registered_objects(self, version, small_dl_group, tiny_curve):
        from repro.crypto.zkp import NIZKProof

        codec, _ = self._codecs(version, small_dl_group, tiny_curve)
        element = small_dl_group.random_element(SeededRNG(8))
        proof = NIZKProof(commitment=element, response=12345)
        decoded = codec.decode(codec.encode(proof))
        assert isinstance(decoded, NIZKProof)
        assert small_dl_group.eq(decoded.commitment, element)
        assert decoded.response == 12345

    def test_trailing_garbage_rejected(self, version, small_dl_group, tiny_curve):
        codec, _ = self._codecs(version, small_dl_group, tiny_curve)
        with pytest.raises(ValueError):
            codec.decode(codec.encode(1) + b"\x00")

    def test_truncation_rejected(self, version, small_dl_group, tiny_curve):
        codec, _ = self._codecs(version, small_dl_group, tiny_curve)
        encoded = codec.encode([small_dl_group.generator(), 7])
        with pytest.raises(ValueError):
            codec.decode(encoded[:-1])


class TestInterning:
    def test_repeat_element_sent_once(self, codec_v2, small_dl_group):
        element = small_dl_group.random_element(SeededRNG(11))
        first = codec_v2.encode_element(element)
        second = codec_v2.encode_element(element)
        assert len(second) < len(first)
        # A paired decoder replays both sends and agrees on both.
        decoder = WireCodecV2(small_dl_group)
        assert small_dl_group.eq(decoder.decode(first), element)
        assert small_dl_group.eq(decoder.decode(second), element)

    def test_decode_out_of_order_fails(self, codec_v2, small_dl_group):
        """A reference frame is meaningless to a decoder that never saw
        the first occurrence — stream order is part of the contract."""
        element = small_dl_group.random_element(SeededRNG(12))
        codec_v2.encode_element(element)
        reference_frame = codec_v2.encode_element(element)
        fresh_decoder = WireCodecV2(small_dl_group)
        with pytest.raises(ValueError):
            fresh_decoder.decode(reference_frame)

    def test_rollback_undoes_partial_encode(self, codec_v2, small_dl_group):
        scheme = ExponentialElGamal(small_dl_group)
        rng = SeededRNG(13)
        keypair = scheme.generate_keypair(rng)
        ciphertext = scheme.encrypt(1, keypair.public, rng)
        mark = codec_v2.intern_mark()
        payload = [ciphertext, object()]  # second item unencodable
        with pytest.raises(TypeError):
            codec_v2.encode(payload)
        codec_v2.intern_rollback(mark)
        # After rollback the components encode raw again, so a fresh
        # decoder stays in sync despite never seeing the aborted frame.
        decoder = WireCodecV2(small_dl_group)
        decoded = decoder.decode(codec_v2.encode(ciphertext))
        assert scheme.decrypt_small(decoded, keypair.secret, 4) == 1

    def test_transcode_keeps_both_tables_in_step(self, small_dl_group):
        """decode(encode(x)) on ONE codec models the transport's
        transcode-at-submit: after k messages the encode- and
        decode-side tables hold the same entries."""
        codec = WireCodecV2(small_dl_group)
        rng = SeededRNG(14)
        elements = [small_dl_group.random_element(rng) for _ in range(5)]
        for element in elements + elements:
            decoded = codec.decode(codec.encode_element(element))
            assert small_dl_group.eq(decoded, element)
        # Second pass was all references: table holds each element once.
        assert len(codec._enc_table) == len(codec._dec_table) == 5

    def test_interning_disabled_for_unfaithful_group(self):
        from repro.analysis.counting import CountingGroup

        group = CountingGroup.like_dl(64)
        codec = WireCodecV2(group)
        assert codec.intern is False
        first = codec.encode_element(group.generator())
        second = codec.encode_element(group.generator())
        assert first == second  # no reference form: every send is raw

    def test_table_bound_respected(self, small_dl_group):
        table = InternTable(max_size=2)
        table.register("a")
        table.register("b")
        table.register("c")  # over budget: silently not registered
        assert len(table) == 2
        assert table.lookup("c") is None

    def test_v2_repeat_heavy_payload_smaller_than_v1(self, small_dl_group):
        """The win the interning exists for: re-sending the same
        ciphertext many times (retransmits, repeated references)."""
        scheme = ExponentialElGamal(small_dl_group)
        rng = SeededRNG(15)
        keypair = scheme.generate_keypair(rng)
        payload = [scheme.encrypt(1, keypair.public, rng)] * 32
        v1 = make_codec(small_dl_group, "v1")
        v2 = make_codec(small_dl_group, "v2")
        assert len(v2.encode(payload)) < len(v1.encode(payload)) / 4


class TestFragmentCount:
    def test_scalar_is_one(self, small_dl_group):
        assert fragment_count(7) == 1
        assert fragment_count("tag") == 1

    def test_bitwise_ciphertext_counts_bits(self, small_dl_group):
        bitenc = BitwiseElGamal(small_dl_group)
        rng = SeededRNG(16)
        keypair = bitenc.scheme.generate_keypair(rng)
        ciphertext = bitenc.encrypt(5, 8, keypair.public, rng)
        assert fragment_count(ciphertext) == 8

    def test_ciphertext_list_sums(self, small_dl_group):
        scheme = ExponentialElGamal(small_dl_group)
        rng = SeededRNG(17)
        keypair = scheme.generate_keypair(rng)
        batch = [scheme.encrypt(0, keypair.public, rng) for _ in range(5)]
        assert fragment_count(batch) == 5

    def test_mixed_payload_is_one_fragment(self, small_dl_group):
        # A (rank, values) tuple or any scalar-bearing structure ships
        # as one datum in the v1 transport model.
        assert fragment_count((3, [1, 2])) == 1


# -- interning-table lifecycle across disconnect/reconnect -------------------
#
# The socket transport keeps one v2 codec per directed channel; when a
# peer dies and rejoins, its decoder tables die with the connection, so
# the rejoined peer must be sent its streams again from the start (the
# coordinator's replay log) — a mid-stream frame means nothing to a
# fresh decoder.  These tests pin that lifecycle.

from repro.runtime.channels import Message, WireTransport  # noqa: E402


class TestReconnectLifecycle:
    def _msg(self, src, dst, payload, tag="tau-sets", round_sent=1):
        return Message(src=src, dst=dst, tag=tag, payload=payload,
                       size_bits=64, round_sent=round_sent)

    @staticmethod
    def _element_payload(group, seed):
        """Interning applies to group elements; a ciphertext carries
        two, so repeating one exercises the reference path."""
        scheme = ExponentialElGamal(group)
        rng = SeededRNG(seed)
        keypair = scheme.generate_keypair(rng)
        return scheme.encrypt(1, keypair.public, rng)

    def test_pre_reset_reference_rejected_by_fresh_decoder(self, small_dl_group):
        """Why a rejoined peer is sent its streams from the start: a
        reference frame from mid-stream is garbage to a fresh decoder."""
        transport = WireTransport(small_dl_group, keep_bytes=True)
        element = self._element_payload(small_dl_group, 32)
        transport.prepare(self._msg(1, 2, element))
        reference = transport.prepare(self._msg(1, 2, element))
        with pytest.raises(ValueError):
            WireCodecV2(small_dl_group).decode(reference.wire.encoded)

    def test_keep_bytes_off_drops_payload_bytes(self, small_dl_group):
        """Engine runs don't pay to retain encodings; the socket
        transport opts in with keep_bytes=True to ship them verbatim."""
        transport = WireTransport(small_dl_group, keep_bytes=False)
        element = self._element_payload(small_dl_group, 36)
        prepared = transport.prepare(self._msg(1, 2, element))
        assert prepared.wire.encoded is None
        kept = WireTransport(small_dl_group, keep_bytes=True)
        prepared = kept.prepare(self._msg(1, 2, element))
        assert prepared.wire.encoded is not None
