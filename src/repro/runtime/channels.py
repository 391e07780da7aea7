"""Messages, receive-effects and the measured-bytes wire transport.

The paper assumes a secure (private, authenticated) channel between each
pair of parties; in simulation this means a party can only read messages
explicitly addressed to it, which the engine enforces by delivering into
per-party mailboxes keyed by ``(src, tag)``.

:class:`WireTransport` makes the byte encoding the *actual* transport:
every engine message is encoded with a :mod:`repro.runtime.wire` codec
at submit time, transcoded (encode → decode) so the receiver observes
exactly what the bytes carry, and accounted by *measured* size — payload
bytes plus the secure-channel envelope a real deployment pays per wire
message (AEAD nonce + authentication tag).  With coalescing enabled, all
logical messages one sender emits to one receiver within one engine
round share a single framed batch (one envelope), collapsing the
phase-2 per-bit/per-ciphertext flood from O(n·l) wire messages to O(n).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Deque, List, Optional, Tuple
from collections import deque

from repro.runtime.errors import ProtocolError


@dataclass(frozen=True)
class WireInfo:
    """Wire-path annotations the transport attaches to a message."""

    payload_bits: int      # encoded payload + tag-dictionary bits
    frames: int            # wire messages this payload costs uncoalesced
    encoded_len: int       # encoded payload bytes (0 if encoding fell back)
    tag_id: int            # per-channel tag-dictionary id
    declared_bits: int     # the sender's declared size (for conformance)
    finalized: bool = False
    wire_messages: int = 0  # wire messages actually attributed to this entry
    # The encoded payload bytes themselves, captured only when the
    # transport was built with ``keep_bytes=True`` (the socket transport
    # ships exactly these bytes, so what crosses TCP is byte-identical
    # to what the in-process accounting metered).
    encoded: Optional[bytes] = None


@dataclass(frozen=True)
class Message:
    """One protocol message on a pairwise secure channel."""

    src: int
    dst: int
    tag: str
    payload: Any
    size_bits: int
    round_sent: int = 0
    # Wire-path bookkeeping: set by the transport/engine in measured
    # mode; ``accounted`` means the engine already credited the receiver
    # at delivery, so Party.recv must not double-count.
    accounted: bool = False
    wire: Optional[WireInfo] = None


@dataclass(frozen=True)
class NextRound:
    """Effect yielded by a party: "resume me at the start of next round".

    This is how the streaming pipeline staggers its chunk emissions: all
    messages sent within one engine round are delivered together at the
    round boundary, so a chain head that wants hop 2 chewing on chunk 1
    while it emits chunk 2 must *yield the round* between sends.  A
    paused party is not blocked on any receive (the supervisor never
    sees it) and is unconditionally resumed one round later, so pausing
    can never deadlock a run.
    """


@dataclass(frozen=True)
class Recv:
    """Effect yielded by a party: "block until a message arrives".

    ``src`` may be ``None`` to accept the tag from any sender.
    """

    src: Optional[int]
    tag: str

    def matches(self, message: Message) -> bool:
        """Would ``message`` satisfy this receive?  (Used by the
        supervisor to pair blocked receives with lost messages.)"""
        return message.tag == self.tag and (
            self.src is None or message.src == self.src
        )


@dataclass
class Mailbox:
    """Per-party inbox with FIFO order per ``(src, tag)`` stream."""

    owner: int
    _queues: Dict[Tuple[int, str], Deque[Message]] = field(default_factory=dict)

    def deliver(self, message: Message) -> None:
        if message.dst != self.owner:
            raise ProtocolError(
                f"message for {message.dst} delivered to mailbox of {self.owner}"
            )
        key = (message.src, message.tag)
        self._queues.setdefault(key, deque()).append(message)

    def try_take(self, want: Recv) -> Optional[Message]:
        """Pop the oldest message matching the receive effect, if any."""
        if want.src is not None:
            queue = self._queues.get((want.src, want.tag))
            if queue:
                return queue.popleft()
            return None
        # Wildcard source: take the tag from the lowest-numbered sender
        # with a pending message (deterministic).
        candidates = [
            key for key, queue in self._queues.items() if key[1] == want.tag and queue
        ]
        if not candidates:
            return None
        return self._queues[min(candidates)].popleft()

    def pending(self) -> List[Message]:
        return [msg for queue in self._queues.values() for msg in queue]


# ---------------------------------------------------------------------------
# Measured-bytes wire transport
# ---------------------------------------------------------------------------

#: Secure-channel envelope a real deployment pays per wire message: a
#: 12-byte AEAD nonce plus a 16-byte authentication tag (the paper
#: assumes private, authenticated pairwise channels).
ENVELOPE_BYTES = 28

#: v1 per-message header: 1-byte tag id + 4-byte round + 4-byte length.
V1_MESSAGE_HEADER_BYTES = 9
#: v1 per-record header inside a batch: 1-byte tag id + 4-byte length.
V1_RECORD_HEADER_BYTES = 5
#: v1 batch header: 4-byte round + 4-byte record count.
V1_BATCH_HEADER_BYTES = 8
#: v2 batch header estimate: varint(round) + ~2-byte varint(count).
V2_BATCH_COUNT_BYTES = 2


@dataclass(frozen=True)
class WireStats:
    """Aggregate wire-path accounting for one run."""

    codec: str
    coalesce: bool
    mode: str
    digest: str                      # sha256 over encoded payloads, send order
    wire_messages: int
    wire_bits: int
    payload_bits: int
    messages_by_tag: Dict[str, int]
    bits_by_tag: Dict[str, int]
    logical_messages: int
    encode_fallbacks: int
    conformance_checks: int
    # Per-directed-channel payload digests ("src>dst" -> sha256 hex).
    # Unlike ``digest`` (global submit order — a scheduling artifact),
    # each channel digest depends only on that channel's own byte
    # stream, so it is comparable between the lockstep engine and the
    # socket transport, where global submit interleaving differs.
    channel_digests: Dict[str, str] = field(default_factory=dict)

    @property
    def wire_bytes(self) -> int:
        return self.wire_bits // 8

    @property
    def canonical_digest(self) -> str:
        """Scheduling-independent run digest: per-channel digests hashed
        in channel order.  Falls back to the submit-order digest when no
        per-channel digests were collected (legacy stats objects)."""
        if not self.channel_digests:
            return self.digest
        feed = "|".join(
            f"{channel}={value}"
            for channel, value in sorted(self.channel_digests.items())
        )
        return hashlib.sha256(feed.encode()).hexdigest()


class WireTransport:
    """Per-run wire path: encoding, interning, coalescing, accounting.

    One instance serves one engine run.  It keeps a codec per *directed*
    channel (the interning tables are channel state), a per-channel tag
    dictionary (tag strings cross the wire once, ids thereafter), and a
    running SHA-256 over the encoded payload stream in submit order —
    the serial-transcript fingerprint, independent of coalescing because
    envelopes and batch headers are excluded.

    ``mode``: ``"measured"`` accounts real encoded bytes;
    ``"conformance"`` additionally re-encodes every payload with a fresh
    codec (no cross-message interning) and raises
    :class:`~repro.runtime.wire.WireConformanceError` when the measured
    size drifts outside ``conformance_band`` of the declared one.
    """

    def __init__(
        self,
        group,
        codec: str = "v2",
        coalesce: bool = True,
        mode: str = "measured",
        conformance_band: Tuple[float, float] = (0.2, 3.0),
        conformance_slack_bits: int = 512,
        keep_bytes: bool = False,
    ):
        # Imported here, not at module level: this module is loaded by
        # ``repro.runtime.__init__`` while the crypto package (which the
        # codecs depend on) may still be initializing.
        from repro.runtime import wire as wire_format

        self._fmt = wire_format
        if codec not in ("v1", "v2"):
            raise ValueError(f"unknown wire codec {codec!r}")
        if mode not in ("measured", "conformance"):
            raise ValueError(f"unknown wire mode {mode!r}")
        self.group = group
        self.codec_version = codec
        self.coalesce = coalesce
        self.mode = mode
        self.conformance_band = conformance_band
        self.conformance_slack_bits = conformance_slack_bits
        self.keep_bytes = keep_bytes
        self._channels: Dict[Tuple[int, int], Any] = {}
        self._tag_ids: Dict[Tuple[int, int], Dict[str, int]] = {}
        self._digest = hashlib.sha256()
        self._channel_digests: Dict[Tuple[int, int], Any] = {}
        self.wire_messages = 0
        self.wire_bits = 0
        self.payload_bits = 0
        self.logical_messages = 0
        self.encode_fallbacks = 0
        self.conformance_checks = 0
        self.messages_by_tag: Dict[str, int] = {}
        self.bits_by_tag: Dict[str, int] = {}

    # -- submit-time: encode, transcode, annotate ---------------------------
    def prepare(self, message: Message) -> Message:
        """Encode (and transcode) one logical message at submit time.

        Runs atomically when the message enters the engine — before the
        fault layer sees it — so the encoder and decoder interning
        tables advance in lockstep even if the message is later dropped:
        this models reliable, ordered delivery *below* the message layer
        (as TCP provides), where channel codec state survives
        application-level loss.
        """
        channel = (message.src, message.dst)
        codec = self._channels.get(channel)
        if codec is None:
            codec = self._fmt.make_codec(self.group, self.codec_version)
            self._channels[channel] = codec
        tag_dict = self._tag_ids.setdefault(channel, {})
        tag_id = tag_dict.get(message.tag)
        tag_dict_bytes = 0
        if tag_id is None:
            tag_id = len(tag_dict)
            tag_dict[message.tag] = tag_id
            # First use of this tag on this channel ships the string:
            # 1-byte id + 1-byte length + UTF-8 tag.
            tag_dict_bytes = 2 + len(message.tag.encode("utf-8"))

        mark = codec.intern_mark()
        try:
            encoded = codec.encode(message.payload)
        except TypeError:
            codec.intern_rollback(mark)
            self.encode_fallbacks += 1
            info = WireInfo(
                payload_bits=message.size_bits, frames=1, encoded_len=0,
                tag_id=tag_id, declared_bits=message.size_bits,
            )
            return replace(message, wire=info)

        self._digest.update(encoded)
        channel_digest = self._channel_digests.get(channel)
        if channel_digest is None:
            channel_digest = self._channel_digests[channel] = hashlib.sha256()
        channel_digest.update(encoded)
        if self.mode == "conformance":
            self._check_conformance(message.tag, message.payload,
                                    message.size_bits)
        payload = message.payload
        if self.group.wire_faithful:
            # The receiver observes exactly what the bytes carry.
            payload = codec.decode(encoded)
        info = WireInfo(
            payload_bits=8 * (len(encoded) + tag_dict_bytes),
            frames=self._fmt.fragment_count(message.payload),
            encoded_len=len(encoded),
            tag_id=tag_id,
            declared_bits=message.size_bits,
            encoded=encoded if self.keep_bytes else None,
        )
        return replace(message, payload=payload, wire=info)

    def _check_conformance(self, tag: str, payload: Any,
                           declared_bits: int) -> None:
        self.conformance_checks += 1
        fresh = self._fmt.make_codec(self.group, self.codec_version)
        measured_bits = 8 * len(fresh.encode(payload))
        low, high = self.conformance_band
        slack = self.conformance_slack_bits
        if not (
            declared_bits * low - slack
            <= measured_bits
            <= declared_bits * high + slack
        ):
            raise self._fmt.WireConformanceError(
                tag, declared_bits, measured_bits, self.conformance_band
            )

    # -- flush-time: envelope accounting ------------------------------------
    def finalize(self, message: Message, batched: bool,
                 first_in_batch: bool = True) -> Message:
        """Assign the final measured wire size to a prepared message.

        Uncoalesced, each of the payload's ``frames`` fragments pays its
        own envelope and per-message header.  Coalesced, a logical
        message pays only a small per-record header; the batch header
        and single envelope are attributed to the first message of its
        (sender, receiver, round) group.
        """
        info = message.wire
        if info is None or info.finalized:
            return message
        if batched:
            overhead = self._record_header_bytes(info)
            wire_messages = 0
            if first_in_batch:
                overhead += ENVELOPE_BYTES + self._batch_header_bytes(
                    message.round_sent
                )
                wire_messages = 1
        else:
            per_frame = ENVELOPE_BYTES + self._message_header_bytes(
                info, message.round_sent
            )
            overhead = info.frames * per_frame
            wire_messages = info.frames
        size_bits = info.payload_bits + 8 * overhead
        self.logical_messages += 1
        self.wire_messages += wire_messages
        self.wire_bits += size_bits
        self.payload_bits += info.payload_bits
        self.messages_by_tag[message.tag] = (
            self.messages_by_tag.get(message.tag, 0) + wire_messages
        )
        self.bits_by_tag[message.tag] = (
            self.bits_by_tag.get(message.tag, 0) + size_bits
        )
        return replace(
            message,
            size_bits=size_bits,
            wire=replace(info, finalized=True, wire_messages=wire_messages),
        )

    def _message_header_bytes(self, info: WireInfo, round_sent: int) -> int:
        if self.codec_version == "v1":
            return V1_MESSAGE_HEADER_BYTES
        return (
            len(self._fmt.encode_varint(info.tag_id))
            + len(self._fmt.encode_varint(round_sent))
            + len(self._fmt.encode_varint(max(1, info.encoded_len)))
        )

    def _record_header_bytes(self, info: WireInfo) -> int:
        if self.codec_version == "v1":
            return V1_RECORD_HEADER_BYTES
        return len(self._fmt.encode_varint(info.tag_id)) + len(
            self._fmt.encode_varint(max(1, info.encoded_len))
        )

    def _batch_header_bytes(self, round_sent: int) -> int:
        if self.codec_version == "v1":
            return V1_BATCH_HEADER_BYTES
        return len(self._fmt.encode_varint(round_sent)) + V2_BATCH_COUNT_BYTES

    # -- results -------------------------------------------------------------
    @property
    def digest(self) -> str:
        """SHA-256 over encoded payloads in submit order (envelope-free)."""
        return self._digest.hexdigest()

    def channel_digests(self) -> Dict[str, str]:
        """Per-directed-channel payload digests, keyed ``"src>dst"``."""
        return {
            f"{src}>{dst}": digest.hexdigest()
            for (src, dst), digest in self._channel_digests.items()
        }

    def stats(self) -> WireStats:
        return WireStats(
            codec=self.codec_version,
            coalesce=self.coalesce,
            mode=self.mode,
            digest=self.digest,
            wire_messages=self.wire_messages,
            wire_bits=self.wire_bits,
            payload_bits=self.payload_bits,
            messages_by_tag=dict(self.messages_by_tag),
            bits_by_tag=dict(self.bits_by_tag),
            logical_messages=self.logical_messages,
            encode_fallbacks=self.encode_fallbacks,
            conformance_checks=self.conformance_checks,
            channel_digests=self.channel_digests(),
        )
