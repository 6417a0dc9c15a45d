"""Frame codec tests against an independent bitwise CRC reference."""

import binascii
import random

import pytest
from hypothesis import given, strategies as st

from modbot.link import (
    ChecksumError, EncodingError, Frame, FrameDecoder, FrameError, FrameType,
    NeedMoreData, crc16, decode_frame, encode_frame,
)

from conftest import CODEC


def crc16_reference(data: bytes) -> int:
    """Bitwise CRC-16/CCITT-FALSE, written independently of the codec."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def test_crc_check_value():
    assert crc16_reference(b"123456789") == 0x29B1
    assert crc16(b"123456789") == 0x29B1


def test_crc_table_matches_reference():
    rng = random.Random(1234)
    for _ in range(200):
        data = rng.randbytes(rng.randrange(0, 64))
        assert crc16(data) == crc16_reference(data)


def test_ack_frame_encoding_frozen():
    # CRC over [02 00 00 00] computed with the bitwise reference: 0x69A8.
    assert crc16_reference(bytes([0x02, 0x00, 0x00, 0x00])) == 0x69A8
    encoded = encode_frame(Frame(FrameType.ACK, 0))
    assert encoded == bytes([0x7E, 0x02, 0x00, 0x00, 0x00, 0x69, 0xA8])


def test_every_ack_frame_matches_its_wire_layout():
    # Built here from the layout, not through encode_frame, which serves
    # ACKs from a table it fills at import.
    for seq in range(256):
        expected = bytes([0x7E, 0x02, seq, 0x00, 0x00]) + binascii.crc_hqx(
            bytes([0x02, seq, 0x00, 0x00]), 0xFFFF).to_bytes(2, "big")
        assert encode_frame(Frame(FrameType.ACK, seq)) == expected
        assert decode_frame(expected) == Frame(FrameType.ACK, seq)


def test_empty_data_frame_differs_only_in_type_and_crc():
    ack = encode_frame(Frame(FrameType.ACK, 0))
    data = encode_frame(Frame(FrameType.DATA, 0))
    assert len(ack) == len(data) == 7
    assert data[1] == 0x01
    assert ack[0] == data[0] and ack[2:5] == data[2:5]
    assert ack[5:] != data[5:]
    assert data[5:] == (0xF274).to_bytes(2, "big")  # bitwise reference value


def test_roundtrip_fixed():
    frame = Frame(FrameType.DATA, 5, b"hi")
    assert decode_frame(encode_frame(frame)) == frame


@CODEC
@given(
    st.sampled_from([FrameType.DATA, FrameType.ACK]),
    st.integers(min_value=0, max_value=255),
    st.binary(min_size=0, max_size=255),
)
def test_roundtrip_property(frame_type, seq, payload):
    if frame_type is FrameType.ACK:
        payload = b""
    frame = Frame(frame_type, seq, payload)
    assert decode_frame(encode_frame(frame)) == frame


def test_payload_too_long_rejected():
    with pytest.raises(EncodingError):
        encode_frame(Frame(FrameType.DATA, 0, b"x" * 256))


def test_ack_with_payload_rejected():
    with pytest.raises(EncodingError):
        Frame(FrameType.ACK, 0, b"x")


def test_decode_skips_leading_garbage():
    frame = Frame(FrameType.DATA, 9, b"payload")
    assert decode_frame(b"\x00\x11\x22" + encode_frame(frame)) == frame


def test_decode_truncated_needs_more():
    encoded = encode_frame(Frame(FrameType.DATA, 1, b"abc"))
    with pytest.raises(NeedMoreData):
        decode_frame(encoded[:-1])
    with pytest.raises(NeedMoreData):
        decode_frame(b"")


# The fixed frame for corruption sweeps. Its payload avoids 0x7E so a
# corrupted start byte cannot resync elsewhere.
_FIXED = Frame(FrameType.DATA, 42, bytes(range(0x10, 0x20)))
_FIXED_WIRE = encode_frame(_FIXED)


def test_fixed_frame_has_single_sync_byte():
    assert _FIXED_WIRE.count(b"\x7e") == 1


def test_every_single_bit_flip_rejected():
    covered = set(range(1, 3)) | set(range(5, len(_FIXED_WIRE)))  # type, seq, payload, crc
    for bit in range(len(_FIXED_WIRE) * 8):
        corrupted = bytearray(_FIXED_WIRE)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(FrameError):
            decode_frame(bytes(corrupted))
        if bit // 8 in covered:
            # Within the CRC-covered region (and the CRC itself) the
            # failure is specifically a checksum mismatch.
            with pytest.raises(ChecksumError):
                decode_frame(bytes(corrupted))


def test_every_adjacent_two_bit_flip_rejected():
    total_bits = len(_FIXED_WIRE) * 8
    for bit in range(total_bits - 1):
        corrupted = bytearray(_FIXED_WIRE)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        corrupted[(bit + 1) // 8] ^= 1 << ((bit + 1) % 8)
        with pytest.raises(FrameError):
            decode_frame(bytes(corrupted))


def test_stream_decoder_resyncs_through_garbage():
    first = Frame(FrameType.DATA, 1, b"one")
    second = Frame(FrameType.DATA, 2, b"two")
    decoder = FrameDecoder()
    stream = encode_frame(first) + b"\xde\xad\xbe\xef" + encode_frame(second)
    assert decoder.feed(stream) == [first, second]
    assert decoder.junk_bytes >= 4


def test_stream_decoder_handles_partial_feeds():
    frame = Frame(FrameType.DATA, 7, b"split across feeds")
    encoded = encode_frame(frame)
    decoder = FrameDecoder()
    out = []
    for i in range(0, len(encoded), 3):
        out.extend(decoder.feed(encoded[i:i + 3]))
    assert out == [frame]


def test_stream_decoder_counts_corrupt_frames():
    good = Frame(FrameType.DATA, 3, b"fine")
    corrupted = bytearray(encode_frame(Frame(FrameType.DATA, 4, b"bad!")))
    corrupted[-1] ^= 0xFF
    decoder = FrameDecoder()
    got = decoder.feed(bytes(corrupted) + encode_frame(good))
    assert got == [good]
    assert decoder.crc_errors >= 1


# A CRC-valid frame that breaks the frame rules is a bad frame, not a crash.
_ACK_WITH_PAYLOAD_BODY = bytes([0x02, 0x00, 0x00, 0x01]) + b"X"
_ACK_WITH_PAYLOAD = (
    b"\x7e" + _ACK_WITH_PAYLOAD_BODY
    + crc16_reference(_ACK_WITH_PAYLOAD_BODY).to_bytes(2, "big")
)


def test_decode_rejects_crc_valid_ack_with_payload():
    with pytest.raises(ChecksumError):
        decode_frame(_ACK_WITH_PAYLOAD)


def test_stream_decoder_skips_crc_valid_ack_with_payload():
    good = Frame(FrameType.DATA, 3, b"fine")
    alone = FrameDecoder()
    assert alone.feed(_ACK_WITH_PAYLOAD) == []
    assert alone.crc_errors == 1
    decoder = FrameDecoder()
    assert decoder.feed(_ACK_WITH_PAYLOAD + encode_frame(good)) == [good]
    assert decoder.crc_errors == 1
    assert decoder.junk_bytes == len(_ACK_WITH_PAYLOAD) - 1


# Streams of frames and junk, fed whole or cut into pieces. Junk leans on
# 0x7E so that false frame starts are common.
_frames = st.builds(
    lambda data, seq, payload: Frame(FrameType.DATA, seq, payload) if data
    else Frame(FrameType.ACK, seq),
    st.booleans(), st.integers(0, 255), st.binary(max_size=40),
)
_junk_byte = st.one_of(st.just(0x7E), st.sampled_from([0x00, 0x01, 0x02, 0xFF]),
                       st.integers(0, 255))
_junk = st.lists(_junk_byte, max_size=10).map(bytes)


def _feed_all(pieces) -> tuple[list, int, int]:
    decoder = FrameDecoder()
    frames = []
    for piece in pieces:
        frames.extend(decoder.feed(piece))
    return frames, decoder.crc_errors, decoder.junk_bytes


@st.composite
def _streams(draw, junk=_junk):
    parts = draw(st.lists(st.one_of(_frames, junk), max_size=8))
    stream = b""
    boundaries = set()
    for part in parts:
        stream += encode_frame(part) if isinstance(part, Frame) else part
        boundaries.add(len(stream))
    # Cut at some part boundaries, so whole frames arrive alone, and at
    # random offsets, so frames arrive split.
    cuts = {b for b in sorted(boundaries) if draw(st.booleans())}
    cuts |= set(draw(st.lists(st.integers(0, len(stream)), max_size=6)))
    edges = [0, *sorted(cuts), len(stream)]
    pieces = [stream[a:b] for a, b in zip(edges, edges[1:])]
    return parts, stream, pieces


@CODEC
@given(_streams())
def test_stream_decoder_piecewise_equals_whole(case):
    _, stream, pieces = case
    assert _feed_all(pieces) == _feed_all([stream])


@CODEC
@given(_streams(junk=_junk.map(lambda b: b.replace(b"\x7e", b""))))
def test_stream_decoder_recovers_every_frame_between_clean_junk(case):
    parts, _, pieces = case
    frames, crc_errors, _ = _feed_all(pieces)
    assert frames == [p for p in parts if isinstance(p, Frame)]
    assert crc_errors == 0


def test_a_corrupt_header_holds_back_no_whole_frame_behind_it():
    # The header claims a 64-byte payload. A decoder that waits for those
    # bytes would give the 19-byte frame behind it only at its fourth copy.
    good = Frame(FrameType.DATA, 5, bytes(range(1, 13)))
    decoder = FrameDecoder()
    assert decoder.feed(b"\x7e\x01\x00\x00\x40") == []
    assert decoder.feed(encode_frame(good)) == [good]
    assert (decoder.crc_errors, decoder.junk_bytes) == (1, 4)


# A corrupt header: the first 1-5 bytes of a frame header (start byte, type,
# seq, length), with nothing after them. Lengths lean on the ones a frame
# may have, so that the header waits for bytes.
_corrupt_headers = st.builds(
    lambda head, cut: head[:cut],
    st.tuples(st.integers(0, 255), st.integers(0, 255),
              st.one_of(st.integers(0, 255), st.integers(0, 0xFFFF))).map(
        lambda h: bytes([0x7E, h[0], h[1]]) + h[2].to_bytes(2, "big")),
    st.integers(1, 5),
)


@CODEC
@given(st.lists(st.one_of(_frames, _corrupt_headers), max_size=8), st.data())
def test_every_intact_frame_comes_out_once_its_bytes_are_in(parts, data):
    stream = b""
    ends = []  # (offset just past the frame, frame)
    for part in parts:
        stream += encode_frame(part) if isinstance(part, Frame) else part
        if isinstance(part, Frame):
            ends.append((len(stream), part))
    cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=12))
    edges = [0, *sorted(set(cuts) | {end for end, _ in ends}), len(stream)]
    decoder = FrameDecoder()
    out = []
    for a, b in zip(edges, edges[1:]):
        out.extend(decoder.feed(stream[a:b]))
        assert out == [frame for end, frame in ends if end <= b]


@st.composite
def _flipped_frames(draw):
    wire = bytearray(encode_frame(draw(_frames)))
    bit = draw(st.integers(0, len(wire) * 8 - 1))
    wire[bit // 8] ^= 1 << (bit % 8)
    return bytes(wire)


_decoder_inputs = st.lists(
    st.one_of(_frames.map(encode_frame), _junk, st.just(b"\x7e"), _flipped_frames()),
    max_size=6,
).map(b"".join)


@CODEC
@given(_decoder_inputs)
def test_decode_frame_agrees_with_stream_decoder(data):
    decoder = FrameDecoder()
    frames = decoder.feed(data)
    if frames:
        assert decode_frame(data) == frames[0]
    else:
        expected = ChecksumError if decoder.crc_errors else NeedMoreData
        with pytest.raises(FrameError) as exc:
            decode_frame(data)
        assert type(exc.value) is expected
