"""Radio layer: frame codec, lossy channel, poll/response ranging."""

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbpol import uwb
from uwbpol.errors import (
    FrameEncodingError,
    InsufficientRangesError,
    MalformedFrameError,
    RangingTimeout,
)
from uwbpol.geo import Position, distance
from uwbpol.uwb import ChannelModel, FrameType, RadioNode, RangingFrame

from conftest import FIG4_ANCHOR_COORDS

SID = bytes(16)
CODE_A = b"A" * 16
CODE_B = b"B" * 16


def id_strategy():
    return st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                   min_size=1, max_size=8)


def frame_strategy():
    return st.builds(
        lambda ftype, sid, ids, code, ts: RangingFrame(
            ftype, sid, ids[0], ids[1], code, ts),
        st.sampled_from(list(FrameType)),
        st.binary(min_size=16, max_size=16),
        st.lists(id_strategy(), min_size=2, max_size=2, unique=True),
        st.binary(min_size=16, max_size=16),
        st.integers(min_value=0, max_value=2**64 - 1),
    )


class TestFrameCodec:
    def test_poll_layout(self):
        frame = RangingFrame(FrameType.POLL, bytes(16), "a0", "uav", bytes(16), 0)
        buf = uwb.encode_frame(frame)
        assert len(buf) == 58
        assert buf[0] == 0x01
        assert buf[57] == 0x00

    def test_roundtrip_fixed(self):
        frame = RangingFrame(FrameType.RESPONSE, b"\x01" * 16, "uav", "a3",
                             b"\xfe" * 16, 123456789)
        assert uwb.decode_frame(uwb.encode_frame(frame)) == frame

    @settings(max_examples=200, deadline=None)
    @given(frame_strategy())
    def test_roundtrip_random(self, frame):
        assert uwb.decode_frame(uwb.encode_frame(frame)) == frame

    def test_truncated_rejected(self):
        with pytest.raises(MalformedFrameError):
            uwb.decode_frame(b"\x01" * 10)

    def test_wrong_length_rejected(self):
        with pytest.raises(MalformedFrameError):
            uwb.decode_frame(b"\x01" * 59)

    def test_unknown_type_rejected(self):
        buf = bytearray(uwb.encode_frame(
            RangingFrame(FrameType.POLL, bytes(16), "a", "b", bytes(16), 0)))
        buf[0] = 0x7F
        with pytest.raises(MalformedFrameError):
            uwb.decode_frame(bytes(buf))

    def test_reserved_byte_must_be_zero(self):
        buf = bytearray(uwb.encode_frame(
            RangingFrame(FrameType.POLL, bytes(16), "a", "b", bytes(16), 0)))
        buf[57] = 0x01
        with pytest.raises(MalformedFrameError):
            uwb.decode_frame(bytes(buf))

    def test_interior_padding_rejected(self):
        buf = bytearray(uwb.encode_frame(
            RangingFrame(FrameType.POLL, bytes(16), "ab", "cd", bytes(16), 0)))
        buf[17] = 0x00  # NUL inside the src_id field, before 'b'
        with pytest.raises(MalformedFrameError):
            uwb.decode_frame(bytes(buf))

    def test_same_src_dst_rejected(self):
        with pytest.raises(FrameEncodingError):
            RangingFrame(FrameType.POLL, bytes(16), "x", "x", bytes(16), 0)

    def test_oversize_id_rejected(self):
        with pytest.raises(FrameEncodingError):
            RangingFrame(FrameType.POLL, bytes(16), "way-too-long", "b", bytes(16), 0)

    def test_empty_id_rejected(self):
        with pytest.raises(FrameEncodingError):
            RangingFrame(FrameType.POLL, bytes(16), "", "b", bytes(16), 0)

    def test_bad_code_length_rejected(self):
        with pytest.raises(FrameEncodingError):
            RangingFrame(FrameType.POLL, bytes(16), "a", "b", bytes(15), 0)
        with pytest.raises(FrameEncodingError):
            RangingFrame(FrameType.POLL, bytes(15), "a", "b", bytes(16), 0)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(min_size=0, max_size=80))
    def test_never_misparses(self, blob):
        # Every byte string either decodes to a frame that re-encodes to the
        # exact same bytes, or is rejected outright.
        try:
            frame = uwb.decode_frame(blob)
        except MalformedFrameError:
            return
        assert uwb.encode_frame(frame) == blob


def make_pair(dist_m=10.0, **channel_kw):
    a = RadioNode("a0", Position(0, 0))
    b = RadioNode("uav", Position(dist_m, 0))
    kw = dict(noise_sigma=0.0, bias=0.0, loss_prob=0.0, seed=1)
    kw.update(channel_kw)
    return a, b, ChannelModel(**kw)


class TestRangingExchange:
    def test_noise_free_exact(self):
        a, b, ch = make_pair(10.0)
        m, code_back = uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A)
        assert m.distance == pytest.approx(10.0, abs=1e-9)
        assert m.anchor_id == "a0"
        assert code_back == CODE_B

    def test_poll_code_mismatch_times_out_and_audits(self):
        a, b, ch = make_pair(10.0)
        with pytest.raises(RangingTimeout):
            uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A,
                                 responder_expects=b"Z" * 16)
        assert b.audit_log and b.audit_log[-1][0] == "code-mismatch"

    def test_repeated_frames_keep_their_codes(self):
        # The codec runs once per distinct frame; the code is part of the frame.
        a, b, ch = make_pair(10.0)
        assert uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A)[1] == CODE_B
        _, code_back = uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A,
                                            responder_replies=b"Z" * 16)
        assert code_back == b"Z" * 16
        with pytest.raises(RangingTimeout):
            uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A,
                                 responder_expects=b"Z" * 16)

    def test_seeded_statistics_at_5m(self):
        a, b, ch = make_pair(5.0, noise_sigma=0.05, seed=42)
        vals = []
        for _ in range(10_000):
            m, _ = uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A)
            vals.append(m.distance)
        mean = statistics.fmean(vals)
        std = statistics.stdev(vals)
        assert 4.9985 <= mean <= 5.0015  # 3 standard errors
        assert 0.048 <= std <= 0.052

    def test_bias_shows_up_in_mean(self):
        a, b, ch = make_pair(5.0, noise_sigma=0.02, bias=0.3, seed=9)
        vals = [uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A)[0].distance
                for _ in range(2000)]
        assert statistics.fmean(vals) == pytest.approx(5.3, abs=0.01)

    def test_out_of_range_times_out(self):
        a, b, ch = make_pair(100.0, max_range=60.0)
        with pytest.raises(RangingTimeout):
            uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A)

    def test_determinism_same_seed(self):
        def run(seed):
            a, b, ch = make_pair(7.0, noise_sigma=0.05, loss_prob=0.05, seed=seed)
            out = []
            for _ in range(200):
                try:
                    m, _ = uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A)
                    out.append(m.distance)
                except RangingTimeout:
                    out.append(None)
            return out

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_clock_offsets_cancel(self):
        results = []
        for off_a, off_b in ((0, 0), (5_000_000, -3_000_000)):
            a = RadioNode("a0", Position(0, 0), clock_offset=off_a)
            b = RadioNode("uav", Position(8, 0), clock_offset=off_b)
            ch = ChannelModel(noise_sigma=0.05, loss_prob=0.0, seed=77)
            m, _ = uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A)
            results.append(m.distance)
        assert results[0] == results[1]

    def test_negative_noise_clamped_at_zero(self):
        a = RadioNode("a0", Position(0, 0))
        b = RadioNode("uav", Position(0.001, 0))
        ch = ChannelModel(noise_sigma=0.0, bias=-5.0, loss_prob=0.0, seed=1)
        m, _ = uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A)
        assert m.distance == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=16, max_size=16))
    def test_code_gating_fuzz(self, wrong_code):
        # No response for any poll code other than the expected one.
        a, b, ch = make_pair(10.0)
        if wrong_code == CODE_A:
            return
        with pytest.raises(RangingTimeout):
            uwb.ranging_exchange(a, b, ch, SID, CODE_B, wrong_code,
                                 responder_expects=CODE_A)


class TestMeasureTarget:
    def _array(self):
        anchors = [RadioNode(a_id, Position(x, y)) for a_id, x, y in FIG4_ANCHOR_COORDS]
        target = RadioNode("uav", Position(3.95, 2.705))
        return anchors, target

    def test_lossless_gives_all_anchors(self):
        anchors, target = self._array()
        ch = ChannelModel(noise_sigma=0.0, loss_prob=0.0, seed=3)
        ms = uwb.measure_target(anchors, target, ch, SID, CODE_A, CODE_B)
        assert [m.anchor_id for m in ms] == [a.node_id for a in anchors]

    def test_forced_poll_loss_drops_one(self):
        anchors, target = self._array()
        ch = ChannelModel(noise_sigma=0.0, loss_prob=0.0, seed=3)
        # Second anchor's poll vanishes: messages go poll,resp / poll...
        ch.force_next_losses([False, False, True])
        ms = uwb.measure_target(anchors, target, ch, SID, CODE_A, CODE_B)
        assert len(ms) == 3
        assert [m.anchor_id for m in ms] == ["a0", "a2", "a3"]

    def test_noise_free_matches_euclidean(self):
        anchors, target = self._array()
        ch = ChannelModel(noise_sigma=0.0, loss_prob=0.0, seed=3)
        ms = uwb.measure_target(anchors, target, ch, SID, CODE_A, CODE_B)
        for anchor, m in zip(anchors, ms):
            assert m.distance == pytest.approx(
                distance(anchor.position, target.position), abs=1e-9)

    def test_min_ranges_enforced(self):
        anchors, target = self._array()
        ch = ChannelModel(noise_sigma=0.0, loss_prob=0.0, seed=3)
        ch.force_next_losses([True, True, True, True])
        with pytest.raises(InsufficientRangesError):
            uwb.measure_target(anchors, target, ch, SID, CODE_A, CODE_B, min_ranges=3)

    def test_empty_array_rejected(self):
        _, target = self._array()
        ch = ChannelModel(seed=1)
        with pytest.raises(ValueError):
            uwb.measure_target([], target, ch, SID, CODE_A, CODE_B)


class TestChannelModel:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            ChannelModel(loss_prob=1.0)
        with pytest.raises(ValueError):
            ChannelModel(max_range=0.0)

    def test_reply_delay_positive(self):
        with pytest.raises(ValueError):
            RadioNode("x", Position(0, 0), reply_delay=0)

    def test_sigma_floor_for_noise_free(self):
        ch = ChannelModel(noise_sigma=0.0)
        assert ch.measurement_sigma > 0
