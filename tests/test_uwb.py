"""Radio layer: frame codec, lossy channel, poll/response ranging."""

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbpol import uwb
from uwbpol.clock import SimClock
from uwbpol.errors import (
    FrameEncodingError,
    InsufficientRangesError,
    MalformedFrameError,
    RangingTimeout,
)
from uwbpol.geo import Position, RangeStats, distance, multilaterate
from uwbpol.uwb import ChannelModel, FrameType, RadioNode, RangingFrame

from conftest import FIG4_ANCHOR_COORDS, make_anchor_set

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
        d, code_back = uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A)
        assert d == pytest.approx(10.0, abs=1e-9)
        assert code_back == CODE_B

    def test_poll_code_mismatch_times_out(self):
        a, b, ch = make_pair(10.0)
        with pytest.raises(RangingTimeout):
            uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A,
                                 responder_expects=b"Z" * 16)
        assert ch.clock.now_ns == uwb.EXCHANGE_TIMEOUT_NS

    def test_repeated_frames_keep_their_codes(self):
        # The code is part of the frame the codec carries, send after send.
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
            d, _ = uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A)
            vals.append(d)
        mean = statistics.fmean(vals)
        std = statistics.stdev(vals)
        assert 4.9985 <= mean <= 5.0015  # 3 standard errors
        assert 0.048 <= std <= 0.052

    def test_bias_shows_up_in_mean(self):
        a, b, ch = make_pair(5.0, noise_sigma=0.02, bias=0.3, seed=9)
        vals = [uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A)[0]
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
                    d, _ = uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A)
                    out.append(d)
                except RangingTimeout:
                    out.append(None)
            return out

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_clock_offsets_cancel(self):
        # The initiator times the round trip on its own clock, so where that
        # clock stands does not enter the distance.
        results = []
        for start_ns in (0, 5_000_000):
            a, b, _ = make_pair(8.0)
            ch = ChannelModel(noise_sigma=0.05, loss_prob=0.0, seed=77,
                              clock=SimClock(start_ns))
            d, _ = uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A)
            results.append(d)
        assert results[0] == results[1]

    def test_negative_noise_clamped_at_zero(self):
        a = RadioNode("a0", Position(0, 0))
        b = RadioNode("uav", Position(0.001, 0))
        ch = ChannelModel(noise_sigma=0.0, bias=-5.0, loss_prob=0.0, seed=1)
        d, _ = uwb.ranging_exchange(a, b, ch, SID, CODE_B, CODE_A)
        assert d == 0.0

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


class TestTransmit:
    def test_out_of_range_hears_nothing(self):
        a, b, ch = make_pair(100.0, max_range=60.0, loss_prob=0.5)
        state = ch.rng.getstate()
        frame = RangingFrame(FrameType.POLL, SID, "a0", "uav", CODE_A)
        assert [uwb.transmit(ch, frame, a, b) for _ in range(10)] == [None] * 10
        assert ch.rng.getstate() == state  # no loss is drawn

    def test_receiver_decodes_the_wire_bytes(self):
        a, b, ch = make_pair(10.0)
        frame = RangingFrame(FrameType.POLL, SID, "a0", "uav", CODE_A, 77)
        received = uwb.transmit(ch, frame, a, b)
        assert received == frame and received is not frame

    def test_loss_rate(self):
        a, b, ch = make_pair(10.0, loss_prob=0.2, seed=4)
        frame = RangingFrame(FrameType.POLL, SID, "a0", "uav", CODE_A)
        delivered = [uwb.transmit(ch, frame, a, b) is not None for _ in range(10_000)]
        # Binomial: 3 standard errors of 0.8 over 10^4 sends is 0.012.
        assert abs(statistics.fmean(delivered) - 0.8) <= 0.012


class TestMeasureTarget:
    """The ranging sweep measures the target from every anchor over many rounds."""

    def _array(self):
        anchors = [RadioNode(a_id, Position(x, y)) for a_id, x, y in FIG4_ANCHOR_COORDS]
        target = RadioNode("uav", Position(3.95, 2.705))
        return anchors, target

    def test_lossless_gives_all_anchors(self):
        anchors, target = self._array()
        ch = ChannelModel(noise_sigma=0.0, loss_prob=0.0, seed=3)
        ranges = uwb.ranging_sweep(anchors, target, ch, SID, CODE_A, CODE_B, rounds=5)
        assert [r.count for r in ranges] == [5] * len(anchors)

    def test_forced_poll_loss_drops_one(self):
        anchors, target = self._array()
        # a0 sits 2.56 m from the target, beyond this range: its polls never arrive.
        ch = ChannelModel(noise_sigma=0.0, loss_prob=0.0, max_range=2.5, seed=3)
        ranges = uwb.ranging_sweep(anchors, target, ch, SID, CODE_A, CODE_B, rounds=5)
        assert [r.count for r in ranges] == [0, 5, 5, 5]

    def test_noise_free_matches_euclidean(self):
        anchors, target = self._array()
        ch = ChannelModel(noise_sigma=0.0, loss_prob=0.0, seed=3)
        ranges = uwb.ranging_sweep(anchors, target, ch, SID, CODE_A, CODE_B, rounds=3)
        for anchor, r in zip(anchors, ranges):
            assert r.count == 3
            assert r.mean == pytest.approx(distance(anchor.position, target.position), abs=1e-9)
            assert r.ssd == pytest.approx(0.0, abs=1e-18)

    def test_min_ranges_enforced(self):
        anchors, target = self._array()
        ch = ChannelModel(noise_sigma=0.0, loss_prob=0.0, max_range=2.2, seed=3)
        ranges = uwb.ranging_sweep(anchors, target, ch, SID, CODE_A, CODE_B, rounds=5)
        assert [r.count for r in ranges] == [0, 5, 5, 0]
        with pytest.raises(InsufficientRangesError):
            multilaterate(make_anchor_set(FIG4_ANCHOR_COORDS), ranges)

    def test_empty_array_rejected(self):
        _, target = self._array()
        ch = ChannelModel(seed=1)
        with pytest.raises(ValueError):
            uwb.ranging_sweep([], target, ch, SID, CODE_A, CODE_B, rounds=5)

    def test_code_mismatch_gives_no_distance(self):
        anchors, target = self._array()
        ch = ChannelModel(noise_sigma=0.0, loss_prob=0.0, seed=3)
        silent = uwb.ranging_sweep(anchors, target, ch, SID, CODE_A, CODE_B, rounds=5,
                                   responder_expects=b"Z" * 16)
        assert silent == [RangeStats(0)] * 4
        # The target stayed silent: every exchange waited out its timeout.
        assert ch.clock.now_ns == 4 * 5 * uwb.EXCHANGE_TIMEOUT_NS
        wrong = uwb.ranging_sweep(anchors, target, ch, SID, CODE_A, CODE_B, rounds=5,
                                  responder_replies=b"Z" * 16)
        assert wrong == [RangeStats(0)] * 4

    def test_noise_free_sweep_equals_exchanges(self):
        # Same arithmetic on a lossless, noise-free channel: equal distances
        # and the same simulated time as the exchanges one by one.
        anchors, target = self._array()
        sweep_ch = ChannelModel(noise_sigma=0.0, bias=0.02, loss_prob=0.0, seed=3)
        ranges = uwb.ranging_sweep(anchors, target, sweep_ch, SID, CODE_A, CODE_B, rounds=7)
        scalar_ch = ChannelModel(noise_sigma=0.0, bias=0.02, loss_prob=0.0, seed=3)
        scalar = [[] for _ in anchors]
        for _ in range(7):
            for acc, anchor in zip(scalar, anchors):
                acc.append(uwb.ranging_exchange(anchor, target, scalar_ch, SID,
                                                CODE_B, CODE_A)[0])
        assert ranges == [RangeStats.of(xs) for xs in scalar]
        assert sweep_ch.clock.now_ns == scalar_ch.clock.now_ns

    def test_draw_order(self):
        # Per anchor: the geometric skips from one lost exchange to the
        # next, then one Gaussian for the mean and one gamma variate for
        # the scatter; the sweep's stats are those draws.
        anchors, target = self._array()
        ch = ChannelModel(noise_sigma=0.05, loss_prob=0.2, seed=8)
        stats = uwb.ranging_sweep(anchors, target, ch, SID, CODE_A, CODE_B, rounds=30)
        rng = random.Random(8)
        log_kept = 2 * math.log1p(-0.2)
        for anchor, s in zip(anchors, stats):
            done = left = 30
            while (skip := math.log(1.0 - rng.random()) / log_kept) < left:
                left -= int(skip) + 1
                done -= 1
            d = distance(anchor.position, target.position)
            mean = rng.gauss(d, 0.05 / math.sqrt(done))
            ssd = 0.05**2 * rng.gammavariate((done - 1) / 2, 2.0)
            assert s.count == done
            assert s.mean == pytest.approx(mean, abs=1e-12)
            assert s.ssd == pytest.approx(ssd, rel=1e-12)
        assert ch.rng.getstate() == rng.getstate()

    def test_drawn_statistics_at_fig4(self):
        # 2000 sweeps of 200 rounds at the Fig. 4 geometry and channel, each
        # anchor far beyond 8 sigma. Every check is within 3 standard errors.
        anchors, target = self._array()
        rounds, sigma, loss = 200, 0.05, 0.01
        ch = ChannelModel(noise_sigma=sigma, loss_prob=loss, seed=11)
        dists = [distance(a.position, target.position) for a in anchors]
        counts, z_mean, w_ssd, dof = [], [], [], []
        for _ in range(2000):
            for d, s in zip(dists, uwb.ranging_sweep(anchors, target, ch, SID,
                                                     CODE_A, CODE_B, rounds)):
                counts.append(s.count)
                z_mean.append((s.mean - d) * math.sqrt(s.count) / sigma)
                k = s.count - 1
                w_ssd.append((s.ssd / sigma**2 - k) / math.sqrt(2 * k))
                dof.append(k)
        n = len(counts)
        # count ~ Binomial(rounds, q): mean and variance (about the true mean).
        q = (1 - loss) ** 2
        mu, var = rounds * q, rounds * q * (1 - q)
        mu4 = var * (1 + 3 * (rounds - 2) * q * (1 - q))
        assert abs(statistics.fmean(counts) - mu) <= 3 * math.sqrt(var / n)
        dev2 = [(c - mu) ** 2 for c in counts]
        assert abs(statistics.fmean(dev2) - var) <= 3 * math.sqrt((mu4 - var**2) / n)
        # (mean - d) / (sigma / sqrt(count)) ~ N(0, 1).
        assert abs(statistics.fmean(z_mean)) <= 3 / math.sqrt(n)
        assert abs(statistics.fmean(z * z for z in z_mean) - 1) <= 3 * math.sqrt(2 / n)
        # ssd / sigma^2 ~ chi^2(k): mean k and variance 2k, standardized; the
        # square of the standardized value has variance 2 + 12 / k.
        assert abs(statistics.fmean(w_ssd)) <= 3 / math.sqrt(n)
        w2_var = statistics.fmean(2 + 12 / k for k in dof)
        assert abs(statistics.fmean(w * w for w in w_ssd) - 1) <= 3 * math.sqrt(w2_var / n)

    def test_paths_agree_at_8_sigma(self):
        # Just below d + bias = 8 sigma every exchange is drawn, just above
        # the statistics are: the same mean and spread either way.
        sigma, rounds, sweeps = 0.05, 200, 500
        pooled = []
        for offset, gauss_per_sweep in ((-1e-6, rounds), (1e-6, 1)):
            a, b, ch = make_pair(8 * sigma - 0.01 + offset, noise_sigma=sigma, bias=0.01,
                                 seed=21)
            calls = []
            gauss = ch.rng.gauss
            ch.rng.gauss = lambda mu, sd: calls.append(1) or gauss(mu, sd)
            parts = [uwb.ranging_sweep([a], b, ch, SID, CODE_A, CODE_B, rounds)[0]
                     for _ in range(sweeps)]
            assert len(calls) == sweeps * gauss_per_sweep
            nx = sum(p.count for p in parts)
            mean = sum(p.count * p.mean for p in parts) / nx
            var = sum(p.ssd for p in parts) / (nx - sweeps)  # within-sweep scatter
            pooled.append((nx, mean, var))
        (n1, m1, v1), (n2, m2, v2) = pooled
        assert abs(m1 - m2) <= 3 * sigma * math.sqrt(1 / n1 + 1 / n2)
        assert abs(v1 - v2) <= 3 * sigma**2 * math.sqrt(2 / (n1 - sweeps) + 2 / (n2 - sweeps))

    def test_clamp_near_an_anchor(self):
        # 0.05 m from the anchor with sigma 0.1 the clamp at 0 acts, so every
        # exchange is drawn, and the stats stay valid.
        a, b, ch = make_pair(0.05, noise_sigma=0.1, seed=5)
        for _ in range(50):
            (s,) = uwb.ranging_sweep([a], b, ch, SID, CODE_A, CODE_B, rounds=200)
            assert s.count == 200 and s.mean >= 0.0 and s.ssd >= 0.0

    def test_matches_scalar_exchanges_at_fig4(self):
        # Fig. 4 geometry and channel: 10 sweeps of 200 rounds against the
        # same 2000 scalar exchanges per anchor.
        anchors, target = self._array()
        rounds, sweeps = 200, 10
        n = rounds * sweeps
        channel = dict(noise_sigma=0.05, loss_prob=0.01)
        sweep_ch = ChannelModel(**channel, seed=101)
        swept = [[] for _ in anchors]
        for _ in range(sweeps):
            for acc, r in zip(swept, uwb.ranging_sweep(anchors, target, sweep_ch, SID,
                                                       CODE_A, CODE_B, rounds=rounds)):
                acc.append(r)
        scalar_ch = ChannelModel(**channel, seed=202)
        scalar = [[] for _ in anchors]
        for _ in range(n):
            for acc, anchor in zip(scalar, anchors):
                try:
                    acc.append(uwb.ranging_exchange(anchor, target, scalar_ch, SID,
                                                    CODE_B, CODE_A)[0])
                except RangingTimeout:
                    pass
        for parts, ys in zip(swept, scalar):
            # Pool the sweeps' stats: the scatter about the overall mean is
            # each sweep's own plus its count times its mean's offset, squared.
            nx = sum(p.count for p in parts)
            mean_x = sum(p.count * p.mean for p in parts) / nx
            var_x = sum(p.ssd + p.count * (p.mean - mean_x) ** 2 for p in parts) / (nx - 1)
            mean_se = (var_x / nx + statistics.variance(ys) / len(ys)) ** 0.5
            assert abs(mean_x - statistics.fmean(ys)) <= 3 * mean_se
            std_se = (var_x / (2 * (nx - 1))
                      + statistics.variance(ys) / (2 * (len(ys) - 1))) ** 0.5
            assert abs(var_x**0.5 - statistics.stdev(ys)) <= 3 * std_se
            lost_x, lost_y = 1 - nx / n, 1 - len(ys) / n
            pooled = (lost_x + lost_y) / 2
            assert abs(lost_x - lost_y) <= 3 * (pooled * (1 - pooled) * 2 / n) ** 0.5


class TestChannelModel:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            ChannelModel(loss_prob=1.0)
        with pytest.raises(ValueError):
            ChannelModel(max_range=0.0)
