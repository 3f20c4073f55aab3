"""Simulated UWB radio layer.

Frames carry a 16-byte session id and a 16-byte authentication code; the
responder stays silent unless the code embedded in the poll matches what it
was told to expect, so ranging and identity check ride the same exchange.

Every handshake frame goes over the air through `transmit`, the one radio
rule: a receiver beyond the channel's max_range hears nothing, a send is
otherwise lost with probability loss_prob, and what arrives is what the
receiver decodes from the frame's wire bytes. `ranging_sweep` checks each
anchor's range and codes once and returns one RangeStats per anchor. Where
the clamp at distance 0 cannot act (noise_sigma > 0, distance + bias >= 8
noise_sigma) it draws the statistics exactly: count ~ Binomial(rounds,
(1 - loss_prob)^2), mean ~ N(distance + bias, noise_sigma^2 / count) and
ssd ~ noise_sigma^2 chi^2(count - 1). Elsewhere it draws each exchange's
round trip, as `ranging_exchange`, the scalar reference of one, does.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Optional, Sequence

from .clock import SimClock
from .errors import FrameEncodingError, MalformedFrameError, RangingTimeout
from .geo import SPEED_OF_LIGHT, Position, RangeStats, distance, twr_distance

FRAME_SIZE = 58
_FRAME_STRUCT = struct.Struct(">B16s8s8s16sQB")  # type, session, src, dst, code, ts, rsvd

DEFAULT_NOISE_SIGMA = 0.05  # m
DEFAULT_BIAS = 0.0  # m
DEFAULT_LOSS_PROB = 0.01
DEFAULT_MAX_RANGE = 60.0  # m
# Ceiling on noise_sigma, |bias| and max_range: 1000 km is far beyond any UWB
# link, and keeps every ranging statistic finite and the simulated clock far
# below the ledger's 2^64 ns timestamps.
MAX_CHANNEL_M = 1e6
DEFAULT_REPLY_DELAY_NS = 300_000  # 300 us
EXCHANGE_TIMEOUT_NS = 1_000_000  # how long an initiator waits before giving up
EXCHANGE_TAIL_NS = 1_000  # after the response arrives, before the next exchange
_T_REPLY = float(DEFAULT_REPLY_DELAY_NS)


class FrameType(IntEnum):
    POLL = 0x01
    RESPONSE = 0x02


@lru_cache(maxsize=1024)  # node ids recur constantly on the ranging hot path
def _check_id(name: str, value: str) -> bytes:
    raw = value.encode("utf-8")
    if not raw or len(raw) > 8:
        raise FrameEncodingError(f"{name} must encode to 1..8 UTF-8 bytes, got {value!r}")
    if b"\x00" in raw:
        raise FrameEncodingError(f"{name} must not contain NUL bytes")
    return raw


@dataclass(frozen=True)
class RangingFrame:
    """One over-the-air message of the poll/response exchange."""

    frame_type: FrameType
    session_id: bytes
    src_id: str
    dst_id: str
    code: bytes
    tx_timestamp: int = 0

    def __post_init__(self):
        if self.frame_type not in (FrameType.POLL, FrameType.RESPONSE):
            raise FrameEncodingError(f"invalid frame type {self.frame_type!r}")
        if len(self.session_id) != 16:
            raise FrameEncodingError("session_id must be exactly 16 bytes")
        if len(self.code) != 16:
            raise FrameEncodingError("code must be exactly 16 bytes")
        _check_id("src_id", self.src_id)
        _check_id("dst_id", self.dst_id)
        if self.src_id == self.dst_id:
            raise FrameEncodingError("src_id and dst_id must differ")
        if not 0 <= self.tx_timestamp < 2**64:
            raise FrameEncodingError("tx_timestamp must fit an unsigned 64-bit field")


def encode_frame(frame: RangingFrame) -> bytes:
    """Serialize to the fixed 58-byte big-endian wire layout."""
    src = _check_id("src_id", frame.src_id).ljust(8, b"\x00")
    dst = _check_id("dst_id", frame.dst_id).ljust(8, b"\x00")
    return _FRAME_STRUCT.pack(
        int(frame.frame_type),
        frame.session_id,
        src,
        dst,
        frame.code,
        frame.tx_timestamp,
        0x00,
    )


def _unpad_id(name: str, raw: bytes) -> str:
    body = raw.rstrip(b"\x00")
    if not body or b"\x00" in body:
        raise MalformedFrameError(f"{name} field is empty or has interior padding")
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFrameError(f"{name} field is not valid UTF-8") from exc


def decode_frame(buf: bytes) -> RangingFrame:
    """Parse a 58-byte frame; any deviation from the layout is rejected."""
    if len(buf) != FRAME_SIZE:
        raise MalformedFrameError(f"frame must be {FRAME_SIZE} bytes, got {len(buf)}")
    ftype, session_id, src_raw, dst_raw, code, ts, reserved = _FRAME_STRUCT.unpack(buf)
    if reserved != 0x00:
        raise MalformedFrameError(f"reserved byte must be 0x00, got {reserved:#04x}")
    try:
        frame_type = FrameType(ftype)
    except ValueError as exc:
        raise MalformedFrameError(f"unknown frame type {ftype:#04x}") from exc
    src_id = _unpad_id("src_id", src_raw)
    dst_id = _unpad_id("dst_id", dst_raw)
    try:
        return RangingFrame(frame_type, session_id, src_id, dst_id, code, ts)
    except FrameEncodingError as exc:
        raise MalformedFrameError(str(exc)) from exc


def check_channel(noise_sigma: float, bias: float, loss_prob: float,
                  max_range: float) -> None:
    """Raise ValueError, naming the parameter, unless the channel is valid."""
    for name, value in (("noise_sigma", noise_sigma), ("bias", bias),
                        ("loss_prob", loss_prob), ("max_range", max_range)):
        if not math.isfinite(value):
            raise ValueError(f"{name}: must be finite, got {value!r}")
    if noise_sigma < 0:
        raise ValueError("noise_sigma: must be >= 0")
    if not 0.0 <= loss_prob < 1.0:
        raise ValueError("loss_prob: must be in [0, 1)")
    if max_range <= 0:
        raise ValueError("max_range: must be > 0")
    for name, value in (("noise_sigma", noise_sigma), ("bias", bias), ("max_range", max_range)):
        if abs(value) > MAX_CHANNEL_M:
            raise ValueError(f"{name}: must be within {MAX_CHANNEL_M:g} m of 0, got {value!r}")


class ChannelModel:
    """Stochastic radio channel owned by one scenario.

    All loss and noise comes from one seeded random.Random: same seed, same
    call sequence -> identical draws. Not meant to be shared across
    concurrently running exchanges.
    """

    def __init__(
        self,
        noise_sigma: float = DEFAULT_NOISE_SIGMA,
        bias: float = DEFAULT_BIAS,
        loss_prob: float = DEFAULT_LOSS_PROB,
        max_range: float = DEFAULT_MAX_RANGE,
        seed: int = 0,
        clock: Optional[SimClock] = None,
    ):
        check_channel(noise_sigma, bias, loss_prob, max_range)
        self.noise_sigma = noise_sigma
        self.bias = bias
        self.loss_prob = loss_prob
        self.max_range = max_range
        self.rng = random.Random(seed)
        self.clock = clock if clock is not None else SimClock()

    def delivers(self) -> bool:
        """Whether one send survives the channel's loss (no draw when lossless)."""
        return self.loss_prob == 0.0 or self.rng.random() >= self.loss_prob

    def completed(self, rounds: int) -> int:
        """How many of `rounds` exchanges lose neither their poll nor their response.

        Binomial(rounds, (1 - loss_prob)^2), drawn by geometric skips from
        one lost exchange to the next: one draw per loss, plus one.
        """
        if self.loss_prob == 0.0:
            return rounds
        log_kept = 2.0 * math.log1p(-self.loss_prob)
        done = left = rounds
        while True:
            # Exchanges completed before the next lost one: floor(skip).
            skip = math.log(1.0 - self.rng.random()) / log_kept
            if skip >= left:
                return done
            left -= int(skip) + 1
            done -= 1

    def round_trip(self, true_dist: float) -> float:
        """Initiator-timed round trip (ns) of one exchange over this distance.

        Timing jitter is equivalent to the channel's range noise plus bias;
        the initiator times the round trip on its own clock, so only the
        responder's reply delay enters, never a clock offset.
        """
        noise = self.rng.gauss(0.0, self.noise_sigma) if self.noise_sigma else 0.0
        t_round = 2.0 * (true_dist + (self.bias + noise)) / SPEED_OF_LIGHT * 1e9 + _T_REPLY
        return t_round if t_round > _T_REPLY else _T_REPLY


@dataclass
class RadioNode:
    """A UWB transceiver at a known position.

    Every responder waits DEFAULT_REPLY_DELAY_NS between poll rx and response tx.
    """

    node_id: str
    position: Position

    def __post_init__(self):
        _check_id("node_id", self.node_id)


def _received(channel: ChannelModel, frame: RangingFrame, src: RadioNode,
              dst: RadioNode) -> Optional[RangingFrame]:
    """The frame dst decodes from src's wire bytes; None beyond max_range."""
    if distance(src.position, dst.position) > channel.max_range:
        return None
    return decode_frame(encode_frame(frame))


def transmit(channel: ChannelModel, frame: RangingFrame, src: RadioNode,
             dst: RadioNode) -> Optional[RangingFrame]:
    """Send frame from src to dst once; the one rule for the air.

    A receiver beyond the channel's max_range hears nothing and no loss is
    drawn; otherwise one loss draw decides whether the frame, decoded from
    its wire bytes, arrives. Returns that frame, or None.
    """
    received = _received(channel, frame, src, dst)
    return received if received is not None and channel.delivers() else None


def ranging_exchange(
    initiator: RadioNode,
    responder: RadioNode,
    channel: ChannelModel,
    session_id: bytes,
    code_expected: bytes,
    code_to_send: bytes,
    responder_expects: Optional[bytes] = None,
    responder_replies: Optional[bytes] = None,
) -> tuple[float, bytes]:
    """Run one poll/response exchange; return (distance, code in the response).

    The scalar reference of one `ranging_sweep` exchange. code_to_send
    rides in the poll and code_expected is what the initiator requires in
    the response. The responder's own expectation and reply code default to
    the honest mirror of those; pass them explicitly to model a party
    holding different session state. Loss, out-of-range, and a code
    mismatch at the responder all surface as RangingTimeout.
    """
    responder_expects = code_to_send if responder_expects is None else responder_expects
    responder_replies = code_expected if responder_replies is None else responder_replies

    poll = transmit(channel, RangingFrame(FrameType.POLL, session_id, initiator.node_id,
                                          responder.node_id, code_to_send),
                    initiator, responder)
    if poll is None or poll.code != responder_expects:
        channel.clock.advance(EXCHANGE_TIMEOUT_NS)
        raise RangingTimeout("no response (poll lost, out of range, or code refused)")
    response = transmit(channel, RangingFrame(FrameType.RESPONSE, session_id,
                                              responder.node_id, initiator.node_id,
                                              responder_replies),
                        responder, initiator)
    if response is None:
        channel.clock.advance(EXCHANGE_TIMEOUT_NS)
        raise RangingTimeout("response lost")

    true_dist = distance(initiator.position, responder.position)
    t_round = channel.round_trip(true_dist)
    channel.clock.advance(t_round + EXCHANGE_TAIL_NS)
    return twr_distance(t_round, _T_REPLY), response.code


def ranging_sweep(
    anchor_array: Sequence[RadioNode],
    target: RadioNode,
    channel: ChannelModel,
    session_id: bytes,
    code_to_send: bytes,
    code_expected: bytes,
    rounds: int,
    responder_expects: Optional[bytes] = None,
    responder_replies: Optional[bytes] = None,
) -> list[RangeStats]:
    """`rounds` exchanges between each anchor and the target, in bulk.

    Per anchor, in array order, the range and the poll's code are checked
    once: out of range or refused, the target stays silent, nothing is
    drawn and every round times out. Otherwise the number of completed
    rounds is drawn (`ChannelModel.completed`) and each lost round times
    out. Where noise_sigma > 0 and distance + bias >= 8 noise_sigma, no
    distance could be clamped at 0, so the statistics are drawn directly:
    mean = max(gauss(distance + bias, noise_sigma / sqrt(count)), 0), then
    ssd = noise_sigma^2 gammavariate((count - 1) / 2, 2) (0 below 2), and
    the clock takes the exact sum of the round trips. Elsewhere each
    exchange is drawn and timed as in `ranging_exchange`. Returns one
    RangeStats per anchor; RangeStats(0) when no distance came back or the
    response carried the wrong code (its exchanges still take their time).
    """
    if not anchor_array:
        raise ValueError("anchor_array must not be empty")
    responder_expects = code_to_send if responder_expects is None else responder_expects
    responder_replies = code_expected if responder_replies is None else responder_replies
    sigma, rng = channel.noise_sigma, channel.rng

    elapsed_ns = 0.0
    stats = []
    for anchor in anchor_array:
        done, right = 0, False
        poll = _received(channel, RangingFrame(FrameType.POLL, session_id, anchor.node_id,
                                               target.node_id, code_to_send), anchor, target)
        if poll is not None and poll.code == responder_expects:
            response = _received(channel, RangingFrame(FrameType.RESPONSE, session_id,
                                                       target.node_id, anchor.node_id,
                                                       responder_replies), target, anchor)
            if response is not None:
                done, right = channel.completed(rounds), response.code == code_expected
        elapsed_ns += (rounds - done) * EXCHANGE_TIMEOUT_NS
        true_dist = distance(anchor.position, target.position)
        if done and sigma and true_dist + channel.bias >= 8.0 * sigma:
            mean = max(rng.gauss(true_dist + channel.bias, sigma / math.sqrt(done)), 0.0)
            ssd = sigma * sigma * rng.gammavariate((done - 1) / 2, 2.0) if done > 1 else 0.0
            elapsed_ns += done * (_T_REPLY + EXCHANGE_TAIL_NS + mean * 2e9 / SPEED_OF_LIGHT)
            measured = RangeStats(done, mean, ssd)
        else:
            t_rounds = [channel.round_trip(true_dist) for _ in range(done)]
            elapsed_ns += sum([round(t + EXCHANGE_TAIL_NS) for t in t_rounds])
            measured = RangeStats.of([twr_distance(t, _T_REPLY) for t in t_rounds])
        stats.append(measured if right else RangeStats(0))
    channel.clock.advance(elapsed_ns)
    return stats
