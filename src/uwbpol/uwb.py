"""Simulated UWB radio layer.

Frames carry a 16-byte session id and a 16-byte authentication code; the
responder stays silent unless the code embedded in the poll matches what it
was told to expect, so ranging and identity check ride the same exchange.
The channel adds Gaussian range noise, a constant bias, and independent
per-message loss.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache
from typing import Optional, Sequence

from .clock import SimClock
from .errors import (
    FrameEncodingError,
    InsufficientRangesError,
    MalformedFrameError,
    RangingTimeout,
)
from .geo import SPEED_OF_LIGHT, Position, RangeMeasurement, distance, twr_distance

FRAME_SIZE = 58
_FRAME_STRUCT = struct.Struct(">B16s8s8s16sQB")  # type, session, src, dst, code, ts, rsvd

DEFAULT_NOISE_SIGMA = 0.05  # m
DEFAULT_BIAS = 0.0  # m
DEFAULT_LOSS_PROB = 0.01
DEFAULT_MAX_RANGE = 60.0  # m
DEFAULT_REPLY_DELAY_NS = 300_000  # 300 us
EXCHANGE_TIMEOUT_NS = 1_000_000  # how long an initiator waits before giving up

# RangeMeasurement.sigma must stay positive even on a noise-free channel.
_SIGMA_FLOOR = 1e-9


class FrameType(IntEnum):
    POLL = 0x01
    RESPONSE = 0x02
    FINAL = 0x03


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
        if self.frame_type not in (FrameType.POLL, FrameType.RESPONSE, FrameType.FINAL):
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


class ChannelModel:
    """Stochastic radio channel owned by one scenario.

    Same seed, same call sequence -> identical noise/loss draws. Not meant to
    be shared across concurrently running exchanges.
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
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0.0 <= loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")
        if max_range <= 0:
            raise ValueError("max_range must be > 0")
        self.noise_sigma = noise_sigma
        self.bias = bias
        self.loss_prob = loss_prob
        self.max_range = max_range
        self.rng = random.Random(seed)
        self.clock = clock if clock is not None else SimClock()
        self._forced_losses: list[bool] = []

    def force_next_losses(self, flags: Sequence[bool]) -> None:
        """Queue deterministic loss outcomes for the next messages (tests, attacks)."""
        self._forced_losses.extend(flags)

    def message_lost(self) -> bool:
        if self._forced_losses:
            return self._forced_losses.pop(0)
        if self.loss_prob == 0.0:
            return False
        return self.rng.random() < self.loss_prob

    def range_noise(self) -> float:
        if self.noise_sigma == 0.0:
            return 0.0
        return self.rng.gauss(0.0, self.noise_sigma)

    @property
    def measurement_sigma(self) -> float:
        return max(self.noise_sigma, _SIGMA_FLOOR)


@dataclass
class RadioNode:
    """A UWB transceiver at a known position with its own local clock."""

    node_id: str
    position: Position
    clock_offset: int = 0  # ns added to the shared sim clock to get local time
    reply_delay: int = DEFAULT_REPLY_DELAY_NS  # ns between poll rx and response tx
    audit_log: list = field(default_factory=list)

    def __post_init__(self):
        if self.reply_delay <= 0:
            raise ValueError("reply_delay must be > 0")
        _check_id("node_id", self.node_id)

    def local_time(self, sim_now_ns: float) -> float:
        return sim_now_ns + self.clock_offset

    def stamp(self, sim_now_ns: float) -> int:
        """Local clock value for a frame field; wraps like a real counter."""
        return int(self.local_time(sim_now_ns)) % 2**64


@lru_cache(maxsize=64)  # a session sends the same few frames every round
def _on_air(frame_type: FrameType, session_id: bytes, src_id: str, dst_id: str,
            code: bytes) -> RangingFrame:
    """A ranging frame as its receiver decodes it.

    The timestamp field is left out: the initiator times the round trip on
    its own clock and nothing reads the field, so the round trip through
    the codec depends only on these arguments and runs once per distinct
    frame.
    """
    return decode_frame(encode_frame(RangingFrame(frame_type, session_id, src_id, dst_id, code)))


def ranging_exchange(
    initiator: RadioNode,
    responder: RadioNode,
    channel: ChannelModel,
    session_id: bytes,
    code_expected: bytes,
    code_to_send: bytes,
    responder_expects: Optional[bytes] = None,
    responder_replies: Optional[bytes] = None,
) -> tuple[RangeMeasurement, bytes]:
    """Run one poll/response exchange and derive a range from its timing.

    code_to_send rides in the poll and code_expected is what the initiator
    requires in the response. The responder's own expectation and reply code
    default to the honest mirror of those; pass them explicitly to model a
    party holding different session state. Loss, out-of-range, and a code
    mismatch at the responder all surface as RangingTimeout; the mismatch
    additionally leaves an audit entry on the responder.
    """
    responder_expects = code_to_send if responder_expects is None else responder_expects
    responder_replies = code_expected if responder_replies is None else responder_replies

    true_dist = distance(initiator.position, responder.position)
    if true_dist > channel.max_range:
        channel.clock.advance(EXCHANGE_TIMEOUT_NS)
        raise RangingTimeout(
            f"{responder.node_id} out of range ({true_dist:.1f} m > {channel.max_range} m)"
        )

    poll_rx = _on_air(FrameType.POLL, session_id, initiator.node_id, responder.node_id,
                      code_to_send)
    if channel.message_lost():
        channel.clock.advance(EXCHANGE_TIMEOUT_NS)
        raise RangingTimeout("poll lost")

    if poll_rx.code != responder_expects:
        responder.audit_log.append(
            ("code-mismatch", poll_rx.src_id, poll_rx.session_id.hex())
        )
        channel.clock.advance(EXCHANGE_TIMEOUT_NS)
        raise RangingTimeout("no response (responder stayed silent)")

    tof_ns = true_dist / SPEED_OF_LIGHT * 1e9
    response_rx = _on_air(FrameType.RESPONSE, session_id, responder.node_id,
                          initiator.node_id, responder_replies)
    if channel.message_lost():
        channel.clock.advance(EXCHANGE_TIMEOUT_NS)
        raise RangingTimeout("response lost")

    # Timing jitter equivalent to the channel's range noise; the initiator
    # measures the round trip on its own clock, so clock offsets cancel.
    err = channel.bias + channel.range_noise()
    t_reply = float(responder.reply_delay)
    t_round = max(2.0 * tof_ns + t_reply + 2.0 * err / SPEED_OF_LIGHT * 1e9, t_reply)
    measured = twr_distance(t_round, t_reply)

    done_ns = channel.clock.advance(t_round + 1_000)
    measurement = RangeMeasurement(
        anchor_id=initiator.node_id,
        distance=measured,
        sigma=channel.measurement_sigma,
        timestamp=done_ns,
    )
    return measurement, response_rx.code


def measure_target(
    anchor_array: Sequence[RadioNode],
    target: RadioNode,
    channel: ChannelModel,
    session_id: bytes,
    code_to_send: bytes,
    code_expected: bytes,
    responder_expects: Optional[bytes] = None,
    responder_replies: Optional[bytes] = None,
    min_ranges: int = 0,
) -> list[RangeMeasurement]:
    """One ranging sweep: each anchor polls the target once, in array order.

    Exchanges that time out are simply omitted, as are responses whose
    embedded code is not the expected one. When min_ranges is given and
    fewer exchanges succeed, raises InsufficientRangesError.
    """
    if not anchor_array:
        raise ValueError("anchor_array must not be empty")
    measurements = []
    for anchor in anchor_array:
        try:
            m, code_back = ranging_exchange(
                anchor, target, channel, session_id,
                code_expected, code_to_send,
                responder_expects, responder_replies,
            )
        except RangingTimeout:
            continue
        if code_back != code_expected:
            anchor.audit_log.append(("response-code-mismatch", target.node_id))
            continue
        measurements.append(m)
    if len(measurements) < min_ranges:
        raise InsufficientRangesError(
            f"only {len(measurements)} of {len(anchor_array)} exchanges succeeded, "
            f"need {min_ranges}"
        )
    return measurements
