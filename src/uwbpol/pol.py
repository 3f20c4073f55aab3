"""Proof-of-location handshake.

A UAV broadcasts a position claim as a ledger transaction; the ground
platform ranges it over UWB using session codes pre-shared through the
ledger, estimates its position by multilateration from the per-anchor range
statistics of one ranging sweep, and commits a verdict
comparing claim and estimate against an error buffer. Both sides run as
pure state machines fed by committed ledger records, radio frames, and
timers; the orchestrator in run_session wires them to a concrete ledger and
channel.
"""

from __future__ import annotations

import math
import random
import struct
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

from .errors import (
    ChaincodeError,
    AssetConflictError,
    AssetNotFoundError,
    ProtocolViolationError,
    UnauthorizedError,
    ValidationUnavailableError,
)
from .geo import AnchorSet, EstimateResult, Position, RangeStats, distance, multilaterate
from .ledger import (
    CODE_ASSET_PREFIX,
    SESSION_ASSET_PREFIX,
    Asset,
    AssetChaincode,
    DEFAULT_CHANNEL,
    Identity,
    Ledger,
    Transaction,
    lps,
    read_lps,
)
from .uwb import ChannelModel, FrameType, RadioNode, RangingFrame, ranging_sweep, transmit

TX_POL_REQUEST = "POL_REQUEST"
TX_POL_VERDICT = "POL_VERDICT"

DEFAULT_BUFFER_M = 1.0
POLL_TIMEOUT_NS = 500_000_000  # 500 ms of simulated time
MAX_RETRIES = 3
RANGING_ROUNDS = 200  # poll/response rounds pooled into one position estimate
LIKELIHOOD_TOL = 1e-12  # how far a committed verdict's likelihood may be from its numbers


class SessionState(Enum):
    INIT = "INIT"
    REQUESTED = "REQUESTED"
    POLLING = "POLLING"
    RANGING = "RANGING"
    VALIDATING = "VALIDATING"
    AUTHORIZED = "AUTHORIZED"
    REJECTED = "REJECTED"
    ABORTED = "ABORTED"


TERMINAL_STATES = frozenset(
    {SessionState.AUTHORIZED, SessionState.REJECTED, SessionState.ABORTED}
)


@dataclass(frozen=True)
class LocationClaim:
    """The position a UAV says it occupies, e.g. from its GNSS receiver."""

    position: Position
    timestamp: int


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    claim_to_estimate_distance: float
    error_radius: float
    buffer: float
    likelihood: float

    def __post_init__(self):
        if not 0.0 <= self.likelihood <= 1.0:
            raise ValueError(f"likelihood must be in [0, 1], got {self.likelihood!r}")


# -- wire payloads -------------------------------------------------------------

@dataclass(frozen=True)
class PolRequest:
    session_id: bytes
    uav_id: str
    platform_id: str
    code_uav: bytes
    code_platform: bytes
    claim: LocationClaim


def encode_pol_request(req: PolRequest) -> bytes:
    c = req.claim
    return (
        req.session_id
        + lps(req.uav_id)
        + lps(req.platform_id)
        + req.code_uav
        + req.code_platform
        + struct.pack(">dddd", c.position.x, c.position.y, c.position.z, float(c.timestamp))
    )


def decode_pol_request(payload: bytes) -> PolRequest:
    if len(payload) < 16:
        raise ValueError("request payload too short")
    session_id = payload[:16]
    uav_id, off = read_lps(payload, 16)
    platform_id, off = read_lps(payload, off)
    if off + 32 + 32 > len(payload):
        raise ValueError("truncated request payload")
    code_uav = payload[off:off + 16]
    code_platform = payload[off + 16:off + 32]
    off += 32
    x, y, z, ts = struct.unpack_from(">dddd", payload, off)
    off += 32
    if off != len(payload):
        raise ValueError("trailing bytes in request payload")
    if not (ts >= 0 and ts.is_integer()):
        raise ValueError(f"claim timestamp must be a finite integer >= 0, got {ts!r}")
    return PolRequest(session_id, uav_id, platform_id, code_uav, code_platform,
                      LocationClaim(Position(x, y, z), int(ts)))


def encode_pol_verdict(session_id: bytes, verdict: Verdict) -> bytes:
    return (
        session_id
        + (b"\x01" if verdict.accepted else b"\x00")
        + struct.pack(
            ">dddd",
            verdict.claim_to_estimate_distance,
            verdict.error_radius,
            verdict.buffer,
            verdict.likelihood,
        )
    )


def decode_pol_verdict(payload: bytes) -> tuple[bytes, Verdict]:
    if len(payload) != 16 + 1 + 32:
        raise ValueError(f"verdict payload must be 49 bytes, got {len(payload)}")
    session_id = payload[:16]
    flag = payload[16]
    if flag not in (0, 1):
        raise ValueError(f"invalid accepted flag {flag:#04x}")
    d, er, buf, lik = struct.unpack_from(">dddd", payload, 17)
    if not all(math.isfinite(v) for v in (d, er, buf, lik)):
        raise ValueError("verdict numbers must be finite")
    if d < 0 or er < 0 or buf <= 0:
        raise ValueError("verdict distance and error radius must be >= 0, buffer > 0")
    return session_id, Verdict(bool(flag), d, er, buf, lik)


# -- session codes -------------------------------------------------------------

def generate_codes(rng: random.Random) -> tuple[bytes, bytes]:
    """Draw the per-session identification codes for UAV and platform."""
    code_uav = rng.randbytes(16)
    code_platform = rng.randbytes(16)
    while code_platform == code_uav:  # pragma: no cover - 2^-128 chance
        code_platform = rng.randbytes(16)
    return code_uav, code_platform


def new_session_id(rng: random.Random) -> bytes:
    return rng.randbytes(16)


# -- validation contract ---------------------------------------------------------

def claim_likelihood(d: float, error_radius: float) -> float:
    """exp(-d^2 / (2 * error_radius^2)); with a zero radius, 1 at d == 0 and else 0."""
    sigma_sq = error_radius**2
    return math.exp(-0.5 * (d**2 / sigma_sq)) if sigma_sq > 0 else float(d == 0.0)


def validate_location(claim: LocationClaim, estimate: EstimateResult,
                      buffer: float) -> Verdict:
    """Judge a claim against the ranging estimate.

    Accepts iff the claim-to-estimate distance is within the error buffer.
    The likelihood score of `claim_likelihood` lets callers report a smooth
    confidence instead of the bare boolean.
    """
    if buffer <= 0:
        raise ValueError("buffer must be > 0")
    if not estimate.converged:
        raise ValidationUnavailableError("estimate did not converge")
    d = distance(claim.position, estimate.position)
    return Verdict(
        accepted=d <= buffer,
        claim_to_estimate_distance=d,
        error_radius=estimate.error_radius,
        buffer=buffer,
        likelihood=claim_likelihood(d, estimate.error_radius),
    )


# -- chaincode -------------------------------------------------------------------

class PolChaincode:
    """Ledger-side rules for the handshake's two transaction types.

    It keeps no state of its own: it reads and writes two key ranges of the
    world state, which AssetChaincode refuses to every client.
    POL_REQUEST, from the UAV the request names only, opens the session
    asset `pol-session-<sid>`, which holds the request. Its owner is the
    platform the request names, since an owner writes the next version. It
    also writes a `pol-code-<hex>` entry per session code, so codes are
    single-use across sessions. POL_VERDICT, from the session asset's owner
    only, closes the session. It must be self-consistent: accepted exactly
    when distance <= buffer, and its likelihood within LIKELIHOOD_TOL of
    what `claim_likelihood` gives for its distance and error radius.
    """

    TX_TYPES = (TX_POL_REQUEST, TX_POL_VERDICT)

    def apply(self, assets: dict[str, Asset], tx: Transaction) -> None:
        if tx.tx_type == TX_POL_REQUEST:
            try:
                req = decode_pol_request(tx.payload)
            except ValueError as exc:
                raise ChaincodeError(f"bad request payload: {exc}") from exc
            if req.uav_id != tx.submitter:
                raise UnauthorizedError(f"{tx.submitter!r} cannot request for {req.uav_id!r}")
            asset_id = SESSION_ASSET_PREFIX + req.session_id.hex()
            if asset_id in assets:
                raise AssetConflictError(f"session {req.session_id.hex()} already open")
            code_ids = [CODE_ASSET_PREFIX + c.hex() for c in (req.code_uav, req.code_platform)]
            if any(code_id in assets for code_id in code_ids):
                raise ChaincodeError("session code reuse rejected")
            for code_id in code_ids:
                assets[code_id] = Asset(code_id, req.session_id, owner=tx.submitter, version=1)
            assets[asset_id] = Asset(asset_id, tx.payload, owner=req.platform_id, version=1)
        elif tx.tx_type == TX_POL_VERDICT:
            try:
                session_id, verdict = decode_pol_verdict(tx.payload)
                likelihood = claim_likelihood(verdict.claim_to_estimate_distance,
                                              verdict.error_radius)
            except (ValueError, OverflowError) as exc:
                raise ChaincodeError(f"bad verdict payload: {exc}") from exc
            asset_id = SESSION_ASSET_PREFIX + session_id.hex()
            current = assets.get(asset_id)
            if current is None:
                raise AssetNotFoundError(f"verdict for unknown session {session_id.hex()}")
            if current.version != 1:
                raise ChaincodeError(f"session {session_id.hex()} already closed")
            if current.owner != tx.submitter:
                raise UnauthorizedError(
                    f"{tx.submitter!r} is not the platform of session {session_id.hex()}"
                )
            if verdict.accepted != (verdict.claim_to_estimate_distance <= verdict.buffer):
                raise ChaincodeError("verdict inconsistent with its own distance/buffer")
            if abs(verdict.likelihood - likelihood) > LIKELIHOOD_TOL:
                raise ChaincodeError("verdict likelihood inconsistent with its distance/radius")
            assets[asset_id] = Asset(
                asset_id, current.data + tx.payload, current.owner, current.version + 1
            )


def standard_chaincodes():
    """Chaincode set used on the default channel (also for audit replay)."""
    return [AssetChaincode(), PolChaincode()]


# -- state machine events and actions ---------------------------------------------

@dataclass(frozen=True)
class Start:
    pass


@dataclass(frozen=True)
class RequestIn:
    """A committed POL_REQUEST, decoded once by whoever read it off the ledger."""

    request: PolRequest


@dataclass(frozen=True)
class UwbFrameIn:
    frame: RangingFrame


@dataclass(frozen=True)
class RangingResultIn:
    """A finished sweep; the platform's copy has each anchor's RangeStats, in AnchorSet order."""

    ok: bool
    ranges: tuple[RangeStats, ...] = ()


@dataclass(frozen=True)
class TimeoutIn:
    pass


@dataclass(frozen=True)
class VerdictIn:
    session_id: bytes
    verdict: Verdict


@dataclass(frozen=True)
class SubmitTx:
    tx_type: str
    payload: bytes


@dataclass(frozen=True)
class SendFrame:
    frame: RangingFrame


@dataclass(frozen=True)
class StartRanging:
    pass


@dataclass(frozen=True)
class SetTimer:
    """Arm the party's timer for POLL_TIMEOUT_NS of simulated time."""


@dataclass(frozen=True)
class UavContext:
    node_id: str


@dataclass(frozen=True)
class PlatformContext:
    anchor_set: AnchorSet
    poll_src_id: str
    uav_node_id: str
    buffer: float


@dataclass(frozen=True)
class PolSession:
    """One party's view of a handshake in progress."""

    session_id: bytes
    uav_id: str
    platform_id: str
    code_uav: bytes
    code_platform: bytes
    state: SessionState = SessionState.INIT
    claim: Optional[LocationClaim] = None
    estimate: Optional[EstimateResult] = None
    verdict: Optional[Verdict] = None
    retries: int = 0
    abort_reason: Optional[str] = None


def _abort(session: PolSession, reason: str) -> PolSession:
    return replace(session, state=SessionState.ABORTED, abort_reason=reason, retries=0)


def _goto(session: PolSession, state: SessionState, **fields) -> PolSession:
    return replace(session, state=state, retries=0, **fields)


def _finish(session: PolSession, verdict: Verdict) -> PolSession:
    state = SessionState.AUTHORIZED if verdict.accepted else SessionState.REJECTED
    return _goto(session, state, verdict=verdict)


def _retry(session: PolSession, *resend):
    """The one retry rule of a waiting state whose wait failed.

    Sends the state's outgoing action again and re-arms the timer, up to
    MAX_RETRIES times; after that the session aborts with "timeout".
    """
    if session.retries < MAX_RETRIES:
        return replace(session, retries=session.retries + 1), [*resend, SetTimer()]
    return _abort(session, "timeout"), []


def uav_step(session: PolSession, event, ctx: UavContext):
    """UAV-side transition function. Returns (new_session, actions)."""
    st = session.state

    if st == SessionState.INIT and isinstance(event, Start):
        payload = encode_pol_request(PolRequest(
            session.session_id, session.uav_id, session.platform_id,
            session.code_uav, session.code_platform, session.claim,
        ))
        return (_goto(session, SessionState.REQUESTED),
                [SubmitTx(TX_POL_REQUEST, payload), SetTimer()])

    if st == SessionState.REQUESTED and isinstance(event, RequestIn):
        if event.request.session_id != session.session_id:
            raise ProtocolViolationError(st, event)
        return _goto(session, SessionState.POLLING), [SetTimer()]

    if st in (SessionState.POLLING, SessionState.RANGING) and isinstance(event, UwbFrameIn):
        frame = event.frame
        if frame.frame_type is not FrameType.POLL:
            raise ProtocolViolationError(st, event)
        if frame.session_id != session.session_id or frame.code != session.code_platform:
            # Mismatched identity code: stay silent and give up on the session.
            return _abort(session, "code-mismatch"), []
        response = RangingFrame(
            FrameType.RESPONSE, session.session_id,
            ctx.node_id, frame.src_id, session.code_uav,
        )
        return _goto(session, SessionState.RANGING), [SendFrame(response), SetTimer()]

    if st == SessionState.RANGING and isinstance(event, RangingResultIn) and event.ok:
        return _goto(session, SessionState.VALIDATING), [SetTimer()]

    if st == SessionState.VALIDATING and isinstance(event, VerdictIn):
        if event.session_id != session.session_id:
            raise ProtocolViolationError(st, event)
        return _finish(session, event.verdict), []

    if isinstance(event, TimeoutIn) and st in (
        SessionState.REQUESTED, SessionState.POLLING,
        SessionState.RANGING, SessionState.VALIDATING,
    ):
        return _retry(session)

    raise ProtocolViolationError(st, event)


def _poll(session: PolSession, ctx: PlatformContext) -> RangingFrame:
    return RangingFrame(FrameType.POLL, session.session_id,
                        ctx.poll_src_id, ctx.uav_node_id, session.code_platform)


def platform_step(session: PolSession, event, ctx: PlatformContext):
    """Platform-side transition function. Returns (new_session, actions)."""
    st = session.state

    if st == SessionState.INIT and isinstance(event, Start):
        return _goto(session, SessionState.REQUESTED), []

    if st == SessionState.REQUESTED and isinstance(event, RequestIn):
        req = event.request
        armed = replace(
            session,
            session_id=req.session_id,
            uav_id=req.uav_id,
            platform_id=req.platform_id,
            code_uav=req.code_uav,
            code_platform=req.code_platform,
            claim=req.claim,
        )
        return _goto(armed, SessionState.POLLING), [SendFrame(_poll(armed, ctx)), SetTimer()]

    if st == SessionState.POLLING and isinstance(event, UwbFrameIn):
        frame = event.frame
        if frame.frame_type is not FrameType.RESPONSE:
            raise ProtocolViolationError(st, event)
        if frame.session_id != session.session_id or frame.code != session.code_uav:
            return _abort(session, "code-mismatch"), []
        return _goto(session, SessionState.RANGING), [StartRanging(), SetTimer()]

    if st == SessionState.RANGING and isinstance(event, RangingResultIn) and event.ok:
        estimate = multilaterate(ctx.anchor_set, event.ranges)
        if not estimate.converged:
            return _abort(replace(session, estimate=estimate), "validation-unavailable"), []
        verdict = validate_location(session.claim, estimate, ctx.buffer)
        payload = encode_pol_verdict(session.session_id, verdict)
        return (_goto(session, SessionState.VALIDATING, estimate=estimate),
                [SubmitTx(TX_POL_VERDICT, payload), SetTimer()])

    if st == SessionState.VALIDATING and isinstance(event, VerdictIn):
        if event.session_id != session.session_id:
            raise ProtocolViolationError(st, event)
        return _finish(session, event.verdict), []

    if st == SessionState.POLLING and isinstance(event, TimeoutIn):
        return _retry(session, SendFrame(_poll(session, ctx)))
    if st == SessionState.RANGING and isinstance(event, (TimeoutIn, RangingResultIn)):
        return _retry(session, StartRanging())  # a timeout or a failed sweep
    if st == SessionState.VALIDATING and isinstance(event, TimeoutIn):
        return _retry(session)

    raise ProtocolViolationError(st, event)


# -- orchestration ------------------------------------------------------------------

@dataclass(frozen=True)
class UavParty:
    identity: Identity
    node: RadioNode


@dataclass(frozen=True)
class PlatformParty:
    identity: Identity
    anchor_set: AnchorSet
    anchor_nodes: tuple[RadioNode, ...]


@dataclass
class SessionOutcome:
    uav: PolSession
    platform: PolSession
    trace: list = field(default_factory=list)

    @property
    def terminal_state(self) -> SessionState:
        # The platform's view decides the reported outcome; an abort on
        # either side leaves both non-AUTHORIZED.
        if self.uav.state is SessionState.ABORTED or (
            self.platform.state is SessionState.ABORTED
        ):
            return SessionState.ABORTED
        return self.platform.state


class _PartyRuntime:
    def __init__(self, key: str, session: PolSession, step, ctx, identity: Identity):
        self.key = key
        self.session = session
        self.step = step
        self.ctx = ctx
        self.identity = identity
        self.deadline: Optional[int] = None


def run_session(
    uav_party: UavParty,
    platform_party: PlatformParty,
    lg: Ledger,
    channel: ChannelModel,
    claim: LocationClaim,
    session_rng: random.Random,
    buffer: float = DEFAULT_BUFFER_M,
    poll_tamper: Optional[Callable[[RangingFrame], RangingFrame]] = None,
) -> SessionOutcome:
    """Drive one handshake to a terminal state on both sides.

    Every handshake frame goes over the air through uwb.transmit between
    the UAV's node and the platform's first anchor, so a UAV out of radio
    range never answers a poll. StartRanging runs one uwb.ranging_sweep of
    RANGING_ROUNDS rounds, and its per-anchor RangeStats go to the
    platform as they are. poll_tamper, when given, rewrites every
    platform poll frame before it goes on the air (used to model replay
    attacks on the radio path).

    The session reads the ledger's `pol` records by height, from the height
    at its start, so it sees only records committed after it starts.
    """
    session_id = new_session_id(session_rng)
    code_uav, code_platform = generate_codes(session_rng)

    uav_rt = _PartyRuntime(
        "uav",
        PolSession(session_id, uav_party.identity.name,
                   platform_party.identity.name, code_uav, code_platform, claim=claim),
        uav_step,
        UavContext(uav_party.node.node_id),
        uav_party.identity,
    )
    platform_rt = _PartyRuntime(
        "platform",
        PolSession(b"\x00" * 16, "", platform_party.identity.name,
                   b"\x00" * 16, b"\x00" * 16),
        platform_step,
        PlatformContext(platform_party.anchor_set,
                        platform_party.anchor_nodes[0].node_id,
                        uav_party.node.node_id, buffer),
        platform_party.identity,
    )
    parties = {"uav": uav_rt, "platform": platform_rt}
    read_height = lg.height(DEFAULT_CHANNEL)
    radios = {"uav": uav_party.node, "platform": platform_party.anchor_nodes[0]}
    pending: deque = deque()
    trace: list = []

    def terminal(rt: _PartyRuntime) -> bool:
        return rt.session.state in TERMINAL_STATES

    def dispatch(rt: _PartyRuntime, event) -> None:
        if terminal(rt):
            return
        before = rt.session.state
        rt.session, actions = rt.step(rt.session, event, rt.ctx)
        trace.append((lg.clock.now_ns, rt.key, before.value,
                      type(event).__name__, rt.session.state.value,
                      tuple(type(a).__name__ for a in actions)))
        if terminal(rt):
            rt.deadline = None
        for action in actions:
            execute(rt, action)

    def execute(rt: _PartyRuntime, action) -> None:
        if isinstance(action, SetTimer):
            rt.deadline = lg.clock.now_ns + POLL_TIMEOUT_NS
        elif isinstance(action, SubmitTx):
            try:
                lg.submit_transaction(rt.identity, DEFAULT_CHANNEL,
                                      action.tx_type, action.payload)
            except (UnauthorizedError, ChaincodeError) as exc:
                # Traced from the state the submit came from, before the abort.
                trace.append((lg.clock.now_ns, rt.key, rt.session.state.value,
                              "SubmitRejected", SessionState.ABORTED.value, ()))
                rt.session = _abort(rt.session, "unauthorized" if isinstance(
                    exc, UnauthorizedError) else "chaincode-reject")
                rt.deadline = None
        elif isinstance(action, SendFrame):
            frame = replace(action.frame, tx_timestamp=lg.clock.now_ns)
            if poll_tamper is not None and frame.frame_type is FrameType.POLL:
                frame = poll_tamper(frame)
            lg.clock.advance(1_000)  # air time
            other = "platform" if rt.key == "uav" else "uav"
            received = transmit(channel, frame, radios[rt.key], radios[other])
            if received is not None:
                pending.append((other, UwbFrameIn(received)))
        elif isinstance(action, StartRanging):
            ranges = ranging_sweep(
                platform_party.anchor_nodes, uav_party.node, channel,
                rt.session.session_id,
                code_to_send=rt.session.code_platform,
                code_expected=rt.session.code_uav,
                rounds=RANGING_ROUNDS,
            )
            if sum(r.count > 0 for r in ranges) > platform_party.anchor_set.dimension:
                pending.append(("uav", RangingResultIn(True)))
                pending.append(("platform", RangingResultIn(True, tuple(ranges))))
            else:
                pending.append(("platform", RangingResultIn(False)))

    def pump_ledger() -> None:
        # Read what was committed since the last read, decode each record once
        # and route it to whichever machine is expecting it; records for other
        # sessions or states are not for us.
        nonlocal read_height
        txs = lg.transactions(DEFAULT_CHANNEL, read_height)
        read_height += len(txs)
        for tx in txs:
            if tx.tx_type == TX_POL_REQUEST:
                req = decode_pol_request(tx.payload)
                for rt in (uav_rt, platform_rt):
                    if rt.session.state is SessionState.REQUESTED and (
                        rt is platform_rt or req.session_id == rt.session.session_id
                    ):
                        pending.append((rt.key, RequestIn(req)))
            elif tx.tx_type == TX_POL_VERDICT:
                sid, verdict = decode_pol_verdict(tx.payload)
                for rt in (uav_rt, platform_rt):
                    if sid == rt.session.session_id:
                        pending.append((rt.key, VerdictIn(sid, verdict)))

    dispatch(platform_rt, Start())
    dispatch(uav_rt, Start())

    for _ in range(100_000):  # hard stop; honest sessions take a few dozen steps
        pump_ledger()
        if pending:
            key, event = pending.popleft()
            dispatch(parties[key], event)
            continue
        if terminal(uav_rt) and terminal(platform_rt):
            break
        armed = [rt for rt in parties.values() if rt.deadline is not None and not terminal(rt)]
        if not armed:
            # One side finished (or never engaged) and the other has nothing
            # to wait on: close it out.
            for rt in parties.values():
                if not terminal(rt):
                    rt.session = _abort(rt.session, "stalled")
            break
        rt = min(armed, key=lambda r: (r.deadline, r.key))
        lg.clock.advance(max(0, rt.deadline - lg.clock.now_ns))
        rt.deadline = None
        dispatch(rt, TimeoutIn())
    else:
        raise RuntimeError("session did not terminate")

    return SessionOutcome(uav_rt.session, platform_rt.session, trace)
