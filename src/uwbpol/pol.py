"""Proof-of-location handshake.

A UAV broadcasts a position claim as a ledger transaction; the ground
platform ranges it over UWB using session codes pre-shared through the
ledger, estimates its position by multilateration from the per-anchor range
statistics of one ranging sweep, and commits a verdict comparing claim and
estimate against an error buffer.

Both sides run as pure state machines, `uav_step` and `platform_step`. One
loop, `SessionLoop`, sits around them. It builds both start sessions, steps
one machine per event and traces it, keeps the timers, turns a refused
submit into an abort, and routes committed records (`route_records`). Its
I/O is three effects: submit a transaction, send a frame, start ranging.
Two drivers run it: `run_session` over the live ledger and radio in one
fixed order, and the safety model of the tests over model effects in every
order its adversary picks.
"""

from __future__ import annotations

import math
import random
import struct
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterable, Optional

from .clock import SimClock
from .errors import (
    ChaincodeError,
    AssetConflictError,
    AssetNotFoundError,
    ProtocolViolationError,
    UnauthorizedError,
    UwbPolError,
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

POLL_TIMEOUT_NS = 500_000_000  # 500 ms of simulated time
MAX_RETRIES = 3
RANGING_ROUNDS = 200  # poll/response rounds pooled into one position estimate
MAX_LOOP_STEPS = 100_000  # hard stop; honest sessions take a few dozen steps


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
    """A claim judged against an estimate: the distance between them, the
    estimate's error radius and the buffer. The outcome follows from these
    three numbers and is never stated apart from them: `accepted` is
    distance <= buffer, and `likelihood` is `claim_likelihood` of the
    distance and radius."""

    accepted: bool = field(init=False)
    claim_to_estimate_distance: float
    error_radius: float
    buffer: float
    likelihood: float = field(init=False)

    def __post_init__(self):
        d = self.claim_to_estimate_distance
        object.__setattr__(self, "accepted", d <= self.buffer)
        object.__setattr__(self, "likelihood", claim_likelihood(d, self.error_radius))


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
    """The request's payload; it omits `uav_id`, which is the submitter."""
    c = req.claim
    return (
        req.session_id
        + lps(req.platform_id)
        + req.code_uav
        + req.code_platform
        + struct.pack(">dddd", c.position.x, c.position.y, c.position.z, float(c.timestamp))
    )


def decode_pol_request(payload: bytes, submitter: str) -> PolRequest:
    """The request that `submitter`, its UAV, committed as `payload`."""
    if len(payload) < 16:
        raise ValueError("request payload too short")
    session_id = payload[:16]
    platform_id, off = read_lps(payload, 16)
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
    return PolRequest(session_id, submitter, platform_id, code_uav, code_platform,
                      LocationClaim(Position(x, y, z), int(ts)))


def encode_pol_verdict(session_id: bytes, verdict: Verdict) -> bytes:
    return session_id + struct.pack(
        ">ddd", verdict.claim_to_estimate_distance, verdict.error_radius, verdict.buffer)


def decode_pol_verdict(payload: bytes) -> tuple[bytes, Verdict]:
    if len(payload) != 16 + 24:
        raise ValueError(f"verdict payload must be 40 bytes, got {len(payload)}")
    d, er, buf = struct.unpack_from(">ddd", payload, 16)
    if not all(math.isfinite(v) for v in (d, er, buf)):
        raise ValueError("verdict numbers must be finite")
    if d < 0 or er < 0 or buf <= 0:
        raise ValueError("verdict distance and error radius must be >= 0, buffer > 0")
    try:
        return payload[:16], Verdict(d, er, buf)
    except OverflowError as exc:
        raise ValueError("verdict likelihood overflows a float") from exc


# -- session codes -------------------------------------------------------------

def generate_codes(rng: random.Random) -> tuple[bytes, bytes]:
    """Draw the per-session identification codes for UAV and platform."""
    code_uav = rng.randbytes(16)
    code_platform = rng.randbytes(16)
    while code_platform == code_uav:  # pragma: no cover - 2^-128 chance
        code_platform = rng.randbytes(16)
    return code_uav, code_platform


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

    An accepting verdict proves that a holder of the session codes answered
    within `max_range` of the anchors, with ranges that fit the claim. It
    does not prove the UAV's position: a UAV that times its own replies can
    shift each anchor's two-way range to fit a claim where it is not.
    """
    if buffer <= 0:
        raise ValueError("buffer must be > 0")
    if not estimate.converged:
        raise ValidationUnavailableError("estimate did not converge")
    return Verdict(distance(claim.position, estimate.position), estimate.error_radius, buffer)


# -- chaincode -------------------------------------------------------------------

class PolChaincode:
    """Ledger-side rules for the handshake's two transaction types.

    It keeps no state of its own: it reads and writes two key ranges of the
    world state, which AssetChaincode refuses to every client. Each record
    carries only what the ledger does not already hold.

    POL_REQUEST carries the session id, the platform's name, both session
    codes and the claim. Its UAV is the transaction's submitter, so no UAV
    can request for another. It opens the session asset
    `pol-session-<sid>`, which holds the request. Its owner is the platform
    the request names, since an owner writes the next version. It also
    writes a `pol-code-<hex>` entry per session code, so codes are
    single-use across sessions.

    POL_VERDICT, from the session asset's owner only, closes the session.
    It carries the session id, the claim-to-estimate distance, the error
    radius and the buffer; `Verdict` derives whether it accepts and its
    likelihood from those numbers. The buffer is the platform's word, so a
    platform that states a larger one accepts a farther claim.
    An accepting verdict attests what `validate_location` proves, which is
    not the UAV's position.
    """

    TX_TYPES = (TX_POL_REQUEST, TX_POL_VERDICT)

    def apply(self, assets: dict[str, Asset], tx: Transaction) -> None:
        if tx.tx_type == TX_POL_REQUEST:
            try:
                req = decode_pol_request(tx.payload, tx.submitter)
            except ValueError as exc:
                raise ChaincodeError(f"bad request payload: {exc}") from exc
            asset_id = SESSION_ASSET_PREFIX + req.session_id.hex()
            if asset_id in assets:
                raise AssetConflictError(f"session {req.session_id.hex()} already exists")
            code_ids = [CODE_ASSET_PREFIX + c.hex() for c in (req.code_uav, req.code_platform)]
            if any(code_id in assets for code_id in code_ids):
                raise ChaincodeError("session code reuse rejected")
            for code_id in code_ids:
                assets[code_id] = Asset(code_id, req.session_id, owner=tx.submitter, version=1)
            assets[asset_id] = Asset(asset_id, tx.payload, owner=req.platform_id, version=1)
        elif tx.tx_type == TX_POL_VERDICT:
            try:
                session_id, _ = decode_pol_verdict(tx.payload)
            except ValueError as exc:
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

    if (st == SessionState.REQUESTED and isinstance(event, RequestIn)
            and event.request.platform_id == session.platform_id):
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
        if SessionState.ABORTED in (self.uav.state, self.platform.state):
            return SessionState.ABORTED
        return self.platform.state


def start_sessions(session_id: bytes, uav_id: str, platform_id: str, code_uav: bytes,
                   code_platform: bytes, claim: LocationClaim) -> dict[str, PolSession]:
    """Both parties' sessions before Start, by party. The platform's has no
    session id until a request arms it, so no 16-byte verdict id matches it."""
    return {"uav": PolSession(session_id, uav_id, platform_id, code_uav, code_platform,
                              claim=claim),
            "platform": PolSession(b"", "", platform_id, b"\x00" * 16, b"\x00" * 16)}


def route_records(records: Iterable[Transaction], uav: PolSession,
                  platform: PolSession) -> list[tuple[str, object]]:
    """The (party, event) pairs that committed records make, in commit order.

    The UAV takes the request of its own session while it waits for one, an
    unarmed platform the first request that names it, and each party a
    verdict on its own session id. Other records are not for this session.
    """
    events = []
    platform_free = platform.session_id == b""
    for tx in records:
        if tx.tx_type == TX_POL_REQUEST:
            req = decode_pol_request(tx.payload, tx.submitter)
            if uav.state is SessionState.REQUESTED and req.session_id == uav.session_id:
                events.append(("uav", RequestIn(req)))
            if platform_free and req.platform_id == platform.platform_id:
                platform_free = False
                events.append(("platform", RequestIn(req)))
        elif tx.tx_type == TX_POL_VERDICT:
            sid, verdict = decode_pol_verdict(tx.payload)
            events.extend((party, VerdictIn(sid, verdict))
                          for party, session in (("uav", uav), ("platform", platform))
                          if sid == session.session_id)
    return events


class SessionLoop:
    """The loop around the two machines, whose parties are "uav" and "platform".

    SetTimer arms the party's deadline. The other actions go to `effects`:
    - `submit(party, SubmitTx)` returns the records committed since its
      last read, or raises UnauthorizedError or ChaincodeError;
    - `send(party, frame)` returns the frame as the other party receives
      it, or None;
    - `start_ranging(platform_session)` returns the sweep's result as
      (party, event) pairs.
    The events they make join `pending`.
    """

    def __init__(self, sessions: dict[str, PolSession], contexts: dict, effects,
                 clock: SimClock):
        self.sessions = dict(sessions)
        self.contexts, self.effects, self.clock = contexts, effects, clock
        self.pending: deque = deque()
        self.deadlines: dict[str, Optional[int]] = dict.fromkeys(self.sessions)
        self.trace: list = []  # (sim ns, party, from, event, to, action names)

    def dispatch(self, party: str, event) -> None:
        before = self.sessions[party]
        if before.state in TERMINAL_STATES:
            return
        # Looked up per call, so a wrapper patched onto the module sees every step.
        step = uav_step if party == "uav" else platform_step
        after, actions = step(before, event, self.contexts[party])
        self.sessions[party] = after
        self.trace.append((self.clock.now_ns, party, before.state.value, type(event).__name__,
                           after.state.value, tuple(type(a).__name__ for a in actions)))
        for action in actions:
            if isinstance(action, SetTimer):
                self.deadlines[party] = self.clock.now_ns + POLL_TIMEOUT_NS
            elif isinstance(action, SubmitTx):
                self._submit(party, action)
            elif isinstance(action, SendFrame):
                received = self.effects.send(party, action.frame)
                if received is not None:
                    other = "platform" if party == "uav" else "uav"
                    self.pending.append((other, UwbFrameIn(received)))
            elif isinstance(action, StartRanging):
                self.pending.extend(self.effects.start_ranging(self.sessions[party]))

    def _submit(self, party: str, action: SubmitTx) -> None:
        try:
            records = self.effects.submit(party, action)
        except (UnauthorizedError, ChaincodeError) as exc:  # traced from the state it came from
            session = self.sessions[party]
            self.trace.append((self.clock.now_ns, party, session.state.value, "SubmitRejected",
                               SessionState.ABORTED.value, ()))
            self.sessions[party] = _abort(session, "unauthorized" if isinstance(
                exc, UnauthorizedError) else "chaincode-reject")
            return
        self.pending.extend(route_records(records, self.sessions["uav"],
                                          self.sessions["platform"]))

    def run(self) -> None:
        """Start both parties, then drive them until both are terminal.

        Pending events go first in first out; when none is pending, the
        earliest deadline fires. A party left with nothing to wait on
        aborts as "stalled".
        """
        self.dispatch("platform", Start())
        self.dispatch("uav", Start())
        for _ in range(MAX_LOOP_STEPS):
            if self.pending:
                self.dispatch(*self.pending.popleft())
                continue
            live = [p for p, s in self.sessions.items() if s.state not in TERMINAL_STATES]
            armed = [p for p in live if self.deadlines[p] is not None]
            if not armed:
                for party in live:
                    self.sessions[party] = _abort(self.sessions[party], "stalled")
                return
            party = min(armed, key=lambda p: (self.deadlines[p], p))
            self.clock.advance(max(0, self.deadlines[party] - self.clock.now_ns))
            self.deadlines[party] = None
            self.dispatch(party, TimeoutIn())
        raise UwbPolError(f"session did not terminate in {MAX_LOOP_STEPS} steps")


class _LiveEffects:
    """run_session's effects: the ledger, the radio channel and the ranging sweep."""

    def __init__(self, uav_party: UavParty, platform_party: PlatformParty, lg: Ledger,
                 channel: ChannelModel, poll_tamper):
        self.uav_party, self.platform_party = uav_party, platform_party
        self.lg, self.channel, self.poll_tamper = lg, channel, poll_tamper
        self.read_height = lg.height(DEFAULT_CHANNEL)
        self.radios = {"uav": uav_party.node, "platform": platform_party.anchor_nodes[0]}

    def submit(self, party: str, action: SubmitTx):
        identity = self.uav_party.identity if party == "uav" else self.platform_party.identity
        self.lg.submit_transaction(identity, DEFAULT_CHANNEL, action.tx_type, action.payload)
        records = self.lg.transactions(DEFAULT_CHANNEL, self.read_height)
        self.read_height += len(records)
        return records

    def send(self, party: str, frame: RangingFrame) -> Optional[RangingFrame]:
        frame = replace(frame, tx_timestamp=self.lg.clock.now_ns)
        if self.poll_tamper is not None and frame.frame_type is FrameType.POLL:
            frame = self.poll_tamper(frame)
        self.lg.clock.advance(1_000)  # air time
        other = "platform" if party == "uav" else "uav"
        return transmit(self.channel, frame, self.radios[party], self.radios[other])

    def start_ranging(self, platform: PolSession):
        ranges = ranging_sweep(self.platform_party.anchor_nodes, self.uav_party.node,
                               self.channel, platform.session_id, code_to_send=platform.code_platform,
                               code_expected=platform.code_uav, rounds=RANGING_ROUNDS)
        if sum(r.count > 0 for r in ranges) > self.platform_party.anchor_set.dimension:
            return [("uav", RangingResultIn(True)),
                    ("platform", RangingResultIn(True, tuple(ranges)))]
        return [("platform", RangingResultIn(False))]


def run_session(
    uav_party: UavParty,
    platform_party: PlatformParty,
    lg: Ledger,
    channel: ChannelModel,
    claim: LocationClaim,
    session_rng: random.Random,
    buffer: float,
    poll_tamper: Optional[Callable[[RangingFrame], RangingFrame]] = None,
) -> SessionOutcome:
    """Drive one handshake to a terminal state on both sides.

    The live driver of SessionLoop; the safety model of the tests is the
    other, stepping the same loop over model effects. The live effects:
    submit commits to `lg`, and the session reads the `pol` records
    committed after it starts. send puts the frame on the air through
    uwb.transmit between the UAV's node and the platform's first anchor, so
    a UAV out of radio range never answers a poll; poll_tamper, when given,
    first rewrites every platform poll (a replay attack on the radio path).
    start_ranging runs one uwb.ranging_sweep of RANGING_ROUNDS rounds, which
    succeeds when more anchors answered than the anchor set's dimension.
    """
    session_id = session_rng.randbytes(16)
    code_uav, code_platform = generate_codes(session_rng)
    sessions = start_sessions(session_id, uav_party.identity.name,
                              platform_party.identity.name, code_uav, code_platform, claim)
    contexts = {"uav": UavContext(uav_party.node.node_id),
                "platform": PlatformContext(platform_party.anchor_set,
                                            platform_party.anchor_nodes[0].node_id,
                                            uav_party.node.node_id, buffer)}
    loop = SessionLoop(sessions, contexts,
                       _LiveEffects(uav_party, platform_party, lg, channel, poll_tamper),
                       lg.clock)
    loop.run()
    return SessionOutcome(loop.sessions["uav"], loop.sessions["platform"], loop.trace)
