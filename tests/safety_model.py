"""Exhaustive adversarial exploration of the handshake state machines.

The two transition functions are pure, so their composition with an abstract
environment can be model-checked directly: the environment mirrors what the
ledger and radio would do with each emitted action (commit a request only for
an enrolled submitter, commit only self-consistent verdicts, let frames be
captured and replayed), and an adversary chooses the order of every
deliverable event and may inject corrupted or stale radio frames and spurious
timeouts at any point. Exploration is a BFS over composed states; exploring
all states and transitions covers the behavior of every event interleaving.

The safety property checked: no reachable state has either machine AUTHORIZED
unless (a) the UAV and platform identities were enrolled (certificates
verify), (b) the correct-code poll and response were actually delivered
(bilateral code match), and (c) a committed verdict accepted the claim.
"""

import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

from uwbpol.errors import ProtocolViolationError
from uwbpol.geo import Position, RangeStats, distance
from uwbpol.pol import (
    LocationClaim,
    PlatformContext,
    PolSession,
    RangingResultIn,
    RequestIn,
    SendFrame,
    SessionState,
    Start,
    StartRanging,
    SubmitTx,
    TimeoutIn,
    UavContext,
    UwbFrameIn,
    Verdict,
    VerdictIn,
    decode_pol_request,
    decode_pol_verdict,
    platform_step,
    uav_step,
)
from uwbpol.uwb import FrameType, RangingFrame

from conftest import FIG4_ANCHOR_COORDS, make_anchor_set

SID = b"\x10" * 16
STALE_SID = b"\x66" * 16
CODE_U = b"\x0a" * 16
CODE_P = b"\x0b" * 16
WRONG_CODE = b"\x0c" * 16

TRUTH = Position(3.95, 2.705)
SPOOFED = Position(5.95, 2.705)  # 2 m off, outside the 1 m buffer

ANCHORS = make_anchor_set(FIG4_ANCHOR_COORDS)
UAV_CTX = UavContext("uav")
PLATFORM_CTX = PlatformContext(ANCHORS, "a0", "uav", buffer=1.0)

HONEST_MEASUREMENTS = tuple(RangeStats(1, distance(pos, TRUTH)) for _, pos in ANCHORS.anchors)


@dataclass(frozen=True)
class EnvState:
    """What the ledger and radio have observably done so far."""

    uav_enrolled: bool
    platform_enrolled: bool
    claim_honest: bool
    request_payload: Optional[bytes] = None  # committed POL_REQUEST
    poll_sent: bool = False          # correct poll is on the air / captured
    response_sent: bool = False      # correct response is on the air / captured
    ranging_done: bool = False
    verdict: Optional[Verdict] = None  # committed POL_VERDICT
    honest_poll_delivered: bool = False
    honest_response_delivered: bool = False


@dataclass(frozen=True)
class World:
    uav: PolSession
    platform: PolSession
    env: EnvState


def initial_world(uav_enrolled: bool, platform_enrolled: bool, claim_honest: bool) -> World:
    claim = LocationClaim(SPOOFED if not claim_honest else TRUTH, 0)
    uav = PolSession("uav", SID, "uav-1", "pad-1", CODE_U, CODE_P, claim=claim)
    platform = PolSession("platform", b"\x00" * 16, "", "pad-1",
                          b"\x00" * 16, b"\x00" * 16)
    return World(uav, platform,
                 EnvState(uav_enrolled, platform_enrolled, claim_honest))


def _apply_actions(world: World, party: str, session: PolSession, actions) -> World:
    env = world.env
    for action in actions:
        if isinstance(action, SubmitTx):
            if action.tx_type == "POL_REQUEST":
                if env.uav_enrolled:
                    env = replace(env, request_payload=action.payload)
                else:
                    session = replace(session, state=SessionState.ABORTED,
                                      abort_reason="unauthorized")
            elif action.tx_type == "POL_VERDICT":
                if env.platform_enrolled:
                    sid, verdict = decode_pol_verdict(action.payload)
                    # Chaincode refuses verdicts that contradict themselves
                    # or reference a session that never opened.
                    if (sid == SID and env.request_payload is not None
                            and env.verdict is None
                            and verdict.accepted == (
                                verdict.claim_to_estimate_distance <= verdict.buffer)):
                        env = replace(env, verdict=verdict)
                else:
                    session = replace(session, state=SessionState.ABORTED,
                                      abort_reason="unauthorized")
        elif isinstance(action, SendFrame):
            if action.frame.frame_type is FrameType.POLL:
                env = replace(env, poll_sent=True)
            else:
                env = replace(env, response_sent=True)
        elif isinstance(action, StartRanging):
            env = replace(env, ranging_done=True)
    if party == "uav":
        return World(session, world.platform, env)
    return World(world.uav, session, env)


def _honest_poll() -> RangingFrame:
    return RangingFrame(FrameType.POLL, SID, "a0", "uav", CODE_P)


def _honest_response() -> RangingFrame:
    return RangingFrame(FrameType.RESPONSE, SID, "uav", "a0", CODE_U)


def candidate_moves(world: World):
    """Every event the environment or adversary could hand each machine."""
    env = world.env
    moves = []

    # Honest plumbing, deliverable in any order the adversary likes.
    if world.uav.state is SessionState.INIT:
        moves.append(("uav", Start()))
    if world.platform.state is SessionState.INIT:
        moves.append(("platform", Start()))
    if env.request_payload is not None:
        request = RequestIn(decode_pol_request(env.request_payload))
        moves.append(("uav", request))
        moves.append(("platform", request))
    if env.poll_sent:
        moves.append(("uav", UwbFrameIn(_honest_poll())))  # incl. replays
    if env.response_sent:
        moves.append(("platform", UwbFrameIn(_honest_response())))
    if env.ranging_done:
        moves.append(("uav", RangingResultIn(True)))
        moves.append(("platform", RangingResultIn(True, HONEST_MEASUREMENTS)))
        moves.append(("platform", RangingResultIn(False)))
    if env.verdict is not None:
        moves.append(("uav", VerdictIn(SID, env.verdict)))
        moves.append(("platform", VerdictIn(SID, env.verdict)))
        moves.append(("uav", VerdictIn(STALE_SID, env.verdict)))

    # Pure adversarial injections: wrong or stale radio traffic, spurious
    # timeouts. The attacker never learns the session codes.
    moves.append(("uav", UwbFrameIn(
        RangingFrame(FrameType.POLL, SID, "a0", "uav", WRONG_CODE))))
    moves.append(("uav", UwbFrameIn(
        RangingFrame(FrameType.POLL, STALE_SID, "a0", "uav", WRONG_CODE))))
    moves.append(("platform", UwbFrameIn(
        RangingFrame(FrameType.RESPONSE, SID, "uav", "a0", WRONG_CODE))))
    moves.append(("platform", UwbFrameIn(
        RangingFrame(FrameType.RESPONSE, STALE_SID, "uav", "a0", WRONG_CODE))))
    moves.append(("uav", TimeoutIn()))
    moves.append(("platform", TimeoutIn()))
    return moves


def step_world(world: World, party: str, event) -> Optional[World]:
    """One transition; None when the machine rejects the event."""
    session = world.uav if party == "uav" else world.platform
    step = uav_step if party == "uav" else platform_step
    ctx = UAV_CTX if party == "uav" else PLATFORM_CTX
    if session.state in (SessionState.AUTHORIZED, SessionState.REJECTED,
                         SessionState.ABORTED):
        return None
    try:
        new_session, actions = step(session, event, ctx)
    except ProtocolViolationError:
        return None

    env = world.env
    if (party == "uav" and isinstance(event, UwbFrameIn)
            and new_session.state is SessionState.RANGING
            and event.frame.code == CODE_P and event.frame.session_id == SID):
        env = replace(env, honest_poll_delivered=True)
    if (party == "platform" and isinstance(event, UwbFrameIn)
            and new_session.state is SessionState.RANGING
            and event.frame.code == CODE_U and event.frame.session_id == SID):
        env = replace(env, honest_response_delivered=True)

    intermediate = World(world.uav, world.platform, env)
    return _apply_actions(intermediate, party, new_session, actions)


@dataclass
class ExplorationReport:
    states: int
    transitions: int
    authorized_states: int
    violations: list


def explore(max_transitions: int = 100_000) -> ExplorationReport:
    """BFS over all branches and adversarial orderings; checks safety."""
    frontier = deque()
    seen = set()
    for uav_enrolled in (True, False):
        for platform_enrolled in (True, False):
            for claim_honest in (True, False):
                w = initial_world(uav_enrolled, platform_enrolled, claim_honest)
                frontier.append(w)
                seen.add(w)

    transitions = 0
    authorized = 0
    violations = []

    while frontier:
        world = frontier.popleft()

        for side in (world.uav, world.platform):
            if side.state is SessionState.AUTHORIZED:
                authorized += 1
                env = world.env
                ok = (env.uav_enrolled and env.platform_enrolled
                      and env.honest_poll_delivered
                      and env.honest_response_delivered
                      and env.verdict is not None and env.verdict.accepted
                      and env.claim_honest)
                if not ok:
                    violations.append(world)

        for party, event in candidate_moves(world):
            transitions += 1
            if transitions > max_transitions:
                raise AssertionError(
                    f"state space exceeded {max_transitions} transitions")
            nxt = step_world(world, party, event)
            if nxt is None or nxt in seen:
                continue
            seen.add(nxt)
            frontier.append(nxt)

    return ExplorationReport(len(seen), transitions, authorized, violations)
