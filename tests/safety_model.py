"""Exhaustive adversarial exploration of the session loop.

Each transition is one `pol.SessionLoop.dispatch`, the same dispatch that
`run_session` drives, over model effects in place of the live ones. So the
model takes from `pol` the start sessions (`start_sessions`), the dispatch
(a terminal machine is skipped), the submit-refusal rule (abort with
`unauthorized` or `chaincode-reject`) and the routing of committed records
(`route_records`). Submit runs the real, stateless PolChaincode on a frozen
copy of the `pol` world state. Send and ranging results go nowhere by
themselves: every event the loop queues stays deliverable, in any order and
any number of times, as captured traffic. Three things stay abstract:
enrollment (a flag per party, checked before the chaincode), signatures
(none), and timers (a timeout may fire at any point).

An adversary picks the next event among those queued, each party's Start,
and injections: corrupted or stale radio frames, a stale verdict, a failed
sweep once one has run, and spurious timeouts. It never learns the session
codes. Exploration is a BFS over composed states, which hold the sessions
and the environment but not the loop's trace, so equal states merge.

The safety property checked: no reachable state has either machine AUTHORIZED
unless (a) the UAV and platform identities were enrolled (certificates
verify), (b) the correct-code poll and response were actually delivered
(bilateral code match), and (c) a committed verdict accepted the claim.
"""

import itertools
from collections import deque
from dataclasses import dataclass, replace

from uwbpol.clock import SimClock
from uwbpol.errors import ProtocolViolationError, UnauthorizedError
from uwbpol.geo import Position, RangeStats, distance
from uwbpol.ledger import DEFAULT_CHANNEL, Transaction
from uwbpol.pol import (
    LocationClaim,
    PlatformContext,
    PolChaincode,
    PolSession,
    RangingResultIn,
    SessionLoop,
    SessionState,
    Start,
    TimeoutIn,
    UavContext,
    UwbFrameIn,
    VerdictIn,
    start_sessions,
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
CONTEXTS = {"uav": UAV_CTX, "platform": PLATFORM_CTX}
SUBMITTERS = {"uav": "uav-1", "platform": "pad-1"}

HONEST_MEASUREMENTS = tuple(RangeStats(1, distance(pos, TRUTH)) for _, pos in ANCHORS.anchors)
HONEST_RANGING = ("platform", RangingResultIn(True, HONEST_MEASUREMENTS))

# Pure adversarial injections: wrong or stale radio traffic, spurious timeouts.
INJECTIONS = (
    ("uav", UwbFrameIn(RangingFrame(FrameType.POLL, SID, "a0", "uav", WRONG_CODE))),
    ("uav", UwbFrameIn(RangingFrame(FrameType.POLL, STALE_SID, "a0", "uav", WRONG_CODE))),
    ("platform", UwbFrameIn(RangingFrame(FrameType.RESPONSE, SID, "uav", "a0", WRONG_CODE))),
    ("platform", UwbFrameIn(RangingFrame(FrameType.RESPONSE, STALE_SID, "uav", "a0",
                                         WRONG_CODE))),
    ("uav", TimeoutIn()),
    ("platform", TimeoutIn()),
)


@dataclass(frozen=True)
class EnvState:
    """What the ledger and radio have observably done so far."""

    uav_enrolled: bool
    platform_enrolled: bool
    claim_honest: bool
    pol_assets: tuple = ()  # the `pol` world state, as sorted (asset id, Asset) pairs
    queued: frozenset = frozenset()  # every (party, event) the loop has queued
    honest_poll_delivered: bool = False
    honest_response_delivered: bool = False

    def verdicts(self):
        return {event.verdict for _, event in self.queued if isinstance(event, VerdictIn)}


@dataclass(frozen=True)
class World:
    uav: PolSession
    platform: PolSession
    env: EnvState


class ModelEffects:
    """The loop's effects over the model's environment."""

    def __init__(self, env: EnvState):
        self.env = env

    def submit(self, party, action):
        submitter = SUBMITTERS[party]
        if not (self.env.uav_enrolled if party == "uav" else self.env.platform_enrolled):
            raise UnauthorizedError(f"{submitter!r} not enrolled")
        tx = Transaction(b"", DEFAULT_CHANNEL, action.tx_type, action.payload, submitter, 0, b"")
        assets = dict(self.env.pol_assets)
        PolChaincode().apply(assets, tx)
        self.env = replace(self.env, pol_assets=tuple(sorted(assets.items())))
        return [tx]

    def send(self, party, frame):
        return frame  # captured; the adversary delivers it when it likes

    def start_ranging(self, platform):
        return [("uav", RangingResultIn(True)), HONEST_RANGING]


def initial_world(uav_enrolled: bool, platform_enrolled: bool, claim_honest: bool) -> World:
    claim = LocationClaim(TRUTH if claim_honest else SPOOFED, 0)
    sessions = start_sessions(SID, SUBMITTERS["uav"], SUBMITTERS["platform"],
                              CODE_U, CODE_P, claim)
    return World(sessions["uav"], sessions["platform"],
                 EnvState(uav_enrolled, platform_enrolled, claim_honest))


def _loop(world: World) -> SessionLoop:
    return SessionLoop({"uav": world.uav, "platform": world.platform}, CONTEXTS,
                       ModelEffects(world.env), SimClock())


def honest_trace() -> list:
    """The enrolled, honest session under run_session's own order, injecting nothing."""
    loop = _loop(initial_world(True, True, True))
    loop.run()
    return loop.trace


def candidate_moves(world: World):
    """Every event the adversary could hand each machine next."""
    env = world.env
    moves = [(party, Start()) for party, s in (("uav", world.uav), ("platform", world.platform))
             if s.state is SessionState.INIT]
    moves.extend(env.queued)  # incl. replays
    moves.extend(("uav", VerdictIn(STALE_SID, v)) for v in env.verdicts())
    if HONEST_RANGING in env.queued:
        moves.append(("platform", RangingResultIn(False)))  # a sweep that ran may fail
    moves.extend(INJECTIONS)
    return moves


def step_world(world: World, party: str, event):
    """One dispatch; None when the machine rejects the event."""
    loop = _loop(world)
    try:
        loop.dispatch(party, event)
    except ProtocolViolationError:
        return None
    env = replace(loop.effects.env, queued=world.env.queued | frozenset(loop.pending))
    if (isinstance(event, UwbFrameIn) and event.frame.session_id == SID
            and loop.sessions[party].state is SessionState.RANGING):
        if party == "uav" and event.frame.code == CODE_P:
            env = replace(env, honest_poll_delivered=True)
        if party == "platform" and event.frame.code == CODE_U:
            env = replace(env, honest_response_delivered=True)
    return World(loop.sessions["uav"], loop.sessions["platform"], env)


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
    for flags in itertools.product((True, False), repeat=3):
        w = initial_world(*flags)
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
                      and any(v.accepted for v in env.verdicts())
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
