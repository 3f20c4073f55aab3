"""Scenario-driven simulation harness.

A scenario fixes the world (anchor layout, UAV attempts, channel model,
error buffer, optional attack, seed); run() executes every attempt as an
independent handshake session and reports what happened. Reports are a pure
function of (scenario, seed).

Each scenario invariant is checked once, by the constructor of the frozen
type that holds it: AnchorSet (dimension, count, unique ids, z = 0 in 2D,
geometry; the scenario's dimension is its anchor set's), ChannelParams
(uwb.check_channel), AttackSpec (kind, offset) and Scenario (anchor ids as
radio node ids, buffer, seed, attempts, z = 0 in 2D, coordinates within
MAX_COORD_M, attack target). So JSON, dataclasses.replace and sweeps all get
the same ScenarioError, its message led by the field path.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

from .clock import SimClock
from .errors import FrameEncodingError, ScenarioError, UwbPolError
from .geo import AnchorSet, EstimateResult, Position
from .ledger import DEFAULT_CHANNEL, Ledger, Role, issue_identity
from .pol import (
    LocationClaim,
    PolChaincode,
    PlatformParty,
    SessionState,
    UavParty,
    Verdict,
    run_session,
)
from .uwb import ChannelModel, RadioNode, RangingFrame, _check_id, check_channel

ATTACK_GNSS_SPOOF = "GNSS_SPOOF"
ATTACK_WRONG_IDENTITY = "WRONG_IDENTITY"
ATTACK_CODE_REPLAY = "CODE_REPLAY"
ATTACK_KINDS = (ATTACK_GNSS_SPOOF, ATTACK_WRONG_IDENTITY, ATTACK_CODE_REPLAY)

SWEEP_PARAMETERS = ("noise_sigma", "buffer", "distance_scale")
DEFAULT_SWEEP_REPS = 100

# Ceiling on |x|, |y| and |z| of every scenario position and spoof offset:
# 1000 km is far beyond any UWB link, and the square of any distance between
# two scenario points, claimed ones included, stays a finite float.
MAX_COORD_M = 1e6
UAV_NODE_ID = "uav"
UAV_IDENTITY = "uav-1"
PLATFORM_IDENTITY = "pad-1"


def _is_index(value, stop: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < stop


@dataclass(frozen=True)
class ChannelParams:
    noise_sigma: float = 0.05
    bias: float = 0.0
    loss_prob: float = 0.01
    max_range: float = 60.0

    def __post_init__(self):
        try:
            check_channel(self.noise_sigma, self.bias, self.loss_prob, self.max_range)
        except ValueError as exc:
            raise ScenarioError(f"channel.{exc}") from None


@dataclass(frozen=True)
class Attempt:
    true_position: Position
    claim_position: Optional[Position] = None  # None means honest (claim = truth)

    def claimed(self) -> Position:
        return self.true_position if self.claim_position is None else self.claim_position


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    target_attempt: int
    offset: Optional[Position] = None

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ScenarioError(f"attack.kind: must be one of {list(ATTACK_KINDS)}")
        if self.kind == ATTACK_GNSS_SPOOF and self.offset is None:
            raise ScenarioError("attack.offset: required for GNSS_SPOOF")
        if self.kind != ATTACK_GNSS_SPOOF and self.offset is not None:
            raise ScenarioError(f"attack.offset: not allowed for {self.kind}")


@dataclass(frozen=True)
class Scenario:
    name: str
    anchors: AnchorSet
    attempts: tuple[Attempt, ...]
    channel: ChannelParams
    buffer: float
    seed: int
    attack: Optional[AttackSpec] = None

    def __post_init__(self):
        for i, a_id in enumerate(self.anchors.ids):
            path = f"anchors[{i}].id"
            try:
                _check_id(path, a_id)  # the rule every RadioNode id obeys
            except FrameEncodingError as exc:
                raise ScenarioError(str(exc)) from None
            if a_id == UAV_NODE_ID:
                raise ScenarioError(f"{path}: {UAV_NODE_ID!r} is the UAV's node id")
        if not self.attempts:
            raise ScenarioError("attempts: must be non-empty")
        positions = [(f"anchors[{i}]", p) for i, (_, p) in enumerate(self.anchors.anchors)]
        positions += [(f"attempts[{i}].{which}", p)
                      for i, a in enumerate(self.attempts)
                      for which, p in (("true", a.true_position), ("claim", a.claim_position))]
        if self.attack is not None:
            positions.append(("attack.offset", self.attack.offset))
        for path, p in positions:
            if p is not None and self.anchors.dimension == 2 and p.z != 0.0:
                raise ScenarioError(f"{path}.z: must be 0 in a 2D scenario")
            if p is not None and max(abs(p.x), abs(p.y), abs(p.z)) > MAX_COORD_M:
                raise ScenarioError(f"{path}: coordinates must be within {MAX_COORD_M:g} m of 0")
        if not (math.isfinite(self.buffer) and self.buffer > 0):
            raise ScenarioError(f"buffer: must be finite and > 0, got {self.buffer!r}")
        if not _is_index(self.seed, 2**64):
            raise ScenarioError("seed: must be an unsigned 64-bit integer")
        if self.attack is not None and not _is_index(self.attack.target_attempt,
                                                     len(self.attempts)):
            raise ScenarioError(
                f"attack.target_attempt: {self.attack.target_attempt!r} is not an "
                f"attempt index in [0, {len(self.attempts)})"
            )


@dataclass
class AttemptRecord:
    index: int
    true_position: Position
    claim: LocationClaim
    estimate: Optional[EstimateResult]
    verdict: Optional[Verdict]
    terminal_state: str
    abort_reason: Optional[str]
    trace_len: int

    @property
    def authorized(self) -> bool:
        return self.terminal_state == SessionState.AUTHORIZED.value

    @property
    def claim_to_estimate_distance(self) -> Optional[float]:
        if self.verdict is not None:
            return self.verdict.claim_to_estimate_distance
        return None


@dataclass
class RunReport:
    scenario_name: str
    seed: int
    buffer: float
    records: list[AttemptRecord] = field(default_factory=list)
    # The ledger that backed the run, kept so callers can dump its audit log.
    ledger: Optional[Ledger] = field(default=None, repr=False, compare=False)

    @property
    def acceptance_rate(self) -> float:
        return sum(r.authorized for r in self.records) / len(self.records)

    @property
    def median_error_radius(self) -> Optional[float]:
        radii = [r.estimate.error_radius for r in self.records if r.estimate is not None]
        return statistics.median(radii) if radii else None


# -- scenario parsing -----------------------------------------------------------

def _require_keys(obj: dict, path: str, required: Sequence[str], optional: Sequence[str] = ()):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ScenarioError(f"{path}: unknown key(s) {unknown}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ScenarioError(f"{path}: missing key(s) {missing}")


def _number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ScenarioError(f"{path}: expected a number")
    try:
        value = float(obj)
    except OverflowError:
        raise ScenarioError(f"{path}: too large for a float") from None
    if not math.isfinite(value):
        raise ScenarioError(f"{path}: must be finite")
    return value


def _position(obj: dict, path: str) -> Position:
    _require_keys(obj, path, ("x", "y"), ("z",))
    x = _number(obj["x"], f"{path}.x")
    y = _number(obj["y"], f"{path}.y")
    z = _number(obj.get("z", 0.0), f"{path}.z")
    return Position(x, y, z)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document.

    Checks only the document's shape and types: keys, finite numbers that
    fit a float, positions and `dimension` as the integer 2 or 3. The
    constructors check the values (see the module docstring).
    """
    _require_keys(
        data, "scenario",
        ("name", "dimension", "anchors", "attempts", "channel", "buffer", "seed"),
        ("attack",),
    )
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise ScenarioError("name: expected a non-empty string")
    dimension = data["dimension"]
    if type(dimension) is not int or dimension not in (2, 3):
        raise ScenarioError(f"dimension: must be the integer 2 or 3, got {dimension!r}")

    if not isinstance(data["anchors"], list):
        raise ScenarioError("anchors: expected a list")
    pairs = []
    for i, entry in enumerate(data["anchors"]):
        path = f"anchors[{i}]"
        _require_keys(entry, path, ("id", "x", "y"), ("z",))
        if not isinstance(entry["id"], str):
            raise ScenarioError(f"{path}.id: expected a string")
        pairs.append((entry["id"], _position({k: v for k, v in entry.items() if k != "id"}, path)))
    try:
        anchors = AnchorSet(pairs, dimension=dimension)
    except UwbPolError as exc:
        raise ScenarioError(f"anchors: {exc}") from exc

    if not isinstance(data["attempts"], list):
        raise ScenarioError("attempts: expected a list")
    attempts = []
    for i, entry in enumerate(data["attempts"]):
        path = f"attempts[{i}]"
        _require_keys(entry, path, ("true",), ("claim",))
        true_pos = _position(entry["true"], f"{path}.true")
        claim_pos = _position(entry["claim"], f"{path}.claim") if "claim" in entry else None
        attempts.append(Attempt(true_pos, claim_pos))

    ch = data["channel"]
    _require_keys(ch, "channel", (), ("noise_sigma", "bias", "loss_prob", "max_range"))
    channel = ChannelParams(**{key: _number(value, f"channel.{key}")
                               for key, value in ch.items()})

    attack = None
    if "attack" in data:
        at = data["attack"]
        _require_keys(at, "attack", ("kind", "target_attempt"), ("offset",))
        offset = _position(at["offset"], "attack.offset") if "offset" in at else None
        attack = AttackSpec(at["kind"], at["target_attempt"], offset)

    return Scenario(name, anchors, tuple(attempts), channel,
                    _number(data["buffer"], "buffer"), data["seed"], attack)


def load_scenario(path) -> Scenario:
    """Load and validate a UTF-8 JSON scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from None
    return scenario_from_dict(data)


_PRESETS = {
    "fig4": {
        "name": "fig4",
        "dimension": 2,
        "anchors": [
            {"id": "a0", "x": 2.5, "y": 0.6},
            {"id": "a1", "x": 2.5, "y": 1.15},
            {"id": "a2", "x": 2.85, "y": 1.15},
            {"id": "a3", "x": 2.85, "y": 0.6},
        ],
        "attempts": [
            {"true": {"x": 3.95, "y": 2.705}},
            {"true": {"x": 3.126, "y": 3.035}},
        ],
        "channel": {"noise_sigma": 0.05, "bias": 0.0, "loss_prob": 0.01, "max_range": 60.0},
        "buffer": 1.0,
        "seed": 1,
    },
    "fig5": {
        "name": "fig5",
        "dimension": 2,
        "anchors": [
            {"id": "a0", "x": 1.26, "y": 0.518},
            {"id": "a1", "x": 1.26, "y": -0.0393},
            {"id": "a2", "x": 0.918, "y": -0.0393},
            {"id": "a3", "x": 0.918, "y": 0.518},
        ],
        "attempts": [
            {"true": {"x": 4.2, "y": 12.745}},
            {"true": {"x": 4.931, "y": 13.982}},
        ],
        "channel": {"noise_sigma": 0.05, "bias": 0.0, "loss_prob": 0.01, "max_range": 60.0},
        "buffer": 1.0,
        "seed": 2,
    },
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def get_preset(name: str) -> Scenario:
    """Built-in scenarios mirroring the short- and long-distance experiments."""
    if name not in _PRESETS:
        raise ScenarioError(f"unknown preset {name!r}; have {list(PRESET_NAMES)}")
    return scenario_from_dict(_PRESETS[name])


# -- attacks ---------------------------------------------------------------------

def _replay_tamper(stale_session_id: bytes, stale_code: bytes):
    def tamper(frame: RangingFrame) -> RangingFrame:
        return replace(frame, session_id=stale_session_id, code=stale_code)

    return tamper


# -- execution ---------------------------------------------------------------------

def run(scenario: Scenario, seed_override: Optional[int] = None) -> RunReport:
    """Run every attempt of the scenario as an independent session."""
    if seed_override is not None:
        scenario = replace(scenario, seed=seed_override)  # Scenario checks the seed
    seed = scenario.seed
    master = random.Random(seed)
    clock = SimClock()
    lg = Ledger(seed=seed, clock=clock)
    lg.install_chaincode(DEFAULT_CHANNEL, PolChaincode())
    uav_identity = lg.enroll_identity(UAV_IDENTITY, Role.UAV)
    platform_identity = lg.enroll_identity(PLATFORM_IDENTITY, Role.PLATFORM)

    channel = ChannelModel(**asdict(scenario.channel), seed=master.getrandbits(64), clock=clock)
    anchor_nodes = tuple(RadioNode(a_id, pos) for a_id, pos in scenario.anchors.anchors)
    platform_party = PlatformParty(platform_identity, scenario.anchors, anchor_nodes)

    report = RunReport(scenario.name, seed, scenario.buffer)
    attack = scenario.attack
    last_session: Optional[tuple[bytes, bytes]] = None  # (session_id, code_platform)

    for index, attempt in enumerate(scenario.attempts):
        session_rng = random.Random(master.getrandbits(64))
        claim_pos = attempt.claimed()
        identity = uav_identity
        poll_tamper = None

        if attack is not None and attack.target_attempt == index:
            if attack.kind == ATTACK_GNSS_SPOOF:
                off = attack.offset
                claim_pos = Position(claim_pos.x + off.x, claim_pos.y + off.y,
                                     claim_pos.z + off.z)
            elif attack.kind == ATTACK_WRONG_IDENTITY:
                # Certified by another authority, so never enrolled here.
                rogue_authority = issue_identity(seed, "rogue-authority", Role.AUTHORITY,
                                                 clock.now_ns)
                identity = issue_identity(seed, "rogue-uav", Role.UAV, clock.now_ns,
                                          rogue_authority)
            elif attack.kind == ATTACK_CODE_REPLAY:
                if last_session is not None:
                    stale_sid, stale_code = last_session
                else:
                    # No earlier session this run: replay one from a past run.
                    stale = random.Random(master.getrandbits(64))
                    stale_sid, stale_code = stale.randbytes(16), stale.randbytes(16)
                poll_tamper = _replay_tamper(stale_sid, stale_code)

        uav_node = RadioNode(UAV_NODE_ID, attempt.true_position)
        claim = LocationClaim(claim_pos, clock.now_ns)
        outcome = run_session(
            UavParty(identity, uav_node),
            platform_party,
            lg,
            channel,
            claim,
            session_rng,
            buffer=scenario.buffer,
            poll_tamper=poll_tamper,
        )
        last_session = (outcome.uav.session_id, outcome.uav.code_platform)

        platform_view = outcome.platform
        uav_view = outcome.uav
        abort_reason = uav_view.abort_reason or platform_view.abort_reason
        report.records.append(AttemptRecord(
            index=index,
            true_position=attempt.true_position,
            claim=claim,
            estimate=platform_view.estimate,
            verdict=platform_view.verdict or uav_view.verdict,
            terminal_state=outcome.terminal_state.value,
            abort_reason=abort_reason,
            trace_len=len(outcome.trace),
        ))

    report.ledger = lg
    return report


# -- parameter sweeps -----------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    parameter: str
    value: float
    reps: int
    acceptance_rate: float
    median_error_radius: Optional[float]
    median_claim_distance: Optional[float]


def _scaled_about(center: Position, p: Position, s: float) -> Position:
    return Position(center.x + s * (p.x - center.x),
                    center.y + s * (p.y - center.y),
                    center.z + s * (p.z - center.z))


def apply_parameter(scenario: Scenario, parameter: str, value: float) -> Scenario:
    """The scenario with one sweep parameter set; the constructors check the result."""
    if parameter == "noise_sigma":
        return replace(scenario, channel=replace(scenario.channel, noise_sigma=value))
    if parameter == "buffer":
        return replace(scenario, buffer=value)
    if parameter == "distance_scale":
        if not (math.isfinite(value) and value > 0):
            raise ScenarioError(f"distance_scale: must be finite and > 0, got {value!r}")
        center = scenario.anchors.centroid()
        attempts = tuple(
            Attempt(
                _scaled_about(center, a.true_position, value),
                None if a.claim_position is None
                else _scaled_about(center, a.claim_position, value),
            )
            for a in scenario.attempts
        )
        return replace(scenario, attempts=attempts)
    raise ValueError(f"unknown sweep parameter {parameter!r}; have {list(SWEEP_PARAMETERS)}")


def sweep(scenario: Scenario, parameter: str, values: Sequence[float],
          reps: int = DEFAULT_SWEEP_REPS) -> list[SweepRow]:
    """One aggregate row per parameter value over `reps` seeded repetitions.

    Repetition k always runs with seed scenario.seed + k, so rows for
    different values are seed-paired.
    """
    if not values:
        raise ValueError("values must be non-empty")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    variants = [apply_parameter(scenario, parameter, value) for value in values]
    rows = []
    for value, variant in zip(values, variants):
        accepted = 0
        total = 0
        radii: list[float] = []
        dists: list[float] = []
        for rep in range(reps):
            report = run(variant, seed_override=scenario.seed + rep)
            for rec in report.records:
                total += 1
                accepted += rec.authorized
                if rec.estimate is not None:
                    radii.append(rec.estimate.error_radius)
                if rec.claim_to_estimate_distance is not None:
                    dists.append(rec.claim_to_estimate_distance)
        rows.append(SweepRow(
            parameter=parameter,
            value=value,
            reps=reps,
            acceptance_rate=accepted / total,
            median_error_radius=statistics.median(radii) if radii else None,
            median_claim_distance=statistics.median(dists) if dists else None,
        ))
    return rows
