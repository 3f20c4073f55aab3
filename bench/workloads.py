"""The benchmark's workloads: seeded inputs, one op, and the expected outcome.

Each workload draws an endless, deterministic stream of op inputs from the
workload seed, runs one op through the package's public functions, and checks
the op's outcome outside the timed region. A failed check is reported by
name. Module attributes are looked up at call time (`api.sim.run`, not a
name bound at import), so a traced run sees the instrumented functions.
"""

from __future__ import annotations

import itertools
import random
import statistics
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Optional

PRESETS = ("fig4", "fig5")
ATTACKS = ("GNSS_SPOOF", "WRONG_IDENTITY", "CODE_REPLAY")
SPOOF_OFFSET_M = 2.0  # twice the presets' 1 m buffer, so the claim must fail
TXS_PER_EPISODE = 40
READS_PER_EPISODE = 4
SIM_LOG_KINDS = ("HONEST",) + ATTACKS  # one recorded sim.run audit log each

AUTHORIZED, REJECTED, ABORTED = "AUTHORIZED", "REJECTED", "ABORTED"


@dataclass
class Stats:
    """Simulated outputs collected over a run's ops."""

    session_sim_ms: list = field(default_factory=list)
    radii: dict = field(default_factory=lambda: defaultdict(list))  # label -> [m]

    def all_radii(self) -> list:
        return [r for rs in self.radii.values() for r in rs]


def _session_sim_ms(report) -> list[float]:
    """Simulated ms of each session: a claim is stamped when its session starts."""
    starts = [rec.claim.timestamp for rec in report.records]
    starts.append(report.ledger.clock.now_ns)
    return [(b - a) / 1e6 for a, b in zip(starts, starts[1:])]


def _unexpected(rec, expected_state: str, needs_estimate: bool) -> bool:
    has_estimate = rec.estimate is not None
    return rec.terminal_state != expected_state or has_estimate != needs_estimate


def _report_outcome(api, report) -> tuple:
    """Everything a run computes: each record in full and the ledger's assets."""
    snapshot = report.ledger.assets_snapshot(api.ledger.DEFAULT_CHANNEL)
    return repr(report), sorted(snapshot.items())


def fig4_run(api, kind: str, seed: int):
    """`sim.run` of fig4, with attack `kind` on attempt 0 unless it is HONEST."""
    scenario = api.sim.get_preset("fig4")
    if kind != "HONEST":
        offset = api.geo.Position(SPOOF_OFFSET_M, 0.0) if kind == "GNSS_SPOOF" else None
        scenario = replace(scenario, attack=api.sim.AttackSpec(kind, 0, offset))
    return api.sim.run(scenario, seed_override=seed)


# -- presets -----------------------------------------------------------------------

@dataclass(frozen=True)
class PresetOp:
    kind: str  # the preset
    seed: int


class Presets:
    """One op is `sim.run(get_preset(p), seed_override=s)`, alternating fig4/fig5."""

    name = "presets"
    slowdown_exponent = 0.9

    def __init__(self, api, out_dir: Path):
        self.api = api

    def inputs(self, seed: int) -> Iterator[PresetOp]:
        rng = random.Random(seed)
        while True:
            for preset in PRESETS:
                yield PresetOp(preset, rng.getrandbits(32))

    def run(self, op: PresetOp):
        sim = self.api.sim
        return sim.run(sim.get_preset(op.kind), seed_override=op.seed)

    def check(self, op: PresetOp, report, stats: Stats) -> list[str]:
        stats.session_sim_ms.extend(_session_sim_ms(report))
        failed = []
        for rec in report.records:
            if _unexpected(rec, AUTHORIZED, needs_estimate=True):
                failed.append("honest-session-authorized")
            else:
                stats.radii[op.kind].append(rec.estimate.error_radius)
        return failed

    def outcome(self, report) -> tuple:
        return _report_outcome(self.api, report)

    def finish(self, stats: Stats) -> list[str]:
        if not (stats.radii["fig4"] and stats.radii["fig5"]):
            return ["fig5-error-radius-above-fig4"]
        fig4 = statistics.median(stats.radii["fig4"])
        fig5 = statistics.median(stats.radii["fig5"])
        return [] if fig5 > fig4 else ["fig5-error-radius-above-fig4"]


# -- attacks -----------------------------------------------------------------------

@dataclass(frozen=True)
class AttackOp:
    kind: str
    seed: int


class Attacks:
    """One op is a `fig4` run with an attack on attempt 0; attempt 1 is honest."""

    name = "attacks"
    slowdown_exponent = 0.9
    EXPECTED = {  # attack -> (terminal state of attempt 0, has an estimate)
        "GNSS_SPOOF": (REJECTED, True),
        "WRONG_IDENTITY": (ABORTED, False),
        "CODE_REPLAY": (ABORTED, False),
    }

    def __init__(self, api, out_dir: Path):
        self.api = api

    def inputs(self, seed: int) -> Iterator[AttackOp]:
        rng = random.Random(seed)
        while True:
            for kind in ATTACKS:
                yield AttackOp(kind, rng.getrandbits(32))

    def run(self, op: AttackOp):
        return fig4_run(self.api, op.kind, op.seed)

    def check(self, op: AttackOp, report, stats: Stats) -> list[str]:
        stats.session_sim_ms.extend(_session_sim_ms(report))
        attacked, honest = report.records
        failed = []
        state, has_estimate = self.EXPECTED[op.kind]
        if _unexpected(attacked, state, has_estimate):
            failed.append(f"{op.kind.lower().replace('_', '-')}-{state.lower()}")
        if _unexpected(honest, AUTHORIZED, needs_estimate=True):
            failed.append("honest-session-authorized")
        for rec in report.records:
            if rec.estimate is not None:
                stats.radii["fig4"].append(rec.estimate.error_radius)
        return failed

    def outcome(self, report) -> tuple:
        return _report_outcome(self.api, report)

    def finish(self, stats: Stats) -> list[str]:
        return []


# -- ledger ------------------------------------------------------------------------

@dataclass(frozen=True)
class SimLog:
    """An audit log written by `sim.run`, and what its replay must rebuild."""

    path: Path
    records: int
    assets: dict  # asset id -> Asset on the default channel


@dataclass(frozen=True)
class Episode:
    seed: int
    txs: tuple  # (submitter key, tx type, payload, expected outcome)
    reads: tuple  # (asset id, expected data or None when absent)
    final: dict  # asset id -> (data, owner name, version) after the episode
    sim_log: SimLog
    kind = "episode"


OWNERS = {"uav": "uav-1", "pad": "pad-1"}
OTHER = {"uav": "pad", "pad": "uav"}


class LedgerEpisodes:
    """One op is an audited ledger episode: commit, read, write and replay logs.

    The ledger is set up as `sim.run` sets up its own: `PolChaincode` beside
    the asset chaincode on the default channel. No caller in the package
    submits asset transactions, so there is no traffic to take the asset mix
    from. It is a coverage mix drawn against a model of the asset chaincode,
    so every transaction's outcome is known in advance: committed ("ok"),
    refused on identity or ownership ("unauthorized"), or refused by
    chaincode. The POL traffic is the program's own: each op also replays an
    audit log that `sim.run` wrote, as `uwbpol run --audit` and
    `uwbpol replay` do. Replays use `pol.standard_chaincodes`, as the CLI's.
    """

    name = "ledger"
    slowdown_exponent = 0.8

    def __init__(self, api, out_dir: Path):
        self.api = api
        self.out_dir = out_dir
        self.log_path = out_dir / "ledger-episode.audit"

    def inputs(self, seed: int) -> Iterator[Episode]:
        api = self.api
        rng = random.Random(seed)
        # An identity certified by another ledger's authority.
        self.foreign = api.ledger.Ledger(seed=rng.getrandbits(64)).enroll_identity(
            "rogue-1", api.ledger.Role.UAV)
        sim_logs = [self._record_sim_log(kind, rng.getrandbits(32)) for kind in SIM_LOG_KINDS]
        for k in itertools.count():
            yield self._episode(rng, sim_logs[k % len(sim_logs)])

    def _record_sim_log(self, kind: str, seed: int) -> SimLog:
        report = fig4_run(self.api, kind, seed)
        path = self.out_dir / f"sim-{kind.lower()}.audit"
        report.ledger.write_audit_log(path)
        with open(path, encoding="utf-8") as fh:
            records = sum(1 for _ in fh)
        return SimLog(path, records,
                      report.ledger.assets_snapshot(self.api.ledger.DEFAULT_CHANNEL))

    def _episode(self, rng: random.Random, sim_log: SimLog) -> Episode:
        lg = self.api.ledger
        asset = lg.encode_asset_payload
        model: dict[str, list] = {}  # asset id -> [data, owner key, version]
        txs = []
        for k in range(TXS_PER_EPISODE):
            r = rng.random()
            who = rng.choice(("uav", "pad"))
            data = rng.randbytes(rng.randrange(8, 64))
            if r < 0.10:
                txs.append(("foreign", lg.ASSET_CREATE, asset(f"f{k}", data), "unauthorized"))
            elif r < 0.16 and model:
                aid = rng.choice(sorted(model))
                txs.append((who, lg.ASSET_CREATE, asset(aid, data), "chaincode"))
            elif r < 0.20:
                txs.append((who, lg.ASSET_UPDATE, asset(f"missing{k}", data), "chaincode"))
            elif r < 0.26 and model:
                aid = rng.choice(sorted(model))
                txs.append((OTHER[model[aid][1]], lg.ASSET_UPDATE, asset(aid, data),
                            "unauthorized"))
            elif r < 0.60 or not model:
                aid = f"a{k}"
                model[aid] = [data, who, 1]
                txs.append((who, lg.ASSET_CREATE, asset(aid, data), "ok"))
            elif r < 0.85:
                aid = rng.choice(sorted(model))
                model[aid][0] = data
                model[aid][2] += 1
                txs.append((model[aid][1], lg.ASSET_UPDATE, asset(aid, data), "ok"))
            else:
                aid = rng.choice(sorted(model))
                owner = model.pop(aid)[1]
                txs.append((owner, lg.ASSET_DELETE, lg.encode_asset_delete_payload(aid), "ok"))
        present = sorted(model)
        reads = [(aid, model[aid][0])
                 for aid in rng.sample(present, min(READS_PER_EPISODE - 1, len(present)))]
        reads.append(("never-created", None))
        final = {aid: (d, OWNERS[o], v) for aid, (d, o, v) in model.items()}
        return Episode(rng.getrandbits(64), tuple(txs), tuple(reads), final, sim_log)

    def run(self, ep: Episode):
        api = self.api
        lg_mod, errors = api.ledger, api.errors
        channel = lg_mod.DEFAULT_CHANNEL
        lg = lg_mod.Ledger(seed=ep.seed)
        lg.install_chaincode(channel, api.pol.PolChaincode())
        parties = {
            "uav": lg.enroll_identity(OWNERS["uav"], lg_mod.Role.UAV),
            "pad": lg.enroll_identity(OWNERS["pad"], lg_mod.Role.PLATFORM),
            "foreign": self.foreign,
        }
        outcomes = []
        for who, tx_type, payload, _ in ep.txs:
            try:
                lg.submit_transaction(parties[who], channel, tx_type, payload)
                outcomes.append("ok")
            except errors.UnauthorizedError:
                outcomes.append("unauthorized")
            except errors.ChaincodeError:
                outcomes.append("chaincode")
        reads: list[Optional[bytes]] = []
        for aid, _ in ep.reads:
            try:
                reads.append(lg.query_asset(channel, aid).data)
            except errors.AssetNotFoundError:
                reads.append(None)
        lg.write_audit_log(self.log_path)
        chaincodes = api.pol.standard_chaincodes
        replay = lg_mod.replay_audit_log(self.log_path, chaincode_factory=chaincodes)
        sim_replay = lg_mod.replay_audit_log(ep.sim_log.path, chaincode_factory=chaincodes)
        return outcomes, reads, replay, lg.assets_snapshot(channel), sim_replay

    def check(self, ep: Episode, out, stats: Stats) -> list[str]:
        outcomes, reads, replay, snapshot, sim_replay = out
        channel = self.api.ledger.DEFAULT_CHANNEL
        failed = set()
        for (who, _, _, expected), got in zip(ep.txs, outcomes):
            if got != expected:
                failed.add("foreign-submit-unauthorized" if who == "foreign"
                           else "ledger-tx-outcome")
        if reads != [data for _, data in ep.reads]:
            failed.add("query-asset")
        state = {a.asset_id: (a.data, a.owner, a.version) for a in snapshot.values()}
        if state != ep.final:
            failed.add("ledger-state")
        if not replay.ok:
            failed.add("replay-ok")
        elif replay.assets.get(channel, {}) != snapshot:
            failed.add("replay-assets-equal-snapshot")
        if not (sim_replay.ok and sim_replay.records == ep.sim_log.records):
            failed.add("sim-log-replay-ok")
        elif sim_replay.assets.get(channel, {}) != ep.sim_log.assets:
            failed.add("sim-log-replay-assets")
        return sorted(failed)

    def outcome(self, out) -> tuple:
        outcomes, reads, replay, snapshot, sim_replay = out
        return (outcomes, reads, repr(replay), sorted(snapshot.items()), repr(sim_replay))

    def finish(self, stats: Stats) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Presets, Attacks, LedgerEpisodes)}
