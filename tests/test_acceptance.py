"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every threshold is asserted at the stated tolerance; seeds are fixed
so results are reproducible.
"""

import base64
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import replace


from uwbpol import geo, sim, uwb
from uwbpol.cli import main as cli_main
from uwbpol.errors import GeometryError, UnauthorizedError, ChaincodeError
from uwbpol.geo import AnchorSet, Position, RangeStats
from uwbpol.ledger import (
    ASSET_CREATE,
    ASSET_DELETE,
    ASSET_UPDATE,
    Ledger,
    Role,
    encode_asset_delete_payload,
    encode_asset_payload,
    replay_audit_log,
)
from uwbpol.pol import standard_chaincodes
from uwbpol.sim import ATTACK_CODE_REPLAY, ATTACK_GNSS_SPOOF, ATTACK_WRONG_IDENTITY, AttackSpec

import safety_model
from conftest import cli_env
from _oracles import grid_argmin

N_SEEDS = 100


def _verdict_line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {status}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _preset_runs(name: str, attack=None):
    scenario = sim.get_preset(name)
    if attack is not None:
        scenario = replace(scenario, attack=attack)
    return [sim.run(scenario, seed_override=seed) for seed in range(N_SEEDS)]


def test_criterion_1_fig4_reproduction():
    t0 = time.perf_counter()
    reports = _preset_runs("fig4")
    elapsed = time.perf_counter() - t0
    full_auth = sum(r.acceptance_rate == 1.0 for r in reports)
    ok = full_auth >= 99 and elapsed < 5.0
    _verdict_line(1, ok,
                  f"fig4 both-attempts-authorized in {full_auth}/{N_SEEDS} runs "
                  f"(need >= 99), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_fig5_reproduction_and_ordering():
    t0 = time.perf_counter()
    reports5 = _preset_runs("fig5")
    elapsed = time.perf_counter() - t0
    full_auth = sum(r.acceptance_rate == 1.0 for r in reports5)

    reports4 = _preset_runs("fig4")
    radii4 = [rec.estimate.error_radius for r in reports4 for rec in r.records
              if rec.estimate is not None]
    radii5 = [rec.estimate.error_radius for r in reports5 for rec in r.records
              if rec.estimate is not None]
    med4, med5 = statistics.median(radii4), statistics.median(radii5)

    ok = full_auth >= 99 and elapsed < 5.0 and med5 > med4
    _verdict_line(2, ok,
                  f"fig5 authorized in {full_auth}/{N_SEEDS} runs (>= 99), "
                  f"runtime {elapsed:.2f}s (< 5s), median error radius "
                  f"fig5 {med5:.3f} m > fig4 {med4:.3f} m")


def test_criterion_3_attack_rejection():
    spoof = AttackSpec(ATTACK_GNSS_SPOOF, 0, Position(2.0, 0.0, 0.0))
    spoof_reports = _preset_runs("fig4", attack=spoof)
    rejected = sum(r.records[0].terminal_state == "REJECTED" for r in spoof_reports)

    wrong_id_reports = _preset_runs("fig4", attack=AttackSpec(ATTACK_WRONG_IDENTITY, 0))
    wid_aborted = sum(
        r.records[0].terminal_state == "ABORTED" and r.records[0].estimate is None
        for r in wrong_id_reports)

    replay_reports = _preset_runs("fig4", attack=AttackSpec(ATTACK_CODE_REPLAY, 0))
    replay_aborted = sum(
        r.records[0].terminal_state == "ABORTED" and r.records[0].estimate is None
        for r in replay_reports)

    ok = rejected >= 99 and wid_aborted == N_SEEDS and replay_aborted == N_SEEDS
    _verdict_line(3, ok,
                  f"2m spoof rejected {rejected}/{N_SEEDS} (>= 99); wrong identity "
                  f"aborted pre-ranging {wid_aborted}/{N_SEEDS} (= {N_SEEDS}); code "
                  f"replay aborted pre-ranging {replay_aborted}/{N_SEEDS} (= {N_SEEDS})")


def _random_solver_scenario(rng):
    while True:
        pts = [(rng.uniform(0, 20), rng.uniform(0, 20))
               for _ in range(rng.randint(4, 6))]
        try:
            anchors = AnchorSet([(f"a{i}", Position(x, y))
                                 for i, (x, y) in enumerate(pts)])
            return anchors
        except GeometryError:
            continue


def test_criterion_4_solver_oracle():
    t0 = time.perf_counter()
    rng = random.Random(4242)
    worst_gap = 0.0
    worst_recovery = 0.0
    for _ in range(50):
        anchors = _random_solver_scenario(rng)
        target = Position(rng.uniform(0, 20), rng.uniform(0, 20))
        sigma = rng.uniform(0.0, 0.1)

        exact = [RangeStats(1, geo.distance(pos, target)) for _, pos in anchors.anchors]
        est0 = geo.multilaterate(anchors, exact)
        assert est0.converged
        worst_recovery = max(worst_recovery, geo.distance(est0.position, target))

        noisy = [max(geo.distance(pos, target) + (rng.gauss(0, sigma) if sigma else 0.0), 0.0)
                 for _, pos in anchors.anchors]
        est = geo.multilaterate(anchors, [RangeStats(1, d) for d in noisy])
        assert est.converged
        pts = [[p.x, p.y] for _, p in anchors.anchors]
        dists = noisy
        (gx, gy), _ = grid_argmin(pts, dists, (0, 20), (0, 20), step=0.01)
        worst_gap = max(worst_gap,
                        math.hypot(est.position.x - gx, est.position.y - gy))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 0.02 and worst_recovery < 1e-6 and elapsed < 30.0
    _verdict_line(4, ok,
                  f"50 random scenarios: worst grid gap {worst_gap:.4f} m (<= 0.02), "
                  f"worst noise-free recovery {worst_recovery:.2e} m (< 1e-6), "
                  f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_5_ranging_statistics():
    a = uwb.RadioNode("a0", Position(0, 0))
    b = uwb.RadioNode("uav", Position(5, 0))
    channel = uwb.ChannelModel(noise_sigma=0.05, loss_prob=0.0, seed=42)
    vals = []
    for _ in range(10_000):
        d, _ = uwb.ranging_exchange(a, b, channel, bytes(16), b"B" * 16, b"A" * 16)
        vals.append(d)
    mean = statistics.fmean(vals)
    std = statistics.stdev(vals)
    # 3 standard errors around 5 m: sigma/sqrt(n) = 0.0005.
    ok = abs(mean - 5.0) <= 3 * 0.05 / math.sqrt(10_000) and 0.048 <= std <= 0.052
    _verdict_line(5, ok,
                  f"10^4 exchanges at 5 m: mean {mean:.5f} (within 5 +/- 0.0015), "
                  f"std {std:.5f} (within [0.048, 0.052])")


def test_criterion_6_ledger_fuzz_and_tamper(tmp_path):
    lg = Ledger(seed=2024)
    alice = lg.enroll_identity("alice", Role.UAV)
    bob = lg.enroll_identity("bob", Role.PLATFORM)
    eve = Ledger(seed=666).enroll_identity("eve", Role.UAV)  # forged elsewhere

    rng = random.Random(77)
    mirror: dict[str, tuple[bytes, str, int]] = {}  # id -> (data, owner, version)
    committed = 0
    rejected = 0
    receipts = []  # of the committed submits, in order
    parties = {"alice": alice, "bob": bob}

    while committed < 1000:
        op = rng.random()
        actor_name = rng.choice(["alice", "bob"])
        actor = parties[actor_name]
        if op < 0.08:
            # Forged submitter must never mutate anything.
            try:
                lg.submit_transaction(eve, "pol", ASSET_CREATE,
                                      encode_asset_payload(f"x{rng.randint(0, 999)}", b"evil"))
                raise AssertionError("forged identity was accepted")
            except UnauthorizedError:
                rejected += 1
            continue
        if op < 0.5 or not mirror:
            asset_id = f"a{rng.randint(0, 400)}"
            payload = encode_asset_payload(asset_id, rng.randbytes(8))
            try:
                receipts.append(lg.submit_transaction(actor, "pol", ASSET_CREATE, payload))
            except ChaincodeError:
                rejected += 1
                continue
            mirror[asset_id] = (payload, actor_name, 1)
            committed += 1
        elif op < 0.8:
            asset_id = rng.choice(sorted(mirror))
            data = rng.randbytes(8)
            payload = encode_asset_payload(asset_id, data)
            try:
                receipts.append(lg.submit_transaction(actor, "pol", ASSET_UPDATE, payload))
            except (ChaincodeError, UnauthorizedError):
                rejected += 1
                continue
            _, owner, version = mirror[asset_id]
            mirror[asset_id] = (payload, owner, version + 1)
            committed += 1
        else:
            asset_id = rng.choice(sorted(mirror))
            try:
                receipts.append(lg.submit_transaction(actor, "pol", ASSET_DELETE,
                                                      encode_asset_delete_payload(asset_id)))
            except (ChaincodeError, UnauthorizedError):
                rejected += 1
                continue
            del mirror[asset_id]
            committed += 1

    # Heights gapless 1..N and record count exact: the ledger holds exactly
    # the committed submits, in the order of their receipts.
    txs = lg.transactions("pol")
    assert len(txs) == committed
    gapless = [r.height for r in receipts] == list(range(1, committed + 1))
    records_exact = [tx.tx_id for tx in txs] == [r.tx_id for r in receipts]

    # Live state matches the independent mirror of chaincode semantics.
    live = lg.assets_snapshot("pol")
    mirror_match = (
        set(live) == set(mirror)
        and all(
            live[k].version == mirror[k][2] and live[k].owner == mirror[k][1]
            for k in mirror
        )
    )

    # Audit replay reproduces state bit-exactly.
    audit = tmp_path / "fuzz.log"
    lg.write_audit_log(audit)
    result = replay_audit_log(audit, chaincode_factory=standard_chaincodes)
    replay_match = result.ok and result.assets["pol"] == live

    # One-byte payload tamper at a known height, detected by cmd_replay.
    lines = audit.read_text().splitlines()
    tampered_height = None
    for i, line in enumerate(lines):
        parts = line.split("\t")
        if parts[2] == "pol" and parts[0] == "3":
            raw = bytearray(base64.b64decode(parts[6]))
            raw[0] ^= 0x20
            parts[6] = base64.b64encode(bytes(raw)).decode()
            lines[i] = "\t".join(parts)
            tampered_height = 3
            break
    audit.write_text("\n".join(lines) + "\n")
    tampered = replay_audit_log(audit, chaincode_factory=standard_chaincodes)
    tamper_detected = (not tampered.ok and tampered.failure_height == tampered_height)

    ok = (gapless and records_exact and mirror_match and replay_match and tamper_detected
          and rejected > 0)
    _verdict_line(6, ok,
                  f"1000 committed txs: heights gapless={gapless}, records exact="
                  f"{records_exact}, zero unauthorized mutations="
                  f"{mirror_match} ({rejected} rejections), replay bit-exact="
                  f"{replay_match}, tamper at height {tampered_height} detected="
                  f"{tamper_detected}")


def test_criterion_7_protocol_safety():
    report = safety_model.explore(max_transitions=100_000)
    ok = (report.transitions <= 100_000 and report.violations == []
          and report.authorized_states > 0)
    _verdict_line(7, ok,
                  f"exhaustive exploration: {report.states} states, "
                  f"{report.transitions} transitions (<= 1e5), "
                  f"{report.authorized_states} authorized states all satisfy "
                  f"cert+code+verdict, violations={len(report.violations)}")


def test_criterion_8_process_determinism(tmp_path):
    artefacts = []
    for tag in ("p1", "p2"):
        out = tmp_path / f"{tag}.csv"
        audit = tmp_path / f"{tag}.log"
        proc = subprocess.run(
            [sys.executable, "-m", "uwbpol", "run", "--preset", "fig5",
             "--seed", "23", "--out", str(out), "--audit", str(audit)],
            capture_output=True, text=True, timeout=300, env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        artefacts.append((out.read_bytes(), audit.read_bytes()))
    same_csv = artefacts[0][0] == artefacts[1][0]
    same_audit = artefacts[0][1] == artefacts[1][1]
    ok = same_csv and same_audit
    _verdict_line(8, ok,
                  f"two process invocations: csv identical={same_csv}, "
                  f"audit identical={same_audit}")
