"""Scenario loading, run orchestration, attacks, and parameter sweeps."""

import copy
import json
import math
from dataclasses import replace

import pytest

from uwbpol import ledger, pol, sim
from uwbpol.errors import ScenarioError
from uwbpol.geo import AnchorSet, Position
from uwbpol.sim import (
    ATTACK_CODE_REPLAY,
    ATTACK_GNSS_SPOOF,
    ATTACK_WRONG_IDENTITY,
    AttackSpec,
    get_preset,
    load_scenario,
    run,
    scenario_from_dict,
    sweep,
)


class TestPresets:
    def test_fig4_contents(self):
        sc = get_preset("fig4")
        assert sc.name == "fig4"
        assert [(p.x, p.y) for _, p in sc.anchors.anchors] == [
            (2.5, 0.6), (2.5, 1.15), (2.85, 1.15), (2.85, 0.6)]
        assert [(a.true_position.x, a.true_position.y) for a in sc.attempts] == [
            (3.95, 2.705), (3.126, 3.035)]
        assert sc.buffer == 1.0

    def test_fig5_contents(self):
        sc = get_preset("fig5")
        assert [(p.x, p.y) for _, p in sc.anchors.anchors] == [
            (1.26, 0.518), (1.26, -0.0393), (0.918, -0.0393), (0.918, 0.518)]
        assert [(a.true_position.x, a.true_position.y) for a in sc.attempts] == [
            (4.2, 12.745), (4.931, 13.982)]
        assert sc.buffer == 1.0

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError):
            get_preset("fig6")


def valid_doc():
    return {
        "name": "t",
        "dimension": 2,
        "anchors": [
            {"id": "a0", "x": 0.0, "y": 0.0},
            {"id": "a1", "x": 4.0, "y": 0.0},
            {"id": "a2", "x": 4.0, "y": 4.0},
            {"id": "a3", "x": 0.0, "y": 4.0},
        ],
        "attempts": [{"true": {"x": 2.0, "y": 2.0}}],
        "channel": {"noise_sigma": 0.05, "bias": 0.0, "loss_prob": 0.0, "max_range": 60},
        "buffer": 1.0,
        "seed": 5,
    }


class TestScenarioValidation:
    def test_valid_document(self):
        sc = scenario_from_dict(valid_doc())
        assert sc.name == "t" and len(sc.attempts) == 1

    def test_two_anchors_rejected_citing_invariant(self):
        doc = valid_doc()
        doc["anchors"] = doc["anchors"][:2]
        with pytest.raises(ScenarioError, match="anchors"):
            scenario_from_dict(doc)

    def test_unknown_top_level_key(self):
        doc = valid_doc()
        doc["extra"] = 1
        with pytest.raises(ScenarioError, match="unknown key"):
            scenario_from_dict(doc)

    def test_unknown_nested_key_with_path(self):
        doc = valid_doc()
        doc["attempts"][0]["oops"] = 1
        with pytest.raises(ScenarioError, match=r"attempts\[0\]"):
            scenario_from_dict(doc)

    def test_missing_required_key(self):
        doc = valid_doc()
        del doc["buffer"]
        with pytest.raises(ScenarioError, match="buffer"):
            scenario_from_dict(doc)

    def test_z_nonzero_in_2d_rejected(self):
        doc = valid_doc()
        doc["attempts"][0]["true"]["z"] = 1.0
        with pytest.raises(ScenarioError, match=r"\.z"):
            scenario_from_dict(doc)

    def test_empty_attempts_rejected(self):
        doc = valid_doc()
        doc["attempts"] = []
        with pytest.raises(ScenarioError, match="attempts"):
            scenario_from_dict(doc)

    def test_bad_loss_prob(self):
        doc = valid_doc()
        doc["channel"]["loss_prob"] = 1.0
        with pytest.raises(ScenarioError, match="loss_prob"):
            scenario_from_dict(doc)

    def test_bad_buffer(self):
        doc = valid_doc()
        doc["buffer"] = 0
        with pytest.raises(ScenarioError, match="buffer"):
            scenario_from_dict(doc)

    def test_attack_validation(self):
        doc = valid_doc()
        doc["attack"] = {"kind": "GNSS_SPOOF", "target_attempt": 0}
        with pytest.raises(ScenarioError, match="offset"):
            scenario_from_dict(doc)
        doc["attack"] = {"kind": "NOPE", "target_attempt": 0}
        with pytest.raises(ScenarioError, match="kind"):
            scenario_from_dict(doc)
        doc["attack"] = {"kind": "WRONG_IDENTITY", "target_attempt": 5}
        with pytest.raises(ScenarioError, match="target_attempt"):
            scenario_from_dict(doc)

    def test_integer_too_large_for_float(self):
        doc = valid_doc()
        doc["anchors"][0]["x"] = 10**400
        with pytest.raises(ScenarioError, match=r"anchors\[0\]\.x"):
            scenario_from_dict(doc)

    def test_anchor_id_must_be_a_radio_node_id(self):
        for bad in ("a\x00", "uav", "", "abcdefghi"):
            doc = valid_doc()
            doc["anchors"][0]["id"] = bad
            with pytest.raises(ScenarioError, match=r"anchors\[0\]\.id"):
                scenario_from_dict(doc)

    def test_dimension_must_be_the_integer(self):
        for bad in (2.0, True, "2", 4):
            doc = valid_doc()
            doc["dimension"] = bad
            with pytest.raises(ScenarioError, match="dimension"):
                scenario_from_dict(doc)

    def test_attack_offset_only_for_spoof(self):
        doc = valid_doc()
        doc["attack"] = {"kind": "WRONG_IDENTITY", "target_attempt": 0,
                         "offset": {"x": 1.0, "y": 0.0}}
        with pytest.raises(ScenarioError, match="attack.offset"):
            scenario_from_dict(doc)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(valid_doc()), encoding="utf-8")
        sc = load_scenario(path)
        assert sc.name == "t"

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(path)

    def test_load_hostile_bytes(self, tmp_path):
        path = tmp_path / "bad.json"
        for raw in (b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000):
            path.write_bytes(raw)
            with pytest.raises(ScenarioError, match="JSON"):
                load_scenario(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.json")


class TestScenarioInvariants:
    """The constructors check a scenario however it was built."""

    def test_channel_checked_on_replace(self):
        ch = get_preset("fig4").channel
        for key, value in (("noise_sigma", -1.0), ("noise_sigma", math.nan),
                           ("bias", math.nan), ("loss_prob", math.inf),
                           ("max_range", math.nan), ("max_range", 0.0),
                           # finite, but past the channel ceiling of 1e6 m
                           ("noise_sigma", 1e160), ("noise_sigma", 1e150), ("bias", 1e17),
                           ("bias", -1e300), ("max_range", 1e17)):
            with pytest.raises(ScenarioError, match=rf"channel\.{key}:"):
                replace(ch, **{key: value})

    def test_channel_at_its_ceiling_runs(self):
        ch = get_preset("fig4").channel
        at_ceiling = replace(ch, noise_sigma=1e6, bias=-1e6, max_range=1e6)
        report = run(replace(get_preset("fig4"), channel=at_ceiling), seed_override=1)
        assert {r.terminal_state for r in report.records} <= {"AUTHORIZED", "REJECTED",
                                                              "ABORTED"}

    def test_scenario_checked_on_replace(self):
        sc = get_preset("fig4")
        off_plane = Position(3.95, 2.705, 3.0)  # z = 3 in the 2D fig4
        lifted_claim = sim.Attempt(sc.attempts[1].true_position, off_plane)
        lifting_spoof = AttackSpec(ATTACK_GNSS_SPOOF, 0, Position(2.0, 0.0, 1.0))
        for changes, path in (({"buffer": math.nan}, "buffer"),
                              ({"buffer": math.inf}, "buffer"),
                              ({"seed": -1}, "seed"),
                              ({"seed": 1.5}, "seed"),
                              ({"attempts": ()}, "attempts"),
                              ({"attack": AttackSpec(ATTACK_WRONG_IDENTITY, 2)},
                               "attack.target_attempt"),
                              ({"attempts": (sim.Attempt(off_plane),)},
                               r"attempts\[0\]\.true\.z: must be 0 in a 2D scenario"),
                              ({"attempts": (sc.attempts[0], lifted_claim)},
                               r"attempts\[1\]\.claim\.z: must be 0 in a 2D scenario"),
                              ({"attack": lifting_spoof},
                               r"attack\.offset\.z: must be 0 in a 2D scenario")):
            with pytest.raises(ScenarioError, match=path):
                replace(sc, **changes)
        with pytest.raises(ScenarioError, match="attack.offset"):
            AttackSpec(ATTACK_CODE_REPLAY, 0, Position(1.0, 0.0))

    def test_coordinates_above_ceiling_refused(self):
        sc = get_preset("fig4")
        far = sim.MAX_COORD_M * 2
        shifted = AnchorSet([(a_id, Position(p.x + far, p.y)) for a_id, p in sc.anchors.anchors])
        for changes, path in (
                # Far enough that claim_likelihood's square of it overflows.
                ({"attack": AttackSpec(ATTACK_GNSS_SPOOF, 0, Position(1e200, 0.0))},
                 "attack.offset"),
                ({"attempts": (sim.Attempt(Position(0.0, -far)),)}, r"attempts\[0\]\.true"),
                ({"attempts": (sim.Attempt(Position(0.0, 0.0), Position(far, 0.0)),)},
                 r"attempts\[0\]\.claim"),
                ({"anchors": shifted}, r"anchors\[0\]")):
            with pytest.raises(ScenarioError, match=rf"{path}: coordinates must be within"):
                replace(sc, **changes)
        with pytest.raises(ScenarioError, match=r"attempts\[0\]\.true"):
            sim.apply_parameter(sc, "distance_scale", 1e7)

    def test_spoof_at_coordinate_ceiling_runs(self):
        offset = Position(sim.MAX_COORD_M, -sim.MAX_COORD_M)
        sc = replace(get_preset("fig4"), attack=AttackSpec(ATTACK_GNSS_SPOOF, 0, offset))
        assert run(sc, seed_override=1).records[0].terminal_state == "REJECTED"

    def test_sweep_values_checked(self):
        sc = get_preset("fig4")
        for parameter in ("noise_sigma", "buffer", "distance_scale"):
            with pytest.raises(ScenarioError, match=parameter):
                sim.apply_parameter(sc, parameter, math.nan)
        with pytest.raises(ScenarioError, match="noise_sigma"):
            sim.apply_parameter(sc, "noise_sigma", -0.1)

    def test_dimension_is_the_anchor_sets(self):
        sc = get_preset("fig4")
        assert sc.anchors.dimension == 2
        with pytest.raises(TypeError):
            replace(sc, dimension=3)

    def test_get_preset_leaves_presets_unchanged(self):
        before = copy.deepcopy(sim._PRESETS)
        get_preset("fig4")
        get_preset("fig4")
        assert sim._PRESETS == before


class TestRun:
    def test_fig4_honest_both_authorized(self):
        report = run(get_preset("fig4"), seed_override=7)
        assert [r.terminal_state for r in report.records] == ["AUTHORIZED", "AUTHORIZED"]
        assert report.acceptance_rate == 1.0

    def test_determinism(self):
        sc = get_preset("fig4")
        a = run(sc, seed_override=3)
        b = run(sc, seed_override=3)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.estimate.position == rb.estimate.position
            assert ra.verdict == rb.verdict
            assert ra.terminal_state == rb.terminal_state

    def test_spoof_rejects_only_target_attempt(self):
        sc = replace(get_preset("fig4"),
                     attack=AttackSpec(ATTACK_GNSS_SPOOF, 0, Position(2.0, 0.0, 0.0)))
        report = run(sc, seed_override=7)
        assert report.records[0].terminal_state == "REJECTED"
        assert report.records[1].terminal_state == "AUTHORIZED"
        # The spoofed claim sits ~2 m from the estimate.
        assert report.records[0].claim_to_estimate_distance == pytest.approx(2.0, abs=0.3)

    def test_wrong_identity_aborts_without_ranging(self):
        sc = replace(get_preset("fig4"), attack=AttackSpec(ATTACK_WRONG_IDENTITY, 0))
        report = run(sc, seed_override=7)
        rec = report.records[0]
        assert rec.terminal_state == "ABORTED"
        assert rec.abort_reason == "unauthorized"
        assert rec.estimate is None and rec.verdict is None
        assert report.records[1].terminal_state == "AUTHORIZED"

    def test_wrong_identity_builds_no_second_ledger(self, monkeypatch):
        built = []

        class CountingLedger(sim.Ledger):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("seed"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sim, "Ledger", CountingLedger)
        sc = replace(get_preset("fig4"), attack=AttackSpec(ATTACK_WRONG_IDENTITY, 1))
        report = run(sc, seed_override=7)
        assert built == [7]
        assert report.records[1].abort_reason == "unauthorized"

    def test_one_encode_and_one_decode_per_record(self, monkeypatch):
        calls = {"build": 0, "request": 0, "verdict": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ledger, "transaction_signed_bytes",
                            counted("build", ledger.transaction_signed_bytes))
        monkeypatch.setattr(pol, "decode_pol_request",
                            counted("request", pol.decode_pol_request))
        monkeypatch.setattr(pol, "decode_pol_verdict",
                            counted("verdict", pol.decode_pol_verdict))
        report = run(get_preset("fig4"), seed_override=7)
        assert [r.terminal_state for r in report.records] == ["AUTHORIZED"] * 2
        # 3 enrollments, then a request and a verdict per session; each record
        # is built once on submit and once on commit, and each POL record is
        # decoded once by its chaincode and once for the session's machines.
        assert len(report.ledger._state.journal) == 7
        assert calls == {"build": 14, "request": 4, "verdict": 4}

    def test_code_replay_aborts_without_ranging(self):
        sc = replace(get_preset("fig4"), attack=AttackSpec(ATTACK_CODE_REPLAY, 1))
        report = run(sc, seed_override=7)
        rec = report.records[1]
        assert rec.terminal_state == "ABORTED"
        assert rec.abort_reason == "code-mismatch"
        assert rec.estimate is None
        assert report.records[0].terminal_state == "AUTHORIZED"

    def test_code_replay_on_first_attempt(self):
        sc = replace(get_preset("fig4"), attack=AttackSpec(ATTACK_CODE_REPLAY, 0))
        report = run(sc, seed_override=7)
        assert report.records[0].terminal_state == "ABORTED"

    def test_honest_completeness_lossless(self):
        # No loss, sigma up to 0.1, buffer 1 m: every attempt authorized.
        for preset in ("fig4", "fig5"):
            sc = get_preset(preset)
            sc = replace(sc, channel=replace(sc.channel, noise_sigma=0.1, loss_prob=0.0))
            for seed in range(210, 220):
                report = run(sc, seed_override=seed)
                assert report.acceptance_rate == 1.0, (preset, seed)

    def test_audit_log_attached(self, tmp_path):
        report = run(get_preset("fig4"), seed_override=7)
        path = tmp_path / "audit.log"
        report.ledger.write_audit_log(path)
        from uwbpol.ledger import replay_audit_log
        from uwbpol.pol import standard_chaincodes

        result = replay_audit_log(path, chaincode_factory=standard_chaincodes)
        assert result.ok
        assert result.assets["pol"] == report.ledger.assets_snapshot("pol")


class TestSweep:
    def test_noise_sigma_monotone_error_radius(self):
        rows = sweep(get_preset("fig4"), "noise_sigma", [0.0, 0.05, 0.1], reps=100)
        radii = [r.median_error_radius for r in rows]
        assert radii[0] < radii[1] < radii[2]

    def test_buffer_acceptance_non_decreasing(self):
        sc = get_preset("fig5")
        rows = sweep(sc, "buffer", [0.01, 1.0], reps=100)
        assert rows[0].acceptance_rate <= rows[1].acceptance_rate

    def test_distance_scale_grows_error_radius(self):
        rows = sweep(get_preset("fig4"), "distance_scale", [1.0, 4.0], reps=100)
        assert rows[1].median_error_radius > rows[0].median_error_radius

    def test_bad_parameter(self):
        with pytest.raises(ValueError):
            sweep(get_preset("fig4"), "nope", [1.0], reps=1)

    def test_seed_override_checked(self):
        with pytest.raises(ScenarioError, match="seed"):
            run(get_preset("fig4"), seed_override=2**64)
        sc = replace(get_preset("fig4"), seed=2**64 - 1)
        with pytest.raises(ScenarioError, match="seed"):
            sweep(sc, "buffer", [1.0], reps=2)

    def test_zero_reps(self):
        with pytest.raises(ValueError, match="reps"):
            sweep(get_preset("fig4"), "buffer", [1.0], reps=0)

    def test_empty_values(self):
        with pytest.raises(ValueError):
            sweep(get_preset("fig4"), "buffer", [], reps=1)

    def test_distance_scale_moves_attempts_about_centroid(self):
        sc = get_preset("fig4")
        scaled = sim.apply_parameter(sc, "distance_scale", 4.0)
        c = sc.anchors.centroid()
        orig = sc.attempts[0].true_position
        new = scaled.attempts[0].true_position
        assert new.x == pytest.approx(c.x + 4 * (orig.x - c.x))
        assert new.y == pytest.approx(c.y + 4 * (orig.y - c.y))
