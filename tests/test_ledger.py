"""Ledger: identities, ordered transactions, chaincode, events, audit replay."""

import base64
import random
import subprocess
import sys
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from conftest import cli_env
from uwbpol import ledger as led
from uwbpol.clock import SimClock
from uwbpol.errors import (
    AlreadyEnrolledError,
    AssetConflictError,
    AssetNotFoundError,
    ChaincodeError,
    LedgerError,
    NoSuchChannelError,
    UnauthorizedError,
)
from uwbpol.ledger import (
    ASSET_CREATE,
    ASSET_DELETE,
    ASSET_UPDATE,
    Certificate,
    Ledger,
    Role,
    encode_asset_delete_payload,
    encode_asset_payload,
    replay_audit_log,
)
from uwbpol.geo import Position
from uwbpol.pol import (
    SESSION_ASSET_PREFIX,
    TX_POL_REQUEST,
    TX_POL_VERDICT,
    LocationClaim,
    PolChaincode,
    PolRequest,
    Verdict,
    encode_pol_request,
    encode_pol_verdict,
    standard_chaincodes,
)


@pytest.fixture
def lg():
    return Ledger(seed=99)


@pytest.fixture
def alice(lg):
    return lg.enroll_identity("alice", Role.UAV)


@pytest.fixture
def pad(lg):
    return lg.enroll_identity("pad", Role.PLATFORM)


class TestIdentity:
    def test_enroll_then_verify(self, lg, alice):
        assert lg.verify_identity(alice.certificate)
        assert lg.verify_identity(alice.certificate).reason == "ok"

    def test_duplicate_enroll(self, lg, alice):
        with pytest.raises(AlreadyEnrolledError):
            lg.enroll_identity("alice", Role.UAV)

    def test_tampered_certificate_fails(self, lg, alice):
        pk = bytearray(alice.certificate.public_key)
        pk[0] ^= 0xFF
        tampered = replace(alice.certificate, public_key=bytes(pk))
        assert not lg.verify_identity(tampered)

    def test_foreign_authority_rejected(self, lg):
        other = Ledger(seed=123456)
        mallory = other.enroll_identity("mallory", Role.UAV)
        result = lg.verify_identity(mallory.certificate)
        assert not result
        assert result.reason == "unknown-issuer"

    def test_expired_certificate(self, lg, alice):
        lg.clock.advance(led.CERT_VALIDITY_NS + 1)
        result = lg.verify_identity(alice.certificate)
        assert not result
        assert result.reason == "expired"

    def test_unknown_subject(self, lg, alice):
        # A certificate signed by our authority whose subject was never
        # registered cannot occur through the API; simulate via registry wipe.
        del lg._state.registry["alice"]
        result = lg.verify_identity(alice.certificate)
        assert not result
        assert result.reason == "unknown-subject"

    def test_certificate_codec_roundtrip(self, alice):
        cert = alice.certificate
        assert Certificate.decode(cert.encode()) == cert


class TestSubmit:
    def test_first_submit_height_one(self, lg, alice):
        receipt = lg.submit_transaction(alice, "pol", ASSET_CREATE,
                                        encode_asset_payload("x", b"d"))
        assert receipt.height == 1

    def test_sequential_heights_and_event_order(self, lg, alice):
        sub = lg.subscribe("pol")
        r1 = lg.submit_transaction(alice, "pol", ASSET_CREATE,
                                   encode_asset_payload("x", b"1"))
        r2 = lg.submit_transaction(alice, "pol", ASSET_UPDATE,
                                   encode_asset_payload("x", b"2"))
        assert (r1.height, r2.height) == (1, 2)
        events = sub.drain()
        assert [e.height for e in events] == [1, 2]
        assert [e.tx_type for e in events] == [ASSET_CREATE, ASSET_UPDATE]

    def test_unenrolled_submitter_rejected(self, lg):
        rogue_home = Ledger(seed=4)
        rogue = rogue_home.enroll_identity("rogue", Role.UAV)
        before = lg.height("pol")
        with pytest.raises(UnauthorizedError):
            lg.submit_transaction(rogue, "pol", ASSET_CREATE,
                                  encode_asset_payload("x", b"d"))
        assert lg.height("pol") == before

    def test_unknown_channel(self, lg, alice):
        with pytest.raises(NoSuchChannelError):
            lg.submit_transaction(alice, "nope", ASSET_CREATE,
                                  encode_asset_payload("x", b"d"))

    def test_role_admission(self, lg, alice):
        before = lg.height(led.MEMBERSHIP_CHANNEL)
        with pytest.raises(UnauthorizedError, match="not admitted"):
            lg.submit_transaction(alice, led.MEMBERSHIP_CHANNEL, ASSET_CREATE,
                                  encode_asset_payload("x", b"d"))
        assert lg.height(led.MEMBERSHIP_CHANNEL) == before

    def test_signature_covers_payload(self, lg, alice):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("x", b"d"))
        tx = lg.transactions("pol")[0]
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

        key = Ed25519PublicKey.from_public_bytes(alice.public_key)
        key.verify(tx.signature, tx.signed_bytes())  # does not raise
        bad = replace(tx, payload=tx.payload + b"!")
        with pytest.raises(Exception):
            key.verify(bad.signature, bad.signed_bytes())


class TestAssetChaincode:
    def test_create_then_query(self, lg, alice):
        lg.submit_transaction(alice, "pol", ASSET_CREATE,
                              encode_asset_payload("pol-req-1", b"d"))
        asset = lg.query_asset("pol", "pol-req-1")
        assert asset.version == 1 and asset.data == b"d" and asset.owner == "alice"

    def test_update_increments_version(self, lg, alice):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        lg.submit_transaction(alice, "pol", ASSET_UPDATE, encode_asset_payload("a", b"2"))
        asset = lg.query_asset("pol", "a")
        assert asset.version == 2 and asset.data == b"2"

    def test_non_owner_update_rejected(self, lg, alice, pad):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        with pytest.raises(UnauthorizedError):
            lg.submit_transaction(pad, "pol", ASSET_UPDATE, encode_asset_payload("a", b"2"))
        assert lg.query_asset("pol", "a").version == 1

    def test_duplicate_create_conflict(self, lg, alice):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        before = lg.height("pol")
        with pytest.raises(AssetConflictError):
            lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"x"))
        assert lg.height("pol") == before

    def test_delete(self, lg, alice):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        lg.submit_transaction(alice, "pol", ASSET_DELETE, encode_asset_delete_payload("a"))
        with pytest.raises(AssetNotFoundError):
            lg.query_asset("pol", "a")

    def test_update_missing_not_found(self, lg, alice):
        with pytest.raises(AssetNotFoundError):
            lg.submit_transaction(alice, "pol", ASSET_UPDATE, encode_asset_payload("a", b"1"))

    def test_query_leaves_no_transaction(self, lg, alice):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        h = lg.height("pol")
        lg.query_asset("pol", "a")
        assert lg.height("pol") == h


class TestSubscriptions:
    def test_counting_and_order(self, lg, alice):
        sub = lg.subscribe("pol")
        base = lg.height("pol")
        for i in range(3):
            lg.submit_transaction(alice, "pol", ASSET_CREATE,
                                  encode_asset_payload(f"a{i}", b"d"))
        events = sub.drain()
        assert [e.height for e in events] == [base + 1, base + 2, base + 3]

    def test_tx_type_filter(self, lg, alice):
        sub = lg.subscribe("pol", tx_type_filter=ASSET_UPDATE)
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        lg.submit_transaction(alice, "pol", ASSET_UPDATE, encode_asset_payload("a", b"2"))
        events = sub.drain()
        assert len(events) == 1 and events[0].tx_type == ASSET_UPDATE

    def test_fanout_identical(self, lg, alice):
        s1, s2 = lg.subscribe("pol"), lg.subscribe("pol")
        for i in range(4):
            lg.submit_transaction(alice, "pol", ASSET_CREATE,
                                  encode_asset_payload(f"b{i}", b"d"))
        assert s1.drain() == s2.drain()

    def test_no_retroactive_delivery(self, lg, alice):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        sub = lg.subscribe("pol")
        assert sub.drain() == []

    def test_unknown_channel(self, lg):
        with pytest.raises(NoSuchChannelError):
            lg.subscribe("nope")


class TestAuditReplay:
    def _populate(self, lg, alice, pad):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        lg.submit_transaction(alice, "pol", ASSET_UPDATE, encode_asset_payload("a", b"2"))
        lg.submit_transaction(pad, "pol", ASSET_CREATE, encode_asset_payload("b", b"3"))
        lg.submit_transaction(alice, "pol", ASSET_DELETE, encode_asset_delete_payload("a"))

    def test_roundtrip_reproduces_state(self, lg, alice, pad, tmp_path):
        self._populate(lg, alice, pad)
        path = tmp_path / "audit.log"
        lg.write_audit_log(path)
        result = replay_audit_log(path)
        assert result.ok, result.message
        assert result.assets["pol"] == lg.assets_snapshot("pol")

    def test_payload_tamper_detected_with_height(self, lg, alice, pad, tmp_path):
        self._populate(lg, alice, pad)
        path = tmp_path / "audit.log"
        lg.write_audit_log(path)
        lines = path.read_text().splitlines()
        # Tamper with the record at height 3 on the membership channel
        # (the third line overall is alice's asset update at pol height 2;
        # find the line whose height field is 3 on channel 'pol').
        for i, line in enumerate(lines):
            parts = line.split("\t")
            if parts[2] == "pol" and parts[0] == "3":
                raw = bytearray(base64.b64decode(parts[6]))
                raw[0] ^= 0x01
                parts[6] = base64.b64encode(bytes(raw)).decode()
                lines[i] = "\t".join(parts)
                break
        path.write_text("\n".join(lines) + "\n")
        result = replay_audit_log(path)
        assert not result.ok
        assert result.failure_height == 3
        assert result.failure_channel == "pol"

    def test_truncated_log_detected(self, lg, alice, pad, tmp_path):
        self._populate(lg, alice, pad)
        path = tmp_path / "audit.log"
        lg.write_audit_log(path)
        raw = path.read_text()
        path.write_text(raw[:len(raw) - 25])  # chop into the final record
        result = replay_audit_log(path)
        assert not result.ok
        assert "unexpected end" in result.message

    def test_height_gap_detected(self, lg, alice, pad, tmp_path):
        self._populate(lg, alice, pad)
        path = tmp_path / "audit.log"
        lg.write_audit_log(path)
        lines = path.read_text().splitlines()
        kept = [l for l in lines if not (l.split("\t")[2] == "pol" and l.split("\t")[0] == "2")]
        path.write_text("\n".join(kept) + "\n")
        result = replay_audit_log(path)
        assert not result.ok
        assert "height gap" in result.message


class TestDeterminism:
    def test_same_seed_same_audit_bytes(self, tmp_path):
        def build(path):
            lg = Ledger(seed=31337)
            a = lg.enroll_identity("alice", Role.UAV)
            lg.enroll_identity("pad", Role.PLATFORM)
            lg.submit_transaction(a, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
            lg.write_audit_log(path)

        build(tmp_path / "one.log")
        build(tmp_path / "two.log")
        assert (tmp_path / "one.log").read_bytes() == (tmp_path / "two.log").read_bytes()

    def test_different_seed_different_keys(self):
        a1 = Ledger(seed=1).enroll_identity("alice", Role.UAV)
        a2 = Ledger(seed=2).enroll_identity("alice", Role.UAV)
        assert a1.public_key != a2.public_key


# -- one commit path: live refusals and replay failures agree ---------------------

def _signed_record(identity, channel, tx_type, payload, timestamp, height):
    """An audit record signed by identity's own key, as its submission would be."""
    tx = led.Transaction(
        tx_id=led.compute_tx_id(channel, tx_type, payload, timestamp, height, identity.name),
        channel=channel,
        tx_type=tx_type,
        payload=payload,
        submitter=identity.name,
        timestamp=timestamp,
        signature=identity.sign(
            led.transaction_signed_bytes(channel, tx_type, payload, timestamp)),
    )
    return led.format_audit_record(height, tx)


def _next_record(lg, identity, channel, tx_type, payload, timestamp=None):
    """The record lg would log if it committed this submission now."""
    ts = lg.clock.now_ns if timestamp is None else timestamp
    return _signed_record(identity, channel, tx_type, payload, ts, lg.height(channel) + 1)


def _replay_with(lg, record, path, chaincode_factory=None):
    lg.write_audit_log(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(record + "\n")
    return replay_audit_log(path, chaincode_factory=chaincode_factory)


def _heights(lg):
    return {ch: lg.height(ch) for ch in led.CHANNEL_ROLES}


def _fails_at(result, record, message):
    height, _, channel = record.split("\t")[:3]
    assert not result.ok
    assert (result.failure_height, result.failure_channel) == (int(height), channel)
    assert message in result.message


@pytest.fixture
def pol_lg(lg):
    lg.install_chaincode(led.DEFAULT_CHANNEL, PolChaincode())
    return lg


def _pol_request(uav, platform, session_id=b"s" * 16):
    claim = LocationClaim(Position(1.0, 2.0), 0)
    return encode_pol_request(PolRequest(session_id, uav.name, platform.name,
                                         b"u" * 16, b"p" * 16, claim))


ACCEPTING_VERDICT = Verdict(True, 0.1, 0.05, 1.0, 0.9)


class TestLiveForgery:
    """Submissions whose identity does not match the registry are refused."""

    def _refused(self, lg, identity, path, message, channel="pol"):
        payload = encode_asset_payload("forged", b"d")
        before = _heights(lg)
        with pytest.raises(UnauthorizedError, match=message):
            lg.submit_transaction(identity, channel, ASSET_CREATE, payload)
        assert _heights(lg) == before
        rec = _next_record(lg, identity, channel, ASSET_CREATE, payload)
        _fails_at(_replay_with(lg, rec, path), rec, message)

    def test_genuine_certificate_with_foreign_key(self, lg, alice, tmp_path):
        key = Ed25519PrivateKey.from_private_bytes(b"\x01" * 32)
        self._refused(lg, replace(alice, signing_key=key), tmp_path / "a.log",
                      "transaction signature invalid")

    def test_role_lie(self, lg, alice, tmp_path):
        liar = replace(alice, role=Role.AUTHORITY,
                       certificate=replace(alice.certificate, role=Role.AUTHORITY))
        self._refused(lg, liar, tmp_path / "a.log", "role UAV not admitted",
                      channel=led.MEMBERSHIP_CHANNEL)

    def test_name_not_matching_certificate(self, lg, alice, pad, tmp_path):
        self._refused(lg, replace(alice, name="pad"), tmp_path / "a.log",
                      "transaction signature invalid")

    def test_uav_verdict_on_own_session(self, pol_lg, alice, pad):
        pol_lg.submit_transaction(alice, "pol", TX_POL_REQUEST, _pol_request(alice, pad))
        before = _heights(pol_lg)
        with pytest.raises(UnauthorizedError):
            pol_lg.submit_transaction(alice, "pol", TX_POL_VERDICT,
                                      encode_pol_verdict(b"s" * 16, ACCEPTING_VERDICT))
        assert _heights(pol_lg) == before

    def test_verdict_on_session_asset_forged_through_asset_chaincode(self, pol_lg, alice, pad):
        sid = b"f" * 16
        asset_id = SESSION_ASSET_PREFIX + sid.hex()
        request = encode_pol_request(PolRequest(sid, alice.name, alice.name, b"u" * 16,
                                                b"p" * 16, LocationClaim(Position(0, 0), 0)))
        pol_lg.submit_transaction(alice, "pol", ASSET_CREATE,
                                  encode_asset_payload(asset_id, request))
        with pytest.raises(UnauthorizedError):
            pol_lg.submit_transaction(alice, "pol", TX_POL_VERDICT,
                                      encode_pol_verdict(sid, ACCEPTING_VERDICT))
        assert pol_lg.query_asset("pol", asset_id).version == 1

    def test_request_for_another_uav(self, pol_lg, alice, pad):
        with pytest.raises(UnauthorizedError):
            pol_lg.submit_transaction(pad, "pol", TX_POL_REQUEST, _pol_request(alice, pad))


class TestReplayForgery:
    """Signed records the live ledger would refuse fail replay at their height."""

    def test_uav_record_on_membership_channel(self, lg, alice, tmp_path):
        rec = _next_record(lg, alice, led.MEMBERSHIP_CHANNEL, ASSET_CREATE,
                           encode_asset_payload("x", b"d"))
        _fails_at(_replay_with(lg, rec, tmp_path / "a.log"), rec, "not admitted")

    def test_record_before_valid_from(self, lg, alice, tmp_path):
        rec = _next_record(lg, alice, "pol", ASSET_CREATE, encode_asset_payload("x", b"d"),
                           timestamp=0)
        _fails_at(_replay_with(lg, rec, tmp_path / "a.log"), rec, "not valid")

    def test_timestamp_going_backwards(self, lg, alice, tmp_path):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("x", b"d"))
        rec = _next_record(lg, alice, "pol", ASSET_CREATE, encode_asset_payload("y", b"d"),
                           timestamp=alice.certificate.valid_from)
        _fails_at(_replay_with(lg, rec, tmp_path / "a.log"), rec, "earlier")

    def test_signed_non_owner_update(self, lg, alice, pad, tmp_path):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        rec = _next_record(lg, pad, "pol", ASSET_UPDATE, encode_asset_payload("a", b"2"))
        _fails_at(_replay_with(lg, rec, tmp_path / "a.log"), rec, "does not own")

    def test_uav_self_verdict(self, pol_lg, alice, pad, tmp_path):
        pol_lg.submit_transaction(alice, "pol", TX_POL_REQUEST, _pol_request(alice, pad))
        rec = _next_record(pol_lg, alice, "pol", TX_POL_VERDICT,
                           encode_pol_verdict(b"s" * 16, ACCEPTING_VERDICT))
        result = _replay_with(pol_lg, rec, tmp_path / "a.log", standard_chaincodes)
        _fails_at(result, rec, "not the platform")

    def test_malformed_asset_payload(self, lg, alice, tmp_path):
        before = _heights(lg)
        with pytest.raises(ChaincodeError):
            lg.submit_transaction(alice, "pol", ASSET_CREATE, b"\x00")
        assert _heights(lg) == before
        rec = _next_record(lg, alice, "pol", ASSET_CREATE, b"\x00")
        _fails_at(_replay_with(lg, rec, tmp_path / "a.log"), rec, "bad asset payload")

    def test_unencodable_timestamp(self, lg, alice, tmp_path):
        rec = _next_record(lg, alice, "pol", ASSET_CREATE, encode_asset_payload("x", b"d"))
        parts = rec.split("\t")
        parts[5] = "-1"
        rec = "\t".join(parts)
        _fails_at(_replay_with(lg, rec, tmp_path / "a.log"), rec, "unencodable")

    def test_cli_reports_failure_without_traceback(self, lg, alice, pad, tmp_path):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        rec = _next_record(lg, pad, "pol", ASSET_UPDATE, encode_asset_payload("a", b"2"))
        path = tmp_path / "a.log"
        _replay_with(lg, rec, path)
        proc = subprocess.run([sys.executable, "-m", "uwbpol", "replay", "--audit", str(path)],
                              capture_output=True, text=True, timeout=120, env=cli_env())
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "replay FAILED at height 2 on channel 'pol'" in proc.stderr


class TestLiveReplayAgreement:
    def test_replay_accepts_exactly_what_live_accepts(self, tmp_path):
        rng = random.Random(5)
        lg = Ledger(seed=77)
        lg.install_chaincode(led.DEFAULT_CHANNEL, PolChaincode())
        uav = lg.enroll_identity("uav", Role.UAV)
        pad = lg.enroll_identity("pad", Role.PLATFORM)
        foreign = Ledger(seed=78).enroll_identity("mallory", Role.UAV)
        wrong_key = Ed25519PrivateKey.from_private_bytes(b"\x02" * 32)
        submitters = [uav, uav, uav, pad, pad, pad, lg.authority, foreign,
                      replace(uav, signing_key=wrong_key),
                      replace(uav, name="pad"),
                      replace(uav, role=Role.AUTHORITY)]
        sessions = [b"\x00" * 16]

        def payload(k, tx_type, submitter):
            if tx_type == TX_POL_REQUEST:
                sessions.append(k.to_bytes(16, "big"))
                req = PolRequest(sessions[-1], rng.choice((submitter, "uav")), "pad",
                                 rng.randbytes(16), rng.randbytes(16),
                                 LocationClaim(Position(1.0, 1.0), 0))
                return encode_pol_request(req)
            if tx_type == TX_POL_VERDICT:
                return encode_pol_verdict(rng.choice(sessions), ACCEPTING_VERDICT)
            asset_id = f"a{rng.randrange(k // 4 + 1)}"
            if tx_type == ASSET_DELETE:
                return encode_asset_delete_payload(asset_id)
            return encode_asset_payload(asset_id, rng.randbytes(4))

        refused = []
        for k in range(120):
            identity = rng.choice(submitters)
            channel = rng.choice(("pol",) * 6 + (led.MEMBERSHIP_CHANNEL, "nope"))
            tx_type = rng.choice((ASSET_CREATE, ASSET_UPDATE, ASSET_DELETE,
                                  TX_POL_REQUEST, TX_POL_VERDICT))
            body = payload(k, tx_type, identity.name)
            try:
                lg.submit_transaction(identity, channel, tx_type, body)
            except LedgerError:
                height = lg.height(channel) + 1 if channel in led.CHANNEL_ROLES else 1
                rec = _signed_record(identity, channel, tx_type, body, lg.clock.now_ns, height)
                result = _replay_with(lg, rec, tmp_path / f"refused-{k}.log",
                                      standard_chaincodes)
                assert not result.ok, (k, identity.name, channel, tx_type)
                assert (result.failure_height, result.failure_channel) == (height, channel)
                refused.append(k)

        path = tmp_path / "live.log"
        lg.write_audit_log(path)
        result = replay_audit_log(path, chaincode_factory=standard_chaincodes)
        assert result.ok, result.message
        assert result.assets == {ch: lg.assets_snapshot(ch) for ch in led.CHANNEL_ROLES}
        assert len(refused) >= 20 and lg.height("pol") >= 20
