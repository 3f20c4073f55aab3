"""Ledger: identities, ordered transactions, chaincode, reads by height, audit replay."""

import base64
import hashlib
import math
import random
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import encode_dss_signature

from conftest import cli_env
from uwbpol import ledger as led
from uwbpol.clock import SimClock
from uwbpol.errors import (
    AlreadyEnrolledError,
    AssetConflictError,
    AssetNotFoundError,
    ChaincodeError,
    ChaincodeInstallError,
    InvalidTransactionError,
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
    issue_identity,
    replay_audit_log,
)
from uwbpol import sim
from uwbpol.geo import Position
from uwbpol.pol import (
    SESSION_ASSET_PREFIX,
    TX_POL_REQUEST,
    TX_POL_VERDICT,
    LocationClaim,
    PolChaincode,
    PolRequest,
    Verdict,
    claim_likelihood,
    encode_pol_request,
    encode_pol_verdict,
    standard_chaincodes,
)


def asset_only():
    """The default channel's chaincode set of a Ledger with none installed."""
    return [led.AssetChaincode()]


@pytest.fixture
def lg():
    return Ledger(seed=99)


@pytest.fixture
def alice(lg):
    return lg.enroll_identity("alice", Role.UAV)


@pytest.fixture
def pad(lg):
    return lg.enroll_identity("pad", Role.PLATFORM)


def _with_cert(identity, **fields):
    """identity's signing key under a certificate with fields changed."""
    return replace(identity, certificate=replace(identity.certificate, **fields))


def _submit_refused(lg, identity, message):
    before = _heights(lg)
    with pytest.raises(UnauthorizedError, match=message):
        lg.submit_transaction(identity, "pol", ASSET_CREATE, encode_asset_payload("x", b"d"))
    assert _heights(lg) == before


class TestIdentity:
    def test_enroll_then_verify(self, lg, alice):
        assert lg._state.registry["alice"] == alice.certificate
        assert lg.submit_transaction(alice, "pol", ASSET_CREATE,
                                     encode_asset_payload("x", b"d")).height == 1

    def test_duplicate_enroll(self, lg, alice):
        with pytest.raises(AlreadyEnrolledError):
            lg.enroll_identity("alice", Role.UAV)

    def test_foreign_authority_rejected(self, lg, alice):
        # Another authority's certificate for a name enrolled here.
        mallory = Ledger(seed=123456).enroll_identity("alice", Role.UAV)
        _submit_refused(lg, mallory, "transaction signature invalid")

    def test_expired_certificate(self, lg, alice):
        lg.clock.advance(led.CERT_VALIDITY_NS + 1)
        _submit_refused(lg, alice, "not valid")

    def test_unknown_subject(self, lg, alice):
        # A certificate signed by our authority whose subject was never
        # registered cannot occur through the API; simulate via registry wipe.
        del lg._state.registry["alice"]
        _submit_refused(lg, alice, "not enrolled")

    def test_certificate_codec_roundtrip(self, alice):
        cert = alice.certificate
        assert Certificate.decode(cert.encode()) == cert

    def test_ledger_issues_through_issue_identity(self):
        # Keys derive from (seed, name) and a certificate carries no
        # signature, so the same inputs give the same certificate.
        lg = Ledger(seed=5)
        now = lg.clock.now_ns
        alice = lg.enroll_identity("alice", Role.UAV)
        assert alice.certificate == issue_identity(5, "alice", Role.UAV, now).certificate
        assert lg.authority.certificate == issue_identity(5, "authority", Role.AUTHORITY,
                                                          0).certificate


class TestSubmit:
    def test_first_submit_height_one(self, lg, alice):
        receipt = lg.submit_transaction(alice, "pol", ASSET_CREATE,
                                        encode_asset_payload("x", b"d"))
        assert receipt.height == 1

    def test_sequential_heights_and_event_order(self, lg, alice):
        r1 = lg.submit_transaction(alice, "pol", ASSET_CREATE,
                                   encode_asset_payload("x", b"1"))
        r2 = lg.submit_transaction(alice, "pol", ASSET_UPDATE,
                                   encode_asset_payload("x", b"2"))
        assert (r1.height, r2.height) == (1, 2)
        txs = lg.transactions("pol")
        assert [tx.tx_id for tx in txs] == [r1.tx_id, r2.tx_id]
        assert [tx.tx_type for tx in txs] == [ASSET_CREATE, ASSET_UPDATE]

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

    def test_oversized_field_is_invalid_transaction(self, lg, alice):
        heights, now = _heights(lg), lg.clock.now_ns
        for identity, tx_type, payload in (
            (alice, ASSET_CREATE, b"x" * 70_000),
            (alice, "T" * 70_000, encode_asset_payload("x", b"d")),
            (_with_cert(alice, subject="n" * 70_000), ASSET_CREATE,
             encode_asset_payload("x", b"d")),
        ):
            with pytest.raises(InvalidTransactionError, match="unencodable"):
                lg.submit_transaction(identity, "pol", tx_type, payload)
        assert _heights(lg) == heights and lg.clock.now_ns == now
        assert lg.transactions("pol") == ()

    def test_clock_past_timestamp_range_is_invalid_transaction(self, lg, alice):
        lg.clock.now_ns = 2**64  # a timestamp is an unsigned 64-bit field
        heights = _heights(lg)
        with pytest.raises(InvalidTransactionError, match="unencodable"):
            lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("x", b"d"))
        assert _heights(lg) == heights and lg.clock.now_ns == 2**64

    def test_signature_covers_payload(self, lg, alice):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("x", b"d"))
        tx = lg.transactions("pol")[0]
        key = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), alice.public_key)
        der = encode_dss_signature(int.from_bytes(tx.signature[:32], "big"),
                                   int.from_bytes(tx.signature[32:], "big"))
        key.verify(der, tx.signed_bytes(), ec.ECDSA(hashes.SHA256()))  # does not raise
        bad = replace(tx, payload=tx.payload + b"!")
        with pytest.raises(InvalidSignature):
            key.verify(der, bad.signed_bytes(), ec.ECDSA(hashes.SHA256()))


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


class TestReadByHeight:
    def test_counting_and_order(self, lg, alice):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"d"))
        base = lg.height("pol")
        receipts = [lg.submit_transaction(alice, "pol", ASSET_CREATE,
                                          encode_asset_payload(f"a{i}", b"d"))
                    for i in range(3)]
        assert [r.height for r in receipts] == [base + 1, base + 2, base + 3]
        assert [tx.tx_id for tx in lg.transactions("pol", base)] == [r.tx_id for r in receipts]

    def test_no_retroactive_delivery(self, lg, alice):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        assert lg.transactions("pol", lg.height("pol")) == ()

    def test_unknown_channel(self, lg):
        with pytest.raises(NoSuchChannelError):
            lg.transactions("nope")

    def test_start_outside_the_log(self, lg, alice):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        for start in (-1, lg.height("pol") + 1):
            with pytest.raises(ValueError, match="outside"):
                lg.transactions("pol", start)


class TestAuditReplay:
    @pytest.mark.parametrize("field, rewrite", [
        (0, lambda height: f"+{height} "),
        (1, str.upper),
        (5, lambda timestamp: "0_" + timestamp),
    ], ids=["signed-padded-height", "upper-case-tx-id", "underscored-timestamp"])
    def test_non_canonical_record_refused(self, field, rewrite, tmp_path):
        # Each rewrite parses to the same record, but the log no longer reads
        # as the ledger wrote it.
        path = tmp_path / "audit.log"
        sim.run(sim.get_preset("fig4")).ledger.write_audit_log(path)
        assert replay_audit_log(path, chaincode_factory=standard_chaincodes).ok
        lines = path.read_text(encoding="utf-8").splitlines()
        parts = lines[-1].split("\t")
        parts[field] = rewrite(parts[field])
        lines[-1] = "\t".join(parts)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = replay_audit_log(path, chaincode_factory=standard_chaincodes)
        assert not result.ok
        assert result.records == len(lines) - 1
        assert "non-canonical record" in result.message

    def _populate(self, lg, alice, pad):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        lg.submit_transaction(alice, "pol", ASSET_UPDATE, encode_asset_payload("a", b"2"))
        lg.submit_transaction(pad, "pol", ASSET_CREATE, encode_asset_payload("b", b"3"))
        lg.submit_transaction(alice, "pol", ASSET_DELETE, encode_asset_delete_payload("a"))

    def test_roundtrip_reproduces_state(self, lg, alice, pad, tmp_path):
        self._populate(lg, alice, pad)
        path = tmp_path / "audit.log"
        lg.write_audit_log(path)
        result = replay_audit_log(path, chaincode_factory=asset_only)
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
        result = replay_audit_log(path, chaincode_factory=asset_only)
        assert not result.ok
        assert result.failure_height == 3
        assert result.failure_channel == "pol"

    def test_truncated_log_detected(self, lg, alice, pad, tmp_path):
        self._populate(lg, alice, pad)
        path = tmp_path / "audit.log"
        lg.write_audit_log(path)
        raw = path.read_text()
        path.write_text(raw[:len(raw) - 25])  # chop into the final record
        result = replay_audit_log(path, chaincode_factory=asset_only)
        assert not result.ok
        assert "unexpected end" in result.message

    def test_chaincode_set_is_required(self, lg, tmp_path):
        # An implied asset-only set would accept POL records a live PolChaincode refused.
        path = tmp_path / "audit.log"
        lg.write_audit_log(path)
        with pytest.raises(TypeError):
            replay_audit_log(path)

    def test_not_utf8_fails_replay(self, tmp_path):
        path = tmp_path / "audit.log"
        path.write_bytes(b"\xff\xfe\x00")
        result = replay_audit_log(path, chaincode_factory=asset_only)
        assert not result.ok and result.records == 0
        assert "cannot read audit log" in result.message

    def test_renumbered_session_fails_on_its_tx_id(self, tmp_path):
        # A fig4 log with its first session (pol heights 1-2) cut out and the
        # second renumbered into its place has no height gap, and every
        # signature and chaincode rule still holds; the tx id binds each
        # record to the height it was committed at.
        path = tmp_path / "audit.log"
        sim.run(sim.get_preset("fig4"), seed_override=0).ledger.write_audit_log(path)
        kept = []
        for line in path.read_text(encoding="utf-8").splitlines():
            parts = line.split("\t")
            if parts[2] == "pol":
                if int(parts[0]) <= 2:
                    continue
                parts[0] = str(int(parts[0]) - 2)
            kept.append("\t".join(parts))
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        result = replay_audit_log(path, chaincode_factory=standard_chaincodes)
        assert (result.ok, result.records, result.message) == (False, 3, "tx id mismatch")
        assert (result.failure_height, result.failure_channel) == (1, "pol")

    def test_height_gap_detected(self, lg, alice, pad, tmp_path):
        self._populate(lg, alice, pad)
        path = tmp_path / "audit.log"
        lg.write_audit_log(path)
        lines = path.read_text().splitlines()
        kept = [l for l in lines if not (l.split("\t")[2] == "pol" and l.split("\t")[0] == "2")]
        path.write_text("\n".join(kept) + "\n")
        result = replay_audit_log(path, chaincode_factory=asset_only)
        assert not result.ok
        assert "height gap" in result.message


class TestAdmissionBoundaries:
    @pytest.mark.parametrize("past_valid_to_ns, admitted", [(0, True), (1, False)])
    def test_certificate_valid_through_valid_to(self, lg, alice, past_valid_to_ns, admitted):
        lg.clock.advance(alice.certificate.valid_to + past_valid_to_ns - lg.clock.now_ns)
        if admitted:
            assert lg.submit_transaction(alice, "pol", ASSET_CREATE,
                                         encode_asset_payload("x", b"d")).height == 1
        else:
            _submit_refused(lg, alice, "not valid")

    def test_equal_timestamps_admitted(self, lg, alice, tmp_path):
        # Only a timestamp earlier than the previous commit's is refused.
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("x", b"d"))
        previous = lg.transactions("pol")[-1].timestamp
        rec = _next_record(lg, alice, "pol", ASSET_CREATE, encode_asset_payload("y", b"d"),
                           timestamp=previous)
        result = _replay_with(lg, rec, tmp_path / "a.log")
        assert result.ok, result.message
        assert result.records == len(lg._state.journal) + 1

    def test_empty_asset_data_admitted(self, lg, alice, tmp_path):
        # The payload then ends in a zero length prefix and nothing after it.
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("x", b""))
        assert lg.query_asset("pol", "x").data == b""
        path = tmp_path / "a.log"
        lg.write_audit_log(path)
        assert replay_audit_log(path, chaincode_factory=asset_only).ok

    def test_trailing_byte_in_asset_payload_refused(self, lg, alice):
        before = _heights(lg)
        with pytest.raises(ChaincodeError, match="trailing bytes"):
            lg.submit_transaction(alice, "pol", ASSET_CREATE,
                                  encode_asset_payload("x", b"d") + b"\x00")
        assert _heights(lg) == before


class TestFork:
    def test_commit_on_a_fork_shows_nowhere_else(self, lg, alice):
        first, second = lg.fork(), lg.fork()
        assert first.clock is not lg.clock and first.clock.now_ns == lg.clock.now_ns
        first.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("x", b"d"))
        first.enroll_identity("bob", Role.UAV)
        assert first.height("pol") == 1 and len(first._state.journal) == 4
        for other in (lg, second):
            assert _heights(other) == {"_members": 2, "pol": 0}
            assert other.assets_snapshot("pol") == {} and "bob" not in other._state.registry
            assert other.clock.now_ns == lg.clock.now_ns < first.clock.now_ns

    def test_install_on_a_fork_shows_nowhere_else(self, lg, alice, pad):
        first, second = lg.fork(), lg.fork()
        first.install_chaincode("pol", PolChaincode())
        first.submit_transaction(alice, "pol", TX_POL_REQUEST, _pol_request(alice, pad))
        for other in (lg, second):
            with pytest.raises(ChaincodeError, match="no chaincode"):
                other.submit_transaction(alice, "pol", TX_POL_REQUEST, _pol_request(alice, pad))
        lg.install_chaincode("pol", PolChaincode())  # its map never held the fork's

    def test_fork_shares_immutable_parts(self, lg, alice):
        twin = lg.fork()
        assert twin.authority is lg.authority
        assert twin._state.keys["alice"] is lg._state.keys["alice"]
        assert twin._state.registry is not lg._state.registry

    def test_fork_log_extends_its_parents(self, lg, alice, tmp_path):
        twin = lg.fork()
        twin.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("x", b"d"))
        parent_log, twin_log = tmp_path / "parent.log", tmp_path / "twin.log"
        lg.write_audit_log(parent_log)
        twin.write_audit_log(twin_log)
        assert twin_log.read_text().startswith(parent_log.read_text())
        result = replay_audit_log(twin_log, chaincode_factory=asset_only)
        assert result.ok and result.assets["pol"] == twin.assets_snapshot("pol")


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

def _signed_tx(identity, channel, tx_type, payload, timestamp, height):
    """A transaction signed by identity's own key, as its submission would be."""
    signed = led.transaction_signed_bytes(channel, tx_type, payload, timestamp)
    return led.Transaction(
        tx_id=led.compute_tx_id(signed, height, identity.name),
        channel=channel,
        tx_type=tx_type,
        payload=payload,
        submitter=identity.name,
        timestamp=timestamp,
        signature=identity.sign(signed),
    )


def _signed_record(identity, channel, tx_type, payload, timestamp, height):
    """The audit record of _signed_tx at height."""
    return led.format_audit_record(
        height, _signed_tx(identity, channel, tx_type, payload, timestamp, height))


def _next_record(lg, identity, channel, tx_type, payload, timestamp=None):
    """The record lg would log if it committed this submission now."""
    ts = lg.clock.now_ns if timestamp is None else timestamp
    return _signed_record(identity, channel, tx_type, payload, ts, lg.height(channel) + 1)


def _replay_with(lg, record, path, chaincode_factory=asset_only):
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


ACCEPTING_VERDICT = Verdict(0.1, 0.05, 1.0)

# Verdicts from the session's own platform whose numbers cannot describe a
# real comparison: (distance, error radius, buffer).
IMPOSSIBLE_VERDICTS = {
    "negative-distance-and-buffer": (-1.0, 0.05, -0.5),
    "nan": (math.nan, math.nan, math.nan),
    "negative-error-radius": (0.1, -3.0, 1.0),
    "infinite-buffer": (5.0, 0.05, math.inf),
    # Finite, but the distance's square overflows a float, so no likelihood
    # can be derived from them.
    "overflowing-distance": (1e200, 0.05, 1.0),
    "overflowing-distance-and-radius": (1e200, 1e200, 1.0),
}


# Signed records whose tx type nothing on their channel handles:
# case -> (submitter, channel, tx type).
UNHANDLED = {
    "uav-anything-on-pol": ("uav", "pol", "ANYTHING"),
    "uav-enroll-on-pol": ("uav", "pol", led.ENROLL_TX_TYPE),
    "authority-verdict-on-members": ("authority", led.MEMBERSHIP_CHANNEL, TX_POL_VERDICT),
}


def _unhandled(lg, uav, case):
    """(identity, channel, tx type, payload) of an UNHANDLED case on lg."""
    who, channel, tx_type = UNHANDLED[case]
    payload = {"ANYTHING": b"anything", led.ENROLL_TX_TYPE: uav.certificate.encode(),
               TX_POL_VERDICT: encode_pol_verdict(b"s" * 16, ACCEPTING_VERDICT)}[tx_type]
    return (uav if who == "uav" else lg.authority), channel, tx_type, payload


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
        key = ec.derive_private_key(1, ec.SECP256R1())
        self._refused(lg, replace(alice, signing_key=key), tmp_path / "a.log",
                      "transaction signature invalid")

    def test_role_lie(self, lg, alice, tmp_path):
        liar = _with_cert(alice, role=Role.AUTHORITY)
        self._refused(lg, liar, tmp_path / "a.log", "role UAV not admitted",
                      channel=led.MEMBERSHIP_CHANNEL)

    def test_name_not_matching_certificate(self, lg, alice, pad, tmp_path):
        self._refused(lg, _with_cert(alice, subject="pad"), tmp_path / "a.log",
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
        before = _heights(pol_lg)
        with pytest.raises(UnauthorizedError, match="key range"):
            pol_lg.submit_transaction(alice, "pol", ASSET_CREATE,
                                      encode_asset_payload(asset_id, request))
        with pytest.raises(AssetNotFoundError):
            pol_lg.submit_transaction(alice, "pol", TX_POL_VERDICT,
                                      encode_pol_verdict(sid, ACCEPTING_VERDICT))
        assert _heights(pol_lg) == before
        assert asset_id not in pol_lg.assets_snapshot("pol")

    @pytest.mark.parametrize("case", sorted(UNHANDLED))
    def test_tx_type_no_chaincode_handles(self, pol_lg, alice, case):
        def state():
            return (_heights(pol_lg), pol_lg.clock.now_ns,
                    {ch: pol_lg.assets_snapshot(ch) for ch in led.CHANNEL_ROLES})

        before = state()
        with pytest.raises(ChaincodeError, match="no chaincode on channel"):
            pol_lg.submit_transaction(*_unhandled(pol_lg, alice, case))
        assert state() == before


REJECTING_VERDICT = Verdict(2.0, 0.05, 1.0)


def _closed_session(lg, uav, platform):
    """Commit a request and a rejecting verdict for session b"s" * 16; return the request."""
    request = _pol_request(uav, platform)
    lg.submit_transaction(uav, "pol", TX_POL_REQUEST, request)
    lg.submit_transaction(platform, "pol", TX_POL_VERDICT,
                          encode_pol_verdict(b"s" * 16, REJECTING_VERDICT))
    return request


# Client writes into PolChaincode's key ranges, each of which an asset-only
# rule would admit for some submitter: case -> (tx type, asset id).
RESERVED_WRITES = {
    "update-closed-session": (ASSET_UPDATE, SESSION_ASSET_PREFIX + (b"s" * 16).hex()),
    "delete-closed-session": (ASSET_DELETE, SESSION_ASSET_PREFIX + (b"s" * 16).hex()),
    "create-session": (ASSET_CREATE, SESSION_ASSET_PREFIX + (b"n" * 16).hex()),
    "update-code": (ASSET_UPDATE, led.CODE_ASSET_PREFIX + (b"u" * 16).hex()),
    "delete-code": (ASSET_DELETE, led.CODE_ASSET_PREFIX + (b"p" * 16).hex()),
    "create-code": (ASSET_CREATE, led.CODE_ASSET_PREFIX + (b"q" * 16).hex()),
}


class TestReservedKeyRanges:
    """Only PolChaincode writes pol-session-* and pol-code-* ids."""

    @pytest.mark.parametrize("who", ["uav", "platform"])
    @pytest.mark.parametrize("case", sorted(RESERVED_WRITES))
    def test_client_write_refused_live_and_in_replay(self, pol_lg, alice, pad, case, who,
                                                     tmp_path):
        request = _closed_session(pol_lg, alice, pad)
        tx_type, asset_id = RESERVED_WRITES[case]
        # A forged session record: the request plus an accepting verdict.
        forged = request + encode_pol_verdict(b"s" * 16, ACCEPTING_VERDICT)
        payload = (encode_asset_delete_payload(asset_id) if tx_type == ASSET_DELETE
                   else encode_asset_payload(asset_id, forged))
        submitter = alice if who == "uav" else pad
        before = (_heights(pol_lg), pol_lg.assets_snapshot("pol"))
        with pytest.raises(UnauthorizedError, match="key range"):
            pol_lg.submit_transaction(submitter, "pol", tx_type, payload)
        assert (_heights(pol_lg), pol_lg.assets_snapshot("pol")) == before
        rec = _next_record(pol_lg, submitter, "pol", tx_type, payload)
        result = _replay_with(pol_lg, rec, tmp_path / "a.log", standard_chaincodes)
        _fails_at(result, rec, "key range")

    def test_request_writes_session_and_code_entries(self, pol_lg, alice, pad):
        request = _closed_session(pol_lg, alice, pad)
        assets = pol_lg.assets_snapshot("pol")
        session = assets.pop(SESSION_ASSET_PREFIX + (b"s" * 16).hex())
        assert (session.owner, session.version) == (pad.name, 2)
        assert session.data == request + encode_pol_verdict(b"s" * 16, REJECTING_VERDICT)
        assert sorted(assets) == sorted(led.CODE_ASSET_PREFIX + code.hex()
                                        for code in (b"u" * 16, b"p" * 16))

    def test_replay_rebuilds_code_entries(self, pol_lg, alice, pad, tmp_path):
        _closed_session(pol_lg, alice, pad)
        path = tmp_path / "a.log"
        pol_lg.write_audit_log(path)
        result = replay_audit_log(path, chaincode_factory=standard_chaincodes)
        assert result.ok, result.message
        assert result.assets == {ch: pol_lg.assets_snapshot(ch) for ch in led.CHANNEL_ROLES}
        assert sum(a.startswith(led.CODE_ASSET_PREFIX) for a in result.assets["pol"]) == 2

    @pytest.mark.parametrize("who", [sim.UAV_IDENTITY, sim.PLATFORM_IDENTITY])
    def test_sim_run_session_rewrite_refused_live_and_in_replay(self, who, tmp_path):
        # The UAV (or platform) of a fig4 run rewrites a closed session
        # record to carry an accepting verdict.
        lg = sim.run(sim.get_preset("fig4"), seed_override=3).ledger
        asset_id, closed = next((a_id, a) for a_id, a in lg.assets_snapshot("pol").items()
                                if a_id.startswith(SESSION_ASSET_PREFIX) and a.version == 2)
        sid = bytes.fromhex(asset_id[len(SESSION_ASSET_PREFIX):])
        forged = closed.data[:-40] + encode_pol_verdict(sid, ACCEPTING_VERDICT)
        role = Role.UAV if who == sim.UAV_IDENTITY else Role.PLATFORM
        submitter = issue_identity(lg._seed, who, role, 0)  # its key derives from (seed, name)
        payload = encode_asset_payload(asset_id, forged)
        before = (_heights(lg), lg.assets_snapshot("pol"))
        with pytest.raises(UnauthorizedError, match="key range"):
            lg.submit_transaction(submitter, "pol", ASSET_UPDATE, payload)
        assert (_heights(lg), lg.assets_snapshot("pol")) == before
        rec = _next_record(lg, submitter, "pol", ASSET_UPDATE, payload)
        _fails_at(_replay_with(lg, rec, tmp_path / "a.log", standard_chaincodes),
                  rec, "key range")

    def test_chaincodes_hold_no_state(self):
        assert vars(PolChaincode()) == {} and vars(led.AssetChaincode()) == {}

    def test_one_chaincode_per_tx_type(self, pol_lg):
        with pytest.raises(ChaincodeInstallError, match="already have a chaincode"):
            pol_lg.install_chaincode(led.DEFAULT_CHANNEL, PolChaincode())
        assert pol_lg._state.channel("pol").chaincodes.keys() == set(
            led.AssetChaincode.TX_TYPES + PolChaincode.TX_TYPES)

    def test_no_chaincode_on_membership_channel(self, pol_lg):
        # Replay runs the asset chaincode alone there, so a record that such
        # a chaincode committed live would fail replay.
        before = _heights(pol_lg)
        with pytest.raises(ChaincodeInstallError, match="only on 'pol'"):
            pol_lg.install_chaincode(led.MEMBERSHIP_CHANNEL, PolChaincode())
        assert _heights(pol_lg) == before
        assert pol_lg._state.channel(led.MEMBERSHIP_CHANNEL).chaincodes.keys() == set(
            led.AssetChaincode.TX_TYPES)


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

    @pytest.mark.parametrize("case", sorted(IMPOSSIBLE_VERDICTS))
    def test_impossible_verdict_numbers(self, pol_lg, alice, pad, case, tmp_path):
        payload = b"s" * 16 + struct.pack(">ddd", *IMPOSSIBLE_VERDICTS[case])
        pol_lg.submit_transaction(alice, "pol", TX_POL_REQUEST, _pol_request(alice, pad))
        before = _heights(pol_lg)
        with pytest.raises(ChaincodeError, match="bad verdict payload"):
            pol_lg.submit_transaction(pad, "pol", TX_POL_VERDICT, payload)
        assert _heights(pol_lg) == before
        rec = _next_record(pol_lg, pad, "pol", TX_POL_VERDICT, payload)
        result = _replay_with(pol_lg, rec, tmp_path / "a.log", standard_chaincodes)
        _fails_at(result, rec, "bad verdict payload")

    def test_verdict_that_states_its_outcome_refused_by_length(self, pol_lg, alice, pad,
                                                               tmp_path):
        # The earlier format: an accepted flag and a likelihood after the id.
        payload = (b"s" * 16 + b"\x01"
                   + struct.pack(">dddd", 0.1, 0.05, 1.0, claim_likelihood(0.1, 0.05)))
        pol_lg.submit_transaction(alice, "pol", TX_POL_REQUEST, _pol_request(alice, pad))
        before = _heights(pol_lg)
        with pytest.raises(ChaincodeError, match="must be 40 bytes, got 49"):
            pol_lg.submit_transaction(pad, "pol", TX_POL_VERDICT, payload)
        assert _heights(pol_lg) == before
        rec = _next_record(pol_lg, pad, "pol", TX_POL_VERDICT, payload)
        result = _replay_with(pol_lg, rec, tmp_path / "a.log", standard_chaincodes)
        _fails_at(result, rec, "must be 40 bytes, got 49")

    def test_overflowing_verdict_fails_cli_replay(self, pol_lg, alice, pad, tmp_path):
        payload = b"s" * 16 + struct.pack(">ddd", *IMPOSSIBLE_VERDICTS["overflowing-distance"])
        pol_lg.submit_transaction(alice, "pol", TX_POL_REQUEST, _pol_request(alice, pad))
        rec = _next_record(pol_lg, pad, "pol", TX_POL_VERDICT, payload)
        path = tmp_path / "a.log"
        _replay_with(pol_lg, rec, path, standard_chaincodes)
        proc = subprocess.run([sys.executable, "-m", "uwbpol", "replay", "--audit", str(path)],
                              capture_output=True, text=True, timeout=120, env=cli_env())
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "replay FAILED at height 2 on channel 'pol': bad verdict payload" in proc.stderr

    @pytest.mark.parametrize("ts", [math.inf, -math.inf])
    def test_infinite_claim_timestamp(self, pol_lg, alice, pad, ts, tmp_path):
        claim = LocationClaim(Position(1.0, 2.0), ts)
        payload = encode_pol_request(PolRequest(b"s" * 16, alice.name, pad.name,
                                                b"u" * 16, b"p" * 16, claim))
        before = _heights(pol_lg)
        with pytest.raises(ChaincodeError, match="claim timestamp"):
            pol_lg.submit_transaction(alice, "pol", TX_POL_REQUEST, payload)
        assert _heights(pol_lg) == before
        rec = _next_record(pol_lg, alice, "pol", TX_POL_REQUEST, payload)
        path = tmp_path / "a.log"
        _fails_at(_replay_with(pol_lg, rec, path, standard_chaincodes), rec, "claim timestamp")
        proc = subprocess.run([sys.executable, "-m", "uwbpol", "replay", "--audit", str(path)],
                              capture_output=True, text=True, timeout=120, env=cli_env())
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "replay FAILED at height 1 on channel 'pol'" in proc.stderr

    @pytest.mark.parametrize("case", sorted(UNHANDLED))
    def test_tx_type_no_chaincode_handles(self, pol_lg, alice, case, tmp_path):
        rec = _next_record(pol_lg, *_unhandled(pol_lg, alice, case))
        result = _replay_with(pol_lg, rec, tmp_path / "a.log", standard_chaincodes)
        _fails_at(result, rec, "no chaincode on channel")

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


# -- the signature scheme: deterministic low-s ECDSA P-256 / SHA-256 -------------

P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


def _count_calls(monkeypatch, *names):
    """Count the calls of each named ledger function from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(led, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(led, name, counted)
    return calls


# Each attack of sim.ATTACK_KINDS on attempt 0, and none.
RUN_ATTACKS = {
    "honest": None,
    "spoof": sim.AttackSpec(sim.ATTACK_GNSS_SPOOF, 0, Position(2.0, 0.0)),
    "identity": sim.AttackSpec(sim.ATTACK_WRONG_IDENTITY, 0),
    "replay": sim.AttackSpec(sim.ATTACK_CODE_REPLAY, 0),
}


class TestSignatureScheme:
    def test_rfc6979_p256_sha256_sample(self, alice):
        # RFC 6979 A.2.5: P-256, SHA-256, message "sample". The library's s
        # is the high one, so the ledger stores n - s.
        key = ec.derive_private_key(
            0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721,
            ec.SECP256R1())
        assert key.public_key().public_bytes(
            serialization.Encoding.X962, serialization.PublicFormat.UncompressedPoint
        ) == bytes.fromhex(
            "04"
            "60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6"
            "7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299")
        r = 0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716
        s = 0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8
        assert s > P256_ORDER // 2
        signature = replace(alice, signing_key=key).sign(b"sample")
        assert signature == r.to_bytes(32, "big") + (P256_ORDER - s).to_bytes(32, "big")
        led._verify(key.public_key(), signature, b"sample", "kat")  # does not raise
        with pytest.raises(UnauthorizedError, match="kat invalid"):
            led._verify(key.public_key(), r.to_bytes(32, "big") + s.to_bytes(32, "big"),
                        b"sample", "kat")

    def test_authority_certificate_bytes_pinned(self):
        # A change in key derivation would silently change every audit log;
        # this pin fails instead. (The RFC 6979 vector above pins the nonces.)
        cert = issue_identity(0, "authority", Role.AUTHORITY, 0).certificate
        assert len(cert.public_key) == 65
        assert hashlib.sha256(cert.encode()).hexdigest() == (
            "b844009d80fbe2eec0a45b54dabaa5f53bfa16596b60971d30bfe2847eaa000f")

    def test_run_signs_each_record_once_and_replay_verifies_each(self, monkeypatch,
                                                                 tmp_path):
        # Each committed record is signed once; an enrollment's only signature
        # is its ENROLL record's. A run forks the process's ledger bootstrap,
        # so it pays for its own 4 records alone; the bootstrap is built first,
        # so the count does not depend on test order. The registered keys made
        # those 4 signatures, so OpenSSL verifies none of them live. Replaying
        # the run's log verifies each of its 7 records, the bootstrap's too.
        sim._bootstrap()
        calls = _count_calls(monkeypatch, "_sign", "_verify")
        report = sim.run(sim.get_preset("fig4"), seed_override=0)
        assert calls == {"_sign": 4, "_verify": 0}
        assert len(report.ledger._state.journal) == 7
        path = tmp_path / "fig4.log"
        report.ledger.write_audit_log(path)
        result = replay_audit_log(path, chaincode_factory=standard_chaincodes)
        assert (result.ok, result.records) == (True, 7)
        assert calls == {"_sign": 4, "_verify": 7}

    def test_lookalike_identity_verified_by_openssl(self, lg, alice, monkeypatch):
        # A registered certificate with a foreign signing key: the key's point
        # is not the registered one, so OpenSSL verifies the record and refuses
        # it. The genuine identity then commits without a verify.
        lookalike = replace(alice, signing_key=ec.derive_private_key(1, ec.SECP256R1()))
        calls = _count_calls(monkeypatch, "_verify")
        payload = encode_asset_payload("x", b"d")
        before = _state_of(lg)
        with pytest.raises(UnauthorizedError, match="transaction signature invalid"):
            lg.submit_transaction(lookalike, "pol", ASSET_CREATE, payload)
        assert calls == {"_verify": 1} and _state_of(lg) == before
        lg.submit_transaction(alice, "pol", ASSET_CREATE, payload)
        assert calls == {"_verify": 1}

    @pytest.mark.parametrize("attack", RUN_ATTACKS.values(), ids=RUN_ATTACKS)
    @pytest.mark.parametrize("preset", ["fig4", "fig5"])
    def test_records_committed_unverified_pass_openssl(self, preset, attack):
        # Equivalence of the live fast path with OpenSSL: every record a run
        # commits past the bootstrap verifies under its submitter's registered key.
        bootstrap = len(sim._bootstrap()[0]._state.journal)
        scenario = replace(sim.get_preset(preset), attack=attack)
        checked = 0
        for seed in range(10):
            state = sim.run(scenario, seed_override=seed).ledger._state
            for _, tx in state.journal[bootstrap:]:
                led._verify(state.keys[tx.submitter], tx.signature, tx.signed_bytes(),
                            "committed record")
                checked += 1
        assert checked >= 2 * 10  # one session of each run, at least, commits


def _split(signature):
    return int.from_bytes(signature[:32], "big"), int.from_bytes(signature[32:], "big")


def _join(r, s):
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def _high_s_twin(signature):
    r, s = _split(signature)
    return _join(r, P256_ORDER - s)


HOSTILE_SIGNATURES = {
    "high-s-twin": _high_s_twin,
    "63-bytes": lambda sig: sig[:63],
    "65-bytes": lambda sig: sig + b"\x00",
    "r-zero": lambda sig: _join(0, _split(sig)[1]),
    "s-zero": lambda sig: _join(_split(sig)[0], 0),
    "r-is-n": lambda sig: _join(P256_ORDER, _split(sig)[1]),
}


def _state_of(lg):
    state = lg._state
    return (_heights(lg), len(state.journal), dict(state.registry), dict(state.keys),
            {name: dict(ch.assets) for name, ch in state.channels.items()})


def _certificate(lg, encoded):
    """A certificate for "eve" with the key bytes encoded, valid from lg's now."""
    now = lg.clock.now_ns
    return Certificate("eve", Role.UAV, encoded, now, now + led.CERT_VALIDITY_NS)


def _hostile_signature_refused(lg, identity, channel, tx_type, payload, mutate, path):
    """mutate's encoding of the record's signature is refused live and in
    replay, leaving the state as it was; the genuine encoding then commits."""
    height = lg.height(channel) + 1
    tx = _signed_tx(identity, channel, tx_type, payload, lg.clock.now_ns, height)
    hostile = replace(tx, signature=mutate(tx.signature))
    before = _state_of(lg)
    with pytest.raises(UnauthorizedError, match="transaction signature invalid"):
        lg._state.commit(hostile)
    assert _state_of(lg) == before
    rec = led.format_audit_record(height, hostile)
    _fails_at(_replay_with(lg, rec, path), rec, "transaction signature invalid")
    assert lg._state.commit(tx) == height


def _ed25519_era_authority():
    """A log of the Ed25519 era: a 32-byte authority key, self-signed."""
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    material = hashlib.sha256(b"uwbpol-ledger-keys|" + bytes(8)).digest()
    key = Ed25519PrivateKey.from_private_bytes(
        hashlib.sha256(material + b"|authority").digest())
    public = key.public_key().public_bytes(serialization.Encoding.Raw,
                                           serialization.PublicFormat.Raw)
    body = Certificate("authority", Role.AUTHORITY, public, 0, led.CERT_VALIDITY_NS).encode()
    return SimpleNamespace(name="authority", sign=key.sign), body + led.lp(key.sign(body))


def _signed_certificate_era_authority():
    """A log whose certificates end in their issuer's P-256 signature."""
    authority = issue_identity(0, "authority", Role.AUTHORITY, 0)
    body = authority.certificate.encode()
    return authority, body + led.lp(authority.sign(body))


def _enrollment_era_log(authority):
    """The text of a log whose height 1 on `_members` an older enrollment format wrote."""
    signer, cert = authority()
    return _signed_record(signer, led.MEMBERSHIP_CHANNEL, led.ENROLL_TX_TYPE, cert, 0, 1) + "\n"


# What `uwbpol run --preset fig4 --seed 0 --audit` wrote while requests named
# their UAV and verdicts stated their outcome (SHA-256 75ae178e...5a0f, that
# format's golden digest of fig4-honest-0.log).
STATED_OUTCOME_LOG = Path(__file__).parent / "data" / "fig4-honest-0-before-derived-verdicts.log"

# A log that an older format wrote: era -> (its text, where and why replay stops).
OLD_ERA_LOGS = {
    "ed25519": (lambda: _enrollment_era_log(_ed25519_era_authority),
                "at height 1 on channel '_members': bad certificate"),
    "signed-certificate": (lambda: _enrollment_era_log(_signed_certificate_era_authority),
                           "at height 1 on channel '_members': bad certificate"),
    "stated-verdict-outcome": (lambda: STATED_OUTCOME_LOG.read_text(encoding="utf-8"),
                               "at height 1 on channel 'pol': bad request payload: "
                               "trailing bytes in request payload"),
}


HOSTILE_KEYS = {
    "32-bytes": lambda key: key[1:33],
    "off-curve": lambda key: key[:-1] + bytes([key[-1] ^ 1]),
    "prefix-05": lambda key: b"\x05" + key[1:],
    "hybrid-prefix": lambda key: bytes([6 + key[-1] % 2]) + key[1:],
    "compressed": lambda key: bytes([2 + key[-1] % 2]) + key[1:33],
}


class TestHostileSignatures:
    """Every encoding but a 64-byte low-s r||s is refused, live and in replay."""

    @pytest.mark.parametrize("mutate", HOSTILE_SIGNATURES.values(), ids=HOSTILE_SIGNATURES)
    def test_transaction_signature(self, lg, alice, mutate, tmp_path):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        _hostile_signature_refused(lg, alice, "pol", ASSET_CREATE,
                                   encode_asset_payload("b", b"2"), mutate, tmp_path / "a.log")

    def test_high_s_twin_of_a_committed_record(self, lg, alice, tmp_path):
        lg.submit_transaction(alice, "pol", ASSET_CREATE, encode_asset_payload("a", b"1"))
        path = tmp_path / "a.log"
        lg.write_audit_log(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        parts = lines[-1].split("\t")
        parts[7] = base64.b64encode(_high_s_twin(base64.b64decode(parts[7]))).decode("ascii")
        lines[-1] = "\t".join(parts)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _fails_at(replay_audit_log(path, chaincode_factory=asset_only), lines[-1],
                  "transaction signature invalid")

    @pytest.mark.parametrize("mutate", HOSTILE_SIGNATURES.values(), ids=HOSTILE_SIGNATURES)
    def test_certificate_signature(self, lg, alice, mutate, tmp_path):
        # A certificate's one signature is the authority's on its ENROLL record.
        _hostile_signature_refused(lg, lg.authority, led.MEMBERSHIP_CHANNEL,
                                   led.ENROLL_TX_TYPE,
                                   _certificate(lg, alice.public_key).encode(), mutate,
                                   tmp_path / "a.log")
        assert "eve" in lg._state.registry


class TestHostileKeys:
    @pytest.mark.parametrize("mangle", HOSTILE_KEYS.values(), ids=HOSTILE_KEYS)
    def test_enrollment_refused(self, lg, alice, mangle, tmp_path):
        cert = _certificate(lg, mangle(alice.public_key))
        before = _state_of(lg)
        with pytest.raises(UnauthorizedError, match="public key"):
            lg.submit_transaction(lg.authority, led.MEMBERSHIP_CHANNEL, led.ENROLL_TX_TYPE,
                                  cert.encode())
        assert _state_of(lg) == before and "eve" not in lg._state.keys
        rec = _next_record(lg, lg.authority, led.MEMBERSHIP_CHANNEL, led.ENROLL_TX_TYPE,
                           cert.encode())
        _fails_at(_replay_with(lg, rec, tmp_path / "a.log"), rec, "public key")

    def test_same_certificate_with_a_genuine_point_enrolls(self, lg, alice):
        # The same builder with a genuine point enrolls, so the refusals
        # above are about the key alone.
        cert = _certificate(lg, alice.public_key)
        lg.submit_transaction(lg.authority, led.MEMBERSHIP_CHANNEL, led.ENROLL_TX_TYPE,
                              cert.encode())
        assert lg._state.registry["eve"] == cert

    @pytest.mark.parametrize("era", sorted(OLD_ERA_LOGS))
    def test_old_era_log_fails_replay_without_traceback(self, era, tmp_path):
        text, where = OLD_ERA_LOGS[era]
        path = tmp_path / f"{era}.log"
        path.write_text(text(), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "uwbpol", "replay", "--audit", str(path)],
                              capture_output=True, text=True, timeout=120, env=cli_env())
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"replay FAILED {where}" in proc.stderr


class TestEnrollmentAuthority:
    """Only the root authority enrolls, and its own first ENROLL names itself."""

    def test_enroll_from_second_authority_refused(self, lg, alice, tmp_path):
        deputy = lg.enroll_identity("deputy", Role.AUTHORITY)
        payload = _certificate(lg, alice.public_key).encode()
        before = _state_of(lg)
        with pytest.raises(UnauthorizedError, match="only the root authority"):
            lg.submit_transaction(deputy, led.MEMBERSHIP_CHANNEL, led.ENROLL_TX_TYPE, payload)
        assert _state_of(lg) == before
        rec = _next_record(lg, deputy, led.MEMBERSHIP_CHANNEL, led.ENROLL_TX_TYPE, payload)
        _fails_at(_replay_with(lg, rec, tmp_path / "a.log"), rec, "only the root authority")
        lg.submit_transaction(lg.authority, led.MEMBERSHIP_CHANNEL, led.ENROLL_TX_TYPE, payload)
        assert "eve" in lg._state.registry

    def test_first_enroll_of_another_subject_refused(self, tmp_path):
        root = issue_identity(0, "root", Role.AUTHORITY, 0)
        other = issue_identity(0, "other", Role.AUTHORITY, 0)
        tx = _signed_tx(root, led.MEMBERSHIP_CHANNEL, led.ENROLL_TX_TYPE,
                        other.certificate.encode(), 0, 1)
        state = led.LedgerState(asset_only)
        with pytest.raises(UnauthorizedError, match="first enrollment"):
            state.commit(tx)
        assert (state.journal, state.registry, state.keys) == ([], {}, {})
        rec = led.format_audit_record(1, tx)
        path = tmp_path / "a.log"
        path.write_text(rec + "\n", encoding="utf-8")
        _fails_at(replay_audit_log(path, chaincode_factory=asset_only), rec, "first enrollment")


class TestLiveReplayAgreement:
    def test_replay_accepts_exactly_what_live_accepts(self, tmp_path):
        rng = random.Random(5)
        lg = Ledger(seed=77)
        lg.install_chaincode(led.DEFAULT_CHANNEL, PolChaincode())
        uav = lg.enroll_identity("uav", Role.UAV)
        pad = lg.enroll_identity("pad", Role.PLATFORM)
        foreign = Ledger(seed=78).enroll_identity("mallory", Role.UAV)
        wrong_key = ec.derive_private_key(2, ec.SECP256R1())
        submitters = [uav, uav, uav, pad, pad, pad, lg.authority, foreign,
                      replace(uav, signing_key=wrong_key),
                      _with_cert(uav, subject="pad"),
                      _with_cert(uav, role=Role.AUTHORITY)]
        sessions = [b"\x00" * 16]

        def payload(k, tx_type, submitter):
            if tx_type == TX_POL_REQUEST:
                sessions.append(k.to_bytes(16, "big"))
                req = PolRequest(sessions[-1], submitter, "pad",
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

    @pytest.mark.parametrize("text", ["bad\tname", "x\nY", "cr\rx", "line\u2028sep",
                                      "ff\x0cx", "end\n"])
    def test_log_separators_refused_live(self, lg, alice, text, tmp_path):
        # Replay splits the log into records and fields; a name or tx type
        # that contains a separator would commit live and fail replay.
        heights, now = _heights(lg), lg.clock.now_ns
        body = encode_asset_payload("x", b"d")
        with pytest.raises(InvalidTransactionError):
            lg.enroll_identity(text, Role.UAV)
        with pytest.raises(InvalidTransactionError):
            lg.submit_transaction(alice, "pol", text, body)
        with pytest.raises(InvalidTransactionError):
            lg.submit_transaction(_with_cert(alice, subject=text), "pol", ASSET_CREATE, body)
        assert _heights(lg) == heights and lg.clock.now_ns == now
        assert text not in lg._state.registry
        lg.submit_transaction(alice, "pol", ASSET_CREATE, body)
        path = tmp_path / "audit.log"
        lg.write_audit_log(path)
        result = replay_audit_log(path, chaincode_factory=asset_only)
        assert result.ok, result.message
