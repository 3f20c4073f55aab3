"""Hostile ledger traffic, generated: live commit and audit replay must agree.

A Hypothesis state machine drives one Ledger with the standard chaincodes.
Its rules submit, as the UAV, the platform, an identity that another
ledger's authority certified, or a look-alike that holds the UAV's
certificate with another key: asset transactions on plain, session and code
ids; POL requests, whose UAV is their submitter, with fresh or reused
session ids and codes; and verdicts of three numbers that go up to 1e200, so
that some of them overflow the likelihood the ledger derives. After every
submit, only UwbPolError subclasses may escape, a refused submit leaves
heights and state as they were, and no look-alike's submit commits. At
teardown, the written audit log must replay ok to the same assets. Some
verdicts must commit over the whole run.
"""

import struct
import tempfile
from dataclasses import replace
from pathlib import Path

from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, multiple, rule

from uwbpol.errors import UwbPolError
from uwbpol.geo import Position
from uwbpol.ledger import (
    ASSET_CREATE,
    ASSET_DELETE,
    ASSET_UPDATE,
    CHANNEL_ROLES,
    CODE_ASSET_PREFIX,
    DEFAULT_CHANNEL,
    SESSION_ASSET_PREFIX,
    Ledger,
    Role,
    encode_asset_delete_payload,
    encode_asset_payload,
    replay_audit_log,
)
from uwbpol.pol import (
    TX_POL_REQUEST,
    TX_POL_VERDICT,
    LocationClaim,
    PolChaincode,
    PolRequest,
    encode_pol_request,
    standard_chaincodes,
)

FOREIGN = Ledger(seed=777).enroll_identity("intruder", Role.UAV)
LOOKALIKE = "uav-1 look-alike"  # key in parties: uav-1's certificate, another signing key
WHO = st.sampled_from(["uav-1", "pad-1", FOREIGN.name, LOOKALIKE])
# Weighted toward the enrolled platform, so that some verdicts still commit
# while the look-alike takes a quarter of WHO's draws.
PLATFORM = st.one_of(st.just("pad-1"), st.just("pad-1"), WHO)
ID16 = st.binary(min_size=16, max_size=16)
# Finite verdict numbers: small ones, and ones near and past where a square
# overflows a float.
NUMBER = st.one_of(st.floats(min_value=0.0, max_value=10.0),
                   st.sampled_from([0.0, 0.05, 1.0, 1e154, 1.3e154, 1e200]),
                   st.floats(min_value=1e150, max_value=1e200))
BUFFER = st.floats(min_value=0.0, max_value=10.0, exclude_min=True) | NUMBER
COORD = st.floats(min_value=-1e6, max_value=1e6)


class HostileLedger(RuleBasedStateMachine):
    verdicts_committed = 0  # over every example of a run
    sessions = Bundle("sessions")
    opened = Bundle("opened")  # ids of sessions whose request committed
    codes = Bundle("codes")

    def __init__(self):
        super().__init__()
        self.lg = Ledger(seed=5)
        self.lg.install_chaincode(DEFAULT_CHANNEL, PolChaincode())
        uav = self.lg.enroll_identity("uav-1", Role.UAV)
        self.parties = {"uav-1": uav,
                        "pad-1": self.lg.enroll_identity("pad-1", Role.PLATFORM),
                        FOREIGN.name: FOREIGN,
                        LOOKALIKE: replace(uav, signing_key=ec.derive_private_key(
                            3, ec.SECP256R1()))}

    def _state(self):
        return ({ch: self.lg.height(ch) for ch in CHANNEL_ROLES},
                {ch: self.lg.assets_snapshot(ch) for ch in CHANNEL_ROLES})

    def _submit(self, who, tx_type, payload) -> bool:
        """Whether the ledger committed the transaction."""
        before = self._state()
        try:
            self.lg.submit_transaction(self.parties[who], DEFAULT_CHANNEL, tx_type, payload)
        except UwbPolError:
            assert self._state() == before
            return False
        assert who != LOOKALIKE, "a look-alike identity's submit committed"
        return True

    @rule(target=sessions, sid=ID16)
    def new_session_id(self, sid):
        return sid

    @rule(target=codes, code=ID16)
    def new_code(self, code):
        return code

    @rule(who=WHO, tx_type=st.sampled_from([ASSET_CREATE, ASSET_UPDATE, ASSET_DELETE]),
          plain=st.sampled_from(["a0", "a1"]), sid=sessions, code=codes,
          kind=st.sampled_from(["plain", "session", "code"]), data=st.binary(max_size=32))
    def asset_tx(self, who, tx_type, plain, sid, code, kind, data):
        asset_id = {"plain": plain, "session": SESSION_ASSET_PREFIX + sid.hex(),
                    "code": CODE_ASSET_PREFIX + code.hex()}[kind]
        payload = (encode_asset_delete_payload(asset_id) if tx_type == ASSET_DELETE
                   else encode_asset_payload(asset_id, data))
        self._submit(who, tx_type, payload)

    @rule(target=opened, who=WHO, platform=PLATFORM, sid=sessions, code_uav=codes,
          code_platform=codes, x=COORD, y=COORD)
    def request(self, who, platform, sid, code_uav, code_platform, x, y):
        claim = LocationClaim(Position(x, y), 0)
        committed = self._submit(who, TX_POL_REQUEST, encode_pol_request(PolRequest(
            sid, who, platform, code_uav, code_platform, claim)))
        return multiple(sid) if committed else multiple()

    @rule(who=PLATFORM, sid=opened, d=NUMBER, radius=NUMBER, buffer=BUFFER)
    def verdict(self, who, sid, d, radius, buffer):
        payload = sid + struct.pack(">ddd", d, radius, buffer)
        if self._submit(who, TX_POL_VERDICT, payload):
            HostileLedger.verdicts_committed += 1

    def teardown(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "audit.log"
            self.lg.write_audit_log(path)
            result = replay_audit_log(path, chaincode_factory=standard_chaincodes)
        assert result.ok, result.message
        assert result.assets == {ch: self.lg.assets_snapshot(ch) for ch in CHANNEL_ROLES}


HostileLedger.TestCase.settings = settings(
    derandomize=True, database=None, max_examples=60, stateful_step_count=25,
    deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestHostileLedger(HostileLedger.TestCase):
    def runTest(self):
        HostileLedger.verdicts_committed = 0
        super().runTest()
        assert HostileLedger.verdicts_committed > 0
