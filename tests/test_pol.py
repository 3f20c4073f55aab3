"""Handshake: codes, payloads, state machines, validation, full sessions."""

import math
import random
from dataclasses import replace

import pytest

from uwbpol import geo, pol
from uwbpol.clock import SimClock
from uwbpol.errors import (
    ChaincodeError,
    ProtocolViolationError,
    UnauthorizedError,
    ValidationUnavailableError,
)
from uwbpol.geo import EstimateResult, Position, RangeStats
from uwbpol.ledger import Ledger, Role
from uwbpol.pol import (
    LocationClaim,
    PlatformContext,
    PlatformParty,
    PolChaincode,
    PolRequest,
    PolSession,
    RangingResultIn,
    RequestIn,
    SendFrame,
    SessionState,
    SetTimer,
    Start,
    StartRanging,
    SubmitTx,
    TimeoutIn,
    UavContext,
    UavParty,
    Verdict,
    VerdictIn,
    decode_pol_request,
    decode_pol_verdict,
    encode_pol_request,
    encode_pol_verdict,
    generate_codes,
    platform_step,
    run_session,
    uav_step,
    validate_location,
)
from uwbpol.uwb import ChannelModel, FrameType, RadioNode, RangingFrame

from conftest import FIG4_ANCHOR_COORDS, make_anchor_set

CODE_U = b"U" * 16
CODE_P = b"P" * 16
SID = b"\x11" * 16
CLAIM = LocationClaim(Position(3.95, 2.705), 1000)


class TestGenerateCodes:
    def test_deterministic_under_seed(self):
        assert generate_codes(random.Random(5)) == generate_codes(random.Random(5))

    def test_distinct_within_pair_bulk(self):
        rng = random.Random(0)
        for _ in range(10**6):
            a = rng.randbytes(16)
            b = rng.randbytes(16)
            if a == b:
                pytest.fail("16-byte draws collided")

    def test_different_seeds_differ(self):
        assert generate_codes(random.Random(1)) != generate_codes(random.Random(2))

    def test_shape(self):
        cu, cp = generate_codes(random.Random(9))
        assert len(cu) == 16 and len(cp) == 16 and cu != cp


class TestPayloadCodecs:
    def test_request_roundtrip(self):
        req = PolRequest(SID, "uav-1", "pad-1", CODE_U, CODE_P, CLAIM)
        assert decode_pol_request(encode_pol_request(req)) == req

    def test_request_trailing_bytes_rejected(self):
        req = PolRequest(SID, "uav-1", "pad-1", CODE_U, CODE_P, CLAIM)
        with pytest.raises(ValueError):
            decode_pol_request(encode_pol_request(req) + b"\x00")

    def test_request_truncated_rejected(self):
        req = PolRequest(SID, "uav-1", "pad-1", CODE_U, CODE_P, CLAIM)
        with pytest.raises(ValueError):
            decode_pol_request(encode_pol_request(req)[:-5])

    def test_verdict_roundtrip(self):
        verdict = Verdict(True, 0.25, 0.05, 1.0, 0.9)
        sid, back = decode_pol_verdict(encode_pol_verdict(SID, verdict))
        assert sid == SID and back == verdict

    def test_verdict_bad_flag_rejected(self):
        buf = bytearray(encode_pol_verdict(SID, Verdict(False, 2.0, 0.1, 1.0, 0.0)))
        buf[16] = 0x02
        with pytest.raises(ValueError):
            decode_pol_verdict(bytes(buf))


def _estimate(x, y, err_radius=0.05, converged=True):
    return EstimateResult(Position(x, y), 0.01, err_radius, 5, converged)


class TestValidateLocation:
    def test_identical_positions(self):
        v = validate_location(CLAIM, _estimate(3.95, 2.705), buffer=1.0)
        assert v.accepted
        assert v.claim_to_estimate_distance == 0.0
        assert v.likelihood == 1.0

    def test_within_buffer_accepted(self):
        v = validate_location(CLAIM, _estimate(3.95 + 0.09, 2.705), buffer=1.0)
        assert v.accepted
        assert 0 < v.likelihood < 1

    def test_spoofed_claim_rejected(self):
        v = validate_location(CLAIM, _estimate(3.95 + 2.0, 2.705, err_radius=0.02),
                              buffer=1.0)
        assert not v.accepted
        assert v.claim_to_estimate_distance == pytest.approx(2.0)
        assert v.likelihood < 1e-3

    def test_boundary_is_accepting(self):
        v = validate_location(CLAIM, _estimate(3.95 + 1.0, 2.705), buffer=1.0)
        assert v.accepted  # accepted iff distance <= buffer

    def test_non_converged_unavailable(self):
        with pytest.raises(ValidationUnavailableError):
            validate_location(CLAIM, _estimate(3.95, 2.705, converged=False), buffer=1.0)

    def test_bad_buffer(self):
        with pytest.raises(ValueError):
            validate_location(CLAIM, _estimate(3.95, 2.705), buffer=0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e154, 1.3e154])
    def test_likelihood_at_one_sigma_for_every_radius(self, scale):
        # 2 * r**2 overflows past r ~ 9.5e153 while r**2 stays finite.
        assert pol.claim_likelihood(scale, scale) == pytest.approx(math.exp(-0.5))


def uav_session(state=SessionState.INIT, **kw):
    fields = dict(session_id=SID, uav_id="uav-1", platform_id="pad-1",
                  code_uav=CODE_U, code_platform=CODE_P, state=state, claim=CLAIM)
    fields.update(kw)
    return PolSession(**fields)


platform_session = uav_session  # both parties hold the same session fields


UAV_CTX = UavContext("uav")
PLATFORM_CTX = PlatformContext(make_anchor_set(FIG4_ANCHOR_COORDS), "a0", "uav", buffer=1.0)


class TestUavMachine:
    def test_start_submits_request(self):
        s, actions = uav_step(uav_session(), Start(), UAV_CTX)
        assert s.state is SessionState.REQUESTED
        submit = next(a for a in actions if isinstance(a, SubmitTx))
        assert submit.tx_type == "POL_REQUEST"
        req = decode_pol_request(submit.payload)
        assert req.session_id == SID
        assert req.code_uav == CODE_U and req.code_platform == CODE_P
        assert req.claim == CLAIM

    def test_commit_event_moves_to_polling(self):
        s0, actions = uav_step(uav_session(), Start(), UAV_CTX)
        payload = next(a for a in actions if isinstance(a, SubmitTx)).payload
        s1, _ = uav_step(s0, RequestIn(decode_pol_request(payload)), UAV_CTX)
        assert s1.state is SessionState.POLLING

    def test_good_poll_triggers_response(self):
        poll = RangingFrame(FrameType.POLL, SID, "a0", "uav", CODE_P)
        s, actions = uav_step(uav_session(SessionState.POLLING), pol.UwbFrameIn(poll),
                              UAV_CTX)
        assert s.state is SessionState.RANGING
        send = next(a for a in actions if isinstance(a, SendFrame))
        assert send.frame.frame_type is FrameType.RESPONSE
        assert send.frame.code == CODE_U
        assert send.frame.dst_id == "a0"

    def test_wrong_code_poll_aborts_silently(self):
        poll = RangingFrame(FrameType.POLL, SID, "a0", "uav", b"Z" * 16)
        s, actions = uav_step(uav_session(SessionState.POLLING), pol.UwbFrameIn(poll),
                              UAV_CTX)
        assert s.state is SessionState.ABORTED
        assert s.abort_reason == "code-mismatch"
        assert not any(isinstance(a, SendFrame) for a in actions)

    def test_stale_session_poll_aborts(self):
        poll = RangingFrame(FrameType.POLL, b"\x99" * 16, "a0", "uav", CODE_P)
        s, actions = uav_step(uav_session(SessionState.POLLING), pol.UwbFrameIn(poll),
                              UAV_CTX)
        assert s.state is SessionState.ABORTED
        assert s.abort_reason == "code-mismatch"
        assert actions == []

    def test_verdict_drives_terminal(self):
        verdict = Verdict(True, 0.02, 0.05, 1.0, 0.99)
        s, _ = uav_step(uav_session(SessionState.VALIDATING), VerdictIn(SID, verdict),
                        UAV_CTX)
        assert s.state is SessionState.AUTHORIZED
        assert s.verdict == verdict

        rejected = Verdict(False, 2.0, 0.05, 1.0, 0.0)
        s2, _ = uav_step(uav_session(SessionState.VALIDATING), VerdictIn(SID, rejected),
                         UAV_CTX)
        assert s2.state is SessionState.REJECTED

    def test_invalid_event_raises(self):
        with pytest.raises(ProtocolViolationError):
            uav_step(uav_session(SessionState.INIT), TimeoutIn(), UAV_CTX)
        with pytest.raises(ProtocolViolationError):
            uav_step(uav_session(SessionState.REQUESTED),
                     VerdictIn(SID, Verdict(True, 0, 0, 1, 1)), UAV_CTX)
        with pytest.raises(ProtocolViolationError):  # only the platform hears a failed sweep
            uav_step(uav_session(SessionState.RANGING), RangingResultIn(False), UAV_CTX)


class TestPlatformMachine:
    def test_request_event_sends_poll_with_platform_code(self):
        req = PolRequest(SID, "uav-1", "pad-1", CODE_U, CODE_P, CLAIM)
        blank = PolSession(b"\x00" * 16, "", "pad-1", b"\x00" * 16,
                           b"\x00" * 16, state=SessionState.REQUESTED)
        s, actions = platform_step(blank, RequestIn(req), PLATFORM_CTX)
        assert s.state is SessionState.POLLING
        assert s.session_id == SID and s.code_uav == CODE_U
        assert s.claim == CLAIM
        send = next(a for a in actions if isinstance(a, SendFrame))
        assert send.frame.frame_type is FrameType.POLL
        assert send.frame.code == CODE_P

    def test_good_response_starts_ranging(self):
        resp = RangingFrame(FrameType.RESPONSE, SID, "uav", "a0", CODE_U)
        s, actions = platform_step(platform_session(SessionState.POLLING),
                                   pol.UwbFrameIn(resp), PLATFORM_CTX)
        assert s.state is SessionState.RANGING
        assert any(isinstance(a, StartRanging) for a in actions)

    def test_bad_response_code_aborts(self):
        resp = RangingFrame(FrameType.RESPONSE, SID, "uav", "a0", b"Z" * 16)
        s, actions = platform_step(platform_session(SessionState.POLLING),
                                   pol.UwbFrameIn(resp), PLATFORM_CTX)
        assert s.state is SessionState.ABORTED
        assert s.abort_reason == "code-mismatch"

    def test_ranging_result_submits_consistent_verdict(self):
        anchors = PLATFORM_CTX.anchor_set
        target = Position(3.95, 2.705)
        ranges = tuple(RangeStats(1, geo.distance(p, target)) for _, p in anchors.anchors)
        s, actions = platform_step(platform_session(SessionState.RANGING),
                                   RangingResultIn(True, ranges), PLATFORM_CTX)
        assert s.state is SessionState.VALIDATING
        assert s.estimate is not None and s.estimate.converged
        submit = next(a for a in actions if isinstance(a, SubmitTx))
        assert submit.tx_type == "POL_VERDICT"
        sid, verdict = decode_pol_verdict(submit.payload)
        assert sid == SID
        assert verdict.accepted
        assert verdict.claim_to_estimate_distance < 1e-6

    def test_invalid_event_raises(self):
        with pytest.raises(ProtocolViolationError):
            platform_step(platform_session(SessionState.INIT),
                          RangingResultIn(True), PLATFORM_CTX)


# Every waiting state of both machines: (step, context, session, event, resend),
# where resend is what each retry sends again besides re-arming the timer.
RETRY_CASES = {
    "uav-REQUESTED": (uav_step, UAV_CTX, uav_session(SessionState.REQUESTED), TimeoutIn(), None),
    "uav-POLLING": (uav_step, UAV_CTX, uav_session(SessionState.POLLING), TimeoutIn(), None),
    "uav-RANGING": (uav_step, UAV_CTX, uav_session(SessionState.RANGING), TimeoutIn(), None),
    "uav-VALIDATING": (uav_step, UAV_CTX, uav_session(SessionState.VALIDATING),
                       TimeoutIn(), None),
    "platform-POLLING": (platform_step, PLATFORM_CTX, platform_session(SessionState.POLLING),
                         TimeoutIn(),
                         SendFrame(RangingFrame(FrameType.POLL, SID, "a0", "uav", CODE_P))),
    "platform-RANGING-timeout": (platform_step, PLATFORM_CTX,
                                 platform_session(SessionState.RANGING), TimeoutIn(),
                                 StartRanging()),
    "platform-RANGING-failed": (platform_step, PLATFORM_CTX,
                                platform_session(SessionState.RANGING), RangingResultIn(False),
                                StartRanging()),
    "platform-VALIDATING": (platform_step, PLATFORM_CTX,
                            platform_session(SessionState.VALIDATING), TimeoutIn(), None),
}


@pytest.mark.parametrize("case", sorted(RETRY_CASES))
def test_retry_rule(case):
    step, ctx, s, event, resend = RETRY_CASES[case]
    waiting = s.state
    for i in range(pol.MAX_RETRIES):
        s, actions = step(s, event, ctx)
        assert s.state is waiting and s.retries == i + 1
        assert [a for a in actions if not isinstance(a, SetTimer)] == (
            [] if resend is None else [resend])
        assert sum(isinstance(a, SetTimer) for a in actions) == 1
    s, actions = step(s, event, ctx)
    assert s.state is SessionState.ABORTED and s.abort_reason == "timeout"
    assert actions == []


class TestPolChaincode:
    def _ledger(self):
        lg = Ledger(seed=2)
        lg.install_chaincode("pol", PolChaincode())
        uav = lg.enroll_identity("uav-1", Role.UAV)
        pad = lg.enroll_identity("pad-1", Role.PLATFORM)
        return lg, uav, pad

    def test_request_creates_session_asset(self):
        lg, uav, _ = self._ledger()
        req = PolRequest(SID, "uav-1", "pad-1", CODE_U, CODE_P, CLAIM)
        lg.submit_transaction(uav, "pol", "POL_REQUEST", encode_pol_request(req))
        asset = lg.query_asset("pol", "pol-session-" + SID.hex())
        # Owned by the platform the request names: only it may close the session.
        assert asset.version == 1 and asset.owner == "pad-1"

    def test_code_reuse_rejected(self):
        lg, uav, _ = self._ledger()
        req1 = PolRequest(SID, "uav-1", "pad-1", CODE_U, CODE_P, CLAIM)
        lg.submit_transaction(uav, "pol", "POL_REQUEST", encode_pol_request(req1))
        req2 = PolRequest(b"\x22" * 16, "uav-1", "pad-1", CODE_U, b"Q" * 16, CLAIM)
        with pytest.raises(ChaincodeError):
            lg.submit_transaction(uav, "pol", "POL_REQUEST", encode_pol_request(req2))

    def test_verdict_must_reference_open_session(self):
        lg, _, pad = self._ledger()
        verdict = Verdict(True, 0.1, 0.05, 1.0, pol.claim_likelihood(0.1, 0.05))
        payload = encode_pol_verdict(b"\x33" * 16, verdict)
        with pytest.raises(ChaincodeError):
            lg.submit_transaction(pad, "pol", "POL_VERDICT", payload)

    def test_inconsistent_verdict_rejected(self):
        lg, uav, pad = self._ledger()
        req = PolRequest(SID, "uav-1", "pad-1", CODE_U, CODE_P, CLAIM)
        lg.submit_transaction(uav, "pol", "POL_REQUEST", encode_pol_request(req))
        bad = Verdict(True, 3.0, 0.05, 1.0, 0.0)  # claims accept with d > buffer
        with pytest.raises(ChaincodeError):
            lg.submit_transaction(pad, "pol", "POL_VERDICT",
                                  encode_pol_verdict(SID, bad))

    def test_verdict_with_radius_near_overflow_judged_on_its_numbers(self):
        lg, uav, pad = self._ledger()
        req = PolRequest(SID, "uav-1", "pad-1", CODE_U, CODE_P, CLAIM)
        lg.submit_transaction(uav, "pol", "POL_REQUEST", encode_pol_request(req))
        with pytest.raises(ChaincodeError, match="likelihood"):
            lg.submit_transaction(pad, "pol", "POL_VERDICT", encode_pol_verdict(
                SID, Verdict(False, 1e154, 1e154, 1.0, 1.0)))
        lg.submit_transaction(pad, "pol", "POL_VERDICT", encode_pol_verdict(
            SID, Verdict(False, 1e154, 1e154, 1.0, math.exp(-0.5))))

    def test_double_verdict_rejected(self):
        lg, uav, pad = self._ledger()
        req = PolRequest(SID, "uav-1", "pad-1", CODE_U, CODE_P, CLAIM)
        lg.submit_transaction(uav, "pol", "POL_REQUEST", encode_pol_request(req))
        ok = Verdict(True, 0.1, 0.05, 1.0, pol.claim_likelihood(0.1, 0.05))
        lg.submit_transaction(pad, "pol", "POL_VERDICT", encode_pol_verdict(SID, ok))
        assert lg.query_asset("pol", "pol-session-" + SID.hex()).version == 2
        with pytest.raises(ChaincodeError):
            lg.submit_transaction(pad, "pol", "POL_VERDICT", encode_pol_verdict(SID, ok))


def session_world(seed=5, noise=0.05, loss=0.01, truth=Position(3.95, 2.705)):
    clock = SimClock()
    lg = Ledger(seed=seed, clock=clock)
    lg.install_chaincode("pol", PolChaincode())
    uav_identity = lg.enroll_identity("uav-1", Role.UAV)
    pad_identity = lg.enroll_identity("pad-1", Role.PLATFORM)
    anchors = make_anchor_set(FIG4_ANCHOR_COORDS)
    anchor_nodes = tuple(RadioNode(a_id, pos) for a_id, pos in anchors.anchors)
    channel = ChannelModel(noise_sigma=noise, loss_prob=loss, seed=seed, clock=clock)
    uav_party = UavParty(uav_identity, RadioNode("uav", truth))
    platform_party = PlatformParty(pad_identity, anchors, anchor_nodes)
    return lg, channel, uav_party, platform_party, clock


def ranging_started(outcome) -> bool:
    return any("StartRanging" in actions
               for _, key, _, _, _, actions in outcome.trace if key == "platform")


class TestRunSession:
    def test_honest_run_authorized(self):
        lg, channel, uav_party, platform_party, clock = session_world()
        claim = LocationClaim(Position(3.95, 2.705), clock.now_ns)
        out = run_session(uav_party, platform_party, lg, channel, claim,
                          random.Random(1), buffer=1.0)
        assert out.uav.state is SessionState.AUTHORIZED
        assert out.platform.state is SessionState.AUTHORIZED
        assert out.platform.verdict.accepted
        assert out.uav.verdict == out.platform.verdict

    def test_replayed_poll_aborts_with_code_mismatch(self):
        lg, channel, uav_party, platform_party, clock = session_world()
        claim = LocationClaim(Position(3.95, 2.705), clock.now_ns)
        first = run_session(uav_party, platform_party, lg, channel, claim,
                            random.Random(1), buffer=1.0)
        assert first.terminal_state is SessionState.AUTHORIZED

        stale_sid = first.uav.session_id
        stale_code = first.uav.code_platform

        def tamper(frame):
            return replace(frame, session_id=stale_sid, code=stale_code)

        second = run_session(uav_party, platform_party, lg, channel, claim,
                             random.Random(2), buffer=1.0, poll_tamper=tamper)
        assert second.uav.state is SessionState.ABORTED
        assert second.uav.abort_reason == "code-mismatch"
        assert second.platform.estimate is None
        assert not ranging_started(second)

    def test_out_of_range_uav_never_ranges(self):
        # 80 m from the anchors at max_range 60: no handshake poll reaches it.
        truth = Position(2.675 + 80.0, 0.875)
        lg, channel, uav_party, platform_party, clock = session_world(truth=truth)
        assert channel.max_range == 60.0
        claim = LocationClaim(truth, clock.now_ns)
        out = run_session(uav_party, platform_party, lg, channel, claim,
                          random.Random(1), buffer=1.0)
        assert out.terminal_state is SessionState.ABORTED
        assert out.platform.abort_reason == "timeout"
        assert out.uav.abort_reason == "timeout"
        assert not ranging_started(out)
        assert {after for _, key, _, _, after, _ in out.trace if key == "platform"} == {
            "REQUESTED", "POLLING", "ABORTED"}

    def test_singular_solve_aborts_validation_unavailable(self, monkeypatch):
        # With every normal matrix over the condition limit, no start
        # converges: the solve says so and the platform aborts, no traceback.
        monkeypatch.setattr(geo, "COND_LIMIT", 0.5)
        anchors = make_anchor_set(FIG4_ANCHOR_COORDS)
        truth = Position(3.95, 2.705)
        est = geo.multilaterate(anchors, [RangeStats(3, geo.distance(p, truth))
                                          for _, p in anchors.anchors])
        assert not est.converged and est.error_radius == 0.0
        lg, channel, uav_party, platform_party, clock = session_world(truth=truth)
        out = run_session(uav_party, platform_party, lg, channel,
                          LocationClaim(truth, clock.now_ns), random.Random(1), buffer=1.0)
        assert out.platform.state is SessionState.ABORTED
        assert out.platform.abort_reason == "validation-unavailable"
        assert out.platform.estimate is not None and not out.platform.estimate.converged

    def test_session_unsubscribes_even_when_it_raises(self):
        # A session holds nothing on the ledger: it reads records by height.
        # What is left to pin is that a fault inside it raises through.
        lg, channel, uav_party, platform_party, clock = session_world()

        def tamper(frame):
            raise RuntimeError("radio fault")

        with pytest.raises(RuntimeError, match="radio fault"):
            run_session(uav_party, platform_party, lg, channel,
                        LocationClaim(Position(3.95, 2.705), clock.now_ns),
                        random.Random(1), buffer=1.0, poll_tamper=tamper)

    def test_session_reads_only_records_committed_after_it_starts(self):
        lg, channel, uav_party, platform_party, clock = session_world()
        claim = LocationClaim(Position(3.95, 2.705), clock.now_ns)
        first = run_session(uav_party, platform_party, lg, channel, claim,
                            random.Random(1), buffer=1.0)
        assert first.terminal_state is SessionState.AUTHORIZED
        assert [tx.tx_type for tx in lg.transactions("pol")] == [pol.TX_POL_REQUEST,
                                                                 pol.TX_POL_VERDICT]
        # The first session's request and verdict are still on the ledger; a
        # session that read them would arm its platform from the stale request.
        second = run_session(uav_party, platform_party, lg, channel, claim,
                             random.Random(2), buffer=1.0)
        assert second.terminal_state is SessionState.AUTHORIZED
        assert second.uav.session_id != first.uav.session_id
        assert second.platform.session_id == second.uav.session_id
        assert second.platform.code_platform == second.uav.code_platform

    def test_unenrolled_uav_never_requests(self):
        lg, channel, _, platform_party, clock = session_world()
        foreign = Ledger(seed=777).enroll_identity("intruder", Role.UAV)
        rogue_party = UavParty(foreign, RadioNode("uav", Position(3.95, 2.705)))
        claim = LocationClaim(Position(3.95, 2.705), clock.now_ns)
        out = run_session(rogue_party, platform_party, lg, channel, claim,
                          random.Random(1), buffer=1.0)
        assert out.uav.state is SessionState.ABORTED
        assert out.uav.abort_reason == "unauthorized"
        assert lg.height("pol") == 0  # nothing was committed

    # A refused submit is traced from the state it came from, then the session aborts.
    REFUSED_REQUEST_TRACE = [
        ("platform", "INIT", "Start", "REQUESTED", ()),
        ("uav", "INIT", "Start", "REQUESTED", ("SubmitTx", "SetTimer")),
        ("uav", "REQUESTED", "SubmitRejected", "ABORTED", ()),
    ]

    def test_unauthorized_submit_traced_from_its_state(self):
        lg, channel, uav_party, platform_party, clock = session_world()
        foreign = Ledger(seed=777).enroll_identity("intruder", Role.UAV)
        claim = LocationClaim(Position(3.95, 2.705), clock.now_ns)
        out = run_session(UavParty(foreign, uav_party.node), platform_party, lg, channel,
                          claim, random.Random(1), buffer=1.0)
        assert out.uav.abort_reason == "unauthorized"
        assert [entry[1:] for entry in out.trace] == self.REFUSED_REQUEST_TRACE

    def test_chaincode_reject_traced_from_its_state(self):
        lg, channel, uav_party, platform_party, clock = session_world()
        claim = LocationClaim(Position(3.95, 2.705), clock.now_ns)
        run_session(uav_party, platform_party, lg, channel, claim,
                    random.Random(1), buffer=1.0)
        # The same session rng draws the same session id, which is already open.
        out = run_session(uav_party, platform_party, lg, channel, claim,
                          random.Random(1), buffer=1.0)
        assert out.uav.abort_reason == "chaincode-reject"
        assert lg.height("pol") == 2
        assert [entry[1:] for entry in out.trace] == self.REFUSED_REQUEST_TRACE

    def test_sessions_never_share_codes(self):
        lg, channel, uav_party, platform_party, clock = session_world()
        rng = random.Random(8)
        seen = set()
        for _ in range(5):
            claim = LocationClaim(Position(3.95, 2.705), clock.now_ns)
            out = run_session(uav_party, platform_party, lg, channel, claim, rng,
                              buffer=1.0)
            assert out.terminal_state is SessionState.AUTHORIZED
            for code in (out.uav.code_uav, out.uav.code_platform):
                assert code not in seen
                seen.add(code)

    def test_buffer_monotonicity(self):
        # Identical seeds: accepting at a small buffer implies accepting at
        # any larger one.
        outcomes = {}
        for buffer in (0.4, 1.0, 2.0):
            lg, channel, uav_party, platform_party, clock = session_world(seed=21)
            claim = LocationClaim(Position(3.95, 2.705), clock.now_ns)
            out = run_session(uav_party, platform_party, lg, channel, claim,
                              random.Random(3), buffer=buffer)
            outcomes[buffer] = out.terminal_state is SessionState.AUTHORIZED
            assert out.platform.verdict is not None or out.terminal_state is SessionState.ABORTED
        assert outcomes[0.4] <= outcomes[1.0] <= outcomes[2.0]

    def test_authorized_implies_accepted_verdict(self):
        lg, channel, uav_party, platform_party, clock = session_world(seed=13)
        claim = LocationClaim(Position(3.95, 2.705), clock.now_ns)
        out = run_session(uav_party, platform_party, lg, channel, claim,
                          random.Random(4), buffer=1.0)
        if out.uav.state is SessionState.AUTHORIZED:
            assert out.uav.verdict.accepted
        if out.platform.state is SessionState.AUTHORIZED:
            assert out.platform.verdict.accepted

    def test_spoofed_claim_rejected_end_to_end(self):
        lg, channel, uav_party, platform_party, clock = session_world(seed=17)
        claim = LocationClaim(Position(3.95 + 2.0, 2.705), clock.now_ns)
        out = run_session(uav_party, platform_party, lg, channel, claim,
                          random.Random(5), buffer=1.0)
        assert out.uav.state is SessionState.REJECTED
        assert out.platform.state is SessionState.REJECTED
        assert not out.platform.verdict.accepted
