"""Adversarial event-order exploration of the two session machines."""

from uwbpol import pol, sim
from uwbpol.pol import SessionState

import safety_model


def test_exhaustive_exploration_finds_no_unsafe_authorization():
    report = safety_model.explore(max_transitions=100_000)
    assert report.transitions <= 100_000
    assert report.violations == [], (
        f"{len(report.violations)} reachable state(s) authorized without "
        f"enrollment + bilateral code match + accepting verdict")
    # Non-vacuity: the honest branch does reach AUTHORIZED somewhere.
    assert report.authorized_states > 0


def test_no_response_ever_sent_for_mismatched_poll():
    # Walk every reachable state transition again and confirm the uav only
    # ever emits a response after a correct-code poll.
    from uwbpol.pol import SendFrame, UwbFrameIn, uav_step
    from uwbpol.uwb import FrameType, RangingFrame

    for state in (SessionState.POLLING, SessionState.RANGING):
        for code in (b"\x00" * 16, b"\xff" * 16, safety_model.WRONG_CODE):
            session = safety_model.initial_world(True, True, True).uav
            from dataclasses import replace

            session = replace(session, state=state)
            poll = RangingFrame(FrameType.POLL, safety_model.SID, "a0", "uav", code)
            new_session, actions = uav_step(session, UwbFrameIn(poll),
                                            safety_model.UAV_CTX)
            sends = [a for a in actions if isinstance(a, SendFrame)]
            if code != session.code_platform:
                assert sends == []
                assert new_session.state is SessionState.ABORTED
            else:
                assert len(sends) == 1


def test_model_loop_walks_the_live_trace(monkeypatch):
    # Under the live loop's own order and with nothing injected, the model's
    # effects walk an honest session exactly as run_session does on fig4
    # seed 0, attempt 0, except for the sim-time column.
    outcomes = []

    def recording(*args, **kwargs):
        outcomes.append(pol.run_session(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(sim, "run_session", recording)
    sim.run(sim.get_preset("fig4"), seed_override=0)
    live = [entry[1:] for entry in outcomes[0].trace]
    assert [entry[1:] for entry in safety_model.honest_trace()] == live
    assert live[-1][3] == live[-2][3] == SessionState.AUTHORIZED.value
