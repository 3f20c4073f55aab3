"""Per-layer metrics of a traced run.

Spans and call counts come from the tracer; a few observers pull counts out
of the arguments and results at the layer boundaries that define them (a
ranging sweep's size, a solve's rows and iterations, a session's outcome).
Host times come from spans; simulated values come from the workload's own
outcome statistics, so they repeat exactly for a seed.
"""

from __future__ import annotations

import statistics
from collections import Counter

from tracer import Tracer, argument

SUBMIT = "ledger.Ledger.submit_transaction"
LEDGER_SETUP = ("ledger.Ledger.__init__", "ledger.Ledger.enroll_identity")
SCENARIO_BUILDERS = ("sim.get_preset", "sim.scenario_from_dict", "sim.load_scenario")


def observe(tracer: Tracer, api) -> None:
    """Register the observers the per-layer metrics need."""
    values = tracer.values

    def sweep(args, kwargs, result, span_ns):
        exchanges = len(argument(args, kwargs, "anchor_array", 0))
        values["uwb.measurements"].append(len(result))
        if span_ns is not None:
            values["uwb.exchange_ns"].append(span_ns / exchanges)

    def solve(args, kwargs, result, span_ns):
        values["geo.rows"].append(len(argument(args, kwargs, "ranges", 1)))
        values["geo.iterations"].append(result.iterations)

    def step(args, kwargs, result, span_ns):
        if isinstance(argument(args, kwargs, "event", 1), api.pol.TimeoutIn):
            values["pol.timeouts"].append(1)

    def session(args, kwargs, result, span_ns):
        values["pol.terminal"].append(result.terminal_state.value)

    def commit(args, kwargs, result, span_ns):
        if span_ns is not None:
            values["ledger.commit_ns"].append(span_ns)

    def replay(args, kwargs, result, span_ns):
        if span_ns is not None and result.records:
            values["ledger.replay_ns_per_record"].append(span_ns / result.records)

    tracer.observers.update({
        "uwb.measure_target": sweep,
        "geo.multilaterate": solve,
        "pol.uav_step": step,
        "pol.platform_step": step,
        "pol.run_session": session,
        SUBMIT: commit,
        "ledger.replay_audit_log": replay,
    })


def _median(xs, scale: float = 1.0) -> float:
    """Median scaled to the metric's unit; 0 when the workload has no sample."""
    return statistics.median(xs) * scale if xs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, api, stats) -> dict[str, float]:
    """Every per-layer metric by name, in the units BENCHMARK.json gives."""
    calls, values = tracer.calls, tracer.values
    self_ns = tracer.self_ns_by_layer()
    terminal = Counter(values["pol.terminal"])

    def refused(error_cls) -> int:
        return sum(n for (name, exc), n in tracer.raised.items()
                   if name == SUBMIT and issubclass(exc, error_cls))

    ledger_setup_ns = Counter()  # per op, keyed by the op's session
    for _, name, start, end, _, session in tracer.spans:
        if name in LEDGER_SETUP:
            ledger_setup_ns[session[:2]] += end - start
    scenario_ns = [d for name in SCENARIO_BUILDERS for d in tracer.durations(name)]

    return {
        "uwb.exchanges": calls["uwb.ranging_exchange"],
        "uwb.frames_coded": calls["uwb.encode_frame"],
        "uwb.exchange_us_p50": _median(values["uwb.exchange_ns"], 1e-3),
        "uwb.useful_frac": _ratio(sum(values["uwb.measurements"]),
                                  calls["uwb.ranging_exchange"]),
        "uwb.self_s": self_ns.get("uwb", 0) / 1e9,
        "geo.solves": calls["geo.multilaterate"],
        "geo.rows_per_solve": _ratio(sum(values["geo.rows"]), len(values["geo.rows"])),
        "geo.gn_iterations": sum(values["geo.iterations"]),
        "geo.solve_ms_p50": _median(tracer.durations("geo.multilaterate"), 1e-6),
        "geo.error_radius_m_p50": _median(stats.all_radii()),
        "geo.self_s": self_ns.get("geo", 0) / 1e9,
        "geo.solve_self_s": tracer.self_ns_of("geo.multilaterate") / 1e9,
        "ledger.submits": calls[SUBMIT],
        "ledger.refused.unauthorized": refused(api.errors.UnauthorizedError),
        "ledger.refused.chaincode": refused(api.errors.ChaincodeError),
        "ledger.setup_ms": _median(list(ledger_setup_ns.values()), 1e-6),
        "ledger.commit_us_p50": _median(values["ledger.commit_ns"], 1e-3),
        "ledger.replay_us_per_record": _median(values["ledger.replay_ns_per_record"], 1e-3),
        "ledger.self_s": self_ns.get("ledger", 0) / 1e9,
        "pol.sessions.authorized": terminal["AUTHORIZED"],
        "pol.sessions.rejected": terminal["REJECTED"],
        "pol.sessions.aborted": terminal["ABORTED"],
        "pol.steps": calls["pol.uav_step"] + calls["pol.platform_step"],
        "pol.timeouts": len(values["pol.timeouts"]),
        "pol.session_ms_p50": _median(tracer.durations("pol.run_session"), 1e-6),
        "pol.sim_session_ms_p50": _median(stats.session_sim_ms),
        "pol.self_s": self_ns.get("pol", 0) / 1e9,
        "sim.run_ms_p50": _median(tracer.durations("sim.run"), 1e-6),
        "sim.scenario_us": _median(scenario_ns, 1e-3),
        "sim.self_s": self_ns.get("sim", 0) / 1e9,
    }
