"""Command-line interface: run scenarios, sweep parameters, replay audit logs."""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from typing import Optional, Sequence

from . import sim
from .errors import ScenarioError
from .ledger import replay_audit_log
from .pol import standard_chaincodes
from .sim import RunReport, Scenario

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

CSV_COLUMNS = [
    "scenario", "attempt",
    "claim_x", "claim_y", "claim_z",
    "true_x", "true_y", "true_z",
    "est_x", "est_y", "est_z",
    "error_radius_m", "claim_est_dist_m", "buffer_m", "likelihood",
    "verdict", "terminal_state", "seed",
]

SWEEP_COLUMNS = [
    "parameter", "value", "reps",
    "acceptance_rate", "median_error_radius_m", "median_claim_est_dist_m",
]


def _fmt(value) -> str:
    """Numbers at 17 significant digits (lossless float round trip); '' for absent."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def report_rows(report: RunReport) -> list[dict]:
    rows = []
    for rec in report.records:
        est = rec.estimate
        verdict = rec.verdict
        rows.append({
            "scenario": report.scenario_name,
            "attempt": rec.index,
            "claim_x": _fmt(rec.claim.position.x),
            "claim_y": _fmt(rec.claim.position.y),
            "claim_z": _fmt(rec.claim.position.z),
            "true_x": _fmt(rec.true_position.x),
            "true_y": _fmt(rec.true_position.y),
            "true_z": _fmt(rec.true_position.z),
            "est_x": _fmt(est.position.x if est else None),
            "est_y": _fmt(est.position.y if est else None),
            "est_z": _fmt(est.position.z if est else None),
            "error_radius_m": _fmt(est.error_radius if est else None),
            "claim_est_dist_m": _fmt(rec.claim_to_estimate_distance),
            "buffer_m": _fmt(report.buffer),
            "likelihood": _fmt(verdict.likelihood if verdict else None),
            "verdict": ("" if verdict is None
                        else ("accepted" if verdict.accepted else "rejected")),
            "terminal_state": rec.terminal_state,
            "seed": report.seed,
        })
    return rows


def _write_csv(path: Optional[str], columns: list[str], rows: list[dict]) -> None:
    """CSV with CRLF line ends, to path or, when path is None, to stdout."""
    with (open(path, "w", encoding="utf-8", newline="") if path is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\r\n")
        writer.writeheader()
        writer.writerows(rows)


def _resolve_scenario(args) -> Scenario:
    if args.preset is not None and args.scenario is not None:
        raise ScenarioError("give either a scenario file or --preset, not both")
    if args.preset is not None:
        return sim.get_preset(args.preset)
    if args.scenario is not None:
        return sim.load_scenario(args.scenario)
    raise ScenarioError("need a scenario file or --preset")


def cmd_run(args) -> int:
    try:
        report = sim.run(_resolve_scenario(args), seed_override=args.seed)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.out is not None:
            _write_csv(args.out, CSV_COLUMNS, report_rows(report))
        if args.audit is not None:
            report.ledger.write_audit_log(args.audit)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO

    med = report.median_error_radius
    summary = (f"{report.scenario_name}: {len(report.records)} attempts, "
               f"acceptance rate {report.acceptance_rate:.2f}")
    if med is not None:
        summary += f", median error radius {med:.4f} m"
    print(summary)
    for rec in report.records:
        verdict = ("accepted" if rec.verdict and rec.verdict.accepted
                   else "rejected" if rec.verdict else "-")
        print(f"  attempt {rec.index}: {rec.terminal_state}"
              + (f" ({rec.abort_reason})" if rec.abort_reason else "")
              + f" verdict={verdict}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        scenario = _resolve_scenario(args)
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not values:
        print("error: --values must list at least one number", file=sys.stderr)
        return EXIT_USAGE

    try:
        rows = sim.sweep(scenario, args.param, values, reps=args.reps)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_rows = [{
        "parameter": r.parameter,
        "value": _fmt(r.value),
        "reps": r.reps,
        "acceptance_rate": _fmt(r.acceptance_rate),
        "median_error_radius_m": _fmt(r.median_error_radius),
        "median_claim_est_dist_m": _fmt(r.median_claim_distance),
    } for r in rows]
    try:
        _write_csv(args.out, SWEEP_COLUMNS, out_rows)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.out is not None:
        for r in rows:
            print(f"{r.parameter}={r.value:g}: acceptance {r.acceptance_rate:.2f}, "
                  f"median error radius "
                  + (f"{r.median_error_radius:.4f} m" if r.median_error_radius is not None
                     else "n/a"))
    return EXIT_OK


def cmd_replay(args) -> int:
    try:
        with open(args.audit, "r", encoding="utf-8"):
            pass
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO

    result = replay_audit_log(args.audit, chaincode_factory=standard_chaincodes)
    if result.ok:
        n_assets = sum(len(a) for a in result.assets.values())
        print(f"replay ok: {result.records} records verified, {n_assets} assets")
        return EXIT_OK
    where = (f" at height {result.failure_height} on channel {result.failure_channel!r}"
             if result.failure_height is not None else "")
    print(f"replay FAILED{where}: {result.message}", file=sys.stderr)
    return EXIT_VERIFICATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwbpol",
        description="UWB proof-of-location simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and emit per-attempt CSV")
    run_p.add_argument("scenario", nargs="?", default=None, help="scenario JSON file")
    run_p.add_argument("--preset", choices=sim.PRESET_NAMES, default=None)
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed, which drives the radio and "
                            "session draws, not the ledger keys")
    run_p.add_argument("--out", default=None, help="write per-attempt CSV here")
    run_p.add_argument("--audit", default=None, help="write the ledger audit log here")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="aggregate metrics over a parameter sweep")
    sweep_p.add_argument("scenario", nargs="?", default=None)
    sweep_p.add_argument("--preset", choices=sim.PRESET_NAMES, default=None)
    sweep_p.add_argument("--param", required=True, choices=sim.SWEEP_PARAMETERS)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated parameter values, e.g. 0.05,0.1")
    sweep_p.add_argument("--reps", type=int, default=sim.DEFAULT_SWEEP_REPS)
    sweep_p.add_argument("--out", default=None)
    sweep_p.set_defaults(func=cmd_sweep)

    replay_p = sub.add_parser("replay", help="verify an audit log end to end")
    replay_p.add_argument("--audit", required=True)
    replay_p.set_defaults(func=cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
