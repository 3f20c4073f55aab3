#!/usr/bin/env python3
"""Benchmark of the uwbpol proof-of-location pipeline.

Run from the root of a checkout:

    python3 bench/run.py --workload presets --seed 1 --seconds 30 --trace 0

The workloads, metric names, units and bounds are in BENCHMARK.json; what
each metric means and which layer change should move it is in
bench/README.md. The package is imported from the checkout's `src/` and
driven through its public functions from one process and one thread, as a
closed loop: the next op starts when the previous one returns.

`--trace 0` times ops for `--seconds` and prints the end-to-end metrics.
Its host times are scaled to a reference machine speed: a fixed calibration
loop runs between ops, and each op's time is divided by the loop's slowdown
against CAL_REF_S around that op, raised to the workload's
`slowdown_exponent` (see bench/README.md). The raw figures are in the
detail line.
`--trace 1` runs a fixed batch of ops twice, untraced then traced, and prints
the per-layer metrics; its counts and simulated values repeat exactly for a
seed. Each op's outcome is checked; a failed check is named on stderr and
the exit code is 1. The last stdout line is the result object; the line
before it holds the environment and the sample counts, which are also
written, with the spans of a traced run, under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import struct
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 4  # fresh processes timed for setup_s, besides this one
MIN_OPS = 4  # a timed run completes at least this many ops, whatever --seconds says
TRACE_OPS = 60  # traced batch size
# calibrate() on the reference machine (2-core Intel Xeon VM) at full speed.
# The machine also runs in a slow state, where the loop and the ops both take
# about 1.8 times as long; dividing by the ratio removes that swing.
CAL_REF_S = 1.4e-3
CAL_SETUP_REPEATS = 3
# Importing reads and maps files and slows less than calibrate() does in the
# slow state (about 1.3 against 1.8 times), so a set-up's import is scaled by
# the time to import these standard modules, which nothing here imports
# before, and which take IMPORT_CAL_REF_S at full speed.
IMPORT_CAL_MODULES = ("email.message", "xml.dom.minidom", "http.client", "unittest", "tarfile")
IMPORT_CAL_REF_S = 0.045
# Dividing by the slowdown assumes that an op slows by the loop's slowdown
# to the power of its workload's slowdown_exponent. A timed run of at least
# SCALING_CHECK_MIN_OPS ops fails check slowdown-scaling-holds when its
# scaling_gap() exceeds the tightest end-to-end time bound: its slower and
# faster halves then disagree by more than a regression may. In 60 correct
# 30 s runs the gap stayed between -4.7% and +6.8%.
SCALING_GAP_MAX = min(m["bound"] for m in SPEC["end_to_end"] if m["unit"] in ("ms", "1/s"))
SCALING_CHECK_MIN_OPS = 100


class SetupTime(NamedTuple):
    """One set-up: the import, then the inputs and the warm-up op, each with
    the machine's slowdown for that kind of work."""

    import_s: float
    import_slowdown: float
    rest_s: float
    slowdown: float

    @property
    def seconds(self) -> float:
        return self.import_s / self.import_slowdown + self.rest_s / self.slowdown


def calibrate() -> float:
    """Host seconds of a fixed loop that uses only the standard library."""
    start = time.perf_counter()
    rng = random.Random(0)
    pack = struct.Struct(">dQ")
    acc = 0.0
    for i in range(1500):
        acc += rng.gauss(0.0, 1.0)
        acc = pack.unpack(pack.pack(acc, i))[0] * 0.5
        acc += {"i": i, "acc": acc}["acc"]
    hashlib.sha256(repr(acc).encode()).digest()
    return time.perf_counter() - start


def slowdowns(cals: list[float], exponent: float) -> list[float]:
    """Slowdown of op i: the mean of the calibrations just before and just
    after it, against CAL_REF_S, to the power `exponent`.

    cals[i] runs just before op i; the list ends with one run after the last op.
    """
    return [((before + after) / 2 / CAL_REF_S) ** exponent
            for before, after in zip(cals, cals[1:])]


def require_source() -> Path:
    src = ROOT / "src"
    if not (src / "uwbpol" / "__init__.py").is_file():
        sys.exit(f"bench: no uwbpol package under {src}; run from a full checkout")
    return src


def load_api() -> SimpleNamespace:
    sys.path.insert(0, str(require_source()))
    import uwbpol
    from uwbpol import errors, geo, ledger, pol, sim

    return SimpleNamespace(uwbpol=uwbpol, errors=errors, geo=geo, ledger=ledger,
                           pol=pol, sim=sim)


def set_up(workload: str, seed: int):
    """Import the package, build the input stream and run one untimed op."""
    import workloads

    if any(name in sys.modules for name in IMPORT_CAL_MODULES):
        raise RuntimeError("import calibration modules are already imported")
    start = time.perf_counter()
    for name in IMPORT_CAL_MODULES:
        importlib.import_module(name)
    import_slowdown = (time.perf_counter() - start) / IMPORT_CAL_REF_S
    start = time.perf_counter()
    api = load_api()
    imported = time.perf_counter()
    wl = workloads.WORKLOADS[workload](api, OUT_DIR)
    stream = wl.inputs(seed)
    op = next(stream)
    failed = wl.check(op, wl.run(op), workloads.Stats())
    done = time.perf_counter()
    cal = statistics.median(calibrate() for _ in range(CAL_SETUP_REPEATS))
    slowdown = (cal / CAL_REF_S) ** wl.slowdown_exponent
    setup = SetupTime(imported - start, import_slowdown, done - imported, slowdown)
    return setup, api, wl, stream, failed


def probe_setup(workload: str, seed: int) -> SetupTime:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"bench: setup probe failed:\n{proc.stderr}")
    return SetupTime(*map(float, proc.stdout.strip().splitlines()[-1].split()))


def run_ops(wl, ops, stats, failures: Counter, tracer=None, cals=None,
            outcomes=None) -> list[int]:
    """Run each op, timed, then check its outcome untimed; returns ns per op.

    With `cals`, a calibration runs before each op and once after the last.
    With `outcomes`, a digest of each op's full outcome is appended to it.
    """
    times = []
    for op in ops:
        if cals is not None:
            cals.append(calibrate())
        if tracer is None:
            start = time.perf_counter_ns()
            out = wl.run(op)
            times.append(time.perf_counter_ns() - start)
        else:
            tracer.begin_op(wl.name, op.seed)
            start = time.perf_counter_ns()
            out = tracer.run_span("bench.op", wl.run, op)
            times.append(time.perf_counter_ns() - start)
        failed = wl.check(op, out, stats)
        if outcomes is not None:
            outcomes.append(hashlib.sha256(repr(wl.outcome(out)).encode()).hexdigest())
        failures.update(failed)
        failures["ops-failed"] += bool(failed)
    if cals is not None:
        cals.append(calibrate())
    return times


def timed_ops(stream, seconds: float, kinds: list):
    """Ops until `seconds` have passed; each op's kind is appended to `kinds`."""
    deadline = time.perf_counter() + seconds
    while len(kinds) < MIN_OPS or time.perf_counter() < deadline:
        op = next(stream)
        kinds.append(op.kind)
        yield op


def scaling_gap(times: list[float], slow: list[float], kinds: list[str]) -> float:
    """How far scaled op times still follow the machine's slowdown.

    Each op's scaled time is taken relative to the median of its kind. The
    result is the median of those ratios over the ops in the slower half of
    slowdowns, divided by the median over the faster half, minus 1. It is
    near 0 while the ops slow as `slow` assumes; it cannot tell anything
    when the whole run stays in one speed state.
    """
    by_kind = defaultdict(list)
    for t, kind in zip(times, kinds):
        by_kind[kind].append(t)
    typical = {kind: statistics.median(ts) for kind, ts in by_kind.items()}
    order = sorted(range(len(times)), key=slow.__getitem__)
    half = len(order) // 2
    faster, slower = order[:half], order[len(order) - half:]
    rel = [t / typical[kind] for t, kind in zip(times, kinds)]
    return (statistics.median(rel[i] for i in slower)
            / statistics.median(rel[i] for i in faster) - 1.0)


def environment() -> dict:
    import cryptography
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
        if head.returncode == 0 and status.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def end_to_end(args, setup, stream, wl, stats, failures, detail,
               samples) -> tuple[dict, int]:
    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)] + [setup]
    gc.collect()
    cals: list[float] = []
    kinds: list[str] = []
    raw = run_ops(wl, timed_ops(stream, args.seconds, kinds), stats, failures, cals=cals)
    slow = slowdowns(cals, wl.slowdown_exponent)
    times = [t / f for t, f in zip(raw, slow)]
    p90 = statistics.quantiles(times, n=10)[8]
    gap = scaling_gap(times, slow, kinds)
    if len(times) >= SCALING_CHECK_MIN_OPS and abs(gap) > SCALING_GAP_MAX:
        failures["slowdown-scaling-holds"] += 1
    samples.update({"op_ns": raw, "calibrate_s": cals, "kinds": kinds})
    detail.update({
        "setup_import_s": [s.import_s for s in setup],
        "setup_import_slowdown": [s.import_slowdown for s in setup],
        "setup_rest_s_raw": [s.rest_s for s in setup],
        "setup_slowdown": [s.slowdown for s in setup],
        "op_samples": len(times),
        "op_samples_beyond_p90": sum(t > p90 for t in times),
        "slowdown_p50": statistics.median(slow),
        "slowdown_p10_p90": statistics.quantiles(slow, n=10)[::8],
        "scaling_gap": gap,
        "raw_ops_per_s": len(raw) / (sum(raw) / 1e9),
        "raw_op_ms_p50": statistics.median(raw) / 1e6,
        "raw_op_ms_p90": statistics.quantiles(raw, n=10)[8] / 1e6,
        "sim_session_ms_p50": statistics.median(stats.session_sim_ms)
        if stats.session_sim_ms else None,
        "error_radius_m_p50": {k: statistics.median(v) for k, v in stats.radii.items()},
    })
    metrics = {
        "ops_per_s": len(times) / (sum(times) / 1e9),
        "op_ms_p50": statistics.median(times) / 1e6,
        "op_ms_p90": p90 / 1e6,
        "setup_s": statistics.median(s.seconds for s in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, len(times)


def traced(args, stream, wl, api, stats, failures, detail) -> tuple[dict, int]:
    import layers
    import workloads
    from tracer import Tracer

    batch = [next(stream) for _ in range(args.ops or TRACE_OPS)]
    gc.collect()
    untraced_stats = workloads.Stats()
    cals: list[float] = []
    untraced_outcomes: list[str] = []
    raw = run_ops(wl, batch, untraced_stats, failures, cals=cals, outcomes=untraced_outcomes)
    untraced_ns = sum(t / f for t, f in zip(raw, slowdowns(cals, wl.slowdown_exponent)))
    tracer = Tracer()
    layers.observe(tracer, api)
    tracer.instrument("uwbpol")
    cals = []
    traced_outcomes: list[str] = []
    try:
        raw = run_ops(wl, batch, stats, failures, tracer, cals, traced_outcomes)
    finally:
        tracer.restore()
    traced_ns = sum(t / f for t, f in zip(raw, slowdowns(cals, wl.slowdown_exponent)))
    if stats != untraced_stats or traced_outcomes != untraced_outcomes:
        failures["traced-outcomes-equal-untraced"] += 1
    metrics = layers.per_layer(tracer, api, stats)
    metrics["trace.ops_per_s"] = len(batch) / (traced_ns / 1e9)
    metrics["trace.untraced_ops_per_s"] = len(batch) / (untraced_ns / 1e9)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    detail.update({
        "batch_ops": len(batch),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "self_s_by_layer": {k: v / 1e9 for k, v in tracer.self_ns_by_layer().items()},
        "trace_overhead_frac": traced_ns / untraced_ns - 1.0,
    })
    return metrics, 2 * len(batch)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help=f"traced batch size (default {TRACE_OPS})")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    require_source()
    OUT_DIR.mkdir(exist_ok=True)
    setup, api, wl, stream, warm_failed = set_up(args.workload, args.seed)
    if args.setup_probe:
        if warm_failed:
            sys.exit(f"bench: warm-up op failed: {warm_failed}")
        print(*setup)
        return 0

    import workloads

    stats = workloads.Stats()
    failures = Counter(warm_failed)
    failures["ops-failed"] += bool(warm_failed)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment()}
    samples: dict = {}  # per-op raw figures, written to the result file only
    if args.trace:
        values, attempted = traced(args, stream, wl, api, stats, failures, detail)
        wanted = SPEC["per_layer"]
    else:
        values, attempted = end_to_end(args, setup, stream, wl, stats, failures, detail,
                                       samples)
        wanted = SPEC["end_to_end"]
    failures.update(wl.finish(stats))
    failed_ops = failures.pop("ops-failed")
    attempted += 1  # the warm-up op
    detail["fail_frac"] = failed_ops / attempted
    detail["failed_checks"] = dict(failures)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    out_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"detail": detail, "result": result, "samples": samples})
                        + "\n", encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    for name, count in sorted(failures.items()):
        print(f"bench: check failed: {name} ({count}x)", file=sys.stderr)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
