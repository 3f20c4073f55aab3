"""The benchmark's workloads still run against the package.

Each workload in bench/workloads.py runs ops through its own run and check,
with the api namespace that bench/run.py builds, until every op kind has run
once (both presets, each attack, a replay of each recorded `sim.run` audit
log), and then its finish check. So a name the benchmark calls that the
package no longer has, or a check that one kind of op fails, fails here
first. One op also runs under the benchmark's tracer, as `bench/run.py
--trace 1` runs it, so a rename that breaks a traced run or its per-layer
metrics fails here too. Last, `bench/run.py` itself runs each workload for
0 seconds (the warm-up op plus the minimum batch, below the op count that
turns on its scaling check) and must exit 0 with a correct result.
"""

import importlib.util
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# bench/run.py computes these two from its own timings, not from the trace.
RUN_TIMED = {"trace.ops_per_s", "trace.untraced_ops_per_s"}
OP_KINDS = {  # ops of the workload's input stream that cover each kind once
    "presets": len(workloads.PRESETS),
    "attacks": len(workloads.ATTACKS),
    "ledger": len(workloads.SIM_LOG_KINDS),
}
TRACED_COUNTS = {  # per-layer counts one traced op of the workload must move
    "presets": ("geo.solves", "pol.steps"),
    "attacks": ("geo.solves", "pol.steps"),
    "ledger": ("ledger.submits",),
}


@pytest.fixture(scope="module")
def api():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    return bench_run.load_api()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_passes_its_checks(api, name, tmp_path):
    wl = workloads.WORKLOADS[name](api, tmp_path)
    stats = workloads.Stats()
    for op in itertools.islice(wl.inputs(0), OP_KINDS[name]):
        assert wl.check(op, wl.run(op), stats) == [], op
    assert wl.finish(stats) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_op_matches_untraced(api, name, tmp_path):
    wl = workloads.WORKLOADS[name](api, tmp_path)
    op = next(wl.inputs(0))
    untraced = wl.outcome(wl.run(op))
    tracer = Tracer()
    layers.observe(tracer, api)
    tracer.instrument("uwbpol")
    try:
        tracer.begin_op(name, op.seed)
        out = tracer.run_span("bench.op", wl.run, op)
    finally:
        tracer.restore()
    stats = workloads.Stats()
    assert wl.check(op, out, stats) == []
    assert wl.outcome(out) == untraced
    metrics = layers.per_layer(tracer, api, stats)
    assert {m["name"] for m in SPEC["per_layer"]} - RUN_TIMED <= set(metrics)
    for metric in TRACED_COUNTS[name]:
        assert metrics[metric] > 0, metric


@pytest.fixture(scope="module")
def bench_runs():
    """Each workload's `bench/run.py --seconds 0` run, started together.

    They write only under the git-ignored `.bench_out/`.
    """
    procs = {w["name"]: subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed", "0",
         "--seconds", "0"], cwd=BENCH.parent, env=cli_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE) for w in SPEC["workloads"]}
    try:
        return {name: (*proc.communicate(timeout=300), proc.returncode)
                for name, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_bench_entry_point_runs_correct(bench_runs, name):
    stdout, stderr, returncode = bench_runs[name]
    assert returncode == 0, stderr
    assert json.loads(stdout.splitlines()[-1])["correct"] is True
