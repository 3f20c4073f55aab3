"""The benchmark's workloads still run against the package.

One op of each workload in bench/workloads.py runs through its own run and
check, with the api namespace that bench/run.py builds, so a name the
benchmark calls that the package no longer has fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def api():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    return bench_run.load_api()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_passes_its_checks(api, name, tmp_path):
    wl = workloads.WORKLOADS[name](api, tmp_path)
    op = next(wl.inputs(0))
    assert wl.check(op, wl.run(op), workloads.Stats()) == []
