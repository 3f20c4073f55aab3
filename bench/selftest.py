#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

Run from the root of a checkout:

    python3 bench/selftest.py

For every workload in BENCHMARK.json it checks that a one-second timed run
and a traced run of two ops exit 0, pass their output checks and emit
exactly the named metrics with their units, and that two traced processes on
one seed agree byte for byte on every count and simulated value. It also
checks that every name uses only [A-Za-z0-9_.-] and that the benchmark
refuses to run, printing no result, where the package source is missing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
EXACT_UNITS = {"count", "rows", "frac", "m", "sim_ms"}  # counts and simulated values
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, f"{what}: result keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{what}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    return result


def check_metrics(result: dict, wanted: list, what: str) -> None:
    got = result["metrics"]
    assert list(got) == [m["name"] for m in wanted], f"{what}: metric names {list(got)}"
    for m in wanted:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], f"{what}: unit of {m['name']}"
        assert isinstance(entry["value"], (int, float)), f"{what}: value of {m['name']}"


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    assert not bad, f"names outside [A-Za-z0-9_.-]: {bad}"
    assert len(names) == len(set(names)), "a name is used twice"

    for w in SPEC["workloads"]:
        name = w["name"]
        timed = result_of(bench(name, "--seconds", "1", "--trace", "0"), f"{name} timed")
        check_metrics(timed, SPEC["end_to_end"], f"{name} timed")
        first, second = (result_of(bench(name, "--trace", "1", "--ops", "2"), f"{name} traced")
                         for _ in range(2))
        check_metrics(first, SPEC["per_layer"], f"{name} traced")
        for m in SPEC["per_layer"]:
            if m["unit"] in EXACT_UNITS:
                a, b = (json.dumps(r["metrics"][m["name"]]) for r in (first, second))
                assert a == b, f"{name}: {m['name']} differs across processes: {a} vs {b}"
        print(f"selftest: {name} ok")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(names[0], "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0, "ran without the package source"
        assert '"correct"' not in proc.stdout, "printed a result without the package source"
    finally:
        shutil.rmtree(bare)
    print("selftest: refuses to run without src/ ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
