#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload with ``--smoke`` (small n, one second), then the traced
pass, and asserts that each run exits 0 with a correct result and prints
every metric that BENCHMARK.json names with the unit it declares, both as
its own line and in the closing JSON object.  Last, it checks that the
benchmark refuses to run in a directory that holds only BENCHMARK.json and
the benchmark itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: End-to-end metrics that are printed but not gated (see README.md).
PRINTED_ONLY = {"round_ms_tail": "ms", "failed_fraction": "fraction"}


def run(argv: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv, "--seed", "3", "--seconds", "1", "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(done: subprocess.CompletedProcess) -> tuple[list[list[str]], dict]:
    assert done.returncode == 0, f"exit code {done.returncode}\n{done.stderr}"
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    return [line.split() for line in lines[:-1]], result


def assert_printed(rows: list[list[str]], workload: str, name: str, unit: str) -> None:
    """A metric line reads: workload, name, value, unit, note."""
    assert any(row[:2] == [workload, name] and row[3] == unit for row in rows), (
        f"{workload} {name} [{unit}] not printed"
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in (w["name"] for w in spec["workloads"]):
        rows, result = result_of(run(["--workload", workload, "--trace", "0"]))
        assert set(result["metrics"]) == set(end_to_end), sorted(result["metrics"])
        for name, unit in end_to_end.items():
            assert result["metrics"][name]["unit"] == unit, (workload, name)
            assert result["metrics"][name]["value"] > 0, (workload, name)
            assert_printed(rows, workload, name, unit)
        for name, unit in PRINTED_ONLY.items():
            assert_printed(rows, workload, name, unit)
        print(f"ok  {workload}: {len(end_to_end) + len(PRINTED_ONLY)} end-to-end metrics")

    rows, result = result_of(run(["--workload", "sampling", "--trace", "1"]))
    assert set(result["metrics"]) == set(per_layer), set(result["metrics"]) ^ set(per_layer)
    for name, unit in per_layer.items():
        assert result["metrics"][name]["unit"] == unit, name
        workload, _, metric = name.partition(".")
        assert_printed(rows, workload, metric, unit)
    print(f"ok  traced pass: {len(per_layer)} per-layer metrics")

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(["--workload", "sampling", "--trace", "0"], cwd=bare)
        assert done.returncode != 0 and not done.stdout.strip(), "ran without the library"
    finally:
        shutil.rmtree(bare)
        if not any(work.iterdir()):
            work.rmdir()
    print("ok  refuses to run without the library sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
