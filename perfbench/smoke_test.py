"""Reduced-size self-test of the benchmark.

Run from the repository root:
    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench/smoke_test.py)

It runs every workload on tiny inputs and checks that every named metric is
printed with its unit, that the traced run's counts do not depend on
--seconds, that a deliberately corrupted prediction is counted as a failed
operation, and that the benchmark refuses to report a result when the
program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--smoke", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def last_result(args: list[str]) -> dict:
    code, lines = bench(*args)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


def test_every_metric_is_printed_with_its_unit():
    for spec, trace in ((run.END_TO_END, "0"), (run.PER_LAYER, "1")):
        for workload in run.WORKLOADS:
            result = last_result(["--workload", workload["name"], "--seed", "5", "--trace", trace])
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
            for m in spec:
                printed = result["metrics"][m["name"]]
                assert printed["unit"] == m["unit"]
                assert isinstance(printed["value"], (int, float))


def test_traced_counts_do_not_grow_with_seconds():
    counted = [m["name"] for m in run.PER_LAYER if m["unit"] in ("count", "bytes", "ratio")]
    results = [
        last_result(["--workload", "train-std", "--seed", "5", "--trace", "1", "--seconds", s])
        for s in ("0", "3")
    ]
    assert results[0]["attempted"] < results[1]["attempted"]  # the untraced run grew
    for name in counted:
        assert results[0]["metrics"][name] == results[1]["metrics"][name], name


def test_corrupted_prediction_counts_as_failed():
    result = last_result(["--workload", "classify-bulk", "--seed", "5", "--inject-fault"])
    assert result["failed"] >= 1
    assert not result["correct"]


def test_refuses_without_the_program():
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = bench("--workload", "train-std", "--seed", "5", cwd=bare)
        assert code != 0
        assert not lines
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        run.WORK.rmdir()


def test_benchmark_json_matches_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == run.BENCHMARK


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
