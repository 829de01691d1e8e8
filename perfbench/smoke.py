"""Smoke test of the benchmark itself.

Runs every workload at tiny size, untraced and traced, and checks that
the result line names every metric of BENCHMARK.json with its unit,
that every operation passed its correctness check (failed_frac 0), and
that the benchmark refuses to run without the pismg sources.

Usage (from the checkout root): python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct {result['correct']}, failed "
                        f"{result['failed']} of {result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {wanted}")
    for name, m in result["metrics"].items():
        ok = isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        if not ok or (not trace and m["value"] <= 0):
            problems.append(f"{where}: {name} = {m['value']!r}")
    if not trace and not any(line.split()[:2] == ["failed_frac", "0"] for line in lines):
        problems.append(f"{where}: report does not show failed_frac 0")
    return problems


def check_bare() -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail, printing
    no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(bare, "corpus", 0)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_result(spec, workload, trace)
            print(f"{workload} --trace {trace}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
