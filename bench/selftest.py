"""Self-test of the benchmark: a reduced-size run of every workload.

    python3 bench/selftest.py

Runs ``bench/run.py --smoke`` for each workload in BENCHMARK.json, untraced
and traced, and checks the result line against the declared schema: the
exact top-level keys, whole-number counts, and every declared metric (end
to end untraced, per layer traced) present once, with its declared unit
and a finite value, end-to-end values nonzero.  Then it checks that the
benchmark refuses to run, without printing a result, from a copy that
holds only BENCHMARK.json and the benchmark's files.  Exits 1 on any
problem.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 170


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(line: str, declared: list, nonzero: bool) -> list:
    try:
        result = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON: {exc}"]
    bad = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"top-level keys {sorted(result)}")
        return bad
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            bad.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        bad.append("attempted < 1")
    if result["correct"] is not True:
        bad.append("correct is not true")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        bad.append(f"missing {sorted(set(want) - set(metrics))}, "
                   f"undeclared {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            bad.append(f"{name}: {entry} (declared unit {unit})")
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            bad.append(f"{name}: value {value!r} is not a finite number")
        elif nonzero and value == 0:
            bad.append(f"{name}: end-to-end value is 0")
    return bad


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            found = check_result(lines[-1], declared, nonzero=trace == 0)
            problems += [f"{label}: {p}" for p in found]
            print(f"{label}: {'ok' if not found else 'FAILED'}")

    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
        print(f"without sources: exit {proc.returncode}, "
              f"{'refused' if refused else 'NOT refused'}")
        if not refused:
            problems.append("the benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
