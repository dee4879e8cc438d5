"""Fast self-test of the benchmark (about 30 s).

    python3 perfbench/selftest.py

Runs every workload at toy size with tracing off and on, through the same
command line as a real run, and checks that:

* every end-to-end metric (and ``failed_share``) is printed with its unit,
  and with tracing on every per-layer metric is;
* every correctness check ran on every experiment and passed;
* the last line is the result object with exactly its four keys;
* a copy of the benchmark without popref's sources beside it exits non-zero
  without printing a result.

Exits 0 when all hold, 1 otherwise, listing what failed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import CHECKS, END_TO_END, FAILED_SHARE_UNIT, PER_LAYER, WORK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(script: Path, workload: str, trace: int, cwd: Path):
    command = [sys.executable, str(script), "--workload", workload, "--seed",
               "3", "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def problems_in(proc, trace: int) -> list[str]:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    problems = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"result {result['correct']=} {result['failed']=}")
    units = dict(PER_LAYER if trace else END_TO_END)
    if set(result["metrics"]) != set(units):
        problems.append(f"JSON metrics differ: {sorted(result['metrics'])}")
    if not trace:
        units["failed_share"] = FAILED_SHARE_UNIT
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] in units:
            printed[parts[0]] = parts[2]
    for name, unit in units.items():
        if printed.get(name) != unit:
            problems.append(f"{name} not printed with unit {unit}")
    check_line = next((ln for ln in lines if ln.startswith("checks ")), "")
    n = result["attempted"]
    for name in CHECKS:
        if f"{name} {n}/{n}" not in check_line:
            problems.append(f"check {name} did not pass on all {n} experiments")
    return problems


def bare_copy_problems() -> list[str]:
    """Without src/popref beside it, the benchmark must fail and print nothing."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(bare / HERE.name / "run.py", "pop-objonly", 0, bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    return []


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(HERE / "run.py", workload, trace, HERE.parent)
            problems = problems_in(proc, trace)
            failures += [f"{workload} trace {trace}: {p}" for p in problems]
            print(f"{workload} trace {trace}: {'FAILED' if problems else 'ok'}",
                  flush=True)
    failures += bare_copy_problems()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
