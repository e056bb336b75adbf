"""Self-test of the benchmark harness on a tiny config; takes seconds.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

It checks that

* a plain and a traced run print every metric named in ``BENCHMARK.json``,
  each with its unit, and pass their own correctness checks;
* ``check_records`` accepts a real ``runs.jsonl`` and catches each kind of
  corrupted record;
* the benchmark exits non-zero without a result where there is no source.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY = {
    "n": 40, "balance": 0.8, "clusters": 2, "t": "1/2",
    "methods": run.ALL_METHODS, "k": (2, 3), "datasets": 2,
}


def run_tiny(trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def check_printed_metrics(failures: list[str]) -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result = run_tiny(trace)
        if code != 0 or result["correct"] is not True:
            failures.append(f"trace {trace}: exit {code}, correct {result['correct']}")
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            failures.append(f"trace {trace}: result keys {sorted(result)}")
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        printed = {name: m.get("unit") for name, m in result["metrics"].items()}
        if printed != wanted:
            failures.append(f"trace {trace}: printed {printed}, BENCHMARK.json names {wanted}")
        for name, metric in result["metrics"].items():
            if not isinstance(metric.get("value"), (int, float)):
                failures.append(f"trace {trace}: {name} has no numeric value")


def corrupt(lines: list[str], method: str, **fields) -> list[str]:
    """The lines with the first ok record of `method` changed."""
    out, done = [], False
    for line in lines:
        record = json.loads(line)
        if not done and record.get("method") == method and record.get("status") == "ok":
            record.update(fields)
            done = True
        out.append(json.dumps(record))
    return out


def check_corruption_caught(failures: list[str]) -> None:
    runner = run.Run("tiny", 3, 0.0, False, Path(tempfile.mkdtemp(prefix=".work-", dir=run.HERE)))
    try:
        spec = runner.spec("sweep", 3, False)
        run.spawn(spec, runner.deadline)
        lines = (Path(spec["work"]) / "out" / "runs.jsonl").read_text(encoding="utf-8").splitlines()
    finally:
        shutil.rmtree(runner.work)
    _, violations = run.check_records(lines, TINY)
    if violations:
        failures.append(f"clean output flagged: {violations}")
    q = run.capacity(TINY["n"], 2, "kmed_fair_cap_mcf")
    cases = {
        "balance below t": corrupt(lines, "kmed_fair_cap_mcf", balance=0.25),
        "size above q": corrupt(lines, "kmed_fair_cap_mcf", sizes=[q + 1, TINY["n"] - q - 1]),
        "sizes not adding up to n": corrupt(lines, "mcf_fairlet_kcenter", sizes=[1, 1]),
        "missing record": lines[:-1],
        "duplicated record": lines + lines[-1:],
    }
    for what, bad in cases.items():
        _, violations = run.check_records(bad, TINY)
        if not violations:
            failures.append(f"{what} was not caught")


def check_fails_without_source(failures: list[str]) -> None:
    bare = Path(tempfile.mkdtemp(prefix=".work-bare-", dir=run.HERE))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "quickstart",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    run.WORKLOADS["tiny"] = TINY
    run.SETUP_REPEATS = 1
    failures: list[str] = []
    check_printed_metrics(failures)
    check_corruption_caught(failures)
    check_fails_without_source(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest passed" if not failures else f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
