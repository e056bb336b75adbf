"""faircap benchmark: timed CLI sweeps, checked outputs, traced per-module breakdown.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload quickstart --seed 7 --seconds 40 --trace 0

Every sweep runs in a fresh child process (``child.py``) that imports faircap
from this checkout's ``src/``, writes its data with ``faircap generate`` and
runs ``faircap run`` then ``faircap report`` with one worker. A workload is a
fixed list of datasets drawn from ``--seed``; the run sweeps all of them
once, then repeats whole cycles while another cycle fits in ``--seconds``.

With ``--trace 0`` the last output line holds the end-to-end metrics; with
``--trace 1`` each dataset is swept untraced and then traced, and the last
line holds the per-layer metrics. Every sweep is checked (record count,
fairness and capacity of every ``ok`` record, byte-identical repeats and
traced runs); a violation prints ``"correct": false`` and exits with 1.
A harness failure (no ``src/faircap``, a crashed child) exits with 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The seven methods in canonical order, and the ones with a capacity bound.
ALL_METHODS = (
    "hier_fair_cap_mcf", "hier_fair_cap_vanilla", "kmed_fair_cap_mcf",
    "kmed_fair_cap_vanilla", "mcf_fairlet_kcenter", "vanilla_fairlet_kcenter",
    "vanilla_kmedoids",
)
CAPACITATED = ALL_METHODS[:4]
EPSILON = {"hier": Fraction("1.2"), "kmed": Fraction("1.01")}  # CLI defaults

# Each workload sweeps `datasets` generated datasets per cycle; dataset i
# uses generator and sweep seed `seed + 1000 * i`, so dataset 0 of seed 7 is
# the README's. Sweep times differ by dataset (k-medoids swap rounds are
# data dependent), so a run reports the median over several datasets. Why
# each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    "quickstart": {
        "n": 150, "balance": 0.8, "clusters": 3, "t": "1/2",
        "methods": ALL_METHODS, "k": (2, 4), "datasets": 6,
    },
    "mcf_scale": {
        "n": 600, "balance": 0.5, "clusters": 4, "t": "1/2",
        "methods": tuple(m for m in ALL_METHODS if not m.startswith("kmed")),
        "k": (4, 8, 12, 16), "datasets": 1,
    },
}

SETUP_REPEATS = 5       # set-up-only children per run, besides the sweep children
RUN_LIMIT_S = 170.0     # the whole run must end well within 180 s
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_share": "ratio",
    "cost_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "fairlets.mcf_s": "s", "fairlets.vanilla_s": "s", "fairlets.count": "count",
    "fairlets.weight_classes": "count", "fairlets.mcf_cost": "distance",
    "flow.solve_s": "s", "flow.arcs": "count", "flow.nodes": "count",
    "capclust.kmed_s": "s", "capclust.kmed_swap_rounds": "count",
    "capclust.knapsack_s": "s", "capclust.knapsack_calls": "count",
    "capclust.knapsack_items": "count", "capclust.knapsack_cells": "count",
    "capclust.knapsack_share": "ratio", "capclust.knapsack_two_class_share": "ratio",
    "capclust.hier_s": "s", "capclust.hier_merges": "count",
    "baselines.pam_s": "s", "baselines.kcenter_s": "s",
    "core.compose_s": "s", "core.medoid_calls": "count", "core.medoid_bytes": "bytes",
    "ingest.load_s": "s", "metrics.evaluate_s": "s", "report.render_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    """The parent's environment, minus the output override, plus isolation."""
    env = {k: v for k, v in os.environ.items() if k != "FAIRCAP_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def spawn(spec: dict, deadline: float) -> tuple[float, dict]:
    """Run one child to completion; returns its spawn time and its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError(f"no time left within {RUN_LIMIT_S:.0f} s for another child")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=spec["work"], env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(
            f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return spawned, json.loads(lines[-1])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def capacity(n: int, k: int, method: str) -> int:
    return math.ceil(Fraction(n) * EPSILON[method[:4]] / k)


def check_records(lines: list[str], workload: dict) -> tuple[list[dict], list[str]]:
    """Parse ``runs.jsonl`` lines and list every violated invariant.

    The record count must equal methods x ks, each ``(method, k)`` once. An
    ``ok`` record of a fair method must have balance >= t, one of a
    capacitated method max(sizes) <= q with q recomputed here, and every
    ``ok`` record's sizes must add up to n.
    """
    violations: list[str] = []
    records = [json.loads(line) for line in lines if line.strip()]
    records = [r for r in records if r.get("type") == "run"]
    expected = {(m, k) for m in workload["methods"] for k in workload["k"]}
    seen = [(r.get("method"), r.get("k")) for r in records]
    if len(records) != len(expected) or set(seen) != expected:
        violations.append(f"{len(records)} records for {len(expected)} (method, k) pairs")
    t = Fraction(workload["t"])
    n = workload["n"]
    for r in records:
        if r.get("status") != "ok":
            continue
        where = f"{r['method']} k={r['k']}"
        sizes = r["sizes"]
        if sum(sizes) != n:
            violations.append(f"{where}: sizes add up to {sum(sizes)}, not n={n}")
        # Records hold balance as a float; rounding is monotone, so an exact
        # balance >= t reads as a float >= float(t).
        if r["method"] != "vanilla_kmedoids" and r["balance"] < float(t):
            violations.append(f"{where}: balance {r['balance']} below t={t}")
        if r["method"] in CAPACITATED:
            q = capacity(n, r["k"], r["method"])
            if r["q"] != q or max(sizes) > q:
                violations.append(f"{where}: max size {max(sizes)} with q={r['q']}, expected q={q}")
    return records, violations


def score(records: list[dict]) -> tuple[float, int]:
    """Sum of log(cost / vanilla_kmedoids cost at that k) over the ``ok``
    runs of capacitated methods, and the number of terms."""
    vanilla = {r["k"]: r["cost"] for r in records
               if r["method"] == "vanilla_kmedoids" and r["status"] == "ok"}
    terms = [math.log(r["cost"] / vanilla[r["k"]]) for r in records
             if r["method"] in CAPACITATED and r["status"] == "ok"]
    return sum(terms), len(terms)


class Run:
    """State of one benchmark invocation: samples, checks and counts."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = WORKLOADS[name]
        self.seeds = [seed + 1000 * i for i in range(self.workload["datasets"])]
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.violations: list[str] = []
        self.notes: set[str] = set()
        self.setup_s: list[float] = []
        self.sweep_s: dict[bool, list[float]] = {False: [], True: []}
        self.report_s: list[float] = []
        self.rss_mib: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.digests: dict[int, tuple[str, str]] = {}
        self.scores: dict[int, tuple[float, int, int, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.faircap_file = ""

    def spec(self, mode: str, seed: int, traced: bool) -> dict:
        work = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=self.work))
        wl = self.workload
        return {
            "mode": mode, "trace": traced, "work": str(work), "src": str(SRC),
            "n": wl["n"], "balance": wl["balance"], "clusters": wl["clusters"],
            "t": wl["t"], "methods": ",".join(wl["methods"]),
            "k": ",".join(str(k) for k in wl["k"]), "seed": seed,
        }

    def setup_only(self) -> None:
        spawned, res = spawn(self.spec("setup", self.seeds[0], False), self.deadline)
        self.setup_s.append(res["ready"] - spawned)
        self.faircap_file = res["faircap_file"]

    def sweep(self, seed: int, traced: bool) -> None:
        """One child sweep of one dataset, checked and recorded."""
        spec = self.spec("sweep", seed, traced)
        spawned, res = spawn(spec, self.deadline)
        work = Path(spec["work"])
        self.sweep_s[traced].append(res["run_end"] - res["run_start"])
        if not traced:
            self.setup_s.append(res["ready"] - spawned)
            self.report_s.append(res["report_end"] - res["run_end"])
            self.rss_mib.append(res["rss_mib"])
        where = f"seed={seed}{' traced' if traced else ''}"
        if res["run_code"] != 0 or res["report_code"] != 0:
            self.violations.append(
                f"{where}: faircap run exited {res['run_code']}, report {res['report_code']}"
            )
        runs, summary = work / "out" / "runs.jsonl", work / "out" / "summary.csv"
        if not runs.is_file() or not summary.is_file():
            self.violations.append(f"{where}: faircap run wrote no runs.jsonl or summary.csv")
            return
        records, violations = check_records(
            runs.read_text(encoding="utf-8").splitlines(), self.workload
        )
        self.violations += [f"{where}: {v}" for v in violations]
        digests = (sha256(runs), sha256(summary))
        if self.digests.setdefault(seed, digests) != digests:
            self.violations.append(f"{where}: outputs differ from an earlier sweep of this dataset")
        self.attempted += len(records)
        self.failed += sum(1 for r in records if r["status"] == "error")
        if seed not in self.scores:
            ok = sum(1 for r in records if r["status"] == "ok")
            total, terms = score(records)
            self.scores[seed] = (total, terms, ok, len(records))
        if traced:
            spans = json.loads((work / "spans.json").read_text(encoding="utf-8"))
            self.layers.append(layer_metrics(spans))
            for span in spans:
                if span.get("violations"):
                    self.violations.append(f"{where}: {span['name']}: {span['violations']}")
                if "reader_error" in span:
                    self.notes.add(f"{span['name']} counters unreadable: {span['reader_error']}")
        shutil.rmtree(work)

    def measure(self) -> None:
        for _ in range(SETUP_REPEATS):
            self.setup_only()
        window_end = time.monotonic() + self.seconds
        while True:
            started = time.monotonic()
            for seed in self.seeds:
                self.sweep(seed, traced=False)
                if self.trace:
                    self.sweep(seed, traced=True)
            cycle = time.monotonic() - started
            if time.monotonic() + cycle > window_end:
                break

    def end_to_end(self) -> dict[str, float]:
        total = sum(s[0] for s in self.scores.values())
        terms = sum(s[1] for s in self.scores.values())
        if not terms:
            raise HarnessError("no ok run of a capacitated method to score")
        ok = sum(s[2] for s in self.scores.values())
        attempted = sum(s[3] for s in self.scores.values())
        return {
            "sweep_s": statistics.median(self.sweep_s[False]),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": max(self.rss_mib),
            "ok_share": ok / attempted,
            "cost_ratio": math.exp(total / terms),
        }

    def per_layer(self) -> dict[str, float]:
        means = {name: statistics.fmean(layer[name] for layer in self.layers)
                 for name in self.layers[0]}
        means["report.render_s"] = statistics.median(self.report_s)
        overheads = [t - u for t, u in zip(self.sweep_s[True], self.sweep_s[False])]
        means["trace.overhead_s"] = statistics.median(overheads)
        return means


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counters of one traced sweep."""
    dur = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[i]

    def total(name: str) -> float:
        return sum(d for s, d in zip(spans, dur) if s["name"] == name)

    def count(name: str, key: str | None = None) -> float:
        return sum(s.get(key, 0) if key else 1 for s in spans if s["name"] == name)

    mcf = [s for s in spans if s["name"] == "fairlets.mcf_decompose" and "count" in s]
    decomps = mcf or [s for s in spans if s["name"] == "fairlets.vanilla_decompose" and "count" in s]
    knapsacks = [s for s in spans if s["name"] == "capclust.knapsack_select"]
    kmed_s = total("capclust.kmedoids")
    knapsack_s = total("capclust.knapsack_select")
    return {
        "fairlets.mcf_s": total("fairlets.mcf_decompose"),
        "fairlets.vanilla_s": total("fairlets.vanilla_decompose"),
        "fairlets.count": max((s["count"] for s in decomps), default=0),
        "fairlets.weight_classes": max((s["weight_classes"] for s in decomps), default=0),
        "fairlets.mcf_cost": sum(s["cost"] for s in mcf),
        "flow.solve_s": total("flow.solve_min_cost_flow"),
        "flow.arcs": count("flow.solve_min_cost_flow", "arcs"),
        "flow.nodes": count("flow.solve_min_cost_flow", "nodes"),
        "capclust.kmed_s": kmed_s,
        "capclust.kmed_swap_rounds": count("capclust.kmedoids", "swap_rounds"),
        "capclust.knapsack_s": knapsack_s,
        "capclust.knapsack_calls": len(knapsacks),
        "capclust.knapsack_items": count("capclust.knapsack_select", "items"),
        "capclust.knapsack_cells": count("capclust.knapsack_select", "cells"),
        "capclust.knapsack_share": knapsack_s / kmed_s if kmed_s else 0.0,
        "capclust.knapsack_two_class_share": (
            sum(1 for s in knapsacks if s.get("classes", 0) <= 2) / len(knapsacks)
            if knapsacks else 0.0
        ),
        "capclust.hier_s": total("capclust.hierarchical"),
        "capclust.hier_merges": count("capclust.hierarchical", "merges"),
        "baselines.pam_s": total("baselines.kmedoids_vanilla"),
        "baselines.kcenter_s": total("baselines.kcenter_greedy"),
        "core.compose_s": total("core.compose_assignment"),
        "core.medoid_calls": count("core.medoid_index"),
        "core.medoid_bytes": count("core.medoid_index", "bytes"),
        "ingest.load_s": total("ingest.load_csv"),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "cli.self_s": sum(d - c for s, d, c in zip(spans, dur, child_time)
                          if s["name"] == "cli.run"),
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return f"unknown ({ref})"


def result_line(run: Run) -> dict:
    values = run.per_layer() if run.trace else run.end_to_end()
    units = PER_LAYER_UNITS if run.trace else END_TO_END_UNITS
    return {
        "correct": not run.violations,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally: subprocess.run then kills and reaps the
    # running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "faircap" / "__init__.py").is_file():
        print(f"no faircap sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        run.measure()
        result = result_line(run)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"commit {git_commit()} faircap {run.faircap_file}")
    print(f"config {json.dumps(run.workload)}")
    for seed, (runs_digest, summary_digest) in sorted(run.digests.items()):
        _, _, ok, attempted = run.scores[seed]
        print(f"dataset seed {seed}: ok {ok}/{attempted} runs.jsonl sha256 {runs_digest} "
              f"summary.csv sha256 {summary_digest}")
    for traced, times in run.sweep_s.items():
        if times:
            print(f"{'traced' if traced else 'untraced'} sweep_s over {len(times)} sweeps: "
                  f"{[round(t, 3) for t in times]}")
    print(f"setup_s over {len(run.setup_s)} set-ups: {[round(t, 3) for t in run.setup_s]}")
    for note in sorted(run.notes):
        print(f"note: {note}")
    for violation in run.violations:
        print(f"violation: {violation}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
