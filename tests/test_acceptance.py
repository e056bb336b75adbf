"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

The randomized fairness/capacity criteria share one deterministic suite of
completed runs; instances whose parameters are infeasible for a method
(capacity deadlock at tight epsilon) are skipped and replaced, since the
invariants quantify over produced clusterings while infeasibility has its
own error contract, covered by criterion 5 and the unit suites.
"""

import itertools
import json
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import faircap
from faircap import capclust, cli
from faircap.errors import InfeasibilityError

T_HALF = Fraction(1, 2)
FAIR_CAPACITATED = (
    "hier_fair_cap_mcf", "hier_fair_cap_vanilla", "kmed_fair_cap_mcf", "kmed_fair_cap_vanilla",
)
DATA_DIR = Path(os.environ.get("FAIRCAP_DATA_DIR", "data"))


def _ok(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# criterion 1: dataset balance reproduction
# ---------------------------------------------------------------------------


def test_criterion_01_dataset_balance():
    started = time.perf_counter()
    mat = DATA_DIR / "student-mat.csv"
    por = DATA_DIR / "student-por.csv"
    if mat.exists() and por.exists():
        spec_mat = faircap.DatasetSpec(
            path=mat, protected_column="sex", delimiter=";"
        )
        spec_por = faircap.DatasetSpec(
            path=por, protected_column="sex", delimiter=";"
        )
        data_mat = faircap.load_csv(spec_mat)
        data_por = faircap.load_csv(spec_por)
        assert data_mat.n == 395
        assert data_por.n == 649
        assert round(float(faircap.dataset_balance(data_mat)), 3) == 0.899
        assert round(float(faircap.dataset_balance(data_por)), 3) == 0.695
        detail = "UCI files: 395/649 rows, balances 0.899/0.695"
    else:
        rng = np.random.default_rng(2026)
        for _ in range(20):
            n = int(rng.integers(20, 400))
            balance = float(rng.uniform(0.2, 1.0))
            data = faircap.make_blobs(n=n, balance=balance, seed=int(rng.integers(1 << 20)))
            minority = min(data.group_counts())
            ideal = n * balance / (1.0 + balance)
            assert abs(minority - ideal) <= 1
        detail = "UCI files absent; generator balance within 1 count on 20 draws"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _ok(1, "dataset-balance", f"{detail}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criteria 2 + 3: fairness and capacity invariants over >= 100 runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def randomized_runs():
    rng = np.random.default_rng(74250331)
    combos = tuple(itertools.product(("vanilla", "mcf"), ("hier", "kmed")))
    completed = []
    attempts = 0
    started = time.perf_counter()
    while len(completed) < 100 and attempts < 70:
        attempts += 1
        n = int(rng.integers(30, 130))
        balance = float(rng.uniform(0.55, 1.0))
        k = int(rng.integers(2, 6))
        blobs = int(rng.integers(2, 5))
        seed = int(rng.integers(1 << 32))
        data = faircap.make_blobs(n=n, balance=balance, clusters=blobs, seed=seed)
        batch = []
        try:
            for flavor, algo in combos:
                method = f"{algo}_fair_cap_{flavor}"
                epsilon = 1.2 if algo == "hier" else 1.01
                params = faircap.Params(
                    k=k, t=Fraction(1, 2), epsilon=epsilon, lam=0.3, seed=seed
                )
                _, record, trace = faircap.pipeline(method, data, params)
                batch.append((method, data, params, record, trace))
        except InfeasibilityError:
            continue  # tight epsilon made this instance unsolvable; redraw
        completed.extend(batch)
    elapsed = time.perf_counter() - started
    assert len(completed) >= 100, f"only {len(completed)} runs from {attempts} instances"
    return completed, attempts, elapsed


def test_criterion_02_fairness_invariant(randomized_runs):
    completed, attempts, elapsed = randomized_runs
    violations = [
        (method, params.k)
        for method, data, params, record, _ in completed
        if record.balance < 0.5
    ]
    assert violations == []
    assert elapsed < 120.0
    _ok(
        2,
        "fairness-invariant",
        f"{len(completed)} runs from {attempts} instances, min balance "
        f"{min(record.balance for *_, record, _ in completed):.3f}, {elapsed:.1f}s",
    )


def test_criterion_03_capacity_invariant(randomized_runs):
    completed, _, _ = randomized_runs
    for method, data, params, record, _ in completed:
        q = faircap.capacity_threshold(data.n, params.k, params.epsilon)
        assert record.q == q
        assert max(record.sizes) <= q, (method, params.k, record.sizes, q)
        assert sum(record.sizes) == data.n
    _ok(3, "capacity-invariant", f"max size <= ceil(n*eps/k) in {len(completed)}/{len(completed)} runs")


# ---------------------------------------------------------------------------
# criterion 4: knapsack equals exhaustive enumeration
# ---------------------------------------------------------------------------


def test_criterion_04_knapsack_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(40804)
    for trial in range(200):
        n = int(rng.integers(1, 21))
        values = np.round(rng.uniform(0, 9, size=n), 4)
        weights = rng.integers(1, 9, size=n)
        capacity = int(rng.integers(0, int(weights.sum()) + 3))
        # one row of the DP that kmed's assignment step runs, at the working
        # capacity it passes: at most the total weight
        cap = np.array([min(capacity, int(weights.sum()))])
        free = np.ones((1, n), dtype=bool)
        chosen = np.flatnonzero(capclust._knapsack_rows(values[None], free, weights, cap))
        assert int(weights[chosen].sum()) <= capacity
        bits = (np.arange(1 << n, dtype=np.uint32)[:, None] >> np.arange(n)) & 1
        feasible = bits @ weights <= capacity
        best = (bits @ values)[feasible].max(initial=0.0)
        assert abs(float(values[chosen].sum()) - float(best)) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _ok(4, "knapsack-oracle", f"200 instances exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 5 + 6: fairlet validity and MCF cost dominance
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fairlet_instances():
    rng = np.random.default_rng(555001)
    instances = []
    for i in range(50):
        minority = int(rng.integers(3, 30))
        majority = int(rng.integers(minority, 2 * minority + 1))
        protected = np.array([1] * minority + [0] * majority)
        rng.shuffle(protected)
        features = rng.uniform(0, 1, size=(len(protected), 3))
        data = faircap.Dataset(
            features=features,
            protected=protected,
        )
        instances.append((data, int(rng.integers(1 << 32))))
    return instances


def test_criterion_05_fairlet_validity(fairlet_instances):
    for data, seed in fairlet_instances:
        for build in (faircap.vanilla_decompose, faircap.mcf_decompose):
            decomp = build(data, T_HALF, seed)
            report = faircap.validate(decomp, data, T_HALF)
            assert report.violations == ()
    rng = np.random.default_rng(909)
    rejected = 0
    for _ in range(10):
        minority = int(rng.integers(2, 10))
        majority = 2 * minority + int(rng.integers(1, 5))  # balance < 1/2
        protected = np.array([1] * minority + [0] * majority)
        data = faircap.Dataset(
            features=rng.uniform(0, 1, size=(len(protected), 2)),
            protected=protected,
        )
        for build in (faircap.vanilla_decompose, faircap.mcf_decompose):
            with pytest.raises(InfeasibilityError):
                build(data, T_HALF, 0)
            rejected += 1
    _ok(5, "fairlet-validity", f"50 valid instances x2 builds; {rejected} infeasible rejected")


def test_criterion_06_mcf_cost_dominance(fairlet_instances):
    margins = []
    for data, seed in fairlet_instances:
        vanilla = faircap.vanilla_decompose(data, T_HALF, seed)
        mcf = faircap.mcf_decompose(data, T_HALF, seed)
        cv = faircap.fairlet_cost(vanilla, data)
        cm = faircap.fairlet_cost(mcf, data)
        assert cm <= cv + 1e-9, (cm, cv)
        margins.append(cv - cm)
    _ok(6, "mcf-cost-dominance", f"50/50 instances, mean saving {np.mean(margins):.3f}")


# ---------------------------------------------------------------------------
# criterion 7: PAM trace monotonicity and bounded iterations
# ---------------------------------------------------------------------------


def test_criterion_07_pam_monotonicity(randomized_runs):
    completed, _, _ = randomized_runs
    checked = 0
    for method, data, params, _, trace in completed:
        if not method.startswith("kmed"):
            continue
        costs = [event["cost"] for event in trace]
        assert costs, "k-medoids run must emit a trace"
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:])), costs
        decompose = faircap.mcf_decompose if method.endswith("mcf") else faircap.vanilla_decompose
        l = len(decompose(data, params.t, params.seed))
        assert len(costs) - 1 <= 10 * l
        checked += 1
    assert checked >= 50
    _ok(7, "pam-monotonicity", f"{checked} traces non-increasing within 10*l rounds")


# ---------------------------------------------------------------------------
# criterion 8: small-instance optimality against brute force
# ---------------------------------------------------------------------------


def _brute_force_2partition(coords, weights, q):
    """Best capacity-feasible 2-partition by summed distance to medoids."""
    n = len(weights)
    dists = faircap.core.pairwise_distances(coords)
    best_cost, best_parts = np.inf, None
    for bits in itertools.product([0, 1], repeat=n - 1):
        labels = np.array([0, *bits])
        if labels.min() == labels.max():
            continue
        if any(weights[labels == c].sum() > q for c in (0, 1)):
            continue
        cost = sum(
            dists[np.ix_(np.flatnonzero(labels == c), np.flatnonzero(labels == c))]
            .sum(axis=1)
            .min()
            for c in (0, 1)
        )
        if cost < best_cost:
            best_cost = cost
            best_parts = {frozenset(np.flatnonzero(labels == c).tolist()) for c in (0, 1)}
    return best_cost, best_parts


def test_criterion_08_small_instance_optimality():
    rng = np.random.default_rng(88)
    for trial in range(5):
        half = 6
        centers = np.array([[0.0, 0.0], [8.0, 8.0]])
        coords = np.vstack(
            [c + 0.4 * rng.standard_normal((half, 2)) for c in centers]
        )
        weights = np.ones(2 * half, dtype=np.int64)
        q = half  # n/2
        _, expected = _brute_force_2partition(coords, weights, q)

        kmed = faircap.kmedoids_fair_capacitated(
            coords, weights, k=2, q=q, lam=0.3, seed=trial
        )
        parts = {
            frozenset(np.flatnonzero(kmed.assignment == c).tolist()) for c in (0, 1)
        }
        assert parts == expected

        hier = faircap.hierarchical_fair_capacitated(coords, weights, k=2, q=q)
        parts = {
            frozenset(np.flatnonzero(hier.assignment == c).tolist()) for c in (0, 1)
        }
        assert parts == expected
    _ok(8, "small-instance-optimality", "5 blob instances recovered exactly by both algorithms")


# ---------------------------------------------------------------------------
# criterion 9: capacity trend on an imbalanced dataset
# ---------------------------------------------------------------------------


def test_criterion_09_capacity_trend():
    # blobs of 180, 75 and 45 rows: the head of each of three 180-row blobs
    blobs = faircap.make_blobs(n=540, balance=1.0, clusters=3, noise=0.05, seed=90210)
    rows = np.r_[0:180, 180:255, 360:405]
    data = faircap.Dataset(features=blobs.features[rows], protected=blobs.protected[rows])
    records = {}
    for method in ("vanilla_kmedoids",) + FAIR_CAPACITATED:
        epsilon = 1.2 if method.startswith("hier") else 1.01
        params = faircap.Params(k=3, epsilon=epsilon, seed=17)
        _, records[method], _ = faircap.pipeline(method, data, params)

    vanilla = records["vanilla_kmedoids"]
    assert max(vanilla.sizes) > vanilla.q, (vanilla.sizes, vanilla.q)
    for method in FAIR_CAPACITATED:
        rec = records[method]
        assert max(rec.sizes) <= rec.q, (method, rec.sizes, rec.q)
        assert max(rec.sizes) < max(vanilla.sizes), method
    _ok(
        9,
        "capacity-trend",
        f"vanilla max {max(vanilla.sizes)} > q={vanilla.q}; fair-capacitated "
        f"maxima {[max(records[m].sizes) for m in FAIR_CAPACITATED]}",
    )


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reruns
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    data = tmp_path / "data.csv"
    flags = ["--n", "60", "--balance", "0.8", "--clusters", "2", "--seed", "99"]
    assert cli.main(["generate", "--out", str(data), *flags]) == cli.EXIT_OK
    config = tmp_path / "sweep.ini"
    config.write_text(
        f"""
[dataset]
path = {data}
protected_column = group

[sweep]
methods = all
k = 2,4
seed = 99
""",
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert cli.main(["run", str(config), "--output", str(out1)]) == cli.EXIT_OK
    assert cli.main(["run", str(config), "--output", str(out2)]) == cli.EXIT_OK
    first = (out1 / "runs.jsonl").read_bytes()
    second = (out2 / "runs.jsonl").read_bytes()
    assert first == second
    rows = [json.loads(line) for line in first.decode().splitlines()]
    assert len(rows) == 1 + 7 * 2
    _ok(10, "determinism", f"{len(rows) - 1} records byte-identical across reruns")
