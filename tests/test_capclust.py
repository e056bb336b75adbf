import re
import sys
import tracemalloc

import numpy as np
import pytest

from faircap import capclust
from faircap.capclust import (
    KnapsackInstance,
    MergeLog,
    _rank_classes,
    _repair_room,
    _two_class_rows,
    capacity_threshold,
    hierarchical_fair_capacitated,
    kmedoids_fair_capacitated,
    knapsack_select,
)
from faircap.baselines import kcenter_greedy, kmedoids_vanilla
from faircap.core import Params, pairwise_distances, rng_stream
from faircap.errors import ContractViolationError, InfeasibilityError


def brute_force_knapsack(values, weights, capacity):
    """Exhaustive best value over all subsets (n <= 20), plus the best weight."""
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.int64)
    n = values.size
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(n)) & 1
    tot_w = bits @ weights
    tot_v = bits @ values
    feasible = tot_w <= capacity
    best = tot_v[feasible].max(initial=0.0)
    return float(best)


def reference_knapsack(values, weights, capacity):
    """The knapsack DP with its tie rules, as the definition: maximum value
    under the right-fold float sums, then minimum weight, then the
    lexicographically smallest index set."""
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.int64)
    n = values.size
    if n == 0 or capacity == 0:
        return np.empty(0, dtype=np.int64)
    total_w = int(weights.sum())
    cap = min(capacity, total_w)
    if total_w <= capacity and values.min() > 0:
        return np.arange(n, dtype=np.int64)
    best_v = [None] * (n + 1)
    best_w = [None] * (n + 1)
    best_v[n] = np.zeros(cap + 1)
    best_w[n] = np.zeros(cap + 1, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        wi = int(weights[i])
        nv, nw = best_v[i + 1].copy(), best_w[i + 1].copy()
        if wi <= cap:
            take_v = best_v[i + 1][: cap + 1 - wi] + values[i]
            take_w = best_w[i + 1][: cap + 1 - wi] + wi
            seg_v, seg_w = nv[wi:], nw[wi:]
            upd = (take_v > seg_v) | ((take_v == seg_v) & (take_w < seg_w))
            seg_v[upd] = take_v[upd]
            seg_w[upd] = take_w[upd]
        best_v[i], best_w[i] = nv, nw
    selected = []
    w = cap
    target_v, target_w = best_v[0][w], best_w[0][w]
    for i in range(n):
        wi = int(weights[i])
        if wi <= w:
            rest_v, rest_w = best_v[i + 1][w - wi], best_w[i + 1][w - wi]
            if rest_v + values[i] == target_v and rest_w + wi == target_w:
                selected.append(i)
                w -= wi
                target_v, target_w = rest_v, rest_w
    return np.array(selected, dtype=np.int64)


def certify_one_row(values, weights, capacity):
    """The lockstep's two-class certificate on one row whose points are all
    free: the sorted selection, or None when the row is left to the DP."""
    values, weights = np.asarray(values, dtype=np.float64), np.asarray(weights)
    cap = np.array([min(capacity, int(weights.sum()))])
    ranks = _rank_classes(values[None], weights)
    ok, _, points, _ = _two_class_rows(
        np.ones((1, values.size), dtype=bool), cap, np.zeros(1, dtype=np.int64), ranks
    )
    return np.sort(points) if ok[0] else None


def unit_points(coords):
    """(positions, weights) of unit-weight points; 1-d coords become a column."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    return coords, np.ones(len(coords), dtype=np.int64)


def random_points(rng, l):
    """l points in the unit square with weights in 1..3, drawn point by point."""
    positions = np.empty((l, 2))
    weights = np.empty(l, dtype=np.int64)
    for i in range(l):
        positions[i] = rng.uniform(0, 1, 2)
        weights[i] = rng.integers(1, 4)
    return positions, weights


# Capacities above any total weight here; hier's int64 room arithmetic once
# overflowed from 2**62 on
HUGE_QS = (2**62, sys.maxsize, 2**63, 10**30)


# Every public entry that takes weighted points, called with k=1 (and q=10 if it takes q).
ENTRIES = (
    lambda pos, w: hierarchical_fair_capacitated(pos, w, k=1, q=10),
    lambda pos, w: kmedoids_fair_capacitated(pos, w, k=1, q=10, lam=0.3, seed=0),
    lambda pos, w: kcenter_greedy(pos, w, k=1, seed=0),
    lambda pos, w: kmedoids_vanilla(pos, w, k=1, seed=0),
)


class TestCapacityThreshold:
    def test_uci_scale_example(self):
        assert capacity_threshold(395, 10, 1.2) == 48

    def test_exact_division_at_unit_epsilon(self):
        assert capacity_threshold(100, 10, 1.0) == 10

    def test_large_instance(self):
        assert capacity_threshold(4000, 7, 1.01) == 578

    def test_exact_multiple_not_pushed_over(self):
        # 4000 * 1.01 / 8 = 505 exactly; float ceil would give 506
        assert capacity_threshold(4000, 8, 1.01) == 505

    def test_rejects_small_epsilon(self):
        with pytest.raises(ContractViolationError):
            capacity_threshold(10, 2, 0.9)
        for n, k in ((0, 2), (10, 0)):
            with pytest.raises(ContractViolationError, match=f"got n={n}, k={k}"):
                capacity_threshold(n, k, 1.0)

    def test_rejects_non_finite_epsilon(self):
        for epsilon in (float("nan"), float("inf")):
            with pytest.raises(ContractViolationError, match="finite"):
                capacity_threshold(10, 2, epsilon)


class TestWeightedPointChecks:
    def test_rejects_positions_that_are_not_2d(self):
        for entry in ENTRIES:
            with pytest.raises(ContractViolationError, match="2-d"):
                entry(np.array([0.0, 1.0, 2.0]), np.ones(3, dtype=np.int64))

    def test_rejects_weight_count_mismatch(self):
        for entry in ENTRIES:
            with pytest.raises(ContractViolationError, match="one weight per"):
                entry(np.zeros((3, 2)), np.ones(2, dtype=np.int64))

    def test_rejects_zero_weight(self):
        for entry in ENTRIES:
            with pytest.raises(ContractViolationError, match="positive integers"):
                entry(np.zeros((3, 2)), np.array([1, 0, 1]))

    def test_rejects_non_finite_positions(self):
        for bad in (np.nan, np.inf):
            positions = np.zeros((3, 2))
            positions[1, 0] = bad
            for entry in ENTRIES:
                with pytest.raises(ContractViolationError, match="finite"):
                    entry(positions, np.ones(3, dtype=np.int64))

    def test_rejects_k_below_one(self):
        positions, weights = np.zeros((3, 2)), np.ones(3, dtype=np.int64)
        for entry in (
            lambda: hierarchical_fair_capacitated(positions, weights, k=0, q=10),
            lambda: kmedoids_fair_capacitated(positions, weights, k=0, q=10, lam=0.3, seed=0),
            lambda: kcenter_greedy(positions, weights, k=0, seed=0),
            lambda: kmedoids_vanilla(positions, weights, k=0, seed=0),
            lambda: kmedoids_vanilla(positions, weights, k=-1, seed=0),
            lambda: hierarchical_fair_capacitated(positions, weights, k=1, q=0),
            lambda: kmedoids_fair_capacitated(positions, weights, k=1, q=0, lam=0.3, seed=0),
        ):
            with pytest.raises(ContractViolationError, match="positive"):
                entry()

    def test_rejects_fewer_points_than_k(self):
        positions, weights = np.zeros((2, 2)), np.ones(2, dtype=np.int64)
        for entry in (
            lambda: hierarchical_fair_capacitated(positions, weights, k=3, q=10),
            lambda: kmedoids_fair_capacitated(positions, weights, k=3, q=10, lam=0.3, seed=0),
            lambda: kcenter_greedy(positions, weights, k=3, seed=0),
            lambda: kmedoids_vanilla(positions, weights, k=3, seed=0),
        ):
            with pytest.raises(
                InfeasibilityError, match="cannot form k=3 nonempty clusters from 2 points"
            ):
                entry()

    def test_rejects_counts_and_scales_of_the_wrong_type(self):
        # k = 2.5 once gave k-center 3 clusters and a float q or seed was
        # floored; a bool passed for 0 or 1. NumPy integers are integers.
        positions, weights = np.zeros((4, 2)), np.ones(4, dtype=np.int64)
        counts = {
            "k": (
                lambda k: Params(k=k),
                lambda k: capacity_threshold(10, k, 1.0),
                lambda k: hierarchical_fair_capacitated(positions, weights, k=k, q=10),
                lambda k: kmedoids_fair_capacitated(positions, weights, k, 10, lam=0.3, seed=0),
                lambda k: kcenter_greedy(positions, weights, k=k, seed=0),
                lambda k: kmedoids_vanilla(positions, weights, k=k, seed=0),
            ),
            "q": (
                lambda q: hierarchical_fair_capacitated(positions, weights, k=2, q=q),
                lambda q: kmedoids_fair_capacitated(positions, weights, 2, q, lam=0.3, seed=0),
            ),
            "seed": (
                lambda seed: Params(k=2, seed=seed),
                lambda seed: kmedoids_fair_capacitated(positions, weights, 2, 10, 0.3, seed),
                lambda seed: kcenter_greedy(positions, weights, k=2, seed=seed),
                lambda seed: kmedoids_vanilla(positions, weights, k=2, seed=seed),
                lambda seed: rng_stream(seed, "any"),
            ),
            "n": (lambda n: capacity_threshold(n, 2, 1.0),),
        }
        for name, entries in counts.items():
            for entry in entries:
                entry(np.int64(2))
                for bad in (2.5, 2.0, True, "2"):
                    message = f"{name} must be an integer, got {re.escape(repr(bad))}"
                    with pytest.raises(ContractViolationError, match=message):
                        entry(bad)
        for name, entry in (
            ("epsilon", lambda eps: Params(k=2, epsilon=eps)),
            ("epsilon", lambda eps: capacity_threshold(10, 2, eps)),
            ("lambda", lambda lam: Params(k=2, lam=lam)),
            ("lambda", lambda lam: kmedoids_fair_capacitated(positions, weights, 2, 10, lam, 0)),
        ):
            with pytest.raises(ContractViolationError, match=f"{name} must be finite.*got True"):
                entry(True)


class TestKnapsackSelect:
    def test_zero_capacity_selects_nothing(self):
        inst = KnapsackInstance(values=[1.0, 2.0], weights=[1, 1], capacity=0)
        assert knapsack_select(inst).size == 0
        # no items: the all-fit rule takes the empty set, at any capacity
        for capacity in (0, 3):
            chosen = knapsack_select(KnapsackInstance(values=[], weights=[], capacity=capacity))
            assert chosen.dtype == np.int64 and chosen.shape == (0,)

    def test_small_instance_against_subset_enumeration(self):
        # brute force over all 8 subsets: {0,2} carries weight 6 and value 8
        inst = KnapsackInstance(values=[3.0, 4.0, 5.0], weights=[2, 3, 4], capacity=6)
        chosen = knapsack_select(inst)
        assert chosen.tolist() == [0, 2]
        assert inst.values[chosen].sum() == pytest.approx(
            brute_force_knapsack(inst.values, inst.weights, inst.capacity)
        )

    def test_random_instances_match_exhaustive_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            values = np.round(rng.uniform(0, 5, size=n), 3)
            weights = rng.integers(1, 8, size=n)
            capacity = int(rng.integers(0, int(weights.sum()) + 2))
            inst = KnapsackInstance(values=values, weights=weights, capacity=capacity)
            chosen = knapsack_select(inst)
            assert int(weights[chosen].sum()) <= capacity
            expected = brute_force_knapsack(values, weights, capacity)
            assert values[chosen].sum() == pytest.approx(expected, abs=1e-9)

    def test_tie_prefers_smaller_weight(self):
        # both {0} and {1} reach value 2; item 1 weighs less
        inst = KnapsackInstance(values=[2.0, 2.0], weights=[3, 2], capacity=3)
        assert knapsack_select(inst).tolist() == [1]

    def test_tie_prefers_lexicographically_smallest(self):
        inst = KnapsackInstance(values=[1.0, 1.0], weights=[1, 1], capacity=1)
        assert knapsack_select(inst).tolist() == [0]

    def test_all_fit_shortcut_keeps_everything(self):
        inst = KnapsackInstance(values=[0.5, 0.7], weights=[2, 3], capacity=10)
        assert knapsack_select(inst).tolist() == [0, 1]
        # the rule is part of the definition: 1.0 + 1e-20 == 1.0, so the DP
        # alone would tie both selections and drop item 0 for its weight
        inst = KnapsackInstance(values=[1e-20, 1.0], weights=[1, 1], capacity=2)
        assert knapsack_select(inst).tolist() == [0, 1]

    def test_capacity_beyond_int64_is_total_weight(self):
        # a zero value skips the all-fit return, so the DP must size its
        # table by the total weight: 2**70 overflows int64
        for values, weights in (([1.0, 0.0], [2, 3]), ([1.0, 0.0, 0.5], [2, 3, 4])):
            huge = knapsack_select(KnapsackInstance(values, weights, 2**70))
            assert huge.tolist() == knapsack_select(KnapsackInstance(values, weights, 9)).tolist()

    def test_zero_value_item_dropped_when_equal_value(self):
        # value optimum 1.0 either way; smaller total weight excludes item 1
        inst = KnapsackInstance(values=[1.0, 0.0], weights=[1, 1], capacity=2)
        assert knapsack_select(inst).tolist() == [0]

    def test_matches_dp_reference_on_tie_heavy_instances(self):
        # 1-3 weight classes; values exact, rounded to 1 or 0 decimals (ties
        # at class boundaries and between the best prefix pairs), or decayed
        # from far distances (underflowed zeros); capacity 0 to above sum(w)
        rng = np.random.default_rng(8080)
        classes_seen, declined = set(), set()
        for trial in range(3000):
            n = int(rng.integers(1, 25))
            n_classes = int(rng.integers(1, 4))
            weights = rng.choice(rng.choice(np.arange(1, 7), n_classes, replace=False), n)
            kind = trial % 5
            values = rng.uniform(0, 1, n)
            if kind == 1:
                values = values.round(1)
            elif kind == 2:
                values = (3 * values).round(0)
            elif kind == 3:
                values = np.exp(-rng.choice([0.5, 1.0, 400.0], n) / 0.3)
            elif kind == 4:
                values = np.full(n, values[0])
            capacity = int(rng.integers(0, int(weights.sum()) + 3))
            chosen = knapsack_select(KnapsackInstance(values, weights, capacity))
            expected = reference_knapsack(values, weights, capacity)
            assert chosen.tolist() == expected.tolist(), (values, weights, capacity)
            classes_seen.add(len(set(weights.tolist())))
            if len(set(weights.tolist())) <= 2 and capacity:
                certified = certify_one_row(values, weights, capacity)
                declined.add(certified is None)
                if certified is not None:
                    assert certified.tolist() == expected.tolist(), (values, weights, capacity)
        assert classes_seen == {1, 2, 3}
        assert declined == {True, False}  # the certificate both took and declined rows

    def test_dp_keeps_one_decision_table(self):
        # three weight classes force the DP; a boolean table of 2,000 x 1,001
        # cells is 1.9 MiB, where per-item value and weight rows took 31 MiB
        rng = np.random.default_rng(2024)
        inst = KnapsackInstance(rng.uniform(0, 1, 2000), rng.choice([2, 3, 4], 2000), 1000)
        tracemalloc.start()
        try:
            chosen = knapsack_select(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert chosen.tolist() == reference_knapsack(inst.values, inst.weights, 1000).tolist()

    def test_two_class_helper_takes_and_declines(self):
        values = np.array([0.9, 0.1, 0.8, 0.5, 0.3])
        weights = np.array([2, 3, 3, 2, 2])
        # best: both top weight-2 items (0.9, 0.5) and the top weight-3 (0.8)
        assert certify_one_row(values, weights, 7).tolist() == [0, 2, 3]
        assert reference_knapsack(values, weights, 7).tolist() == [0, 2, 3]
        # a value tie at the weight-2 boundary (items 3 and 4) is left to the DP
        values[4] = values[3]
        assert certify_one_row(values, weights, 7) is None
        # so is a taken item worth nothing, where the DP prefers less weight
        assert certify_one_row(np.array([1.0, 0.0]), np.array([2, 3]), 5) is None
        # and three weight classes, which are never ranked for the certificate
        assert _rank_classes(np.ones((1, 3)), np.array([1, 2, 3])) is None

    def test_rejects_fractional_weights_and_capacity(self):
        with pytest.raises(ContractViolationError, match="weights must be positive integers"):
            KnapsackInstance(values=[1.0, 1.0], weights=[2.9, 1], capacity=3)
        with pytest.raises(ContractViolationError, match="equal-length vectors"):
            KnapsackInstance(values=[1.0, 1.0], weights=[2], capacity=3)
        for values in ([1.0, np.nan], [1.0, -0.5]):
            with pytest.raises(ContractViolationError, match="finite and nonnegative"):
                KnapsackInstance(values=values, weights=[2, 1], capacity=3)
        with pytest.raises(ContractViolationError, match="capacity must be nonnegative"):
            KnapsackInstance(values=[1.0, 1.0], weights=[2, 1], capacity=-1)
        for capacity in (2.7, 2.0, True):
            with pytest.raises(ContractViolationError, match="capacity must be an integer"):
                KnapsackInstance(values=[1.0, 1.0], weights=[2, 1], capacity=capacity)
        inst = KnapsackInstance([1.0], weights=np.array([2], np.int32), capacity=np.int64(2))
        assert inst.capacity == 2 and type(inst.capacity) is int
        assert inst.weights.dtype == np.int64


def reference_hierarchical(positions, weights, k, q):
    """Capacity-gated merging written plainly: before every merge, recompute
    every cluster's centroid and load from the label vector, then take the
    row-major argmin over all capacity-feasible pairs of live cluster ids."""
    w = weights.astype(np.float64)
    label = np.arange(len(weights))
    trace = []
    while len(np.unique(label)) > k:
        ids = np.unique(label)
        cents = np.stack([
            (positions[label == c] * w[label == c, None]).sum(axis=0) / w[label == c].sum()
            for c in ids
        ])
        loads = np.array([weights[label == c].sum() for c in ids])
        d = pairwise_distances(cents)
        d[np.tril_indices(len(ids))] = np.inf
        d[loads[:, None] + loads > q] = np.inf
        a, b = divmod(int(np.argmin(d)), len(ids))
        if not np.isfinite(d[a, b]):
            raise InfeasibilityError(
                f"no pair of the remaining {len(ids)} clusters fits under "
                f"capacity {q}; rerun with a larger epsilon"
            )
        trace.append({"iteration": len(trace) + 1, "event": "merge", "cost": float(d[a, b])})
        label[label == ids[b]] = ids[a]
    return np.unique(label, return_inverse=True)[1], tuple(trace)


class TestHierarchical:
    def test_matches_plain_reference(self):
        # coordinates rounded to one decimal give coincident points (tied
        # zero distances), and epsilon = 1.0 often leaves no feasible pair
        # before k clusters remain
        rng = np.random.default_rng(2024)
        outcomes = set()
        for trial in range(120):
            l = int(rng.integers(2, 30))
            positions, weights = random_points(rng, l)
            if trial % 2:
                positions = positions.round(1)
            k = int(rng.integers(1, min(l, 5) + 1))
            eps = float(rng.choice([1.0, 1.1, 1.5]))
            # q passes the entry checks, so any error comes from the merging
            q = max(capacity_threshold(int(weights.sum()), k, eps), int(weights.max()))
            try:
                expected = reference_hierarchical(positions, weights, k, q)
            except InfeasibilityError as exc:
                with pytest.raises(InfeasibilityError) as err:
                    hierarchical_fair_capacitated(positions, weights, k, q)
                assert str(err.value) == str(exc)
                outcomes.add("infeasible")
                continue
            result = hierarchical_fair_capacitated(positions, weights, k, q)
            assert result.assignment.tolist() == expected[0].tolist()
            assert result.trace == expected[1]
            outcomes.add("ok")
        assert outcomes == {"ok", "infeasible"}

    def test_setup_peak_memory_is_about_the_distance_matrix(self):
        # the set-up gates the l x l matrix with boolean masks; the index
        # arrays of its lower triangle and an int64 l x l weight sum once
        # took twice its size. The second call replays the first's merge,
        # then rebuilds the matrix and merges once more on its own.
        l = 2000
        positions = np.random.default_rng(7).uniform(size=(l, 2))
        weights = np.ones(l, dtype=np.int64)
        log = MergeLog()
        for k in (l - 1, l - 2):
            tracemalloc.start()
            try:
                result = hierarchical_fair_capacitated(positions, weights, k=k, q=2, merges=log)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(result.trace) == l - k
            assert peak < 1.5 * l * l * 8
        assert len(log.pairs) == 2

    def test_shared_merge_log_matches_separate_calls(self, monkeypatch):
        # each call sharing a log with the calls before it, looser ones
        # first, equals the same call without a log: labels, the bits of
        # each merge cost, and the error text. Ties from a 0.1 grid and
        # coincident points; epsilon 1.0 stalls runs, also right after the
        # merges they replayed, and k values of one q replay whole runs.
        seen = dict.fromkeys(
            ("in full", "in part", "whole run", "replayed, then stalled", "equal q"), 0
        )
        replayed = []
        start = MergeLog.start

        def start_spy(log, positions, weights, q, limit):
            replayed.append(start(log, positions, weights, q, limit))
            if replayed[-1] == limit:
                seen["whole run" if limit else "in full"] += 1
            else:
                seen["in part" if replayed[-1] else "in full"] += 1
            return replayed[-1]

        def outcome(*args, **kwargs):
            try:
                result = hierarchical_fair_capacitated(*args, **kwargs)
            except InfeasibilityError as exc:
                return str(exc)
            return result.assignment.tolist(), [
                (e["iteration"], e["event"], e["cost"].hex()) for e in result.trace
            ]

        monkeypatch.setattr(MergeLog, "start", start_spy)
        rng = np.random.default_rng(27)
        for trial in range(250):
            l, d = int(rng.integers(2, 46)), int(rng.integers(1, 4))
            positions = rng.uniform(size=(l, d))
            if trial % 3 == 0:
                positions = positions.round(1)
            if trial % 11 == 0:
                positions[:] = positions[0]
            weights = rng.integers(1, 4, size=l)
            epsilon = (1.0, 1.05, 1.2, 1.5)[trial % 4]
            ks = np.unique(rng.integers(1, l + 1, size=int(rng.integers(1, 6))))
            log, last_q = MergeLog(), None
            for k in ks.tolist():
                q = max(capacity_threshold(int(weights.sum()), k, epsilon), int(weights.max()))
                seen["equal q"] += q == last_q
                last_q = q
                shared = outcome(positions, weights, k, q, merges=log)
                seen["replayed, then stalled"] += isinstance(shared, str) and replayed[-1] > 0
                assert shared == outcome(positions, weights, k, q), (trial, k)
        assert all(seen.values()), seen

    def test_merge_log_refuses_other_points_and_looser_calls_run_in_full(self):
        # at q = 2 the pair {1, 2} cannot take point 0, so 0 joins 5; the
        # looser call must not replay that second merge
        positions, weights = unit_points([0.0, 1.0, 1.1, 5.0])
        log = MergeLog()
        tight = hierarchical_fair_capacitated(positions, weights, k=2, q=2, merges=log)
        assert tight.assignment.tolist() == [0, 1, 1, 0]
        for other in (positions + 1, positions[:3]):
            with pytest.raises(ContractViolationError, match="merge log was recorded on other points"):
                hierarchical_fair_capacitated(other, weights[: len(other)], k=2, q=3, merges=log)
        with pytest.raises(ContractViolationError, match="merge log was recorded on other points"):
            hierarchical_fair_capacitated(positions, weights + 1, k=3, q=4, merges=log)
        loose = hierarchical_fair_capacitated(positions, weights, k=2, q=3, merges=log)
        alone = hierarchical_fair_capacitated(positions, weights, k=2, q=3)
        assert loose.assignment.tolist() == alone.assignment.tolist() == [0, 0, 0, 1]
        assert loose.trace == alone.trace
        assert (log.q, log.pairs) == (3, [(1, 2), (0, 1)])

    def test_capacity_above_total_weight_is_total_weight(self):
        # any q >= total weight never binds, alone or through a shared log,
        # which then holds the total weight as its working capacity
        rng = np.random.default_rng(45)
        for trial in range(6):
            positions, weights = random_points(rng, 12)
            total = int(weights.sum())
            expected = hierarchical_fair_capacitated(positions, weights, k=3, q=total)
            log = MergeLog()
            for q in HUGE_QS:
                for merges in (None, log):
                    result = hierarchical_fair_capacitated(positions, weights, 3, q, merges=merges)
                    assert result.assignment.tolist() == expected.assignment.tolist(), (trial, q)
                    assert result.trace == expected.trace
            assert (log.q, len(log.pairs)) == (total, 9)

    def test_identity_when_k_equals_points(self):
        positions, weights = unit_points([0.0, 5.0, 9.0])
        result = hierarchical_fair_capacitated(positions, weights, k=3, q=2)
        assert sorted(result.assignment.tolist()) == [0, 1, 2]
        assert result.trace == ()

    def test_tie_merges_smallest_id_pair(self):
        # pairs (0, 3) and (1, 2) are both exactly 1.0 apart; the smaller
        # id pair (0, 3) merges first and keeps id 0
        positions, weights = unit_points([0.0, 5.0, 6.0, 1.0])
        result = hierarchical_fair_capacitated(positions, weights, k=3, q=2)
        assert result.assignment.tolist() == [0, 1, 2, 0]
        assert result.trace == ({"iteration": 1, "event": "merge", "cost": 1.0},)

    def test_colinear_brute_force_case(self):
        # only capacity-respecting 2-partition reachable by closest-pair
        # merging of 0,1,10,11 is {0,1} | {10,11}
        positions, weights = unit_points([0.0, 1.0, 10.0, 11.0])
        result = hierarchical_fair_capacitated(positions, weights, k=2, q=2)
        a = result.assignment
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]

    def test_deadlock_when_no_pair_fits(self):
        coords = np.array([[0.0], [1.0], [2.0]])
        weights = np.full(3, 3)
        # weights 3+3 exceed q=4 for every pair (also fails the k*q bound)
        with pytest.raises(InfeasibilityError) as err:
            hierarchical_fair_capacitated(coords, weights, k=2, q=4)
        assert "epsilon" in str(err.value)
        # with q=5 the weight bound holds but every merge is still gated
        with pytest.raises(InfeasibilityError) as err:
            hierarchical_fair_capacitated(coords, weights, k=2, q=5)
        assert "epsilon" in str(err.value)

    def test_capacity_invariant_on_random_instances(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            l = int(rng.integers(6, 30))
            positions, weights = random_points(rng, l)
            total = int(weights.sum())
            k = int(rng.integers(2, 5))
            q = capacity_threshold(total, k, 1.3)
            try:
                result = hierarchical_fair_capacitated(positions, weights, k, q)
            except InfeasibilityError:
                continue
            loads = np.zeros(k, dtype=int)
            for w, cid in zip(weights, result.assignment):
                loads[cid] += w
            assert loads.max() <= q
            assert loads.sum() == total
            assert len(set(result.assignment.tolist())) == k

    def test_permutation_invariance_of_partition(self):
        rng = np.random.default_rng(77)
        coords = rng.uniform(0, 10, size=(12, 2)).round(3)
        weights = rng.integers(1, 3, size=12)
        base = hierarchical_fair_capacitated(coords, weights, k=3, q=12)
        perm = rng.permutation(12)
        permuted = hierarchical_fair_capacitated(
            coords[perm], weights[perm], k=3, q=12
        )

        def as_partition(rows, assignment):
            # rows[i] is the original index of the point at position i
            groups = {}
            for row, cid in zip(rows, assignment):
                groups.setdefault(cid, set()).add(int(row))
            return {frozenset(g) for g in groups.values()}

        assert as_partition(range(12), base.assignment) == as_partition(
            perm, permuted.assignment
        )


def reference_kmedoids(positions, weights, k, q, lam, seed):
    """The capacitated k-medoids swap search with the DP knapsack and every
    candidate re-assigned in every round. A sample that strands a point costs
    +inf, and its error is raised only if no round places every point.
    Returns (assignment, trace, number of candidate swaps that were
    infeasible)."""
    l = len(weights)
    dists = pairwise_distances(positions)
    decay = np.exp(-dists / lam)

    def assign(medoids):
        med = np.asarray(medoids)
        taken = np.full(l, -1, dtype=np.int64)
        taken[med] = np.arange(k)
        room = q - weights[med]
        for ci, s in enumerate(medoids):
            cand = np.flatnonzero(taken == -1)
            if cand.size:
                chosen = cand[reference_knapsack(decay[s, cand], weights[cand], int(room[ci]))]
                taken[chosen] = ci
                room[ci] -= int(weights[chosen].sum())
        leftovers = np.flatnonzero(taken == -1)
        for p in leftovers[np.argsort(-weights[leftovers], kind="stable")]:
            fits = np.flatnonzero(room >= weights[p])
            if fits.size:
                ci = int(fits[np.argmin(dists[p, med[fits]])])
            else:
                ci = _repair_room(int(p), taken, room, med, dists, weights)
            taken[p] = ci
            room[ci] -= weights[p]
        return taken

    def cost_of(medoids, taken):
        return float(dists[np.arange(l), np.asarray(medoids)[taken]].sum())

    rng = rng_stream(seed, "capclust.kmedoids")
    medoids = tuple(sorted(int(i) for i in rng.choice(l, size=k, replace=False)))
    try:
        taken = assign(medoids)
    except InfeasibilityError as exc:  # a stranding sample costs +inf
        error, best_cost, trace = exc, np.inf, []
    else:
        best_cost = cost_of(medoids, taken)
        trace = [{"iteration": 0, "event": "assign", "cost": best_cost}]
    infeasible = 0
    for round_no in range(1, 10 * l + 1):
        best_swap = None
        for s in medoids:
            for o in [p for p in range(l) if p not in medoids]:
                cand = tuple(sorted([m for m in medoids if m != s] + [o]))
                try:
                    cand_taken = assign(cand)
                except InfeasibilityError:
                    infeasible += 1
                    continue
                c = cost_of(cand, cand_taken)
                if c < best_cost:
                    best_cost, best_swap = c, (cand, cand_taken)
        if best_swap is None:
            if not trace:  # no tuple placed every point
                raise error
            return taken, tuple(trace), infeasible
        medoids, taken = best_swap
        trace.append({"iteration": round_no, "event": "swap", "cost": best_cost})
    raise AssertionError("reference swap loop did not converge")


class TestKMedoidsFairCapacitated:
    def test_matches_plain_swap_loop(self):
        # weights {2, 3} take the two-class knapsack path and {2, 3, 4} the
        # DP; positions rounded to one decimal tie distances; tight capacities
        # make some candidate swaps infeasible
        rng = np.random.default_rng(7707)
        infeasible_swaps = 0
        outcomes = set()
        for trial in range(100):
            l = int(rng.integers(5, 13))
            k = int(rng.integers(2, min(l - 1, 5) + 1))
            positions = rng.uniform(0, 1, size=(l, 2))
            if trial % 2:
                positions = positions.round(1)
            weights = rng.choice([2, 3] if trial % 3 else [2, 3, 4], size=l)
            epsilon = 1.0 + 0.1 * (trial % 4)
            q = max(int(weights.max()), capacity_threshold(int(weights.sum()), k, epsilon))
            lam = (0.3, 1.0)[trial % 2]
            try:
                expected = reference_kmedoids(positions, weights, k, q, lam, seed=trial)
            except InfeasibilityError as exc:
                with pytest.raises(InfeasibilityError) as err:
                    kmedoids_fair_capacitated(positions, weights, k, q, lam, seed=trial)
                assert str(err.value) == str(exc)
                outcomes.add("infeasible")
                continue
            result = kmedoids_fair_capacitated(positions, weights, k, q, lam, seed=trial)
            assignment, trace, infeasible = expected
            assert result.assignment.tolist() == assignment.tolist()
            assert result.trace == trace
            infeasible_swaps += infeasible
            swapped = any(event["event"] == "swap" for event in trace)
            outcomes.add("swapped" if swapped else "converged at once")
            if trace[0]["event"] == "swap":
                outcomes.add("searched on from a stranding sample")
        assert infeasible_swaps > 0
        assert {"swapped", "converged at once", "searched on from a stranding sample"} <= outcomes

    def test_every_point_its_own_medoid(self):
        positions, weights = unit_points([0.0, 3.0, 7.0])
        result = kmedoids_fair_capacitated(positions, weights, k=3, q=1, lam=0.3, seed=0)
        assert sorted(result.assignment.tolist()) == [0, 1, 2]
        assert result.trace[-1]["cost"] == 0.0

    def test_recovers_separated_groups(self):
        coords = np.array(
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [5.0, 5.0], [5.1, 5.0], [5.0, 5.1]]
        )
        positions, weights = unit_points(coords)
        result = kmedoids_fair_capacitated(positions, weights, k=2, q=3, lam=0.3, seed=4)
        a = result.assignment
        assert len({a[0], a[1], a[2]}) == 1
        assert len({a[3], a[4], a[5]}) == 1
        assert a[0] != a[3]

    def test_trace_costs_non_increasing(self):
        rng = np.random.default_rng(31)
        for seed in range(5):
            l = 16
            positions, weights = random_points(rng, l)
            total = int(weights.sum())
            q = capacity_threshold(total, 3, 1.05)
            result = kmedoids_fair_capacitated(
                positions, weights, k=3, q=q, lam=0.3, seed=seed
            )
            costs = [e["cost"] for e in result.trace]
            assert costs == sorted(costs, reverse=True)
            assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_capacity_and_totality(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            l = int(rng.integers(8, 24))
            positions, weights = random_points(rng, l)
            total = int(weights.sum())
            k = 3
            q = capacity_threshold(total, k, 1.1)
            result = kmedoids_fair_capacitated(
                positions, weights, k=k, q=q, lam=0.3, seed=seed
            )
            loads = np.zeros(k, dtype=int)
            for w, cid in zip(weights, result.assignment):
                loads[cid] += w
            assert loads.max() <= q
            assert loads.sum() == total
            assert (result.assignment >= 0).all()

    def test_infeasible_capacity_raises(self):
        positions, weights = unit_points([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(InfeasibilityError):
            kmedoids_fair_capacitated(positions, weights, k=2, q=1, lam=0.3, seed=0)
        # total weight 7 fits k*q = 8, but the weight-5 point fits no cluster
        weights = np.array([1, 1, 5])
        for entry in (
            lambda: hierarchical_fair_capacitated(positions[:3], weights, k=2, q=4),
            lambda: kmedoids_fair_capacitated(positions[:3], weights, k=2, q=4, lam=0.3, seed=0),
        ):
            with pytest.raises(InfeasibilityError, match="weight 5 exceeds capacity 4"):
                entry()

    def test_capacity_above_total_weight_is_total_weight(self):
        # q = 2**70 overflows int64; any q >= total weight never binds
        rng = np.random.default_rng(44)
        for seed, lam in enumerate((0.3, 1e-4)):  # 1e-4 decays most values to 0.0
            positions, weights = random_points(rng, 12)
            expected = kmedoids_fair_capacitated(
                positions, weights, k=3, q=int(weights.sum()), lam=lam, seed=seed
            )
            for q in HUGE_QS + (2**70,):
                result = kmedoids_fair_capacitated(positions, weights, k=3, q=q, lam=lam, seed=seed)
                assert result.assignment.tolist() == expected.assignment.tolist()
                assert result.trace == expected.trace

    def test_rejects_lambda_not_finite_and_positive(self):
        # at lam = inf every decay value is 1 and the knapsacks pack by count alone
        positions, weights = unit_points([0.0, 1.0, 2.0, 3.0])
        for lam in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ContractViolationError, match="lambda must be finite and positive"):
                kmedoids_fair_capacitated(positions, weights, k=2, q=2, lam=lam, seed=0)

    def test_seed_determinism(self):
        rng = np.random.default_rng(9)
        positions, weights = unit_points(rng.uniform(0, 1, size=(14, 2)))
        a = kmedoids_fair_capacitated(positions, weights, k=3, q=6, lam=0.3, seed=12)
        b = kmedoids_fair_capacitated(positions, weights, k=3, q=6, lam=0.3, seed=12)
        assert a.assignment.tolist() == b.assignment.tolist()
        assert a.trace == b.trace

    def test_completes_through_repair(self, monkeypatch):
        # total weight 8 = k*q: every cluster needs exactly one weight-3 and
        # one weight-1 point, which the greedy knapsacks do not find alone
        repairs = []

        def spy(*args):
            repairs.append(args[0])
            return _repair_room(*args)

        monkeypatch.setattr(capclust, "_repair_room", spy)
        positions, weights = np.array([[4.0], [5.0], [7.0], [9.0]]), np.array([1, 1, 3, 3])
        result = kmedoids_fair_capacitated(positions, weights, k=2, q=4, lam=0.3, seed=0)
        assert repairs
        loads = np.bincount(result.assignment, weights=weights, minlength=2)
        assert loads.tolist() == [4, 4]

    def test_stranding_sample_searches_on(self):
        # the medoid samples of seeds 0-3 and 5 strand a point, although
        # {0, 1} | {2} fits; the trace then starts at the first swap
        positions, _ = unit_points([8.0, 2.0, 1.0])
        for seed in range(8):
            result = kmedoids_fair_capacitated(
                positions, np.array([1, 2, 3]), k=2, q=3, lam=0.3, seed=seed
            )
            assert result.assignment.tolist() == [0, 0, 1], seed
            assert result.trace[-1]["cost"] == 6.0
            first = "swap" if seed in (0, 1, 2, 3, 5) else "assign"
            assert result.trace[0]["event"] == first, seed

    def test_stranded_point_that_fits_no_cluster_raises(self):
        # any two of the weight-2 points exceed q = 3, although the total
        # weight 6 passes the k*q check
        positions, weights = unit_points([0.0, 1.0, 2.0])
        with pytest.raises(InfeasibilityError, match="fits no cluster"):
            kmedoids_fair_capacitated(positions, 2 * weights, k=2, q=3, lam=0.3, seed=0)


def scalar_kmedoids(positions, weights, k, q, lam, seed):
    """The capacitated k-medoids swap search with each candidate tuple
    assigned on its own: one knapsack_select call per medoid, the nearest-room
    placement and _repair_room, the same ``seen`` memo and strict-< scan. A
    sample that strands a point costs +inf, and its error is raised only if
    no round places every point."""
    l = len(weights)
    q = min(q, int(weights.sum()))
    dists = pairwise_distances(positions)
    decay = np.exp(-dists / lam)

    def assign(medoids):
        med = np.asarray(medoids)
        taken = np.full(l, -1, dtype=np.int64)
        taken[med] = np.arange(k)
        room = q - weights[med]
        for ci, s in enumerate(medoids):
            cand = np.flatnonzero(taken == -1)
            if cand.size:
                inst = KnapsackInstance(decay[s, cand], weights[cand], int(room[ci]))
                chosen = cand[knapsack_select(inst)]
                taken[chosen] = ci
                room[ci] -= int(weights[chosen].sum())
        leftovers = np.flatnonzero(taken == -1)
        for p in leftovers[np.argsort(-weights[leftovers], kind="stable")]:
            fits = np.flatnonzero(room >= weights[p])
            if fits.size:
                ci = int(fits[np.argmin(dists[p, med[fits]])])
            else:
                ci = _repair_room(int(p), taken, room, med, dists, weights)
            taken[p] = ci
            room[ci] -= weights[p]
        return taken

    def cost_of(medoids, taken):
        return float(dists[np.arange(l), np.asarray(medoids)[taken]].sum())

    rng = rng_stream(seed, "capclust.kmedoids")
    medoids = tuple(sorted(int(i) for i in rng.choice(l, size=k, replace=False)))
    try:
        taken = assign(medoids)
    except InfeasibilityError as exc:  # a stranding sample costs +inf
        error, best_cost, trace = exc, np.inf, []
    else:
        best_cost = cost_of(medoids, taken)
        trace = [{"iteration": 0, "event": "assign", "cost": best_cost}]
    seen = {medoids}
    for round_no in range(1, 10 * l + 1):
        best_swap = None
        for s in medoids:
            for o in [p for p in range(l) if p not in medoids]:
                cand = tuple(sorted([m for m in medoids if m != s] + [o]))
                if cand in seen:
                    continue
                seen.add(cand)
                try:
                    cand_taken = assign(cand)
                except InfeasibilityError:
                    continue
                c = cost_of(cand, cand_taken)
                if c < best_cost:
                    best_cost, best_swap = c, (cand, cand_taken)
        if best_swap is None:
            if not trace:  # no tuple placed every point
                raise error
            return taken, tuple(trace)
        medoids, taken = best_swap
        trace.append({"iteration": round_no, "event": "swap", "cost": best_cost})
    raise AssertionError("scalar swap loop did not converge")


class TestLockstepAssignment:
    def test_matches_scalar_assignment_per_candidate(self, monkeypatch):
        # weights {2} and {3} have one class, {2, 3}, {1, 2} and {1, 3} two
        # (and rows whose free points are all of one of them), {2, 3, 4}
        # three; tied positions tie values; lam = 1e-4 decays most values to
        # 0.0; epsilon 1.0 strands points (repairs, infeasible candidates);
        # chunks of 1 to 6 rows split the rounds; each run's first block is
        # its initial sample, one row, certified like any other unless three
        # weight classes leave it to the DP
        seen = dict.fromkeys((
            "certified", "declined", "one-class rows", "three-class claims", "repairs",
            "infeasible", "zero values", "split rounds",
        ), 0)
        inside, claims = [], []  # claims: knapsack_select calls inside lockstep
        chunks = []  # (rows, ranks is None) per lockstep call
        assign_lockstep, two_class_rows = capclust._assign_lockstep, capclust._two_class_rows
        select = capclust.knapsack_select

        def lockstep_spy(cands, q, decay, dists, weights, ranks):
            chunks.append((len(cands), ranks is None))
            inside.append(True)
            try:
                taken, cost, error = assign_lockstep(cands, q, decay, dists, weights, ranks)
            finally:
                inside.pop()
            assert (error is not None) == bool(np.isinf(cost).any())
            assert error is None or isinstance(error, InfeasibilityError)
            seen["infeasible"] += int(np.isinf(cost).sum())
            return taken, cost, error

        def two_class_spy(free, cap, s, ranks):
            # only the lockstep certifies: a declined row goes to the DP alone
            assert inside, "_two_class_rows ran outside _assign_lockstep"
            ok, rows, points, chosen_w = two_class_rows(free, cap, s, ranks)
            seen["certified"] += int(ok.sum())
            seen["declined"] += int((~ok).sum())
            has = [free[:, np.sort(rank.order[0])].any(axis=1) for rank in ranks]
            seen["one-class rows"] += int((ok & (has[0] != has[-1])).sum())
            for i in np.flatnonzero(ok):  # each certified row selects as the DP
                # the row's values and weights as the ranks give them
                values, weights = np.zeros(free.shape[1]), np.zeros(free.shape[1], dtype=np.int64)
                for rank in ranks:
                    values[rank.order[s[i]]] = rank.values[s[i]]
                    weights[rank.order[s[i]]] = rank.weight
                cand = np.flatnonzero(free[i])
                expected = cand[reference_knapsack(values[cand], weights[cand], int(cap[i]))]
                assert sorted(points[rows == i].tolist()) == expected.tolist()
                assert chosen_w[i] == weights[points[rows == i]].sum()
            return ok, rows, points, chosen_w

        def select_spy(inst):
            assert inside, "knapsack_select ran outside _assign_lockstep"
            claims.append(inst)
            return select(inst)

        def repair_spy(*args):
            seen["repairs"] += len(inside)
            return _repair_room(*args)

        monkeypatch.setattr(capclust, "_assign_lockstep", lockstep_spy)
        monkeypatch.setattr(capclust, "_two_class_rows", two_class_spy)
        monkeypatch.setattr(capclust, "knapsack_select", select_spy)
        monkeypatch.setattr(capclust, "_repair_room", repair_spy)
        rng = np.random.default_rng(1717)
        classes = ([2, 3], [2], [1, 2], [3], [2, 3, 4], [1, 3])
        for trial in range(60):
            l = int(rng.integers(5, 14))
            k = int(rng.integers(2, min(l - 1, 4) + 1))
            positions = rng.uniform(0, 1, size=(l, 2))
            if trial % 2:
                positions = positions.round(1)
            if trial % 5 == 0:  # every value ties
                positions[:] = positions[0]
            weights = rng.choice(classes[trial % 6], size=l)
            epsilon = (1.0, 1.05, 1.2)[trial % 3]
            q = max(int(weights.max()), capacity_threshold(int(weights.sum()), k, epsilon))
            lam = (0.3, 1e-4, 1.0, 0.05)[trial % 4]
            sample_chunk = (1, len(np.unique(weights)) > 2)  # (rows, ranks is None)
            monkeypatch.setattr(capclust, "_LOCKSTEP_CELLS", l * (1 + trial % 6))
            try:
                expected = scalar_kmedoids(positions, weights, k, q, lam, seed=trial)
            except InfeasibilityError as exc:
                chunks.clear()
                with pytest.raises(InfeasibilityError) as err:
                    kmedoids_fair_capacitated(positions, weights, k, q, lam, seed=trial)
                assert str(err.value) == str(exc)
                # the sample, then one round that found no finite cost
                assert chunks[0] == sample_chunk, trial
                assert sum(rows for rows, _ in chunks[1:]) == k * (l - k), trial
                continue
            claims.clear()
            chunks.clear()
            result = kmedoids_fair_capacitated(positions, weights, k, q, lam, seed=trial)
            assert chunks.pop(0) == sample_chunk, trial
            assert result.assignment.tolist() == expected[0].tolist(), trial
            assert result.trace == expected[1], trial
            if len(classes[trial % 6]) == 3:
                seen["three-class claims"] += len(claims)
            seen["zero values"] += int((np.exp(-pairwise_distances(positions) / lam) == 0).any())
            rounds = sum(event["event"] == "swap" for event in result.trace) + 1
            seen["split rounds"] += len(chunks) > rounds
        assert all(seen.values()), seen

    def test_rounds_skip_only_the_rows_that_undo_the_last_swap(self, monkeypatch):
        # one lockstep call per round: the initial sample, then each round's
        # rows, which must be every one-swap neighbour of the medoids in
        # (medoid, non-medoid) order less those of the previous medoids and
        # the previous medoids themselves, the rows that undo the last swap;
        # weights {2, 3, 4} and {1, 2, 3} have three classes, rounded
        # positions tie distances
        calls = []  # (rows, cost per row) per lockstep call
        assign_lockstep = capclust._assign_lockstep

        def lockstep_spy(cands, *args):
            taken, cost, error = assign_lockstep(cands, *args)
            calls.append((cands.tolist(), cost))
            return taken, cost, error

        monkeypatch.setattr(capclust, "_assign_lockstep", lockstep_spy)
        monkeypatch.setattr(capclust, "_LOCKSTEP_CELLS", 10**9)
        rng = np.random.default_rng(2828)
        skipped, swapped_ks = 0, set()
        for trial in range(48):
            k = 1 + trial % 6
            l = int(rng.integers(k + 1, 13))
            positions = rng.uniform(0, 1, size=(l, 2)).round(1)
            weights = rng.choice(([2, 3, 4], [1, 2, 3], [2, 3])[trial % 3], size=l)
            q = max(int(weights.max()), capacity_threshold(int(weights.sum()), k, 1.2))
            try:
                expected = scalar_kmedoids(positions, weights, k, q, 0.3, seed=trial)
            except InfeasibilityError as exc:
                with pytest.raises(InfeasibilityError, match=re.escape(str(exc))):
                    kmedoids_fair_capacitated(positions, weights, k, q, 0.3, seed=trial)
                continue
            calls.clear()
            result = kmedoids_fair_capacitated(positions, weights, k, q, 0.3, seed=trial)
            assert result.assignment.tolist() == expected[0].tolist(), trial
            assert result.trace == expected[1], trial
            # a round left with no rows makes no call, and it can only be the last
            rounds = sum(event["event"] == "swap" for event in result.trace) + 1
            assert len(calls) <= rounds + 1
            medoids, previous = calls[0][0][0], []
            for round_no in range(1, rounds + 1):
                rows = [
                    sorted([m for m in medoids if m != s] + [o])
                    for s in medoids for o in range(l) if o not in medoids
                ]
                kept = [row for row in rows if row not in previous]
                got, cost = calls[round_no] if round_no < len(calls) else ([], None)
                assert got == kept, (trial, round_no)
                skipped += len(rows) - len(kept)
                if cost is not None:
                    previous, medoids = rows + [medoids], kept[int(np.argmin(cost))]
            if rounds > 1:
                swapped_ks.add(k)
        assert skipped and swapped_ks == set(range(1, 7))


def reference_repair_room(p, taken, room, medoids, dists, weights):
    """The repair step written as plain loops over points and clusters: the
    cheapest single move by key (delta, c1, c2, x), and only when none fits,
    the cheapest swap by key (delta, c1, c2, x, y)."""
    med = np.asarray(medoids)
    movable = [x for x in range(len(taken)) if taken[x] >= 0 and x not in medoids]
    best_key, best_action = None, None
    for x in movable:
        c1 = int(taken[x])
        if room[c1] + weights[x] < weights[p]:
            continue
        for c2 in range(len(medoids)):
            if c2 != c1 and room[c2] >= weights[x]:
                delta = dists[x, med[c2]] - dists[x, med[c1]] + dists[p, med[c1]]
                key = (float(delta), c1, c2, x, -1)
                if best_key is None or key < best_key:
                    best_key, best_action = key, ("move", x, c1, c2)
    if best_action is None:
        for x in movable:
            c1 = int(taken[x])
            for y in movable:
                c2 = int(taken[y])
                if c2 == c1:
                    continue
                if room[c1] + weights[x] - weights[y] < weights[p]:
                    continue
                if room[c2] + weights[y] - weights[x] < 0:
                    continue
                delta = (
                    dists[x, med[c2]] - dists[x, med[c1]]
                    + dists[y, med[c1]] - dists[y, med[c2]]
                    + dists[p, med[c1]]
                )
                key = (float(delta), c1, c2, x, y)
                if best_key is None or key < best_key:
                    best_key, best_action = key, ("swap", x, y, c1, c2)
    if best_action is None:
        raise InfeasibilityError(
            f"point {p} (weight {int(weights[p])}) fits no cluster even after "
            f"single relocations; remaining capacities {room.tolist()}"
        )
    if best_action[0] == "move":
        _, x, c1, c2 = best_action
        taken[x] = c2
        room[c2] -= weights[x]
        room[c1] += weights[x]
        return c1
    _, x, y, c1, c2 = best_action
    taken[x], taken[y] = c2, c1
    room[c1] += weights[x] - weights[y]
    room[c2] += weights[y] - weights[x]
    return c1


class TestRepairRoom:
    def test_matches_plain_reference(self):
        # coordinates rounded to one decimal tie some distances; rooms of 0
        # or 1 leave heavier points stranded, so moves often fail and the
        # swap branch runs
        rng = np.random.default_rng(606)
        outcomes = set()
        for _ in range(400):
            l = int(rng.integers(3, 16))
            k = int(rng.integers(2, min(l, 4) + 1))
            positions = rng.uniform(0, 1, size=(l, 2)).round(1)
            weights = rng.integers(1, 4, size=l)
            dists = pairwise_distances(positions)
            medoids = tuple(sorted(int(i) for i in rng.choice(l, size=k, replace=False)))
            taken = rng.integers(-1, k, size=l)
            taken[list(medoids)] = np.arange(k)
            free = np.flatnonzero(taken == -1)
            if free.size == 0:
                continue
            p = int(rng.choice(free))
            room = rng.integers(0, 2, size=k)
            ref_taken, ref_room = taken.copy(), room.copy()
            try:
                expected = reference_repair_room(p, ref_taken, ref_room, medoids, dists, weights)
            except InfeasibilityError as exc:
                with pytest.raises(InfeasibilityError) as err:
                    _repair_room(p, taken, room, np.asarray(medoids), dists, weights)
                assert str(err.value) == str(exc)
                outcomes.add("infeasible")
                continue
            before = taken.copy()
            assert _repair_room(p, taken, room, np.asarray(medoids), dists, weights) == expected
            assert taken.tolist() == ref_taken.tolist()
            assert room.tolist() == ref_room.tolist()
            outcomes.add("move" if (before != taken).sum() == 1 else "swap")
        assert outcomes == {"move", "swap", "infeasible"}

    def test_ties_follow_the_key_order(self):
        # moves 3 -> c2=2 and 4 -> c2=1 both have delta 2 + 1; the key
        # (delta, c1, c2, x) takes the smaller c2 before the smaller x
        positions = np.array([[0.0], [10.0], [-10.0], [-4.0], [4.0], [1.0]])
        weights = np.array([1, 1, 1, 1, 1, 2])
        taken, room = np.array([0, 1, 2, 0, 0, -1]), np.array([1, 1, 1])
        dists = pairwise_distances(positions)
        assert _repair_room(5, taken, room, np.array([0, 1, 2]), dists, weights) == 0
        assert taken.tolist() == [0, 1, 2, 0, 1, -1]
        assert room.tolist() == [2, 0, 1]
        # no move fits; swaps (x=3 of c1=0, y=4) and (x=2 of c1=1, y=5) both
        # have delta 17, and the smaller c1 wins before the smaller x
        positions = np.array([[0.0], [10.0], [8.0], [2.0], [8.0], [2.0], [5.0]])
        weights = np.array([1, 1, 3, 3, 2, 2, 2])
        taken, room = np.array([0, 1, 1, 0, 1, 0, -1]), np.array([1, 1])
        dists = pairwise_distances(positions)
        assert _repair_room(6, taken, room, np.array([0, 1]), dists, weights) == 0
        assert taken.tolist() == [0, 1, 1, 1, 0, 0, -1]
        assert room.tolist() == [2, 0]
