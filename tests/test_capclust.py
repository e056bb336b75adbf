import numpy as np
import pytest

from faircap.capclust import (
    KnapsackInstance,
    capacity_threshold,
    hierarchical_fair_capacitated,
    kmedoids_fair_capacitated,
    knapsack_select,
)
from faircap.baselines import kcenter_greedy
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


# Every public entry that takes weighted points, called with k=1, q=10.
ENTRIES = (
    lambda pos, w: hierarchical_fair_capacitated(pos, w, k=1, q=10),
    lambda pos, w: kmedoids_fair_capacitated(pos, w, k=1, q=10, lam=0.3, seed=0),
    lambda pos, w: kcenter_greedy(pos, w, k=1, seed=0),
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


class TestKnapsackSelect:
    def test_zero_capacity_selects_nothing(self):
        inst = KnapsackInstance(values=[1.0, 2.0], weights=[1, 1], capacity=0)
        assert knapsack_select(inst).size == 0

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

    def test_zero_value_item_dropped_when_equal_value(self):
        # value optimum 1.0 either way; smaller total weight excludes item 1
        inst = KnapsackInstance(values=[1.0, 0.0], weights=[1, 1], capacity=2)
        assert knapsack_select(inst).tolist() == [0]


class TestHierarchical:
    def test_identity_when_k_equals_points(self):
        positions, weights = unit_points([0.0, 5.0, 9.0])
        result = hierarchical_fair_capacitated(positions, weights, k=3, q=2)
        assert sorted(result.assignment.tolist()) == [0, 1, 2]
        assert result.trace == ()

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


class TestKMedoidsFairCapacitated:
    def test_every_point_its_own_medoid(self):
        positions, weights = unit_points([0.0, 3.0, 7.0])
        result = kmedoids_fair_capacitated(positions, weights, k=3, q=1, lam=0.3, seed=0)
        assert sorted(result.assignment.tolist()) == [0, 1, 2]
        assert result.cost == 0.0

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

    def test_seed_determinism(self):
        rng = np.random.default_rng(9)
        positions, weights = unit_points(rng.uniform(0, 1, size=(14, 2)))
        a = kmedoids_fair_capacitated(positions, weights, k=3, q=6, lam=0.3, seed=12)
        b = kmedoids_fair_capacitated(positions, weights, k=3, q=6, lam=0.3, seed=12)
        assert a.assignment.tolist() == b.assignment.tolist()
        assert a.medoids == b.medoids
        assert a.trace == b.trace

    def test_medoid_fairlets_stay_in_their_own_cluster(self):
        rng = np.random.default_rng(41)
        positions, weights = unit_points(rng.uniform(0, 1, size=(12, 2)))
        result = kmedoids_fair_capacitated(positions, weights, k=3, q=5, lam=0.3, seed=2)
        for cid, medoid in enumerate(result.medoids):
            assert result.assignment[medoid] == cid
