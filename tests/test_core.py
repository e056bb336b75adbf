import math
from fractions import Fraction

import numpy as np
import pytest

from faircap.core import (
    BalanceRatio,
    Clustering,
    Dataset,
    Fairlet,
    FairletDecomposition,
    Params,
    balance_of,
    clustering_balance,
    clustering_cost,
    compose_assignment,
    distance,
    medoid_index,
    rng_stream,
)
from faircap.errors import ContractViolationError


def _dataset(features, protected):
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[0] == 1 and len(protected) > 1:
        features = features.T
    return Dataset(
        features=features,
        protected=np.asarray(protected),
        row_ids=tuple(str(i) for i in range(len(protected))),
    )


def naive_distance(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) ** 2
    return math.sqrt(total)


class TestDistance:
    def test_identity(self):
        v = np.array([1.5, -2.0, 7.25])
        assert distance(v, v) == 0.0

    def test_3_4_5_triangle(self):
        assert distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.normal(size=10)
            b = rng.normal(size=10)
            expected = naive_distance(a, b)
            assert distance(a, b) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            distance(np.zeros(3), np.zeros(4))

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b, c = rng.normal(size=(3, 5))
            dab, dba = distance(a, b), distance(b, a)
            assert dab >= 0
            assert dab == dba
            assert distance(a, c) <= dab + distance(b, c) + 1e-12


class TestBalanceOf:
    def test_two_three(self):
        assert balance_of(2, 3).value == Fraction(2, 3)

    def test_symmetric_counts_give_one(self):
        assert balance_of(5, 5).value == 1

    def test_uci_mathematics_counts(self):
        # 208 vs 187 rounds to 0.899 at three decimals
        assert round(float(balance_of(208, 187)), 3) == 0.899

    def test_empty_group_gives_zero(self):
        assert balance_of(0, 4).value == 0
        assert balance_of(4, 0).value == 0
        assert balance_of(0, 0).value == 0

    def test_symmetry_property(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = int(rng.integers(0, 30)), int(rng.integers(0, 30))
            assert balance_of(a, b).value == balance_of(b, a).value
        for a in range(1, 20):
            assert balance_of(a, a).value == 1

    def test_negative_counts_rejected(self):
        with pytest.raises(ContractViolationError):
            BalanceRatio(-1, 2)


def _clustering_from_labels(labels, data):
    labels = np.asarray(labels)
    k = labels.max() + 1
    reps = tuple(
        medoid_index(data.features, np.flatnonzero(labels == c)) for c in range(k)
    )
    return Clustering(assignment=labels, representatives=reps, k=int(k))


class TestClusteringBalance:
    def test_perfectly_balanced_clusters(self):
        data = _dataset(np.arange(6.0), [0, 1, 0, 0, 1, 1])
        c = _clustering_from_labels([0, 0, 1, 1, 1, 1], data)
        assert clustering_balance(c, data).value == 1

    def test_min_over_clusters(self):
        # clusters (2F,1M) and (1F,3M): min(1/2, 1/3) = 1/3
        data = _dataset(np.arange(7.0), [0, 0, 1, 0, 1, 1, 1])
        c = _clustering_from_labels([0, 0, 0, 1, 1, 1, 1], data)
        assert clustering_balance(c, data).value == Fraction(1, 3)

    def test_matches_counting_oracle_on_random_partitions(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(4, 40))
            k = int(rng.integers(1, 5))
            protected = rng.integers(0, 2, size=n)
            labels = rng.integers(0, k, size=n)
            labels[:k] = np.arange(k)  # keep every cluster nonempty
            data = _dataset(rng.normal(size=(n, 3)), protected)
            c = _clustering_from_labels(labels, data)
            expected = Fraction(1)
            for cid in range(k):
                zeros = sum(1 for i in range(n) if labels[i] == cid and protected[i] == 0)
                ones = sum(1 for i in range(n) if labels[i] == cid and protected[i] == 1)
                if zeros == 0 or ones == 0:
                    frac = Fraction(0)
                else:
                    frac = min(Fraction(zeros, ones), Fraction(ones, zeros))
                expected = min(expected, frac)
            assert clustering_balance(c, data).value == expected


class TestClusteringCost:
    def test_singletons_cost_zero(self):
        data = _dataset(np.arange(4.0), [0, 1, 0, 1])
        c = Clustering(
            assignment=np.arange(4), representatives=(0, 1, 2, 3), k=4
        )
        assert clustering_cost(c, data) == 0.0

    def test_two_points_one_representative(self):
        data = _dataset([[0.0], [2.0]], [0, 1])
        c = Clustering(assignment=np.array([0, 0]), representatives=(0,), k=1)
        assert clustering_cost(c, data) == 2.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n, k = 25, 4
            data = _dataset(rng.normal(size=(n, 3)), rng.integers(0, 2, size=n))
            labels = rng.integers(0, k, size=n)
            labels[:k] = np.arange(k)
            c = _clustering_from_labels(labels, data)
            expected = 0.0
            for cid in range(k):
                rep = data.features[c.representatives[cid]]
                for i in range(n):
                    if labels[i] == cid:
                        expected += naive_distance(data.features[i], rep)
            assert clustering_cost(c, data) == pytest.approx(expected, rel=1e-12)


def _decomp(member_groups, n, t=Fraction(1, 2)):
    fairlets = tuple(
        Fairlet(members=tuple(g), center=min(g)) for g in member_groups
    )
    return FairletDecomposition(fairlets=fairlets, n=n, threshold=t)


class TestComposeAssignment:
    def test_identity_one_fairlet_per_cluster(self):
        data = _dataset(np.arange(4.0), [0, 1, 0, 1])
        decomp = _decomp([(0, 1), (2, 3)], 4)
        c = compose_assignment(np.array([0, 1]), decomp, data)
        assert c.k == 2
        assert list(c.assignment) == [0, 0, 1, 1]

    def test_constant_delta_collapses_to_one_cluster(self):
        data = _dataset(np.arange(3.0), [0, 1, 1])
        decomp = _decomp([(0, 1), (2,)], 3)
        c = compose_assignment(np.array([1, 1]), decomp, data)
        assert c.k == 1
        assert len(set(c.assignment.tolist())) == 1

    def test_missing_fairlet_rejected(self):
        data = _dataset(np.arange(3.0), [0, 1, 1])
        decomp = _decomp([(0, 1), (2,)], 3)
        with pytest.raises(ContractViolationError):
            compose_assignment(np.array([0]), decomp, data)

    def test_cluster_counts_equal_summed_fairlet_weights(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(6, 40))
            data = _dataset(rng.normal(size=(n, 2)), rng.integers(0, 2, size=n))
            order = rng.permutation(n)
            groups, pos = [], 0
            while pos < n:
                size = int(rng.integers(1, 4))
                groups.append(tuple(int(i) for i in order[pos : pos + size]))
                pos += size
            decomp = _decomp(groups, n)
            delta = np.array([int(rng.integers(0, 3)) for _ in groups])
            c = compose_assignment(delta, decomp, data)
            used = sorted(set(delta.tolist()))
            for cid, label in enumerate(used):
                expected = sum(
                    len(groups[j]) for j in range(len(groups)) if delta[j] == label
                )
                assert int((c.assignment == cid).sum()) == expected
            assert c.sizes.sum() == n

    def test_fairlet_union_keeps_threshold_balance(self):
        # randomized deltas over balanced fairlets never drop below t
        rng = np.random.default_rng(23)
        t = Fraction(1, 2)
        for _ in range(50):
            pairs = int(rng.integers(3, 10))
            protected = np.tile([0, 1], pairs)
            n = 2 * pairs
            data = _dataset(rng.normal(size=(n, 2)), protected)
            groups = [(2 * j, 2 * j + 1) for j in range(pairs)]
            decomp = _decomp(groups, n, t)
            delta = np.array([int(rng.integers(0, 4)) for _ in range(pairs)])
            c = compose_assignment(delta, decomp, data)
            assert clustering_balance(c, data).value >= t


class TestValidation:
    def test_dataset_rejects_nonfinite(self):
        with pytest.raises(ContractViolationError):
            _dataset([[np.inf], [0.0]], [0, 1])

    def test_dataset_rejects_nonbinary_protected(self):
        with pytest.raises(ContractViolationError):
            _dataset([[0.0], [1.0]], [0, 2])

    def test_clustering_rejects_empty_cluster(self):
        with pytest.raises(ContractViolationError):
            Clustering(assignment=np.array([0, 0]), representatives=(0, 1), k=2)

    def test_decomposition_must_partition(self):
        with pytest.raises(ContractViolationError):
            _decomp([(0, 1), (1, 2)], 3)
        with pytest.raises(ContractViolationError):
            _decomp([(0, 1)], 3)

    def test_params_bounds(self):
        with pytest.raises(ContractViolationError):
            Params(k=0)
        with pytest.raises(ContractViolationError):
            Params(k=2, t=Fraction(3, 2))
        with pytest.raises(ContractViolationError):
            Params(k=2, epsilon=0.5)
        with pytest.raises(ContractViolationError):
            Params(k=2, lam=0.0)


class TestRngStream:
    def test_same_labels_same_stream(self):
        a = rng_stream(9, "x").integers(0, 1 << 30, size=8)
        b = rng_stream(9, "x").integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_different_labels_differ(self):
        a = rng_stream(9, "x").integers(0, 1 << 30, size=8)
        b = rng_stream(9, "y").integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, b)
