import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from faircap import core
from faircap.capclust import capacity_threshold
from faircap.core import (
    Clustering,
    Dataset,
    FairletDecomposition,
    Params,
    balance_of,
    clustering_balance,
    clustering_cost,
    compose_assignment,
    medoid_index,
    pairwise_distances,
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
    )


def naive_distance(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) * (x - y)
    return math.sqrt(total)


def distance(a, b):
    return float(pairwise_distances(a[None, :], b[None, :])[0, 0])


class TestDistance:
    """The Euclidean distance of :func:`pairwise_distances`, one pair at a time."""

    def test_identity(self):
        v = np.array([1.5, -2.0, 7.25])
        assert distance(v, v) == 0.0

    def test_3_4_5_triangle(self):
        assert distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_matches_naive_loop(self, monkeypatch):
        # every entry has the sequential loop's bits: 1-40 features, empty
        # and one-row inputs, self and cross distances, and cell budgets
        # that end row blocks mid-matrix
        rng = np.random.default_rng(42)
        for trial in range(160):
            d = 1 + trial % 40
            n, m = (int(v) for v in rng.integers(0, 25, size=2))
            if trial % 6 == 0:
                n = 1
            scale = 10.0 ** rng.uniform(-3, 3)
            a = rng.normal(size=(n, d)) * scale
            b = None if trial % 3 == 0 else rng.normal(size=(m, d)) * scale
            other = a if b is None else b
            monkeypatch.setattr(core, "_LOCKSTEP_CELLS", int(rng.integers(1, 4 * len(other) + 2)))
            got = pairwise_distances(a, b)
            assert got.shape == (len(a), len(other))
            assert got.tolist() == [[naive_distance(x, y) for y in other] for x in a]

    def test_self_distances_are_exactly_symmetric(self, monkeypatch):
        rng = np.random.default_rng(5)
        for trial, d in enumerate((1, 2, 7, 33)):
            if trial % 2:
                # blocks of three rows, the last one shorter
                monkeypatch.setattr(core, "_LOCKSTEP_CELLS", 3 * 40 + 1)
            x = rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-3, 3)
            dists = pairwise_distances(x)
            assert np.array_equal(dists, dists.T)
            assert not np.diagonal(dists).any()

    def test_peak_memory_is_output_plus_one_block(self):
        x = np.random.default_rng(3).uniform(0, 1, size=(3000, 2))
        tracemalloc.start()
        try:
            dists = pairwise_distances(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= dists.nbytes + 2 * 2**20

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.zeros(3), None),
            (np.zeros((2, 2, 2)), None),
            (np.zeros((2, 2)), np.zeros(2)),
            (np.zeros((2, 3)), np.zeros((2, 2))),
        ],
    )
    def test_rejects_mismatched_shapes(self, a, b):
        with pytest.raises(ContractViolationError, match="2-d arrays with equal column counts"):
            pairwise_distances(a, b)

    def test_zero_columns_give_zero_distances(self):
        assert pairwise_distances(np.zeros((3, 0)), np.zeros((2, 0))).tolist() == [[0.0] * 2] * 3
        assert pairwise_distances(np.zeros((1, 0)), np.zeros((2, 0))).tolist() == [[0.0] * 2]

    def test_row_in_place_has_the_matrix_row_bits(self):
        # hier's merged-cluster row, written into preallocated buffers from
        # feature-major centroids: zero columns, coincident rows, scales
        # far apart
        rng = np.random.default_rng(11)
        for trial in range(80):
            d, l = trial % 5, int(rng.integers(1, 30))
            x = rng.normal(size=(l, d)) * 10.0 ** rng.uniform(-3, 3)
            if trial % 4 == 0:
                x = x.round(1)
            cols = np.ascontiguousarray(x.T)
            out, sq = np.full((1, l), np.nan), np.full((1, l), np.nan)
            for i in range(l):
                core._distance_block(cols.T[i : i + 1], cols, out, sq)
                expected = pairwise_distances(x[i : i + 1], x)
                assert [v.hex() for v in out[0].tolist()] == [v.hex() for v in expected[0].tolist()]

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b, c = rng.normal(size=(3, 5))
            dab, dba = distance(a, b), distance(b, a)
            assert dab >= 0
            assert dab == dba
            assert distance(a, c) <= dab + distance(b, c) + 1e-12


class TestMedoidIndex:
    def test_row_blocks_match_full_matrix(self, monkeypatch):
        # integer and one-decimal coordinates repeat rows, so exact ties in
        # the totals put the smallest-index rule to work; small cell budgets
        # cut the rows into blocks of one or more with a shorter last one
        rng = np.random.default_rng(10)
        for trial in range(80):
            m = int(rng.integers(1, 120))
            features = rng.uniform(0, 4, size=(m + 5, int(rng.integers(1, 4))))
            features = features.round(trial % 2)
            members = rng.choice(m + 5, size=m, replace=False)
            monkeypatch.setattr(core, "_LOCKSTEP_CELLS", m * (1 + trial % 7))
            ordered = np.sort(members)
            totals = pairwise_distances(features[ordered]).sum(axis=1)
            assert medoid_index(features, members) == ordered[np.argmin(totals)], trial

    def test_keeps_a_small_working_set(self):
        # the full matrix of a 3,000-member set is 69 MiB; a row block is
        # about 1 MiB
        features = np.random.default_rng(3).uniform(0, 1, size=(3000, 2))
        tracemalloc.start()
        try:
            medoid_index(features, range(3000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_rejects_empty_set(self):
        with pytest.raises(ContractViolationError, match="empty set"):
            medoid_index(np.zeros((3, 2)), [])

    def test_rejects_non_integer_members(self):
        # [1.9, 2.2] was once truncated to rows [1, 2], and bools read as rows
        features = np.arange(8.0).reshape(4, 2)
        for members in ([1.9, 2.2], [True, False, True]):
            with pytest.raises(ContractViolationError, match="members must be a 1-d integer"):
                medoid_index(features, members)


class TestBalanceOf:
    def test_two_three(self):
        assert balance_of(2, 3) == Fraction(2, 3)

    def test_symmetric_counts_give_one(self):
        assert balance_of(5, 5) == 1

    def test_uci_mathematics_counts(self):
        # 208 vs 187 rounds to 0.899 at three decimals
        assert round(float(balance_of(208, 187)), 3) == 0.899

    def test_empty_group_gives_zero(self):
        assert balance_of(0, 4) == 0
        assert balance_of(4, 0) == 0
        assert balance_of(0, 0) == 0

    def test_symmetry_property(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = int(rng.integers(0, 30)), int(rng.integers(0, 30))
            assert balance_of(a, b) == balance_of(b, a)
        for a in range(1, 20):
            assert balance_of(a, a) == 1

    def test_negative_counts_rejected(self):
        with pytest.raises(ContractViolationError):
            balance_of(-1, 2)


def _clustering_from_labels(labels, data):
    labels = np.asarray(labels)
    k = labels.max() + 1
    reps = tuple(
        medoid_index(data.features, np.flatnonzero(labels == c)) for c in range(k)
    )
    return Clustering(assignment=labels, representatives=reps)


class TestClusteringBalance:
    def test_perfectly_balanced_clusters(self):
        data = _dataset(np.arange(6.0), [0, 1, 0, 0, 1, 1])
        c = _clustering_from_labels([0, 0, 1, 1, 1, 1], data)
        assert clustering_balance(c, data) == 1

    def test_min_over_clusters(self):
        # clusters (2F,1M) and (1F,3M): min(1/2, 1/3) = 1/3
        data = _dataset(np.arange(7.0), [0, 0, 1, 0, 1, 1, 1])
        c = _clustering_from_labels([0, 0, 0, 1, 1, 1, 1], data)
        assert clustering_balance(c, data) == Fraction(1, 3)

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
            assert clustering_balance(c, data) == expected


class TestClusteringCost:
    def test_singletons_cost_zero(self):
        data = _dataset(np.arange(4.0), [0, 1, 0, 1])
        c = Clustering(assignment=np.arange(4), representatives=(0, 1, 2, 3))
        assert clustering_cost(c, data) == 0.0

    def test_two_points_one_representative(self):
        data = _dataset([[0.0], [2.0]], [0, 1])
        c = Clustering(assignment=np.array([0, 0]), representatives=(0,))
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


def _decomp(row_to_fairlet):
    """A decomposition with each fairlet's smallest row as its center."""
    row_to_fairlet = np.asarray(row_to_fairlet)
    centers = np.unique(row_to_fairlet, return_index=True)[1]
    return FairletDecomposition(row_to_fairlet=row_to_fairlet, centers=centers)


class TestFairletDecomposition:
    def test_derived_fields_and_view(self):
        decomp = FairletDecomposition(
            row_to_fairlet=np.array([0, 1, 0, 2, 1, 0]), centers=np.array([2, 4, 3])
        )
        assert decomp.n == 6
        assert len(decomp) == 3
        assert decomp.weights.tolist() == [3, 2, 1]
        assert decomp.row_to_fairlet.tolist() == [0, 1, 0, 2, 1, 0]
        assert decomp.centers.tolist() == [2, 4, 3]
        assert [fl.weight for fl in decomp.fairlets] == [3, 2, 1]

    def test_arrays_are_frozen_int64(self):
        decomp = FairletDecomposition(
            row_to_fairlet=np.array([0, 0, 1], dtype=np.uint64),
            centers=np.array([1, 2], dtype=np.int32),
        )
        assert decomp.row_to_fairlet.dtype == np.int64
        assert decomp.centers.dtype == np.int64
        with pytest.raises(ValueError):
            decomp.row_to_fairlet[0] = 1
        with pytest.raises(ValueError):
            decomp.centers[0] = 1

    def test_rejects_arrays_that_are_not_1d(self):
        with pytest.raises(ContractViolationError, match="row_to_fairlet must be a 1-d"):
            FairletDecomposition(row_to_fairlet=np.zeros((2, 2), int), centers=np.array([0]))
        with pytest.raises(ContractViolationError, match="centers must be a 1-d"):
            FairletDecomposition(row_to_fairlet=np.array([0, 0]), centers=np.array(0))

    def test_rejects_arrays_that_are_not_integer(self):
        with pytest.raises(ContractViolationError, match="row_to_fairlet must be a 1-d integer"):
            FairletDecomposition(row_to_fairlet=np.array([0.0, 0.0]), centers=np.array([0]))
        with pytest.raises(ContractViolationError, match="centers must be a 1-d integer"):
            FairletDecomposition(row_to_fairlet=np.array([0, 0]), centers=np.array([True]))

    def test_rejects_fairlet_ids_out_of_range(self):
        for labels in ([0, 2, 1], [0, -1, 1]):
            with pytest.raises(ContractViolationError, match="fairlet ids must lie in 0..1"):
                FairletDecomposition(row_to_fairlet=np.array(labels), centers=np.array([0, 2]))

    def test_rejects_fairlet_without_rows(self):
        with pytest.raises(ContractViolationError, match=r"fairlets \[1\] have no rows"):
            FairletDecomposition(
                row_to_fairlet=np.array([0, 0, 2]), centers=np.array([0, 1, 2])
            )

    def test_rejects_center_outside_its_fairlet(self):
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(ContractViolationError, match=r"fairlets \[1\] have a center"):
            FairletDecomposition(row_to_fairlet=labels, centers=np.array([0, 1]))
        for centers in ([0, 4], [0, -1]):
            with pytest.raises(ContractViolationError, match="center rows must lie in 0..3"):
                FairletDecomposition(row_to_fairlet=labels, centers=np.array(centers))


class TestComposeAssignment:
    def test_identity_one_fairlet_per_cluster(self):
        data = _dataset(np.arange(4.0), [0, 1, 0, 1])
        decomp = _decomp([0, 0, 1, 1])
        c = compose_assignment(np.array([0, 1]), decomp, data)
        assert c.k == 2
        assert list(c.assignment) == [0, 0, 1, 1]

    def test_constant_delta_collapses_to_one_cluster(self):
        data = _dataset(np.arange(3.0), [0, 1, 1])
        decomp = _decomp([0, 0, 1])
        c = compose_assignment(np.array([1, 1]), decomp, data)
        assert c.k == 1
        assert len(set(c.assignment.tolist())) == 1

    def test_missing_fairlet_rejected(self):
        data = _dataset(np.arange(3.0), [0, 1, 1])
        decomp = _decomp([0, 0, 1])
        with pytest.raises(ContractViolationError):
            compose_assignment(np.array([0]), decomp, data)

    def test_rejects_non_integer_labels(self):
        # each was once truncated, the floats to [0, 1, 0, 1, 1, 0]
        data = _dataset(np.arange(6.0), [0, 1, 0, 1, 0, 1])
        decomp = _decomp(np.arange(6))
        for delta in ([0.5, 1.7, 0.2, 1.1, 0.9, 0.0], [True, False, True, True, False, False]):
            with pytest.raises(ContractViolationError, match="delta must be a 1-d integer array"):
                compose_assignment(np.array(delta), decomp, data)

    def test_cluster_counts_equal_summed_fairlet_weights(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(6, 40))
            data = _dataset(rng.normal(size=(n, 2)), rng.integers(0, 2, size=n))
            order = rng.permutation(n)
            sizes, pos = [], 0
            while pos < n:
                size = int(rng.integers(1, 4))
                sizes.append(min(size, n - pos))
                pos += size
            row_to_fairlet = np.empty(n, dtype=np.int64)
            row_to_fairlet[order] = np.repeat(np.arange(len(sizes)), sizes)
            decomp = _decomp(row_to_fairlet)
            delta = np.array([int(rng.integers(0, 3)) for _ in sizes])
            c = compose_assignment(delta, decomp, data)
            used = sorted(set(delta.tolist()))
            for cid, label in enumerate(used):
                expected = sum(
                    sizes[j] for j in range(len(sizes)) if delta[j] == label
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
            decomp = _decomp(np.arange(n) // 2)
            delta = np.array([int(rng.integers(0, 4)) for _ in range(pairs)])
            c = compose_assignment(delta, decomp, data)
            assert clustering_balance(c, data) >= t


class TestValidation:
    def test_dataset_rejects_nonfinite(self):
        with pytest.raises(ContractViolationError):
            _dataset([[np.inf], [0.0]], [0, 1])

    def test_dataset_rejects_bad_shapes(self):
        for features in (np.zeros(3), np.zeros((0, 2)), np.zeros((3, 0))):
            with pytest.raises(ContractViolationError, match="nonempty 2-d matrix"):
                Dataset(features=features, protected=np.zeros(len(features), dtype=int))
        for protected in (np.zeros(2, dtype=int), np.zeros((3, 1), dtype=int)):
            with pytest.raises(ContractViolationError, match=r"protected must have length 3, got shape"):
                Dataset(features=np.zeros((3, 2)), protected=protected)

    def test_dataset_rejects_features_whose_sums_overflow(self):
        # a spread of 1e155 squares past the float maximum, and 40 rows of
        # 1e308 sum past it in a centroid: the first once gave costs of inf,
        # the second a false infeasible from hier
        for features in ([[1e155], [-1e155]], np.full((40, 1), 1e308)):
            protected = np.arange(len(features)) % 2
            with pytest.raises(ContractViolationError) as err:
                _dataset(features, protected)
            assert str(err.value).startswith("features too large: ")
            assert "below the float maximum 1.7976931348623157e+308" in str(err.value)
            assert str(err.value).endswith("for example with scale = minmax")
        # two columns that each span 1e150 square to 2e300 together
        data = _dataset([[1e150, 0.0], [0.0, 1e150], [0.0, 0.0]], [0, 1, 0])
        assert np.isfinite(clustering_cost(
            Clustering(assignment=np.zeros(3, dtype=int), representatives=(2,)), data
        ))

    def test_dataset_rejects_nonbinary_protected(self):
        with pytest.raises(ContractViolationError):
            _dataset([[0.0], [1.0]], [0, 2])

    def test_dataset_rejects_fractional_protected_before_casting(self):
        # the int64 cast would read 0.7 as 0 and 1.9 as 1
        with pytest.raises(ContractViolationError, match="protected labels must be 0 or 1"):
            Dataset(features=[[0.0], [1.0], [2.0]], protected=[0.7, 1.0, 1.9])
        for labels in ([False, True, True], [0.0, 1.0, 1.0]):
            data = Dataset(features=[[0.0], [1.0], [2.0]], protected=labels)
            assert data.protected.dtype == np.int64
            assert data.protected.tolist() == [0, 1, 1]

    def test_clustering_rejects_empty_cluster(self):
        with pytest.raises(ContractViolationError, match=r"clusters \[1\] have no rows"):
            Clustering(assignment=np.array([0, 0]), representatives=(0, 1))
        for assignment in ([0, 0], []):
            message = f"no clusters for {len(assignment)} rows"
            with pytest.raises(ContractViolationError, match=message):
                Clustering(
                    assignment=np.array(assignment, dtype=int), representatives=np.array([], int)
                )

    def test_clustering_is_checked_like_a_partition(self):
        # each was once accepted: a representative past the last row (the
        # cost then raised IndexError), one truncated to row 2, and two that
        # sit in each other's cluster
        for assignment, reps, message in (
            ([0, 0, 0, 0], (7,), "center rows must lie in 0..3"),
            ([0, 0, 0, 0], (2.5,), "representatives must be a 1-d integer array"),
            ([0, 0, 1, 1], (2, 0), r"clusters \[0, 1\] have a center that is not one"),
        ):
            with pytest.raises(ContractViolationError, match=message):
                Clustering(assignment=np.array(assignment), representatives=reps)

    def test_clustering_arrays_are_frozen_int64(self):
        c = Clustering(assignment=np.array([1, 0, 1], dtype=np.int32), representatives=(1, 0))
        assert c.k == 2
        assert c.sizes.tolist() == [1, 2]
        for a in (c.assignment, c.representatives):
            assert a.dtype == np.int64
            with pytest.raises(ValueError):
                a[0] = 0

    def test_decomposition_must_partition(self):
        # a label vector places every row in exactly one fairlet; what is
        # left to reject is a label with no fairlet or a fairlet with no rows
        with pytest.raises(ContractViolationError):
            FairletDecomposition(row_to_fairlet=np.array([0, 0, 1]), centers=np.array([0]))
        with pytest.raises(ContractViolationError):
            FairletDecomposition(row_to_fairlet=np.array([0, 0, 0]), centers=np.array([0, 1]))
        # no dataset has zero rows, so neither does any decomposition of one
        with pytest.raises(ContractViolationError, match="no fairlets for 0 rows"):
            FairletDecomposition(row_to_fairlet=np.array([], int), centers=np.array([], int))

    def test_params_bounds(self):
        with pytest.raises(ContractViolationError):
            Params(k=0)
        with pytest.raises(ContractViolationError):
            Params(k=2, t=Fraction(3, 2))
        with pytest.raises(ContractViolationError):
            Params(k=2, epsilon=0.5)
        with pytest.raises(ContractViolationError):
            Params(k=2, lam=0.0)

    def test_params_reject_bool_t_and_non_number_scales(self):
        # Fraction(True) is 1, and Fraction("a") or isfinite("1.2") raised a
        # raw ValueError or TypeError
        for bad in (True, False, None, "a", float("nan"), float("inf")):
            with pytest.raises(ContractViolationError, match=f"t must be a fraction, got {bad!r}"):
                Params(k=2, t=bad)
        for bad in ("1.2", None, [1.2]):
            with pytest.raises(ContractViolationError, match="epsilon must be finite"):
                Params(k=2, epsilon=bad)
            with pytest.raises(ContractViolationError, match="epsilon must be finite"):
                capacity_threshold(10, 2, bad)
            with pytest.raises(ContractViolationError, match="lambda must be finite"):
                Params(k=2, lam=bad)
        assert Params(k=2, t="1/3", epsilon=Fraction(6, 5), lam=np.float64(0.5)).t == Fraction(1, 3)

    def test_params_reject_non_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ContractViolationError, match="epsilon"):
                Params(k=2, epsilon=bad)
            with pytest.raises(ContractViolationError, match="lambda"):
                Params(k=2, lam=bad)


class TestRngStream:
    def test_same_labels_same_stream(self):
        a = rng_stream(9, "x").integers(0, 1 << 30, size=8)
        b = rng_stream(9, "x").integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_different_labels_differ(self):
        a = rng_stream(9, "x").integers(0, 1 << 30, size=8)
        b = rng_stream(9, "y").integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, b)
