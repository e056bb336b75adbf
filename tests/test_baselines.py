import itertools

import numpy as np
import pytest

from faircap.baselines import (
    FAIR_CAPACITATED_METHODS,
    METHODS,
    kcenter_greedy,
    kmedoids_vanilla,
    pipeline,
)
from faircap.core import Dataset, Params, clustering_cost, pairwise_distances
from faircap.errors import ContractViolationError, InfeasibilityError
from faircap.synth import make_blobs


def _dataset(features, protected):
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    return Dataset(
        features=features,
        protected=np.asarray(protected),
        row_ids=tuple(str(i) for i in range(len(protected))),
    )


def unit_points(coords):
    """(positions, weights) of unit-weight points; 1-d coords become a column."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    return coords, np.ones(len(coords), dtype=np.int64)


def brute_force_best_2partition_cost(features):
    """Minimum Eq.-style cost over all 2-partitions with medoid centers."""
    n = len(features)
    dists = pairwise_distances(features)
    best = np.inf
    for bits in itertools.product([0, 1], repeat=n - 1):
        labels = np.array([0, *bits])
        if labels.min() == labels.max():
            continue
        cost = 0.0
        for c in (0, 1):
            idx = np.flatnonzero(labels == c)
            cost += dists[np.ix_(idx, idx)].sum(axis=1).min()
        best = min(best, cost)
    return best


class TestKMedoidsVanilla:
    def test_k_equals_n_costs_zero(self):
        data = _dataset(np.arange(5.0), [0, 1, 0, 1, 0])
        c = kmedoids_vanilla(data, k=5, seed=0)
        assert clustering_cost(c, data) == 0.0

    def test_recovers_two_blobs_optimally(self):
        rng = np.random.default_rng(14)
        centers = np.array([[0.0, 0.0], [6.0, 6.0]])
        feats = np.vstack(
            [c + 0.3 * rng.standard_normal((5, 2)) for c in centers]
        )
        data = _dataset(feats, [0, 1] * 5)
        c = kmedoids_vanilla(data, k=2, seed=3)
        assert clustering_cost(c, data) == pytest.approx(
            brute_force_best_2partition_cost(feats), abs=1e-9
        )

    def test_seed_determinism(self):
        data = make_blobs(n=40, balance=1.0, clusters=2, seed=9)
        a = kmedoids_vanilla(data, k=3, seed=7)
        b = kmedoids_vanilla(data, k=3, seed=7)
        assert a.assignment.tolist() == b.assignment.tolist()
        assert a.representatives == b.representatives

    def test_rejects_k_above_n(self):
        data = _dataset(np.arange(3.0), [0, 1, 0])
        with pytest.raises(InfeasibilityError):
            kmedoids_vanilla(data, k=4, seed=0)


class TestKCenterGreedy:
    def test_k_equals_points_radius_zero(self):
        positions, weights = unit_points([0.0, 4.0, 9.0])
        delta = kcenter_greedy(positions, weights, k=3, seed=0)
        assert sorted(delta.tolist()) == [0, 1, 2]

    def test_colinear_farthest_first(self):
        # whichever of 0/1 seeds the traversal, the far point 10 is added
        # next and the radius is 1
        positions, weights = unit_points([0.0, 1.0, 10.0])
        for seed in range(6):
            delta = kcenter_greedy(positions, weights, k=2, seed=seed)
            groups = {}
            for i, cid in enumerate(delta.tolist()):
                groups.setdefault(cid, []).append(i)
            parts = sorted(sorted(g) for g in groups.values())
            assert parts == [[0, 1], [2]]

    def test_radius_within_twice_optimal(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n, k = 10, int(rng.integers(2, 4))
            coords = rng.uniform(0, 1, size=(n, 2))
            positions, weights = unit_points(coords)
            delta = kcenter_greedy(positions, weights, k=k, seed=trial)
            dists = pairwise_distances(coords)
            # best in-hindsight center per group bounds the greedy radius
            achieved = max(
                dists[np.ix_(np.flatnonzero(delta == c), np.flatnonzero(delta == c))]
                .min(axis=1)
                .max()
                for c in range(k)
            )
            best = np.inf
            for centers in itertools.combinations(range(n), k):
                best = min(best, dists[:, centers].min(axis=1).max())
            assert achieved <= 2 * best + 1e-9


class TestPipeline:
    def test_unknown_method_rejected(self):
        data = make_blobs(n=20, seed=0)
        with pytest.raises(ContractViolationError):
            pipeline("kmeans", data, Params(k=2))

    def test_vanilla_kmedoids_reports_unconstrained(self):
        data = make_blobs(n=60, balance=0.5, clusters=2, seed=3)
        res = pipeline("vanilla_kmedoids", data, Params(k=2, seed=1))
        assert res.record.method == "vanilla_kmedoids"
        assert sum(res.record.sizes) == data.n
        assert res.decomposition is None

    def test_fair_capacitated_meets_both_constraints(self):
        # mixed 2/3 fairlet weights keep tight capacities parity-feasible
        data = make_blobs(n=90, balance=0.8, clusters=3, seed=5)
        for method in FAIR_CAPACITATED_METHODS:
            eps = 1.2 if method.startswith("hier") else 1.01
            params = Params(k=3, epsilon=eps, seed=2)
            res = pipeline(method, data, params)
            assert res.record.balance >= 0.5
            assert max(res.record.sizes) <= res.record.q
            assert sum(res.record.sizes) == data.n

    def test_fairlet_kcenter_is_fair_but_not_capacitated(self):
        data = make_blobs(n=60, balance=1.0, clusters=2, seed=8)
        for method in ("vanilla_fairlet_kcenter", "mcf_fairlet_kcenter"):
            res = pipeline(method, data, Params(k=2, seed=4))
            assert res.record.balance >= 0.5
            assert sum(res.record.sizes) == data.n

    def test_all_methods_produce_total_assignments(self):
        data = make_blobs(n=50, balance=1.0, clusters=2, seed=11)
        for method in METHODS:
            res = pipeline(method, data, Params(k=2, seed=6))
            assert res.clustering.assignment.shape == (data.n,)
            assert sum(res.record.sizes) == data.n

    def test_same_seed_same_record(self):
        data = make_blobs(n=60, balance=1.0, clusters=2, seed=1)
        for method in METHODS:
            eps = 1.2 if method.startswith("hier") else 1.01
            a = pipeline(method, data, Params(k=3, epsilon=eps, seed=9)).record
            b = pipeline(method, data, Params(k=3, epsilon=eps, seed=9)).record
            assert a.to_json_dict() == b.to_json_dict()

    def test_precomputed_decomposition_matches_internal(self):
        from faircap.fairlets import ThresholdFM, mcf_decompose

        data = make_blobs(n=40, balance=1.0, clusters=2, seed=2)
        params = Params(k=2, seed=3)
        decomp = mcf_decompose(data, ThresholdFM(1, 2), params.seed)
        a = pipeline("kmed_fair_cap_mcf", data, params).record
        b = pipeline("kmed_fair_cap_mcf", data, params, decomposition=decomp).record
        assert a.to_json_dict() == b.to_json_dict()
