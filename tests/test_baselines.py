import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from faircap import baselines
from faircap.baselines import (
    METHODS,
    _swap_costs,
    decompose,
    kcenter_greedy,
    kmedoids_vanilla,
    pipeline,
)
from faircap.capclust import (
    StageResult,
    capacity_threshold,
    hierarchical_fair_capacitated,
    kmedoids_fair_capacitated,
)
from faircap.core import (
    Clustering,
    Dataset,
    Params,
    compose_assignment,
    medoid_index,
    pairwise_distances,
    rng_stream,
)
from faircap.errors import ContractViolationError, FaircapError, InfeasibilityError
from faircap.fairlets import mcf_decompose, vanilla_decompose
from faircap.metrics import evaluate
from faircap.report import PALETTE
from faircap.synth import make_blobs

# The methods whose clustering stage is capacity-aware ("hier" or "kmed").
FAIR_CAPACITATED = (
    "hier_fair_cap_mcf", "hier_fair_cap_vanilla", "kmed_fair_cap_mcf", "kmed_fair_cap_vanilla",
)


def _dataset(features, protected):
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    return Dataset(
        features=features,
        protected=np.asarray(protected),
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


def reference_pam(data, k, seed):
    """PAM as first written: each round rebuilds the non-medoid list and,
    for every medoid position, gathers their columns again and keeps the
    first strictly cheapest swap."""
    n = data.n
    if n < k:
        raise InfeasibilityError(f"cannot form k={k} nonempty clusters from {n} points")
    dists = pairwise_distances(data.features)
    rng = rng_stream(seed, "baselines.kmedoids")
    medoids = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    best = float(dists[:, medoids].min(axis=1).sum())
    improved = True
    while improved:
        improved = False
        others = [o for o in range(n) if o not in medoids]
        if not others:
            break
        best_swap = None
        swap_cost = best
        cols = dists[:, medoids]
        for pos in range(k):
            rest = np.delete(cols, pos, axis=1)
            floor = rest.min(axis=1) if rest.shape[1] else np.full(n, np.inf)
            costs = np.minimum(floor[:, None], dists[:, others]).sum(axis=0)
            o_pos = int(np.argmin(costs))
            if costs[o_pos] < swap_cost:
                swap_cost = float(costs[o_pos])
                best_swap = (pos, others[o_pos])
        if best_swap is not None:
            pos, o = best_swap
            medoids = sorted(medoids[:pos] + medoids[pos + 1 :] + [o])
            best = swap_cost
            improved = True
    assignment = np.argmin(dists[:, medoids], axis=1)
    assignment[medoids] = np.arange(k)
    reps = tuple(
        medoid_index(data.features, np.flatnonzero(assignment == cid))
        for cid in range(k)
    )
    return assignment, reps


def reference_pipeline(method, data, params):
    """The pipeline before PAM became a stage: the decomposition and stage
    are read off the method name, and PAM builds its own clustering."""
    if method == "vanilla_kmedoids":
        assignment, reps = reference_pam(data, params.k, params.seed)
        clustering = Clustering(assignment=assignment, representatives=reps)
    else:
        mcf = method.endswith("_mcf") or method.startswith("mcf_")
        build = mcf_decompose if mcf else vanilla_decompose
        decomp = build(data, params.t, params.seed)
        positions, weights = data.features[decomp.centers], decomp.weights
        if method.endswith("kcenter"):
            delta, _ = kcenter_greedy(positions, weights, params.k, params.seed)
        else:
            q = capacity_threshold(data.n, params.k, params.epsilon)
            if method.startswith("hier"):
                delta = hierarchical_fair_capacitated(positions, weights, params.k, q).assignment
            else:
                delta = kmedoids_fair_capacitated(
                    positions, weights, params.k, q, params.lam, params.seed
                ).assignment
        clustering = compose_assignment(delta, decomp, data)
    return clustering, evaluate(clustering, data, params, method=method)


def _outcome(run):
    """(result, None), or (None, (error type, message)) when ``run`` raises."""
    try:
        return run(), None
    except FaircapError as exc:
        return None, (type(exc), str(exc))


class TestMethodTable:
    def test_table_drives_palette_and_fair_capacitated(self):
        assert list(METHODS) == sorted(METHODS)  # the order "all" expands to
        assert list(PALETTE) == list(METHODS)
        assert {flavor for flavor, _ in METHODS.values()} == {"mcf", "vanilla", "rows"}
        assert {stage for _, stage in METHODS.values()} == {"hier", "kmed", "kcenter", "pam"}
        fair_capacitated = [m for m, (_, stage) in METHODS.items() if stage in ("hier", "kmed")]
        assert fair_capacitated == list(FAIR_CAPACITATED)

    def test_pipeline_matches_reference_for_every_method(self):
        # coordinates rounded to one decimal on odd trials tie many costs,
        # every fifth trial repeats rows, and every tenth has k == n
        rng = np.random.default_rng(2024)
        outcomes = set()
        for trial in range(100):
            n = int(rng.integers(2, 21))
            k = n if trial % 10 == 0 else int(rng.integers(1, min(n, 5) + 1))
            coords = rng.uniform(0, 1, size=(n, 2))
            if trial % 2:
                coords = coords.round(1)
            if trial % 5 == 0:
                coords[n // 2 :] = coords[: n - n // 2]
            protected = rng.permutation(np.arange(n) % 2)
            data = _dataset(coords, protected)
            seed = int(rng.integers(0, 1000))
            for method in METHODS:
                eps = 1.2 if method.startswith("hier") else 1.01
                params = Params(k=k, epsilon=eps, seed=seed)
                expected, expected_error = _outcome(
                    lambda: reference_pipeline(method, data, params)
                )
                got, error = _outcome(lambda: pipeline(method, data, params))
                assert error == expected_error, (trial, method)
                if error:
                    outcomes.add("error")
                    continue
                clustering, record = expected
                got_clustering, got_record, _ = got
                assert got_record == record, (trial, method)
                assert got_clustering.assignment.tolist() == clustering.assignment.tolist()
                assert np.array_equal(got_clustering.representatives, clustering.representatives)
                outcomes.add("k == n" if k == n else "ok")
        assert outcomes == {"ok", "k == n", "error"}


class TestKMedoidsVanilla:
    def test_matches_plain_reference(self):
        # coordinates rounded to one decimal tie many swap costs; every
        # tenth instance has k == n
        rng = np.random.default_rng(88)
        outcomes = set()
        for trial in range(150):
            n = int(rng.integers(1, 25))
            k = n if trial % 10 == 0 else int(rng.integers(1, n + 1))
            coords = rng.uniform(0, 1, size=(n, 2))
            if trial % 2:
                coords = coords.round(1)
            data = _dataset(coords, np.arange(n) % 2)
            seed = int(rng.integers(0, 1000))
            assignment, _ = reference_pam(data, k, seed)
            labels, trace = kmedoids_vanilla(*unit_points(coords), k, seed)
            assert labels.tolist() == assignment.tolist()
            assert trace == ()
            if k == n:
                outcomes.add("k == n")
            elif len(np.unique(coords, axis=0)) < k:
                outcomes.add("coincident medoids")  # fewer distinct rows than k
            else:
                outcomes.add("ok")
        assert outcomes == {"ok", "k == n", "coincident medoids"}

    def test_matches_plain_reference_at_larger_n(self, monkeypatch):
        # n up to 80 gives swap costs of many terms, where the screen's sums
        # and the exact ones round differently. Every seventh instance lies
        # on an integer grid, where many swap costs tie exactly, and odd
        # ones are rounded; small cell budgets cut the screen into blocks
        # of one or more rows with a shorter last one.
        rng = np.random.default_rng(1818)
        outcomes = set()
        for trial in range(140):
            n = int(rng.integers(25, 81))
            d = int(rng.integers(1, 4))
            k = {0: 1, 1: n}.get(trial % 10, int(rng.integers(1, 17)))
            if trial % 7 == 0:
                coords = rng.integers(0, 5, size=(n, d)).astype(float)
                outcomes.add("grid")
            else:
                coords = rng.uniform(0, 1, size=(n, d))
                if trial % 2:
                    coords = coords.round(1)
            monkeypatch.setattr(baselines, "_LOCKSTEP_CELLS", 2 * n * (1 + trial % 5))
            data = _dataset(coords, np.arange(n) % 2)
            seed = int(rng.integers(0, 1000))
            assignment, _ = reference_pam(data, k, seed)
            labels, _ = kmedoids_vanilla(*unit_points(coords), k, seed)
            assert labels.tolist() == assignment.tolist(), trial
            outcomes.add({1: "k == 1", n: "k == n"}.get(k, "ok"))
        assert outcomes == {"ok", "k == 1", "k == n", "grid"}

    def test_kept_screen_matches_plain_reference(self, monkeypatch):
        # n of 100-300 and k up to 24 keep the screen for dozens of rounds,
        # each widening tol. Integer grids tie swap costs exactly, duplicated
        # halves tie whole medoid columns, and a 1e6 offset makes every
        # distance and sum round. A spy on the screen's one helper tells a
        # full rebuild (all points, in order) from an update (moved points).
        rounds = []
        add_terms = baselines._add_screen_terms

        def spy(kept, lost, dists, points, *rest):
            rounds.append("rebuild" if points is None else "update")
            add_terms(kept, lost, dists, points, *rest)

        monkeypatch.setattr(baselines, "_add_screen_terms", spy)
        rng = np.random.default_rng(2610)
        outcomes = set()
        for trial in range(16):
            n = int(rng.integers(100, 301))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(2, 25))
            kind = ("grid", "rounded", "offset", "duplicated")[trial % 4]
            coords = rng.uniform(0, 1, size=(n, d))
            if kind == "grid":
                coords = rng.integers(0, 6, size=(n, d)).astype(float)
            elif kind == "rounded":
                coords = coords.round(1)
            elif kind == "offset":
                coords += 1e6
            else:
                coords[n // 2 :] = coords[: n - n // 2]
            data = _dataset(coords, np.arange(n) % 2)
            seed = int(rng.integers(0, 1000))
            rounds.clear()
            assignment, _ = reference_pam(data, k, seed)
            labels, _ = kmedoids_vanilla(*unit_points(coords), k, seed)
            assert labels.tolist() == assignment.tolist(), trial
            assert rounds[0] == "rebuild"
            if rounds.count("update") >= 10:
                outcomes.add(f"{kind}, many updates")
            if "rebuild" in rounds[1:]:
                outcomes.add("later rebuild")
        assert outcomes == {
            "grid, many updates",
            "rounded, many updates",
            "offset, many updates",
            "duplicated, many updates",
            "later rebuild",
        }

    def test_exact_cost_of_one_candidate_is_the_full_matrix_column(self):
        # the full matrix of every non-medoid is how the swap costs were
        # first computed; numpy sums each gathered column pairwise on its
        # own, so gathering one column alone must give the same bits. The
        # sizes cross numpy's pairwise blocks of 8 and 128 terms.
        rng = np.random.default_rng(7)
        for n in (2, 9, 127, 128, 129, 300, 1000):
            dists = pairwise_distances(rng.uniform(0, 10, size=(n, 2)) * rng.uniform(1, 1e3))
            medoids = rng.choice(n, size=min(n - 1, 3), replace=False)
            others = np.setdiff1d(np.arange(n), medoids)
            for floor in (
                dists[:, medoids].min(axis=1),
                np.full(n, np.inf),  # k = 1: removing the medoid leaves nothing
            ):
                full = np.minimum(floor[:, None], dists[:, others]).sum(axis=0)
                for j in rng.choice(others.size, size=min(others.size, 5), replace=False):
                    one = _swap_costs(dists, floor, others[[j]])
                    assert one.shape == (1,)
                    assert one[0] == full[j], (n, j)

    def test_swap_search_keeps_a_small_working_set(self):
        # at n = 600 the distance matrix is 2.7 MiB; building k minimum
        # matrices of n x (n - k) per round peaked at 8.3 MiB, and the screen
        # through two work matrices of about 0.5 MiB stays near 4 MiB
        data = make_blobs(n=600, balance=0.5, clusters=4, seed=7)
        tracemalloc.start()
        try:
            kmedoids_vanilla(*unit_points(data.features), k=16, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20

    def test_coincident_medoids_keep_their_own_rows(self):
        # three equal rows and k = 3: some medoids coincide, and the plain
        # nearest-medoid argmin would leave their clusters empty
        data = _dataset([[0.0], [0.0], [0.0], [1.0]], [0, 1, 0, 1])
        for seed in range(3):
            c, _, _ = pipeline("vanilla_kmedoids", data, Params(k=3, seed=seed))
            assert c.k == 3
            assert c.sizes.tolist().count(0) == 0
            for cid, rep in enumerate(c.representatives):
                assert c.assignment[rep] == cid

    def test_k_equals_n_costs_zero(self):
        data = _dataset(np.arange(5.0), [0, 1, 0, 1, 0])
        _, record, _ = pipeline("vanilla_kmedoids", data, Params(k=5, seed=0))
        assert record.cost == 0.0

    def test_recovers_two_blobs_optimally(self):
        rng = np.random.default_rng(14)
        centers = np.array([[0.0, 0.0], [6.0, 6.0]])
        feats = np.vstack(
            [c + 0.3 * rng.standard_normal((5, 2)) for c in centers]
        )
        data = _dataset(feats, [0, 1] * 5)
        _, record, _ = pipeline("vanilla_kmedoids", data, Params(k=2, seed=3))
        assert record.cost == pytest.approx(
            brute_force_best_2partition_cost(feats), abs=1e-9
        )

    def test_seed_determinism(self):
        data = make_blobs(n=40, balance=1.0, clusters=2, seed=9)
        a, _ = kmedoids_vanilla(*unit_points(data.features), k=3, seed=7)
        b, _ = kmedoids_vanilla(*unit_points(data.features), k=3, seed=7)
        assert a.tolist() == b.tolist()

    def test_rejects_k_above_n(self):
        with pytest.raises(InfeasibilityError, match="cannot form k=4"):
            kmedoids_vanilla(*unit_points(np.arange(3.0)), k=4, seed=0)


class TestKCenterGreedy:
    def test_k_equals_points_radius_zero(self):
        positions, weights = unit_points([0.0, 4.0, 9.0])
        delta, _ = kcenter_greedy(positions, weights, k=3, seed=0)
        assert sorted(delta.tolist()) == [0, 1, 2]

    def test_colinear_farthest_first(self):
        # whichever of 0/1 seeds the traversal, the far point 10 is added
        # next and the radius is 1
        positions, weights = unit_points([0.0, 1.0, 10.0])
        for seed in range(6):
            delta, _ = kcenter_greedy(positions, weights, k=2, seed=seed)
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
            delta, _ = kcenter_greedy(positions, weights, k=k, seed=trial)
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

    def test_matches_full_matrix_reference_on_ties(self):
        # the traversal reads only its centers' columns; the reference reads
        # them from the full matrix. Integer grids and duplicated halves tie
        # the farthest point and the nearest center, a 1e6 offset rounds
        # every distance, and k == l makes every point a center.
        rng = np.random.default_rng(3131)
        for trial in range(200):
            l = int(rng.integers(1, 60))
            k = l if trial % 10 == 0 else int(rng.integers(1, l + 1))
            coords = rng.integers(0, 4, size=(l, 1 + trial % 3)).astype(float)
            if trial % 4 == 1:
                coords = rng.uniform(0, 1, size=coords.shape) + 1e6
            elif trial % 4 == 2:
                coords[l // 2 :] = coords[: l - l // 2]
            seed = int(rng.integers(0, 1000))
            dists = pairwise_distances(coords)
            centers = [int(rng_stream(seed, "baselines.kcenter").integers(l))]
            while len(centers) < k:
                far = dists[:, centers].min(axis=1)
                far[centers] = -1
                centers.append(int(np.argmax(far)))
            expected = np.argmin(dists[:, centers], axis=1)
            expected[centers] = np.arange(k)
            labels, trace = kcenter_greedy(*unit_points(coords), k, seed)
            assert labels.tolist() == expected.tolist(), trial
            assert trace == ()


class TestPipeline:
    def test_unknown_method_rejected(self):
        data = make_blobs(n=20, seed=0)
        with pytest.raises(ContractViolationError):
            pipeline("kmeans", data, Params(k=2))

    def test_vanilla_kmedoids_reports_unconstrained(self):
        data = make_blobs(n=60, balance=0.5, clusters=2, seed=3)
        _, record, _ = pipeline("vanilla_kmedoids", data, Params(k=2, seed=1))
        assert record.method == "vanilla_kmedoids"
        assert sum(record.sizes) == data.n
        rows = np.arange(data.n)  # PAM clusters singleton fairlets
        singletons = decompose("rows", data, Fraction(1, 2), seed=1)
        assert singletons.row_to_fairlet.tolist() == rows.tolist()
        assert singletons.centers.tolist() == rows.tolist()

    def test_fair_capacitated_meets_both_constraints(self):
        # mixed 2/3 fairlet weights keep tight capacities parity-feasible
        data = make_blobs(n=90, balance=0.8, clusters=3, seed=5)
        for method in FAIR_CAPACITATED:
            eps = 1.2 if method.startswith("hier") else 1.01
            params = Params(k=3, epsilon=eps, seed=2)
            _, record, _ = pipeline(method, data, params)
            assert record.balance >= 0.5
            assert max(record.sizes) <= record.q
            assert sum(record.sizes) == data.n

    def test_fairlet_kcenter_is_fair_but_not_capacitated(self):
        data = make_blobs(n=60, balance=1.0, clusters=2, seed=8)
        for method in ("vanilla_fairlet_kcenter", "mcf_fairlet_kcenter"):
            _, record, _ = pipeline(method, data, Params(k=2, seed=4))
            assert record.balance >= 0.5
            assert sum(record.sizes) == data.n

    def test_all_methods_produce_total_assignments(self):
        data = make_blobs(n=50, balance=1.0, clusters=2, seed=11)
        for method in METHODS:
            clustering, record, _ = pipeline(method, data, Params(k=2, seed=6))
            assert clustering.assignment.shape == (data.n,)
            assert sum(record.sizes) == data.n

    def test_returns_the_stage_assignment_composed_and_evaluated(self):
        # every stage returns a StageResult (assignment, trace); pipeline
        # lifts the assignment to the rows, evaluates it and passes the
        # trace on, which PAM and k-center leave empty
        data = make_blobs(n=60, balance=0.8, clusters=3, seed=4)
        for method, (flavor, stage) in METHODS.items():
            params = Params(k=3, epsilon=1.2 if stage == "hier" else 1.01, seed=5)
            decomp = decompose(flavor, data, params.t, params.seed)
            args = (data.features[decomp.centers], decomp.weights, params.k)
            q = capacity_threshold(data.n, params.k, params.epsilon)
            if stage == "pam":
                result = kmedoids_vanilla(*args, params.seed)
            elif stage == "kcenter":
                result = kcenter_greedy(*args, params.seed)
            elif stage == "hier":
                result = hierarchical_fair_capacitated(*args, q)
            else:
                result = kmedoids_fair_capacitated(*args, q, params.lam, params.seed)
            assert isinstance(result, StageResult), method
            assert (result.trace == ()) == (stage in ("pam", "kcenter")), method
            clustering = compose_assignment(result.assignment, decomp, data)
            got = pipeline(method, data, params)
            assert type(got) is tuple and len(got) == 3, method
            got_clustering, record, trace = got
            assert got_clustering.assignment.tolist() == clustering.assignment.tolist(), method
            assert got_clustering.representatives.tolist() == clustering.representatives.tolist()
            assert record == evaluate(clustering, data, params, method=method), method
            assert trace == result.trace, method

    def test_same_seed_same_record(self):
        data = make_blobs(n=60, balance=1.0, clusters=2, seed=1)
        for method in METHODS:
            eps = 1.2 if method.startswith("hier") else 1.01
            _, a, _ = pipeline(method, data, Params(k=3, epsilon=eps, seed=9))
            _, b, _ = pipeline(method, data, Params(k=3, epsilon=eps, seed=9))
            assert a == b

    def test_precomputed_decomposition_matches_internal(self):
        data = make_blobs(n=40, balance=1.0, clusters=2, seed=2)
        params = Params(k=2, seed=3)
        decomp = mcf_decompose(data, params.t, params.seed)
        _, a, _ = pipeline("kmed_fair_cap_mcf", data, params)
        _, b, _ = pipeline("kmed_fair_cap_mcf", data, params, decomposition=decomp)
        assert a == b

    def test_rejects_a_decomposition_that_does_not_fit_the_data(self):
        data = make_blobs(n=60, balance=0.8, clusters=2, seed=2)
        decomp = mcf_decompose(data, Fraction(1, 2), 3)
        short = Dataset(features=data.features[:40], protected=data.protected[:40])
        for method in ("kmed_fair_cap_mcf", "vanilla_kmedoids"):
            with pytest.raises(ContractViolationError, match="covers 60 rows, dataset has 40"):
                pipeline(method, short, Params(k=2), decomposition=decomp)
        # a t = 1/2 grouping does not meet t = 1, whose every ok record has balance 1
        for method in ("hier_fair_cap_mcf", "kmed_fair_cap_vanilla"):
            with pytest.raises(ContractViolationError, match=r"fails t = 1: fairlet \d+: "):
                pipeline(method, data, Params(k=2, t=1, epsilon=1.5), decomposition=decomp)
        # PAM clusters single rows; on fairlets it once clustered their centres
        with pytest.raises(
            ContractViolationError,
            match=f"vanilla_kmedoids clusters single rows, got {len(decomp)} fairlets for 60 rows",
        ):
            pipeline("vanilla_kmedoids", data, Params(k=2), decomposition=decomp)
        # the rows flavour's singletons are never balanced, and need not be
        rows = baselines.decompose("rows", data, Fraction(1), 3)
        _, record, _ = pipeline("vanilla_kmedoids", data, Params(k=2, t=1), decomposition=rows)
        assert sum(record.sizes) == data.n
