import itertools
import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from scipy.optimize import linear_sum_assignment

from faircap.core import (
    Dataset,
    FairletDecomposition,
    balance_of,
    pairwise_distances,
    rng_stream,
)
from faircap.errors import ContractViolationError, InfeasibilityError
from faircap.fairlets import (
    check_threshold,
    decomposition_from_json,
    decomposition_to_json,
    _least_cost_grouping,
    fairlet_cost,
    mcf_decompose,
    validate,
    vanilla_decompose,
)
from faircap.synth import make_blobs

T_HALF = Fraction(1, 2)


def _dataset(features, protected):
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    return Dataset(
        features=features,
        protected=np.asarray(protected),
    )


def _same(a, b):
    return np.array_equal(a.row_to_fairlet, b.row_to_fairlet) and np.array_equal(
        a.centers, b.centers
    )


def _split(data):
    """Minority and majority rows; zeros are the minority on a tie."""
    zeros = np.flatnonzero(data.protected == 0)
    ones = np.flatnonzero(data.protected == 1)
    return (zeros, ones) if len(zeros) <= len(ones) else (ones, zeros)


def slot_matching(dists, m):
    """Reference grouping: a minimum-weight perfect matching of the majority
    points plus beta*m - rho dummy rows to m slots per anchor, the first beta
    of them mandatory (no dummy may fill one). Returns the anchor of each
    majority point. scipy's dense ``linear_sum_assignment`` solves it; the
    sparse csgraph matching that ``mcf_decompose`` once used never returns on
    some 1-d and tie-heavy inputs."""
    beta, rho = dists.shape
    weights = np.zeros((beta * m, beta * m))
    weights[:rho] = np.tile(dists.T, m)
    weights[rho:, :beta] = np.inf
    rows, cols = linear_sum_assignment(weights)
    return cols[:rho] % beta


def reference_decompose(data, t, seed, flavor, anchors=None):
    """The list-based construction the array code replaced: a list of member
    rows per group, a seeded center per group in group order, then fairlets
    sorted by smallest member. Returns [(sorted members, center), ...]. The
    mcf grouping is ``anchors`` (the anchor of each majority point) when
    given, else the reference slot matching's."""
    minority, majority = _split(data)
    if flavor == "vanilla":
        rng = rng_stream(seed, "fairlets.vanilla")
        blues = minority[rng.permutation(len(minority))]
        reds = majority[rng.permutation(len(majority))]
        beta, rho = len(blues), len(reds)
        base, extra = divmod(rho, beta)
        groups = []
        pos = 0
        for i in range(beta):
            take = base + (1 if i < extra else 0)
            groups.append([int(blues[i]), *map(int, reds[pos : pos + take])])
            pos += take
    else:
        if anchors is None:
            dists = pairwise_distances(data.features[minority], data.features[majority])
            anchors = slot_matching(dists, t.denominator)
        groups = [[int(b)] for b in minority]
        for r, a in zip(majority, anchors):
            groups[a].append(int(r))
    rng = rng_stream(seed, f"fairlets.{flavor}", "centers")
    fairlets = []
    for members in groups:
        members = sorted(members)
        fairlets.append((tuple(members), members[int(rng.integers(len(members)))]))
    fairlets.sort(key=lambda fl: fl[0][0])
    return fairlets


def _random_feasible(rng, t=T_HALF, max_n=60):
    """A random dataset whose balance meets t = 1/m."""
    minority = int(rng.integers(3, max(4, max_n // (t.denominator + 1))))
    majority = int(rng.integers(minority, t.denominator * minority + 1))
    protected = np.array([1] * minority + [0] * majority)
    rng.shuffle(protected)
    features = rng.uniform(0, 1, size=(len(protected), 2))
    return _dataset(features, protected)


class TestCheckThreshold:
    def test_returns_fraction_in_lowest_terms(self):
        t = check_threshold(Fraction(2, 4))
        assert isinstance(t, Fraction)
        assert (t.numerator, t.denominator) == (1, 2)

    def test_rejects_t_outside_unit_interval(self):
        # f > m is one such case; validate audits any f/m but checks the range
        data = _dataset(np.arange(2.0), [0, 1])
        decomp = FairletDecomposition(row_to_fairlet=np.zeros(2, dtype=int), centers=[0])
        for t in (Fraction(3, 2), Fraction(0), Fraction(-1, 2)):
            with pytest.raises(ContractViolationError, match=r"t must lie in \(0, 1\]"):
                check_threshold(t)
            with pytest.raises(ContractViolationError, match=r"t must lie in \(0, 1\]"):
                validate(decomp, data, t)

    def test_rejects_numerator_above_one(self):
        with pytest.raises(ContractViolationError, match="only thresholds 1/m .*, got 2/3"):
            check_threshold(Fraction(2, 3))


class TestVanillaDecompose:
    def test_perfectly_balanced_pairs(self):
        data = _dataset(np.arange(8.0), [0, 0, 0, 0, 1, 1, 1, 1])
        decomp = vanilla_decompose(data, T_HALF, seed=1)
        assert len(decomp) == 4
        assert decomp.weights.tolist() == [2, 2, 2, 2]
        ones = np.bincount(decomp.row_to_fairlet, weights=data.protected)
        assert ones.tolist() == [1, 1, 1, 1]

    def test_three_blue_six_red_forced_shape(self):
        # beta=3, rho=6, m=2 forces three fairlets of one blue plus two reds
        data = _dataset(np.arange(9.0), [1, 1, 1, 0, 0, 0, 0, 0, 0])
        decomp = vanilla_decompose(data, T_HALF, seed=5)
        assert decomp.weights.tolist() == [3, 3, 3]
        ones = np.bincount(decomp.row_to_fairlet, weights=data.protected)
        assert ones.tolist() == [1, 1, 1]

    def test_infeasible_balance_raises(self):
        data = _dataset(np.arange(10.0), [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(InfeasibilityError) as err:
            vanilla_decompose(data, T_HALF, seed=0)
        assert "3/7" in str(err.value)
        assert "1/2" in str(err.value)

    def test_single_protected_group_raises(self):
        for labels in ([0] * 6, [1] * 6):
            data = _dataset(np.arange(6.0), labels)
            for decompose in (vanilla_decompose, mcf_decompose):
                with pytest.raises(InfeasibilityError, match="single protected group"):
                    decompose(data, T_HALF, seed=0)

    def test_f_above_one_unsupported(self):
        data = _dataset(np.arange(10.0), [1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ContractViolationError, match="only thresholds 1/m"):
            vanilla_decompose(data, Fraction(2, 3), seed=0)

    def test_seed_determinism(self):
        rng = np.random.default_rng(0)
        data = _random_feasible(rng)
        a = vanilla_decompose(data, T_HALF, seed=42)
        b = vanilla_decompose(data, T_HALF, seed=42)
        assert _same(a, b)
        c = vanilla_decompose(data, T_HALF, seed=43)
        assert not _same(a, c)

    def test_valid_on_random_instances(self):
        rng = np.random.default_rng(8)
        for i in range(50):
            data = _random_feasible(rng)
            decomp = vanilla_decompose(data, T_HALF, seed=i)
            report = validate(decomp, data, T_HALF)
            assert report.violations == ()
            assert decomp.weights.sum() == data.n


class TestMcfDecompose:
    def test_single_possible_grouping(self):
        # one blue forces a single fairlet holding all three points
        data = _dataset([[0.0], [0.1], [5.0]], [1, 0, 0])
        decomp = mcf_decompose(data, T_HALF, seed=2)
        assert len(decomp) == 1
        assert decomp.row_to_fairlet.tolist() == [0, 0, 0]
        vanilla = vanilla_decompose(data, T_HALF, seed=2)
        assert fairlet_cost(decomp, data) <= fairlet_cost(vanilla, data)

    def test_colocated_points_cost_zero(self):
        data = _dataset(np.zeros((6, 2)), [1, 1, 1, 0, 0, 0])
        decomp = mcf_decompose(data, T_HALF, seed=3)
        assert fairlet_cost(decomp, data) == 0.0

    def test_grouping_matches_enumeration_oracle(self):
        # anchor-to-member cost of the matching grouping equals the
        # brute-force optimum over all valid (1,m)-groupings, for t = 1/2
        # and t = 1/3 and for every majority size from rho = beta (all
        # optional slots go to dummy rows) to rho = beta*m (no dummy rows)
        rng = np.random.default_rng(21)
        trial = 0
        for m in (2, 3):
            t = Fraction(1, m)
            for minority in (2, 3):
                for majority in range(minority, m * minority + 1):
                    protected = np.array([1] * minority + [0] * majority)
                    features = rng.uniform(0, 1, size=(len(protected), 2))
                    data = _dataset(features, protected)
                    decomp = mcf_decompose(data, t, seed=trial)
                    trial += 1
                    assert validate(decomp, data, t).violations == ()

                    # rows 0..minority-1 are the anchors, the rest majority
                    dists = pairwise_distances(features[:minority], features[minority:])
                    best = None
                    for combo in itertools.product(range(minority), repeat=majority):
                        counts = [combo.count(b) for b in range(minority)]
                        if any(c < 1 or c > m for c in counts):
                            continue
                        cost = sum(dists[b][r] for r, b in enumerate(combo))
                        if best is None or cost < best:
                            best = cost
                    labels = decomp.row_to_fairlet
                    assert np.bincount(labels[:minority], minlength=len(decomp)).tolist() == [
                        1
                    ] * len(decomp)
                    anchor = np.empty(len(decomp), dtype=np.int64)
                    anchor[labels[:minority]] = np.arange(minority)
                    achieved = sum(
                        dists[anchor[labels[minority + r]], r] for r in range(majority)
                    )
                    assert achieved == pytest.approx(best, abs=1e-9)

    def test_peak_memory_at_n_1200(self):
        # 533 anchors and 667 points: the (point, anchor) matrix is 2.7 MiB,
        # the moves matrix 2.2 MiB, and each member gain block 4.3 MiB.
        # Transposing the matrix and a second gain block once peaked at
        # 16.4 MiB; now the peak is 11.5 MiB
        data = make_blobs(n=1200, balance=0.8, clusters=3, seed=7)
        tracemalloc.start()
        try:
            mcf_decompose(data, T_HALF, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 * 2**20

    def test_any_threshold_groups_as_at_rho(self):
        # no anchor holds more than rho points, so every m above rho groups
        # as m = rho; t = 1/10**20 once asked numpy for a (beta, m) table
        data = make_blobs(n=60, balance=0.5, clusters=3, seed=5)
        rho = max(data.group_counts())
        tiny = Fraction(1, 10**20)
        decomp = mcf_decompose(data, tiny, seed=5)
        assert _same(decomp, mcf_decompose(data, Fraction(1, rho), seed=5))
        assert _same(decomp, mcf_decompose(data, Fraction(1, rho + 1), seed=5))
        assert validate(decomp, data, tiny).violations == ()

    def test_peak_memory_at_t_one_thousandth(self):
        # 200 anchors and 400 points: the member gain blocks once spanned
        # m = 1000 columns per anchor and peaked at 311 MiB; now they span
        # the largest load, in blocks of at most _LOCKSTEP_CELLS cells
        data = make_blobs(n=600, balance=0.5, clusters=4, seed=7)
        tracemalloc.start()
        try:
            mcf_decompose(data, Fraction(1, 1000), seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_cost_dominates_vanilla_on_random_instances(self):
        rng = np.random.default_rng(31)
        for i in range(50):
            data = _random_feasible(rng)
            mcf = mcf_decompose(data, T_HALF, seed=i)
            vanilla = vanilla_decompose(data, T_HALF, seed=i)
            assert validate(mcf, data, T_HALF).violations == ()
            assert fairlet_cost(mcf, data) <= fairlet_cost(vanilla, data) + 1e-9


class TestMatchesReference:
    def test_array_construction_matches_list_reference(self):
        # 1 to 4 features, every fifth instance rounded to one decimal so
        # that distances tie. Continuous data in 2 or more dimensions has one
        # least-cost grouping, so it must be the reference's. Rounded and 1-d
        # data may have several of equal total (on a line, uncrossing two
        # pairs often keeps the sum), so there the totals must agree and the
        # list construction is checked on the solver's own grouping
        rng = np.random.default_rng(41)
        for trial in range(200):
            t = Fraction(1, int(rng.integers(2, 5)))
            minority = int(rng.integers(1, 12))
            majority = int(rng.integers(minority, t.denominator * minority + 1))
            protected = np.array([1] * minority + [0] * majority)
            rng.shuffle(protected)
            features = rng.uniform(0, 1, size=(len(protected), int(rng.integers(1, 5))))
            ties = trial % 5 == 0 or features.shape[1] == 1
            if trial % 5 == 0:
                features = features.round(1)
            data = _dataset(features, protected)
            seed = int(rng.integers(0, 1000))
            for flavor, build in (("vanilla", vanilla_decompose), ("mcf", mcf_decompose)):
                decomp = build(data, t, seed)
                anchors = None
                if flavor == "mcf" and ties:
                    mino, majo = _split(data)
                    dists = pairwise_distances(data.features[mino], data.features[majo])
                    anchors = _least_cost_grouping(dists.T, t.denominator)
                    ours = dists[anchors, np.arange(len(majo))].sum()
                    best = dists[slot_matching(dists, t.denominator), np.arange(len(majo))].sum()
                    assert ours == pytest.approx(best, rel=1e-9, abs=1e-12)
                expected = reference_decompose(data, t, seed, flavor, anchors)
                labels = np.empty(data.n, dtype=np.int64)
                for j, (members, _) in enumerate(expected):
                    labels[list(members)] = j
                assert decomp.row_to_fairlet.tolist() == labels.tolist(), (trial, flavor)
                assert decomp.centers.tolist() == [center for _, center in expected]
                assert decomposition_to_json(decomp) == json.dumps(
                    {
                        "row_to_fairlet": labels.tolist(),
                        "centers": [center for _, center in expected],
                    }
                )
                assert validate(decomp, data, t).violations == ()


class TestLeastCostGrouping:
    def test_cost_matches_slot_matching_on_random_instances(self):
        # m from 1 to 4, rho from beta to beta*m with both ends forced in
        # turn, 1 to 4 features; a third of the instances on a 0.1 grid and
        # every 11th with all points coincident. The last 200 take m above
        # rho - beta + 1, which no anchor can reach, up to rho + 3, where the
        # solver works with m = rho
        rng = np.random.default_rng(53)
        for trial in range(1300):
            if trial < 1100:
                m = int(rng.integers(1, 5))
                beta = int(rng.integers(1, 9))
                rho = (beta, beta * m, int(rng.integers(beta, beta * m + 1)))[min(trial % 4, 2)]
            else:
                beta = int(rng.integers(1, 9))
                rho = int(rng.integers(beta, 3 * beta + 1))
                m = int(rng.integers(rho - beta + 2, rho + 4))
            points = rng.uniform(0, 1, size=(beta + rho, int(rng.integers(1, 5))))
            if trial % 3 == 0:
                points = points.round(1)
            if trial % 11 == 0:
                points[:] = points[0]
            dists = pairwise_distances(points[:beta], points[beta:])
            anchors = _least_cost_grouping(dists.T, m)
            sizes = np.bincount(anchors, minlength=beta)
            assert sizes.min() >= 1 and sizes.max() <= m, (trial, sizes)
            ours = dists[anchors, np.arange(rho)].sum()
            best = dists[slot_matching(dists, m), np.arange(rho)].sum()
            assert ours == pytest.approx(best, rel=1e-9, abs=1e-12), trial

            data = _dataset(points, [1] * beta + [0] * rho)
            decomp = mcf_decompose(data, Fraction(1, m), seed=trial)
            assert validate(decomp, data, Fraction(1, m)).violations == ()


class TestValidate:
    def test_flags_oversized_fairlet(self):
        data = _dataset(np.arange(6.0), [1, 1, 0, 0, 0, 0])
        decomp = FairletDecomposition(
            row_to_fairlet=np.array([0, 1, 0, 0, 0, 1]), centers=np.array([0, 1])
        )
        report = validate(decomp, data, T_HALF)
        assert report.violations == (
            "fairlet 0: size 4 exceeds bound 3",
            "fairlet 0: balance 1/3 below threshold 1/2",
        )

    def test_flags_unbalanced_fairlet(self):
        data = _dataset(np.arange(6.0), [1, 1, 1, 0, 0, 0])
        decomp = FairletDecomposition(
            row_to_fairlet=np.array([0, 0, 0, 1, 1, 1]), centers=np.array([0, 3])
        )
        report = validate(decomp, data, T_HALF)
        assert report.violations == (
            "fairlet 0: balance 0 below threshold 1/2",
            "fairlet 1: balance 0 below threshold 1/2",
        )

    def test_flags_row_count_mismatch(self):
        data = _dataset(np.arange(4.0), [1, 0, 1, 0])
        decomp = FairletDecomposition(row_to_fairlet=np.array([0, 0]), centers=np.array([0]))
        report = validate(decomp, data, T_HALF)
        assert report.violations == ("decomposition covers 2 rows, dataset has 4",)

    def test_matches_per_fairlet_reference(self):
        # random label vectors, so that many fairlets break a bound
        rng = np.random.default_rng(17)
        for trial in range(200):
            n = int(rng.integers(1, 30))
            t = Fraction(1, int(rng.integers(1, 5)))
            data = _dataset(rng.uniform(size=(n, 2)), rng.integers(0, 2, size=n))
            labels = rng.integers(0, max(1, n // 2), size=n)
            labels = np.unique(labels, return_inverse=True)[1]
            centers = np.unique(labels, return_index=True)[1]
            decomp = FairletDecomposition(row_to_fairlet=labels, centers=centers)
            expected = []
            bound = t.numerator + t.denominator
            for j in range(len(decomp)):
                members = np.flatnonzero(labels == j)
                if len(members) > bound:
                    expected.append(f"fairlet {j}: size {len(members)} exceeds bound {bound}")
                ones = int(data.protected[members].sum())
                bal = balance_of(len(members) - ones, ones)
                if bal < t:
                    expected.append(f"fairlet {j}: balance {bal} below threshold {t}")
            assert validate(decomp, data, t).violations == tuple(expected)

    def test_constructed_output_is_clean(self):
        rng = np.random.default_rng(1)
        data = _random_feasible(rng)
        decomp = vanilla_decompose(data, T_HALF, seed=0)
        assert validate(decomp, data, T_HALF).violations == ()


class TestFairletCost:
    def test_duplicated_points_cost_zero(self):
        data = _dataset([[1.0], [1.0], [2.0], [2.0]], [1, 0, 1, 0])
        decomp = vanilla_decompose(data, T_HALF, seed=0)
        # pairing cannot be asserted, but a decomposition of duplicated
        # points grouped identically has zero cost; check via mcf
        decomp = mcf_decompose(data, T_HALF, seed=0)
        assert fairlet_cost(decomp, data) == 0.0

    def test_two_point_fairlet(self):
        data = _dataset([[0.0], [2.0]], [1, 0])
        decomp = FairletDecomposition(row_to_fairlet=np.array([0, 0]), centers=np.array([0]))
        assert fairlet_cost(decomp, data) == 2.0

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(29)
        data = _random_feasible(rng)
        decomp = mcf_decompose(data, T_HALF, seed=11)
        expected = 0.0
        for row, fairlet in enumerate(decomp.row_to_fairlet.tolist()):
            diff = data.features[row] - data.features[decomp.centers[fairlet]]
            expected += float(np.sqrt((diff**2).sum()))
        assert fairlet_cost(decomp, data) == pytest.approx(expected, rel=1e-12)


class TestJsonRoundTrip:
    def test_export_import_identity(self):
        rng = np.random.default_rng(2)
        for trial in range(40):
            t = Fraction(1, int(rng.integers(2, 4)))
            data = _random_feasible(rng, t)
            for build in (vanilla_decompose, mcf_decompose):
                decomp = build(data, t, seed=trial)
                rebuilt = decomposition_from_json(decomposition_to_json(decomp))
                assert _same(rebuilt, decomp)

    def test_unknown_row_id_rejected(self):
        # ids outside 0..l-1 and 0..n-1, a center outside its fairlet and
        # rows without fairlets are the constructor's to reject
        for text, message in (
            ('{"row_to_fairlet": [0, 0, 2, 1], "centers": [0, 3]}', "ids must lie in 0..1"),
            ('{"row_to_fairlet": [0, -1, 1, 1], "centers": [0, 2]}', "ids must lie in 0..1"),
            ('{"row_to_fairlet": [0, 0, 1, 1], "centers": [0, 99]}', "rows must lie in 0..3"),
            ('{"row_to_fairlet": [0, 0, 1, 1], "centers": [2, 0]}', "not one of their rows"),
            ('{"row_to_fairlet": [0, 0], "centers": []}', "no fairlets for 2 rows"),
        ):
            with pytest.raises(ContractViolationError, match=re.escape(message)):
                decomposition_from_json(text)

    def test_entries_must_be_int64_integers(self):
        good = {"row_to_fairlet": [0, 0, 1, 1], "centers": [0, 2]}
        for key in good:
            for bad in (True, 1.0, "1", 2**70, -(2**63) - 1):
                values = list(good[key])
                values[1] = bad
                text = json.dumps(dict(good, **{key: values}))
                with pytest.raises(ContractViolationError, match=f"{key} must be a list of int64"):
                    decomposition_from_json(text)
            for bad in (None, 3, {"0": 0}):
                text = json.dumps(dict(good, **{key: bad}))
                with pytest.raises(ContractViolationError, match=f"{key} must be a list of int64"):
                    decomposition_from_json(text)
            text = json.dumps({k: v for k, v in good.items() if k != key})
            with pytest.raises(ContractViolationError, match=f"{key} must be a list of int64"):
                decomposition_from_json(text)
        # the int64 bounds themselves are read, then range-checked as ids
        for edge in (2**63 - 1, -(2**63)):
            text = json.dumps(dict(good, centers=[0, edge]))
            with pytest.raises(ContractViolationError, match="center rows must lie"):
                decomposition_from_json(text)
