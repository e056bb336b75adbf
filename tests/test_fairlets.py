import itertools
from fractions import Fraction

import numpy as np
import pytest

from faircap.core import Dataset, distance
from faircap.errors import (
    ContractViolationError,
    InfeasibilityError,
    UnsupportedThresholdError,
)
from faircap.fairlets import (
    ThresholdFM,
    decomposition_from_json,
    decomposition_to_json,
    fairlet_cost,
    mcf_decompose,
    validate,
    vanilla_decompose,
)

T_HALF = ThresholdFM(1, 2)


def _dataset(features, protected):
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    return Dataset(
        features=features,
        protected=np.asarray(protected),
        row_ids=tuple(str(i) for i in range(len(protected))),
    )


def _random_feasible(rng, t=T_HALF, max_n=60):
    """A random dataset whose balance meets t = 1/m."""
    minority = int(rng.integers(3, max(4, max_n // (t.m + 1))))
    majority = int(rng.integers(minority, t.m * minority + 1))
    protected = np.array([1] * minority + [0] * majority)
    rng.shuffle(protected)
    features = rng.uniform(0, 1, size=(len(protected), 2))
    return _dataset(features, protected)


class TestThresholdFM:
    def test_from_fraction(self):
        t = ThresholdFM.from_fraction(Fraction(1, 2))
        assert (t.f, t.m) == (1, 2)
        assert t.max_size == 3

    def test_rejects_non_lowest_terms(self):
        with pytest.raises(ContractViolationError):
            ThresholdFM(2, 4)

    def test_rejects_f_above_m(self):
        with pytest.raises(ContractViolationError):
            ThresholdFM(3, 2)


class TestVanillaDecompose:
    def test_perfectly_balanced_pairs(self):
        data = _dataset(np.arange(8.0), [0, 0, 0, 0, 1, 1, 1, 1])
        decomp = vanilla_decompose(data, T_HALF, seed=1)
        assert len(decomp) == 4
        for fl in decomp.fairlets:
            assert fl.weight == 2
            labels = data.protected[list(fl.members)]
            assert labels.sum() == 1

    def test_three_blue_six_red_forced_shape(self):
        # beta=3, rho=6, m=2 forces three fairlets of one blue plus two reds
        data = _dataset(np.arange(9.0), [1, 1, 1, 0, 0, 0, 0, 0, 0])
        decomp = vanilla_decompose(data, T_HALF, seed=5)
        assert sorted(fl.weight for fl in decomp.fairlets) == [3, 3, 3]
        for fl in decomp.fairlets:
            assert data.protected[list(fl.members)].sum() == 1

    def test_infeasible_balance_raises(self):
        data = _dataset(np.arange(10.0), [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(InfeasibilityError) as err:
            vanilla_decompose(data, T_HALF, seed=0)
        assert "3/7" in str(err.value)
        assert "1/2" in str(err.value)

    def test_f_above_one_unsupported(self):
        data = _dataset(np.arange(10.0), [1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        with pytest.raises(UnsupportedThresholdError):
            vanilla_decompose(data, ThresholdFM(2, 3), seed=0)

    def test_seed_determinism(self):
        rng = np.random.default_rng(0)
        data = _random_feasible(rng)
        a = vanilla_decompose(data, T_HALF, seed=42)
        b = vanilla_decompose(data, T_HALF, seed=42)
        assert a == b
        c = vanilla_decompose(data, T_HALF, seed=43)
        assert a != c or a.fairlets == c.fairlets  # different seed may still coincide

    def test_valid_on_random_instances(self):
        rng = np.random.default_rng(8)
        for i in range(50):
            data = _random_feasible(rng)
            decomp = vanilla_decompose(data, T_HALF, seed=i)
            report = validate(decomp, data, T_HALF)
            assert report.ok, report.violations
            assert sum(fl.weight for fl in decomp.fairlets) == data.n


class TestMcfDecompose:
    def test_single_possible_grouping(self):
        # one blue forces a single fairlet holding all three points
        data = _dataset([[0.0], [0.1], [5.0]], [1, 0, 0])
        decomp = mcf_decompose(data, T_HALF, seed=2)
        assert len(decomp) == 1
        assert decomp.fairlets[0].members == (0, 1, 2)
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
            t = ThresholdFM(1, m)
            for minority in (2, 3):
                for majority in range(minority, m * minority + 1):
                    protected = np.array([1] * minority + [0] * majority)
                    features = rng.uniform(0, 1, size=(len(protected), 2))
                    data = _dataset(features, protected)
                    decomp = mcf_decompose(data, t, seed=trial)
                    trial += 1
                    assert validate(decomp, data, t).ok

                    # rows 0..minority-1 are the anchors, the rest majority
                    dists = [
                        [distance(features[b], features[minority + r]) for r in range(majority)]
                        for b in range(minority)
                    ]
                    best = None
                    for combo in itertools.product(range(minority), repeat=majority):
                        counts = [combo.count(b) for b in range(minority)]
                        if any(c < 1 or c > m for c in counts):
                            continue
                        cost = sum(dists[b][r] for r, b in enumerate(combo))
                        if best is None or cost < best:
                            best = cost
                    achieved = 0.0
                    for fl in decomp.fairlets:
                        blue = [i for i in fl.members if data.protected[i] == 1]
                        assert len(blue) == 1
                        for i in fl.members:
                            achieved += distance(features[i], features[blue[0]])
                    assert achieved == pytest.approx(best, abs=1e-9)

    def test_cost_dominates_vanilla_on_random_instances(self):
        rng = np.random.default_rng(31)
        for i in range(50):
            data = _random_feasible(rng)
            mcf = mcf_decompose(data, T_HALF, seed=i)
            vanilla = vanilla_decompose(data, T_HALF, seed=i)
            assert validate(mcf, data, T_HALF).ok
            assert fairlet_cost(mcf, data) <= fairlet_cost(vanilla, data) + 1e-9

    def test_medoid_centers_never_cost_more(self):
        rng = np.random.default_rng(13)
        data = _random_feasible(rng)
        random_centers = mcf_decompose(data, T_HALF, seed=7, center_mode="random")
        medoid_centers = mcf_decompose(data, T_HALF, seed=7, center_mode="medoid")
        assert fairlet_cost(medoid_centers, data) <= fairlet_cost(random_centers, data)


class TestValidate:
    def test_flags_oversized_fairlet(self):
        from faircap.core import Fairlet, FairletDecomposition

        data = _dataset(np.arange(6.0), [1, 1, 0, 0, 0, 0])
        decomp = FairletDecomposition(
            fairlets=(
                Fairlet(members=(0, 2, 3, 4), center=0),
                Fairlet(members=(1, 5), center=1),
            ),
            n=6,
            threshold=Fraction(1, 2),
        )
        report = validate(decomp, data, T_HALF)
        assert not report.ok
        assert any("size" in v for v in report.violations)

    def test_flags_unbalanced_fairlet(self):
        from faircap.core import Fairlet, FairletDecomposition

        data = _dataset(np.arange(6.0), [1, 1, 1, 0, 0, 0])
        decomp = FairletDecomposition(
            fairlets=(
                Fairlet(members=(0, 1, 2), center=0),
                Fairlet(members=(3, 4, 5), center=3),
            ),
            n=6,
            threshold=Fraction(1, 2),
        )
        report = validate(decomp, data, T_HALF)
        assert not report.ok
        assert any("balance" in v for v in report.violations)

    def test_constructed_output_is_clean(self):
        rng = np.random.default_rng(1)
        data = _random_feasible(rng)
        decomp = vanilla_decompose(data, T_HALF, seed=0)
        assert validate(decomp, data, T_HALF).ok


class TestFairletCost:
    def test_duplicated_points_cost_zero(self):
        data = _dataset([[1.0], [1.0], [2.0], [2.0]], [1, 0, 1, 0])
        decomp = vanilla_decompose(data, T_HALF, seed=0)
        # pairing cannot be asserted, but a decomposition of duplicated
        # points grouped identically has zero cost; check via mcf
        decomp = mcf_decompose(data, T_HALF, seed=0)
        assert fairlet_cost(decomp, data) == 0.0

    def test_two_point_fairlet(self):
        from faircap.core import Fairlet, FairletDecomposition

        data = _dataset([[0.0], [2.0]], [1, 0])
        decomp = FairletDecomposition(
            fairlets=(Fairlet(members=(0, 1), center=0),),
            n=2,
            threshold=Fraction(1, 2),
        )
        assert fairlet_cost(decomp, data) == 2.0

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(29)
        data = _random_feasible(rng)
        decomp = mcf_decompose(data, T_HALF, seed=11)
        expected = 0.0
        for fl in decomp.fairlets:
            for m in fl.members:
                diff = data.features[m] - data.features[fl.center]
                expected += float(np.sqrt((diff**2).sum()))
        assert fairlet_cost(decomp, data) == pytest.approx(expected, rel=1e-12)


class TestJsonRoundTrip:
    def test_export_import_identity(self):
        rng = np.random.default_rng(2)
        data = _random_feasible(rng)
        decomp = vanilla_decompose(data, T_HALF, seed=9)
        text = decomposition_to_json(decomp, data)
        rebuilt = decomposition_from_json(text, data, T_HALF)
        assert rebuilt == decomp

    def test_unknown_row_id_rejected(self):
        data = _dataset(np.arange(4.0), [1, 0, 1, 0])
        bad = '[{"fairlet_id": 0, "center_row_id": "99", "member_row_ids": ["99"]}]'
        with pytest.raises(ContractViolationError):
            decomposition_from_json(bad, data, T_HALF)
