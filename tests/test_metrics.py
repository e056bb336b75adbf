import statistics

import numpy as np
import pytest

from faircap.baselines import pipeline
from faircap.core import Clustering, Params
from faircap.errors import ContractViolationError
from faircap.metrics import evaluate, size_dispersion
from faircap.synth import make_blobs


class TestEvaluate:
    def test_singleton_clusters(self):
        data = make_blobs(n=12, balance=1.0, clusters=2, seed=0)
        _, record, _ = pipeline("vanilla_kmedoids", data, Params(k=12, seed=0))
        assert record.cost == 0.0
        assert record.sizes == tuple([1] * 12)

    def test_sizes_sorted_descending_and_sum_to_n(self):
        data = make_blobs(n=50, balance=1.0, clusters=3, seed=4)
        _, record, _ = pipeline("hier_fair_cap_mcf", data, Params(k=3, epsilon=1.2, seed=1))
        sizes = record.sizes
        assert list(sizes) == sorted(sizes, reverse=True)
        assert sum(sizes) == 50

    def test_balance_matches_counting_oracle(self):
        data = make_blobs(n=40, balance=0.6, clusters=2, seed=7)
        clustering, record, _ = pipeline("vanilla_kmedoids", data, Params(k=4, seed=2))
        labels = clustering.assignment
        worst = 1.0
        for cid in range(clustering.k):
            grp = data.protected[labels == cid]
            ones = int(grp.sum())
            zeros = len(grp) - ones
            worst = min(
                worst, 0.0 if 0 in (zeros, ones) else min(zeros / ones, ones / zeros)
            )
        assert record.balance == pytest.approx(worst)

    def test_fair_capacitated_record_respects_q(self):
        data = make_blobs(n=60, balance=1.0, clusters=3, seed=9)
        _, record, _ = pipeline("kmed_fair_cap_vanilla", data, Params(k=3, epsilon=1.01, seed=3))
        assert max(record.sizes) <= record.q

    def test_rejects_clustering_of_another_k(self):
        # a 2-cluster clustering under Params(k=3) was once recorded as k=2
        # with q=5, the capacity of k=3
        data = make_blobs(n=12, balance=1.0, clusters=2, seed=0)
        clustering = Clustering(assignment=np.repeat([0, 1], 6), representatives=(0, 6))
        with pytest.raises(ContractViolationError, match="clustering has k=2, params k=3"):
            evaluate(clustering, data, Params(k=3), method="vanilla_kmedoids")

    def test_purity(self):
        data = make_blobs(n=30, balance=1.0, clusters=2, seed=5)
        _, a, _ = pipeline("vanilla_fairlet_kcenter", data, Params(k=2, seed=8))
        _, b, _ = pipeline("vanilla_fairlet_kcenter", data, Params(k=2, seed=8))
        assert a == b


class TestSizeDispersion:
    def test_constant_list(self):
        summary = size_dispersion([5, 5, 5, 5])
        assert set(summary.values()) == {5.0}

    def test_four_values(self):
        summary = size_dispersion([1, 2, 3, 4])
        assert summary["min"] == 1.0
        assert summary["median"] == 2.5
        assert summary["max"] == 4.0

    def test_matches_inclusive_quantile_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            sizes = rng.integers(1, 100, size=int(rng.integers(2, 30))).tolist()
            summary = size_dispersion(sizes)
            q1, q2, q3 = statistics.quantiles(sizes, n=4, method="inclusive")
            assert summary["q1"] == pytest.approx(q1)
            assert summary["median"] == pytest.approx(q2)
            assert summary["q3"] == pytest.approx(q3)
            assert summary["min"] == min(sizes)
            assert summary["max"] == max(sizes)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolationError):
            size_dispersion([])
