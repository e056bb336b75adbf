import numpy as np
import pytest

from faircap.errors import ContractViolationError
from faircap.ingest import DatasetSpec, dataset_balance, load_csv
from faircap.synth import make_blobs, minority_count, write_csv


class TestMinorityCount:
    def test_even_split(self):
        assert minority_count(100, 1.0) == 50

    def test_quarter(self):
        assert minority_count(100, 0.25) == 20

    def test_never_empty(self):
        assert minority_count(10, 0.01) == 1

    def test_bad_balance(self):
        with pytest.raises(ContractViolationError):
            minority_count(10, 0.0)
        with pytest.raises(ContractViolationError):
            minority_count(10, 1.5)


class TestMakeBlobs:
    def test_requested_counts(self):
        data = make_blobs(n=100, balance=1.0, seed=0)
        assert sorted(data.group_counts()) == [50, 50]
        data = make_blobs(n=100, balance=0.25, seed=0)
        assert sorted(data.group_counts()) == [20, 80]

    def test_balance_within_one_count_of_request(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(10, 300))
            balance = float(rng.uniform(0.2, 1.0))
            data = make_blobs(n=n, balance=balance, seed=int(rng.integers(1 << 16)))
            minority = min(data.group_counts())
            ideal = n * balance / (1 + balance)
            assert abs(minority - ideal) <= 1

    def test_blobs_split_rows_evenly(self):
        data = make_blobs(n=100, clusters=3, noise=0.0, seed=1)
        # zero noise puts each row exactly on its blob center, in blob order
        _, first, counts = np.unique(data.features, axis=0, return_index=True, return_counts=True)
        assert counts[np.argsort(first)].tolist() == [34, 33, 33]

    def test_rejects_fewer_than_two_rows(self):
        for n in (-5, 0, 1):
            with pytest.raises(ContractViolationError, match="need at least 2 rows"):
                make_blobs(n=n)

    def test_rejects_fewer_than_one_cluster(self):
        for clusters in (0, -2):
            with pytest.raises(ContractViolationError, match="clusters must be positive"):
                make_blobs(n=20, clusters=clusters)

    def test_rejects_counts_that_are_not_integers(self):
        # a float n or clusters once failed with a raw TypeError while sizing the blobs
        for kwargs, name in (
            ({"n": 20.5}, "n"), ({"n": True}, "n"), ({"n": 20, "clusters": 2.5}, "clusters"),
        ):
            with pytest.raises(ContractViolationError, match=f"{name} must be an integer"):
                make_blobs(seed=1, **kwargs)
        assert make_blobs(n=np.int64(20), clusters=np.int64(2), seed=1).n == 20

    def test_rejects_noise_not_finite_and_nonnegative(self):
        # a negative noise once wrote mirrored blobs without complaint, and
        # nan or inf failed only at the Dataset's feature check
        for noise in (-1.0, -1e-9, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ContractViolationError, match="noise must be finite and nonnegative"):
                make_blobs(n=20, noise=noise, seed=1)
        assert make_blobs(n=20, noise=0, seed=1).n == 20

    def test_deterministic(self):
        a = make_blobs(n=40, balance=0.8, seed=5)
        b = make_blobs(n=40, balance=0.8, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.protected, b.protected)


class TestWriteBlobsCsv:
    def test_reload_matches_request(self, tmp_path):
        path = write_csv(tmp_path / "blobs.csv", make_blobs(n=120, balance=0.5, seed=3))
        data = load_csv(DatasetSpec(path=path, protected_column="group"))
        assert data.n == 120
        minority = min(data.group_counts())
        ideal = 120 * 0.5 / 1.5
        assert abs(minority - ideal) <= 1
        assert float(dataset_balance(data)) == pytest.approx(
            minority / (120 - minority)
        )

    def test_reload_preserves_protected_labels(self, tmp_path):
        generated = make_blobs(n=30, balance=1.0, seed=9)
        path = write_csv(tmp_path / "blobs.csv", generated)
        data = load_csv(DatasetSpec(path=path, protected_column="group"))
        assert np.array_equal(data.protected, generated.protected)
