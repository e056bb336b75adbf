"""Domain types and the arithmetic every other module builds on.

The objects here are immutable values: a dataset of feature rows with one
binary protected label each, fairlets (small balanced groups of rows),
decompositions (partitions of all rows into fairlets) and clusterings.
Operations are pure and deterministic; all randomness anywhere in the
toolkit is drawn from named substreams of a single 64-bit seed via
:func:`rng_stream`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ContractViolationError

_U64 = (1 << 64) - 1


def rng_stream(seed: int, *labels: str | int) -> np.random.Generator:
    """Return a generator for the substream named by ``labels``.

    Distinct label paths under the same seed yield statistically independent
    streams; identical (seed, labels) pairs yield bit-identical streams on a
    given platform. Labels are hashed with SHA-256 so the derivation does not
    depend on Python's per-process hash salt.
    """
    entropy: list[int] = [int(seed) & _U64]
    for label in labels:
        if isinstance(label, int):
            entropy.append(label & _U64)
        else:
            digest = hashlib.sha256(label.encode("utf-8")).digest()
            entropy.append(int.from_bytes(digest[:8], "little"))
            entropy.append(int.from_bytes(digest[8:16], "little"))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable table of feature rows plus one binary protected label per row.

    ``features`` is an (n, d) float matrix of finite values, ``protected`` a
    length-n vector over {0, 1}, and ``row_ids`` stable external identifiers
    (CSV row order by default).
    """

    features: np.ndarray
    protected: np.ndarray
    row_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        prot = np.asarray(self.protected, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ContractViolationError(
                f"features must be a nonempty 2-d matrix, got shape {feats.shape}"
            )
        if not np.all(np.isfinite(feats)):
            raise ContractViolationError("features contain non-finite values")
        if prot.shape != (feats.shape[0],):
            raise ContractViolationError(
                f"protected must have length {feats.shape[0]}, got shape {prot.shape}"
            )
        if not np.isin(prot, (0, 1)).all():
            raise ContractViolationError("protected labels must be 0 or 1")
        if len(self.row_ids) != feats.shape[0]:
            raise ContractViolationError("row_ids length must match the row count")
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "protected", _frozen(prot))
        object.__setattr__(self, "row_ids", tuple(str(r) for r in self.row_ids))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def group_counts(self) -> tuple[int, int]:
        """Counts of protected labels (zeros, ones)."""
        ones = int(self.protected.sum())
        return self.n - ones, ones


@dataclass(frozen=True)
class BalanceRatio:
    """Two group counts and their min-ratio balance.

    ``value`` is min(numerator/denominator, denominator/numerator) as an exact
    rational, with the convention that an empty group gives balance 0 (the
    maximally unfair reading; it keeps the min over clusters well-defined).
    """

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.numerator < 0 or self.denominator < 0:
            raise ContractViolationError("group counts must be nonnegative")

    @property
    def value(self) -> Fraction:
        if self.numerator == 0 or self.denominator == 0:
            return Fraction(0)
        return min(
            Fraction(self.numerator, self.denominator),
            Fraction(self.denominator, self.numerator),
        )

    def __float__(self) -> float:
        return float(self.value)


def balance_of(count_a: int, count_b: int) -> BalanceRatio:
    """Balance of a set with ``count_a`` members of one group and ``count_b`` of the other."""
    return BalanceRatio(int(count_a), int(count_b))


def subset_balance(protected: np.ndarray, indices: Sequence[int]) -> BalanceRatio:
    labels = np.asarray(protected)[np.asarray(indices, dtype=np.intp)]
    ones = int(labels.sum())
    return balance_of(len(labels) - ones, ones)


@dataclass(frozen=True)
class Fairlet:
    """A small set of rows whose balance already meets the threshold, plus a center row."""

    members: tuple[int, ...]
    center: int

    def __post_init__(self) -> None:
        members = tuple(sorted(int(m) for m in self.members))
        if not members:
            raise ContractViolationError("a fairlet must have at least one member")
        if len(set(members)) != len(members):
            raise ContractViolationError("fairlet members must be distinct")
        if int(self.center) not in members:
            raise ContractViolationError(
                f"fairlet center {self.center} is not one of its members"
            )
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "center", int(self.center))

    @property
    def weight(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class FairletDecomposition:
    """A partition of rows 0..n-1 into fairlets, with the row-to-fairlet map.

    Construction verifies the partition property; per-fairlet balance and
    size bounds are checked by :func:`faircap.fairlets.validate`.
    """

    fairlets: tuple[Fairlet, ...]
    n: int
    threshold: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "fairlets", tuple(self.fairlets))
        object.__setattr__(self, "threshold", Fraction(self.threshold))
        covered = np.full(self.n, -1, dtype=np.int64)
        total = 0
        for j, fairlet in enumerate(self.fairlets):
            for m in fairlet.members:
                if m < 0 or m >= self.n:
                    raise ContractViolationError(
                        f"fairlet {j} references row {m} outside 0..{self.n - 1}"
                    )
                if covered[m] != -1:
                    raise ContractViolationError(
                        f"row {m} appears in fairlets {covered[m]} and {j}"
                    )
                covered[m] = j
            total += fairlet.weight
        if total != self.n:
            missing = np.flatnonzero(covered == -1)
            raise ContractViolationError(
                f"fairlets cover {total} of {self.n} rows; missing rows {missing.tolist()[:5]}"
            )
        object.__setattr__(self, "_row_to_fairlet", _frozen(covered))

    _row_to_fairlet: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def row_to_fairlet(self) -> np.ndarray:
        """Length-n array mapping each row index to its fairlet index."""
        return self._row_to_fairlet

    def __len__(self) -> int:
        return len(self.fairlets)


@dataclass(frozen=True, eq=False)
class Clustering:
    """An assignment of rows to k clusters with one representative row per cluster."""

    assignment: np.ndarray
    representatives: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=np.int64)
        if assignment.ndim != 1 or assignment.size == 0:
            raise ContractViolationError("assignment must be a nonempty 1-d array")
        if self.k < 1:
            raise ContractViolationError("k must be positive")
        if assignment.min() < 0 or assignment.max() >= self.k:
            raise ContractViolationError("cluster ids must lie in [0, k)")
        sizes = np.bincount(assignment, minlength=self.k)
        if (sizes == 0).any():
            empty = np.flatnonzero(sizes == 0).tolist()
            raise ContractViolationError(f"clusters {empty} are empty")
        if len(self.representatives) != self.k:
            raise ContractViolationError("one representative per cluster is required")
        object.__setattr__(self, "assignment", _frozen(assignment))
        object.__setattr__(
            self, "representatives", tuple(int(r) for r in self.representatives)
        )

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)

    def members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == cluster_id)


@dataclass(frozen=True)
class Params:
    """User-facing knobs: cluster count, balance threshold, capacity slack, decay scale, seed."""

    k: int
    t: Fraction = Fraction(1, 2)
    epsilon: float = 1.01
    lam: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", Fraction(self.t))
        if self.k < 1:
            raise ContractViolationError("k must be a positive integer")
        if not (0 < self.t <= 1):
            raise ContractViolationError(f"t must lie in (0, 1], got {self.t}")
        if self.epsilon < 1.0:
            raise ContractViolationError(f"epsilon must be >= 1.0, got {self.epsilon}")
        if not (self.lam > 0):
            raise ContractViolationError(f"lambda must be positive, got {self.lam}")
        if not (0 <= self.seed <= _U64):
            raise ContractViolationError("seed must fit in 64 unsigned bits")


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two feature vectors of equal dimension."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractViolationError(
            f"dimension mismatch: {a.shape} vs {b.shape}"
        )
    return float(np.linalg.norm(a - b))


def pairwise_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distance matrix between the rows of ``a`` and ``b`` (or ``a`` and itself)."""
    a = np.asarray(a, dtype=np.float64)
    b = a if b is None else np.asarray(b, dtype=np.float64)
    return cdist(a, b)


def medoid_index(features: np.ndarray, members: Sequence[int]) -> int:
    """The member minimizing summed distance to its co-members (ties: smallest index)."""
    members = np.asarray(sorted(int(m) for m in members), dtype=np.intp)
    if members.size == 0:
        raise ContractViolationError("cannot take the medoid of an empty set")
    sub = np.asarray(features, dtype=np.float64)[members]
    totals = pairwise_distances(sub).sum(axis=1)
    return int(members[int(np.argmin(totals))])


def clustering_balance(clustering: Clustering, data: Dataset) -> BalanceRatio:
    """Balance of the least balanced cluster."""
    worst: BalanceRatio | None = None
    for cid in range(clustering.k):
        labels = data.protected[clustering.assignment == cid]
        ones = int(labels.sum())
        ratio = balance_of(len(labels) - ones, ones)
        if worst is None or ratio.value < worst.value:
            worst = ratio
    assert worst is not None
    return worst


def clustering_cost(clustering: Clustering, data: Dataset) -> float:
    """Sum over rows of the distance to their cluster's representative."""
    reps = np.asarray(clustering.representatives, dtype=np.intp)
    rep_rows = data.features[reps[clustering.assignment]]
    return float(np.linalg.norm(data.features - rep_rows, axis=1).sum())


def compose_assignment(
    delta: np.ndarray, decomp: FairletDecomposition, data: Dataset
) -> Clustering:
    """Lift a fairlet-level assignment to a row-level clustering.

    ``delta[j]`` is the cluster label of fairlet j. Every row lands in the
    cluster of its fairlet. Cluster labels are renumbered to 0..k-1 in
    sorted order of the labels used by ``delta``; each cluster's
    representative is its medoid row, so reported costs are comparable
    across clustering methods.
    """
    fairlet_labels = np.asarray(delta, dtype=np.int64)
    if fairlet_labels.shape != (len(decomp),):
        raise ContractViolationError(
            f"delta must assign all {len(decomp)} fairlets, got shape {fairlet_labels.shape}"
        )
    distinct, relabeled = np.unique(fairlet_labels, return_inverse=True)
    k = len(distinct)
    assignment = relabeled[decomp.row_to_fairlet]
    reps = tuple(
        medoid_index(data.features, np.flatnonzero(assignment == cid))
        for cid in range(k)
    )
    return Clustering(assignment=assignment, representatives=reps, k=k)
