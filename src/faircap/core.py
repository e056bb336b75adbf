"""Domain types and the arithmetic every other module builds on.

The objects here are immutable values: a dataset of feature rows with one
binary protected label each, fairlet decompositions (partitions of all
rows into small balanced groups, each with a center row) and clusterings.
Operations are pure and deterministic; all randomness anywhere in the
toolkit is drawn from named substreams of a single 64-bit seed via
:func:`rng_stream`.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from typing import Any, NamedTuple, Sequence

import numpy as np

from .errors import ContractViolationError

_U64 = (1 << 64) - 1


def rng_stream(seed: int, *labels: str) -> np.random.Generator:
    """Return a generator for the substream named by ``labels``.

    Distinct label paths under the same seed yield statistically independent
    streams; identical (seed, labels) pairs yield bit-identical streams on a
    given platform. Labels are hashed with SHA-256 so the derivation does not
    depend on Python's per-process hash salt.
    """
    entropy: list[int] = [check_integer("seed", seed) & _U64]
    for label in labels:
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        entropy.append(int.from_bytes(digest[:8], "little"))
        entropy.append(int.from_bytes(digest[8:16], "little"))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def check_integer(name: str, value: Any) -> int:
    """``value`` as an int; raise unless it is a Python or NumPy integer other than a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractViolationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_real(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_epsilon(epsilon: float) -> None:
    """Raise unless the capacity slack is a finite real number >= 1 other than a bool."""
    if not (_is_real(epsilon) and isfinite(epsilon) and epsilon >= 1.0):
        raise ContractViolationError(f"epsilon must be finite and >= 1.0, got {epsilon!r}")


def check_lambda(lam: float) -> None:
    """Raise unless the decay scale is a finite positive real number other than a bool."""
    if not (_is_real(lam) and isfinite(lam) and lam > 0):
        raise ContractViolationError(f"lambda must be finite and positive, got {lam!r}")


def _int_vector(name: str, a: Any) -> np.ndarray:
    """``a`` as an int64 vector; raise unless it is 1-d of an integer dtype (bool is not)."""
    a = np.asarray(a)
    if a.ndim != 1 or a.dtype.kind not in "iu":
        raise ContractViolationError(
            f"{name} must be a 1-d integer array, got {a.dtype} of shape {a.shape}"
        )
    return a.astype(np.int64)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


def _check_partition(
    labels: np.ndarray, centers: np.ndarray, names: tuple[str, str], group: str
) -> tuple[np.ndarray, np.ndarray]:
    """Check that ``labels`` splits the rows into ``len(centers) >= 1`` nonempty
    groups and that ``centers[j]`` is a row of group j; return both as frozen
    int64 arrays. ``names`` and ``group`` name the two fields and one group in messages.
    """
    labels, centers = _int_vector(names[0], labels), _int_vector(names[1], centers)
    n, l = labels.size, centers.size
    if not l:
        raise ContractViolationError(f"no {group}s for {n} rows")
    if n and (labels.min() < 0 or labels.max() >= l):
        raise ContractViolationError(f"{group} ids must lie in 0..{l - 1}")
    empty = np.flatnonzero(np.bincount(labels, minlength=l) == 0)
    if empty.size:
        raise ContractViolationError(f"{group}s {empty.tolist()[:5]} have no rows")
    if centers.min() < 0 or centers.max() >= n:
        raise ContractViolationError(f"center rows must lie in 0..{n - 1}")
    stray = np.flatnonzero(labels[centers] != np.arange(l))
    if stray.size:
        raise ContractViolationError(
            f"{group}s {stray.tolist()[:5]} have a center that is not one of their rows"
        )
    return _frozen(labels), _frozen(centers)


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable table of feature rows plus one binary protected label per row.

    ``features`` is an (n, d) float matrix of finite values and ``protected``
    a length-n vector over {0, 1}. The squared column ranges must sum to
    less than the float maximum, and so must n times the largest |value|,
    so that distances and centroid sums stay finite. Rows are named by their
    index, which is the CSV row order for loaded data.
    """

    features: np.ndarray
    protected: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        prot = np.asarray(self.protected)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ContractViolationError(
                f"features must be a nonempty 2-d matrix, got shape {feats.shape}"
            )
        if not np.all(np.isfinite(feats)):
            raise ContractViolationError("features contain non-finite values")
        # distances add squared column differences and hier's centroids sum
        # up to n rows; both must stay finite
        with np.errstate(over="ignore"):
            spread = float(np.square(np.ptp(feats, axis=0)).sum())
            mass = feats.shape[0] * float(np.abs(feats).max())
        if not (isfinite(spread) and isfinite(mass)):
            raise ContractViolationError(
                f"features too large: the squared column ranges sum to {spread!r} and n "
                f"times the largest |value| is {mass!r}, and both must stay below the "
                f"float maximum {float(np.finfo(np.float64).max)!r}; rescale them, for "
                "example with scale = minmax"
            )
        if prot.shape != (feats.shape[0],):
            raise ContractViolationError(
                f"protected must have length {feats.shape[0]}, got shape {prot.shape}"
            )
        # checked before the int64 cast, which would truncate 0.7 to 0
        if not np.isin(prot, (0, 1)).all():
            raise ContractViolationError("protected labels must be 0 or 1")
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "protected", _frozen(prot.astype(np.int64)))

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


def balance_of(count_a: int, count_b: int) -> Fraction:
    """Min-ratio balance min(a/b, b/a) of a set with ``count_a`` members of one
    group and ``count_b`` of the other, as an exact rational.

    An empty group gives balance 0 (the maximally unfair reading; it keeps
    the min over clusters well-defined).
    """
    a, b = int(count_a), int(count_b)
    if a < 0 or b < 0:
        raise ContractViolationError("group counts must be nonnegative")
    return Fraction(min(a, b), max(a, b)) if a and b else Fraction(0)


class Fairlet(NamedTuple):
    """The size of one fairlet. Nothing in the package reads it; it is kept
    for ``perfbench/tracer.py``."""

    weight: int


@dataclass(frozen=True, eq=False)
class FairletDecomposition:
    """A partition of rows 0..n-1 into fairlets, held as two int arrays.

    ``row_to_fairlet[i]`` is the fairlet of row i and ``centers[j]`` the
    center row of fairlet j. Construction checks that there is a fairlet,
    that every fairlet has rows and that it contains its center; per-fairlet
    balance and size bounds are checked by :func:`faircap.fairlets.validate`.
    """

    row_to_fairlet: np.ndarray
    centers: np.ndarray

    def __post_init__(self) -> None:
        labels, centers = _check_partition(
            self.row_to_fairlet, self.centers, ("row_to_fairlet", "centers"), "fairlet"
        )
        object.__setattr__(self, "row_to_fairlet", labels)
        object.__setattr__(self, "centers", centers)

    @property
    def n(self) -> int:
        return self.row_to_fairlet.size

    @property
    def weights(self) -> np.ndarray:
        """Length-l array of fairlet sizes."""
        return np.bincount(self.row_to_fairlet)

    @property
    def fairlets(self) -> tuple[Fairlet, ...]:
        """One :class:`Fairlet` per fairlet, in fairlet order."""
        return tuple(map(Fairlet, self.weights.tolist()))

    def __len__(self) -> int:
        return self.centers.size


@dataclass(frozen=True, eq=False)
class Clustering:
    """A partition of rows 0..n-1 into k clusters, checked like a fairlet decomposition.

    ``assignment[i]`` is the cluster of row i and ``representatives[c]`` the
    representative row of cluster c, one of its own rows; k is ``len(representatives)``.
    """

    assignment: np.ndarray
    representatives: np.ndarray

    def __post_init__(self) -> None:
        assignment, reps = _check_partition(
            self.assignment, self.representatives, ("assignment", "representatives"), "cluster"
        )
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "representatives", reps)

    @property
    def k(self) -> int:
        return self.representatives.size

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)


@dataclass(frozen=True)
class Params:
    """User-facing knobs: cluster count, balance threshold, capacity slack, decay scale, seed."""

    k: int
    t: Fraction = Fraction(1, 2)
    epsilon: float = 1.01
    lam: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        try:
            if isinstance(self.t, bool):  # Fraction(True) is 1
                raise TypeError
            t = Fraction(self.t)
        except (TypeError, ValueError, OverflowError):
            raise ContractViolationError(f"t must be a fraction, got {self.t!r}") from None
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "k", check_integer("k", self.k))
        object.__setattr__(self, "seed", check_integer("seed", self.seed))
        if self.k < 1:
            raise ContractViolationError("k must be a positive integer")
        if not (0 < self.t <= 1):
            raise ContractViolationError(f"t must lie in (0, 1], got {self.t}")
        check_epsilon(self.epsilon)
        check_lambda(self.lam)
        if not (0 <= self.seed <= _U64):
            raise ContractViolationError("seed must fit in 64 unsigned bits")


# Cells of one blocked work matrix (a row block of pairwise_distances, a
# lockstep chunk of kmed candidates, the two work matrices of a block of
# PAM's swap screen together, a row block of medoid_index): about 1 MiB per
# 8-byte matrix, whatever the number of points.
_LOCKSTEP_CELLS = 1 << 17


def pairwise_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distance matrix between the rows of ``a`` and ``b`` (or ``a`` and itself).

    Entry (i, j) adds the squared feature differences one feature at a time,
    in column order, then takes the square root: the IEEE operations of a
    sequential loop over the features, so an entry has the same bits whichever
    other rows are computed with it, and ``pairwise_distances(x)`` is exactly
    symmetric. It runs :func:`_distance_block`, hier's one kernel for a merged
    cluster's row too, on row blocks of at most ``_LOCKSTEP_CELLS`` cells.
    Zero columns give zeros.
    """
    a = np.asarray(a, dtype=np.float64)
    b = a if b is None else np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ContractViolationError(
            "distances need two 2-d arrays with equal column counts, "
            f"got shapes {a.shape} and {b.shape}"
        )
    out = np.empty((len(a), len(b)))
    if not out.size:
        return out
    cols = np.ascontiguousarray(b.T)
    step = max(1, _LOCKSTEP_CELLS // len(b))
    scratch = np.empty((min(step, len(a)), len(b)))
    for r in range(0, len(a), step):
        block = out[r : r + step]
        _distance_block(a[r : r + step], cols, block, scratch[: len(block)])
    return out


def _distance_block(rows: np.ndarray, cols: np.ndarray, out: np.ndarray, sq: np.ndarray) -> None:
    """Write the distances between ``rows`` (r, d) and the points whose
    features ``cols`` holds feature-major (d, m) into ``out`` (r, m), with
    ``sq`` as scratch of ``out``'s shape: the first feature's squares go
    straight into ``out``, each later one's through ``sq``. Zero columns
    give zeros."""
    if not len(cols):
        out.fill(0.0)
        return
    np.subtract(rows[:, :1], cols[0], out=out)
    out *= out
    for j in range(1, len(cols)):
        np.subtract(rows[:, j : j + 1], cols[j], out=sq)
        sq *= sq
        out += sq
    np.sqrt(out, out=out)


def medoid_index(features: np.ndarray, members: Sequence[int]) -> int:
    """The member minimizing summed distance to its co-members (ties: smallest index)."""
    if np.size(members) == 0:
        raise ContractViolationError("cannot take the medoid of an empty set")
    members = np.sort(_int_vector("members", members))
    sub = np.asarray(features, dtype=np.float64)[members]
    # row blocks bound the working set; each row total is the same pairwise
    # sum as in the full |C| x |C| matrix, so the result is too
    rows = max(1, _LOCKSTEP_CELLS // len(sub))
    totals = np.concatenate(
        [pairwise_distances(sub[r : r + rows], sub).sum(axis=1) for r in range(0, len(sub), rows)]
    )
    return int(members[int(np.argmin(totals))])


def clustering_balance(clustering: Clustering, data: Dataset) -> Fraction:
    """Balance of the least balanced cluster."""
    counts = np.bincount(
        2 * clustering.assignment + data.protected, minlength=2 * clustering.k
    ).reshape(clustering.k, 2)  # (zeros, ones) per cluster
    return min(balance_of(zeros, ones) for zeros, ones in counts.tolist())


def clustering_cost(clustering: Clustering, data: Dataset) -> float:
    """Sum over rows of the distance to their cluster's representative."""
    rep_rows = data.features[clustering.representatives[clustering.assignment]]
    return float(np.linalg.norm(data.features - rep_rows, axis=1).sum())


def compose_assignment(
    delta: np.ndarray, decomp: FairletDecomposition, data: Dataset
) -> Clustering:
    """Lift a fairlet-level assignment to a row-level clustering.

    ``delta[j]`` is the integer cluster label of fairlet j. Every row lands
    in the cluster of its fairlet. Cluster labels are renumbered to 0..k-1
    in sorted order of the labels used by ``delta``; each cluster's
    representative is its medoid row, so reported costs are comparable
    across clustering methods.
    """
    fairlet_labels = _int_vector("delta", delta)
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
    return Clustering(assignment=assignment, representatives=reps)
