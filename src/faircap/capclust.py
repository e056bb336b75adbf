"""Capacity-constrained clustering of weighted fairlets.

Two algorithms operate on fairlets abstracted as weighted points, passed as
two arrays: ``positions`` (one row per fairlet: its center's features) and
``weights`` (one integer per fairlet: its cardinality). For a decomposition
``decomp`` of ``data`` these are ``data.features[decomp.centers]`` and
``decomp.weights``.

* :func:`hierarchical_fair_capacitated` repeatedly merges the pair of
  clusters with the closest centroids among those whose combined weight
  fits under the capacity, until k clusters remain.
* :func:`kmedoids_fair_capacitated` alters the k-medoids assignment step:
  each medoid greedily claims the value-maximal set of still-unassigned
  fairlets that fits its capacity, where a fairlet's value decays
  exponentially with its distance to the medoid. Medoids are then improved
  by best-first swaps until no replacement lowers the cost.

Fairness needs no handling here: any union of fairlets keeps balance >= t,
so these routines only guard weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, isfinite

import numpy as np

from .core import pairwise_distances, rng_stream
from .errors import ContractViolationError, InfeasibilityError


def capacity_threshold(n: int, k: int, epsilon: float) -> int:
    """Maximum cluster capacity ceil(n * epsilon / k).

    The product is evaluated in exact rational arithmetic (epsilon taken at
    its decimal reading) so exact multiples are not pushed over the ceiling
    by float error, e.g. n=4000, k=8, epsilon=1.01 gives 505, not 506.
    """
    if n < 1 or k < 1:
        raise ContractViolationError("n and k must be positive")
    if not (isfinite(epsilon) and epsilon >= 1.0):
        raise ContractViolationError(f"epsilon must be finite and >= 1.0, got {epsilon}")
    return int(ceil(Fraction(n) * Fraction(str(epsilon)) / k))


@dataclass(frozen=True)
class KnapsackInstance:
    """0-1 knapsack: real values, positive integer weights, integer capacity."""

    values: np.ndarray
    weights: np.ndarray
    capacity: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        weights = np.asarray(self.weights)
        if values.shape != weights.shape or values.ndim != 1:
            raise ContractViolationError("values and weights must be equal-length vectors")
        if values.size and (not np.all(np.isfinite(values)) or values.min() < 0):
            raise ContractViolationError("values must be finite and nonnegative")
        if values.size and (
            not np.issubdtype(weights.dtype, np.integer) or weights.min() < 1
        ):
            raise ContractViolationError("weights must be positive integers")
        capacity = self.capacity
        if not isinstance(capacity, (int, np.integer)) or isinstance(capacity, bool):
            raise ContractViolationError(f"capacity must be an integer, got {capacity!r}")
        if capacity < 0:
            raise ContractViolationError("capacity must be nonnegative")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights.astype(np.int64))
        object.__setattr__(self, "capacity", int(capacity))


def knapsack_select(inst: KnapsackInstance) -> np.ndarray:
    """Indices of a maximum-value selection with total weight <= capacity.

    When every item fits and every value is positive, all are taken.
    Otherwise the selection is defined by an exact dynamic program over the
    weight dimension, whose backtrack walk reads one boolean decision table
    of n * (min(capacity, total weight) + 1) bytes. Ties between equal-value
    selections are broken toward smaller total weight, then the
    lexicographically smallest index set, so results are reproducible.
    Instances with at most two distinct weights are first tried by prefix
    enumeration (:func:`_two_class_select`), which returns only a selection
    the DP would return too.
    """
    values, weights, capacity = inst.values, inst.weights, inst.capacity
    n = values.size
    if n == 0 or capacity == 0:
        return np.empty(0, dtype=np.int64)
    total_w = int(weights.sum())
    cap = min(capacity, total_w)
    if total_w <= capacity and values.min() > 0:
        return np.arange(n, dtype=np.int64)
    chosen = _two_class_select(values, weights, cap)
    if chosen is not None:
        return chosen

    # take[i, w]: taking item i reaches the optimum (max value, then min
    # weight) of items i..n-1 within capacity w, strictly or in an exact tie.
    # best_v/best_w roll that optimum back from the last item to the first.
    take = np.zeros((n, cap + 1), dtype=bool)
    best_v = np.zeros(cap + 1)
    best_w = np.zeros(cap + 1, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        wi = int(weights[i])
        if wi <= cap:
            take_v = best_v[: cap + 1 - wi] + values[i]
            take_w = best_w[: cap + 1 - wi] + wi
            seg_v, seg_w, row = best_v[wi:], best_w[wi:], take[i, wi:]
            row[:] = (take_v > seg_v) | ((take_v == seg_v) & (take_w <= seg_w))
            seg_v[row] = take_v[row]
            seg_w[row] = take_w[row]

    # Walk forward preferring inclusion: among all (max value, min weight)
    # optima this yields the lexicographically smallest index set.
    selected = []
    w = cap
    for i in range(n):
        if take[i, w]:
            selected.append(i)
            w -= int(weights[i])
    return np.array(selected, dtype=np.int64)


def _two_class_select(
    values: np.ndarray, weights: np.ndarray, capacity: int
) -> np.ndarray | None:
    """The DP's selection when the items have at most two distinct weights,
    or None when that cannot be proven here and the DP must decide.

    With weights w_a < w_b, some optimum takes the a most valuable items of
    weight w_a and the b(a) = min(n_b, (capacity - a*w_a) // w_b) most
    valuable of weight w_b, so enumerating a over prefix sums finds it. The
    selection is returned only if (1) its total beats that of every other a
    by more than ``tol``, (2) the last item it takes from each class is
    worth more than ``tol`` and (3) more than ``tol`` above the first item
    of its class left out. Every other feasible set then has a smaller
    float value under the DP's own sums, so the DP's weight and index tie
    rules never come into play.
    """
    w_a = weights.min()
    in_b = weights != w_a
    w_b = weights[in_b].max(initial=w_a)
    if (weights[in_b] != w_b).any():
        return None
    # A DP right fold, or a prefix sum plus one addition, adds at most n + 1
    # nonnegative values, so it is off from its exact value by at most about
    # (n + 1) * eps/2 * sum(values). A margin of twice the DP's error plus
    # twice the prefix sums' error, (2n + 1) * eps * sum(values), makes a win
    # in the sums below a win under the DP's float sums; 8n leaves headroom.
    tol = 8 * values.size * np.finfo(np.float64).eps * float(values.sum())
    idx_a, idx_b = np.flatnonzero(~in_b), np.flatnonzero(in_b)
    idx_a = idx_a[np.argsort(-values[idx_a], kind="stable")]
    idx_b = idx_b[np.argsort(-values[idx_b], kind="stable")]
    v_a, v_b = values[idx_a], values[idx_b]
    a = np.arange(min(idx_a.size, capacity // w_a) + 1)
    b = np.minimum(idx_b.size, (capacity - a * w_a) // w_b)
    total = np.append(0.0, np.cumsum(v_a))[a] + np.append(0.0, np.cumsum(v_b))[b]
    best = int(np.argmax(total))
    if total[best] - np.delete(total, best).max(initial=-np.inf) <= tol:
        return None
    for v, taken in ((v_a, best), (v_b, int(b[best]))):
        # values are nonnegative, so with 0 standing for "no item left out",
        # condition (3) implies condition (2)
        if taken and v[taken - 1] - np.append(v, 0.0)[taken] <= tol:
            return None
    return np.sort(np.concatenate((idx_a[:best], idx_b[: b[best]])))


@dataclass(frozen=True, eq=False)
class HierarchicalResult:
    """Fairlet-level assignment plus the merge history for auditing."""

    assignment: np.ndarray
    trace: tuple[dict, ...] = field(default=(), compare=False)


def hierarchical_fair_capacitated(
    positions: np.ndarray, weights: np.ndarray, k: int, q: int
) -> HierarchicalResult:
    """Agglomerative clustering with a capacity gate on every merge.

    Proximity is the distance between cluster centroids (weighted means of
    member positions). Each merge joins the closest pair of clusters whose
    combined weight fits under q. Ties break toward the smallest cluster-id
    pair, where a cluster's id is its smallest member index, so a merged
    cluster keeps the smaller of the two ids. When no pair of the remaining
    clusters fits, an infeasibility error suggests a looser epsilon.
    """
    positions, weights = _check_capacity_inputs(positions, weights, k, q)
    l = len(weights)
    w = weights.astype(np.float64)
    label = np.arange(l)
    cluster_w = weights.copy()
    # Singletons go through the same expression as merged centroids below,
    # so every centroid is rounded the same way.
    cents = positions * w[:, None] / w[:, None]
    # dist[i, j] for live ids i < j whose combined weight fits under q, else
    # +inf, so a row-major argmin yields the smallest feasible id pair. A merge
    # changes only the merged cluster's weight, so only its entries are re-gated.
    dist = pairwise_distances(cents)
    dist[np.tril_indices(l)] = np.inf
    dist[cluster_w[:, None] + cluster_w > q] = np.inf
    trace: list[dict] = []
    while len(trace) < l - k:
        i, j = divmod(int(np.argmin(dist)), l)
        if not np.isfinite(dist[i, j]):
            raise InfeasibilityError(
                f"no pair of the remaining {l - len(trace)} clusters fits under "
                f"capacity {q}; rerun with a larger epsilon"
            )
        trace.append({"iteration": len(trace) + 1, "event": "merge", "cost": float(dist[i, j])})
        label[label == j] = i
        cluster_w[i] += cluster_w[j]
        dist[j, :] = dist[:, j] = np.inf
        idx = np.flatnonzero(label == i)
        cents[i] = (positions[idx] * w[idx, None]).sum(axis=0) / w[idx].sum()
        alive = np.flatnonzero(label == np.arange(l))
        row = pairwise_distances(cents[i : i + 1], cents[alive])[0]
        row[cluster_w[i] + cluster_w[alive] > q] = np.inf
        below, above = alive < i, alive > i
        dist[alive[below], i] = row[below]
        dist[i, alive[above]] = row[above]
    return HierarchicalResult(
        assignment=np.unique(label, return_inverse=True)[1], trace=tuple(trace)
    )


def check_weighted_points(
    positions: np.ndarray, weights: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validated (l, d) float positions and length-l int weights of l points
    that are to form k nonempty clusters."""
    positions = np.asarray(positions, dtype=np.float64)
    weights = np.asarray(weights)
    if positions.ndim != 2:
        raise ContractViolationError(
            f"positions must be a 2-d (points, features) array, got shape {positions.shape}"
        )
    if weights.shape != (positions.shape[0],):
        raise ContractViolationError(
            f"need one weight per position row: {positions.shape[0]} rows, "
            f"weights of shape {weights.shape}"
        )
    if not np.isfinite(positions).all():
        raise ContractViolationError("positions must be finite")
    if not np.issubdtype(weights.dtype, np.integer) or (weights < 1).any():
        raise ContractViolationError("weights must be positive integers")
    if k < 1:
        raise ContractViolationError("k must be positive")
    if len(weights) < k:
        raise InfeasibilityError(f"cannot form k={k} nonempty clusters from {len(weights)} points")
    return positions, weights.astype(np.int64)


def _check_capacity_inputs(
    positions: np.ndarray, weights: np.ndarray, k: int, q: int
) -> tuple[np.ndarray, np.ndarray]:
    positions, weights = check_weighted_points(positions, weights, k)
    if q < 1:
        raise ContractViolationError("q must be positive")
    total = int(weights.sum())
    if total > k * q:
        raise InfeasibilityError(
            f"total weight {total} exceeds k*q = {k * q}; rerun with a larger epsilon"
        )
    heaviest = int(weights.max())
    if heaviest > q:
        raise InfeasibilityError(
            f"a single point of weight {heaviest} exceeds capacity {q}; "
            "rerun with a larger epsilon"
        )
    return positions, weights


def _repair_room(
    p: int, taken: np.ndarray, room: np.ndarray, med: np.ndarray, dists: np.ndarray,
    weights: np.ndarray,
) -> int:
    """Free room for stranded point ``p`` by moving one assigned non-medoid x
    from its cluster c1 to a cluster c2 with room, or, only if no move fits,
    by swapping x with a non-medoid y of c2. The greedy passes strand a point
    when the slack is fragmented (weight-2 items cannot fill odd gaps). The
    repair with the smallest key (delta, c1, c2, x[, y]) wins, delta being
    the change in medoid distance with p joining c1. Updates ``taken`` and
    ``room`` in place and returns c1.
    """
    movable = np.setdiff1d(np.flatnonzero(taken >= 0), med)
    c1 = taken[movable]
    w = weights[movable]
    to_med = dists[np.ix_(movable, med)]  # [x, c] = dists[x, med[c]]
    own = to_med[np.arange(movable.size), c1]  # dists[x, med[c1]]
    joins = dists[p, med[c1]]  # p's distance to the medoid of c1

    # Moves, one row per x and one column per target cluster c2.
    delta = to_med - own[:, None] + joins[:, None]
    ok = (
        (room[c1] + w >= weights[p])[:, None]
        & (room >= w[:, None])
        & (np.arange(len(med)) != c1[:, None])
    )
    xi, c2 = np.nonzero(ok)
    if xi.size:
        i = np.lexsort((movable[xi], c2, c1[xi], delta[xi, c2]))[0]
        x, src, dst = movable[xi[i]], c1[xi[i]], c2[i]
        taken[x] = dst
        room[dst] -= weights[x]
        room[src] += weights[x]
        return int(src)

    # Swaps, one row per x and one column per y.
    cross = to_med[:, c1]  # [x, y] = dists[x, med[taken[y]]]
    delta = cross - own[:, None] + cross.T - own + joins[:, None]
    ok = (
        (c1[:, None] != c1)
        & (room[c1][:, None] + w[:, None] - w >= weights[p])
        & (room[c1] + w - w[:, None] >= 0)
    )
    xi, yi = np.nonzero(ok)
    if not xi.size:
        raise InfeasibilityError(
            f"point {p} (weight {int(weights[p])}) fits no cluster even after "
            f"single relocations; remaining capacities {room.tolist()}"
        )
    i = np.lexsort((movable[yi], movable[xi], c1[yi], c1[xi], delta[xi, yi]))[0]
    x, y, src, dst = movable[xi[i]], movable[yi[i]], c1[xi[i]], c1[yi[i]]
    taken[x], taken[y] = dst, src
    room[src] += weights[x] - weights[y]
    room[dst] += weights[y] - weights[x]
    return int(src)


@dataclass(frozen=True, eq=False)
class KMedoidsResult:
    """Fairlet-level assignment, final medoid point indices, and the cost trace."""

    assignment: np.ndarray
    medoids: tuple[int, ...]
    trace: tuple[dict, ...] = field(default=(), compare=False)

    @property
    def cost(self) -> float:
        return float(self.trace[-1]["cost"]) if self.trace else 0.0


def kmedoids_fair_capacitated(
    positions: np.ndarray,
    weights: np.ndarray,
    k: int,
    q: int,
    lam: float,
    seed: int,
) -> KMedoidsResult:
    """Capacitated k-medoids over weighted points.

    Assignment step: medoids are processed in ascending point-index order;
    each is pre-assigned its own point, then claims the value-maximal
    knapsack of unassigned points within its remaining capacity. Points the
    knapsacks leave over are placed, heaviest first, with the nearest medoid
    that still has room; when rooms are too fragmented, the cheapest single
    relocation or swap frees room first, and only if that also fails is the
    instance declared infeasible.

    Improvement step: every (medoid, non-medoid) swap is evaluated with a
    full re-assignment and the best strictly improving swap is applied,
    until none exists. The traced cost (sum of point-to-medoid distances,
    one term per point) is therefore non-increasing, so a medoid tuple
    evaluated in an earlier round cannot improve on it and is skipped.
    """
    positions, weights = _check_capacity_inputs(positions, weights, k, q)
    # q above the total weight never binds; capped, room fits in int64 at any epsilon
    q = min(q, int(weights.sum()))
    l = len(weights)
    if not (isfinite(lam) and lam > 0):
        raise ContractViolationError(f"lambda must be finite and positive, got {lam}")

    dists = pairwise_distances(positions)
    decay = np.exp(-dists / lam)

    def assign(medoids: tuple[int, ...]) -> np.ndarray:
        med = np.asarray(medoids)
        taken = np.full(l, -1, dtype=np.int64)
        taken[med] = np.arange(k)
        room = q - weights[med]
        for ci, s in enumerate(medoids):
            cand = np.flatnonzero(taken == -1)
            if cand.size == 0:
                continue
            inst = KnapsackInstance(
                values=decay[s, cand], weights=weights[cand], capacity=int(room[ci])
            )
            chosen = cand[knapsack_select(inst)]
            taken[chosen] = ci
            room[ci] -= int(weights[chosen].sum())
        leftovers = np.flatnonzero(taken == -1)
        for p in leftovers[np.argsort(-weights[leftovers], kind="stable")]:
            fits = np.flatnonzero(room >= weights[p])
            if fits.size:
                ci = int(fits[np.argmin(dists[p, med[fits]])])
            else:
                ci = _repair_room(int(p), taken, room, med, dists, weights)
            taken[p] = ci
            room[ci] -= weights[p]
        return taken

    def cost_of(medoids: tuple[int, ...], taken: np.ndarray) -> float:
        return float(dists[np.arange(l), np.asarray(medoids)[taken]].sum())

    rng = rng_stream(seed, "capclust.kmedoids")
    medoids = tuple(sorted(int(i) for i in rng.choice(l, size=k, replace=False)))
    taken = assign(medoids)
    best_cost = cost_of(medoids, taken)
    trace: list[dict] = [{"iteration": 0, "event": "assign", "cost": best_cost}]
    # best_cost never rises and every evaluated tuple costs at least it, so
    # a tuple evaluated before (or found infeasible) can never be the
    # strictly improving swap of a later round: skip it instead of assigning.
    # Each round thus strictly lowers best_cost with a tuple first evaluated
    # in that round, so the loop ends within C(l, k) rounds and cannot cycle.
    seen = {medoids}
    for round_no in itertools.count(1):
        best_swap: tuple[tuple[int, ...], np.ndarray] | None = None
        others = [p for p in range(l) if p not in medoids]
        for s in medoids:
            for o in others:
                cand = tuple(sorted([m for m in medoids if m != s] + [o]))
                if cand in seen:
                    continue
                seen.add(cand)
                try:
                    cand_taken = assign(cand)
                except InfeasibilityError:
                    continue
                c = cost_of(cand, cand_taken)
                if c < best_cost:
                    best_cost = c
                    best_swap = (cand, cand_taken)
        if best_swap is None:
            break
        medoids, taken = best_swap
        trace.append({"iteration": round_no, "event": "swap", "cost": best_cost})
    return KMedoidsResult(assignment=taken, medoids=medoids, trace=tuple(trace))
