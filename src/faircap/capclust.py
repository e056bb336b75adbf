"""Capacity-constrained clustering of weighted fairlets.

Two algorithms operate on fairlets abstracted as weighted points, passed as
two arrays: ``positions`` (one row per fairlet: its center's features) and
``weights`` (one integer per fairlet: its cardinality). For a decomposition
``decomp`` of ``data`` these are
``data.features[[fl.center for fl in decomp.fairlets]]`` and
``np.bincount(decomp.row_to_fairlet)``.

* :func:`hierarchical_fair_capacitated` merges the closest pair of clusters
  whose combined weight stays under the capacity, skipping gated pairs until
  k clusters remain.
* :func:`kmedoids_fair_capacitated` alters the k-medoids assignment step:
  each medoid greedily claims the value-maximal set of still-unassigned
  fairlets that fits its capacity, where a fairlet's value decays
  exponentially with its distance to the medoid. Medoids are then improved
  by best-first swaps until no replacement lowers the cost.

Fairness needs no handling here: any union of fairlets keeps balance >= t,
so these routines only guard weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

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
    if epsilon < 1.0:
        raise ContractViolationError(f"epsilon must be >= 1.0, got {epsilon}")
    return int(ceil(Fraction(n) * Fraction(str(epsilon)) / k))


@dataclass(frozen=True)
class KnapsackInstance:
    """0-1 knapsack: real values, positive integer weights, integer capacity."""

    values: np.ndarray
    weights: np.ndarray
    capacity: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.int64)
        if values.shape != weights.shape or values.ndim != 1:
            raise ContractViolationError("values and weights must be equal-length vectors")
        if values.size and (not np.all(np.isfinite(values)) or values.min() < 0):
            raise ContractViolationError("values must be finite and nonnegative")
        if values.size and weights.min() < 1:
            raise ContractViolationError("weights must be positive integers")
        if self.capacity < 0:
            raise ContractViolationError("capacity must be nonnegative")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "capacity", int(self.capacity))


def knapsack_select(inst: KnapsackInstance) -> np.ndarray:
    """Indices of a maximum-value selection with total weight <= capacity.

    Exact dynamic program over the weight dimension. Ties between
    equal-value selections are broken toward smaller total weight, then the
    lexicographically smallest index set, so results are reproducible.
    """
    values, weights, capacity = inst.values, inst.weights, inst.capacity
    n = values.size
    if n == 0 or capacity == 0:
        return np.empty(0, dtype=np.int64)
    total_w = int(weights.sum())
    cap = min(capacity, total_w)
    if total_w <= capacity and values.min() > 0:
        return np.arange(n, dtype=np.int64)

    # Suffix tables: best[i][w] = (max value, min weight at that value) over
    # items i..n-1 within capacity w. Kept per-row for the backtrack walk.
    best_v: list[np.ndarray] = [np.empty(0)] * (n + 1)
    best_w: list[np.ndarray] = [np.empty(0)] * (n + 1)
    best_v[n] = np.zeros(cap + 1)
    best_w[n] = np.zeros(cap + 1, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        vi = values[i]
        wi = int(weights[i])
        nv = best_v[i + 1].copy()
        nw = best_w[i + 1].copy()
        if wi <= cap:
            take_v = best_v[i + 1][: cap + 1 - wi] + vi
            take_w = best_w[i + 1][: cap + 1 - wi] + wi
            seg_v = nv[wi:]
            seg_w = nw[wi:]
            upd = (take_v > seg_v) | ((take_v == seg_v) & (take_w < seg_w))
            seg_v[upd] = take_v[upd]
            seg_w[upd] = take_w[upd]
        best_v[i] = nv
        best_w[i] = nw

    # Walk forward preferring inclusion: among all (max value, min weight)
    # optima this yields the lexicographically smallest index set.
    selected = []
    w = cap
    target_v = best_v[0][w]
    target_w = best_w[0][w]
    for i in range(n):
        vi = values[i]
        wi = int(weights[i])
        if wi <= w:
            rest_v = best_v[i + 1][w - wi]
            rest_w = best_w[i + 1][w - wi]
            if rest_v + vi == target_v and rest_w + wi == target_w:
                selected.append(i)
                w -= wi
                target_v = rest_v
                target_w = rest_w
    return np.array(selected, dtype=np.int64)


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
    member positions). The closest pair whose combined weight fits under q
    is merged; gated pairs are skipped until the next merge changes the
    configuration. Ties break toward the smallest cluster-id pair, and a
    merged cluster keeps the smaller of the two ids. A full scan with no
    feasible pair raises an infeasibility error suggesting a looser epsilon.
    """
    positions, weights = _check_capacity_inputs(positions, weights, k, q)
    l = len(weights)
    members: dict[int, list[int]] = {i: [i] for i in range(l)}
    trace: list[dict] = []
    iteration = 0
    while len(members) > k:
        ids = sorted(members)
        cents = np.stack([_centroid(members[c], positions, weights) for c in ids])
        cluster_w = np.array([int(weights[members[c]].sum()) for c in ids])
        dmat = pairwise_distances(cents)
        c = len(ids)
        dmat[np.tril_indices(c)] = np.inf
        merged = False
        while True:
            flat = int(np.argmin(dmat))
            i, j = divmod(flat, c)
            if not np.isfinite(dmat[i, j]):
                break
            if cluster_w[i] + cluster_w[j] <= q:
                keep, absorb = ids[i], ids[j]
                members[keep] = sorted(members[keep] + members[absorb])
                del members[absorb]
                iteration += 1
                trace.append(
                    {"iteration": iteration, "event": "merge", "cost": float(dmat[i, j])}
                )
                merged = True
                break
            dmat[i, j] = np.inf
        if not merged:
            raise InfeasibilityError(
                f"no pair of the remaining {len(members)} clusters fits under "
                f"capacity {q}; rerun with a larger epsilon"
            )

    assignment = np.empty(l, dtype=np.int64)
    for cid, cluster_id in enumerate(sorted(members, key=lambda c: min(members[c]))):
        assignment[members[cluster_id]] = cid
    return HierarchicalResult(assignment=assignment, trace=tuple(trace))


def _centroid(member_idx: list[int], positions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    idx = np.asarray(member_idx, dtype=np.intp)
    w = weights[idx].astype(np.float64)
    return (positions[idx] * w[:, None]).sum(axis=0) / w.sum()


def check_weighted_points(
    positions: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validated (l, d) float positions and length-l int weights of l points."""
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
    if not np.issubdtype(weights.dtype, np.integer) or (weights < 1).any():
        raise ContractViolationError("weights must be positive integers")
    return positions, weights.astype(np.int64)


def _check_capacity_inputs(
    positions: np.ndarray, weights: np.ndarray, k: int, q: int
) -> tuple[np.ndarray, np.ndarray]:
    positions, weights = check_weighted_points(positions, weights)
    l = len(weights)
    if k < 1 or q < 1:
        raise ContractViolationError("k and q must be positive")
    if l < k:
        raise InfeasibilityError(
            f"cannot form k={k} nonempty clusters from {l} points"
        )
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


# The swap loop must converge within this many rounds per point; more
# signals a cycling cost and raises instead of looping forever.
MAX_ROUNDS_FACTOR = 10


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
    one term per point) is therefore non-increasing.
    """
    positions, weights = _check_capacity_inputs(positions, weights, k, q)
    l = len(weights)
    if not lam > 0:
        raise ContractViolationError("lambda must be positive")

    dists = pairwise_distances(positions)
    decay = np.exp(-dists / lam)

    def assign(medoids: tuple[int, ...]) -> np.ndarray:
        taken = np.full(l, -1, dtype=np.int64)
        room = np.empty(k, dtype=np.int64)
        for ci, s in enumerate(medoids):
            taken[s] = ci
            room[ci] = q - weights[s]
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
        for p in sorted(leftovers, key=lambda p: (-weights[p], p)):
            fits = np.flatnonzero(room >= weights[p])
            if fits.size:
                ci = int(fits[np.argmin(dists[p, np.asarray(medoids)[fits]])])
            else:
                ci = repair_room(int(p), taken, room, medoids)
            taken[p] = ci
            room[ci] -= weights[p]
        return taken

    def repair_room(
        p: int, taken: np.ndarray, room: np.ndarray, medoids: tuple[int, ...]
    ) -> int:
        # The greedy passes can strand a point when the slack is fragmented
        # (weight-2 items cannot fill odd gaps). Free room for it by moving
        # one assigned point, or swapping two, picking the cheapest repair.
        med = np.asarray(medoids)
        movable = [x for x in range(l) if taken[x] >= 0 and x not in medoids]
        best_key: tuple | None = None
        best_action: tuple | None = None

        def consider(key: tuple, action: tuple) -> None:
            nonlocal best_key, best_action
            if best_key is None or key < best_key:
                best_key, best_action = key, action

        for x in movable:
            c1 = int(taken[x])
            if room[c1] + weights[x] < weights[p]:
                continue
            for c2 in range(k):
                if c2 != c1 and room[c2] >= weights[x]:
                    delta = (
                        dists[x, med[c2]] - dists[x, med[c1]] + dists[p, med[c1]]
                    )
                    consider((float(delta), c1, c2, x, -1), ("move", x, c1, c2))
        if best_action is None:
            for x in movable:
                c1 = int(taken[x])
                for y in movable:
                    c2 = int(taken[y])
                    if c2 == c1:
                        continue
                    if room[c1] + weights[x] - weights[y] < weights[p]:
                        continue
                    if room[c2] + weights[y] - weights[x] < 0:
                        continue
                    delta = (
                        dists[x, med[c2]] - dists[x, med[c1]]
                        + dists[y, med[c1]] - dists[y, med[c2]]
                        + dists[p, med[c1]]
                    )
                    consider((float(delta), c1, c2, x, y), ("swap", x, y, c1, c2))
        if best_action is None:
            raise InfeasibilityError(
                f"point {p} (weight {int(weights[p])}) fits no cluster even after "
                f"single relocations; remaining capacities {room.tolist()}"
            )
        if best_action[0] == "move":
            _, x, c1, c2 = best_action
            taken[x] = c2
            room[c2] -= weights[x]
            room[c1] += weights[x]
            return c1
        _, x, y, c1, c2 = best_action
        taken[x], taken[y] = c2, c1
        room[c1] += weights[x] - weights[y]
        room[c2] += weights[y] - weights[x]
        return c1

    def cost_of(medoids: tuple[int, ...], taken: np.ndarray) -> float:
        return float(dists[np.arange(l), np.asarray(medoids)[taken]].sum())

    rng = rng_stream(seed, "capclust.kmedoids")
    medoids = tuple(sorted(int(i) for i in rng.choice(l, size=k, replace=False)))
    taken = assign(medoids)
    best_cost = cost_of(medoids, taken)
    trace: list[dict] = [{"iteration": 0, "event": "assign", "cost": best_cost}]

    max_rounds = MAX_ROUNDS_FACTOR * l
    for round_no in range(1, max_rounds + 1):
        best_swap: tuple[tuple[int, ...], np.ndarray] | None = None
        swap_cost = best_cost
        others = [p for p in range(l) if p not in medoids]
        for s in medoids:
            for o in others:
                cand = tuple(sorted([m for m in medoids if m != s] + [o]))
                try:
                    cand_taken = assign(cand)
                except InfeasibilityError:
                    continue
                c = cost_of(cand, cand_taken)
                if c < swap_cost:
                    swap_cost = c
                    best_swap = (cand, cand_taken)
        if best_swap is None:
            break
        medoids, taken = best_swap
        best_cost = swap_cost
        trace.append({"iteration": round_no, "event": "swap", "cost": best_cost})
    else:
        raise ContractViolationError(
            f"swap loop did not converge within {max_rounds} rounds"
        )

    return KMedoidsResult(assignment=taken, medoids=medoids, trace=tuple(trace))
