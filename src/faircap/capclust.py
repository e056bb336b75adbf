"""Capacity-constrained clustering of weighted fairlets.

Two algorithms operate on fairlets abstracted as weighted points, passed as
two arrays: ``positions`` (one row per fairlet: its center's features) and
``weights`` (one integer per fairlet: its cardinality). For a decomposition
``decomp`` of ``data`` these are ``data.features[decomp.centers]`` and
``decomp.weights``.

* :func:`hierarchical_fair_capacitated` repeatedly merges the pair of
  clusters with the closest centroids among those whose combined weight
  fits under the capacity, until k clusters remain. Calls on the same
  points can share a :class:`MergeLog`: a call with a capacity no larger
  than the log's replays the logged merges that fit it, since a tighter
  gate only removes pairs, and gets the results of a call without one.
* :func:`kmedoids_fair_capacitated` alters the k-medoids assignment step:
  each medoid greedily claims the value-maximal set of still-unassigned
  fairlets that fits its capacity, where a fairlet's value decays
  exponentially with its distance to the medoid. Medoids are then improved
  by the best strictly improving swap per round until no replacement lowers
  the cost.

Both return a :class:`StageResult` ``(assignment, trace)``, as do the
stages of :mod:`faircap.baselines`.

Fairness needs no handling here: any union of fairlets keeps balance >= t,
so these routines only guard weights.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil
from typing import NamedTuple

import numpy as np

from .core import (
    _LOCKSTEP_CELLS,
    check_epsilon,
    check_integer,
    check_lambda,
    pairwise_distances,
    rng_stream,
)
from .errors import ContractViolationError, InfeasibilityError


def capacity_threshold(n: int, k: int, epsilon: float) -> int:
    """Maximum cluster capacity ceil(n * epsilon / k).

    The product is evaluated in exact rational arithmetic (epsilon taken at
    its decimal reading) so exact multiples are not pushed over the ceiling
    by float error, e.g. n=4000, k=8, epsilon=1.01 gives 505, not 506.
    """
    n, k = check_integer("n", n), check_integer("k", k)
    if n < 1 or k < 1:
        raise ContractViolationError(f"n and k must be positive, got n={n}, k={k}")
    check_epsilon(epsilon)
    return int(ceil(Fraction(n) * Fraction(str(epsilon)) / k))


def knapsack_select(values: np.ndarray, weights: np.ndarray, capacity: int) -> np.ndarray:
    """Indices of a maximum-value selection of items (real values, positive
    integer weights) with total weight <= capacity.

    When every item fits and every value is positive, all are taken (none
    of an empty instance): a rule of the definition, not a shortcut, since
    the DP can drop an item whose value vanishes in a float sum (1e-20 beside
    1.0). Otherwise :func:`_knapsack_rows` decides, on one row.
    """
    values, weights = np.asarray(values, dtype=np.float64), np.asarray(weights)
    if values.shape != weights.shape or values.ndim != 1:
        raise ContractViolationError("values and weights must be equal-length vectors")
    if values.size and (not np.all(np.isfinite(values)) or values.min() < 0):
        raise ContractViolationError("values must be finite and nonnegative")
    if values.size and (not np.issubdtype(weights.dtype, np.integer) or weights.min() < 1):
        raise ContractViolationError("weights must be positive integers")
    if check_integer("capacity", capacity) < 0:
        raise ContractViolationError("capacity must be nonnegative")
    total_w = int(weights.sum())
    if total_w <= capacity and (values > 0).all():
        return np.arange(values.size, dtype=np.int64)
    free, cap = np.ones((1, values.size), dtype=bool), np.array([min(capacity, total_w)])
    return np.flatnonzero(_knapsack_rows(values[None], free, weights.astype(np.int64), cap))


def _knapsack_rows(
    values: np.ndarray, free: np.ndarray, weights: np.ndarray, cap: np.ndarray
) -> np.ndarray:
    """The exact knapsack DP of many rows at once, as a boolean (rows,
    points) mask of the selected points. Row i selects among the points
    ``free[i]``, point p worth ``values[i, p]`` and weighing ``weights[p]``,
    within capacity ``cap[i]``, at most the row's free weight: the most
    value, then the least weight, then the lexicographically smallest index
    set, with the float operations of a DP over the row's free points alone.
    The update and the walk are masked by ``free``, not by zero values:
    under float rounding a point worth 0 can join an optimum. The decision
    table, (points x rows x (max cap + 1)) bytes, is filled in row blocks of
    at most ``8 * _LOCKSTEP_CELLS`` bytes.
    """
    top = int(cap.max())
    items = np.flatnonzero(free.any(axis=0) & (weights <= top))  # the points some row can take
    chosen = np.zeros(free.shape, dtype=bool)
    step = max(1, 8 * _LOCKSTEP_CELLS // max(1, items.size * (top + 1)))
    for start in range(0, len(cap), step):
        rows = slice(start, start + step)
        b = len(cap[rows])
        # take[t, r, w]: taking point items[t] reaches row r's optimum (max
        # value, then min weight) of points items[t:] within capacity w,
        # strictly or in an exact tie. best_v/best_w roll that optimum back
        # from the last point to the first.
        take = np.zeros((items.size, b, top + 1), dtype=bool)
        best_v, best_w = np.zeros((b, top + 1)), np.zeros((b, top + 1), dtype=np.int64)
        for t in range(items.size - 1, -1, -1):
            p = items[t]
            wi = int(weights[p])
            take_v = best_v[:, : top + 1 - wi] + values[rows, p, None]
            take_w = best_w[:, : top + 1 - wi] + wi
            seg_v, seg_w, row = best_v[:, wi:], best_w[:, wi:], take[t, :, wi:]
            row[:] = (take_v > seg_v) | ((take_v == seg_v) & (take_w <= seg_w))
            row &= free[rows, p, None]
            np.copyto(seg_v, take_v, where=row)
            np.copyto(seg_w, take_w, where=row)
        # Walk forward preferring inclusion: among all (max value, min
        # weight) optima this yields the lexicographically smallest index set.
        w, r = cap[rows].astype(np.int64), np.arange(b)
        for t, p in enumerate(items):
            chosen[rows, p] = sel = take[t, r, w]
            w -= sel * weights[p]
    return chosen


class StageResult(NamedTuple):
    """What every clustering stage returns: one cluster label per fairlet
    and the stage's events (hier's merges; kmed's initial assignment and each
    swap; none for PAM and k-center)."""

    assignment: np.ndarray
    trace: tuple[dict, ...]


class MergeLog:
    """The merges of one :func:`hierarchical_fair_capacitated` run, kept for
    later runs on the same points to replay.

    Capacities here are working ones, min(q, total weight). Gating by a
    smaller capacity only removes pairs, so the closest pair feasible under
    the log's q is also the closest feasible under any smaller q whenever
    its merged weight fits q: a run with q no larger than the log's repeats
    the logged merges up to the first one heavier than q, its own l - k
    merges, or the end of the log, with the same results as a run from
    singletons. A run that merges on past that point replaces the rest of
    the log with its own merges and q; a run with a larger q than the log's
    replays nothing. A k-sweep, whose q falls as k rises, creates one log
    per set of points and passes it to each k's call in ascending order.
    """

    def __init__(self) -> None:
        self.positions: np.ndarray | None = None  # the points, set by the first run
        self.weights: np.ndarray | None = None
        self.q = 0
        self.pairs: list[tuple[int, int]] = []  # (i, j): j merged into i
        self.loads: list[int] = []  # the merged cluster's weight
        self.costs: list[float] = []

    def start(self, positions: np.ndarray, weights: np.ndarray, q: int, limit: int) -> int:
        """The number of leading merges, at most ``limit``, that a run on
        these points with working capacity q repeats from this log; a run
        that merges past them cuts the log there and records q. Raises
        :class:`ContractViolationError` for a log of other points."""
        if self.positions is None:
            self.positions, self.weights = positions.copy(), weights.copy()
        elif not (
            np.array_equal(self.positions, positions) and np.array_equal(self.weights, weights)
        ):
            raise ContractViolationError("the merge log was recorded on other points")
        fits = [load <= q for load in self.loads[:limit]] if q <= self.q else []
        done = (fits + [False]).index(False)
        if done < limit:
            del self.pairs[done:], self.loads[done:], self.costs[done:]
            self.q = q
        return done


def hierarchical_fair_capacitated(
    positions: np.ndarray, weights: np.ndarray, k: int, q: int, merges: MergeLog | None = None
) -> StageResult:
    """Agglomerative clustering with a capacity gate on every merge.

    Proximity is the distance between cluster centroids (weighted means of
    member positions). Each merge joins the closest pair of clusters whose
    combined weight fits under q. Ties break toward the smallest cluster-id
    pair, where a cluster's id is its smallest member index, so a merged
    cluster keeps the smaller of the two ids. When no pair of the remaining
    clusters fits, an infeasibility error suggests a looser epsilon.

    ``merges``, a :class:`MergeLog` the caller keeps, lets calls on the same
    points share merges; passing it never changes the result.
    """
    positions, weights, q = _check_capacity_inputs(positions, weights, k, q)
    l = len(weights)
    log = MergeLog() if merges is None else merges
    done = log.start(positions, weights, q, l - k)
    w = weights.astype(np.float64)
    weighted = positions * w[:, None]
    # Singletons go through the same expression as merged centroids below,
    # so every centroid is rounded the same way.
    cents = weighted / w[:, None]
    # the replayed merges: each point's cluster id, found by following
    # merged-into links (ids only fall) to a live id, and each live merged
    # cluster's weight and centroid
    pairs = np.array(log.pairs[:done], dtype=np.int64).reshape(-1, 2)
    label = np.arange(l)
    label[pairs[:, 1]] = pairs[:, 0]
    while (label[label] != label).any():
        label = label[label]
    live = label == np.arange(l)
    load = np.bincount(label, weights, minlength=l).astype(np.int64)
    for i in np.flatnonzero(live & (load > weights)):
        cents[i] = weighted[label == i].sum(axis=0) / load[i]
    room = np.where(live, q - load, -1)  # -1 once merged away
    if done < l - k:
        # dist[i, j] for live ids i != j whose combined weight fits under q,
        # else +inf. The matrix is symmetric, so the first row-major
        # occurrence of its minimum lies above the diagonal: argmin yields
        # the smallest feasible id pair, as over the upper triangle alone. A
        # merge changes only the merged cluster's weight, so only its
        # entries are re-gated.
        dist = pairwise_distances(cents)
        np.fill_diagonal(dist, np.inf)
        dist[(q - room)[:, None] > room] = np.inf
        while len(log.pairs) < l - k:
            i, j = divmod(int(dist.argmin()), l)
            if not np.isfinite(dist[i, j]):
                raise InfeasibilityError(
                    f"no pair of the remaining {l - len(log.pairs)} clusters fits under "
                    f"capacity {q}; rerun with a larger epsilon"
                )
            merged = int(2 * q - room[i] - room[j])
            log.pairs.append((i, j))
            log.loads.append(merged)
            log.costs.append(float(dist[i, j]))
            label[label == j] = i
            cents[i] = weighted[label == i].sum(axis=0) / merged
            room[i], room[j] = q - merged, -1
            row = pairwise_distances(cents[i : i + 1], cents)[0]
            row[room < merged] = np.inf  # j and every other id merged away included
            row[i] = np.inf
            dist[i] = dist[:, i] = row
            dist[j] = dist[:, j] = np.inf
    trace = tuple(
        {"iteration": t + 1, "event": "merge", "cost": cost}
        for t, cost in enumerate(log.costs[: l - k])
    )
    return StageResult(np.unique(label, return_inverse=True)[1], trace)


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
    if check_integer("k", k) < 1:
        raise ContractViolationError("k must be positive")
    if len(weights) < k:
        raise InfeasibilityError(f"cannot form k={k} nonempty clusters from {len(weights)} points")
    return positions, weights.astype(np.int64)


def _check_capacity_inputs(
    positions: np.ndarray, weights: np.ndarray, k: int, q: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """The checked points and the working capacity min(q, total weight), which fits int64."""
    positions, weights = check_weighted_points(positions, weights, k)
    if check_integer("q", q) < 1:
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
    return positions, weights, min(q, total)


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
    assigned = taken >= 0
    assigned[med] = False
    movable = np.flatnonzero(assigned)
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


class _ClassRanks(NamedTuple):
    """The points of one weight class, ranked for every medoid once per run:
    ``order[s]`` lists them by (-decay[s, p], p) and ``values[s]`` holds
    their decay values in that order."""

    weight: int
    order: np.ndarray
    values: np.ndarray


def _rank_classes(decay: np.ndarray, weights: np.ndarray) -> list[_ClassRanks] | None:
    """Ranks of the (at most two) weight classes, lighter first, or None when
    there are three or more and every knapsack goes to the DP."""
    classes = np.flatnonzero(np.bincount(weights))
    if classes.size > 2:
        return None
    ranks = []
    for w in classes:
        idx = np.flatnonzero(weights == w)
        # a stable sort of a class ranks any subset of it (a row's free
        # points) as a stable sort of the subset's values alone would
        order = idx[np.argsort(-decay[:, idx], axis=1, kind="stable")]
        ranks.append(_ClassRanks(int(w), order, np.take_along_axis(decay, order, axis=1)))
    return ranks


def _two_class_rows(
    free: np.ndarray, cap: np.ndarray, s: np.ndarray, ranks: list[_ClassRanks]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The selection the DP of :func:`_knapsack_rows` makes, for each of
    many knapsacks whose points have at most two distinct weights, where it
    can be proven here; the other rows are left to the DP.

    Row i selects among its free points ``free[i]``, point
    ``ranks[c].order[s[i], j]`` being worth ``ranks[c].values[s[i], j]``,
    with capacity ``cap[i]``, already capped at the free weight. With
    weights w_a < w_b, some optimum takes the a most valuable free points of
    weight w_a and the b(a) = min(n_b, (cap - a*w_a) // w_b) most valuable
    of weight w_b, so enumerating a over prefix sums finds it. Each class's
    free points are compacted in rank order, as far as the capacity reaches
    plus the first one left out, to form those sums. A row is certified
    only if (1) its best total beats that of every other a by more than
    ``tol``, (2) the last point it takes from each class is worth more than
    ``tol`` and (3) more than ``tol`` above the first point of its class
    left out. Every other feasible set then has a smaller float value under
    the DP's own sums, so the DP's weight and index tie rules never come
    into play. A row with free points of one class only is certified with
    the other class empty, which the same argument covers. Returns
    (certified rows, row and point of each selected pair of a certified
    row, selected weight per row).
    """
    m, l = free.shape
    rows = np.arange(m)
    width = min(
        max(rank.order.shape[1] for rank in ranks), int(cap.max()) // ranks[0].weight + 1
    )
    blocks = []  # per class: compacted points, their values, count, value sum
    for rank in ranks:
        order, values = rank.order[s], rank.values[s]
        f = np.take(free, order + (rows * l)[:, None])
        seq = np.cumsum(f, axis=1)
        keep = f & (seq <= width)
        slot = (seq + (rows * width - 1)[:, None])[keep]
        points, ranked = np.zeros(m * width, dtype=np.int64), np.zeros(m * width)
        points[slot], ranked[slot] = order[keep], values[keep]
        blocks.append((
            points.reshape(m, width), ranked.reshape(m, width), seq[:, -1],
            np.einsum("ij,ij->i", values, f),
        ))
    if len(blocks) == 1:  # one weight class in the run: the other is empty
        points, values, count, total = blocks[0]
        blocks.append((points, np.zeros_like(values), np.zeros_like(count), 0 * total))
    (pts_a, v_a, n_a, sum_a), (pts_b, v_b, n_b, sum_b) = blocks
    w_a, w_b = ranks[0].weight, ranks[-1].weight
    # A DP right fold, or a prefix sum plus one addition, adds at most n + 1
    # nonnegative values, so it is off from its exact value by at most about
    # (n + 1) * eps/2 * sum(values). A margin of twice the DP's error plus
    # twice the prefix sums' error, (2n + 1) * eps * sum(values), makes a win
    # in the sums below a win under the DP's float sums; 8n leaves headroom,
    # which also covers taking the value sum in rank order, not index order.
    tol = 8 * (n_a + n_b) * np.finfo(np.float64).eps * (sum_a + sum_b)
    a_max = np.minimum(n_a, cap // w_a)
    a = np.arange(a_max.max() + 1)
    b = np.clip((cap[:, None] - a * w_a) // w_b, 0, n_b[:, None])
    zero = np.zeros((m, 1))
    prefix_a = np.cumsum(np.hstack((zero, v_a)), axis=1)
    prefix_b = np.cumsum(np.hstack((zero, v_b)), axis=1)
    total = prefix_a[:, : a.size] + np.take_along_axis(prefix_b, b, axis=1)
    total[a > a_max[:, None]] = -np.inf
    take_a = total.argmax(axis=1)
    top = total[rows, take_a]
    total[rows, take_a] = -np.inf
    ok = top - total.max(axis=1) > tol
    take_b = b[rows, take_a]
    for v, taken in ((v_a, take_a), (v_b, take_b)):
        # 0 stands for "no point left out"; values are nonnegative, so (3) implies (2)
        v = np.hstack((v, zero))
        ok &= (taken == 0) | (v[rows, taken - 1] - v[rows, taken] > tol)
    slots = np.arange(width)
    ra, ca = np.nonzero(ok[:, None] & (slots < take_a[:, None]))
    rb, cb = np.nonzero(ok[:, None] & (slots < take_b[:, None]))
    return (
        ok,
        np.concatenate((ra, rb)),
        np.concatenate((pts_a[ra, ca], pts_b[rb, cb])),
        take_a * w_a + take_b * w_b,
    )


def _assign_lockstep(
    cands: np.ndarray, q: int, decay: np.ndarray, dists: np.ndarray,
    weights: np.ndarray, ranks: list[_ClassRanks] | None,
) -> tuple[np.ndarray, np.ndarray, InfeasibilityError | None]:
    """The assignment step for every row of ``cands`` (sorted medoid tuples,
    one per row) at once; returns (``taken`` per row, cost per row, +inf for
    a row found infeasible, the error of the first such row or None). Each
    row ends exactly as a lone assignment would: position by position, a row
    whose free points all fit takes them, a row certified by
    :func:`_two_class_rows` takes its selection (none if ``ranks`` is None),
    and the position's other rows claim through one :func:`_knapsack_rows`
    call; leftovers are placed row by row.
    """
    r_count, k = cands.shape
    l = len(weights)
    taken = np.full((r_count, l), -1, dtype=np.int64)
    taken[np.arange(r_count)[:, None], cands] = np.arange(k)
    room = q - weights[cands]
    for j in range(k):
        # room starts at k*q less the medoids' weight, and a claim lowers
        # the free weight and its medoid's room alike
        free_w = int(weights.sum()) - k * q + room.sum(axis=1)
        s, cap = cands[:, j], np.minimum(room[:, j], free_w)
        live = cap > 0
        fit = np.flatnonzero(live & (free_w <= cap))
        # every free point fits: take them all, unless one is worth 0
        fit = fit[~((taken[fit] == -1) & (decay[s[fit]] == 0)).any(axis=1)]
        taken[fit] = np.where(taken[fit] == -1, j, taken[fit])
        room[fit, j] -= free_w[fit]
        live[fit] = False
        rest = np.flatnonzero(live)
        if ranks is not None and rest.size:
            ok, sel_rows, sel_points, sel_w = _two_class_rows(
                taken[rest] == -1, cap[rest], s[rest], ranks
            )
            taken[rest[sel_rows], sel_points] = j
            room[rest[ok], j] -= sel_w[ok]
            rest = rest[~ok]
        if rest.size:
            chosen = _knapsack_rows(decay[s[rest]], taken[rest] == -1, weights, cap[rest])
            sel_rows, sel_points = np.nonzero(chosen)
            taken[rest[sel_rows], sel_points] = j
            room[rest, j] -= chosen @ weights

    error = None
    for r in np.flatnonzero((taken == -1).any(axis=1)):
        row, row_room, med = taken[r], room[r], cands[r]
        leftovers = np.flatnonzero(row == -1)
        try:
            for p in leftovers[np.argsort(-weights[leftovers], kind="stable")]:
                fits = np.flatnonzero(row_room >= weights[p])
                if fits.size:
                    ci = int(fits[np.argmin(dists[p, med[fits]])])
                else:
                    ci = _repair_room(int(p), row, row_room, med, dists, weights)
                row[p] = ci
                row_room[ci] -= weights[p]
        except InfeasibilityError as exc:
            error = error or exc
    done = (taken >= 0).all(axis=1)
    cost = np.full(r_count, np.inf)
    medoid_of = np.take_along_axis(cands[done], taken[done], axis=1)
    cost[done] = dists[np.arange(l), medoid_of].sum(axis=1)
    return taken, cost, error


def kmedoids_fair_capacitated(
    positions: np.ndarray,
    weights: np.ndarray,
    k: int,
    q: int,
    lam: float,
    seed: int,
) -> StageResult:
    """Capacitated k-medoids over weighted points.

    Assignment step: medoids are processed in ascending point-index order;
    each is pre-assigned its own point, then claims the value-maximal
    knapsack of unassigned points within its remaining capacity. Points the
    knapsacks leave over are placed, heaviest first, with the nearest medoid
    that still has room; when rooms are too fragmented, the cheapest single
    relocation or swap frees room first; if that also fails, the medoid
    tuple strands a point and costs +inf. :func:`_assign_lockstep` is this
    step, for the initial sample (one row) and for each round's candidate
    tuples together, as if one by one. A stranding sample has no ``assign``
    event; the search runs on and raises its error if no swap costs less.

    Improvement step: every (medoid, non-medoid) swap is evaluated with a
    full re-assignment and the best strictly improving swap is applied,
    until none exists. The traced cost (sum of point-to-medoid distances,
    one term per point) therefore falls strictly from round to round, so no
    medoid tuple is applied twice and the loop ends. A round skips the swaps
    that undo the last one, which are the previous round's candidates and
    medoids: none of them can cost less than that round reached.
    """
    positions, weights, q = _check_capacity_inputs(positions, weights, k, q)
    l = len(weights)
    check_lambda(lam)

    dists = pairwise_distances(positions)
    decay = np.exp(-dists / lam)

    rng = rng_stream(seed, "capclust.kmedoids")
    medoids = np.sort(rng.choice(l, size=k, replace=False))
    ranks = _rank_classes(decay, weights)
    # the initial sample is a one-row block
    taken, cost, error = _assign_lockstep(medoids[None], q, decay, dists, weights, ranks)
    taken, best_cost = taken[0], float(cost[0])
    trace = [] if error is not None else [{"iteration": 0, "event": "assign", "cost": best_cost}]
    chunk = max(1, _LOCKSTEP_CELLS // l)
    removed = added = -1  # the last swap's points; none before the first
    for round_no in itertools.count(1):
        # row (pos, o) swaps medoids[pos] for the non-medoid o. Any tuple
        # assigned in an earlier round costs at least that round's best and
        # best_cost never rises, so assigning it again never makes the
        # strict-< swap. The rows that undo the last swap are such tuples,
        # one round old, and are skipped; older repeats are assigned again.
        pos, o = np.divmod(np.arange(k * (l - k)), l - k)
        o = np.delete(np.arange(l), medoids)[o]
        keep = (medoids[pos] != added) & (o != removed)
        pos, o = pos[keep], o[keep]
        cands = np.repeat(medoids[None], pos.size, axis=0)
        cands[np.arange(pos.size), pos] = o
        cands.sort(axis=1)
        # the swap is the first row of least cost below best_cost: a
        # sequential scan with a strict <
        best_row = None
        for start in range(0, len(cands), chunk):
            cand_taken, cost, _ = _assign_lockstep(
                cands[start : start + chunk], q, decay, dists, weights, ranks
            )
            i = int(np.argmin(cost))
            if cost[i] < best_cost:
                best_cost, best_row = float(cost[i]), start + i
                taken = cand_taken[i].copy()
        if best_row is None:
            break
        removed, added = medoids[pos[best_row]], o[best_row]
        medoids = cands[best_row].copy()
        trace.append({"iteration": round_no, "event": "swap", "cost": best_cost})
    if not trace:  # neither the sample nor any swap placed every point
        raise error
    return StageResult(taken, tuple(trace))
