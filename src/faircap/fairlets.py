"""Fairlet decomposition: split a dataset into minimal balanced groups.

Two constructions are provided. ``vanilla_decompose`` is cost-agnostic: it
pairs each minority point with a block of majority points in seed-shuffled
order. ``mcf_decompose`` is cost-aware: an exact transportation solver
groups the majority points around the minority anchors at the least total
member-to-anchor distance over all one-anchor-per-fairlet groupings. The
``mcf`` name is kept from the min-cost-flow formulation of Chierichetti et
al. (NeurIPS 2017), which this grouping solves exactly for t = 1/m.

Both support thresholds of the form t = 1/m only; that covers the t = 0.5
setting used throughout the experiment harness. Each fairlet's center is
a uniformly sampled member, drawn from the seeded stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    Dataset,
    FairletDecomposition,
    balance_of,
    pairwise_distances,
    rng_stream,
)
from .errors import ContractViolationError, InfeasibilityError


def _in_range(t: Fraction) -> Fraction:
    t = Fraction(t)
    if not (0 < t <= 1):
        raise ContractViolationError(f"t must lie in (0, 1], got {t}")
    return t


def check_threshold(t: Fraction) -> Fraction:
    """``t`` as a Fraction; raise unless 0 < t <= 1 and t = 1/m, the only
    shape the decompositions handle."""
    t = _in_range(t)
    if t.numerator != 1:
        raise ContractViolationError(f"only thresholds 1/m are supported, got {t}")
    return t


def _split_groups(data: Dataset, t: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """Minority and majority row indices, after feasibility and shape checks."""
    t = check_threshold(t)
    zeros = np.flatnonzero(data.protected == 0)
    ones = np.flatnonzero(data.protected == 1)
    if len(zeros) == 0 or len(ones) == 0:
        raise InfeasibilityError(
            "dataset has a single protected group; no decomposition exists for t > 0"
        )
    minority, majority = (zeros, ones) if len(zeros) <= len(ones) else (ones, zeros)
    achieved = Fraction(len(minority), len(majority))
    if achieved < t:
        raise InfeasibilityError(
            f"dataset balance {achieved} (= {float(achieved):.4f}) is below the "
            f"required threshold {t}"
        )
    return minority, majority


def _from_groups(group: np.ndarray, seed: int, stream: str) -> FairletDecomposition:
    """The decomposition whose fairlet ids are ``group`` (one per row).

    Each group's center is a seeded uniform draw among its rows, drawn in
    group-id order; the fairlets are then renumbered by their smallest row.
    """
    rng = rng_stream(seed, stream, "centers")
    by_group = np.argsort(group, kind="stable")  # rows ascending within each group
    sizes = np.bincount(group)
    starts = np.cumsum(sizes) - sizes
    centers = by_group[starts + [int(rng.integers(size)) for size in sizes.tolist()]]
    order = np.argsort(by_group[starts])  # groups by smallest row
    return FairletDecomposition(row_to_fairlet=np.argsort(order)[group], centers=centers[order])


def vanilla_decompose(data: Dataset, t: Fraction, seed: int) -> FairletDecomposition:
    """Cost-agnostic decomposition: one fairlet per minority point.

    Both groups are shuffled by the seeded stream; fairlet i takes minority
    point i plus a contiguous block of the shuffled majority, block sizes
    floor(rho/beta) or ceil(rho/beta). Feasibility (balance >= 1/m)
    guarantees every block fits under m.
    """
    minority, majority = _split_groups(data, t)
    rng = rng_stream(seed, "fairlets.vanilla")
    blues = minority[rng.permutation(len(minority))]
    reds = majority[rng.permutation(len(majority))]
    beta = len(blues)
    base, extra = divmod(len(reds), beta)
    group = np.empty(data.n, dtype=np.int64)
    group[blues] = np.arange(beta)
    group[reds] = np.repeat(np.arange(beta), base + (np.arange(beta) < extra))
    return _from_groups(group, seed, "fairlets.vanilla")


def _least_moves(cost: np.ndarray, members: np.ndarray, load: np.ndarray, anchors) -> np.ndarray:
    """Row j: the least cost[i, k] - cost[i, a] over the first load[j]
    members i of anchor a = anchors[j], for every anchor k (inf if none)."""
    gain = cost[members]
    gain -= cost[members, np.asarray(anchors)[:, None]][:, :, None]
    gain[np.arange(members.shape[1]) >= load[:, None]] = np.inf
    return gain.min(1)


def _least_cost_grouping(cost: np.ndarray, m: int) -> np.ndarray:
    """The anchor of each majority point in a least-cost grouping.

    ``cost[i, a]`` is point i's distance to anchor a (rho points, beta
    anchors, beta <= rho <= beta*m). Every point joins one anchor, every
    anchor takes 1 to m points, and the total distance is the least possible.

    The problem is a transportation problem. Each anchor takes exactly m
    units: its points plus beta*m - rho interchangeable dummy units that
    cost nothing, at most m-1 of them per anchor, which is the lower bound.
    Points start at their nearest anchor, at most m each (nearest first),
    and the dummies fill the room that is left. Then each unplaced point or
    dummy takes a shortest path to an anchor with room, by successive
    shortest paths (Jonker & Volgenant, Computing 38, 1987) over beta + 1
    nodes: the anchors, and as node beta the pool of dummies, which never
    has room and where an unplaced dummy starts. A path step moves one point
    from anchor j to anchor k at the least d(i, k) - d(i, j) over the points
    i of j, or one dummy from an anchor that holds one into the pool, or
    from the pool to an anchor that holds fewer than m-1, at cost 0;
    ``moves[j, k]`` is that cost, inf where no step exists. The solver keeps
    one potential ``v`` per node, so that every reduced step moves[j, k] +
    v_j - v_k is non-negative, and Dijkstra settles the nodes tied at the
    least label together. When no unit is left unplaced, the potentials are
    a feasible dual solution that meets complementary slackness with the
    grouping, and by LP duality the grouping is optimal.
    """
    rho, beta = cost.shape
    inf = np.inf
    points = np.arange(rho)
    nearest = cost.argmin(1)
    order = np.lexsort((cost[points, nearest], nearest))
    by_anchor = nearest[order]
    rank = points - np.searchsorted(by_anchor, by_anchor)
    kept = rank < m
    anchor = np.full(rho, -1)
    anchor[order[kept]] = by_anchor[kept]
    members = np.zeros((beta, m), dtype=np.int64)
    members[by_anchor[kept], rank[kept]] = order[kept]
    load = np.bincount(by_anchor[kept], minlength=beta)
    room = np.where(load > 0, m - load, m - 1)
    fill = np.argsort(load == 0, kind="stable")
    dummies = np.zeros(beta, dtype=np.int64)
    dummies[fill] = np.clip(beta * m - rho - (np.cumsum(room[fill]) - room[fill]), 0, room[fill])

    pool = beta  # the node of the dummy pool
    dummy = -1  # an unplaced dummy's source, which starts on the pool
    start = beta + 1  # a path's first step, from its unplaced point
    moves = np.full((beta + 1, beta + 1), inf)
    moves[:beta, :beta] = _least_moves(cost, members, load, np.arange(beta))
    moves[:beta, pool] = np.where(dummies > 0, 0, inf)
    moves[pool, :beta] = np.where(dummies < m - 1, 0, inf)
    v = np.zeros(beta + 1)
    has_room = np.append(load + dummies < m, False)  # the pool never has room
    sources = [dummy] * (beta * m - rho - int(dummies.sum())) + np.flatnonzero(anchor < 0).tolist()
    for src in sources:
        unsettled = np.ones(beta + 1, dtype=bool)
        reach = np.zeros(beta + 1)
        pred = np.full(beta + 1, start)
        if src == dummy:
            labels = np.full(beta + 1, inf)
            labels[pool] = 0.0
        else:
            labels = np.append(cost[src] - v[:beta], inf)
            labels -= labels.min()
        while True:
            j = int(labels.argmin())
            low = labels[j]
            if has_room[j]:
                target, dist = j, low
                break
            tied = labels == low
            if np.count_nonzero(tied) > 1:
                tied = tied.nonzero()[0]
                open_ = tied[has_room[tied]]
                if len(open_):
                    target, dist = int(open_[0]), low
                    break
                steps = moves[tied] + v[tied, None]
                best = steps.argmin(0)
                cand = steps[best, np.arange(beta + 1)] - v + low
                via = tied[best]
            else:
                tied = via = j
                cand = moves[j] - v
                cand += low + v[j]
            unsettled[tied] = False
            labels[tied] = inf
            reach[tied] = low
            better = cand < labels
            better &= unsettled
            np.copyto(labels, cand, where=better)
            np.copyto(pred, via, where=better)
        settled = ~unsettled
        v[settled] += reach[settled] - dist

        changed = []
        cur = target
        while cur != (pool if src == dummy else start):
            p = int(pred[cur])
            if pool in (p, cur):  # a dummy joins cur from the pool, or leaves p for it
                k, step = (cur, 1) if p == pool else (p, -1)
                dummies[k] += step
                moves[k, pool] = 0 if dummies[k] else inf
                moves[pool, k] = 0 if dummies[k] < m - 1 else inf
            else:
                if p == start:
                    i = src
                else:
                    mem = members[p, : load[p]]
                    pos = int((cost[mem, cur] - cost[mem, p]).argmin())
                    i = int(mem[pos])
                    load[p] -= 1
                    members[p, pos] = members[p, load[p]]
                    changed.append(p)
                members[cur, load[cur]] = i
                load[cur] += 1
                anchor[i] = cur
                changed.append(cur)
            cur = p
        has_room[target] = load[target] + dummies[target] < m  # no other count changed
        moves[changed, :beta] = _least_moves(cost, members[changed], load[changed], changed)
    return anchor


def mcf_decompose(data: Dataset, t: Fraction, seed: int) -> FairletDecomposition:
    """Cost-aware decomposition: a least-cost grouping around minority anchors.

    Each minority point anchors one fairlet, and each majority point joins
    one anchor, so that every anchor takes between 1 and m majority points
    at the least total majority-to-anchor Euclidean distance; see
    :func:`_least_cost_grouping` for the exact solver.
    """
    minority, majority = _split_groups(data, t)
    cost = pairwise_distances(data.features[majority], data.features[minority])
    group = np.empty(data.n, dtype=np.int64)
    group[minority] = np.arange(len(minority))
    group[majority] = _least_cost_grouping(cost, Fraction(t).denominator)
    return _from_groups(group, seed, "fairlets.mcf")


def fairlet_cost(decomp: FairletDecomposition, data: Dataset) -> float:
    """Sum over fairlets of member-to-center distances."""
    centers = data.features[decomp.centers[decomp.row_to_fairlet]]
    return float(np.linalg.norm(data.features - centers, axis=1).sum())


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of auditing a decomposition; ``violations`` is empty when valid."""

    violations: tuple[str, ...]


def validate(
    decomp: FairletDecomposition, data: Dataset, t: Fraction
) -> ValidationReport:
    """Check the row count, the size bound f+m and per-fairlet balance
    against any t = f/m in (0, 1].

    The partition property holds by construction of the decomposition.
    Raises only for t outside (0, 1]; every violation is listed in the report.
    """
    t = _in_range(t)
    f, m = t.numerator, t.denominator
    if decomp.n != data.n:
        return ValidationReport(
            violations=(f"decomposition covers {decomp.n} rows, dataset has {data.n}",)
        )
    sizes = decomp.weights
    ones = np.bincount(decomp.row_to_fairlet[data.protected == 1], minlength=len(decomp))
    zeros = sizes - ones
    oversized = sizes > f + m
    # balance min(zeros, ones) / max(zeros, ones) < f/m, in integers
    unbalanced = m * np.minimum(zeros, ones) < f * np.maximum(zeros, ones)
    violations: list[str] = []
    for j in np.flatnonzero(oversized | unbalanced).tolist():
        if oversized[j]:
            violations.append(f"fairlet {j}: size {sizes[j]} exceeds bound {f + m}")
        if unbalanced[j]:
            bal = balance_of(zeros[j], ones[j])
            violations.append(f"fairlet {j}: balance {bal} below threshold {t}")
    return ValidationReport(violations=tuple(violations))


def decomposition_to_json(decomp: FairletDecomposition) -> str:
    """Serialize for audit/replay as the decomposition's two arrays."""
    return json.dumps(
        {"row_to_fairlet": decomp.row_to_fairlet.tolist(), "centers": decomp.centers.tolist()}
    )


def decomposition_from_json(text: str) -> FairletDecomposition:
    """Rebuild a decomposition exported by :func:`decomposition_to_json`.

    Malformed text, a key that is not a list of int64 integers, and arrays
    that :class:`FairletDecomposition` rejects raise
    :class:`ContractViolationError`.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContractViolationError(f"decomposition is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ContractViolationError("decomposition must be a JSON object")
    arrays = {}
    for key in ("row_to_fairlet", "centers"):
        values = obj.get(key)
        if not isinstance(values, list) or not all(
            type(v) is int and -(2**63) <= v < 2**63 for v in values
        ):
            raise ContractViolationError(f"decomposition's {key} must be a list of int64 integers")
        arrays[key] = np.array(values, dtype=np.int64)
    return FairletDecomposition(**arrays)
