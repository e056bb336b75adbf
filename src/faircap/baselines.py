"""Comparison pipelines: plain k-medoids, fairlet pipelines with greedy
k-center, and the wiring that runs any method end to end.

Every method in :data:`METHODS` decomposes the rows into fairlets ("mcf":
flow-optimized, "vanilla": cost-agnostic, "rows": one singleton fairlet per
row), clusters the fairlets as weighted points in one stage ("hier":
capacity-gated merging, "kmed": knapsack k-medoids, "kcenter": greedy
k-center, "pam": plain k-medoids), lifts the labels to the rows with
:func:`~faircap.core.compose_assignment` and evaluates the result. PAM is
the stage over singleton fairlets: it clusters the raw rows, with no
fairness or capacity handling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import capclust, fairlets
from .core import (
    _LOCKSTEP_CELLS,
    Clustering,
    Dataset,
    FairletDecomposition,
    Params,
    compose_assignment,
    pairwise_distances,
    rng_stream,
)
from .errors import ContractViolationError
from .metrics import RunRecord, evaluate

# method name -> (fairlet decomposition, clustering stage)
METHODS: dict[str, tuple[str, str]] = {
    "hier_fair_cap_mcf": ("mcf", "hier"),
    "hier_fair_cap_vanilla": ("vanilla", "hier"),
    "kmed_fair_cap_mcf": ("mcf", "kmed"),
    "kmed_fair_cap_vanilla": ("vanilla", "kmed"),
    "mcf_fairlet_kcenter": ("mcf", "kcenter"),
    "vanilla_fairlet_kcenter": ("vanilla", "kcenter"),
    "vanilla_kmedoids": ("rows", "pam"),
}


def kmedoids_vanilla(
    positions: np.ndarray, weights: np.ndarray, k: int, seed: int
) -> np.ndarray:
    """Plain PAM: seeded medoid sample, nearest-medoid assignment, then the
    best strictly improving (medoid, non-medoid) swap per round until a local
    optimum. No fairness or capacity handling.

    Each round screens every (medoid, non-medoid) pair in one pass, from each
    point's nearest and second-nearest medoid distance (FastPAM1, Schubert &
    Rousseeuw, SISAP 2019), then recomputes exactly the pairs whose screened
    cost lies near the minimum. The swap is the exactly cheapest pair, first
    by medoid position and then by non-medoid index, if it costs strictly
    less than the current medoids.

    Weights are ignored: the points are the singleton fairlets of the raw
    rows. Returns the point-level assignment, with labels 0..k-1 in medoid
    order.
    """
    positions, _ = capclust.check_weighted_points(positions, weights, k)
    n = len(positions)
    dists = pairwise_distances(positions)
    rng = rng_stream(seed, "baselines.kmedoids")
    medoids = sorted(int(i) for i in rng.choice(n, size=k, replace=False))

    best = float(dists[:, medoids].min(axis=1).sum())
    # A swap cost sums n nonnegative terms, each at most its column's entry,
    # so any float summation order is off from the exact cost by at most
    # about n * eps/2 times the largest column sum. The screen adds up three
    # such sums; tol bounds the gap between a screened and an exact cost with
    # headroom, so a pair screened out is never the exactly cheapest.
    tol = 8 * n * np.finfo(np.float64).eps * float(dists.sum(axis=0).max())
    block = max(1, _LOCKSTEP_CELLS // n)
    kept_buf, lost_buf = np.empty((2, min(block, n), n))
    while n > k:
        to_medoids = dists[:, medoids]
        near = np.argmin(to_medoids, axis=1)
        ranked = np.sort(to_medoids, axis=1)
        dn = ranked[:, 0]
        ds = ranked[:, 1] if k > 1 else np.full(n, np.inf)
        # removing medoid pos leaves point i at dn_i, or at ds_i if pos was
        # its nearest: screen[pos, o] sums min(that, d_io) over the points
        member = np.zeros((k, n))
        member[near, np.arange(n)] = 1.0
        screen = np.empty((k, n))
        for c in range(0, n, block):
            # distances are symmetric, so row block c holds column block c
            # and is contiguous
            rows = dists[c : c + block]
            kept = np.minimum(dn, rows, out=kept_buf[: len(rows)])
            lost = np.minimum(ds, rows, out=lost_buf[: len(rows)])
            lost -= kept
            screen[:, c : c + block] = kept.sum(axis=1) + member @ lost.T
        screen[:, medoids] = np.inf
        low = float(screen.min())
        if low > best + tol:
            break
        swap: tuple[int, int] | None = None
        pos_of, o_of = np.nonzero(screen <= low + 2 * tol)
        for pos in np.flatnonzero(np.bincount(pos_of)).tolist():
            others = o_of[pos_of == pos]
            floor = np.where(near == pos, ds, dn)
            costs = _swap_costs(dists, floor, others)
            o_pos = int(np.argmin(costs))
            if costs[o_pos] < best:
                best = float(costs[o_pos])
                swap = (pos, int(others[o_pos]))
        if swap is None:
            break
        pos, o = swap
        medoids = sorted(medoids[:pos] + medoids[pos + 1 :] + [o])

    assignment = np.argmin(dists[:, medoids], axis=1)
    assignment[medoids] = np.arange(k)  # coincident medoids each keep their own row
    return assignment


def _swap_costs(dists: np.ndarray, floor: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Exact cost of swapping each of ``others`` in, for the medoid whose
    removal leaves point i at distance ``floor[i]``.

    ``dists[:, others]`` is gathered column-major, so each column is summed
    on its own (pairwise): a column's cost is the same bits whichever other
    columns are gathered with it, including none.
    """
    return np.minimum(floor[:, None], dists[:, others]).sum(axis=0)


def kcenter_greedy(
    positions: np.ndarray, weights: np.ndarray, k: int, seed: int
) -> np.ndarray:
    """Gonzalez farthest-first traversal over fairlet centers.

    Weights are ignored for center selection; the first center is sampled by
    the seeded stream and each point lands with its nearest center. Returns
    the fairlet-level assignment, with labels 0..k-1 in center order.
    """
    positions, _ = capclust.check_weighted_points(positions, weights, k)
    l = len(positions)
    dists = pairwise_distances(positions)
    rng = rng_stream(seed, "baselines.kcenter")
    centers = [int(rng.integers(l))]
    nearest = dists[:, centers[0]].copy()
    nearest[centers[0]] = -1  # a chosen center is never picked again
    while len(centers) < k:
        nxt = int(np.argmax(nearest))
        centers.append(nxt)
        nearest = np.minimum(nearest, dists[:, nxt])
        nearest[nxt] = -1
    assignment = np.argmin(dists[:, centers], axis=1)
    assignment[centers] = np.arange(k)  # coincident centers each keep their own point
    return assignment


def decompose(
    flavor: str, data: Dataset, t: Fraction, seed: int
) -> FairletDecomposition:
    """Build the fairlet decomposition named by ``flavor``: "mcf", "vanilla",
    or "rows" for one singleton fairlet per row."""
    if flavor == "rows":
        rows = np.arange(data.n)
        return FairletDecomposition(row_to_fairlet=rows, centers=rows)
    build = fairlets.mcf_decompose if flavor == "mcf" else fairlets.vanilla_decompose
    return build(data, t, seed)


@dataclass(frozen=True, eq=False)
class PipelineResult:
    clustering: Clustering
    record: RunRecord
    trace: tuple[dict, ...]


def pipeline(
    method: str,
    data: Dataset,
    params: Params,
    decomposition: FairletDecomposition | None = None,
) -> PipelineResult:
    """Run one method end to end and evaluate the resulting clustering.

    ``decomposition`` lets a sweep reuse one decomposition across k values;
    it must equal what the method would compute itself (same data, t, seed),
    so passing it never changes the result.
    """
    if method not in METHODS:
        raise ContractViolationError(
            f"unknown method {method!r}; expected one of {tuple(METHODS)}"
        )
    flavor, stage = METHODS[method]
    if decomposition is None:
        decomposition = decompose(flavor, data, params.t, params.seed)
    positions = data.features[decomposition.centers]
    weights = decomposition.weights
    trace: tuple[dict, ...] = ()
    if stage == "pam":
        delta = kmedoids_vanilla(positions, weights, params.k, params.seed)
    elif stage == "kcenter":
        delta = kcenter_greedy(positions, weights, params.k, params.seed)
    else:
        q = capclust.capacity_threshold(data.n, params.k, params.epsilon)
        if stage == "hier":
            delta, trace = capclust.hierarchical_fair_capacitated(positions, weights, params.k, q)
        else:
            delta, trace = capclust.kmedoids_fair_capacitated(
                positions, weights, params.k, q, params.lam, params.seed
            )
    clustering = compose_assignment(delta, decomposition, data)
    record = evaluate(clustering, data, params, method=method)
    return PipelineResult(clustering=clustering, record=record, trace=trace)
