"""Comparison pipelines: plain k-medoids, fairlet pipelines with greedy
k-center, and the wiring that runs any method end to end.

The seven method names accepted by :func:`pipeline`:

========================  ====================================================
vanilla_kmedoids          k-medoids on the raw points, no fairness or capacity
vanilla_fairlet_kcenter   cost-agnostic fairlets, then greedy k-center
mcf_fairlet_kcenter       flow-optimized fairlets, then greedy k-center
hier_fair_cap_vanilla     cost-agnostic fairlets, capacity-gated merging
hier_fair_cap_mcf         flow-optimized fairlets, capacity-gated merging
kmed_fair_cap_vanilla     cost-agnostic fairlets, knapsack k-medoids
kmed_fair_cap_mcf         flow-optimized fairlets, knapsack k-medoids
========================  ====================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import capclust, fairlets
from .core import (
    Clustering,
    Dataset,
    FairletDecomposition,
    Params,
    compose_assignment,
    medoid_index,
    pairwise_distances,
    rng_stream,
)
from .errors import ContractViolationError, InfeasibilityError
from .metrics import RunRecord, evaluate

METHODS = (
    "hier_fair_cap_mcf",
    "hier_fair_cap_vanilla",
    "kmed_fair_cap_mcf",
    "kmed_fair_cap_vanilla",
    "mcf_fairlet_kcenter",
    "vanilla_fairlet_kcenter",
    "vanilla_kmedoids",
)

FAIR_CAPACITATED_METHODS = (
    "hier_fair_cap_mcf",
    "hier_fair_cap_vanilla",
    "kmed_fair_cap_mcf",
    "kmed_fair_cap_vanilla",
)


def kmedoids_vanilla(data: Dataset, k: int, seed: int) -> Clustering:
    """Plain PAM: seeded medoid sample, nearest-medoid assignment, then the
    best strictly improving (medoid, non-medoid) swap per round until a local
    optimum. No fairness or capacity handling."""
    n = data.n
    if n < k:
        raise InfeasibilityError(f"cannot form k={k} nonempty clusters from {n} rows")
    dists = pairwise_distances(data.features)
    rng = rng_stream(seed, "baselines.kmedoids")
    medoids = sorted(int(i) for i in rng.choice(n, size=k, replace=False))

    def total_cost(meds: list[int]) -> float:
        return float(dists[:, meds].min(axis=1).sum())

    best = total_cost(medoids)
    improved = True
    while improved:
        improved = False
        others = [o for o in range(n) if o not in medoids]
        if not others:
            break
        best_swap: tuple[int, int] | None = None
        swap_cost = best
        cols = dists[:, medoids]
        for pos in range(k):
            rest = np.delete(cols, pos, axis=1)
            floor = rest.min(axis=1) if rest.shape[1] else np.full(n, np.inf)
            costs = np.minimum(floor[:, None], dists[:, others]).sum(axis=0)
            o_pos = int(np.argmin(costs))
            if costs[o_pos] < swap_cost:
                swap_cost = float(costs[o_pos])
                best_swap = (pos, others[o_pos])
        if best_swap is not None:
            pos, o = best_swap
            medoids = sorted(medoids[:pos] + medoids[pos + 1 :] + [o])
            best = swap_cost
            improved = True

    assignment = np.argmin(dists[:, medoids], axis=1)
    reps = tuple(
        medoid_index(data.features, np.flatnonzero(assignment == cid))
        for cid in range(k)
    )
    return Clustering(assignment=assignment, representatives=reps, k=k)


def kcenter_greedy(
    positions: np.ndarray, weights: np.ndarray, k: int, seed: int
) -> np.ndarray:
    """Gonzalez farthest-first traversal over fairlet centers.

    Weights are ignored for center selection; the first center is sampled by
    the seeded stream and each point lands with its nearest center. Returns
    the fairlet-level assignment.
    """
    positions, _ = capclust.check_weighted_points(positions, weights)
    l = len(positions)
    if l < k:
        raise InfeasibilityError(f"cannot form k={k} nonempty clusters from {l} points")
    dists = pairwise_distances(positions)
    rng = rng_stream(seed, "baselines.kcenter")
    centers = [int(rng.integers(l))]
    nearest = dists[:, centers[0]].copy()
    while len(centers) < k:
        nxt = int(np.argmax(nearest))
        centers.append(nxt)
        nearest = np.minimum(nearest, dists[:, nxt])
    return np.argmin(dists[:, centers], axis=1)


def fairlet_flavor(method: str) -> str | None:
    """The decomposition a method clusters: "mcf", "vanilla", or None for
    ``vanilla_kmedoids``, which clusters the raw rows."""
    if method == "vanilla_kmedoids":
        return None
    return "mcf" if method.endswith("_mcf") or method.startswith("mcf_") else "vanilla"


def decompose(
    flavor: str, data: Dataset, threshold: fairlets.ThresholdFM, seed: int
) -> FairletDecomposition:
    """Build the fairlet decomposition named by ``flavor``."""
    build = fairlets.mcf_decompose if flavor == "mcf" else fairlets.vanilla_decompose
    return build(data, threshold, seed)


@dataclass(frozen=True, eq=False)
class PipelineResult:
    clustering: Clustering
    record: RunRecord
    decomposition: FairletDecomposition | None = None
    trace: tuple[dict, ...] = field(default=(), compare=False)


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
            f"unknown method {method!r}; expected one of {METHODS}"
        )
    started = time.perf_counter()
    trace: tuple[dict, ...] = ()

    flavor = fairlet_flavor(method)
    if flavor is None:
        decomposition = None
        clustering = kmedoids_vanilla(data, params.k, params.seed)
    else:
        if decomposition is None:
            threshold = fairlets.ThresholdFM.from_fraction(params.t)
            decomposition = decompose(flavor, data, threshold, params.seed)
        positions = data.features[[fl.center for fl in decomposition.fairlets]]
        weights = np.bincount(decomposition.row_to_fairlet)
        if method.endswith("kcenter"):
            delta = kcenter_greedy(positions, weights, params.k, params.seed)
        else:
            q = capclust.capacity_threshold(data.n, params.k, params.epsilon)
            if method.startswith("hier"):
                hier = capclust.hierarchical_fair_capacitated(
                    positions, weights, params.k, q
                )
                delta, trace = hier.assignment, hier.trace
            else:
                kmed = capclust.kmedoids_fair_capacitated(
                    positions, weights, params.k, q, params.lam, params.seed
                )
                delta, trace = kmed.assignment, kmed.trace
        clustering = compose_assignment(delta, decomposition, data)

    wall_ms = (time.perf_counter() - started) * 1000.0
    record = evaluate(clustering, data, params, method=method, wall_time_ms=wall_ms)
    return PipelineResult(
        clustering=clustering, record=record, decomposition=decomposition, trace=trace
    )
