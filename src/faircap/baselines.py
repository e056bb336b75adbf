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
) -> capclust.StageResult:
    """Plain PAM: seeded medoid sample, nearest-medoid assignment, then the
    best strictly improving (medoid, non-medoid) swap per round until a local
    optimum. No fairness or capacity handling.

    Each round screens every (medoid, non-medoid) pair from each point's
    nearest and second-nearest medoid distance (FastPAM1, Schubert &
    Rousseeuw, SISAP 2019), then recomputes exactly the pairs whose screened
    cost lies near the minimum. The swap is the exactly cheapest pair, first
    by medoid and then by non-medoid index, if it costs strictly less than
    the current medoids. The screen keeps one row per medoid slot, and a
    swap puts the new medoid in the old one's slot. The screen is kept from
    one round to the next: after a swap, only the points whose nearest
    medoid, or nearest or second-nearest distance, changed have their terms
    taken out and put back in. It is rebuilt in full on the first round and
    whenever more than half the points changed.

    Weights are ignored: the points are the singleton fairlets of the raw
    rows. Returns a :class:`~faircap.capclust.StageResult` of the point-level
    assignment, with labels 0..k-1 in medoid order, and an empty trace.
    """
    positions, _ = capclust.check_weighted_points(positions, weights, k)
    n = len(positions)
    dists = pairwise_distances(positions)
    rng = rng_stream(seed, "baselines.kmedoids")
    slot = np.sort(rng.choice(n, size=k, replace=False))

    best = float(dists[:, slot].min(axis=1).sum())
    # A swap cost sums n nonnegative terms, each at most its column's entry,
    # so any float summation order is off from the exact cost by at most
    # about n * eps/2 times the largest column sum. A rebuilt screen adds up
    # two more such sums, kept and lost. An update adds at most n signed terms
    # to each, the moved points' new terms and their negated old ones, whose
    # absolute values sum to at most two column sums; so each update moves the
    # screen off by at most about 2n * eps times the largest column sum more.
    # tol starts at one step, which bounds the gap between a screened and an
    # exact cost with headroom, and grows by one step per update, so a pair
    # screened out is never the exactly cheapest.
    step = 8 * n * np.finfo(np.float64).eps * float(dists.sum(axis=0).max())
    # the two work matrices share one budget of cells
    block = max(1, _LOCKSTEP_CELLS // (2 * n))
    bufs = np.empty((2, min(block, n) * n))
    # screen[j, o] = kept[o] + lost[j, o]: removing the medoid in slot j
    # leaves point i at dn_i, or at ds_i if slot j held its nearest, and
    # swapping o in caps that at d_io
    kept = np.empty(n)
    lost, screen = np.empty((2, k, n))
    last = None
    while n > k:
        order = np.argsort(slot)  # argmin's ties and the swap scan go by ascending medoid
        # row m of the symmetric matrix is its column m; rows keep dn and ds contiguous
        to_medoids = dists[slot[order]]
        near = order[np.argmin(to_medoids, axis=0)]
        to_medoids.sort(axis=0)
        dn = to_medoids[0]
        ds = to_medoids[1] if k > 1 else np.full(n, np.inf)
        if last is not None:
            was_near, was_dn, was_ds = last
            # the medoid swapped out of slot pos is gone, and so is its row
            was_near[was_near == pos] = k
            moved = np.flatnonzero((near != was_near) | (dn != was_dn) | (ds != was_ds))
        if last is None or 2 * len(moved) > n:
            kept[:] = lost[:] = 0.0
            _add_screen_terms(kept, lost, dists, None, dn, ds, near, np.ones(n), block, bufs)
            tol = step
        else:
            lost[pos] = 0.0  # the row of slot pos starts empty for o
            # the moved points' new terms in, their old ones out
            _add_screen_terms(
                kept,
                lost,
                dists,
                np.concatenate([moved, moved]),
                np.concatenate([dn[moved], was_dn[moved]]),
                np.concatenate([ds[moved], was_ds[moved]]),
                np.concatenate([near[moved], was_near[moved]]),
                np.repeat([1.0, -1.0], len(moved)),
                block,
                bufs,
            )
            tol += step
        last = near, dn, ds
        np.add(lost, kept, out=screen)
        screen[:, slot] = np.inf
        low = float(screen.min())
        if low > best + tol:
            break
        swap: tuple[int, int] | None = None
        pos_of, o_of = np.nonzero(screen <= low + 2 * tol)
        for j in order[np.bincount(pos_of, minlength=k)[order] > 0].tolist():
            others = o_of[pos_of == j]
            floor = np.where(near == j, ds, dn)
            costs = _swap_costs(dists, floor, others)
            o_j = int(np.argmin(costs))
            if costs[o_j] < best:
                best = float(costs[o_j])
                swap = (j, int(others[o_j]))
        if swap is None:
            break
        pos, o = swap
        slot[pos] = o

    medoids = np.sort(slot)
    assignment = np.argmin(dists[:, medoids], axis=1)
    assignment[medoids] = np.arange(k)  # coincident medoids each keep their own row
    return capclust.StageResult(assignment, ())


def _add_screen_terms(
    kept: np.ndarray,
    lost: np.ndarray,
    dists: np.ndarray,
    points: np.ndarray | None,
    dn: np.ndarray,
    ds: np.ndarray,
    row: np.ndarray,
    sign: np.ndarray,
    block: int,
    bufs: np.ndarray,
) -> None:
    """Add p signed point terms to PAM's swap screen.

    Term j, for point ``points[j]`` (point j if ``points`` is None), adds
    ``sign[j] * min(dn[j], d_io)`` to ``kept[o]`` and ``sign[j]`` times
    ``min(ds[j], d_io) - min(dn[j], d_io)`` to ``lost[row[j], o]``, or to no
    row of ``lost`` if ``row[j]`` is ``len(lost)``. Works through the two
    flat ``bufs`` in blocks of ``block`` candidate rows; each buf holds one
    block of ``len(dists)``-long rows.
    """
    k, p = len(lost), len(dn)
    member = np.zeros((k + 1, p))
    member[row, np.arange(p)] = sign
    for c in range(0, len(dists), block):
        # distances are symmetric, so row block c holds column block c
        rows = dists[c : c + block]
        m = len(rows)
        cols_buf, terms_buf = (buf[: m * p].reshape(m, p) for buf in bufs)
        cols = rows if points is None else np.take(rows, points, axis=1, out=cols_buf, mode="clip")
        near_terms = np.minimum(cols, dn, out=terms_buf)
        kept[c : c + m] += near_terms @ sign
        lost_terms = np.minimum(cols, ds, out=cols_buf)
        lost_terms -= near_terms
        # near_terms is spent, and k < len(dists) leaves its buffer room
        product = bufs[1][: k * m].reshape(k, m)
        lost[:, c : c + m] += np.matmul(member[:k], lost_terms.T, out=product)


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
) -> capclust.StageResult:
    """Gonzalez farthest-first traversal over fairlet centers.

    Weights are ignored for center selection; the first center is sampled by
    the seeded stream and each point lands with its nearest center. Returns a
    :class:`~faircap.capclust.StageResult` of the fairlet-level assignment,
    with labels 0..k-1 in center order, and an empty trace.
    """
    positions, _ = capclust.check_weighted_points(positions, weights, k)
    rng = rng_stream(seed, "baselines.kcenter")
    centers = [int(rng.integers(len(positions)))]
    # each center's distance column is computed once, on its own; the
    # traversal and the assignment both read it
    to_centers = np.empty((len(positions), k))
    nearest = np.full(len(positions), np.inf)
    for j in range(k):
        if j:
            centers.append(int(np.argmax(nearest)))
        to_centers[:, j] = pairwise_distances(positions, positions[[centers[j]]])[:, 0]
        np.minimum(nearest, to_centers[:, j], out=nearest)
        nearest[centers[j]] = -1  # a chosen center is never picked again
    assignment = np.argmin(to_centers, axis=1)
    assignment[centers] = np.arange(k)  # coincident centers each keep their own point
    return capclust.StageResult(assignment, ())


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


def pipeline(
    method: str, data: Dataset, params: Params
) -> tuple[Clustering, RunRecord, tuple[dict, ...]]:
    """Run one method end to end and return ``(clustering, record, trace)``:
    the row-level clustering, its evaluation and the stage's events (empty
    for PAM and k-center).

    The method's decomposition is built from ``data`` at ``params.t`` and
    ``params.seed``. To share one decomposition across k values, decompose
    once and call the stage, :func:`~faircap.core.compose_assignment` and
    :func:`~faircap.metrics.evaluate` directly.
    """
    if method not in METHODS:
        raise ContractViolationError(
            f"unknown method {method!r}; expected one of {tuple(METHODS)}"
        )
    decomposition = decompose(METHODS[method][0], data, params.t, params.seed)
    return _run(method, data, params, decomposition)


def _run(
    method: str,
    data: Dataset,
    params: Params,
    decomposition: FairletDecomposition,
    merges: capclust.MergeLog | None = None,
) -> tuple[Clustering, RunRecord, tuple[dict, ...]]:
    """:func:`pipeline` on ``decomposition``, which must be the method's
    ``decompose(flavor, data, params.t, params.seed)``; a hier method shares
    merges through ``merges`` (see :class:`~faircap.capclust.MergeLog`)."""
    stage = METHODS[method][1]
    positions = data.features[decomposition.centers]
    weights = decomposition.weights
    if stage == "pam":
        delta, trace = kmedoids_vanilla(positions, weights, params.k, params.seed)
    elif stage == "kcenter":
        delta, trace = kcenter_greedy(positions, weights, params.k, params.seed)
    else:
        q = capclust.capacity_threshold(data.n, params.k, params.epsilon)
        if stage == "hier":
            delta, trace = capclust.hierarchical_fair_capacitated(
                positions, weights, params.k, q, merges=merges
            )
        else:
            delta, trace = capclust.kmedoids_fair_capacitated(
                positions, weights, params.k, q, params.lam, params.seed
            )
    clustering = compose_assignment(delta, decomposition, data)
    return clustering, evaluate(clustering, data, params, method=method), trace
