"""Per-run evaluation records: clustering cost, balance score and sizes."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .capclust import capacity_threshold
from .core import Clustering, Dataset, Params, clustering_balance, clustering_cost
from .errors import ContractViolationError


class RunRecord(NamedTuple):
    """One evaluated run of one method at one k.

    ``sizes`` is sorted descending.
    """

    method: str
    k: int
    cost: float
    balance: float
    sizes: tuple[int, ...]
    q: int
    t: float
    seed: int


def evaluate(
    clustering: Clustering,
    data: Dataset,
    params: Params,
    method: str = "unknown",
) -> RunRecord:
    """Compute the record for a clustering of ``params.k`` clusters; pure given its inputs."""
    if clustering.k != params.k:
        raise ContractViolationError(f"clustering has k={clustering.k}, params k={params.k}")
    sizes = tuple(sorted((int(s) for s in clustering.sizes), reverse=True))
    return RunRecord(
        method=method,
        k=clustering.k,
        cost=clustering_cost(clustering, data),
        balance=float(clustering_balance(clustering, data)),
        sizes=sizes,
        q=capacity_threshold(data.n, params.k, params.epsilon),
        t=float(params.t),
        seed=params.seed,
    )


def size_dispersion(sizes: list[int] | tuple[int, ...] | np.ndarray) -> dict[str, float]:
    """Five-number summary of cluster sizes.

    Quartiles use linear interpolation between order statistics (the
    inclusive convention), so [1, 2, 3, 4] has median 2.5 and q1 1.75.
    """
    arr = np.asarray(sizes, dtype=np.float64)
    if arr.size == 0:
        raise ContractViolationError("sizes must be nonempty")
    q0, q1, q2, q3, q4 = np.percentile(arr, [0, 25, 50, 75, 100])
    return {
        "min": float(q0),
        "q1": float(q1),
        "median": float(q2),
        "q3": float(q3),
        "max": float(q4),
    }
