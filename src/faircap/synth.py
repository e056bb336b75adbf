"""Seeded synthetic datasets: Gaussian blobs plus a binary protected column.

Stands in for the real benchmark extracts at desk scale. Blob centers sit
evenly on a circle so clusters are well separated; protected labels are
shuffled independently of position, and the group split realizes the
requested balance up to count rounding.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .core import Dataset, check_integer, rng_stream
from .errors import ContractViolationError


def minority_count(n: int, balance: float) -> int:
    """Minority group size whose ratio to the rest approximates ``balance``."""
    if not (0 < balance <= 1):
        raise ContractViolationError(f"balance must lie in (0, 1], got {balance}")
    if n < 2:
        raise ContractViolationError("need at least 2 rows")
    ideal = n * balance / (1.0 + balance)
    return min(n - 1, max(1, math.floor(ideal + 0.5)))


def make_blobs(
    n: int,
    balance: float = 1.0,
    clusters: int = 3,
    noise: float = 0.06,
    seed: int = 0,
    blob_weights: tuple[float, ...] | None = None,
) -> Dataset:
    """Generate an n-row dataset of two features with the requested protected balance.

    ``blob_weights`` sets relative blob sizes (default equal); sizes are
    rounded largest-remainder so they sum to n.
    """
    n, clusters = check_integer("n", n), check_integer("clusters", clusters)
    minority = minority_count(n, balance)  # checks n >= 2 before the blobs are sized
    if clusters < 1:
        raise ContractViolationError("clusters must be positive")
    weights = blob_weights if blob_weights is not None else (1.0,) * clusters
    if len(weights) != clusters or not all(0 < w < math.inf for w in weights):
        raise ContractViolationError("blob_weights needs one positive finite entry per blob")

    total = sum(weights)
    exact = [n * w / total for w in weights]
    sizes = [int(x) for x in exact]
    remainders = sorted(
        range(clusters), key=lambda i: (-(exact[i] - sizes[i]), i)
    )
    for i in remainders[: n - sum(sizes)]:
        sizes[i] += 1

    rng = rng_stream(seed, "synth.blobs")
    angles = 2 * math.pi * np.arange(clusters) / clusters
    centers = 0.5 + 0.38 * np.column_stack((np.cos(angles), np.sin(angles)))

    blocks = [
        centers[i] + noise * rng.standard_normal((sizes[i], 2))
        for i in range(clusters)
    ]
    features = np.vstack(blocks)

    protected = np.zeros(n, dtype=np.int64)
    protected[:minority] = 1
    rng.shuffle(protected)

    return Dataset(features=features, protected=protected)


def write_csv(path: str | Path, data: Dataset) -> Path:
    """Write ``data`` as CSV: feature columns ``x0, x1, ...`` and a ``group`` protected column."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(data.dim)] + ["group"])
        for i in range(data.n):
            writer.writerow(
                [f"{v:.9f}" for v in data.features[i]] + [str(int(data.protected[i]))]
            )
    return path
