"""Fairlet decomposition: split a dataset into minimal balanced groups.

Two constructions are provided. ``vanilla_decompose`` is cost-agnostic: it
pairs each minority point with a block of majority points in seed-shuffled
order. ``mcf_decompose`` is cost-aware: one exact minimum-weight bipartite
matching of majority points to slots of minority anchors minimizes the
total member-to-anchor distance over all one-anchor-per-fairlet groupings. The
``mcf`` name is kept from the min-cost-flow formulation of Chierichetti et
al. (NeurIPS 2017), which this matching solves exactly for t = 1/m.

Both support thresholds of the form t = 1/m only; that covers the t = 0.5
setting used throughout the experiment harness. Each fairlet's center is
a uniformly sampled member, drawn from the seeded stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

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


def mcf_decompose(data: Dataset, t: Fraction, seed: int) -> FairletDecomposition:
    """Cost-aware decomposition via an exact bipartite slot matching.

    Each minority anchor offers m slots: one mandatory and m-1 optional.
    The rows of a square (beta*m)-by-(beta*m) matrix are the rho majority
    points plus beta*m - rho dummy rows; column c is a slot of anchor
    c % beta, and the first beta columns are the mandatory slots. A majority
    point costs its Euclidean distance to the slot's anchor; a dummy row
    costs nothing on optional slots and may not fill a mandatory one. A
    minimum-weight perfect matching is then a grouping in which every
    anchor takes between 1 and m majority points at minimum total
    majority-to-anchor distance. Every weight carries a uniform +1, which
    leaves the optimum unchanged (each perfect matching has beta*m edges)
    and keeps zero distances from reading as missing edges in the sparse
    solver.
    """
    minority, majority = _split_groups(data, t)
    beta, rho = len(minority), len(majority)
    m = Fraction(t).denominator
    slots = beta * m
    dists = pairwise_distances(data.features[minority], data.features[majority])
    weights = np.zeros((slots, slots))
    weights[:rho] = np.tile(dists.T, m) + 1.0
    weights[rho:, beta:] = 1.0
    rows, cols = min_weight_full_bipartite_matching(csr_array(weights))

    group = np.empty(data.n, dtype=np.int64)
    group[minority] = np.arange(beta)
    filled = rows < rho
    group[majority[rows[filled]]] = cols[filled] % beta
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
