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
from math import gcd

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .core import (
    Dataset,
    Fairlet,
    FairletDecomposition,
    distance,
    pairwise_distances,
    rng_stream,
    subset_balance,
)
from .errors import (
    ContractViolationError,
    InfeasibilityError,
    UnsupportedThresholdError,
)


@dataclass(frozen=True)
class ThresholdFM:
    """Balance threshold t = f/m in lowest terms, 1 <= f <= m."""

    f: int
    m: int

    def __post_init__(self) -> None:
        if self.f < 1 or self.m < 1 or self.f > self.m:
            raise ContractViolationError(
                f"threshold needs 1 <= f <= m, got f={self.f}, m={self.m}"
            )
        if gcd(self.f, self.m) != 1:
            raise ContractViolationError(
                f"f/m must be in lowest terms, got {self.f}/{self.m}"
            )

    @classmethod
    def from_fraction(cls, t: Fraction) -> "ThresholdFM":
        t = Fraction(t)
        if not (0 < t <= 1):
            raise ContractViolationError(f"t must lie in (0, 1], got {t}")
        return cls(t.numerator, t.denominator)

    def check_supported(self) -> None:
        """Raise unless t = 1/m, the only shape the decompositions handle."""
        if self.f != 1:
            raise UnsupportedThresholdError(f"only thresholds 1/m are supported, got {self.value}")

    @property
    def value(self) -> Fraction:
        return Fraction(self.f, self.m)

    @property
    def max_size(self) -> int:
        return self.f + self.m


def _split_groups(data: Dataset, t: ThresholdFM) -> tuple[np.ndarray, np.ndarray]:
    """Minority and majority row indices, after feasibility and shape checks."""
    t.check_supported()
    zeros = np.flatnonzero(data.protected == 0)
    ones = np.flatnonzero(data.protected == 1)
    if len(zeros) == 0 or len(ones) == 0:
        raise InfeasibilityError(
            "dataset has a single protected group; no decomposition exists for t > 0"
        )
    minority, majority = (zeros, ones) if len(zeros) <= len(ones) else (ones, zeros)
    achieved = Fraction(len(minority), len(majority))
    if achieved < t.value:
        raise InfeasibilityError(
            f"dataset balance {achieved} (= {float(achieved):.4f}) is below the "
            f"required threshold {t.value}"
        )
    return minority, majority


def _pick_centers(groups: list[list[int]], seed: int, stream: str) -> list[Fairlet]:
    rng = rng_stream(seed, stream, "centers")
    fairlets = []
    for members in groups:
        members = sorted(members)
        center = members[int(rng.integers(len(members)))]
        fairlets.append(Fairlet(members=tuple(members), center=center))
    fairlets.sort(key=lambda fl: fl.members[0])
    return fairlets


def vanilla_decompose(data: Dataset, t: ThresholdFM, seed: int) -> FairletDecomposition:
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
    beta, rho = len(blues), len(reds)
    base, extra = divmod(rho, beta)
    groups = []
    pos = 0
    for i in range(beta):
        take = base + (1 if i < extra else 0)
        groups.append([int(blues[i]), *map(int, reds[pos : pos + take])])
        pos += take
    fairlets = _pick_centers(groups, seed, "fairlets.vanilla")
    return FairletDecomposition(fairlets=tuple(fairlets), n=data.n, threshold=t.value)


def mcf_decompose(data: Dataset, t: ThresholdFM, seed: int) -> FairletDecomposition:
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
    slots = beta * t.m
    dists = pairwise_distances(data.features[minority], data.features[majority])
    weights = np.zeros((slots, slots))
    weights[:rho] = np.tile(dists.T, t.m) + 1.0
    weights[rho:, beta:] = 1.0
    rows, cols = min_weight_full_bipartite_matching(csr_array(weights))

    groups: list[list[int]] = [[int(b)] for b in minority]
    for r, c in zip(rows, cols):
        if r < rho:
            groups[c % beta].append(int(majority[r]))
    fairlets = _pick_centers(groups, seed, "fairlets.mcf")
    return FairletDecomposition(fairlets=tuple(fairlets), n=data.n, threshold=t.value)


def fairlet_cost(decomp: FairletDecomposition, data: Dataset) -> float:
    """Sum over fairlets of member-to-center distances."""
    total = 0.0
    for fairlet in decomp.fairlets:
        center = data.features[fairlet.center]
        for m in fairlet.members:
            total += distance(data.features[m], center)
    return total


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of auditing a decomposition; ``violations`` is empty when valid."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(
    decomp: FairletDecomposition, data: Dataset, t: ThresholdFM
) -> ValidationReport:
    """Check the partition property, the size bound f+m and per-fairlet balance.

    Never raises; every violation is listed in the report.
    """
    violations: list[str] = []
    seen = np.zeros(data.n, dtype=bool)
    for j, fairlet in enumerate(decomp.fairlets):
        for m in fairlet.members:
            if m < 0 or m >= data.n:
                violations.append(f"fairlet {j}: row {m} out of range")
            elif seen[m]:
                violations.append(f"fairlet {j}: row {m} already covered")
            else:
                seen[m] = True
        if fairlet.weight > t.max_size:
            violations.append(
                f"fairlet {j}: size {fairlet.weight} exceeds bound {t.max_size}"
            )
        bal = subset_balance(data.protected, fairlet.members)
        if bal.value < t.value:
            violations.append(
                f"fairlet {j}: balance {bal.value} below threshold {t.value}"
            )
    uncovered = np.flatnonzero(~seen)
    if uncovered.size:
        violations.append(f"rows not covered by any fairlet: {uncovered.tolist()[:10]}")
    return ValidationReport(violations=tuple(violations))


def decomposition_to_json(decomp: FairletDecomposition, data: Dataset) -> str:
    """Serialize for audit/replay: one record per fairlet with row ids."""
    records = [
        {
            "fairlet_id": j,
            "center_row_id": data.row_ids[fairlet.center],
            "member_row_ids": [data.row_ids[m] for m in fairlet.members],
        }
        for j, fairlet in enumerate(decomp.fairlets)
    ]
    return json.dumps(records, indent=2)


def decomposition_from_json(
    text: str, data: Dataset, t: ThresholdFM
) -> FairletDecomposition:
    """Rebuild a decomposition exported by :func:`decomposition_to_json`."""
    index = {rid: i for i, rid in enumerate(data.row_ids)}

    def lookup(rid: str) -> int:
        if rid not in index:
            raise ContractViolationError(f"unknown row id {rid!r} in decomposition")
        return index[rid]

    fairlets = []
    for record in json.loads(text):
        members = tuple(lookup(r) for r in record["member_row_ids"])
        fairlets.append(Fairlet(members=members, center=lookup(record["center_row_id"])))
    return FairletDecomposition(fairlets=tuple(fairlets), n=data.n, threshold=t.value)
