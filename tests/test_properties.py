"""Relations and properties that need no reference implementation.

* Scaling: multiplying every feature and the decay scale lambda by a power
  of two scales every distance, centroid and cost exactly and leaves each
  knapsack value exp(-d / lambda) unchanged, so every method must return
  the same clustering, and costs exactly that power times the originals.
* Properties, drawn with hypothesis on small tables with ties and
  duplicate rows: every decomposition passes ``validate``, and every
  clustering meets the bounds its method guarantees, recomputed from its
  row labels.
"""

from fractions import Fraction
from math import ceil

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import faircap
from faircap.baselines import decompose
from faircap.errors import InfeasibilityError


def _scale_tables():
    """Three blob tables, the last on a 0.1 grid: tied distances throughout."""
    tables = [
        faircap.make_blobs(n=40, balance=0.8, clusters=3, seed=1),
        faircap.make_blobs(n=48, balance=1.0, clusters=2, seed=2),
        faircap.make_blobs(n=36, balance=0.6, clusters=3, seed=3),
    ]
    tables[2] = faircap.Dataset(features=tables[2].features.round(1), protected=tables[2].protected)
    return tables


def _run(method, data, params):
    """(labels, representatives, balance, sizes, cost, trace costs), or the
    error text of an infeasible run."""
    try:
        clustering, record, trace = faircap.pipeline(method, data, params)
    except InfeasibilityError as exc:
        return str(exc)
    costs = [event["cost"] for event in trace]
    return (
        clustering.assignment.tolist(), clustering.representatives.tolist(),
        record.balance, record.sizes, record.cost, costs,
    )


def test_scaling_features_and_lambda_by_a_power_of_two():
    outcomes = set()
    for data in _scale_tables():
        for method in faircap.METHODS:
            for k in (2, 4, 7):
                base = _run(method, data, faircap.Params(k=k, lam=0.3, seed=7))
                outcomes.add(isinstance(base, str))
                for p in (-3, 5):
                    scaled = faircap.Dataset(
                        features=data.features * 2.0**p, protected=data.protected
                    )
                    got = _run(method, scaled, faircap.Params(k=k, lam=0.3 * 2.0**p, seed=7))
                    if isinstance(base, str):
                        assert got == base, (method, k, p)
                        continue
                    assert got[:4] == base[:4], (method, k, p)
                    assert got[4] == base[4] * 2.0**p, (method, k, p)
                    assert got[5] == [c * 2.0**p for c in base[5]], (method, k, p)
    assert outcomes == {False, True}  # both finished and infeasible runs compared


@st.composite
def small_tables(draw):
    """(data, t): up to 24 rows on a 4 x 4 grid of features, so distances
    tie and rows repeat, with group counts a <= b <= a * m at t = 1/m."""
    m = draw(st.integers(1, 3))
    a = draw(st.integers(1, 6))
    b = draw(st.integers(a, min(a * m, 24 - a)))
    protected = draw(st.permutations([1] * a + [0] * b))
    cell = st.tuples(st.integers(0, 3), st.integers(0, 3))
    cells = draw(st.lists(cell, min_size=a + b, max_size=a + b))
    data = faircap.Dataset(
        features=np.array(cells, dtype=np.float64), protected=np.array(protected)
    )
    return data, Fraction(1, m)


def _balance(assignment, protected, k):
    """The least min(c0/c1, c1/c0) over clusters, 0 for a one-group cluster."""
    ones = np.bincount(assignment, weights=protected, minlength=k).astype(int)
    zeros = np.bincount(assignment, minlength=k) - ones
    return min(
        Fraction(min(c0, c1), max(c0, c1)) if min(c0, c1) else Fraction(0)
        for c0, c1 in zip(zeros.tolist(), ones.tolist())
    )


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    table=small_tables(),
    method=st.sampled_from(tuple(faircap.METHODS)),
    k=st.integers(1, 4),
    epsilon=st.sampled_from((1.0, 1.01, 1.2, 1.5)),
    seed=st.integers(0, 2**16),
)
def test_every_run_meets_its_bounds_from_its_row_labels(table, method, k, epsilon, seed):
    data, t = table
    flavor, stage = faircap.METHODS[method]
    decomposition = decompose(flavor, data, t, seed)
    if flavor != "rows":
        assert faircap.validate(decomposition, data, t).violations == ()
    params = faircap.Params(k=k, t=t, epsilon=epsilon, lam=0.3, seed=seed)
    try:
        clustering, record, _ = faircap.pipeline(method, data, params, decomposition)
    except InfeasibilityError:
        return
    labels = clustering.assignment
    sizes = np.bincount(labels, minlength=k)
    balance = _balance(labels, data.protected, k)
    assert (sizes > 0).all() and labels.size == data.n
    assert record.sizes == tuple(sorted(sizes.tolist(), reverse=True))
    assert record.balance == float(balance)
    if flavor != "rows":  # every method on fairlets keeps the threshold
        assert balance >= t
    if stage in ("hier", "kmed"):  # the capacitated stages keep the capacity
        assert sizes.max() <= ceil(data.n * Fraction(str(epsilon)) / k)
