"""faircap: clustering under fairness and capacity constraints.

Partitions tabular data into k clusters that minimize within-cluster
distance while every cluster keeps its protected-group balance at or above
a threshold t and its size at or below a capacity q. Fairness is obtained
by first decomposing the data into fairlets; capacity is enforced either in
the agglomerative merge step or in a knapsack-based assignment step of
k-medoids.
"""

__version__ = "0.1.0"

from .baselines import METHODS, kcenter_greedy, kmedoids_vanilla, pipeline
from .capclust import (
    MergeLog,
    capacity_threshold,
    hierarchical_fair_capacitated,
    kmedoids_fair_capacitated,
)
from .core import (
    Clustering,
    Dataset,
    FairletDecomposition,
    Params,
    balance_of,
    clustering_balance,
    clustering_cost,
    compose_assignment,
    rng_stream,
)
from .fairlets import fairlet_cost, mcf_decompose, validate, vanilla_decompose
from .ingest import DatasetSpec, dataset_balance, load_csv
from .metrics import evaluate, size_dispersion
from .synth import make_blobs

__all__ = [
    "Clustering",
    "Dataset",
    "DatasetSpec",
    "FairletDecomposition",
    "METHODS",
    "MergeLog",
    "Params",
    "balance_of",
    "capacity_threshold",
    "clustering_balance",
    "clustering_cost",
    "compose_assignment",
    "dataset_balance",
    "evaluate",
    "fairlet_cost",
    "hierarchical_fair_capacitated",
    "kcenter_greedy",
    "kmedoids_fair_capacitated",
    "kmedoids_vanilla",
    "load_csv",
    "make_blobs",
    "mcf_decompose",
    "pipeline",
    "rng_stream",
    "size_dispersion",
    "validate",
    "vanilla_decompose",
]
