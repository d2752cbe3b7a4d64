"""Graph machine learning framework substrate (the PyG/DGL/OGB stand-in).

Sub-packages:

* :mod:`repro.gml.autograd` — numpy reverse-mode autodiff,
* :mod:`repro.gml.data` / :mod:`repro.gml.transform` / :mod:`repro.gml.splits`
  — sparse-matrix graph data and the RDF dataset transformer,
* :mod:`repro.gml.sampling` — GraphSAINT, ShaDow and triple samplers,
* :mod:`repro.gml.nn` — GNN layers / models and optimizers,
* :mod:`repro.gml.kge` — TransE, DistMult, ComplEx, RotatE, MorsE,
* :mod:`repro.gml.train` — trainers, metrics, budgets, cost estimators.
"""

from repro.gml.data import GraphData, TriplesData, xavier_features
from repro.gml.transform import RDFGraphTransformer, TransformReport
from repro.gml.splits import SplitFractions, community_split, random_split, split_masks

__all__ = [
    "GraphData",
    "TriplesData",
    "xavier_features",
    "RDFGraphTransformer",
    "TransformReport",
    "SplitFractions",
    "community_split",
    "random_split",
    "split_masks",
]
