"""Graph machine learning framework substrate (the PyG/DGL/OGB stand-in).

Sub-packages:

* :mod:`repro.gml.tasks` — task descriptions (no numpy, no scipy),
* :mod:`repro.gml.autograd` — numpy reverse-mode autodiff,
* :mod:`repro.gml.data` / :mod:`repro.gml.transform` / :mod:`repro.gml.splits`
  — graph data with CSR adjacencies (:class:`repro.gml.autograd.CSR`, not
  ``scipy.sparse`` matrices) and the RDF dataset transformer,
* :mod:`repro.gml.sampling` — GraphSAINT, ShaDow and triple samplers,
* :mod:`repro.gml.nn` — GNN layers / models and optimizers,
* :mod:`repro.gml.kge` — TransE, DistMult, ComplEx, RotatE, MorsE,
* :mod:`repro.gml.train` — trainers, metrics and budgets.

The package re-exports nothing: a process that only reads
:mod:`repro.gml.tasks` or :mod:`repro.gml.train.budget` (the SPARQL-ML
parser, KGMeta, the router) loads neither scipy nor a model module.  A
process that trains loads scipy's compiled sparse kernels
(``scipy.sparse._sparsetools``) and no more of scipy; only the
community-based split imports ``scipy.sparse``.
"""
