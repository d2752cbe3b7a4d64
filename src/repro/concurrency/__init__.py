"""Concurrency primitives for the KGNet serving layer.

KGNet is pitched as a *service*: SPARQL and SPARQL-ML queries arriving from
many clients at once while training jobs and update requests mutate the
hosted graphs.  This package holds the building blocks that make that safe
and fast:

* :class:`WorkerPool` — a bounded thread pool with back-pressure,
* :class:`QueryScheduler` — time-sliced fair execution of preemptable
  queries (SaGe-style web preemption),
* :class:`AdmissionController` — sheds load with a typed
  :class:`~repro.exceptions.ServerOverloaded` before it executes.

The snapshot-isolation machinery itself lives with the data structures it
protects (:meth:`repro.rdf.graph.Graph.snapshot`,
:meth:`repro.rdf.dataset.Dataset.snapshot`); this package provides the
generic pieces the serving layer composes on top.
"""

from repro.concurrency.pool import WorkerPool
from repro.concurrency.scheduler import AdmissionController, QueryScheduler

__all__ = ["AdmissionController", "QueryScheduler", "WorkerPool"]
