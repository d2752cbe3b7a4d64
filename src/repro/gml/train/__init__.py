"""Training utilities: :mod:`~repro.gml.train.budget` (budgets and the run
ledger, free of numpy), :mod:`~repro.gml.train.metrics` and
:mod:`~repro.gml.train.trainer`.  Nothing is re-exported, so reading a
budget loads no trainer."""
