"""Budget-aware automatic method selection (the GMLaaS "GML optimizer").

Paper §IV-A: the TrainGML request carries a memory/time budget and a
priority; the GML optimizer estimates each method's cost from the sparse-
matrix sizes and picks the near-optimal method within the budget.  This
example sweeps budgets on the DBLP paper-venue task and shows

* which method the selector picks per budget and why (the cost estimates of
  the plans the platform trains: epochs, batches per epoch, batch size),
* that the chosen method is then actually trained and registered,
* what happens when no method fits (the selector falls back and flags it).

Run:  python examples/budget_aware_automl.py
"""

from repro.datasets import DBLPConfig, dblp_paper_venue_task, generate_dblp_kg
from repro.gml.train.budget import TaskBudget
from repro.gml.transform import RDFGraphTransformer
from repro.kgnet import KGNet, MetaSampler, MetaSamplingConfig
from repro.rdf.stats import format_table


def main() -> None:
    graph = generate_dblp_kg(DBLPConfig(scale=0.3, seed=7))
    task = dblp_paper_venue_task()
    # The selector of the training manager that trains below: it prices each
    # method's plan at that manager's config.
    platform = KGNet()
    manager = platform.gmlaas.training_manager
    selector = manager.selector

    # The selector works on the meta-sampled subgraph, exactly like the platform.
    subgraph, sampling = MetaSampler(MetaSamplingConfig(1, 1)).extract(graph, task)
    transformer = RDFGraphTransformer(feature_dim=manager.config.feature_dim)
    data, _ = transformer.to_node_classification_data(
        subgraph, task.target_node_type, task.label_predicate)
    print(f"Task-specific subgraph: {sampling.num_subgraph_triples} of "
          f"{sampling.num_kg_triples} triples -> {data.num_nodes} nodes, "
          f"{data.num_relations} relations")

    # --- cost estimates per method -------------------------------------------
    rows = []
    for method in ("rgcn", "gcn", "gat", "graph_saint", "shadow_saint"):
        estimate = selector.estimator.estimate(method, data)
        rows.append({
            "method": method,
            "epochs": int(estimate.details["epochs"]),
            "batches/epoch": int(estimate.details["batches_per_epoch"]),
            "batch_size": int(estimate.details["batch_size"]),
            "est_memory_MB": round(estimate.memory_bytes / 1e6, 2),
            "est_time_s": round(estimate.time_seconds, 2),
            "accuracy_prior": estimate.accuracy_prior,
        })
    print("\n" + format_table(rows, title="Cost estimates (paper Fig 6, 'Optimal GML "
                                           "Method Selection')"))

    # --- what gets selected under different budgets ---------------------------
    rgcn_memory = selector.estimator.estimate("rgcn", data).memory_bytes
    budgets = [
        ("unconstrained / ModelScore", TaskBudget()),
        ("priority = Time", TaskBudget(priority="Time")),
        ("memory < RGCN's need", TaskBudget(max_memory_bytes=rgcn_memory * 0.9)),
        ("impossible (1 byte)", TaskBudget(max_memory_bytes=1.0)),
    ]
    selection_rows = []
    for label, budget in budgets:
        selection = selector.select("node_classification", data, budget=budget)
        selection_rows.append({
            "budget": label,
            "selected": selection.method,
            "within_budget": selection.within_budget,
        })
    print("\n" + format_table(selection_rows, title="Selector decisions per budget"))

    # --- end to end: the platform trains whatever the selector picked ---------
    platform.load_graph(graph)
    report = platform.train_task(task, budget=TaskBudget(max_memory_bytes=512 * 1024 ** 2,
                                                         max_time_seconds=300,
                                                         priority="ModelScore"))
    print(f"\nPlatform trained '{report.method}' within the budget "
          f"(accuracy {report.metrics['accuracy']:.2%}, "
          f"{report.training['elapsed_seconds']:.2f}s, "
          f"{report.training['peak_memory_bytes'] / 1e6:.1f} MB); "
          f"model registered as {report.model_uri}")


if __name__ == "__main__":
    main()
