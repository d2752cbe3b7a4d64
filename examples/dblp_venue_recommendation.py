"""Venue recommendation on the DBLP-like KG (the paper's motivating example).

Scenario (paper §I, Fig 1): the venue of a paper is a *virtual* node — it may
be missing for new papers — and a node-classification model can predict it on
the fly inside a SPARQL query.  This example:

1. trains two venue classifiers with different methods / budgets (so KGMeta
   holds several candidate models for the same user-defined predicate),
2. shows how the SPARQL-ML optimizer picks the model with the best
   accuracy/inference-time trade-off,
3. compares the two physical plans of paper Figs 11-12 (per-instance UDF
   calls vs. one dictionary call) on the same query,
4. filters the predictions with ordinary SPARQL constructs (FILTER / ORDER BY)
   to show SPARQL-ML composes with plain SPARQL.

Run:  python examples/dblp_venue_recommendation.py
"""

from repro.datasets import DBLPConfig, dblp_paper_venue_task, generate_dblp_kg
from repro.gml.train.budget import TaskBudget
from repro.kgnet import KGNet, ModelSelectionObjective

VENUE_QUERY = """
prefix dblp: <https://www.dblp.org/>
prefix kgnet: <https://www.kgnet.com/>
select ?paper ?title ?venue
where {
?paper a dblp:Publication.
?paper dblp:title ?title.
?paper ?NodeClassifier ?venue.
?NodeClassifier a kgnet:NodeClassifier.
?NodeClassifier kgnet:TargetNode dblp:Publication.
?NodeClassifier kgnet:NodeLabel dblp:publishedIn.
FILTER(CONTAINS(STR(?title), "1"))}
"""


def main() -> None:
    platform = KGNet()
    platform.load_graph(generate_dblp_kg(DBLPConfig(scale=0.3, seed=7)))
    task = dblp_paper_venue_task()
    print(f"KG loaded: {len(platform.graph)} triples")

    # --- train two candidate models for the same predicate -------------------
    print("\nTraining two venue classifiers (both registered in KGMeta)...")
    fast = platform.train_task(task, method="rgcn",
                               budget=TaskBudget(priority="Time"))
    accurate = platform.train_task(task, method="shadow_saint",
                                   budget=TaskBudget(priority="ModelScore"))
    for name, report in (("rgcn", fast), ("shadow_saint", accurate)):
        print(f"  {name:13s} accuracy={report.metrics['accuracy']:.2%} "
              f"train={report.training['elapsed_seconds']:.2f}s "
              f"inference={report.training['inference_seconds'] * 1000:.1f}ms")

    # --- the optimizer picks among the registered models ---------------------
    print("\nQuery with the default objective (maximise accuracy):")
    best = platform.query(VENUE_QUERY)
    print(f"  model used : {best.models[0].uri.value}")
    print(f"  plan       : {best.plans[0].plan}, HTTP calls: {best.http_calls}")
    print(best.results.to_table(max_rows=5))

    print("\nQuery preferring low inference latency:")
    fast_answer = platform.query(
        VENUE_QUERY,
        objective=ModelSelectionObjective(time_weight=100.0))
    print(f"  model used : {fast_answer.models[0].uri.value}")

    # --- plan comparison (paper Figs 11-12) -----------------------------------
    print("\nExecution-plan comparison on the unfiltered query:")
    unfiltered = VENUE_QUERY.replace('FILTER(CONTAINS(STR(?title), "1"))', "")
    for plan in ("per_instance", "dictionary"):
        answer = platform.query(unfiltered, force_plan=plan)
        print(f"  {plan:13s} HTTP calls={answer.http_calls:4d} "
              f"rows={len(answer.results):4d} "
              f"exec={answer.elapsed_seconds * 1000:.1f} ms")

    # --- per-venue distribution of the predictions ---------------------------
    print("\nPredicted venue distribution (via plain SPARQL over the answers):")
    counts = {}
    for row in platform.query(unfiltered).results:
        venue = row.get_value("venue")
        if venue is not None:
            counts[venue.value] = counts.get(venue.value, 0) + 1
    for venue, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"  {venue:45s} {count:4d} papers")


if __name__ == "__main__":
    main()
