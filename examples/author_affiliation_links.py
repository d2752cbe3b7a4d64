"""Author-affiliation link prediction and entity similarity on DBLP.

Reproduces the workflow behind paper Figs 10 and 15: a MorsE-style inductive
link predictor is trained on the d2h1 task-specific subgraph and then used

1. from SPARQL-ML (the Fig 10 query, with a ``kgnet:TopK-Links`` bound), and
2. through the direct GMLaaS inference API (top-k predicted affiliations per
   author, plus author similarity search over the learned embeddings — the
   entity-similarity task of Table I, served from the model's embedding index).

Run:  python examples/author_affiliation_links.py
"""

from repro.datasets import (
    DBLPConfig,
    dblp_author_affiliation_task,
    generate_dblp_kg,
)
from repro.kgnet import KGNet
from repro.rdf import DBLP, RDF_TYPE

LINK_QUERY = """
prefix dblp: <https://www.dblp.org/>
prefix kgnet: <https://www.kgnet.com/>
select ?author ?affiliation
where { ?author a dblp:Person.
?author ?LinkPredictor ?affiliation.
?LinkPredictor a kgnet:LinkPredictor.
?LinkPredictor kgnet:SourceNode dblp:Person.
?LinkPredictor kgnet:DestinationNode dblp:Affiliation.
?LinkPredictor kgnet:TopK-Links 1.}
"""


def main() -> None:
    platform = KGNet()
    platform.load_graph(generate_dblp_kg(DBLPConfig(scale=0.3, seed=7)))
    task = dblp_author_affiliation_task()

    # Train MorsE on the d2h1 subgraph (the paper's best setting for LP).
    print("Training the author-affiliation link predictor (MorsE, d2h1)...")
    report = platform.train_task(task, method="morse", meta_sampling="d2h1")
    print(f"  Hits@10          : {report.metrics['hits@10']:.2%}")
    print(f"  MRR              : {report.metrics['mrr']:.3f}")
    print(f"  KG' triples      : {report.meta_sampling['num_subgraph_triples']} "
          f"of {report.meta_sampling['num_kg_triples']}")
    print(f"  training time    : {report.training['elapsed_seconds']:.2f} s")
    model_uri = report.model_uri

    # --- SPARQL-ML: predict the best affiliation link per author -------------
    answers = platform.query(LINK_QUERY)
    print(f"\nSPARQL-ML link prediction returned {len(answers.results)} rows "
          f"(model {answers.models[0].uri.value})")
    print(answers.results.to_table(max_rows=5))

    # --- direct inference: top-3 affiliations for a few authors --------------
    authors = [a for a in platform.graph.subjects(RDF_TYPE, DBLP["Person"])][:3]
    print("\nTop-3 predicted affiliations per author (GMLaaS inference API):")
    for author in authors:
        known = platform.graph.value(author, DBLP["affiliation"])
        predictions = platform.predict_links(model_uri, author.value, k=3)
        predicted = ", ".join(p["entity"].rsplit("/", 1)[-1] for p in predictions)
        print(f"  {author.value.rsplit('/', 1)[-1]:10s} "
              f"known={known.value.rsplit('/', 1)[-1] if known else '-':4s} "
              f"predicted=[{predicted}]")

    # --- entity similarity over the learned embeddings -----------------------
    print("\nMost similar authors (embedding-store search):")
    anchor = authors[0]
    for hit in platform.similar_entities(model_uri, anchor.value, k=5):
        if "person" in hit["entity"]:
            print(f"  {hit['entity'].rsplit('/', 1)[-1]:10s} score={hit['score']:.3f}")

    print(f"\nTotal GMLaaS HTTP calls served: {platform.http_calls}")


if __name__ == "__main__":
    main()
