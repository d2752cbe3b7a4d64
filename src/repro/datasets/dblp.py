"""Synthetic DBLP-like knowledge graph (paper Table I, Figs 13 and 15).

The real DBLP RDF dump has ~252M triples, 42 node types and 48 edge types;
its two KGNet tasks are *paper-venue* node classification (50 venues) and
*author-affiliation* link prediction.  This generator reproduces the schema
shape at laptop scale:

* a **relevant core**: publications, authors, venues, affiliations, keywords
  and citations, with venue labels that are *learnable from structure*
  (papers of a research community share authors and keywords),
* a **task-irrelevant long tail**: publishers, editors, awards, projects,
  web pages, series ... connected to the core but useless for the tasks —
  this is what KGNet's meta-sampler prunes away.
"""

from __future__ import annotations

from typing import List

from repro.datasets.generator import GeneratorConfig, KGBuilder
from repro.gml.tasks import TaskSpec, TaskType
from repro.rdf.graph import Graph
from repro.rdf.namespace import DBLP
from repro.rdf.terms import IRI

__all__ = ["DBLPConfig", "generate_dblp_kg", "dblp_paper_venue_task",
           "dblp_author_affiliation_task", "dblp_author_similarity_task"]


class DBLPConfig(GeneratorConfig):
    """Seed and scale of the DBLP-like generator."""


def generate_dblp_kg(config: DBLPConfig = None) -> Graph:
    """Generate the DBLP-like KG; deterministic for a fixed config seed."""
    config = config or DBLPConfig()
    builder = KGBuilder(DBLP, seed=config.seed)
    rng = builder.rng

    # Instance counts at scale 1.0.
    num_papers = config.scaled(400)
    num_authors = config.scaled(200, minimum=10)
    num_venues = config.scaled(8, minimum=3)
    num_affiliations = config.scaled(24, minimum=4)
    num_keywords = config.scaled(60, minimum=10)
    num_communities = max(2, min(8, num_venues))

    # ------------------------------------------------------------------
    # Core entities
    # ------------------------------------------------------------------
    venues = [builder.new_entity("Venue", "venue") for _ in range(num_venues)]
    affiliations = [builder.new_entity("Affiliation", "affiliation")
                    for _ in range(num_affiliations)]
    keywords = [builder.new_entity("Keyword", "keyword") for _ in range(num_keywords)]
    authors = [builder.new_entity("Person", "person") for _ in range(num_authors)]
    papers = [builder.new_entity("Publication", "publication") for _ in range(num_papers)]

    # Communities tie venues, authors, keywords and affiliations together so
    # the classification label (venue) is predictable from graph structure.
    community_of_venue = {venue: i % num_communities for i, venue in enumerate(venues)}
    venues_by_community: List[List[IRI]] = [[] for _ in range(num_communities)]
    for venue, community in community_of_venue.items():
        venues_by_community[community].append(venue)
    community_of_author = {author: int(rng.integers(num_communities))
                           for author in authors}
    community_of_keyword = {keyword: int(rng.integers(num_communities))
                            for keyword in keywords}
    community_affiliation = {community: affiliations[community % len(affiliations)]
                             for community in range(num_communities)}

    authors_by_community: List[List[IRI]] = [[] for _ in range(num_communities)]
    for author, community in community_of_author.items():
        authors_by_community[community].append(author)
    keywords_by_community: List[List[IRI]] = [[] for _ in range(num_communities)]
    for keyword, community in community_of_keyword.items():
        keywords_by_community[community].append(keyword)
    for community in range(num_communities):
        if not authors_by_community[community]:
            authors_by_community[community].append(authors[community % len(authors)])
        if not keywords_by_community[community]:
            keywords_by_community[community].append(keywords[community % len(keywords)])

    # ------------------------------------------------------------------
    # Authors: affiliations (the LP target), names, homepages
    # ------------------------------------------------------------------
    for author in authors:
        community = community_of_author[author]
        # An author's affiliation is mostly their community's: the signal
        # for the link-prediction task.
        if rng.random() < 0.8:
            affiliation = community_affiliation[community]
        else:
            affiliation = builder.choice(affiliations)
        builder.add(author, DBLP["affiliation"], affiliation)
        if rng.random() < 0.6:
            builder.add(author, DBLP["primaryAffiliation"], affiliation)
        if config.include_literals:
            builder.add_literal(author, DBLP["name"], f"Author {author.local_name()}")
        if config.include_irrelevant_structure and rng.random() < 0.6:
            page = builder.new_entity("WebPage", "webpage")
            builder.add(author, DBLP["homepage"], page)
            if rng.random() < 0.4:
                builder.add(page, DBLP["archivedBy"], builder.choice(affiliations))

    # ------------------------------------------------------------------
    # Papers: venue labels (the NC target), authorship, keywords, citations
    # ------------------------------------------------------------------
    papers_by_community: List[List[IRI]] = [[] for _ in range(num_communities)]
    for paper in papers:
        community = int(rng.integers(num_communities))
        papers_by_community[community].append(paper)
        # Venue label — mostly the community's venue, sometimes noise (the
        # signal for the node-classification task).
        if rng.random() < 0.85:
            venue = builder.choice(venues_by_community[community])
        else:
            venue = builder.choice(venues)
        builder.add(paper, DBLP["publishedIn"], venue)

        num_paper_authors = builder.poisson(2.5, minimum=1)
        community_authors = authors_by_community[community]
        for _ in range(num_paper_authors):
            if rng.random() < 0.85:
                author = builder.zipf_choice(community_authors)
            else:
                author = builder.choice(authors)
            builder.add(paper, DBLP["authoredBy"], author)

        num_paper_keywords = builder.poisson(2.0, minimum=1)
        community_keywords = keywords_by_community[community]
        for _ in range(num_paper_keywords):
            if rng.random() < 0.8:
                keyword = builder.choice(community_keywords)
            else:
                keyword = builder.choice(keywords)
            builder.add(paper, DBLP["hasKeyword"], keyword)

        if config.include_literals:
            builder.add_literal(paper, DBLP["title"], f"Paper {paper.local_name()}")
            builder.add_literal(paper, DBLP["yearOfPublication"],
                                int(2000 + rng.integers(0, 23)))
            if rng.random() < 0.4:
                builder.add_literal(paper, DBLP["pages"], f"{rng.integers(1, 20)}")

    # Citations: mostly within the same community.
    for community, community_papers in enumerate(papers_by_community):
        for paper in community_papers:
            for _ in range(builder.poisson(2.0)):
                if rng.random() < 0.8 and len(community_papers) > 1:
                    cited = builder.choice(community_papers)
                else:
                    cited = builder.choice(papers)
                if cited != paper:
                    builder.add(paper, DBLP["cites"], cited)

    # ------------------------------------------------------------------
    # Task-irrelevant structure (what meta-sampling prunes)
    # ------------------------------------------------------------------
    if config.include_irrelevant_structure:
        publishers = [builder.new_entity("Publisher", "publisher")
                      for _ in range(config.scaled(20, minimum=2))]
        series = [builder.new_entity("Series", "series")
                  for _ in range(config.scaled(10, minimum=2))]
        projects = [builder.new_entity("Project", "project")
                    for _ in range(config.scaled(120, minimum=2))]
        awards = [builder.new_entity("Award", "award")
                  for _ in range(config.scaled(40, minimum=2))]
        editors = [builder.new_entity("Editor", "editor")
                   for _ in range(config.scaled(40, minimum=2))]
        countries = [builder.new_entity("Country", "country")
                     for _ in range(config.scaled(20, minimum=3))]
        conferences_events = [builder.new_entity("ConferenceEvent", "event")
                              for _ in range(config.scaled(150, minimum=3))]
        grants = [builder.new_entity("Grant", "grant")
                  for _ in range(config.scaled(60, minimum=2))]
        datasets = [builder.new_entity("Dataset", "dataset")
                    for _ in range(config.scaled(80, minimum=2))]

        for venue in venues:
            builder.add(venue, DBLP["publishedBy"], builder.choice(publishers))
            builder.add(venue, DBLP["partOfSeries"], builder.choice(series))
            builder.add(venue, DBLP["editedBy"], builder.choice(editors))
            if config.include_literals:
                builder.add_literal(venue, DBLP["venueName"],
                                    f"Venue {venue.local_name()}")
        for affiliation in affiliations:
            builder.add(affiliation, DBLP["locatedInCountry"], builder.choice(countries))
            if config.include_literals:
                builder.add_literal(affiliation, DBLP["affiliationName"],
                                    f"Affiliation {affiliation.local_name()}")
        for event in conferences_events:
            builder.add(event, DBLP["eventOfSeries"], builder.choice(series))
            builder.add(event, DBLP["heldInCountry"], builder.choice(countries))
            # Events mention papers independently of the papers' communities:
            # pure noise for the venue-classification task, only present in
            # the full KG (meta-sampling d1h1 never reaches these edges).
            for _ in range(2):
                builder.add(event, DBLP["presentsPaper"], builder.choice(papers))
            if config.include_literals:
                builder.add_literal(event, DBLP["eventYear"],
                                    int(2000 + rng.integers(0, 23)))
        for project in projects:
            builder.add(project, DBLP["fundsAuthor"], builder.choice(authors))
            builder.add(project, DBLP["hostedBy"], builder.choice(affiliations))
        for award in awards:
            builder.add(award, DBLP["awardedTo"], builder.choice(authors))
            builder.add(award, DBLP["sponsoredBy"], builder.choice(publishers))
        for publisher in publishers:
            builder.add(publisher, DBLP["headquarteredIn"], builder.choice(countries))
        for editor in editors:
            builder.add(editor, DBLP["memberOf"], builder.choice(affiliations))
        for grant in grants:
            builder.add(grant, DBLP["fundsProject"], builder.choice(projects))
            builder.add(grant, DBLP["grantedBy"], builder.choice(countries))
        for dataset in datasets:
            builder.add(dataset, DBLP["producedBy"], builder.choice(projects))
            builder.add(dataset, DBLP["hostedAt"], builder.choice(affiliations))
            builder.add(dataset, DBLP["referencedBy"], builder.choice(papers))
            if config.include_literals:
                builder.add_literal(dataset, DBLP["datasetSize"],
                                    int(rng.integers(1, 100000)))

    return builder.build()


# ---------------------------------------------------------------------------
# Standard task definitions (paper Table I: NC, LP, ES on DBLP)
# ---------------------------------------------------------------------------

def dblp_paper_venue_task() -> TaskSpec:
    """Paper-venue node classification (paper Fig 13)."""
    return TaskSpec(
        task_type=TaskType.NODE_CLASSIFICATION,
        name="dblp_paper_venue",
        target_node_type=DBLP["Publication"],
        label_predicate=DBLP["publishedIn"],
    )


def dblp_author_affiliation_task() -> TaskSpec:
    """Author-affiliation link prediction (paper Fig 15)."""
    return TaskSpec(
        task_type=TaskType.LINK_PREDICTION,
        name="dblp_author_affiliation",
        source_node_type=DBLP["Person"],
        destination_node_type=DBLP["Affiliation"],
        target_predicate=DBLP["affiliation"],
    )


def dblp_author_similarity_task() -> TaskSpec:
    """Author entity-similarity search (the ES task of Table I)."""
    return TaskSpec(
        task_type=TaskType.ENTITY_SIMILARITY,
        name="dblp_author_similarity",
        entity_node_type=DBLP["Person"],
    )
