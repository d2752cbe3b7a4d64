"""Synthetic YAGO-4-like knowledge graph (paper Table I, Fig 14).

The real YAGO-4 has ~400M triples, 104 node types and 98 edge types; the
KGNet task on it is *place-country* node classification (1.2M places,
200 countries).  This generator reproduces the shape at laptop scale: a
relevant core of places, countries, people and organisations whose country
labels are learnable from geography-flavoured structure, plus a long tail of
creative works, events, products and taxonomy nodes that the meta-sampler
should prune.
"""

from __future__ import annotations

from typing import List

from repro.datasets.generator import GeneratorConfig, KGBuilder
from repro.gml.tasks import TaskSpec, TaskType
from repro.rdf.graph import Graph
from repro.rdf.namespace import YAGO, SCHEMA
from repro.rdf.terms import IRI

__all__ = ["YAGOConfig", "generate_yago_kg", "yago_place_country_task"]

#: Probability a place's neighbours / inhabitants share its country (the
#: structural signal the classifier exploits).
_COUNTRY_COHERENCE = 0.85


class YAGOConfig(GeneratorConfig):
    """Seed and scale of the YAGO-4-like generator."""


def generate_yago_kg(config: YAGOConfig = None) -> Graph:
    """Generate the YAGO-4-like KG; deterministic for a fixed config seed."""
    config = config or YAGOConfig()
    builder = KGBuilder(YAGO, seed=config.seed + 1)
    rng = builder.rng

    # Instance counts at scale 1.0.
    num_places = config.scaled(400, minimum=20)
    num_countries = config.scaled(10, minimum=3)
    num_people = config.scaled(200, minimum=10)
    num_organizations = config.scaled(60, minimum=5)

    countries = [builder.new_entity("Country", "country")
                 for _ in range(num_countries)]
    places = [builder.new_entity("Place", "place") for _ in range(num_places)]
    people = [builder.new_entity("Person", "person") for _ in range(num_people)]
    organizations = [builder.new_entity("Organization", "organization")
                     for _ in range(num_organizations)]

    # Assign each place a ground-truth country; the label edge is
    # yago:locatedInCountry (removed from the structure by the transformer).
    country_of_place = {}
    places_by_country: List[List[IRI]] = [[] for _ in range(num_countries)]
    for index, place in enumerate(places):
        country_index = index % num_countries
        country_of_place[place] = country_index
        places_by_country[country_index].append(place)
        builder.add(place, YAGO["locatedInCountry"], countries[country_index])
        if config.include_literals:
            builder.add_literal(place, SCHEMA["name"], f"Place {place.local_name()}")
            builder.add_literal(place, SCHEMA["population"], int(rng.integers(1000, 10_000_000)))

    # Structural signal 1: neighbouring places are (mostly) in the same country.
    for place in places:
        country_index = country_of_place[place]
        for _ in range(builder.poisson(2.0, minimum=1)):
            if rng.random() < _COUNTRY_COHERENCE and len(places_by_country[country_index]) > 1:
                neighbor = builder.choice(places_by_country[country_index])
            else:
                neighbor = builder.choice(places)
            if neighbor != place:
                builder.add(place, SCHEMA["containedInPlace"], neighbor)

    # Structural signal 2: people born in / living in places are citizens of
    # the corresponding country.
    for person in people:
        place = builder.choice(places)
        country_index = country_of_place[place]
        builder.add(person, SCHEMA["birthPlace"], place)
        if rng.random() < _COUNTRY_COHERENCE:
            builder.add(person, SCHEMA["nationality"], countries[country_index])
        else:
            builder.add(person, SCHEMA["nationality"], builder.choice(countries))
        if rng.random() < 0.5:
            second_place = builder.choice(places_by_country[country_index])
            builder.add(person, SCHEMA["homeLocation"], second_place)
        if config.include_literals:
            builder.add_literal(person, SCHEMA["name"], f"Person {person.local_name()}")

    # Structural signal 3: organisations are headquartered in places.
    for organization in organizations:
        place = builder.choice(places)
        builder.add(organization, SCHEMA["location"], place)
        builder.add(organization, SCHEMA["foundingLocation"],
                    builder.choice(places_by_country[country_of_place[place]]))
        if config.include_literals:
            builder.add_literal(organization, SCHEMA["name"],
                                f"Organization {organization.local_name()}")

    # ------------------------------------------------------------------
    # Task-irrelevant long tail (creative works, events, products, taxa ...)
    # ------------------------------------------------------------------
    if config.include_irrelevant_structure:
        creative_works = [builder.new_entity("CreativeWork", "work")
                          for _ in range(config.scaled(250, minimum=5))]
        events = [builder.new_entity("Event", "event")
                  for _ in range(config.scaled(150, minimum=5))]
        products = [builder.new_entity("Product", "product")
                    for _ in range(config.scaled(120, minimum=3))]
        taxa = [builder.new_entity("Taxon", "taxon")
                for _ in range(config.scaled(80, minimum=3))]
        genres = [builder.new_entity("Genre", "genre")
                  for _ in range(config.scaled(12, minimum=3))]
        languages = [builder.new_entity("Language", "language")
                     for _ in range(config.scaled(15, minimum=3))]
        awards = [builder.new_entity("Award", "award")
                  for _ in range(config.scaled(10, minimum=2))]

        for work in creative_works:
            builder.add(work, SCHEMA["author"], builder.choice(people))
            builder.add(work, SCHEMA["genre"], builder.choice(genres))
            builder.add(work, SCHEMA["inLanguage"], builder.choice(languages))
            if rng.random() < 0.5:
                builder.add(work, SCHEMA["locationCreated"], builder.choice(places))
            if rng.random() < 0.3:
                builder.add(work, SCHEMA["award"], builder.choice(awards))
            if config.include_literals:
                builder.add_literal(work, SCHEMA["datePublished"],
                                    int(1950 + rng.integers(0, 74)))
        for event in events:
            builder.add(event, SCHEMA["organizer"], builder.choice(organizations))
            builder.add(event, SCHEMA["performer"], builder.choice(people))
            # Events happen at random places regardless of country: noise for
            # the place-country task that only the full KG contains.
            builder.add(event, SCHEMA["location"], builder.choice(places))
            if config.include_literals:
                builder.add_literal(event, SCHEMA["startDate"],
                                    int(1990 + rng.integers(0, 34)))
        for product in products:
            builder.add(product, SCHEMA["manufacturer"], builder.choice(organizations))
            builder.add(product, SCHEMA["material"], builder.choice(taxa))
        for taxon in taxa:
            builder.add(taxon, SCHEMA["parentTaxon"], builder.choice(taxa))
        for language in languages:
            builder.add(language, SCHEMA["supersededBy"], builder.choice(languages))

    return builder.build()


def yago_place_country_task() -> TaskSpec:
    """Place-country node classification (paper Fig 14)."""
    return TaskSpec(
        task_type=TaskType.NODE_CLASSIFICATION,
        name="yago_place_country",
        target_node_type=YAGO["Place"],
        label_predicate=YAGO["locatedInCountry"],
    )
