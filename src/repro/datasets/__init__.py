"""Synthetic benchmark knowledge graphs and their standard GML tasks."""

from repro.datasets.generator import (
    GeneratorConfig,
    KGBuilder,
    StreamingKGConfig,
    stream_synthetic_kg,
)
from repro.datasets.dblp import (
    DBLPConfig,
    dblp_author_affiliation_task,
    dblp_author_similarity_task,
    dblp_paper_venue_task,
    generate_dblp_kg,
)
from repro.datasets.yago import YAGOConfig, generate_yago_kg, yago_place_country_task

__all__ = [
    "GeneratorConfig",
    "KGBuilder",
    "StreamingKGConfig",
    "stream_synthetic_kg",
    "DBLPConfig",
    "generate_dblp_kg",
    "dblp_paper_venue_task",
    "dblp_author_affiliation_task",
    "dblp_author_similarity_task",
    "YAGOConfig",
    "generate_yago_kg",
    "yago_place_country_task",
]
