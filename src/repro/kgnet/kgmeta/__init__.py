"""KGMeta: the RDF graph of trained-model metadata and its governor."""

from repro.kgnet.kgmeta import ontology
from repro.kgnet.kgmeta.governor import (
    KGMetaGovernor,
    ModelMetadata,
)

__all__ = ["ontology", "KGMetaGovernor", "ModelMetadata"]
