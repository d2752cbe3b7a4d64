"""Neural-network building blocks: modules, layers, models, optimizers."""

from repro.gml.nn.module import Module
from repro.gml.nn.init import xavier_uniform, zeros_init
from repro.gml.nn.layers import GATConv, GCNConv, RGCNConv
from repro.gml.nn.models import GAT, GCN, NodeClassifier, RGCN
from repro.gml.nn.optim import Adam, Optimizer, clip_grad_norm

__all__ = [
    "Module",
    "xavier_uniform",
    "zeros_init",
    "GCNConv",
    "RGCNConv",
    "GATConv",
    "NodeClassifier",
    "GCN",
    "RGCN",
    "GAT",
    "Optimizer",
    "Adam",
    "clip_grad_norm",
]
