"""Graph substrate: weighted graphs, Louvain, components, k-NN construction."""

from .components import component_labels, connected_components
from .csr import CSRGraph, tsg_csr, tsg_edge_arrays
from .delta import DeltaTSGBuilder
from .graph import Graph
from .knn import absolute_weight_graph, knn_graph, prune_weak_edges
from .label_propagation import label_propagation
from .louvain import LouvainResult, louvain
from .modularity import modularity

__all__ = [
    "Graph",
    "CSRGraph",
    "louvain",
    "label_propagation",
    "LouvainResult",
    "modularity",
    "connected_components",
    "component_labels",
    "knn_graph",
    "prune_weak_edges",
    "absolute_weight_graph",
    "tsg_csr",
    "tsg_edge_arrays",
    "DeltaTSGBuilder",
]
