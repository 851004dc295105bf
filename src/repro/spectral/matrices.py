"""Matrix views of a graph: adjacency, transition, normalized, Laplacian.

Loops follow the random-walk convention: a loop at ``v`` adds 2 to
``A[v, v]`` (and 2 to the degree), which keeps ``P = D⁻¹A`` row-stochastic
and the stationary distribution proportional to degree — exactly the chain
the paper analyses on contracted multigraphs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import SpectralError
from repro.graphs.graph import Graph
# numpy-only, so walks can use them without loading scipy; re-exported here
from repro.graphs.properties import degree_vector, stationary_distribution

__all__ = [
    "degree_vector",
    "adjacency_matrix",
    "transition_matrix",
    "normalized_adjacency",
    "laplacian_matrix",
    "stationary_distribution",
]


def adjacency_matrix(graph: Graph, sparse: bool = True):
    """Multigraph adjacency matrix; entry (u, v) counts edges between them.

    Loops contribute 2 to the diagonal so row sums equal degrees.
    """
    n = graph.n
    rows, cols, vals = [], [], []
    for u, v in graph.edges():
        if u == v:
            rows.append(u)
            cols.append(u)
            vals.append(2.0)
        else:
            rows.append(u)
            cols.append(v)
            vals.append(1.0)
            rows.append(v)
            cols.append(u)
            vals.append(1.0)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    if sparse:
        return matrix
    return matrix.toarray()


def transition_matrix(graph: Graph, lazy: bool = False, sparse: bool = True):
    """Simple-random-walk transition matrix ``P = D⁻¹A``.

    With ``lazy=True`` returns ``(I + P)/2`` — the paper's lazification, used
    whenever ``λ_n`` could dominate (e.g. bipartite graphs).

    Raises
    ------
    SpectralError
        If some vertex is isolated (the walk is undefined there).
    """
    degrees = degree_vector(graph)
    if np.any(degrees == 0):
        raise SpectralError("transition matrix undefined: isolated vertex present")
    adjacency = adjacency_matrix(graph, sparse=True)
    inv_deg = sp.diags(1.0 / degrees)
    walk = inv_deg @ adjacency
    if lazy:
        walk = 0.5 * (sp.identity(graph.n, format="csr") + walk)
    walk = walk.tocsr()
    if sparse:
        return walk
    return walk.toarray()


def normalized_adjacency(graph: Graph, sparse: bool = True):
    """Symmetric normalization ``N = D^{-1/2} A D^{-1/2}``.

    ``N`` is similar to ``P`` (same spectrum) but symmetric, so Lanczos
    iterations and dense symmetric eigensolvers apply.
    """
    degrees = degree_vector(graph)
    if np.any(degrees == 0):
        raise SpectralError("normalized adjacency undefined: isolated vertex present")
    adjacency = adjacency_matrix(graph, sparse=True)
    half = sp.diags(1.0 / np.sqrt(degrees))
    sym = (half @ adjacency @ half).tocsr()
    if sparse:
        return sym
    return sym.toarray()


def laplacian_matrix(graph: Graph, sparse: bool = True):
    """Combinatorial Laplacian ``L = D − A`` (loops cancel out of L)."""
    degrees = sp.diags(degree_vector(graph))
    lap = (degrees - adjacency_matrix(graph, sparse=True)).tocsr()
    if sparse:
        return lap
    return lap.toarray()
