"""Cross-validation of the graph substrate against networkx.

networkx serves as an independent oracle: BFS levels, coloring
validity, connectivity of grid partitions and of the mesh are checked
against its implementations.
"""

import networkx as nx
import numpy as np
import pytest

from repro.matrices.fem import fem_poisson_2d
from repro.matrices.poisson import poisson_2d
from repro.partition import (
    greedy_coloring,
    matrix_graph,
    multilevel_bisection,
    partition,
)
from repro.sparsela import bfs_order


def _to_nx(A):
    g = nx.Graph()
    g.add_nodes_from(range(A.n_rows))
    rows = A._expanded_row_ids()
    for u, v in zip(rows, A.indices):
        if u != v:
            g.add_edge(int(u), int(v))
    return g


@pytest.fixture(scope="module")
def fem_mat():
    return fem_poisson_2d(target_rows=250, seed=9).matrix


def test_bfs_levels_match_networkx(fem_mat):
    """The BFS order visits the mesh level by level: networkx's
    shortest-path distances from the start never decrease along it."""
    g = _to_nx(fem_mat)
    lengths = nx.single_source_shortest_path_length(g, 0)
    dist = [lengths[int(v)] for v in bfs_order(fem_mat, start=0)]
    assert dist[0] == 0
    assert all(a <= b for a, b in zip(dist, dist[1:]))


def test_coloring_is_proper_per_networkx(fem_mat):
    g = _to_nx(fem_mat)
    colors = greedy_coloring(fem_mat)
    for u, v in g.edges:
        assert colors[u] != colors[v]


def test_coloring_count_comparable_to_networkx_greedy(fem_mat):
    g = _to_nx(fem_mat)
    nx_colors = nx.greedy_color(g, strategy="largest_first")
    n_nx = max(nx_colors.values()) + 1
    n_ours = int(greedy_coloring(fem_mat).max()) + 1
    # same ballpark: neither should need twice the other's colors
    assert n_ours <= 2 * n_nx
    assert n_nx <= 2 * n_ours


def test_bisection_halves_are_connected_on_grid():
    """Multilevel bisection of a grid should produce two connected
    halves (a quality property METIS also delivers)."""
    A = poisson_2d(12)
    g = _to_nx(A)
    side = multilevel_bisection(matrix_graph(A), seed=0)
    for s in (0, 1):
        nodes = [v for v in range(A.n_rows) if side[v] == s]
        assert nx.is_connected(g.subgraph(nodes))


def test_partition_parts_mostly_connected(fem_mat):
    """Multilevel k-way parts are overwhelmingly connected on a planar
    mesh (allow a rare fragmented part from FM moves)."""
    g = _to_nx(fem_mat)
    part = partition(fem_mat, 6, seed=0)
    disconnected = 0
    for p in range(6):
        nodes = [int(v) for v in part.rows_of(p)]
        if not nx.is_connected(g.subgraph(nodes)):
            disconnected += 1
    assert disconnected <= 1


def test_algebraic_connectivity_positive(fem_mat):
    """The mesh is connected ⇔ lambda_2 > 0; cross-check via networkx."""
    g = _to_nx(fem_mat)
    assert nx.is_connected(g)
    lam2 = nx.algebraic_connectivity(g, seed=1, method="tracemin_lu")
    assert lam2 > 0
