"""Graph views of parity vectors: tau-graphs, their stack, and the sigma-graph.

For a parity vector on k columns, the tau-graph of column c joins {i, j}
when tau^c_{ij} = 1; it always decomposes as an isolated vertex c plus a
complete bipartite graph on the rest (one side may be empty).  The stack
superimposes all k tau-graphs mod 2.  The sigma-graph has the sigma matrix
as adjacency matrix: undirected when that matrix is symmetric (n = 0, 1 mod
4), a tournament otherwise.

The graphs are read off one standardised sigma, ``standard_sigma``, of an
array, a plausible tau or a sigma matrix; a tau that is not plausible
raises the OAError of ``sigma_from_tau``, the one plausibility gate, and
no tau cube is built.  As tau^c_{ij} = sigma_ci + sigma_cj, tau-graph c
joins the vertices other than c on which sigma row c differs, so its sides
are the values of that row.  Summing over the columns c other than i and
j gives the stack: i ~ j exactly when in_i + in_j + C(n, 2) is odd, in_v
the in-degrees of the sigma-graph.  By the transpose law sigma_ji =
sigma_ij + C(n, 2), in_v = mu_v + (k - 1) * C(n, 2), mu_v the out-degrees
(sigma's row sums), a shift common to every vertex: i ~ j exactly when
mu_i + mu_j + C(n, 2) is odd, and the stack's parts are the parity classes
of mu: the sides of a complete bipartite graph for n = 0, 1 mod 4, two
cliques for n = 2, 3 mod 4.  The in-degrees follow from mu by the same law:
in_v = mu_v where sigma is symmetric and k - 1 - mu_v in a tournament.

For k = n + 1 the plane conditions are degree parities.  The over-columns
sum rule of a plausible vector asks every pair of the stack to sum to
C(n, 2), so it holds iff all in-degrees share one parity, and by the
transpose law iff all mu_v do: there is one class.  With k = n + 1
columns that is, for n = 0, 1, 2, 3 mod 4: all degrees even; all of one
parity; all in- and out-degrees odd; in-degrees of one parity and
out-degrees of the other.  That verdict is ``SigmaMatrix.pp_plausible``:
``stack`` sets ``refined`` and ``sigma_graph`` its degree law from it.

Graphs have no loops or parallel edges.  "Complementing" a digraph means
reversing every edge, and switching a digraph at v reverses the edges at v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OAError
from .parity import SigmaMatrix, _off_diagonal, binom2_bit, standard_sigma


@dataclass(frozen=True, eq=False)
class SimpleGraph:
    """Loop-free graph on vertices 1..k backed by an adjacency matrix."""

    k: int
    directed: bool
    adj: np.ndarray  # (k+1, k+1) uint8, row/col 0 unused

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i, j])

    def edges(self) -> list[tuple[int, int]]:
        if self.directed:
            return [tuple(e) for e in np.argwhere(self.adj).tolist()]
        out = np.argwhere(np.triu(self.adj, 1))
        return [tuple(e) for e in out.tolist()]

    def __eq__(self, other):
        return (
            isinstance(other, SimpleGraph)
            and self.k == other.k
            and self.directed == other.directed
            and np.array_equal(self.adj, other.adj)
        )

    def __hash__(self):
        return hash((self.k, self.directed, self.adj.tobytes()))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def graph_switch(g: SimpleGraph, v: int) -> SimpleGraph:
    """Complement the neighbourhood of v (undirected) or reverse its edges."""
    if not 1 <= v <= g.k:
        raise OAError(f"vertex {v} out of range 1..{g.k}")
    adj = g.adj.copy()
    if g.directed:
        row = adj[v].copy()
        adj[v] = adj[:, v]
        adj[:, v] = row
    else:
        adj[v, 1:] ^= 1
        adj[1:, v] ^= 1
        adj[v, v] = 0
    return SimpleGraph(k=g.k, directed=g.directed, adj=_frozen(adj))


def graph_complement(g: SimpleGraph) -> SimpleGraph:
    """Complement all edges (undirected) or reverse all edges (directed)."""
    if g.directed:
        adj = np.ascontiguousarray(g.adj.T)
    else:
        adj = g.adj ^ _off_diagonal(g.k)
    return SimpleGraph(k=g.k, directed=g.directed, adj=_frozen(adj))


def to_dot(g: SimpleGraph, name: str = "G") -> str:
    """Plain DOT emitter (no layout hints)."""
    kind, arrow = ("digraph", "->") if g.directed else ("graph", "--")
    lines = [f"{kind} {name} {{"]
    seen = set()
    for i, j in g.edges():
        lines.append(f"  {i} {arrow} {j};")
        seen.update((i, j))
    for v in range(1, g.k + 1):
        if v not in seen:
            lines.append(f"  {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tau-graphs


@dataclass(frozen=True)
class TauGraphDecomposition:
    """Isolated vertex c plus the complete bipartite graph on part1 | part2.

    part1 is the side containing the lowest-labelled vertex when the graph
    has edges, and is empty for the edgeless graph (reported as K_{0,k-1}).
    """

    c: int
    part1: tuple
    part2: tuple

    @property
    def sizes(self) -> tuple[int, int]:
        return (len(self.part1), len(self.part2))


def tau_graph(x, c: int) -> SimpleGraph:
    """The tau-graph of column c, 1 <= c <= k, of an array, a plausible tau
    or a sigma matrix, as a plain graph on 1..k: i ~ j, both other than c,
    exactly when sigma_ci + sigma_cj = 1."""
    if not 1 <= c <= x.k:
        raise OAError(f"column {c} out of range 1..{x.k}")
    row, others = standard_sigma(x).m[c], _off_diagonal(x.k)[c]
    adj = (row[:, None] ^ row) & np.outer(others, others)
    return SimpleGraph(k=x.k, directed=False, adj=_frozen(adj))


def tau_graphs(x) -> list[TauGraphDecomposition]:
    """Decompose every tau-graph of an array, a plausible tau or a sigma
    matrix as isolated vertex + complete bipartite.

    The sides of tau-graph c are the values of row c of its standardised
    sigma, with w(c), the lowest vertex other than c, on side 0.  The side
    of v is sigma_cv + sigma_c1: w(c) = 1 for c >= 2, and for c = 1
    standardisation pins sigma_12 = 0 = sigma_11.
    """
    m = standard_sigma(x).m
    side = m ^ m[:, 1:2]
    side[:, 0] = 2  # on neither side: the unused index 0 and c itself
    np.fill_diagonal(side, 2)
    # each row's vertices by side, 0 then 1 then neither, ascending within each
    order = np.argsort(side[1:], kind="stable").tolist()
    ones = np.count_nonzero(side[1:] == 1, axis=1).tolist()
    out = []
    for c, row, n1 in zip(range(1, x.k + 1), order, ones):
        n0 = x.k - 1 - n1
        part2, rest = tuple(row[n0:n0 + n1]), tuple(row[:n0])
        p1, p2 = (rest, part2) if part2 else ((), rest)
        out.append(TauGraphDecomposition(c=c, part1=p1, part2=p2))
    return out


# ---------------------------------------------------------------------------
# the stack


@dataclass(frozen=True)
class StackClassification:
    """Shape of the mod-2 superposition of all tau-graphs.

    shape is "complete-bipartite" (parts part1 | part2, n = 0,1 mod 4) or
    "union-of-cliques" (cliques part1, part2, n = 2,3 mod 4).  For plane
    candidates (k = n+1) with a plane-plausible vector the refined shape
    ("empty" or "complete") is recorded.
    """

    shape: str
    part1: tuple
    part2: tuple
    refined: str | None = None


def stack_graph(x) -> SimpleGraph:
    """The stack of an array, a plausible tau or a sigma matrix: i ~ j
    exactly when mu_i + mu_j + C(n, 2) is odd, mu the row sums."""
    s = standard_sigma(x)
    odd = s.m.sum(axis=1) & 1
    adj = (odd[:, None] ^ odd ^ binom2_bit(s.nmod4)) & _off_diagonal(s.k)
    return SimpleGraph(k=s.k, directed=False, adj=_frozen(adj.astype(np.uint8)))


def stack(x) -> StackClassification:
    """Classify the stack of an array, a plausible tau or a sigma matrix per
    the residue of n mod 4.

    Its parts are the parity classes of mu, the row sums, which are the
    in-degree parity classes, vertex 1's class first.  A single class is an
    empty stack, reported as parts () | all, for n = 0, 1 mod 4, and one
    clique, all | (), for n = 2, 3 mod 4; ``refined`` is set when the
    sigma's plane verdict, ``pp_plausible``, is "yes".
    """
    s = standard_sigma(x)
    odd = s.m[1:].sum(axis=1) & 1
    verts = np.arange(1, s.k + 1)
    mine = odd == odd[0]
    own, other = tuple(verts[mine].tolist()), tuple(verts[~mine].tolist())
    bipartite = s.nmod4 in (0, 1)
    if not other and bipartite:
        own, other = (), own
    refined = ("empty" if bipartite else "complete") if s.pp_plausible == "yes" else None
    shape = "complete-bipartite" if bipartite else "union-of-cliques"
    return StackClassification(shape=shape, part1=own, part2=other, refined=refined)


# ---------------------------------------------------------------------------
# the sigma-graph


@dataclass(frozen=True)
class SigmaGraphReport:
    """Orientation, degrees and degree-parity summary of a sigma-graph.

    ``degree_law`` records the plane-case degree condition, the sigma's
    ``pp_plausible``, when k = n+1 and n is known ("pass"/"fail"), else
    None.  In- and out-degrees are reported separately even for undirected
    graphs, keeping one report schema.
    """

    oriented: bool
    graph: SimpleGraph
    out_degrees: tuple
    in_degrees: tuple
    degree_law: str | None


def sigma_graph(s: SigmaMatrix) -> SigmaGraphReport:
    """The sigma-graph of s: out-degrees mu, the row sums, and in-degrees by
    the transpose law, mu for n = 0, 1 mod 4 and k - 1 - mu for n = 2, 3."""
    oriented = s.nmod4 in (2, 3)
    g = SimpleGraph(k=s.k, directed=oriented, adj=_frozen(s.m.copy()))
    out_deg = s.row_sums()
    in_deg = tuple(s.k - 1 - mu for mu in out_deg) if oriented else out_deg
    law = {"yes": "pass", "no": "fail"}.get(s.pp_plausible)
    return SigmaGraphReport(
        oriented=oriented,
        graph=g,
        out_degrees=out_deg,
        in_degrees=in_deg,
        degree_law=law,
    )
