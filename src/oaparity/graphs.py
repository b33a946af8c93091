"""Graph views of parity vectors: tau-graphs, their stack, and the sigma-graph.

For a parity vector on k columns, the tau-graph of column c joins {i, j}
when tau^c_{ij} = 1; it always decomposes as an isolated vertex c plus a
complete bipartite graph on the rest (one side may be empty).  The stack
superimposes all k tau-graphs mod 2.  The sigma-graph has the sigma matrix
as adjacency matrix: undirected when that matrix is symmetric (n = 0, 1 mod
4), a tournament otherwise.

The graphs of a tau are read off its one sigma, ``sigma_from_tau(t)``, so
they take a plausible tau and raise that function's OAError on any other.
As tau^c_{ij} = sigma_ci + sigma_cj, the sides of tau-graph c are the
values of sigma row c.  Summing over the columns c other than i and j
gives the stack: i ~ j exactly when in_i + in_j + C(n, 2) is odd, in_v
the in-degrees of the sigma-graph.  So the stack's parts are the in-degree
parity classes: the sides of a complete bipartite graph for n = 0, 1 mod 4,
two cliques for n = 2, 3 mod 4.

For k = n + 1 the plane conditions are degree parities.  The over-columns
sum rule of a plausible vector asks every pair of the stack to sum to
C(n, 2), so it holds iff all in-degrees share one parity, and by the
transpose law iff all out-degrees do: there is one class.  With k = n + 1
columns that is, for n = 0, 1, 2, 3 mod 4: all degrees even; all of one
parity; all in- and out-degrees odd; in-degrees of one parity and
out-degrees of the other.
``sigma_graph`` reads its degree law off the in-degrees.

Graphs have no loops or parallel edges.  "Complementing" a digraph means
reversing every edge, and switching a digraph at v reverses the edges at v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OAError
from .parity import SigmaMatrix, TauVector, _off_diagonal, binom2_bit, sigma_from_tau


@dataclass(frozen=True, eq=False)
class SimpleGraph:
    """Loop-free graph on vertices 1..k backed by an adjacency matrix."""

    k: int
    directed: bool
    adj: np.ndarray  # (k+1, k+1) uint8, row/col 0 unused

    @classmethod
    def from_edges(cls, k, edges, directed=False):
        adj = np.zeros((k + 1, k + 1), dtype=np.uint8)
        for i, j in edges:
            adj[i, j] = 1
            if not directed:
                adj[j, i] = 1
        return cls(k=k, directed=directed, adj=_frozen(adj))

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


def tau_graph(t: TauVector, c: int) -> SimpleGraph:
    """The tau-graph of column c as a plain graph on 1..k."""
    return SimpleGraph(k=t.k, directed=False, adj=t.bits[c])


def tau_graphs(t: TauVector) -> list[TauGraphDecomposition]:
    """Decompose every tau-graph of a plausible tau as isolated vertex +
    complete bipartite.

    As tau^c_{ij} = sigma_ci + sigma_cj, the sides of tau-graph c are the
    values of row c of ``sigma_from_tau(t)``, with w(c), the lowest vertex
    other than c, on side 0.  The side of v is sigma_cv + sigma_c1: w(c) = 1
    for c >= 2, and for c = 1 standardisation pins sigma_12 = 0 = sigma_11.
    """
    m = sigma_from_tau(t).m
    verts = range(1, t.k + 1)
    out = []
    for c, side in enumerate((m ^ m[:, 1:2]).tolist()[1:], start=1):
        part2 = tuple(v for v in verts if v != c and side[v])
        rest = tuple(v for v in verts if v != c and not side[v])
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


def _odd_in_degrees(t: TauVector) -> np.ndarray:
    """in_v mod 2 of the sigma-graph of a plausible tau, at index v."""
    return sigma_from_tau(t).m.sum(axis=0) & 1


def stack_graph(t: TauVector) -> SimpleGraph:
    """The stack of a plausible tau: i ~ j exactly when in_i + in_j + C(n, 2)
    is odd."""
    odd = _odd_in_degrees(t)
    adj = (odd[:, None] ^ odd[None, :] ^ binom2_bit(t.nmod4)) & _off_diagonal(t.k)
    return SimpleGraph(k=t.k, directed=False, adj=_frozen(adj.astype(np.uint8)))


def stack(t: TauVector) -> StackClassification:
    """Classify the stack of a plausible tau per the residue of n mod 4.

    Its parts are the in-degree parity classes, vertex 1's class first.  A
    single class is an empty stack, reported as parts () | all, for n = 0, 1
    mod 4, and one clique, all | (), for n = 2, 3 mod 4; for a plane
    candidate it is the plane-plausible case, and sets ``refined``.
    """
    odd = _odd_in_degrees(t)[1:]
    verts = np.arange(1, t.k + 1)
    mine = odd == odd[0]
    own, other = tuple(verts[mine].tolist()), tuple(verts[~mine].tolist())
    one_class, bipartite = not other, t.nmod4 in (0, 1)
    if one_class and bipartite:
        own, other = (), own
    refined = None
    if one_class and t.n is not None and t.k == t.n + 1:
        refined = "empty" if bipartite else "complete"
    shape = "complete-bipartite" if bipartite else "union-of-cliques"
    return StackClassification(shape=shape, part1=own, part2=other, refined=refined)


# ---------------------------------------------------------------------------
# the sigma-graph


@dataclass(frozen=True)
class SigmaGraphReport:
    """Orientation, degrees and degree-parity summary of a sigma-graph.

    ``degree_law`` records the plane-case degree condition when k = n+1 and
    n is known ("pass"/"fail"), else None.  In- and out-degrees are reported
    separately even for undirected graphs, keeping one report schema.
    """

    oriented: bool
    graph: SimpleGraph
    out_degrees: tuple
    in_degrees: tuple
    out_parity_uniform: bool
    in_parity_uniform: bool
    degree_law: str | None
    degree_law_detail: str


# the degree law of a plane, k = n + 1, in the terms of each n mod 4
_DEGREE_LAWS = (
    "all degrees even",
    "all degrees of one parity",
    "all in-degrees and out-degrees odd",
    "in-degrees of one parity, out-degrees of the other",
)


def sigma_graph(s: SigmaMatrix) -> SigmaGraphReport:
    oriented = s.nmod4 in (2, 3)
    g = SimpleGraph(k=s.k, directed=oriented, adj=_frozen(s.m.copy()))
    out_deg = s.row_sums()
    in_deg = tuple(int(x) for x in s.m[1:, 1:].sum(axis=0))
    out_uni = len({d & 1 for d in out_deg}) == 1
    in_uni = len({d & 1 for d in in_deg}) == 1
    law = None
    detail = ""
    if s.n is not None and s.k == s.n + 1:
        law = "pass" if in_uni else "fail"
        detail = _DEGREE_LAWS[s.nmod4]
    return SigmaGraphReport(
        oriented=oriented,
        graph=g,
        out_degrees=out_deg,
        in_degrees=in_deg,
        out_parity_uniform=out_uni,
        in_parity_uniform=in_uni,
        degree_law=law,
        degree_law_detail=detail,
    )
