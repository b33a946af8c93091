import itertools
import random

import numpy as np
import pytest

from oaparity.core import OAError, Transform, apply_transform
from oaparity.ensemble import ensemble_census
from oaparity.graphs import (
    SimpleGraph,
    graph_complement,
    graph_switch,
    sigma_graph,
    stack,
    stack_graph,
    tau_graph,
    tau_graphs,
    to_dot,
)
from oaparity.parity import (
    StandardSigma,
    TauVector,
    check_plausible,
    free_pairs,
    sigma_from_tau,
    sigma_parity,
    tau_from_sigma,
    tau_parity,
)
from oaparity.constructions import (
    block_sigma,
    circulant_sigma,
    linear_mols,
    lower_triangular_sigma,
    pp_plausible_sigma,
)

import oracle
from conftest import flip_components, random_plausible_tau, result_or_error, zn_linear_oa


def random_graph(k, directed, rng):
    adj = np.zeros((k + 1, k + 1), dtype=np.uint8)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if directed:
                if rng.random() < 0.5:
                    adj[i, j] = 1
                else:
                    adj[j, i] = 1
            elif rng.random() < 0.5:
                adj[i, j] = adj[j, i] = 1
    return SimpleGraph(k=k, directed=directed, adj=adj)


@pytest.mark.parametrize("directed", [False, True])
def test_switch_involution(directed):
    rng = random.Random(1)
    g = random_graph(6, directed, rng)
    assert graph_switch(graph_switch(g, 3), 3) == g


@pytest.mark.parametrize("directed", [False, True])
def test_complement_involution(directed):
    rng = random.Random(2)
    g = random_graph(6, directed, rng)
    assert graph_complement(graph_complement(g)) == g


@pytest.mark.parametrize("directed", [False, True])
def test_switch_order_independence(directed):
    rng = random.Random(3)
    g = random_graph(7, directed, rng)
    assert graph_switch(graph_switch(g, 2), 5) == graph_switch(graph_switch(g, 5), 2)
    # and switches commute with complementation
    assert graph_complement(graph_switch(g, 4)) == graph_switch(graph_complement(g), 4)


def test_to_dot():
    g = SimpleGraph.from_edges(3, [(1, 2)])
    assert to_dot(g) == "graph G {\n  1 -- 2;\n  3;\n}\n"
    d = SimpleGraph.from_edges(3, [(2, 3)], directed=True)
    assert "2 -> 3;" in to_dot(d)


# ---------------------------------------------------------------------------
# tau-graphs


def test_zero_vector_gives_empty_graphs():
    t = TauVector(k=6, nmod4=0, bits=np.zeros((7, 7, 7), dtype=np.uint8))
    for d in tau_graphs(t):
        assert d.part1 == ()
        assert len(d.part2) == 5


def test_every_oa_tau_graph_decomposes():
    for p in (3, 4, 5, 7, 8, 9):
        if p in (4, 8, 9):
            a = linear_mols(p)
        else:
            a = zn_linear_oa(p)
        t = tau_parity(a)
        decs = tau_graphs(t)
        g = [tau_graph(t, d.c) for d in decs]
        for d, gr in zip(decs, g):
            for i in d.part1:
                for j in d.part2:
                    assert gr.has_edge(i, j)
            for u, v in itertools.combinations(d.part1, 2):
                assert not gr.has_edge(u, v)
            for u, v in itertools.combinations(d.part2, 2):
                assert not gr.has_edge(u, v)


def test_circulant_tau_graphs_are_balanced():
    t = tau_from_sigma(circulant_sigma(6))
    for d in tau_graphs(t):
        assert sorted(d.sizes) == [3, 3]
    t7 = tau_from_sigma(circulant_sigma(7))
    for d in tau_graphs(t7):
        assert sorted(d.sizes) == [3, 4]


def test_lower_triangular_tau_graph_parts():
    t = tau_from_sigma(lower_triangular_sigma(5, 2))
    d = tau_graphs(t)[2]  # graph of column 3
    assert d.c == 3
    assert d.part1 == (1, 2)
    assert d.part2 == (4, 5)


def test_bad_vector_fails_decomposition():
    bits = np.zeros((6, 6, 6), dtype=np.uint8)
    bits[1, 2, 3] = 1  # a single edge cannot be complete bipartite on 4 vertices
    t = TauVector(k=5, nmod4=0, bits=bits)
    with pytest.raises(OAError):
        tau_graphs(t)


def test_partite_sizes_for_even_plane_orders():
    # for an OA(n+1, n) with n even, both sides are congruent to n/2 mod 2
    for q in (4, 8, 16):
        t = tau_parity(linear_mols(q))
        for d in tau_graphs(t):
            n1, n2 = d.sizes
            assert n1 % 2 == n2 % 2 == (q // 2) % 2


def _stack_parts(t):
    s = stack(t)
    return s.part1, s.part2


def _vectors(rng):
    for k in (3, 4, 5, 6, 8, 11, 15, 20, 33):
        for nm in range(4):
            for n in (None, k - 1 if (k - 1) % 4 == nm else None):
                yield random_plausible_tau(rng, k, nm, n=n)
    for q in (3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 31, 32):
        yield tau_parity(linear_mols(q))


def test_graph_splits_match_oracle():
    rng = random.Random(81)
    for t in _vectors(rng):
        decs = [(d.c, d.part1, d.part2) for d in tau_graphs(t)]
        assert decs == oracle.tau_graph_parts(t)
        assert _stack_parts(t) == oracle.stack_parts(t)
        # the stack is derived from in-degree parities; brute force sums the columns
        assert np.array_equal(stack_graph(t).adj, t.bits[1:].sum(axis=0) & 1)
        entries = oracle.entries(t)
        assert t.entries() == [list(e) for e in entries]
        for c in range(1, t.k + 1):
            edges = [(i, j) for c2, i, j, b in entries if c2 == c and b]
            assert tau_graph(t, c).edges() == edges


def test_graph_errors_match_oracle_on_flipped_vectors():
    # the graphs read the sigma of sigma_from_tau, so on a flipped vector each
    # raises exactly that function's error, or equals the brute-force parts
    # when the flips leave the vector plausible
    rng = random.Random(82)
    raised = 0
    for t in _vectors(rng):
        for count in (1, 2, 4):
            bad = flip_components(t, rng, count)
            gate = result_or_error(sigma_from_tau, bad)
            got = [result_or_error(f, bad) for f in (tau_graphs, _stack_parts, stack_graph)]
            if isinstance(gate, str):
                raised += 1
                assert got == [gate] * 3
            else:
                assert [(d.c, d.part1, d.part2) for d in got[0]] == oracle.tau_graph_parts(bad)
                assert got[1] == oracle.stack_parts(bad)
                assert np.array_equal(got[2].adj, bad.bits[1:].sum(axis=0) & 1)
    assert raised > 100, raised


# ---------------------------------------------------------------------------
# the stack


def test_stack_zero_even():
    t = TauVector(k=5, nmod4=0, bits=np.zeros((6, 6, 6), dtype=np.uint8))
    s = stack(t)
    assert s.shape == "complete-bipartite"
    assert s.part1 == ()
    assert s.part2 == (1, 2, 3, 4, 5)


def test_stack_complete_for_planes_n23():
    for q in (3, 7, 11):
        s = stack(tau_parity(linear_mols(q)))
        assert s.shape == "union-of-cliques"
        assert s.refined == "complete"
        assert len(s.part1) == q + 1 and s.part2 == ()


def test_stack_empty_for_planes_n01():
    for q in (4, 5, 8, 9, 13, 16):
        s = stack(tau_parity(linear_mols(q)))
        assert s.shape == "complete-bipartite"
        assert s.refined == "empty"


def test_stack_cliques_below_plane_size():
    t = tau_from_sigma(lower_triangular_sigma(5, 2))
    s = stack(t)
    assert s.shape == "union-of-cliques"
    assert s.refined is None
    g = stack_graph(t)
    for part in (s.part1, s.part2):
        for u, v in itertools.combinations(part, 2):
            assert g.has_edge(u, v)
    for u in s.part1:
        for v in s.part2:
            assert not g.has_edge(u, v)


def degree_law_by_residue(s) -> bool:
    """The plane degree law of a sigma with k = n+1, as stated for each n
    mod 4."""
    out_deg = [int(d) for d in s.m[1:, 1:].sum(axis=1)]
    in_deg = [int(d) for d in s.m[1:, 1:].sum(axis=0)]
    out_uni = len({d & 1 for d in out_deg}) == 1
    in_uni = len({d & 1 for d in in_deg}) == 1
    if s.nmod4 == 0:
        return all(d % 2 == 0 for d in out_deg)
    if s.nmod4 == 1:
        return out_uni
    if s.nmod4 == 2:
        return all(d % 2 == 1 for d in out_deg) and all(d % 2 == 1 for d in in_deg)
    return out_uni and in_uni and (out_deg[0] & 1) != (in_deg[0] & 1)


def test_plane_condition_derivations_agree():
    # k = n+1: the over-columns sum rule of check_plausible, the degree law
    # stated per n mod 4, the sigma-graph degree law and the census's
    # pp_plausible (both read off degree parities) and the refined stack
    # shape decide the same vectors, on pp_plausible_sigma completions and
    # on one-bit perturbations of them
    rng = random.Random(15)
    seen = {True: 0, False: 0}
    for n in range(3, 41):
        k = n + 1
        free = free_pairs(k)
        for _ in range(15):
            bits = [rng.getrandbits(1) for _ in range(n * (n - 1) // 2 - 1 + n % 2)]
            std = pp_plausible_sigma(n, bits)
            up = std.m.copy()
            v = rng.randrange(len(free[0]))
            up[free[0][v], free[1][v]] ^= 1
            for s in (std, StandardSigma.from_upper(k, n % 4, up, n=n)):
                t = tau_from_sigma(s)
                plane = check_plausible(t).pp_plausible == "yes"
                assert degree_law_by_residue(s) == plane, (n, s.word)
                assert (sigma_graph(s).degree_law == "pass") == plane, (n, s.word)
                assert ensemble_census(t).pp_plausible == ("yes" if plane else "no"), (n, s.word)
                stk = stack(t)
                assert (stk.refined is not None) == plane, (n, s.word)
                if plane:
                    full = tuple(range(1, k + 1))
                    if n % 4 in (0, 1):
                        assert (stk.refined, stk.part1, stk.part2) == ("empty", (), full)
                    else:
                        assert (stk.refined, stk.part1, stk.part2) == ("complete", full, ())
                seen[plane] += 1
    assert seen[True] >= 38 * 15 and seen[False] > 0, seen


# ---------------------------------------------------------------------------
# the sigma-graph


def test_zero_sigma_graph():
    from oaparity.parity import SigmaMatrix

    s = SigmaMatrix(k=5, nmod4=0, m=np.zeros((6, 6), dtype=np.uint8), n=4)
    rep = sigma_graph(s)
    assert not rep.oriented
    assert rep.out_degrees == (0, 0, 0, 0, 0)
    assert rep.degree_law == "pass"  # all degrees even


def test_block_sigma_graph_degrees():
    rep = sigma_graph(block_sigma(6))
    assert rep.oriented
    assert rep.out_degrees == (5, 5, 5, 3, 1, 1, 1)
    assert all(d % 2 == 1 for d in rep.out_degrees)
    assert all(d % 2 == 1 for d in rep.in_degrees)
    assert rep.degree_law == "pass"


def test_desarguesian_9_graph_undirected_uniform():
    rep = sigma_graph(sigma_parity(linear_mols(9)))
    assert not rep.oriented
    assert rep.out_parity_uniform
    assert rep.degree_law == "pass"


def test_circulant_7_degree_law_fails():
    # the literal circulant formula gives mixed in-degree parities at n = 3 mod 4
    rep = sigma_graph(circulant_sigma(7))
    assert rep.oriented
    assert rep.degree_law == "fail"
    assert sorted(rep.in_degrees) == [3, 3, 3, 3, 4, 4, 4, 4]


def test_tournament_orientation():
    rep = sigma_graph(block_sigma(7))
    assert rep.oriented
    g = rep.graph
    for i in range(1, 9):
        for j in range(i + 1, 9):
            assert g.has_edge(i, j) != g.has_edge(j, i)


def test_odd_symbol_perm_switches_sigma_graph():
    # odd relabelling of the symbols in one column of an odd-order array
    # switches the sigma-graph exactly at that column's vertex
    for q, col in ((5, 4), (7, 3), (9, 5)):
        a = linear_mols(q)
        perm = list(range(q))
        perm[0], perm[1] = perm[1], perm[0]
        res = apply_transform(a, Transform(kind="symbols", perm=tuple(perm), column=col))
        before = sigma_graph(sigma_parity(a)).graph
        after = sigma_graph(sigma_parity(res.oa)).graph
        assert after == graph_switch(before, col)
