"""`parity-space` workload: jobs on parity vectors, no input arrays except
the order-9 plane whose class is the k = 10 orbit.

Job kinds: single orbits (dense-bitmap path for k <= 8, sorted-array path
for k = 9 and 10), the full class census for k = 6, 7, sigma audits of the
extremal constructions at k up to 64, and targeted backtracking search.  The
parity kernel only sees tiny permutations here (search completing a column).
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from harness import Job
import golden as G

ROUND_S = 33.0

# (k, n mod 4) of each orbit job; its state is a seeded random member of a
# pinned class, so the job's cost does not depend on the seed.  The eight
# (7, 1) jobs are the group of equal-cost jobs job_p50_s falls in.
ORBITS = [(7, 0), (7, 2), (7, 3)] + [(7, 1)] * 12 + [
    (8, 0), (8, 2), (8, 1), (8, 3), (9, 0), (9, 2), (9, 1)]
ENUMERATIONS = [(k, nm) for k in (6, 7) for nm in range(4)]
AUDITS = [(30, "circulant"), (31, "block"), (47, "lower-triangular"), (62, "pp-random"),
          (63, "pp-random")]
TYPE_SEARCHES = [(n, ty) for n in (5, 6) for ty in
                 (("000", "011", "101", "110") if n == 5 else ("111", "100", "010", "001"))]
RANDOMIZED_CAP = 20000
# the capped OA(4, 5) searches are the group of equal-cost jobs job_tail_s
# falls in
K4_SEARCHES = 8


def setup(lib, rng_for, nrounds: int, workdir) -> list:
    q9 = lib.constructions.linear_mols(9).rows
    mols5 = lib.constructions.linear_mols(5).rows
    seen_states = set()
    rounds = []
    for r in range(nrounds):
        slot = itertools.count()
        jobs = []
        for k, nm in ORBITS:
            rng = rng_for(r, next(slot))
            while True:
                state = _member(lib, rng, k, nm)
                if (k, nm, state.word) not in seen_states:
                    seen_states.add((k, nm, state.word))
                    break
            jobs.append(_orbit_job(lib, state))
        # the same parity state every time, so the orbit's memory peak does
        # not depend on the seed, from an array no other job shares
        rows = G.even_relabelling(q9, rng_for(r, next(slot)))
        jobs.append(_class_job(lib, lib.core.OrthogonalArray(rows)))
        for k, nm in ENUMERATIONS:
            jobs.append(_enumerate_job(lib, k, nm))
        for n, kind in AUDITS:
            jobs.append(_audit_job(lib, rng_for(r, next(slot)), n, kind))
        for n, ty in TYPE_SEARCHES:
            jobs.append(_search_job(lib, lib.search.SearchSpec(3, n, ty), ty,
                                    G.K3_FIRST_HIT_NODES[(n, ty)], True))
        for n, ty in TYPE_SEARCHES:
            seed = rng_for(r, next(slot)).randrange(1 << 30)
            spec = lib.search.SearchSpec(3, n, ty, mode="randomized", seed=seed,
                                         max_nodes=RANDOMIZED_CAP)
            ref = lib.search.find_oa_with_parity(spec)
            jobs.append(_search_job(lib, spec, ty, ref.nodes, ref.found is not None))
        for _ in range(K4_SEARCHES):
            jobs.append(_k4_search_job(lib, rng_for(r, next(slot)), mols5))
        jobs.append(_achieved_job(lib))
        rounds.append(jobs)
    return rounds


def _member(lib, rng, k, nm):
    """A seeded random member of the pinned class for (k, nm)."""
    C = lib.classes
    s = C.act_permute(C.ParityState(k, nm, G.ORBIT_CLASSES[(k, nm)][0]),
                      rng.sample(range(1, k + 1), k))
    if nm % 2:
        s = C.act_swap(s, [v for v in range(1, k + 1) if rng.getrandbits(1)])
    return s


def _orbit_job(lib, state) -> Job:
    k, nm = state.k, state.nmod4
    _, size, canonical = G.ORBIT_CLASSES[(k, nm)]

    def run(tr):
        out = tr.call("classes.orbit", lib.classes.orbit, state)
        tr.add("classes.orbit.states", out.size)
        return out

    def check(out):
        G.expect(out.size == size, f"orbit size {out.size} != {size}")
        G.expect(out.canonical == lib.classes.ParityState(k, nm, canonical), "canonical state")

    return Job(f"orbit-k{k}-nm{nm}", run, check)


def _class_job(lib, a) -> Job:
    def run(tr):
        out = tr.call("classes.class_of_oa", lib.classes.class_of_oa, a)
        tr.add("classes.orbit.states", out.size)
        return out

    def check(out):
        G.expect(out.size == G.Q9_CLASS_SIZE, f"q=9 class size {out.size}")
        G.expect(out.canonical.word == G.Q9_CLASS_CANONICAL, "q=9 canonical state")
        G.expect(G.group_order(10, 1) % out.size == 0, "orbit size divides the group order")

    return Job("class-q9", run, check)


def _enumerate_job(lib, k, nm) -> Job:
    def run(tr):
        out = tr.call("classes.enumerate_classes", lib.classes.enumerate_classes, k, nm)
        tr.add("classes.enumerate_classes.states", out.total_states)
        tr.add("classes.enumerate_classes.classes", out.total_classes)
        return out

    def check(out):
        count, sizes = G.TABLE1[(k, nm)]
        G.expect(out.total_classes == count and out.sizes == sizes, f"Table 1 ({k}, {nm})")
        total = 1 << (k * (k - 1) // 2 - 1)
        G.expect(out.total_states == total, "state count")
        G.expect(sum(s * c for s, c in out.entries) == total, "classes cover the states")
        G.expect(all(G.group_order(k, nm) % s == 0 for s in sizes), "sizes divide the group order")

    return Job(f"enumerate-k{k}-nm{nm}", run, check)


def _relabelled(lib, sig, perm):
    full = sig.to_matrix() if isinstance(sig, lib.parity.StandardSigma) else sig
    inv = np.argsort(np.asarray([0] + perm))
    return lib.parity.SigmaMatrix(full.k, full.nmod4, full.m[np.ix_(inv, inv)], n=full.n)


def _audit_job(lib, rng, n, kind) -> Job:
    """A construction's sigma, relabelled by a seeded column permutation and
    sent through its JSON form, then audited."""
    C, P, E, Gr, F = lib.constructions, lib.parity, lib.ensemble, lib.graphs, lib.fileio
    k, nm = n + 1, n % 4
    perm = [0] + rng.sample(range(1, k + 1), k)
    bits = [rng.getrandbits(1) for _ in range(n * (n - 1) // 2 - 1 + n % 2)]
    build = {
        "circulant": lambda: C.circulant_sigma(n),
        "block": lambda: C.block_sigma(n),
        "lower-triangular": lambda: C.lower_triangular_sigma(k, nm),
        "pp-random": lambda: C.pp_plausible_sigma(n, bits),
    }[kind]

    def run(tr):
        sig = tr.call("constructions.sigma", build)
        text = json.dumps(F.sigma_to_json(_relabelled(lib, sig, perm[1:])))
        s2 = tr.call("fileio.sigma_from_json", F.sigma_from_json, json.loads(text))
        tau = tr.call("parity.tau_from_sigma", P.tau_from_sigma, s2)
        rep = tr.call("parity.check_plausible", P.check_plausible, tau)
        std = tr.call("parity.sigma_from_tau", P.sigma_from_tau, tau)
        cen = tr.call("ensemble.ensemble_census", E.ensemble_census, tau)
        laws = tr.call("ensemble.check_ensemble_laws", E.check_ensemble_laws, cen)
        tr.add("ensemble.triples", math.comb(k, 3))
        tr.add("ensemble.check_ensemble_laws.quads", math.comb(k, 4))
        decomps = tr.call("graphs.tau_graphs", Gr.tau_graphs, tau)
        stk = tr.call("graphs.stack", Gr.stack, tau)
        sg = tr.call("graphs.sigma_graph", Gr.sigma_graph, s2)
        return sig, s2, tau, rep, std, cen, laws, decomps, stk, sg

    def check(out):
        sig, s2, tau, rep, std, cen, laws, decomps, stk, sg = out
        m0 = (sig.to_matrix() if isinstance(sig, P.StandardSigma) else sig).m
        if kind == "lower-triangular":
            G.expect(np.array_equal(m0[1:, 1:], np.tril(np.ones((k, k), np.uint8), -1)),
                     "lower-triangular entries")
        if kind == "pp-random":
            free = [m0[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) != (1, 2)]
            G.expect(free == bits[:len(free)], "free bits placed as given")
        inv = np.argsort(np.asarray(perm))
        m = m0[np.ix_(inv, inv)]
        want = G.tau_of_sigma(m)
        G.expect(np.array_equal(s2.m, m), "sigma JSON round trip")
        G.same_tau(tau.mirrored(), want, "tau_from_sigma")
        G.same_tau(G.tau_of_sigma(std.to_matrix().m), want, "sigma_from_tau")
        pp = {"circulant": "yes" if nm == 2 else "no", "block": "yes",
              "lower-triangular": "na", "pp-random": "yes"}[kind]
        G.expect(rep.plausible and rep.pp_plausible == pp, f"plausibility ({rep.pp_plausible})")
        types, x = G.census(want, nm)
        G.expect(cen.type_counts == types and cen.x == x, "census type counts")
        extremal = {"circulant": G.max_equiparity(k), "block": math.ceil(n / 4),
                    "lower-triangular": 0}
        G.expect(kind not in extremal or x == extremal[kind], f"{kind} equiparity count {x}")
        G.row_sums_up_to_complement(cen.mu, G.sigma_of_tau(want, nm), "census mu")
        G.expect(laws.all_passed, "ensemble laws")
        G.check_decompositions(decomps, want)
        G.check_stack(stk, want, nm, pp == "yes")
        G.expect(list(sg.out_degrees) == m[1:, 1:].sum(axis=1).tolist(), "sigma-graph degrees")

    return Job(f"audit-{kind}-n{n}", run, check)


def _search_job(lib, spec, target, nodes, found) -> Job:
    """Search with a known node count and outcome (node-capped and
    first-hit searches are deterministic)."""
    def run(tr):
        out = tr.call("search.find_oa_with_parity", lib.search.find_oa_with_parity, spec)
        tr.add("search.find_oa_with_parity.nodes", out.nodes)
        tr.add("search.find_oa_with_parity.found", out.found is not None)
        return out

    def check(out):
        G.expect(out.nodes == nodes, f"nodes {out.nodes} != {nodes}")
        G.expect((out.found is not None) == found and not out.certified_exhausted, "outcome")
        if not found:
            return
        t = G.small_tau(np.asarray(out.found.rows), spec.n)
        if isinstance(target, str):
            G.expect(f"{t[1, 2, 3]}{t[2, 1, 3]}{t[3, 1, 2]}" == target, "parity type of the result")
        else:
            G.same_tau(t, target, "tau of the result")

    return Job(f"search-k{spec.k}-n{spec.n}-{spec.mode}", run, check)


def _k4_search_job(lib, rng, mols5) -> Job:
    """First-hit OA(4, 5) search, capped, for the tau of a seeded isotope of
    four columns of the order-5 plane."""
    rows, _, _ = G.isotope(mols5, rng, 4)
    want = G.small_tau(rows, 5)
    target = lib.parity.TauVector(4, 1, np.where(G.distinct_mask(4), want, 0), n=5)
    up = G.sigma_of_tau(want, 1)
    word = 0
    for i, j in [(i, j) for i in range(1, 5) for j in range(i + 1, 5)][1:]:
        word = (word << 1) | int(up[i, j])
    spec = lib.search.SearchSpec(4, 5, target, max_nodes=G.K4N5_CAP)
    nodes = G.K4N5_FOUND_NODES.get(word, G.K4N5_CAP + 1)
    return _search_job(lib, spec, want, nodes, word in G.K4N5_FOUND_NODES)


def _achieved_job(lib) -> Job:
    def run(tr):
        return tr.call("search.achieved_parity_types", lib.search.achieved_parity_types, 6)

    def check(out):
        G.expect(out == {"111", "100", "010", "001"}, f"achieved types {sorted(out)}")

    return Job("achieved-types-n6", run, check)
