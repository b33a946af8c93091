"""`arrays` workload: parity invariants of given arrays.

Each job hands the program the text of a seeded isotope of a base array
(linear_mols(q), or residue_pattern_oa(n, pattern) with k = 5) and runs the
array-level pipeline: parse, tau, sigma, parity report, ensemble census and
laws, graphs.  The parity kernel does most of the work; classes and search
are not used.
"""

from __future__ import annotations

import math

import numpy as np

from harness import Job
import golden as G

ROUND_S = 11.0

# (base, k) of every job in a round; the seed picks columns, relabellings
# and (for residue arrays) the pattern.  At two or three rounds a run, job_p50_s
# falls inside the mols-27 k=10 jobs and job_tail_s inside the k=5
# residue-59 jobs, so neither sits on a boundary between job sizes.
SLOTS = [
    # cheaper than the median group
    ("mols-16", 3), ("mols-16", 4), ("mols-16", 5), ("mols-16", 9), ("mols-16", 17),
    ("mols-25", 4), ("mols-25", 5), ("mols-25", 7), ("mols-27", 3), ("mols-27", 6),
    ("mols-31", 4), ("mols-32", 3), ("mols-32", 5),
    # the median group
    ("mols-27", 10), ("mols-27", 10), ("mols-27", 10), ("mols-27", 10),
    # between the median and tail groups
    ("mols-25", 12), ("mols-31", 8), ("residue-43", 5), ("residue-47", 5), ("mols-25", 26),
    ("mols-32", 13),
    # the tail group
    ("residue-59", 5), ("residue-59", 5), ("residue-59", 5), ("residue-59", 5),
    # heavier than the tail group
    ("mols-27", 28), ("mols-31", 32), ("mols-32", 33),
]


def _base(lib, key: str):
    kind, n, *pattern = key.split("-")
    if kind == "mols":
        return lib.constructions.linear_mols(int(n)).rows
    return lib.constructions.residue_pattern_oa(int(n), pattern[0]).rows


def setup(lib, rng_for, nrounds: int, workdir) -> list:
    bases, base_taus = {}, {}
    seen = set()
    rounds = []
    for r in range(nrounds):
        jobs = []
        for slot, (key, k) in enumerate(SLOTS):
            rng = rng_for(r, slot)
            if key.startswith("residue"):
                key = f"{key}-{rng.choice(('nnn', 'rnr'))}"
            if key not in bases:
                bases[key] = _base(lib, key)
                kb = bases[key].shape[1]
                n = int(bases[key][:, 0].max()) + 1
                base_taus[key] = G.tau_of_sigma(G.sigma_from_hex(kb, n % 4, G.BASE_SIGMA[key]))
            base = bases[key]
            n = int(base[:, 0].max()) + 1
            while True:
                rows, cols, gpar = G.isotope(base, rng, k)
                fingerprint = rows[np.lexsort(rows.T[::-1])].tobytes()
                if fingerprint not in seen:  # no two jobs share an input array
                    seen.add(fingerprint)
                    break
            want = G.isotope_tau(base_taus[key], cols, gpar, n)
            jobs.append(_job(lib, f"{key}-k{k}", G.oa_text(rows, n), want, n, k))
        rounds.append(jobs)
    return rounds


def _job(lib, kind: str, text: str, want, n: int, k: int) -> Job:
    fileio, parity, ensemble, graphs = lib.fileio, lib.parity, lib.ensemble, lib.graphs
    plane = k == n + 1
    nmod4 = n % 4

    def run(tr):
        tr.add("fileio.parse_oa.bytes", len(text))
        a = tr.call("fileio.parse_oa", fileio.parse_oa, text)
        tau = tr.call("parity.tau_parity", parity.tau_parity, a)
        sig = tr.call("parity.sigma_parity", parity.sigma_parity, a)
        report = tr.call("fileio.parity_report", fileio.parity_report, a)
        cen = tr.call("ensemble.ensemble_census", ensemble.ensemble_census, a)
        laws = tr.call("ensemble.check_ensemble_laws", ensemble.check_ensemble_laws, cen)
        tr.add("ensemble.triples", math.comb(k, 3))
        if nmod4 in (2, 3):
            tr.add("ensemble.check_ensemble_laws.quads", math.comb(k, 4))
        decomps = tr.call("graphs.tau_graphs", graphs.tau_graphs, tau)
        stk = tr.call("graphs.stack", graphs.stack, tau)
        sg = tr.call("graphs.sigma_graph", graphs.sigma_graph, sig)
        return a, tau, sig, report, cen, laws, decomps, stk, sg

    def check(out):
        a, tau, sig, report, cen, laws, decomps, stk, sg = out
        G.expect((a.k, a.n) == (k, n), "parsed shape")
        G.same_tau(tau.mirrored(), want, "tau_parity")
        # stored rows are sorted on columns 1, 2, so sigma_12 is the identity
        # and the stored sigma is the standardised one
        sigma = G.sigma_of_tau(want, nmod4)
        G.expect(np.array_equal(sig.m, sigma), "sigma_parity")
        pp = "yes" if plane else "na"
        G.expect(report["plausible"] is True and report["pp_plausible"] == pp, "report flags")
        e = np.array(report["tau"])
        G.expect(len(e) == k * math.comb(k - 1, 2), "report tau entry count")
        G.expect(np.array_equal(want[e[:, 0], e[:, 1], e[:, 2]], e[:, 3]), "report tau bits")
        std = G.sigma_from_pairs(k, nmod4, report["sigma_standard"])
        G.expect(std[1, 2] == 0, "report sigma is standardised")
        G.same_tau(G.tau_of_sigma(std), want, "report sigma_standard")
        types, x = G.census(want, nmod4)
        G.expect(cen.type_counts == types and cen.x == x, "census type counts")
        G.expect(list(cen.mu) == sigma[1:, 1:].sum(axis=1).tolist(), "census mu")
        G.expect(cen.pp_plausible == pp and laws.all_passed, "ensemble laws")
        G.check_decompositions(decomps, want)
        G.check_stack(stk, want, nmod4, plane)
        G.expect(list(sg.out_degrees) == sigma[1:, 1:].sum(axis=1).tolist(), "sigma-graph degrees")
        G.expect(sg.degree_law == ("pass" if plane else None), "sigma-graph degree law")

    return Job(kind, run, check)
