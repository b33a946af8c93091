"""Acceptance suite: one check per release criterion, exact tolerances.

Each test prints a single PASS line (visible with -s or in the captured
output).
"""

import math
import random
import time

import numpy as np
import pytest

from oaparity.core import apply_transform, oa_to_mols
from oaparity.parity import (
    StandardSigma,
    binom2_bit,
    check_plausible,
    latin_square_parities,
    sigma_from_tau,
    sigma_parity,
    standardise,
    tau_from_sigma,
    tau_parity,
    transform_parity_laws,
)
from oaparity.graphs import sigma_graph, stack, tau_graphs
from oaparity.classes import class_of_oa, enumerate_classes, orbit
from oaparity.constructions import (
    block_sigma,
    circulant_sigma,
    linear_mols,
    pp_plausible_sigma,
    residue_pattern_oa,
)
from oaparity.ensemble import check_ensemble_laws, ensemble_census, max_equiparity
from oaparity.search import SearchSpec, achieved_parity_types, find_oa_with_parity

from conftest import random_transform
import oracle
from oracle import direct_sigma


def report(num, desc, t0):
    print(f"ACCEPTANCE {num}: PASS - {desc} [{time.time() - t0:.1f}s]")


# class counts and distinct orbit sizes as published; multiplicities are
# derived goldens pinned from the first verified run in test_classes
TABLE1 = {
    (3, 0): (2, (1, 3)),
    (3, 1): (1, (4,)),
    (3, 2): (2, (1, 3)),
    (3, 3): (1, (4,)),
    (4, 0): (6, (1, 3, 4, 6, 12)),
    (4, 1): (2, (8, 24)),
    (4, 2): (3, (8, 12)),
    (4, 3): (2, (8, 24)),
    (5, 0): (18, (1, 5, 6, 10, 15, 20, 30, 60)),
    (5, 1): (4, (16, 96, 160, 240)),
    (5, 2): (10, (12, 20, 40, 60, 120)),
    (5, 3): (2, (192, 320)),
    (6, 0): (78, (1, 6, 10, 15, 20, 30, 45, 60, 72, 90, 120, 180, 360, 720)),
    (6, 1): (10, (32, 192, 320, 480, 1440, 1920, 2880, 5760)),
    (6, 2): (34, (40, 120, 144, 240, 360, 720)),
    (6, 3): (6, (640, 1920, 2304, 3840, 5760)),
    (7, 0): (
        522,
        (1, 7, 21, 35, 42, 70, 105, 140, 210, 252, 315, 360, 420, 504, 630,
         840, 1260, 2520, 5040),
    ),
    (7, 1): (
        27,
        (64, 1344, 2240, 4480, 6720, 13440, 16128, 20160, 23040, 26880,
         40320, 53760, 80640, 161280),
    ),
    (7, 2): (272, (120, 280, 360, 504, 560, 840, 1008, 1680, 2520, 5040)),
    (7, 3): (12, (7680, 17920, 23040, 32256, 53760, 161280)),
}

TABLE1_K8 = {
    (8, 0): (
        6178,
        (1, 8, 28, 35, 56, 70, 105, 168, 210, 280, 315, 336, 420, 560, 630,
         672, 840, 1120, 1260, 1680, 2016, 2520, 2880, 3360, 4032, 5040,
         6720, 10080, 20160, 40320),
    ),
    (8, 1): (
        131,
        (128, 3584, 4480, 7168, 13440, 21504, 26880, 35840, 40320, 53760,
         71680, 86016, 107520, 161280, 215040, 258048, 322560, 368640,
         430080, 645120, 860160, 1290240, 2580480, 5160960),
    ),
    (8, 2): (
        3528,
        (1920, 2240, 2688, 4480, 5760, 6720, 8064, 13440, 20160, 40320),
    ),
    (8, 3): (
        69,
        (15360, 143360, 172032, 215040, 286720, 322560, 368640, 430080,
         516096, 645120, 860160, 1290240, 1720320, 2580480, 5160960),
    ),
}

DESARGUESIAN_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
SMALL_ORDERS = (2, 3, 4, 5, 7, 8, 9)


@pytest.fixture(scope="module")
def class_tables():
    return {
        (k, nm): enumerate_classes(k, nm) for k in range(3, 8) for nm in range(4)
    }


@pytest.fixture(scope="module")
def desarguesian():
    return {q: linear_mols(q) for q in DESARGUESIAN_ORDERS}


def random_isomorph(a, rng, steps=3):
    """A random isotope/conjugate reached by a chain of basic transforms."""
    out = a
    for _ in range(steps):
        out = apply_transform(out, random_transform(out, rng)).oa
    return out


def test_criterion_01_switching_class_tables(class_tables):
    t0 = time.time()
    for key, (count, sizes) in TABLE1.items():
        table = class_tables[key]
        assert table.total_classes == count, key
        assert table.sizes == sizes, key
        assert sum(s * c for s, c in table.entries) == table.total_states
    report(1, "class counts and sizes match for all k in [3,7]", t0)


# multiplicity goldens from the first verified k=8 run (sums reach 2^27 and
# every size divides the group order)
TABLE1_K8_ENTRIES = {
    (8, 0): (
        (1, 1), (8, 1), (28, 3), (35, 1), (56, 4), (70, 1), (105, 1),
        (168, 8), (210, 4), (280, 12), (315, 1), (336, 3), (420, 12),
        (560, 14), (630, 3), (672, 2), (840, 48), (1120, 11), (1260, 11),
        (1680, 85), (2016, 6), (2520, 85), (2880, 2), (3360, 223), (4032, 2),
        (5040, 312), (6720, 126), (10080, 1134), (20160, 2214), (40320, 1848),
    ),
    (8, 1): (
        (128, 1), (3584, 1), (4480, 1), (7168, 1), (13440, 1), (21504, 1),
        (26880, 2), (35840, 3), (40320, 1), (53760, 2), (71680, 2),
        (86016, 1), (107520, 5), (161280, 4), (215040, 6), (258048, 1),
        (322560, 16), (368640, 1), (430080, 12), (645120, 11), (860160, 1),
        (1290240, 31), (2580480, 24), (5160960, 2),
    ),
    (8, 2): (
        (1920, 1), (2240, 4), (2688, 1), (4480, 6), (5760, 1), (6720, 8),
        (8064, 5), (13440, 142), (20160, 164), (40320, 3196),
    ),
    (8, 3): (
        (15360, 1), (143360, 2), (172032, 1), (215040, 1), (286720, 1),
        (322560, 3), (368640, 1), (430080, 3), (516096, 1), (645120, 3),
        (860160, 6), (1290240, 10), (1720320, 1), (2580480, 28), (5160960, 7),
    ),
}


def _check_k8(keys):
    for key in keys:
        count, sizes = TABLE1_K8[key]
        table = enumerate_classes(*key)
        assert table.total_classes == count, key
        assert table.sizes == sizes, key
        assert table.entries == TABLE1_K8_ENTRIES[key], key
        assert sum(s * c for s, c in table.entries) == table.total_states


def test_criterion_01_k8_odd_n():
    # the odd-n census labels 2^20 cosets, under a second each
    t0 = time.time()
    _check_k8([(8, 1), (8, 3)])
    report("1o", "k=8 odd-n class counts, sizes and multiplicities match", t0)


def test_criterion_01_slow_k8():
    t0 = time.time()
    _check_k8([(8, 0), (8, 2)])
    report("1s", "k=8 even-n class counts, sizes and multiplicities match", t0)


def test_criterion_02_plausible_and_pp_counts():
    t0 = time.time()
    for k in (3, 4, 5):
        pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)][1:]
        for nm in (0, 3):
            taus = set()
            for word in range(1 << len(pairs)):
                up = np.zeros((k + 1, k + 1), dtype=np.uint8)
                for b, (i, j) in enumerate(pairs):
                    up[i, j] = (word >> b) & 1
                t = tau_from_sigma(StandardSigma.from_upper(k, nm, up))
                assert check_plausible(t).plausible
                taus.add(t)
            assert len(taus) == 1 << (math.comb(k, 2) - 1)
    for n, expect in ((3, 8), (4, 32)):
        nbits = n * (n - 1) // 2 - 1 + (n % 2)
        outs = set()
        for word in range(1 << nbits):
            bits = [(word >> i) & 1 for i in range(nbits)]
            std = pp_plausible_sigma(n, bits)
            assert check_plausible(tau_from_sigma(std)).pp_plausible == "yes"
            outs.add(std)
        assert len(outs) == expect
    report(2, "2^(C(k,2)-1) plausible vectors (k<=5); 8 and 32 plane-plausible", t0)


def test_criterion_03_residue_family():
    t0 = time.time()
    for n in (11, 19, 23):
        for pattern, orbit_size in (("nnn", 192), ("rnr", 320)):
            a = residue_pattern_oa(n, pattern)
            assert (a.k, a.n) == (5, n)
            t = tau_parity(a)
            got = tuple(t.get(*triple) for triple in oracle.DETERMINING_TRIPLES)
            assert got == oracle.EXPECTED_COMPONENTS[pattern], (n, pattern)
            assert orbit(sigma_from_tau(t)).size == orbit_size, (n, pattern)
    report(3, "OA(5,n) components and orbits (192/320) for n in {11,19,23}", t0)


def test_criterion_04_order9_class(desarguesian):
    t0 = time.time()
    summ = class_of_oa(desarguesian[9])
    assert summ.size == 1290240
    # the canonical word pins the word's bit order
    assert summ.canonical.word == 4135458444
    assert orbit(StandardSigma.from_word(10, 1, 0)).size == 512
    report(4, "OA(10,9) class size 1290240; zero-state orbit 512", t0)


def _structure_checks(a, rng):
    """The parity, graph and plane laws on one array; raises on violation."""
    n, k = a.n, a.k
    kk = binom2_bit(n % 4)
    t = tau_parity(a)
    rep = check_plausible(t)
    assert rep.plausible  # index symmetry, additivity, triple law
    assert rep.pp_plausible == "yes"  # the over-columns sum rule, k = n+1
    for sq in oa_to_mols(a):  # three-parity relation per square
        p = latin_square_parities(sq)
        assert (p.pr + p.pc + p.ps) % 2 == kk
    for length in range(3, k + 1):  # the cyclic sum identity
        cs = rng.sample(range(1, k + 1), length)
        total = sum(t.get(cs[i], cs[i - 1], cs[(i + 1) % length]) for i in range(length))
        assert total % 2 == (length * kk) % 2
    decs = tau_graphs(t)  # isolated vertex + complete bipartite, every column
    if n % 2 == 0:  # partite sizes for even plane orders
        for d in decs:
            n1, n2 = d.sizes
            assert n1 % 2 == n2 % 2 == (n // 2) % 2
    s = stack(t)  # stack shape, refined to empty/complete for planes
    assert s.refined == ("empty" if n % 4 in (0, 1) else "complete")
    sigma = sigma_parity(a)  # derived from tau; checked against the oracle
    assert sigma == direct_sigma(a)
    assert sigma_graph(sigma).degree_law == "pass"  # degree parities


def test_criterion_05_property_suites(desarguesian):
    t0 = time.time()
    rng = random.Random(0xC0FFEE)
    for q in DESARGUESIAN_ORDERS:
        _structure_checks(desarguesian[q], rng)
    per_base = 1000
    for q in SMALL_ORDERS:
        base = desarguesian[q]
        for _ in range(per_base):
            _structure_checks(random_isomorph(base, rng, steps=2), rng)
    report(5, f"structure laws on Desarguesian arrays + {per_base} isomorphs each (q<=9)", t0)


def test_criterion_06_transformation_laws(desarguesian):
    t0 = time.time()
    rng = random.Random(0xBEEF)
    per_base = 1000
    for q in SMALL_ORDERS:
        base = desarguesian[q]
        for _ in range(per_base):
            tr = random_transform(base, rng)
            pred_tau, pred_sigma = transform_parity_laws(base, tr)
            res = apply_transform(base, tr)
            assert tau_parity(res.oa) == pred_tau
            assert sigma_parity(res.oa) == pred_sigma == direct_sigma(res.oa)
    report(6, f"predicted = recomputed parity deltas, {per_base} transforms per base", t0)


def test_criterion_07_ensemble_suite(desarguesian):
    t0 = time.time()
    for n in range(6, 52):
        if n % 4 not in (2, 3):
            continue
        blk = ensemble_census(tau_from_sigma(standardise(block_sigma(n))))
        assert blk.x == math.ceil(n / 4), n
        assert blk.pp_plausible == "yes"
        assert check_ensemble_laws(blk).all_passed
        circ = ensemble_census(tau_from_sigma(circulant_sigma(n)))
        assert circ.x == max_equiparity(n + 1), n
        if circ.pp_plausible == "yes":
            assert circ.x % 4 == math.ceil(n / 4) % 4, n
        # ensemble_census checks T, taken from mu, against the type census
    for q in (3, 7, 11):
        rep = check_ensemble_laws(ensemble_census(desarguesian[q]))
        assert rep.all_passed
        # the library takes the cap as proved; brute force confirms it
        t = tau_parity(desarguesian[q])
        assert oracle.four_column_witness(
            t.k, oracle.census(t)["types_by_triple"], t.nmod4) is None
    report(7, "block/circulant censuses, congruence, and the 4-column cap, n <= 51", t0)


def test_criterion_08_achieved_types():
    t0 = time.time()
    assert achieved_parity_types(3) == {"111", "100", "010", "001"}
    assert achieved_parity_types(5) == {"000", "011", "101", "110"}
    got4 = achieved_parity_types(4)
    assert got4 == {"000"} and got4 < {"000", "011", "101", "110"}
    for ty in ("111", "100", "010", "001"):
        out = find_oa_with_parity(SearchSpec(k=3, n=6, target=ty))
        assert out.found is not None
        assert tau_parity(out.found).triple_type(1, 2, 3) == ty
    report(8, "all 4 types at n in {3,5,6}; proper subset {000} at n=4", t0)


def test_criterion_09_orbit_divisibility(class_tables, desarguesian):
    t0 = time.time()
    for (k, nm), table in class_tables.items():
        bound = math.factorial(k) * (1 << (k - 1) if nm % 2 else 1)
        for size, _count in table.entries:
            assert bound % size == 0
    for q in (3, 5, 7):
        size = class_of_oa(desarguesian[q]).size
        bound = math.factorial(q + 1) * (1 << q)
        assert bound % size == 0
    report(9, "every computed orbit size divides k! or k! * 2^(k-1)", t0)


def test_criterion_10_circulant_discrepancy():
    t0 = time.time()
    for n in (6, 10, 14):
        assert check_plausible(tau_from_sigma(circulant_sigma(n))).pp_plausible == "yes"
    verdicts = {}
    for n in (7, 11):
        verdicts[n] = check_plausible(tau_from_sigma(circulant_sigma(n))).pp_plausible
        assert verdicts[n] in ("yes", "no")  # recorded, not asserted
    report(
        10,
        f"circulant plane-plausible at n=6,10,14; verdict recorded for n=7,11: {verdicts}",
        t0,
    )
