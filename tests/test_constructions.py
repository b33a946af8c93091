import itertools

import numpy as np
import pytest

from oaparity.core import OAError, cyclic_square, mols_to_oa, oa_to_mols, rows_agree_in_one_column
from oaparity.parity import (
    SigmaMatrix,
    check_plausible,
    latin_square_parities,
    sigma_from_tau,
    standardise,
    tau_from_sigma,
    tau_parity,
)
from oaparity.classes import orbit
from oaparity.constructions import (
    MAX_RESIDUE_ORDER,
    block_sigma,
    block_sizes,
    circulant_sigma,
    feasible_type_counts,
    is_quadratic_residue,
    linear_mols,
    lower_triangular_sigma,
    pp_plausible_sigma,
    qualifying_values,
    residue_pattern_oa,
)
from oaparity.ensemble import ensemble_census

from conftest import zn_linear_oa
import oracle


def test_linear_mols_q2_is_the_unique_oa32():
    assert linear_mols(2) == mols_to_oa([cyclic_square(2)])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_linear_mols_is_a_plane_array(q):
    a = linear_mols(q)
    assert (a.k, a.n) == (q + 1, q)
    assert rows_agree_in_one_column(a) and oracle.rows_agree_in_one_column(a)
    report = check_plausible(tau_parity(a))
    assert report.plausible and report.pp_plausible == "yes"


def test_linear_mols_prime_field_matches_reference():
    for p in (3, 5, 7, 11):
        assert linear_mols(p) == zn_linear_oa(p)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32])
def test_linear_mols_matches_per_square_build(q):
    # the stacked columns against one checked LatinSquare per multiplier,
    # row for row in storage order, and the squares read back
    a = linear_mols(q)
    want = oracle.linear_mols(q)
    assert a.rows.dtype == want.rows.dtype and np.array_equal(a.rows, want.rows)
    assert oa_to_mols(a) == oa_to_mols(want)


def test_linear_mols_even_order_squares_are_equiparity():
    # parity is an isotopism invariant for even orders, and every square is
    # an isotope of the elementary abelian group table
    for q in (4, 8, 16):
        for sq in oa_to_mols(linear_mols(q)):
            assert latin_square_parities(sq).type_str == "000"


def test_linear_mols_odd_order_types_follow_residuosity():
    # at odd order isotopy does not preserve parity: square lam has row
    # parity 0 (rows are translations) and column parity equal to the
    # residuosity bit of lam, so the type is 001 for residues, 010 otherwise
    q = 7
    for lam, sq in enumerate(oa_to_mols(linear_mols(q)), start=1):
        expected = "001" if is_quadratic_residue(lam, q) else "010"
        assert latin_square_parities(sq).type_str == expected


# ---------------------------------------------------------------------------
# the residue-pattern OA(5, n) family


def test_euler_criterion():
    # squares mod 11 are {1, 3, 4, 5, 9}
    assert {x for x in range(1, 11) if is_quadratic_residue(x, 11)} == {1, 3, 4, 5, 9}
    with pytest.raises(OAError):
        is_quadratic_residue(0, 11)


def test_qualifying_values_n11():
    assert qualifying_values(11, "nnn") == [7]
    assert qualifying_values(11, "rnr") == [2]


@pytest.mark.parametrize("n", [11, 19, 23, 43, 47, 59])
def test_residue_pattern_oa_matches_per_square_build(n):
    # every a in 2..n-2 whose neighbours have a pattern, against residues
    # found by squaring and one checked LatinSquare per multiplier
    for pattern in ("nnn", "rnr"):
        want = [a for a in range(2, n - 1) if oracle.residue_pattern(n, a) == pattern]
        assert qualifying_values(n, pattern) == want and want
        for a in want:
            got = residue_pattern_oa(n, pattern, a=a).rows
            assert np.array_equal(got, oracle.residue_pattern_oa(n, a).rows), (pattern, a)
        assert residue_pattern_oa(n, pattern) == residue_pattern_oa(n, pattern, a=want[0])


def test_residue_pattern_validation():
    with pytest.raises(OAError, match=r"^a=3 does not match pattern nnn mod 11$"):
        residue_pattern_oa(11, "nnn", a=3)
    with pytest.raises(OAError, match=r"^a=10 out of range 2\.\.9$"):
        residue_pattern_oa(11, "nnn", a=10)
    assert residue_pattern_oa(11, "nnn", a=7) == residue_pattern_oa(11, "nnn")
    with pytest.raises(OAError):
        residue_pattern_oa(13, "nnn")  # 13 = 1 mod 4
    with pytest.raises(OAError):
        residue_pattern_oa(7, "nnn")  # too small
    with pytest.raises(OAError):
        residue_pattern_oa(15, "nnn")  # not prime


@pytest.mark.parametrize("n", [11, 19, 23])
@pytest.mark.parametrize("pattern", ["nnn", "rnr"])
def test_residue_pattern_components(n, pattern):
    a = residue_pattern_oa(n, pattern)
    assert (a.k, a.n) == (5, n)
    t = tau_parity(a)
    got = tuple(t.get(*triple) for triple in oracle.DETERMINING_TRIPLES)
    assert got == oracle.EXPECTED_COMPONENTS[pattern]


@pytest.mark.parametrize("n", [11, 19, 23])
def test_residue_pattern_invariant_of_choice(n):
    for pattern in ("nnn", "rnr"):
        taus = {
            tau_parity(residue_pattern_oa(n, pattern, a=a))
            for a in qualifying_values(n, pattern)
        }
        assert len(taus) == 1


def test_residue_order_is_bounded():
    # refused before the primality test and the scan for a; 1024 itself
    # passes the bound and fails as a composite
    assert MAX_RESIDUE_ORDER == 1024
    for n in (1025, 1031, 10007, 1000000007, 10**30 + 57):
        with pytest.raises(OAError, match=f"^residue order {n} exceeds the supported maximum 1024$"):
            residue_pattern_oa(n, "nnn")
    with pytest.raises(OAError, match="^need a prime n = 3 mod 4 with n >= 11, got 1024$"):
        residue_pattern_oa(1024, "nnn")


def test_residue_pattern_orbits():
    assert orbit(sigma_from_tau(tau_parity(residue_pattern_oa(11, "nnn")))).size == 192
    assert orbit(sigma_from_tau(tau_parity(residue_pattern_oa(11, "rnr")))).size == 320


# ---------------------------------------------------------------------------
# plane-plausible completions


def test_pp_sigma_zero_bits_even():
    std = pp_plausible_sigma(4, [0] * 5)
    assert not std.m.any()


def test_pp_sigma_counts_small():
    for n in (2, 3, 4):
        nbits = n * (n - 1) // 2 - 1 + (n % 2)
        outs = set()
        for word in range(1 << nbits):
            bits = [(word >> i) & 1 for i in range(nbits)]
            std = pp_plausible_sigma(n, bits)
            rep = check_plausible(tau_from_sigma(std))
            assert rep.pp_plausible == "yes"
            outs.add(std)
        assert len(outs) == 1 << nbits


def test_pp_sigma_equals_all_pp_vectors_small():
    # the completions are exactly the plane-plausible vectors: filter the
    # whole standardised space by the checker and compare
    for n in (3, 4):
        k = n + 1
        from oaparity.parity import StandardSigma

        pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)][1:]
        everything = set()
        for word in range(1 << len(pairs)):
            up = np.zeros((k + 1, k + 1), dtype=np.uint8)
            for b, (i, j) in enumerate(pairs):
                up[i, j] = (word >> b) & 1
            std = StandardSigma.from_upper(k, n % 4, up, n=n)
            if check_plausible(tau_from_sigma(std)).pp_plausible == "yes":
                everything.add(std)
        nbits = n * (n - 1) // 2 - 1 + (n % 2)
        completions = set()
        for word in range(1 << nbits):
            bits = [(word >> i) & 1 for i in range(nbits)]
            completions.add(pp_plausible_sigma(n, bits))
        assert completions == everything


def test_pp_sigma_random_completions_are_plane_plausible():
    import random

    rng = random.Random(31)
    for n in (*range(5, 13), 30, 31, 47, 62, 63):
        nbits = n * (n - 1) // 2 - 1 + (n % 2)
        for density in (0.1, 0.5, 0.9):
            for _ in range(4):
                bits = [int(rng.random() < density) for _ in range(nbits)]
                std = pp_plausible_sigma(n, bits)
                rep = check_plausible(tau_from_sigma(std))
                assert rep.plausible and rep.pp_plausible == "yes", (n, bits)
                assert len({m & 1 for m in std.row_sums()}) == 1


def test_pp_sigma_wrong_length():
    with pytest.raises(OAError):
        pp_plausible_sigma(6, [0] * 13)


def test_pp_sigma_refuses_bits_other_than_0_and_1():
    # a bit of 2 is not read as 0, nor 3 as 1
    for n, bad in itertools.product((4, 5), (2, 3, -1, "x", "1", None)):
        nbits = n * (n - 1) // 2 - 1 + (n % 2)
        with pytest.raises(OAError, match="free bit must be 0 or 1"):
            pp_plausible_sigma(n, [0, 1, bad] + [0] * (nbits - 3))


# ---------------------------------------------------------------------------
# block, circulant, lower-triangular


def test_block_spec_layout():
    assert block_sizes(6) == (4, 3)
    assert block_sizes(10) == (4, 4, 3)
    assert block_sizes(7) == (4, 4)
    assert block_sizes(11) == (4, 4, 4)
    with pytest.raises(OAError):
        block_sizes(8)


def test_block_sigma_row_sums():
    assert block_sigma(6).row_sums() == (5, 5, 5, 3, 1, 1, 1)
    assert block_sigma(7).row_sums() == (6, 6, 6, 4, 2, 2, 2, 0)


_B3 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.uint8)
_B4 = np.array([[0, 0, 1, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 0, 0]], dtype=np.uint8)


def _block_sigma_by_hand(n):
    """The extremal tournament with every entry written: ones above the
    blocks, each diagonal block the cyclic triangle B3 or B4, zeros below."""
    k = n + 1
    m = np.zeros((k + 1, k + 1), dtype=np.uint8)
    iu = np.triu_indices(k, 1)
    m[iu[0] + 1, iu[1] + 1] = 1
    pos = 1
    for size in block_sizes(n):
        m[pos:pos + size, pos:pos + size] = _B4 if size == 4 else _B3
        pos += size
    return m


def test_block_sigma_equals_the_hand_filled_matrix():
    for n in (n for n in range(2, 60) if n % 4 in (2, 3)):
        sig = block_sigma(n)
        assert type(sig) is SigmaMatrix and (sig.k, sig.nmod4, sig.n) == (n + 1, n % 4, n)
        assert np.array_equal(sig.m, _block_sigma_by_hand(n)), n


def test_block_sigma_is_pp():
    for n in (6, 7, 10, 11):
        rep = check_plausible(tau_from_sigma(standardise(block_sigma(n))))
        assert rep.pp_plausible == "yes"


def test_circulant_entries():
    std = circulant_sigma(6)
    assert std.get(1, 2) == 0
    assert std.get(1, 7) == 1  # difference 6 = 0 mod 6, outside [1, 3]
    assert std.get(1, 5) == 1  # difference 4
    assert std.get(2, 5) == 0  # difference 3


def test_circulant_in_degrees_n6():
    full = circulant_sigma(6).to_matrix()
    in_deg = tuple(int(x) for x in full.m[1:, 1:].sum(axis=0))
    assert in_deg == (3,) * 7


def test_circulant_pp_verdicts():
    # documented discrepancy: the construction passes the plane conditions
    # for n = 2 mod 4 but not for n = 3 mod 4, where in-degree parities mix
    for n in (6, 10, 14):
        assert check_plausible(tau_from_sigma(circulant_sigma(n))).pp_plausible == "yes"
    for n in (7, 11):
        assert check_plausible(tau_from_sigma(circulant_sigma(n))).pp_plausible == "no"


def test_lower_triangular_properties():
    sig = lower_triangular_sigma(4, 2)
    t = tau_from_sigma(sig)
    census = ensemble_census(t)
    assert census.x == 0
    # exactly one odd component per triple
    for c1, c2, c3 in itertools.combinations(range(1, 5), 3):
        ty = t.triple_type(c1, c2, c3)
        assert ty.count("1") == 1
    for nmod4 in (0, 1, 6, -1, 5, -2):  # nmod4 outside 0..3 is not read mod 4
        with pytest.raises(OAError):
            lower_triangular_sigma(5, nmod4)
    with pytest.raises(OAError, match="need k >= 3"):
        lower_triangular_sigma(2, 2)


def test_lower_triangular_equals_the_hand_filled_matrix():
    for k in range(3, 40):
        want = np.zeros((k + 1, k + 1), dtype=np.uint8)
        il = np.tril_indices(k, -1)
        want[il[0] + 1, il[1] + 1] = 1
        for nmod4 in (2, 3):
            sig = lower_triangular_sigma(k, nmod4)
            assert type(sig) is SigmaMatrix and (sig.k, sig.nmod4, sig.n) == (k, nmod4, None)
            assert np.array_equal(sig.m, want), (k, nmod4)


def test_lower_triangular_k3_type():
    t = tau_from_sigma(lower_triangular_sigma(3, 2))
    assert t.triple_type(1, 2, 3) == "010"


def test_lower_triangular_plane_candidate_not_pp():
    t = tau_from_sigma(lower_triangular_sigma(8, 3))
    # give the vector its plane interpretation: k = n+1 with n = 7
    from oaparity.parity import TauVector

    t_plane = TauVector(k=8, nmod4=3, bits=t.bits, n=7)
    rep = check_plausible(t_plane)
    assert rep.plausible
    assert rep.pp_plausible == "no"


# ---------------------------------------------------------------------------
# feasible type counts


def test_feasibility_examples():
    assert not feasible_type_counts(7, 6, 0, 0, 0).feasible
    assert feasible_type_counts(6, 5, 0, 0, 0).feasible
    assert feasible_type_counts(5, 4, 0, 0, 0).feasible


def test_all_equiparity_feasible_iff_not_3_mod_4():
    for n in (4, 5, 6, 8, 9, 10, 12, 13, 14):
        assert feasible_type_counts(n, n - 1, 0, 0, 0).feasible
    for n in (7, 11, 15):
        assert not feasible_type_counts(n, n - 1, 0, 0, 0).feasible


@pytest.mark.parametrize("n", [1, 0, -3])
def test_feasibility_refuses_orders_below_2(n):
    # refused by the order given, before any count or the witness's k = n + 1
    with pytest.raises(OAError, match=f"need n >= 2, got {n}$"):
        feasible_type_counts(n, 0, 0, 0, 0)
    with pytest.raises(OAError, match="need n >= 2"):
        feasible_type_counts(n, -1, 0, 0, 0)


def test_wrong_total_is_infeasible():
    assert not feasible_type_counts(7, 3, 1, 1, 0).feasible


def _feasible_by_parity_table(n, z, y1, y2, y3):
    """The plane conditions on the type counts, one parity rule per n mod 4."""
    if n % 2 == 0:
        return y1 % 2 == y2 % 2 == y3 % 2 and y1 % 2 != z % 2
    if n % 4 == 1:
        return y1 % 2 == y2 % 2 and y3 % 2 == z % 2
    return y1 % 2 != y2 % 2 and y3 % 2 != z % 2


def test_feasibility_equals_the_parity_table():
    # the witness's plane verdict is the paper's parity table on every count
    # vector with the right total, n <= 15
    for n in range(2, 16):
        for z, y1, y2 in itertools.product(range(n), repeat=3):
            y3 = n - 1 - z - y1 - y2
            if y3 < 0:
                continue
            res = feasible_type_counts(n, z, y1, y2, y3)
            assert res.feasible == _feasible_by_parity_table(n, z, y1, y2, y3), (n, z, y1, y2, y3)
            assert (res.witness is not None) == res.feasible


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10, 11, 12])
def test_witness_realises_requested_counts(n):
    from oaparity.parity import equiparity_type, plausible_types

    types = plausible_types(n % 4)
    order = [equiparity_type(n % 4)] + [t for t in types if t != equiparity_type(n % 4)]
    hits = 0
    for z in range(n):
        for y1 in range(n - z):
            for y2 in range(n - z - y1):
                y3 = n - 1 - z - y1 - y2
                res = feasible_type_counts(n, z, y1, y2, y3)
                if not res.feasible:
                    continue
                hits += 1
                t = tau_from_sigma(res.witness)
                assert check_plausible(t).pp_plausible == "yes"
                assert len({m & 1 for m in res.witness.row_sums()}) == 1
                got = {ty: 0 for ty in types}
                for c in range(3, n + 2):
                    got[t.triple_type(1, 2, c)] += 1
                want = dict(zip(order, (z, y1, y2, y3)))
                assert got == want
    assert hits > 0
