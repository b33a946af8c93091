import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oaparity.core import (
    LatinSquare,
    OAError,
    OrthogonalArray,
    Transform,
    _storage_order,
    apply_transform,
    cyclic_square,
    mols_to_oa,
    permutation_parity,
)
from oaparity.parity import (
    SigmaMatrix,
    StandardSigma,
    TauVector,
    binom2_bit,
    check_plausible,
    equiparity_type,
    free_pairs,
    latin_square_parities,
    plausible_types,
    sigma_from_tau,
    sigma_parity,
    standardise,
    tau_from_sigma,
    tau_parity,
    transform_parity_laws,
    _fixed_column_bits,
    _read_fixed_columns,
    _sigma_upper,
    _triple_mask,
)
from oaparity.constructions import (PATTERNS, is_prime, linear_mols, qualifying_values,
                                   residue_pattern_oa)

from conftest import (
    flip_components,
    random_isotope_square,
    random_plausible_tau,
    random_transform,
    zn_linear_oa,
)
from oracle import (
    _sigma_bits,
    additivity_violation,
    column_permutation,
    cycle_parity,
    direct_sigma,
    direct_tau,
    row_permutation,
    symbol_permutation,
    triple_violation,
    zolotarev_sigma,
)
from oracle import _tau_bits as oracle_tau_bits


def kernel_tau_bits(mat, n):
    """Tau bits of an OA matrix in any row order, through the library's
    storage sort, fixed-column kernel, sigma formula and tau view."""
    up = _sigma_upper(_fixed_column_bits(mat[_storage_order(mat, n)], n), n % 4)
    return tau_from_sigma(SigmaMatrix.from_upper(mat.shape[1], n % 4, up)).bits


def reference_parities(square):
    """Oracle for latin_square_parities via explicit cycle-counted permutations."""
    n = square.n
    pr = pc = ps = 0
    for i in range(n):
        pr ^= cycle_parity(row_permutation(square, i))
        pc ^= cycle_parity(column_permutation(square, i))
        ps ^= cycle_parity(symbol_permutation(square, i))
    return (pr, pc, ps)


def test_z2_square_parities():
    assert tuple(latin_square_parities(cyclic_square(2))) == (1, 1, 1)


def test_z3_square_parities():
    assert tuple(latin_square_parities(cyclic_square(3))) == (0, 0, 1)


def test_parities_match_reference_oracle():
    # orders 2..7, then both sides of the kernel's 16-, 32- and 64-bit word
    # boundaries; 65 takes the radix-64 path
    rng = random.Random(5)
    for n, repeats in [(n, 20) for n in range(2, 8)] + [(n, 3) for n in (16, 17, 32, 33, 64, 65)]:
        base = cyclic_square(n)
        for _ in range(repeats):
            sq = random_isotope_square(base, rng)
            assert tuple(latin_square_parities(sq)) == reference_parities(sq)


def test_parity_relation_eq1():
    # pr + pc + ps is C(n,2) mod 2 for every square
    rng = random.Random(6)
    for n in range(2, 8):
        for _ in range(25):
            sq = random_isotope_square(cyclic_square(n), rng)
            p = latin_square_parities(sq)
            assert (p.pr + p.pc + p.ps) % 2 == binom2_bit(n % 4)


def test_order4_squares_have_even_parity_sum():
    rng = random.Random(7)
    for _ in range(50):
        p = latin_square_parities(random_isotope_square(cyclic_square(4), rng))
        assert (p.pr + p.pc + p.ps) % 2 == 0


def test_plausible_type_tables():
    assert plausible_types(1) == ("000", "011", "101", "110")
    assert plausible_types(2) == ("111", "100", "010", "001")
    assert equiparity_type(0) == "000"
    assert equiparity_type(3) == "111"


# ---------------------------------------------------------------------------
# tau-parity


def test_tau_of_oa32():
    t = tau_parity(mols_to_oa([cyclic_square(2)]))
    assert t.get(3, 1, 2) == 1  # symbol parity of the order-2 square
    assert t.get(1, 2, 3) == 1
    assert t.get(2, 1, 3) == 1


def test_tau_matches_square_parities():
    # square i-2 of the array has pr = tau^1_{2i}, pc = tau^2_{1i}, ps = tau^i_{12}
    for p in (3, 5, 7):
        a = zn_linear_oa(p)
        t = tau_parity(a)
        from oaparity.core import oa_to_mols

        for idx, sq in enumerate(oa_to_mols(a)):
            i = idx + 3
            pr, pc, ps = latin_square_parities(sq)
            assert t.get(1, 2, i) == pr
            assert t.get(2, 1, i) == pc
            assert t.get(i, 1, 2) == ps


def test_tau_zero_on_first_column_for_linear_mols():
    # the row-slice permutations for c=1 are translations, hence even overall
    for p in (5, 7, 11):
        t = tau_parity(zn_linear_oa(p))
        for i in range(2, p + 2):
            for j in range(i + 1, p + 2):
                assert t.get(1, i, j) == 0


def test_tau_triple_law():
    for p in (3, 5, 7):
        a = zn_linear_oa(p)
        t = tau_parity(a)
        kk = binom2_bit(p % 4)
        for c, i, j in itertools.combinations(range(1, a.k + 1), 3):
            assert (t.get(c, i, j) + t.get(i, c, j) + t.get(j, c, i)) % 2 == kk


def test_tau_fixed_column_additivity():
    a = zn_linear_oa(7)
    t = tau_parity(a)
    rng = random.Random(8)
    for _ in range(200):
        c, i, j, l = rng.sample(range(1, a.k + 1), 4)
        assert t.get(c, i, j) == (t.get(c, i, l) + t.get(c, l, j)) % 2


def test_cycle_law():
    # sum of tau^{c_i}_{c_{i-1} c_{i+1}} around a cycle of l distinct columns
    # is l * C(n,2) mod 2
    rng = random.Random(9)
    for p in (5, 7, 11):
        a = zn_linear_oa(p)
        t = tau_parity(a)
        kk = binom2_bit(p % 4)
        for l in range(3, a.k + 1):
            for _ in range(10):
                cs = rng.sample(range(1, a.k + 1), l)
                total = sum(
                    t.get(cs[i], cs[i - 1], cs[(i + 1) % l]) for i in range(l)
                )
                assert total % 2 == (l * kk) % 2


# ---------------------------------------------------------------------------
# sigma-parity


def test_sigma_12_is_identity_bit():
    for p in (3, 5, 7):
        assert sigma_parity(zn_linear_oa(p)).get(1, 2) == 0


def test_sigma_transpose_law():
    for p in (3, 4, 5, 7):
        a = zn_linear_oa(p) if p != 4 else mols_to_oa([cyclic_square(2)])
        s = sigma_parity(a)
        kk = binom2_bit(a.n % 4)
        for i in range(1, a.k + 1):
            for j in range(1, a.k + 1):
                if i != j:
                    assert s.get(j, i) == s.get(i, j) ^ kk


def _random_isotope(a, rng, k):
    """k of the columns of a in random order, each relabelled at random."""
    cols = rng.sample(range(a.k), k)
    sym = np.asarray([rng.sample(range(a.n), a.n) for _ in cols], dtype=np.int16)
    return OrthogonalArray(sym[np.arange(k), a.rows[:, cols]])


def _oracle_arrays(rng, qs, ns):
    """Planes of order q with 23 isotopes each (column subsets of every size
    3..q+1), and the residue arrays of order n with one isotope each."""
    arrays = []
    for q in qs:
        base = linear_mols(q)
        arrays.append(base)
        for _ in range(23):
            arrays.append(_random_isotope(base, rng, rng.randint(3, q + 1)))
    for n in ns:
        for pattern in ("nnn", "rnr"):
            base = residue_pattern_oa(n, pattern)
            arrays += [base, _random_isotope(base, rng, 5)]
    assert len(arrays) >= 200
    return arrays


def test_sigma_parity_matches_direct_oracle():
    # sigma comes from the fixed-column bits; the oracle counts inversions
    # on n^2 rows
    arrays = _oracle_arrays(random.Random(13), (2, 3, 4, 5, 7, 8, 9, 11, 13), (11, 19, 23))
    for a in arrays:
        assert sigma_parity(a) == direct_sigma(a), (a.k, a.n)


_PLANE_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


@pytest.mark.parametrize("q", _PLANE_ORDERS)
def test_plane_sigma_matches_zolotarev(q):
    # column lam of the plane is the form lam*r + c, beside r = (1, 0) and
    # c = (0, 1); the kernel and the determinant rule agree entry for entry
    forms = [(1, 0), (0, 1)] + [(lam, 1) for lam in range(1, q)]
    assert np.array_equal(sigma_parity(linear_mols(q)).m, zolotarev_sigma(q, forms).m), q


def _residue_forms(n, a):
    return [(1, 0), (0, 1)] + [(lam, 1) for lam in (a, a * a % n, a ** 3 % n)]


def _residue_primes():
    return [n for n in range(11, 140, 4) if is_prime(n)]


def test_residue_sigma_matches_zolotarev():
    # the least and the greatest qualifying a per pattern and prime n <= 139;
    # every a is checked under -m slow
    for n in _residue_primes():
        for pattern in PATTERNS:
            values = qualifying_values(n, pattern)
            for a in {values[0], values[-1]}:
                got = sigma_parity(residue_pattern_oa(n, pattern, a)).m
                assert np.array_equal(got, zolotarev_sigma(n, _residue_forms(n, a)).m), (n, a)


@pytest.mark.slow
def test_every_residue_sigma_matches_zolotarev():
    count = 0
    for n in _residue_primes():
        for pattern in PATTERNS:
            for a in qualifying_values(n, pattern):
                got = sigma_parity(residue_pattern_oa(n, pattern, a)).m
                assert np.array_equal(got, zolotarev_sigma(n, _residue_forms(n, a)).m), (n, a)
                count += 1
    assert count == 273


def test_sigma_parity_needs_no_tau_and_no_plausibility_pass(monkeypatch):
    import oaparity.parity as P

    def forbidden(*args):
        raise AssertionError("sigma_parity must read only the fixed-column bits")

    monkeypatch.setattr(P, "check_plausible", forbidden)
    monkeypatch.setattr(P, "tau_parity", forbidden)
    for a in (zn_linear_oa(7), linear_mols(8), residue_pattern_oa(11, "nnn")):
        assert P.sigma_parity.__wrapped__(a) == direct_sigma(a)


def test_arrays_read_sigma_through_the_kernel_name_in_parity(monkeypatch):
    # a kernel that flips the first permutation's parity flips d[1, 3], so
    # sigma_13, of an array built while it is in place: building calls
    # the kernel as oaparity.parity.parity_batch, the name a caller that
    # wraps or replaces the kernel patches
    import oaparity.parity as P

    rows = linear_mols(7).rows
    want = direct_sigma(OrthogonalArray(rows)).m
    batch = P.parity_batch

    def flip_first(perms):
        bits = batch(perms).copy()
        bits[0] ^= 1
        return bits

    monkeypatch.setattr(P, "parity_batch", flip_first)
    got = P.sigma_parity.__wrapped__(OrthogonalArray(rows)).m
    assert got[1, 3] == want[1, 3] ^ 1


def test_tau_parity_matches_direct_oracle():
    # tau is derived from sigma, so from the C(k,2) - 1 fixed-column families
    # that carry the free sigma bits, by additivity; the oracle computes every
    # component from its permutations and counts their inversions
    rng = random.Random(14)
    arrays = _oracle_arrays(rng, (2, 3, 4, 5, 7, 8, 9, 11, 13, 16), (11, 19, 23, 43))
    for a in arrays:
        direct = direct_tau(a)
        assert tau_parity(a) == direct, (a.k, a.n)
        shuffled = a.rows[rng.sample(range(a.n * a.n), a.n * a.n)]
        assert np.array_equal(kernel_tau_bits(shuffled, a.n), direct.bits), (a.k, a.n)
        # the families computed are the free pairs; every other entry is
        # left zero
        free = np.zeros((a.k + 1, a.k + 1), dtype=bool)
        free[free_pairs(a.k)] = True
        want = np.where(free, _read_fixed_columns(direct.bits), 0)
        assert np.array_equal(_fixed_column_bits(a.rows, a.n), want), (a.k, a.n)
        # plausibility holds by construction for derived tau; the oracle's
        # full tau must satisfy the same laws and give the same report
        report = check_plausible(direct)
        assert report.plausible and report.pp_plausible != "no", (a.k, a.n)
        assert check_plausible(tau_parity(a)) == report, (a.k, a.n)


def test_row_swap_complements_sigma():
    # interchanging two stored rows flips every off-diagonal entry
    a = zn_linear_oa(5)
    mat = a.rows.copy()
    mat[[0, 1]] = mat[[1, 0]]
    swapped = _sigma_bits(mat, a.n)
    base = _sigma_bits(a.rows, a.n)
    off = ~np.eye(a.k + 1, dtype=bool)
    off[0, :] = False
    off[:, 0] = False
    assert np.array_equal(swapped[off], base[off] ^ 1)


def test_sigma_of_row_permuted_matrix_flips_by_parity():
    rng = random.Random(11)
    a = zn_linear_oa(4 + 1)
    base = _sigma_bits(a.rows, a.n)
    for _ in range(10):
        perm = list(range(a.n * a.n))
        rng.shuffle(perm)
        mat = a.rows[perm]
        got = _sigma_bits(mat, a.n)
        flip = permutation_parity(perm)
        off = ~np.eye(a.k + 1, dtype=bool)
        off[0, :] = False
        off[:, 0] = False
        assert np.array_equal(got[off], base[off] ^ flip)


def test_tau_ignores_row_order():
    rng = random.Random(12)
    a = zn_linear_oa(5)
    base = kernel_tau_bits(a.rows, a.n)
    perm = list(range(25))
    rng.shuffle(perm)
    assert np.array_equal(kernel_tau_bits(a.rows[perm], a.n), base)


# ---------------------------------------------------------------------------
# storage of tau


def _mirrored_upper_half(src: np.ndarray) -> np.ndarray:
    """src[c, min(i, j), max(i, j)] at every [c, i, j] with c, i, j distinct
    and nonzero, and 0 elsewhere."""
    k = src.shape[0] - 1
    out = np.zeros_like(src, dtype=np.uint8)
    for c, i, j in itertools.permutations(range(1, k + 1), 3):
        out[c, i, j] = src[c, min(i, j), max(i, j)]
    return out


def test_every_producer_stores_the_mirrored_upper_half():
    rng = random.Random(14)
    a = zn_linear_oa(5)
    sigma = SigmaMatrix.from_upper(6, 2, np.triu(np.ones((7, 7), dtype=np.uint8), 1))
    t = tau_parity(a)
    direct = oracle_tau_bits(a.rows, a.n)
    entries = [[c, j, i, b] if rng.getrandbits(1) else [c, i, j, b] for c, i, j, b in t.entries()]
    asym = np.array([[[rng.getrandbits(1) for _ in range(6)] for _ in range(6)] for _ in range(6)])
    half = np.triu(asym, 1)
    produced = [
        (t, direct),
        (tau_from_sigma(sigma), sigma.m[:, :, None] ^ sigma.m[:, None, :]),
        (TauVector.from_entries(a.k, a.n % 4, entries, n=a.n), direct),
        (TauVector(5, 0, half), half),
        (TauVector(5, 0, _mirrored_upper_half(asym)), asym),
        (TauVector(5, 0, asym), asym),
    ]
    for got, src in produced:
        assert np.array_equal(got.bits, _mirrored_upper_half(src))
        assert np.array_equal(got.bits, got.bits.transpose(0, 2, 1))
        assert not got.bits.flags.writeable
        assert np.array_equal(got.mirrored(), got.bits)
    assert produced[2][0] == t


# ---------------------------------------------------------------------------
# conversions


def test_tau_from_zero_sigma():
    k = 5
    m = np.zeros((k + 1, k + 1), dtype=np.uint8)
    s = SigmaMatrix(k=k, nmod4=0, m=m)
    t = tau_from_sigma(s)
    assert not t.bits.any()


def test_lower_triangular_sigma_tau_formula():
    # ones strictly below the diagonal: tau^c_{ij} = 1 exactly when i < c < j
    k = 6
    m = np.zeros((k + 1, k + 1), dtype=np.uint8)
    for i in range(1, k + 1):
        for j in range(1, i):
            m[i, j] = 1
    s = SigmaMatrix(k=k, nmod4=2, m=m)
    t = tau_from_sigma(s)
    for c, i, j in itertools.permutations(range(1, k + 1), 3):
        if i < j:
            assert t.get(c, i, j) == (1 if i < c < j else 0)


def test_complement_preserves_tau():
    a = zn_linear_oa(7)
    s = sigma_parity(a)
    assert tau_from_sigma(s) == tau_from_sigma(s.complement())


def test_sigma_tau_roundtrip_on_oa():
    for p in (3, 5, 7):
        a = zn_linear_oa(p)
        t = tau_parity(a)
        std = sigma_from_tau(t)
        assert tau_from_sigma(std) == t
        # and the standardised direct sigma agrees with the recovered one
        assert standardise(direct_sigma(a)) == std


def test_derived_tau_carries_its_sigma(monkeypatch):
    # tau_from_sigma's vector is plausible by construction, so sigma_from_tau
    # hands back standardise(s) with no plausibility pass; the same bits in
    # a TauVector of their own are checked and give the same sigma, and an
    # implausible vector still raises
    import oaparity.parity as P

    rng = random.Random(41)
    cases = []
    for k in range(3, 21):
        for nm in range(4):
            for n in (None, 4 * rng.randrange(1, 6) + nm):
                up = np.array([[rng.randrange(2) for _ in range(k + 1)] for _ in range(k + 1)])
                cases.append(SigmaMatrix.from_upper(k, nm, up, n=n))
    calls = []
    monkeypatch.setattr(P, "check_plausible", lambda t: calls.append(t))
    derived = [(s, tau_from_sigma(s)) for s in cases]
    for s, t in derived:
        got = sigma_from_tau(t)
        assert got == standardise(s) and isinstance(got, StandardSigma)
        assert got.n == t.n == s.n
    assert calls == []
    monkeypatch.undo()
    for s, t in derived:
        assert sigma_from_tau(TauVector(t.k, t.nmod4, t.bits, n=t.n)) == standardise(s)
        with pytest.raises(OAError, match="not plausible"):
            sigma_from_tau(flip_components(t, rng, 1))


def test_read_tau_is_checked_once(monkeypatch):
    # a tau read from a parity report carries no sigma: the first
    # sigma_from_tau checks it and keeps the sigma it reads on the tau, so a
    # second call runs no pass and hands back the same sigma
    import oaparity.parity as P
    from oaparity import fileio

    check = P.check_plausible
    calls = []
    monkeypatch.setattr(P, "check_plausible", lambda t: calls.append(t) or check(t))
    for a in (zn_linear_oa(3), linear_mols(4), zn_linear_oa(5), linear_mols(8)):
        t = fileio.tau_from_report(fileio.parity_report(a))
        calls.clear()
        first = sigma_from_tau(t)
        assert sigma_from_tau(t) is first
        assert calls == [t]
        assert first == sigma_parity(a)


def test_sigma_from_zero_tau_even():
    t = TauVector(k=4, nmod4=0, bits=np.zeros((5, 5, 5), dtype=np.uint8))
    std = sigma_from_tau(t)
    assert not std.m.any()


def test_standard_sigma_rejects_nonzero_12_entry():
    up = np.zeros((5, 5), dtype=np.uint8)
    up[1, 2] = 1
    m = SigmaMatrix.from_upper(4, 1, up)
    assert m.get(1, 2) == 1
    with pytest.raises(OAError):
        StandardSigma(4, 1, m.m)
    with pytest.raises(OAError):
        StandardSigma.from_upper(4, 1, up)
    assert standardise(m) == m.complement()
    assert isinstance(standardise(m), StandardSigma)


@pytest.mark.parametrize("build", [
    lambda k, nm, n: TauVector(k, nm, np.zeros((k + 1,) * 3, dtype=np.uint8), n=n),
    lambda k, nm, n: SigmaMatrix.from_upper(k, nm, np.zeros((k + 1, k + 1), dtype=np.uint8), n=n),
    lambda k, nm, n: StandardSigma.from_word(k, nm, 0, n=n),
], ids=["tau", "sigma", "word"])
def test_constructors_refuse_what_the_readers_refuse(build):
    # the readers' ranges: k >= 3, nmod4 in 0..3, n >= 1 and n = nmod4 mod 4;
    # (nmod4, n) = (9, -7) and (-3, -3) had been built with nmod4 = 1
    for k, nm, n, msg in ((2, 0, None, "need k >= 3"), (4, 9, -7, "nmod4 must be"),
                          (4, -3, -3, "nmod4 must be"), (4, 1, -7, "need n >= 1"),
                          (4, 1, 3, "inconsistent")):
        with pytest.raises(OAError, match=msg):
            build(k, nm, n)
    assert build(4, 1, 5).nmod4 == 1


def test_sigma_from_zero_tau_odd_rejected():
    t = TauVector(k=4, nmod4=2, bits=np.zeros((5, 5, 5), dtype=np.uint8))
    with pytest.raises(OAError):
        sigma_from_tau(t)


def test_roundtrip_over_all_standard_sigmas_small_k():
    # each standardised sigma corresponds to a distinct plausible tau vector
    for k, nmod4 in ((3, 0), (3, 3), (4, 1), (4, 2)):
        npairs = k * (k - 1) // 2 - 1
        seen = set()
        pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)][1:]
        for word in range(1 << npairs):
            up = np.zeros((k + 1, k + 1), dtype=np.uint8)
            for b, (i, j) in enumerate(pairs):
                up[i, j] = (word >> b) & 1
            std = StandardSigma.from_upper(k, nmod4, up)
            t = tau_from_sigma(std)
            assert check_plausible(t).plausible
            assert sigma_from_tau(t) == std
            seen.add(t)
        assert len(seen) == 1 << npairs


# ---------------------------------------------------------------------------
# plausibility


def test_oa_tau_is_plausible():
    for p in (3, 5, 7, 8):
        a = zn_linear_oa(p) if p != 8 else None
        if a is None:
            from oaparity.core import field_table

            f = field_table(8)
            squares = [
                LatinSquare(f.add[f.mul[lam][:, None], np.arange(8)[None, :]])
                for lam in range(1, 8)
            ]
            a = mols_to_oa(squares)
        rep = check_plausible(tau_parity(a))
        assert rep.plausible
        assert rep.pp_plausible == "yes"


def test_non_plane_tau_is_na():
    rep = check_plausible(tau_parity(zn_linear_oa(5, k=4)))
    assert rep.plausible
    assert rep.pp_plausible == "na"


def test_sigma_plane_verdict_matches_over_columns_sum():
    # SigmaMatrix.pp_plausible, read off in-degree parities, against the
    # over-columns sum rule of check_plausible on the tau the sigma
    # determines; a sigma and its complement give one verdict.  Plane
    # completions add "yes" cases where random sigmas seldom have them.
    from oaparity.constructions import pp_plausible_sigma

    rng = np.random.default_rng(26)
    seen = {"yes": 0, "no": 0, "na": 0}
    for k in range(3, 21):
        for n in (None, k - 1, k + 3):
            for nmod4 in range(4) if n is None else (n % 4,):
                sigmas = [SigmaMatrix.from_upper(k, nmod4, rng.integers(0, 2, (k + 1, k + 1)), n=n)
                          for _ in range(4)]
                if n == k - 1:
                    nbits = n * (n - 1) // 2 - 1 + n % 2
                    sigmas.append(pp_plausible_sigma(n, rng.integers(0, 2, nbits).tolist()))
                for s in sigmas:
                    want = check_plausible(tau_from_sigma(s)).pp_plausible
                    assert s.pp_plausible == want, (k, n, nmod4)
                    assert s.complement().pp_plausible == want, (k, n, nmod4)
                    seen[want] += 1
    assert min(seen.values()) >= 18, seen


def test_implausible_vector_reports_witness():
    bits = np.zeros((5, 5, 5), dtype=np.uint8)
    bits[1, 2, 3] = 1  # breaks additivity: tau^1_{23} != tau^1_{24} + tau^1_{43}
    t = TauVector(k=4, nmod4=0, bits=bits)
    rep = check_plausible(t)
    assert not rep.plausible
    assert rep.violations[0][0] in ("additivity", "triple")


def test_triple_mask_is_read_only_and_marks_each_triple():
    for k in (3, 4, 7):
        mask = _triple_mask(k)
        assert mask.shape == (k + 1,) * 3 and not mask.flags.writeable
        assert [tuple(v) for v in np.argwhere(mask).tolist()] == list(
            itertools.combinations(range(1, k + 1), 3))


@pytest.mark.parametrize("k", [3, 4, 5, 8, 13])
def test_additivity_matches_per_column_oracle(k):
    # the first violation (c, i, j) of the one-pass check is the first of
    # the column-by-column loop, on vectors with 0..3 components flipped
    rng = random.Random(60 + k)
    for nm in range(4):
        for flips in (0, 1, 1, 2, 3):
            t = flip_components(random_plausible_tau(rng, k, nm), rng, flips)
            found = [w for kind, w in check_plausible(t).violations if kind == "additivity"]
            expect = additivity_violation(t)
            assert found == ([] if expect is None else [expect])


@pytest.mark.parametrize("k", [3, 4, 5, 8, 13])
def test_triple_law_matches_per_triple_oracle(k):
    # the "triple" witness of check_plausible is the first triple, in
    # lexicographic order, whose square breaks the square law, on vectors
    # with 0..5 components flipped
    rng = random.Random(90 + k)
    witnessed = 0
    for nm in range(4):
        for flips in range(6):
            t = flip_components(random_plausible_tau(rng, k, nm), rng, flips)
            found = [w for kind, w in check_plausible(t).violations if kind == "triple"]
            expect = triple_violation(t)
            assert found == ([] if expect is None else [expect])
            witnessed += expect is not None
    assert witnessed > 10


# ---------------------------------------------------------------------------
# transformation laws


@pytest.mark.parametrize("p", [3, 5, 7])
def test_predicted_deltas_match_recomputation(p):
    rng = random.Random(100 + p)
    a = zn_linear_oa(p)
    for _ in range(40):
        t = random_transform(a, rng)
        pred_tau, pred_sigma = transform_parity_laws(a, t)
        res = apply_transform(a, t)
        assert tau_parity(res.oa) == pred_tau
        assert sigma_parity(res.oa) == pred_sigma == direct_sigma(res.oa)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    p=st.sampled_from([3, 5, 7]),
    length=st.integers(1, 4),
    rng=st.randoms(use_true_random=False),
)
def test_transform_chains_follow_the_laws(p, length, rng):
    a = zn_linear_oa(p)
    for _ in range(length):
        t = random_transform(a, rng)
        pred_tau, pred_sigma = transform_parity_laws(a, t)
        a = apply_transform(a, t).oa
        assert tau_parity(a) == pred_tau
        assert sigma_parity(a) == pred_sigma == direct_sigma(a)


@pytest.mark.parametrize("t", [
    Transform(kind="rows", perm=(1, 0)),
    Transform(kind="columns", perm=(2, 1, 3)),
    Transform(kind="symbols", perm=(1, 0, 2, 3), column=1),
    Transform(kind="symbols", perm=(1, 0, 2), column=5),
])
def test_transform_laws_refuse_what_apply_transform_refuses(t):
    # the prediction reads the re-sort parity off sigma, so it checks the
    # transform against the array itself, with apply_transform's message
    a = zn_linear_oa(3)
    with pytest.raises(OAError) as applied:
        apply_transform(a, t)
    with pytest.raises(OAError, match=re.escape(str(applied.value))):
        transform_parity_laws(a, t)


def test_even_n_odd_symbol_perm_changes_nothing():
    from oaparity.core import field_table

    f = field_table(4)
    squares = [
        LatinSquare(f.add[f.mul[lam][:, None], np.arange(4)[None, :]])
        for lam in range(1, 4)
    ]
    a = mols_to_oa(squares)
    perm = (1, 0, 2, 3)
    t = Transform(kind="symbols", perm=perm, column=4)
    res = apply_transform(a, t)
    assert tau_parity(res.oa) == tau_parity(a)
    assert sigma_parity(res.oa) == sigma_parity(a)


def test_odd_n_odd_symbol_perm_flips_tau_components():
    a = zn_linear_oa(5)
    perm = (1, 0, 2, 3, 4)
    c = 4
    t = Transform(kind="symbols", perm=perm, column=c)
    res = apply_transform(a, t)
    base, new = tau_parity(a), tau_parity(res.oa)
    for i, j in itertools.permutations(range(1, a.k + 1), 2):
        if c in (i, j):
            continue
        assert new.get(i, j, c) == base.get(i, j, c) ^ 1
        assert new.get(c, i, j) == base.get(c, i, j)
