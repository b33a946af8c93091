import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oaparity import core
from oaparity.constructions import linear_mols, residue_pattern_oa
from oaparity.core import (
    LatinSquare,
    OAError,
    OrthogonalArray,
    OrthogonalityError,
    PermutationError,
    Transform,
    apply_transform,
    cyclic_square,
    field_table,
    mols_to_oa,
    oa_to_mols,
    parity_batch,
    permutation_parity,
    rows_agree_in_one_column,
)

from conftest import swap_count_parity, zn_linear_oa, zn_linear_square
import oracle
from oracle import inversion_parity


def test_parity_identity():
    assert permutation_parity(range(5)) == 0


def test_parity_transposition():
    for n in (2, 3, 6, 11):
        perm = list(range(n))
        perm[0], perm[1] = perm[1], perm[0]
        assert permutation_parity(perm) == 1


def test_parity_three_cycle():
    assert permutation_parity([1, 2, 0, 3, 4]) == 0


def test_parity_is_homomorphism():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randrange(2, 12)
        p = list(range(n))
        q = list(range(n))
        rng.shuffle(p)
        rng.shuffle(q)
        comp = [p[q[i]] for i in range(n)]
        assert permutation_parity(comp) == permutation_parity(p) ^ permutation_parity(q)


def test_parity_implementations_agree():
    rng = random.Random(77)
    perms = []
    for _ in range(200):
        p = list(range(9))
        rng.shuffle(p)
        perms.append(p)
    batched = parity_batch(np.array(perms))
    for p, b in zip(perms, batched):
        assert permutation_parity(p) == int(b) == swap_count_parity(p)


_LENGTHS = sorted({0, 1, 2, 3, 1100} | {x for j in range(1, 11) for x in (1 << j, (1 << j) + 1)})


@st.composite
def _permutation_batches(draw):
    """A batch of random permutations of one length, sometimes more than one
    kernel chunk, in a chosen dtype and memory layout."""
    n = draw(st.sampled_from(_LENGTHS))
    chunk_rows = max(1, core._KERNEL_CHUNK // max(n, 1))
    m = draw(st.integers(0, 6) | st.integers(chunk_rows, chunk_rows + 3))
    seed = draw(st.integers(0, 2**32 - 1))
    dtype = draw(st.sampled_from([np.int16, np.int32, np.int64]))
    layout = draw(st.sampled_from(["c", "fortran", "reversed", "strided"]))
    perms = np.random.default_rng(seed).permuted(np.tile(np.arange(n), (m, 1)), axis=1)
    perms = perms.astype(dtype)
    if layout == "fortran":
        perms = np.asfortranarray(perms)
    elif layout == "reversed":
        perms = perms[::-1]
    elif layout == "strided":
        padded = np.zeros((m, 2 * n), dtype=dtype)
        padded[:, ::2] = perms
        perms = padded[:, ::2]
    return perms


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_permutation_batches())
@example(np.zeros((3, 1), dtype=np.int64))
@example(np.zeros((2, 0), dtype=np.int16))
def test_parity_batch_matches_both_oracles(perms):
    got = parity_batch(perms)
    assert got.shape == (len(perms),) and got.dtype == np.uint8
    assert np.array_equal(got, inversion_parity(np.ascontiguousarray(perms)))
    assert got.tolist() == [permutation_parity(p) for p in perms]


@pytest.mark.parametrize("n", [15, 16, 17, 31, 32, 33, 63, 64, 65, 4095, 4096, 4097])
def test_parity_batch_at_level_boundaries(n):
    """Lengths on each side of the 16-, 32- and 64-bit words of the sweep
    and of one and two radix-64 levels, in a batch one row longer than the
    rows of n elements that fit one kernel chunk, in every input dtype that
    holds n - 1.  The reversed row has every pair inverted."""
    m = core._KERNEL_CHUNK // n + 1
    perms = np.random.default_rng(n).permuted(np.tile(np.arange(n), (m, 1)), axis=1)
    perms[1] = np.arange(n)[::-1]
    want = inversion_parity(perms)
    assert want[1] == n * (n - 1) // 2 % 2
    assert want.tolist() == [permutation_parity(p) for p in perms]
    assert 0 < want.sum() < m
    for dtype in (np.uint8, np.uint16, np.int64, np.uint64):
        if n - 1 <= np.iinfo(dtype).max:
            assert np.array_equal(parity_batch(perms.astype(dtype)), want)


@pytest.mark.parametrize("n", [5, 15, 16, 17, 31, 32, 33, 63, 64, 65, 4096, 4097])
def test_parity_batch_refuses_a_repeated_value(n):
    """A row with one value written over another is refused, in a batch one
    row longer than the rows of n elements that fit one kernel chunk; the
    error names the first such row, in the first chunk or a later one.
    Row 1 loses n - 1, the word's top bit at n = 16, 32 and 64."""
    m = core._KERNEL_CHUNK // n + 1
    rng = np.random.default_rng(n)
    perms = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
    i, j = rng.choice(n, 2, replace=False)
    perms[m - 1, i] = perms[m - 1, j]
    top = perms[1] == n - 1
    perms[1, top] = perms[1, ~top][0]
    for first in (1, m - 1):
        with pytest.raises(PermutationError) as err:
            parity_batch(perms)
        assert err.value.row == first
        perms[first] = np.arange(n)
    assert np.array_equal(parity_batch(perms), inversion_parity(perms))


def test_parity_batch_refuses_a_repeated_window():
    # each radix-64 window of [0..63, 0..63] holds every digit once; only
    # the windows' prefixes show that the row is no permutation of 0..127
    with pytest.raises(PermutationError) as err:
        parity_batch(np.stack([np.arange(128), np.tile(np.arange(64), 2)]))
    assert err.value.row == 1


def test_parity_batch_rejects_out_of_range_entries():
    with pytest.raises(OAError):
        parity_batch(np.array([[0, 2]]))
    with pytest.raises(OAError):
        parity_batch(np.array([[0, 1], [-1, 0]]))
    with pytest.raises(OAError):
        parity_batch(np.arange(3))
    # entries that would wrap into range in int32 are rejected too
    with pytest.raises(OAError):
        parity_batch(np.array([[2**32, 1]], dtype=np.int64))
    with pytest.raises(OAError):
        parity_batch(np.array([[2**32 + 1, 0]], dtype=np.uint64))


# ---------------------------------------------------------------------------
# Latin squares


def test_latin_square_rejects_bad_row():
    with pytest.raises(OAError):
        LatinSquare([[0, 0], [1, 1]])


def test_latin_square_rejects_bad_column():
    with pytest.raises(OAError):
        LatinSquare([[0, 1], [0, 1]])


# symbols int16 cannot hold (in a list they overflowed the int16 cast; in an
# int64 array 65537 and -65535 wrapped to the valid symbol 1) and entries
# that are not integers
_BAD_SYMBOLS = pytest.mark.parametrize("value, as_array", [
    (40000, False), (65536, False), (2**70, False), (0.5, False), ("1", False),
    (65537, True), (-65535, True),
], ids=["40000", "65536", "2**70", "float", "string", "int64-65537", "int64-minus-65535"])


def _with_symbol(grid: list, i: int, j: int, value, as_array: bool):
    grid[i][j] = value
    return np.array(grid, dtype=np.int64) if as_array else grid


@_BAD_SYMBOLS
def test_latin_square_rejects_out_of_range_symbols(value, as_array):
    cells = _with_symbol(cyclic_square(3).cells.tolist(), 1, 2, value, as_array)
    with pytest.raises(OAError, match="symbols must be integers"):
        LatinSquare(cells)


def test_cyclic_square_valid():
    for n in range(2, 9):
        sq = cyclic_square(n)
        assert sq.n == n


def test_symbol_permutation():
    sq = cyclic_square(3)
    # symbol 0 sits at (0,0), (1,2), (2,1)
    assert list(sq.symbol_permutation(0)) == [0, 2, 1]


# ---------------------------------------------------------------------------
# MOLS <-> OA


def test_oa32_forced_rows():
    a = mols_to_oa([cyclic_square(2)])
    assert a.rows.tolist() == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_mols_to_oa_order3_pair():
    l1 = zn_linear_square(3, 1)
    l2 = zn_linear_square(3, 2)
    # oracle: direct superposition sees all 9 ordered pairs
    seen = {(int(l1.cells[r, c]), int(l2.cells[r, c])) for r in range(3) for c in range(3)}
    assert len(seen) == 9
    a = mols_to_oa([l1, l2])
    assert (a.k, a.n) == (4, 3)


def test_mols_to_oa_rejects_duplicates():
    sq = cyclic_square(3)
    with pytest.raises(OrthogonalityError) as err:
        mols_to_oa([sq, sq])
    assert err.value.repeated == (0, 0)


def test_set_input_is_sorted():
    l1 = zn_linear_square(3, 1)
    l2 = zn_linear_square(3, 2)
    assert mols_to_oa({l2, l1}) == mols_to_oa([l1, l2])


def test_oa_to_mols_roundtrip():
    a = mols_to_oa([cyclic_square(2)])
    assert oa_to_mols(a) == [cyclic_square(2)]
    pair = [zn_linear_square(3, 1), zn_linear_square(3, 2)]
    assert oa_to_mols(mols_to_oa(pair)) == pair
    b = zn_linear_oa(7)
    squares = oa_to_mols(b)
    assert len(squares) == 6
    assert mols_to_oa(squares) == b


def test_oa_validation_catches_repeats():
    rows = mols_to_oa([cyclic_square(2)]).rows.copy()
    rows[3, 2] = 1  # now columns (1,3) repeat (1,1)
    with pytest.raises(OrthogonalityError) as err:
        OrthogonalArray(rows)
    assert err.value.pair is not None


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 67])
def test_orthogonality_error_matches_per_pair_oracle(q):
    # one changed symbol repeats a pair with every other column; the array
    # and the oracle must name the same first pair and least repeated pair;
    # at q = 67 the kernel checks its rows in two radix-64 levels
    rng = random.Random(q)
    plane = (zn_linear_oa(q, k=4) if q > 32 else linear_mols(q)).rows
    width = plane.shape[1]
    for _ in range(25):
        k = rng.randint(3, width)
        cols = rng.sample(range(width), k)
        sym = np.asarray([rng.sample(range(q), q) for _ in cols], dtype=np.int16)
        rows = sym[np.arange(k), plane[:, cols]][rng.sample(range(q * q), q * q)]
        r, c = rng.randrange(q * q), rng.randrange(k)
        rows[r, c] = (rows[r, c] + rng.randrange(1, q)) % q
        (i, j), (u, v) = oracle.orthogonality_violation(rows, q)
        with pytest.raises(OrthogonalityError) as err:
            OrthogonalArray(rows)
        assert (err.value.pair, err.value.repeated) == ((i, j), (u, v))
        assert str(err.value) == f"columns {i} and {j} repeat the ordered pair ({u}, {v})"


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_mols_to_oa_names_the_squares_like_the_oracle(q):
    # a relabelled copy of square a is orthogonal to every square but a
    rng = random.Random(100 + q)
    squares = oa_to_mols(linear_mols(q))
    for _ in range(10):
        chosen = rng.sample(squares, rng.randint(2, q - 1))
        a, b = sorted(rng.sample(range(len(chosen)), 2))
        relabel = np.asarray(rng.sample(range(q), q), dtype=np.int16)
        chosen[b] = LatinSquare(relabel[chosen[a].cells])
        grid = np.indices((q, q)).reshape(2, -1)
        (i, j), (u, v) = oracle.orthogonality_violation(
            np.column_stack([*grid, *(s.cells.ravel() for s in chosen)]), q)
        assert (i - 2, j - 2) == (a + 1, b + 1)
        with pytest.raises(OrthogonalityError) as err:
            mols_to_oa(chosen)
        assert (err.value.pair, err.value.repeated) == ((a + 1, b + 1), (u, v))
        assert str(err.value) == (
            f"squares {a + 1} and {b + 1} are not orthogonal: pair ({u}, {v}) repeats")


@pytest.mark.parametrize("base", [("plane", 2), ("plane", 4), ("plane", 9), ("plane", 16),
                                  ("plane", 27), ("residue", 11), ("residue", 43)], ids=str)
def test_stored_rows_are_in_lexicographic_order(base):
    # rows are sorted on the one key col1 * n + col2; on an orthogonal pair
    # (1, 2) that is the lexicographic order on all columns
    kind, n = base
    rows0 = (linear_mols(n) if kind == "plane" else residue_pattern_oa(n, "rnr")).rows
    rng = random.Random(300 + n)
    for _ in range(8):
        k = rng.randint(3, rows0.shape[1])
        cols = rng.sample(range(rows0.shape[1]), k)
        sym = np.asarray([rng.sample(range(n), n) for _ in cols], dtype=np.int16)
        rows = sym[np.arange(k), rows0[:, cols]][rng.sample(range(n * n), n * n)]
        assert np.array_equal(OrthogonalArray(rows).rows, rows[np.lexsort(rows.T[::-1])])


def test_oa_hash_is_kept_and_equal_arrays_hash_equal():
    a = linear_mols(5)
    b = OrthogonalArray(a.rows[::-1])  # equal after sorting, built apart
    assert a == b and a is not b
    assert hash(a) == hash((a.k, a.n, a.rows.tobytes())) == hash(b)
    assert a._hash == hash(a)  # kept after the first call


def test_oa_rejects_k2_and_wide():
    grid = [[r, c] for r in range(3) for c in range(3)]
    with pytest.raises(OAError):
        OrthogonalArray(grid)
    wide = [[r, c, (r + c) % 2, (r + c) % 2] for r in range(2) for c in range(2)]
    with pytest.raises(OAError):
        OrthogonalArray(wide)


@_BAD_SYMBOLS
def test_oa_rejects_out_of_range_symbols(value, as_array):
    rows = _with_symbol(mols_to_oa([cyclic_square(3)]).rows.tolist(), 4, 0, value, as_array)
    with pytest.raises(OAError, match="symbols must be integers"):
        OrthogonalArray(rows)


def test_rows_agree_in_one_column():
    assert rows_agree_in_one_column(mols_to_oa([cyclic_square(2)]))
    assert rows_agree_in_one_column(zn_linear_oa(5))
    # k < n+1 arrays do not have the property
    assert not rows_agree_in_one_column(zn_linear_oa(5, k=3))
    # the library reads it off k = n + 1, the oracle compares every pair of
    # rows, on the planes and their column subsets of every size
    rng = random.Random(306)
    for q in (2, 3, 4, 5, 7, 8, 9):
        plane = linear_mols(q).rows
        for k in range(3, q + 2):
            a = OrthogonalArray(plane[:, rng.sample(range(q + 1), k)])
            assert rows_agree_in_one_column(a) == oracle.rows_agree_in_one_column(a) == (k == q + 1)


# ---------------------------------------------------------------------------
# finite fields


def test_gf2_tables():
    f = field_table(2)
    assert f.add.tolist() == [[0, 1], [1, 0]]
    assert f.mul.tolist() == [[0, 0], [0, 1]]


def test_gf9_characteristic():
    f = field_table(9)
    for x in range(9):
        assert f.add[f.add[x, x], x] == 0


def test_field_rejects_non_prime_power():
    with pytest.raises(OAError):
        field_table(6)
    with pytest.raises(OAError):
        field_table(12)


def test_field_rejects_large_order():
    with pytest.raises(OAError):
        field_table(64)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32])
def test_all_supported_fields_verify(q):
    f = field_table(q)
    assert f.q == q
    nonzero = list(range(1, q))
    for a in nonzero:
        assert sorted(int(f.mul[a, b]) for b in nonzero) == nonzero


# ---------------------------------------------------------------------------
# transforms


def test_identity_transforms():
    a = zn_linear_oa(5)
    n2 = a.n * a.n
    for t in (
        Transform(kind="rows", perm=tuple(range(n2))),
        Transform(kind="columns", perm=tuple(range(1, a.k + 1))),
        Transform(kind="symbols", perm=tuple(range(a.n)), column=3),
    ):
        res = apply_transform(a, t)
        assert res.oa == a
        assert res.sort_parity == 0


def test_column_swap_is_transpose():
    sq = zn_linear_square(5, 2)
    a = mols_to_oa([sq])
    swapped = apply_transform(a, Transform(kind="columns", perm=(2, 1, 3))).oa
    transposed = mols_to_oa([LatinSquare(sq.cells.T)])
    assert swapped == transposed


def test_symbol_transposition_keeps_orthogonality():
    a = zn_linear_oa(7, k=3)
    perm = list(range(7))
    perm[0], perm[1] = perm[1], perm[0]
    res = apply_transform(a, Transform(kind="symbols", perm=tuple(perm), column=3))
    assert res.oa.k == 3
    assert res.sort_parity == 0


def test_row_transform_reports_parity():
    a = zn_linear_oa(3)
    perm = list(range(9))
    perm[0], perm[1] = perm[1], perm[0]
    res = apply_transform(a, Transform(kind="rows", perm=tuple(perm)))
    assert res.oa == a
    assert res.sort_parity == 1


def test_transform_validation():
    with pytest.raises(OAError):
        Transform(kind="sideways", perm=(0, 1))
    with pytest.raises(OAError):
        Transform(kind="symbols", perm=(0, 1))
    with pytest.raises(OAError):
        Transform(kind="rows", perm=(0, 0))
