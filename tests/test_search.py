import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from oaparity.core import LatinSquare, OAError, OrthogonalArray, UsageError, mols_to_oa, oa_to_mols
from oaparity.parity import (
    SigmaMatrix,
    StandardSigma,
    TauVector,
    check_plausible,
    latin_square_parities,
    plausible_types,
    sigma_from_tau,
    sigma_parity,
    tau_from_sigma,
    tau_parity,
)
from oaparity import search
from oaparity.constructions import linear_mols
from oaparity.search import (
    SearchSpec,
    achieved_parity_types,
    enumerate_latin_squares,
    find_oa_with_parity,
    latin_square_walk,
)

import oracle
from conftest import random_isotope_square, zn_linear_square


def test_counts_tiny():
    assert sum(1 for _ in enumerate_latin_squares(1)) == 1
    assert sum(1 for _ in enumerate_latin_squares(2)) == 2
    assert sum(1 for _ in enumerate_latin_squares(3)) == 12
    assert sum(1 for _ in enumerate_latin_squares(4)) == 576


def test_count_order5():
    # classical value; equals 5! * 4! * (number of reduced squares) = 120*24*56
    assert sum(1 for _ in enumerate_latin_squares(5)) == 161280


def test_enumeration_is_sorted_and_unique():
    seen = [sq.key() for sq in enumerate_latin_squares(3)]
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_enumeration_rejects_large_order():
    with pytest.raises(OAError):
        list(enumerate_latin_squares(7))


def test_resume_cursor():
    squares = list(enumerate_latin_squares(4))
    for idx in (0, 17, 574, 575):
        rest = list(enumerate_latin_squares(4, resume_after=squares[idx]))
        assert rest == squares[idx + 1:]


def test_every_enumerated_square_satisfies_the_parity_relation():
    from oaparity.parity import binom2_bit

    for n in (2, 3, 4):
        for sq in enumerate_latin_squares(n):
            p = latin_square_parities(sq)
            assert (p.pr + p.pc + p.ps) % 2 == binom2_bit(n % 4)


def test_achieved_types():
    assert achieved_parity_types(3) == {"111", "100", "010", "001"}
    assert achieved_parity_types(4) == {"000"}  # a proper subset at order 4
    assert achieved_parity_types(5) == {"000", "011", "101", "110"}
    assert achieved_parity_types(6) == {"111", "100", "010", "001"}


def test_achieved_types_match_full_walk():
    # closing the types seen under S_3 gives every type the walk reaches
    for n in range(1, 6):
        assert achieved_parity_types(n) == set(latin_square_walk(n)[1])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_achieved_types_have_conjugate_witnesses(n):
    # each type derived by conjugation is, by tau_parity, the type of a
    # conjugate of a walked square: its OA(3, n) with the columns permuted
    achieved = achieved_parity_types(n)
    cells, walk = latin_square_walk(n)
    witnessed = set()
    for ty in walk:
        if ty in witnessed:
            continue
        rows = mols_to_oa([LatinSquare(np.array(cells).reshape(n, n))]).rows
        for p in itertools.permutations(range(3)):
            witnessed.add(tau_parity(OrthogonalArray(rows[:, list(p)])).triple_type(1, 2, 3))
        if witnessed >= achieved:
            break
    assert witnessed == achieved


def test_achieved_subset_of_plausible():
    for n in (2, 3, 4, 5):
        assert achieved_parity_types(n) <= set(plausible_types(n % 4))


# ---------------------------------------------------------------------------
# targeted search


def test_spec_validation():
    # an impossible type for n = 0 mod 4 is refused by the one plausibility
    # gate, on the tau of its OA(3, n)
    with pytest.raises(OAError, match="^tau vector is not plausible: triple violated"):
        SearchSpec(k=3, n=4, target="111")
    with pytest.raises(OAError):
        SearchSpec(k=3, n=4, target="00")
    with pytest.raises(OAError):
        SearchSpec(k=4, n=6, target="000")  # type targets need k = 3
    with pytest.raises(OAError):
        SearchSpec(k=3, n=7, target="111", mode="exhaustive")  # beyond limits
    with pytest.raises(OAError):
        SearchSpec(k=3, n=5, target="000", mode="sideways")
    with pytest.raises(OAError, match="^exhaustive mode is certified only for k=3 with n <= 6 "
                                      "and k=4 with n <= 5$"):
        SearchSpec(k=5, n=5, target=tau_parity(OrthogonalArray(linear_mols(5).rows[:, :5])),
                   mode="exhaustive")  # no limit for k = 5
    # a malformed type fails closed, as a target and as a walk's type
    for ty in ("1", "2x1", "0101", ""):
        with pytest.raises(OAError, match="^a parity type is 3 bits 'rcs', got "):
            SearchSpec(k=3, n=4, target=ty)
        with pytest.raises(OAError, match="^a parity type is 3 bits 'rcs', got "):
            latin_square_walk(4, parity_type=ty)
    # a seed or restarts outside mode "randomized" would be ignored
    for mode in ("first-hit", "exhaustive"):
        for setting in ({"seed": 7}, {"restarts": 5}):
            with pytest.raises(UsageError, match="^seed and restarts need mode 'randomized'"):
                SearchSpec(k=3, n=5, target="000", mode=mode, **setting)


def test_spec_refuses_a_tau_target_of_another_n():
    # the first four columns of the q = 4 plane record n = 4; n = 8 shares
    # k and n mod 4 with it, but not n.  A target of unknown n is accepted.
    t = tau_parity(OrthogonalArray(linear_mols(4).rows[:, :4]))
    assert t.n == 4
    with pytest.raises(OAError, match="^target dimensions disagree with the search spec$"):
        SearchSpec(k=4, n=8, target=t)
    assert SearchSpec(k=4, n=4, target=t).target is t
    unknown = TauVector(k=4, nmod4=0, bits=t.bits)
    assert SearchSpec(k=4, n=8, target=unknown).target is unknown


@pytest.mark.parametrize("budget", [{"max_nodes": -1}, {"restarts": 0}, {"restarts": -2},
                                    {"restarts": 0, "mode": "randomized", "seed": 1}])
def test_spec_rejects_negative_budgets(budget):
    with pytest.raises(UsageError):
        SearchSpec(k=3, n=5, target="000", **budget)


def test_unique_oa32():
    out = find_oa_with_parity(SearchSpec(k=3, n=2, target="111"))
    assert out.found is not None
    assert out.found.rows.tolist() == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_first_hit_each_type_n5():
    for ty in plausible_types(1):
        out = find_oa_with_parity(SearchSpec(k=3, n=5, target=ty))
        assert out.found is not None
        sq = oa_to_mols(out.found)[0]
        assert latin_square_parities(sq).type_str == ty


def test_type_target_takes_one_plausibility_pass(monkeypatch):
    # the spec gates the tau of the type once, and the search and the check
    # of what it finds read the sigma the gate keeps on it
    from oaparity import parity

    calls = []

    def counted(t):
        calls.append(t)
        return check_plausible(t)

    monkeypatch.setattr(parity, "check_plausible", counted)
    out = find_oa_with_parity(SearchSpec(3, 5, "011"))
    assert latin_square_parities(oa_to_mols(out.found)[0]).type_str == "011"
    assert len(calls) == 1


def test_first_hit_each_type_n6():
    for ty in plausible_types(2):
        out = find_oa_with_parity(SearchSpec(k=3, n=6, target=ty))
        assert out.found is not None
        assert tau_parity(out.found).triple_type(1, 2, 3) == ty


def test_certified_nonexistence_order4():
    # order-4 squares only achieve type 000
    for ty in ("011", "101", "110"):
        out = find_oa_with_parity(SearchSpec(k=3, n=4, target=ty, mode="exhaustive"))
        assert out.found is None
        assert out.certified_exhausted


def test_budget_outcome_is_not_certified():
    out = find_oa_with_parity(
        SearchSpec(k=3, n=4, target="011", mode="exhaustive", max_nodes=50)
    )
    assert out.found is None
    assert not out.certified_exhausted
    assert out.nodes > 0


def test_tau_target_roundtrip():
    # search for the tau vector of a known array and check the result
    # reproduces it exactly
    base = linear_mols(4)
    target = tau_parity(base)
    out = find_oa_with_parity(SearchSpec(k=5, n=4, target=target))
    assert out.found is not None
    assert tau_parity(out.found) == target


def test_randomized_mode_finds_types():
    for ty in plausible_types(2):
        out = find_oa_with_parity(
            SearchSpec(k=3, n=6, target=ty, mode="randomized", seed=7, restarts=3)
        )
        assert out.found is not None
        assert out.seed == 7
        assert tau_parity(out.found).triple_type(1, 2, 3) == ty


def test_randomized_is_reproducible():
    spec = SearchSpec(k=3, n=5, target="101", mode="randomized", seed=11)
    a = find_oa_with_parity(spec)
    b = find_oa_with_parity(spec)
    assert a.found == b.found


# ---------------------------------------------------------------------------
# the iterative walk against the recursive oracle


def _word_target(k: int, n: int, word: int):
    """The tau vector of the standardised sigma with sigma_12 = 0 whose other
    upper bits, (1,3) as the most significant and (k-1,k) as the least,
    spell ``word``."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)][1:]
    upper = np.zeros((k + 1, k + 1), dtype=np.uint8)
    for b, (i, j) in enumerate(reversed(pairs)):
        upper[i, j] = word >> b & 1
    return tau_from_sigma(SigmaMatrix.from_upper(k, n % 4, upper, n=n))


def _agrees_with_oracle(spec):
    out = find_oa_with_parity(spec)
    rows, certified, nodes = oracle.find(spec)
    assert out.nodes == nodes, spec
    assert out.certified_exhausted == certified, spec
    assert (out.found is None) == (rows is None), spec
    if rows is not None:
        assert out.found == OrthogonalArray(rows), spec


def test_first_hit_matches_oracle():
    for n in range(2, 7):
        for ty in plausible_types(n % 4):
            _agrees_with_oracle(SearchSpec(3, n, ty))
    # every cap up to the first hit at order 5, where the walk counts the
    # last two rows below its first three rows of the 000 and 011 searches
    for ty in plausible_types(1):
        for cap in range(_K3_FIRST_HIT_NODES[(5, ty)] + 1):
            _agrees_with_oracle(SearchSpec(3, 5, ty, max_nodes=cap))
    # caps that land inside the counted last two rows of the order-6 walks
    # that pass thousands of squares of other types
    for ty in ("010", "001"):
        pinned = _K3_FIRST_HIT_NODES[(6, ty)]
        for cap in (100, 1000, 10000, 50000, pinned - 1, pinned):
            _agrees_with_oracle(SearchSpec(3, 6, ty, max_nodes=cap))


def test_randomized_matches_oracle():
    for seed in range(6):
        for n, ty, cap in [(5, "101", 40), (5, "011", None), (6, "010", 400), (6, "100", None)]:
            _agrees_with_oracle(
                SearchSpec(3, n, ty, mode="randomized", seed=seed, restarts=3, max_nodes=cap))
        _agrees_with_oracle(SearchSpec(4, 3, _word_target(4, 3, 2 + seed), mode="randomized",
                                       seed=seed, restarts=2))
        _agrees_with_oracle(SearchSpec(4, 5, _word_target(4, 5, 6 + seed), mode="randomized",
                                       seed=seed, restarts=2, max_nodes=2000))


def test_exhaustive_matches_oracle():
    for ty in plausible_types(1):
        _agrees_with_oracle(SearchSpec(3, 5, ty, mode="exhaustive"))
    for ty in plausible_types(0):
        _agrees_with_oracle(SearchSpec(3, 4, ty, mode="exhaustive"))
        _agrees_with_oracle(SearchSpec(3, 4, ty, mode="exhaustive", max_nodes=100))
    for word in range(32):
        _agrees_with_oracle(SearchSpec(4, 3, _word_target(4, 3, word), mode="exhaustive"))
    _agrees_with_oracle(SearchSpec(4, 3, _word_target(4, 3, 0), mode="exhaustive", max_nodes=200))


def test_tau_targets_match_oracle():
    for word in (0, 1, 6, 15, 29):
        _agrees_with_oracle(SearchSpec(4, 5, _word_target(4, 5, word), max_nodes=3000))
    _agrees_with_oracle(SearchSpec(5, 4, tau_parity(linear_mols(4))))
    for word, cap in [(0, None), (1, 3000), (32, 6000), (40, 2000)]:
        _agrees_with_oracle(SearchSpec(5, 4, _word_target(5, 4, word), max_nodes=cap))


def test_enumeration_matches_oracle():
    for n in range(1, 5):
        squares = list(enumerate_latin_squares(n))
        assert squares == list(oracle.enumerate_latin_squares(n))
        m = len(squares)
        for idx in {0, 1, m // 3, m - 2, m - 1} & set(range(m)):
            cursor = squares[idx]
            assert list(enumerate_latin_squares(n, resume_after=cursor)) == list(
                oracle.enumerate_latin_squares(n, resume_after=cursor))


def test_walk_parity_matches_definition():
    def check(cells, ty, n):
        assert ty == latin_square_parities(LatinSquare(np.reshape(cells, (n, n)))).type_str

    for n in range(1, 5):
        cells, walk = latin_square_walk(n)
        for ty in walk:
            check(cells, ty, n)
    # a seeded sample at orders 5 and 6: the squares after random cursors,
    # which also runs the parity through the replay of each cursor
    rng = random.Random(2017)
    for n in (5, 6):
        for _ in range(6):
            cursor = random_isotope_square(zn_linear_square(n, 1), rng)
            cells, walk = latin_square_walk(n, resume_after=cursor)
            for _, ty in zip(range(40), walk):
                check(cells, ty, n)


def _tail_agrees_with_oracle(rect, n: int):
    """The counted last two rows below the n - 2 rows ``rect`` against a
    walk of them: node count, and the (r, c) of the completed squares, the
    rectangle's own inversion parities counted from the definition."""
    full = (1 << n) - 1
    nodes, adds = search._tail(n, [full ^ sum(1 << int(x) for x in col) for col in zip(*rect)])
    r0 = sum(a > b for row in rect for a, b in itertools.combinations(row, 2)) & 1
    c0 = sum(a > b for col in zip(*rect) for a, b in itertools.combinations(col, 2)) & 1
    assert (nodes, {(r0 ^ r, c0 ^ c) for r, c in adds}) == oracle.last_two_rows(rect, n), rect


def test_tail_matches_oracle():
    # every n - 2 row prefix that the walk reaches at orders 3 to 5
    for n in (3, 4, 5):
        cells, walk = latin_square_walk(n)
        prefixes = {tuple(cells[:(n - 2) * n]) for _ in walk}
        for p in prefixes:
            _tail_agrees_with_oracle([p[i * n:(i + 1) * n] for i in range(n - 2)], n)
    # a seeded sample at orders 6 to 9: random isotopes of the first square
    # of a shuffled walk
    rng = random.Random(61)
    for n in range(6, 10):
        for _ in range(30):
            cells = [0] * (n * n)
            next(search._walk(n, (), cells, search._Nodes(), rng))
            square = random_isotope_square(LatinSquare(np.reshape(cells, (n, n))), rng)
            _tail_agrees_with_oracle(square.cells[:n - 2].tolist(), n)


def test_typed_walk_yields_the_squares_of_its_type():
    # a walk for one type yields, in order, the squares of that type that the
    # plain walk yields, also after a resume cursor; at order 5 the first
    # 1 000 or more of each type
    for n in (3, 4, 5):
        cells, walk = latin_square_walk(n)
        by_type = {ty: [] for ty in plausible_types(n % 4)}
        for ty in walk:
            by_type[ty].append(tuple(cells))
            if min(map(len, by_type.values())) >= 1000:
                break
        for ty, squares in by_type.items():
            cells, walk = latin_square_walk(n, parity_type=ty)
            assert [tuple(cells) for _ in itertools.islice(walk, len(squares))] == squares
            if squares:
                half = len(squares) // 2
                cursor = LatinSquare(np.reshape(squares[half], (n, n)))
                cells, walk = latin_square_walk(n, cursor, ty)
                rest = [tuple(cells) for _ in itertools.islice(walk, len(squares) - half - 1)]
                assert rest == squares[half + 1:], (n, ty)


# first-hit node counts pinned by the benchmark, perfbench/golden.py:
# K3_FIRST_HIT_NODES, and K4N5_FOUND_NODES for the words 1 and 15 of its
# capped OA(4, 5) searches (K4N5_CAP = 480000), whose targets are built as in
# perfbench/wl_space.py::_k4_search_job
_K3_FIRST_HIT_NODES = {
    (5, "000"): 78, (5, "011"): 64, (5, "101"): 37, (5, "110"): 47,
    (6, "111"): 62, (6, "100"): 154, (6, "010"): 84706, (6, "001"): 83083,
}
_K4N5_FOUND_NODES = {1: 465777, 15: 467114}


def test_visit_order_is_pinned():
    """Node counts of the benchmark's pinned searches (perfbench/golden.py),
    so a change of the visit order fails here before it fails there."""
    for (n, ty), nodes in _K3_FIRST_HIT_NODES.items():
        out = find_oa_with_parity(SearchSpec(3, n, ty))
        assert (out.nodes, out.found is not None) == (nodes, True), (n, ty)
    for word, nodes in _K4N5_FOUND_NODES.items():
        target = _word_target(4, 5, word)
        out = find_oa_with_parity(SearchSpec(4, 5, target, max_nodes=480000))
        assert out.nodes == nodes, word
        assert tau_parity(out.found) == target


def test_kernel_checks_start_at_the_fourth_column(monkeypatch):
    # the first square is decided by the walk's running type, so a capped
    # OA(4, 5) search calls the kernel check only on four-column stacks and
    # visits the nodes it visited when three-column stacks were checked too
    calls = []
    check = search._partial_tau_matches

    def counted(columns, n, target):
        calls.append(len(columns))
        return check(columns, n, target)

    monkeypatch.setattr(search, "_partial_tau_matches", counted)
    for word, nodes in _K4N5_FOUND_NODES.items():
        out = find_oa_with_parity(SearchSpec(4, 5, _word_target(4, 5, word), max_nodes=480000))
        assert out.nodes == nodes, word
    assert calls and set(calls) == {4}


def test_column_check_compares_only_the_new_column():
    # adding column m compares sigma column m of the columns so far with the
    # target's; the earlier columns' entries were checked when those columns
    # were added
    rng = random.Random(23)
    for q in (4, 5, 7, 8, 9):
        plane = linear_mols(q).rows
        for _ in range(4):
            k = rng.randint(4, q + 1)
            arr = plane[:, [0, 1, *rng.sample(range(2, q + 1), k - 2)]].copy()
            for col in range(2, k):  # relabel symbols, which flips sigma entries for odd q
                arr[:, col] = np.asarray(rng.sample(range(q), q))[arr[:, col]]
            target = sigma_parity(OrthogonalArray(arr))
            columns = list(arr.T)
            for m in range(4, k + 1):
                assert search._partial_tau_matches(columns[:m], q, target)
                # a flip in column m is caught; one in an earlier column is
                # not looked at
                for i, j in [(rng.randrange(1, m), m), (2, rng.randrange(3, m))]:
                    up = target.m.copy()
                    up[i, j] ^= 1
                    flipped = StandardSigma.from_upper(k, q % 4, up, n=q)
                    assert search._partial_tau_matches(columns[:m], q, flipped) == (j < m)


def test_type_and_tau_targets_search_alike(monkeypatch):
    # at k = 3 a type string and the tau vector of that type are one target:
    # both are checked by the first square's running type, with no kernel
    # run; the tau target's sigma is read only by the plausibility gate
    def unused(*args):
        raise AssertionError("no kernel check at k = 3")

    monkeypatch.setattr(search, "_partial_tau_matches", unused)
    for n in range(3, 7):
        targets = [_word_target(3, n, word) for word in range(4)]
        assert {t.triple_type(1, 2, 3) for t in targets} == set(plausible_types(n % 4))
        for tau in targets:
            ty = tau.triple_type(1, 2, 3)
            for options in [{}, {"mode": "exhaustive"}, {"max_nodes": 50}] + [
                    {"mode": "randomized", "seed": seed, "restarts": 3, "max_nodes": 40}
                    for seed in range(3)]:
                by_type = find_oa_with_parity(SearchSpec(3, n, ty, **options))
                by_tau = find_oa_with_parity(SearchSpec(3, n, tau, **options))
                assert by_type == by_tau, (n, ty, options)


@pytest.mark.parametrize("k", [3, 4])
def test_found_array_is_checked_against_the_target(monkeypatch, k):
    # a found array whose parity is not the target's is refused, for a type
    # target and for a tau target
    n = 5
    wrong = OrthogonalArray(linear_mols(n).rows[:, :k])
    tau = _word_target(k, n, 1)
    assert sigma_parity(wrong) != sigma_from_tau(tau)
    monkeypatch.setattr(search, "_search", lambda *args: (wrong, 1, False))
    targets = [tau] + ([tau.triple_type(1, 2, 3)] if k == 3 else [])
    for target in targets:
        with pytest.raises(OAError, match="does not match the target"):
            find_oa_with_parity(SearchSpec(k, n, target))


def test_of_type_is_the_tau_of_its_square():
    # the OA(3, n) vector a type names passes the gate exactly when the type
    # is plausible, and its square's type is the type
    for n in range(1, 9):
        for ty in (f"{code:03b}" for code in range(8)):
            tau = TauVector.of_type(ty, n)
            assert tau.triple_type(1, 2, 3) == ty
            try:
                sigma_from_tau(tau)
                gated = True
            except OAError:
                gated = False
            assert gated == (ty in plausible_types(n % 4)), (ty, n)


def test_first_hit_needs_no_recursion_per_cell():
    out = find_oa_with_parity(SearchSpec(3, 32, "000"))
    assert out.nodes == 1024
    assert tau_parity(out.found).triple_type(1, 2, 3) == "000"


def test_capped_search_at_order_12_is_not_certified():
    out = find_oa_with_parity(SearchSpec(3, 12, "101", max_nodes=5000))
    assert out.found is None
    assert not out.certified_exhausted
    assert out.nodes == 5001


# ---------------------------------------------------------------------------
# the first-row fold against the oracle, which walks every node


def _fold_point(n: int, nodes: int) -> int:
    """The node count at which the top column's walk has walked the subtrees
    below its first two first rows and adds the rest, given the node count
    of a run that walked that column to its end without a hit."""
    row_trie = sum(math.perm(n, j) for j in range(1, n + 1))
    copies, rest = divmod(nodes - row_trie, math.factorial(n) // 2)
    assert rest == 0, (n, nodes)
    return n + 2 + copies


# these words agree with word 0 on columns 1 to 3, so the search walks column
# 4 below every type-000 square of order 4 (OA(4, 4) realises word 0 only),
# 4-5 s each in the oracle; word 1 stays in the default run
_HEAVY_44_WORDS = {2, 3, 8, 9, 10, 11}


@pytest.mark.parametrize("word", [
    pytest.param(w, marks=pytest.mark.slow) if w in _HEAVY_44_WORDS else w for w in range(32)])
def test_fold_exhaustive_44_matches_oracle(word):
    _agrees_with_oracle(SearchSpec(4, 4, _word_target(4, 4, word), mode="exhaustive"))


def test_fold_matches_oracle_at_k_n_plus_1():
    """k = n + 1, complete sets of MOLS, where the earlier squares leave
    each cell of the last column the fewest symbols; first-hit, capped and
    randomized."""
    for word in range(32):
        _agrees_with_oracle(SearchSpec(4, 3, _word_target(4, 3, word)))
        _agrees_with_oracle(SearchSpec(4, 3, _word_target(4, 3, word), max_nodes=100))
    for word in (0, 32, 40, 85, 200, 511):
        _agrees_with_oracle(SearchSpec(5, 4, _word_target(5, 4, word), max_nodes=6000))
    _agrees_with_oracle(SearchSpec(5, 4, tau_parity(linear_mols(4)), mode="randomized", seed=3))
    _agrees_with_oracle(SearchSpec(6, 5, tau_parity(linear_mols(5))))  # found at 465 687
    for word in (0, 1):
        _agrees_with_oracle(SearchSpec(6, 5, _word_target(6, 5, word), max_nodes=200000))


def test_fold_caps_around_the_remainder():
    """Caps on either side of the node after which the top column's walk
    adds the nodes of its unwalked first rows, and of the full count."""
    for spec, full_caps in [
        (SearchSpec(3, 4, "011", mode="exhaustive"), True),
        (SearchSpec(4, 3, _word_target(4, 3, 0), mode="exhaustive"), True),
        (SearchSpec(5, 4, _word_target(5, 4, 32)), True),
        (SearchSpec(4, 4, _word_target(4, 4, 1), mode="exhaustive"), False),
    ]:
        out = find_oa_with_parity(spec)
        assert out.found is None and out.certified_exhausted == (spec.mode == "exhaustive")
        point = _fold_point(spec.n, out.nodes)
        caps = [point - 1, point, point + 1]
        if full_caps:
            caps += [out.nodes - 1, out.nodes]
        for cap in caps:
            _agrees_with_oracle(replace(spec, max_nodes=cap))


def test_exhaustive_k4n5_certifies_the_8_state_class():
    """Words 0 and 7 lie in the 8-state class of (k = 4, n = 1 mod 4), which
    no OA(4, 5) realises; word 1 lies in the 24-state class, and exhaustive
    mode finds it where first-hit mode does."""
    for word in (0, 7):
        out = find_oa_with_parity(SearchSpec(4, 5, _word_target(4, 5, word), mode="exhaustive"))
        assert out.found is None and out.certified_exhausted, word
    target = _word_target(4, 5, 1)
    out = find_oa_with_parity(SearchSpec(4, 5, target, mode="exhaustive"))
    assert (out.nodes, out.certified_exhausted) == (_K4N5_FOUND_NODES[1], False)
    assert tau_parity(out.found) == target
