import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from oaparity.classes import (
    act_permute,
    act_swap,
    class_of_oa,
    enumerate_classes,
    orbit,
    _class_labels,
    _class_sizes_by_label,
    _class_sizes_by_orbit,
    _distinct,
    _quotient,
)
from oaparity.core import OAError, ResourceLimitError, cyclic_square, mols_to_oa
from oaparity.parity import (
    StandardSigma,
    check_plausible,
    sigma_from_tau,
    standardise,
    tau_from_sigma,
    tau_parity,
)
from oaparity.constructions import block_sigma, linear_mols, lower_triangular_sigma

from conftest import zn_linear_oa
from oracle import (
    WordSpace,
    class_labels_by_fixpoint,
    class_sizes_by_bfs,
    class_sizes_by_fixpoint,
    orbit_by_actions,
    orbit_by_bfs,
    orbit_by_words,
    word_generators,
)

# class counts and distinct sizes for k = 3..7; multiplicities were frozen
# from the first verified enumeration run (their sums match the state-space
# sizes and every size divides the group order)
KNOWN_CLASSES = {
    (3, 0): ((1, 1), (3, 1)),
    (3, 1): ((4, 1),),
    (3, 2): ((1, 1), (3, 1)),
    (3, 3): ((4, 1),),
    (4, 0): ((1, 1), (3, 1), (4, 1), (6, 2), (12, 1)),
    (4, 1): ((8, 1), (24, 1)),
    (4, 2): ((8, 1), (12, 2)),
    (4, 3): ((8, 1), (24, 1)),
    (5, 0): ((1, 1), (5, 1), (6, 1), (10, 3), (15, 2), (20, 1), (30, 4), (60, 5)),
    (5, 1): ((16, 1), (96, 1), (160, 1), (240, 1)),
    (5, 2): ((12, 1), (20, 2), (40, 1), (60, 5), (120, 1)),
    (5, 3): ((192, 1), (320, 1)),
    (6, 0): (
        (1, 1), (6, 1), (10, 1), (15, 4), (20, 1), (30, 1), (45, 3), (60, 9),
        (72, 1), (90, 7), (120, 4), (180, 18), (360, 23), (720, 4),
    ),
    (6, 1): ((32, 1), (192, 1), (320, 1), (480, 2), (1440, 1), (1920, 1), (2880, 2), (5760, 1)),
    (6, 2): ((40, 1), (120, 2), (144, 1), (240, 5), (360, 9), (720, 16)),
    (6, 3): ((640, 1), (1920, 2), (2304, 1), (3840, 1), (5760, 1)),
}


def random_state(k, nmod4, rng):
    b = k * (k - 1) // 2 - 1
    return StandardSigma.from_word(k, nmod4, rng.getrandbits(b))


def test_pack_unpack_roundtrip():
    rng = random.Random(21)
    for k in (3, 4, 6, 10):
        for _ in range(20):
            s = random_state(k, 1, rng)
            assert StandardSigma.from_word(k, 1, s.word) == s


def _word_reference(k, nmod4, word):
    """The upper triangle a word packs, pair by pair: (i, j), i < j, in
    lexicographic order without (1, 2), the first pair the top bit."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)][1:]
    up = np.zeros((k + 1, k + 1), dtype=np.uint8)
    for v, pair in enumerate(pairs):
        up[pair] = (word >> (len(pairs) - 1 - v)) & 1
    return StandardSigma.from_upper(k, nmod4, up)


@pytest.mark.parametrize("k", [3, 4, 11, 12, 20, 64])
def test_word_format(k):
    rng = random.Random(k)
    b = k * (k - 1) // 2 - 1
    for nm in range(4):
        for w in [0, (1 << b) - 1, 1 << (b - 1)] + [rng.getrandbits(b) for _ in range(10)]:
            s = StandardSigma.from_word(k, nm, w)
            assert s.word == w
            assert np.array_equal(s.m, _word_reference(k, nm, w).m)
    for w in (-1, 1 << b):
        with pytest.raises(OAError, match="out of range"):
            StandardSigma.from_word(k, 1, w)


def test_state_tau_bijection():
    rng = random.Random(22)
    for _ in range(30):
        s = random_state(5, 3, rng)
        t = tau_from_sigma(s)
        assert check_plausible(t).plausible
        assert sigma_from_tau(t) == s
    # past the 64-bit words of the orbit search
    for nm in range(4):
        s = random_state(12, nm, rng)
        t = tau_from_sigma(s)
        assert check_plausible(t).plausible
        assert sigma_from_tau(t) == s


def test_permute_identity_and_composition():
    rng = random.Random(23)
    k = 6
    idperm = tuple(range(1, k + 1))
    for nm in (0, 1):
        for _ in range(25):
            s = random_state(k, nm, rng)
            assert act_permute(s, idperm) == s
            g = list(idperm)
            h = list(idperm)
            rng.shuffle(g)
            rng.shuffle(h)
            composed = tuple(h[gi - 1] for gi in g)  # h after g
            assert act_permute(act_permute(s, g), h) == act_permute(s, composed)


def test_permuting_relabels_tau():
    # permuting the state matches relabelling the tau coordinates
    rng = random.Random(24)
    k = 5
    for _ in range(20):
        s = random_state(k, 2, rng)
        g = list(range(1, k + 1))
        rng.shuffle(g)
        t = tau_from_sigma(s)
        moved = tau_from_sigma(act_permute(s, g))
        for c, i, j in itertools.permutations(range(1, k + 1), 3):
            if i < j:
                assert moved.get(g[c - 1], g[i - 1], g[j - 1]) == t.get(c, i, j)


def test_zero_state_fixed_by_permutations():
    # for n = 0,1 mod 4 the zero state's full matrix is constant, so every
    # relabelling fixes it (for n = 2,3 the transpose law fills the lower
    # triangle with ones and the zero word is not fixed)
    rng = random.Random(25)
    for k, nm in ((4, 0), (6, 1), (7, 0)):
        z = StandardSigma.from_word(k, nm, 0)
        for _ in range(10):
            g = list(range(1, k + 1))
            rng.shuffle(g)
            assert act_permute(z, g) == z
    assert orbit(StandardSigma.from_word(4, 0, 0)).size == 1


def test_swap_basics():
    rng = random.Random(26)
    k = 6
    s = random_state(k, 1, rng)
    assert act_swap(s, ()) == s
    assert act_swap(s, range(1, k + 1)) == s
    subset = (2, 5)
    complement = tuple(v for v in range(1, k + 1) if v not in subset)
    assert act_swap(s, subset) == act_swap(s, complement)
    # swapping twice at the same set is the identity
    assert act_swap(act_swap(s, subset), subset) == s


def test_swap_flips_tau_across_the_cut():
    rng = random.Random(27)
    s = random_state(5, 3, rng)
    sub = {2, 4}
    t = tau_from_sigma(s)
    swapped = tau_from_sigma(act_swap(s, sub))
    for c, i, j in itertools.permutations(range(1, 6), 3):
        if i < j:
            expect = t.get(c, i, j) ^ (len({i, j} & sub) == 1)
            assert swapped.get(c, i, j) == expect


def test_swap_rejected_for_even_n():
    s = StandardSigma.from_word(4, 0, 3)
    with pytest.raises(OAError):
        act_swap(s, (1,))


def _reference_ops(k, nm):
    """The matrix-level actions of the adjacent transpositions, in
    ``_quotient(k, nm).gens`` order, and for odd n of the singleton swaps."""
    transpositions = []
    for t in range(1, k):
        g = list(range(1, k + 1))
        g[t - 1], g[t] = g[t], g[t - 1]
        transpositions.append(lambda s, g=tuple(g): act_permute(s, g))
    swaps = [lambda s, t=t: act_swap(s, (t,)) for t in range(1, k + 1)] if nm % 2 else []
    return transpositions, swaps


def _assert_packed_maps_match_reference(k, nm, indices):
    # each packed map, applied to all indices at once and to each alone,
    # equals the matrix-level action on the index's least word, packed
    # again; a swap maps each coset to itself
    quotient = _quotient(k, nm)
    transpositions, swaps = _reference_ops(k, nm)
    assert len(quotient.gens) == len(transpositions) == k - 1
    arr = np.array(indices, dtype=quotient.dtype)
    states = [StandardSigma.from_word(k, nm, quotient.word(i)) for i in indices]
    for gen, op in zip(quotient.gens, transpositions):
        images = gen.apply(arr)
        assert images.dtype == quotient.dtype
        for i, s, image in zip(indices, states, images.tolist()):
            one = gen.apply(np.array([i], dtype=quotient.dtype))
            assert quotient.index(op(s).word) == image == int(one[0]) == gen(i)
    for op in swaps:
        for i, s in zip(indices, states):
            assert quotient.index(op(s).word) == i


def test_compiled_generators_match_reference():
    for k in (3, 4, 5):
        for nm in range(4):
            _assert_packed_maps_match_reference(k, nm, range(_quotient(k, nm).size))


@pytest.mark.parametrize("k, nm", [(6, 0), (6, 3), (7, 1), (7, 2), (8, 2), (8, 1), (9, 0),
                                   (9, 3), (10, 0), (10, 3), (11, 2), (11, 1)])
def test_compiled_generators_match_reference_sampled(k, nm):
    # beyond one 16-bit table the lookups split an index into slices; even
    # k = 11 packs 54 bits, so a signed or narrow slice would show in the
    # top bits
    rng = random.Random(1000 * k + nm)
    quotient = _quotient(k, nm)
    width = quotient.size.bit_length() - 1
    indices = [0, quotient.size - 1, 1 << (width - 1)] + [rng.getrandbits(width) for _ in range(197)]
    _assert_packed_maps_match_reference(k, nm, indices)


def test_orbit_k3_odd_always_4():
    for word in range(4):
        assert orbit(StandardSigma.from_word(3, 1, word)).size == 4


def test_orbit_standardises_its_input():
    # a sigma and its complement determine one tau, so one class
    for s in (block_sigma(7), lower_triangular_sigma(5, 3)):
        for bit, m in enumerate((s, s.complement())):
            assert not isinstance(m, StandardSigma) and m.m[1, 2] == bit
            assert orbit(m) == orbit(standardise(m))


def test_orbit_divisibility():
    rng = random.Random(28)
    for k, nm in ((5, 0), (5, 1), (6, 2), (6, 3)):
        bound = math.factorial(k) * (1 << (k - 1) if nm % 2 else 1)
        for _ in range(5):
            s = random_state(k, nm, rng)
            summ = orbit(s)
            assert bound % summ.size == 0
            # the canonical representative lies in the orbit and is minimal
            assert summ.canonical.word <= s.word


def test_known_class_tables():
    for (k, nm), entries in KNOWN_CLASSES.items():
        table = enumerate_classes(k, nm)
        assert table.entries == entries
        assert table.total_states == 1 << (k * (k - 1) // 2 - 1)
        assert sum(size * count for size, count in table.entries) == table.total_states


def test_enumerate_rejects_large_k():
    with pytest.raises(OAError):
        enumerate_classes(9, 0)
    # nor does it take n mod 4 outside 0..3 for the residue it names
    for nm in (5, -3):
        with pytest.raises(OAError, match="nmod4 must be 0, 1, 2 or 3"):
            enumerate_classes(4, nm)


@pytest.mark.parametrize("k, nm", [(7.0, 0), (5, 1.0), (True, 0), (5, True), ("5", 0)])
def test_enumerate_rejects_non_integer_arguments(k, nm):
    with pytest.raises(OAError, match="must be an integer"):
        enumerate_classes(k, nm)


def test_enumerate_budget(monkeypatch, capsys):
    from oaparity import cli

    monkeypatch.setenv("OAPARITY_ORBIT_BUDGET_MB", "0")
    for nm in (0, 3):
        with pytest.raises(ResourceLimitError, match="memory budget"):
            enumerate_classes(7, nm)
        assert cli.main(["enumerate", "--k", "7", "--nmod4", str(nm)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "OAPARITY_ORBIT_BUDGET_MB" in err
    # the even k = 8 search's visited bitmap is 2^27 bytes, refused before
    # it is allocated
    monkeypatch.setenv("OAPARITY_ORBIT_BUDGET_MB", "127")
    with pytest.raises(ResourceLimitError, match="memory budget"):
        enumerate_classes(8, 0)
    # the odd k = 8 census labels 2^20 cosets and the even k = 7 one 2^20
    # words: 4 MiB of uint32 labels and, per block of 2^16 indices, two intp
    # image arrays and a uint32 gather buffer, 1.25 MiB; the census holds
    # nothing else of their size
    labels, buffers = 4 << 20, (2 * 8 + 4) << 16
    for k, nm, classes in ((8, 1, 131), (7, 0, 522)):
        monkeypatch.setenv("OAPARITY_ORBIT_BUDGET_MB", "5")
        with pytest.raises(ResourceLimitError, match="MiB of labels"):
            enumerate_classes(k, nm)
        monkeypatch.setenv("OAPARITY_ORBIT_BUDGET_MB", "6")
        _quotient(k, nm)  # built and cached before tracing
        tracemalloc.start()
        try:
            table = enumerate_classes(k, nm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.total_classes == classes
        assert labels + buffers <= peak < labels + buffers + (64 << 10) < 6 << 20


@pytest.mark.parametrize("nm", [0, 2])
def test_even_k8_census_budget_counts_the_level_images(monkeypatch, nm):
    # at the 128 MiB of the bitmap, below it plus an orbit's last step: the
    # 8 image sets of at most 7! uint32 words of O_7, their distinct copy
    # and O_7 itself
    monkeypatch.setenv("OAPARITY_ORBIT_BUDGET_MB", "128")
    assert 1 << 27 <= 128 << 20 < (1 << 27) + (2 * 8 + 1) * math.factorial(7) * 4
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="MiB of images"):
            enumerate_classes(8, nm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # refused before the bitmap is allocated
    assert peak < 1 << 20


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_one_pass_sizes_match_per_class_bfs(k):
    # both list the class sizes ordered by the classes' least words; the
    # search walks every word with every generator
    for nm in range(4):
        by_label = _class_sizes_by_label(_quotient(k, nm), 1 << 30)
        by_bfs = class_sizes_by_bfs(WordSpace(k, nm))
        assert by_label.tolist() == by_bfs.tolist()


def _census_by_orbit_matches_labels(k, nms):
    for nm in nms:
        quotient = _quotient(k, nm)
        assert _class_sizes_by_orbit(quotient, 1 << 30).tolist() == \
            _class_sizes_by_label(quotient, 1 << 30).tolist()


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_bitmap_census_matches_labels_for_even_n(k):
    # the census that even k = 8 needs, one chain orbit per class on a
    # visited bitmap, lists the sizes that labelling gives, in order
    _census_by_orbit_matches_labels(k, (0, 2))


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_bitmap_census_matches_labels_for_odd_n(k):
    # on the cosets of the swaps the bitmap holds packed indices and each
    # orbit counts its cosets' words, as the odd k = 9 walk will need
    _census_by_orbit_matches_labels(k, (1, 3))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_coset_census_matches_word_labels(k):
    # labelling cosets through the chain of transpositions gives the sizes,
    # in order, of labelling every word with all 2k - 1 generators
    for nm in range(4):
        cosets = _class_sizes_by_label(_quotient(k, nm), 1 << 30)
        words = class_sizes_by_fixpoint(WordSpace(k, nm))
        assert cosets.tolist() == words.tolist()


@pytest.mark.parametrize("k, nm", [(k, nm) for k in range(3, 8) for nm in range(4)]
                         + [(8, 1), (8, 3)])
def test_chain_labels_match_fixpoint_labels(k, nm):
    # the same labels, element by element, as lowering each label to its
    # images' until nothing changes
    assert np.array_equal(_class_labels(_quotient(k, nm), 1 << 30),
                          class_labels_by_fixpoint(WordSpace(k, nm, cosets=True)))


@pytest.mark.parametrize("k, nm", [(k, nm) for k in (4, 5, 6) for nm in range(4)])
def test_chain_labels_cross_block_boundaries(monkeypatch, k, nm):
    # blocks of 16 indices put most images in another block than their
    # input's, some in blocks already lowered at the same step
    monkeypatch.setattr("oaparity.classes._LABEL_BLOCK", 1 << 4)
    assert np.array_equal(_class_labels(_quotient(k, nm), 1 << 30),
                          class_labels_by_fixpoint(WordSpace(k, nm, cosets=True)))


@pytest.mark.parametrize("k, nm", [(k, nm) for k in (5, 6, 7, 8) for nm in range(4)
                                   if k < 8 or nm % 2])
def test_class_labels_are_orbit_canonical_words(k, nm):
    rng = random.Random(40 * k + nm)
    quotient = _quotient(k, nm)
    labels = _class_labels(quotient, 1 << 30)
    top = (1 << quotient.bits) - 1
    for word in [0, top] + [rng.getrandbits(quotient.bits) for _ in range(3)]:
        summ = orbit(StandardSigma.from_word(k, nm, word))
        root = labels[quotient.index(word)]
        assert quotient.word(int(root)) == summ.canonical.word
        assert np.count_nonzero(labels == root) * quotient.coset_size == summ.size


@pytest.mark.parametrize("k", range(3, 12))
def test_swaps_span_a_space_the_transpositions_keep(k):
    # the word maps are the oracle's, read off act_permute and act_swap
    # state by state, not the quotient's batched reading
    b = k * (k - 1) // 2 - 1
    rng = random.Random(60 + k)
    for nm in (1, 3):
        gens = word_generators(k, nm)
        transpositions, swaps = gens[:k - 1], gens[k - 1:]
        # each swap is a translation x -> x ^ c_t
        for swap in swaps:
            assert swap.cols == [1 << v for v in range(b)]
        quotient = _quotient(k, nm)
        assert len(quotient.basis) == k - 1
        assert quotient.coset_size * quotient.size == 1 << b
        # reduced echelon: each pivot is its vector's top bit, clear in the
        # others, and the basis spans exactly the swap constants
        for pivot, vector in quotient.basis:
            assert vector.bit_length() - 1 == pivot
            assert all(other >> pivot & 1 == 0 for p, other in quotient.basis if p != pivot)
        assert all(quotient.least(swap.const) == 0 for swap in swaps)
        # each transposition is affine on words, x -> L x ^ g(0), and L maps
        # V into V
        for word_map in transpositions:
            for _, v in quotient.basis:
                image = 0
                for bit, col in enumerate(word_map.cols):
                    if v >> bit & 1:
                        image ^= col
                assert quotient.least(image) == 0
        # packed indices number the cosets in the order of their least words
        words = [rng.getrandbits(b) for _ in range(20)]
        for w in words:
            assert quotient.word(quotient.index(w)) == quotient.least(w)
            assert quotient.index(quotient.word(quotient.index(w))) == quotient.index(w)
            assert quotient.index(w) < quotient.size
        by_least = sorted(words, key=quotient.least)
        assert [quotient.index(w) for w in by_least] == sorted(map(quotient.index, words))


def test_class_of_small_arrays():
    assert class_of_oa(mols_to_oa([cyclic_square(2)])).size == 1
    assert class_of_oa(zn_linear_oa(3)).size == 8
    # OA(8,7): size found by search, divides 8! * 2^7
    summ = class_of_oa(zn_linear_oa(7))
    assert summ.size == 15360
    assert (math.factorial(8) * 128) % summ.size == 0


def test_zero_state_orbit_k10():
    # swaps alone reach 2^(k-1) states from the zero vector
    assert orbit(StandardSigma.from_word(10, 1, 0)).size == 512


def test_orbit_budget_raises(monkeypatch):
    from oaparity.core import ResourceLimitError

    monkeypatch.setenv("OAPARITY_ORBIT_BUDGET_MB", "0")
    big = sigma_from_tau(tau_parity(linear_mols(9)))
    with pytest.raises(ResourceLimitError):
        orbit(big)


def test_orbit_budget_counts_the_level_images(monkeypatch):
    # an even-n k = 9 class of 9! words keeps 2.8 MiB of them, but at 5 MiB
    # the orbit is refused at its last step, whose 9 image sets of the 8!
    # words of O_8, with their distinct copy and O_8, do not fit (all steps
    # before it fit)
    s = random_state(9, 0, random.Random(90))
    assert orbit(s).size == math.factorial(9)
    monkeypatch.setenv("OAPARITY_ORBIT_BUDGET_MB", "5")
    assert math.factorial(9) * 8 < 5 << 20
    with pytest.raises(ResourceLimitError, match="images"):
        orbit(s)


def test_odd_orbit_budget(monkeypatch):
    # an odd-n k = 9 class of 181 440 cosets of 2^8 states: its 28-bit
    # packed indices take 0.7 MiB, and the last step's 9 image sets of the
    # at least 20 160 cosets of O_8, with their distinct copy and O_8, more
    # than 1 MiB
    s = random_state(9, 1, random.Random(91))
    assert orbit(s).size == 181440 << 8
    monkeypatch.setenv("OAPARITY_ORBIT_BUDGET_MB", "1")
    with pytest.raises(ResourceLimitError, match="memory budget"):
        orbit(s)


def test_orbit_budget_must_be_a_whole_number(monkeypatch, tmp_path, capsys):
    from oaparity import cli
    from oaparity.core import UsageError
    from oaparity.fileio import format_oa

    monkeypatch.setenv("OAPARITY_ORBIT_BUDGET_MB", "1.5")
    big = sigma_from_tau(tau_parity(linear_mols(8)))
    with pytest.raises(UsageError, match="OAPARITY_ORBIT_BUDGET_MB"):
        orbit(big)
    path = tmp_path / "d8.oa"
    path.write_text(format_oa(linear_mols(8)))
    assert cli.main(["class", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "OAPARITY_ORBIT_BUDGET_MB" in err


def test_orbit_rejects_overwide_words():
    # packed indices must fit 64 bits: the 65-bit words of even k = 12 do
    # not, nor odd k = 13's cosets, 77-bit words less 12 pivot bits
    with pytest.raises(OAError, match="needs 65 bits"):
        orbit(StandardSigma.from_word(12, 0, 0))
    with pytest.raises(OAError, match="needs 65 bits"):
        orbit(StandardSigma.from_word(13, 1, 0))
    # the width is checked before the quotient is built, so k = 90 (the
    # sigma of a plane of order 89) is refused at once
    built = _quotient.cache_info().currsize
    for nm, width in ((0, 4004), (1, 3915)):
        with pytest.raises(OAError, match=f"needs {width} bits"):
            orbit(StandardSigma.from_word(90, nm, 0))
    assert _quotient.cache_info().currsize == built


def test_orbit_of_the_q11_plane():
    # odd k = 12 packs its cosets into 54 bits (65-bit words less 11 pivot
    # bits); the class of the order-11 plane is 9! cosets, 12! * 2^11 / 1320
    # states, so its stabiliser has order 1320
    summ = class_of_oa(linear_mols(11))
    assert summ.size == math.factorial(12) * 2 ** 11 // 1320 == 743_178_240
    assert orbit(summ.canonical) == summ


def test_orbit_of_each_small_word_matches_enumeration():
    # spot-check: orbit() agrees with the partition from enumerate_classes
    table = enumerate_classes(4, 3)
    by_canonical = {}
    for word in range(32):
        summ = orbit(StandardSigma.from_word(4, 3, word))
        by_canonical.setdefault(summ.canonical.word, summ.size)
    expected = [size for size, count in table.entries for _ in range(count)]
    assert sorted(by_canonical.values()) == expected


def _assert_orbit_matches_oracle(k, nm, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        s = random_state(k, nm, rng)
        size, canonical = orbit_by_actions(s)
        summ = orbit(s)
        assert (summ.size, summ.canonical.word) == (size, canonical)


def _class_members(k, nm, rng):
    """The least word and a random word of every class for k <= 6, and of
    the two smallest classes and every class of one coset for larger k, for
    a quotient the census labels in one pass."""
    quotient = _quotient(k, nm)
    labels = _class_labels(quotient, 1 << 30)
    counts = np.bincount(labels, minlength=quotient.size)
    roots = np.flatnonzero(counts)
    if k > 6:
        small = roots[np.argsort(counts[roots], kind="stable")[:2]]
        roots = np.union1d(small, np.flatnonzero(counts == 1) if quotient.basis else small)
    words = []
    for root in roots.tolist():
        index = rng.choice(np.flatnonzero(labels == root).tolist())
        least, word = quotient.word(root), quotient.word(index)
        for _, vector in quotient.basis:
            word ^= vector * rng.getrandbits(1)
        words += [least, word]
    return words


@pytest.mark.parametrize("k, nm", [(k, nm) for k in range(3, 9) for nm in range(4)])
def test_chain_orbit_matches_word_bfs(k, nm):
    # random states, whose orbits grow at every step of the chain, and
    # members of small classes and of one-coset classes, whose orbits stop
    # growing early (the skipped steps); from the least words of some
    # even-n classes s_j maps most, but not all, of O_j into O_j
    rng = random.Random(500 * k + nm)
    b = k * (k - 1) // 2 - 1
    words = [rng.getrandbits(b) for _ in range(1 if (k, nm % 2) == (8, 1) else 3)]
    if k < 8 or nm % 2:
        words += _class_members(k, nm, rng)
    else:
        words += [0, (1 << b) - 1]
    for word in words:
        s = StandardSigma.from_word(k, nm, word)
        summ = orbit(s)
        assert (summ.size, summ.canonical.word) == orbit_by_words(s)


@pytest.mark.parametrize("nm", range(4))
def test_chain_orbit_matches_coset_bfs_k9(nm):
    # a random k = 9 state, against a breadth-first search of the quotient
    # with every transposition at each level (9! elements at most)
    s = random_state(9, nm, random.Random(900 + nm))
    space = WordSpace(9, nm, cosets=True)
    elements, least = orbit_by_bfs(s.word, space)
    summ = orbit(s)
    assert (summ.size, summ.canonical.word) == (elements * space.coset_size, least)


@pytest.mark.parametrize("k, nm", [(k, nm) for k in (5, 6, 7, 8) for nm in (1, 3)])
def test_coset_orbit_matches_word_bfs(k, nm):
    rng = random.Random(300 * k + nm)
    for _ in range(3 if k < 8 else 1):
        s = random_state(k, nm, rng)
        summ = orbit(s)
        assert (summ.size, summ.canonical.word) == orbit_by_words(s)


@pytest.mark.parametrize("k, nm", [(k, nm) for k in (4, 5, 6) for nm in range(4)]
                         + [(7, 0), (7, 2)])
def test_orbit_matches_action_oracle(k, nm):
    _assert_orbit_matches_oracle(k, nm, 3 if k <= 5 else 1, seed=100 * k + nm)


@pytest.mark.slow
@pytest.mark.parametrize("nm", [1, 3])
def test_orbit_matches_action_oracle_k7_odd(nm):
    # orbits of up to 7! * 2^6 states; the oracle's matrix-level actions
    # take about a minute for the largest
    _assert_orbit_matches_oracle(7, nm, 1, seed=700 + nm)


@pytest.mark.parametrize("words", [
    [],
    [5],
    [2**64 - 1],
    [3, 3, 3, 3],
    [7, 1, 7, 1, 2**63, 0, 2**63, 7],
], ids=["empty", "one", "top", "all-equal", "mixed"])
def test_distinct_matches_unique(words):
    arr = np.array(words, dtype=np.uint64)
    assert _distinct(arr.copy()).tolist() == np.unique(arr).tolist()


def test_distinct_matches_unique_on_duplicate_heavy_words():
    rng = np.random.default_rng(31)
    for hi in (1, 2, 50, 2**64 - 1):
        arr = rng.integers(0, hi, size=5000, dtype=np.uint64, endpoint=True)
        out = _distinct(arr.copy())
        assert out.dtype == np.uint64
        assert np.array_equal(out, np.unique(arr))
