"""Switching classes of plausible parity vectors.

A standardised sigma-parity on k columns is C(k,2)-1 free bits (the (1,2)
entry is pinned to zero), and these states are in bijection with the
plausible tau vectors.  Two operations act on them:

* permuting: relabel columns by some permutation of 1..k, then re-standardise
  (complement everything if the new (1,2) entry came out 1 -- complementation
  does not change the underlying tau vector);
* swapping at a vertex subset C (odd n only): flip every bit whose pair has
  exactly one endpoint in C, then re-standardise.  Swapping at C equals
  swapping at the complement of C, so singleton swaps generate everything.

Orbits of the group generated by these operations are the switching classes;
their sizes divide k! for even n and k! * 2^(k-1) for odd n.

A state is a ``StandardSigma``; the search packs each into its ``word``,
whose numeric order is lexicographic order on bit vectors (stable canonical
representatives).

Each generator is compiled to a few (shift, mask) groups: an adjacent
transposition moves the bits of the pairs it relabels by one of a handful of
constant distances, and a swap at {t} moves no bit, so it is x -> x ^ c_t
for a constant c_t.

For odd n the searches run on a quotient.  The k swap constants span a
space V of dimension k - 1, and every column relabelling maps V onto
itself, so each class is a union of cosets x ^ V of 2^(k-1) states each.
Take a reduced echelon basis of V, each vector's pivot its top bit; a
coset's least word is any member with its pivot bits cleared.  The searches
visit these least words, moved by the k - 1 adjacent transpositions with
every image reduced, and multiply class sizes by 2^(k-1); a class's least
word is its least coset minimum.  For even n the quotient is the words
themselves and its generators are the same transpositions.

Every search builds S_k's orbits through the chain S_1 < S_2 < ... < S_k,
S_j permuting columns 1..j, generated by s_1..s_(j-1), where s_t swaps
columns t and t + 1.  The identity and the products s_j, s_(j-1) s_j,
..., s_1 ... s_j represent the cosets of S_j in S_(j+1) (Sims
1970; Butler, "Fundamental Algorithms for Permutation Groups", LNCS 559,
1991).

A single orbit grows O_1 = {x} to O_(j+1), the union of O_j and its images
under these representatives: each image set is one generator applied to
the previous one, and one sort drops the repeats.  When s_j maps O_j into
itself, O_j is already an orbit of S_(j+1) and the step is skipped.

Full enumeration of a quotient of at most 2^20 elements (k <= 7, and k = 8
for odd n) labels every element at once, indexed by its least word with the
pivot bits dropped.  The labels m_1 are the indices themselves; m_j, the
least index of each element's S_j-orbit, gives m_(j+1) as the least of m_j
and m_j o s_j o ... o s_i over i, one gather through a generator's image
array per factor, k(k-1)/2 gathers in all.  Every class is then labelled by
its least word, the canonical representative, and the class sizes are label
counts times the coset size.  The even k = 8 space (2^27 words) is walked one
class at a time, each class one orbit on a visited bitmap, which holds far
less than the labels and the generators' images would.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import OAError, OrthogonalArray, ResourceLimitError, UsageError
from .parity import (
    SigmaMatrix,
    StandardSigma,
    binom2_bit,
    free_pairs,
    sigma_parity,
    standardise,
)

# largest quotient enumerate_classes labels in one pass (k <= 7, and k = 8
# for odd n); over the 2^27 words of the even k = 8 space the labels take
# more time and memory than a search per class
_LABEL_LIMIT = 1 << 20
_DEFAULT_BUDGET_MB = 2048
_BUDGET_ENV = "OAPARITY_ORBIT_BUDGET_MB"


def _bit_positions(k: int) -> dict[tuple[int, int], int]:
    """The bit of each free pair in ``StandardSigma.word``."""
    rows, cols = free_pairs(k)
    b = len(rows)
    return {pair: b - 1 - v for v, pair in enumerate(zip(rows.tolist(), cols.tolist()))}


# perfbench/wl_space.py builds orbit states under the old name of the packed
# state type, and the benchmark is changed on its own
ParityState = StandardSigma.from_word


# ---------------------------------------------------------------------------
# the two operations (reference implementations on the sigma matrix)


def act_permute(s: StandardSigma, g) -> StandardSigma:
    """Relabel columns by g (1-based images) and re-standardise.

    Satisfies act(act(s, g), h) = act(s, h o g).
    """
    g = tuple(g)
    if sorted(g) != list(range(1, s.k + 1)):
        raise OAError("g must be a permutation of 1..k")
    ginv = np.zeros(s.k + 1, dtype=np.int64)
    ginv[list(g)] = np.arange(1, s.k + 1)
    return standardise(SigmaMatrix(s.k, s.nmod4, s.m[np.ix_(ginv, ginv)], n=s.n))


def act_swap(s: StandardSigma, cset) -> StandardSigma:
    """Flip bits with exactly one endpoint in cset; odd n only."""
    if s.nmod4 % 2 == 0:
        raise OAError("swap undefined for even n")
    members = set(cset)
    if not members <= set(range(1, s.k + 1)):
        raise OAError("swap set must be a subset of 1..k")
    chi = np.zeros(s.k + 1, dtype=np.uint8)
    chi[list(members)] = 1
    # the constructor drops what the flip puts in the unused row/column 0
    m = s.m ^ chi[:, None] ^ chi[None, :]
    return standardise(SigmaMatrix(s.k, s.nmod4, m, n=s.n))


# ---------------------------------------------------------------------------
# compiled generators and the quotient the searches walk


@dataclass(frozen=True)
class _Generator:
    """One group generator (or a bare bit rearrangement) on packed states.

    out = the bits of each ``moves`` mask shifted by its shift (left when
    positive), ^ xmask, then complemented when bit d_src of the input (the
    relabelled (1,2) entry) is 1.
    """

    moves: tuple  # ((shift, mask), ...), masks disjoint and in source positions
    xmask: int
    d_src: int  # -1 when the relabelled (1,2) entry is constant (folded into xmask)
    full: int

    def apply(self, words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The images of ``words``, in their unsigned dtype (uint32 suffices
        for k <= 8)."""
        word = words.dtype.type
        if out is None:
            out = np.empty_like(words)
        out.fill(self.xmask)
        part = np.empty_like(words)
        # destination bits of different groups are disjoint, so ^ acts as |
        for shift, mask in self.moves:
            np.bitwise_and(words, word(mask), out=part)
            if shift > 0:
                np.left_shift(part, word(shift), out=part)
            elif shift < 0:
                np.right_shift(part, word(-shift), out=part)
            out ^= part
        if self.d_src >= 0:
            np.right_shift(words, word(self.d_src), out=part)
            part &= word(1)
            part *= word(self.full)
            out ^= part
        return out


def _shift_groups(pairs) -> tuple:
    """Group (src, dst) bit moves by dst - src into (shift, mask) entries."""
    groups: dict[int, int] = {}
    for src, dst in pairs:
        groups[dst - src] = groups.get(dst - src, 0) | (1 << src)
    return tuple(sorted(groups.items()))


def _compile(k: int, nmod4: int, g: tuple, t: int = 0) -> _Generator:
    """Relabel columns by g, swap at {t} (no swap for t = 0), re-standardise."""
    kk = binom2_bit(nmod4)
    pos = _bit_positions(k)
    full = (1 << len(pos)) - 1
    ginv = [0] * (k + 1)
    for i, gi in enumerate(g, start=1):
        ginv[gi] = i

    def source(a, b):
        s1, s2 = ginv[a], ginv[b]
        const = int((a == t) != (b == t))
        if s1 > s2:
            s1, s2 = s2, s1
            const ^= kk
        if (s1, s2) == (1, 2):
            return None, const
        return pos[(s1, s2)], const

    xmask = 0
    pairs = []
    for (a, b), dst in pos.items():
        src, const = source(a, b)
        if const:
            xmask |= 1 << dst
        if src is not None:
            pairs.append((src, dst))
    d_src, d_const = source(1, 2)
    if d_const:  # the new (1,2) entry is 1 whatever the input: complement
        xmask ^= full
    return _Generator(
        moves=_shift_groups(pairs),
        xmask=xmask,
        d_src=-1 if d_src is None else d_src,
        full=full,
    )


def _rearrangement(pairs) -> _Generator:
    """The bit rearrangement moving each (src, dst) pair's bit, and no other."""
    return _Generator(moves=_shift_groups(pairs), xmask=0, d_src=-1, full=0)


def _echelon(vectors) -> tuple:
    """Reduced echelon basis of the span of ``vectors``, as (pivot, vector)
    pairs with the highest pivot first: each pivot is its vector's top bit
    and is clear in every other vector."""
    rows: dict[int, int] = {}
    for v in vectors:
        for pivot, row in rows.items():
            if v >> pivot & 1:
                v ^= row
        if v:
            top = v.bit_length() - 1
            for pivot, row in rows.items():
                if row >> top & 1:
                    rows[pivot] = row ^ v
            rows[top] = v
    return tuple(sorted(rows.items(), reverse=True))


@dataclass(frozen=True)
class _Quotient:
    """The elements the class searches walk for one (k, n mod 4), and their moves.

    For odd n an element is a coset x ^ V of the span V of the swap
    constants, held as its least word; for even n ``basis`` is empty and an
    element is a word.  ``gens`` are the compiled adjacent transpositions,
    which map cosets to cosets; ``basis`` is V's reduced echelon basis.
    """

    k: int
    gens: tuple
    basis: tuple  # ((pivot, vector), ...), see _echelon
    bits: int  # word width, C(k,2) - 1

    @property
    def coset_size(self) -> int:
        return 1 << len(self.basis)

    @property
    def size(self) -> int:
        """The number of elements (cosets for odd n, words for even n)."""
        return 1 << (self.bits - len(self.basis))

    @property
    def dtype(self) -> np.dtype:
        """The narrowest unsigned integer type that holds a word."""
        return np.dtype(np.uint32 if self.bits <= 32 else np.uint64)

    def least(self, word: int) -> int:
        """The least word of ``word``'s coset: its pivot bits cleared."""
        for pivot, vector in self.basis:
            if word >> pivot & 1:
                word ^= vector
        return word

    def reduce(self, words: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """``least`` of every word, in place; ``scratch`` is as large as
        ``words``."""
        word = words.dtype.type
        for pivot, vector in self.basis:
            np.right_shift(words, word(pivot), out=scratch)
            scratch &= word(1)
            scratch *= word(vector)
            words ^= scratch
        return words

    def packing(self) -> tuple[_Generator, _Generator]:
        """Rearrangements from least words to the indices 0..size-1 and
        back: the pivot bits are dropped and the bits above each pivot move
        down.  Packing keeps the order of least words."""
        pivots = {pivot for pivot, _ in self.basis}
        free = [v for v in range(self.bits) if v not in pivots]
        return (_rearrangement((src, dst) for dst, src in enumerate(free)),
                _rearrangement((dst, src) for dst, src in enumerate(free)))


@cache
def _quotient(k: int, nmod4: int) -> _Quotient:
    identity = tuple(range(1, k + 1))
    gens = []
    for t in range(1, k):
        g = list(identity)
        g[t - 1], g[t] = g[t], g[t - 1]
        gens.append(_compile(k, nmod4, tuple(g)))
    basis = ()
    if nmod4 % 2 == 1:
        # a swap at {t} moves no bit and reads no (1,2) entry: x -> x ^ xmask
        basis = _echelon(_compile(k, nmod4, identity, t).xmask for t in range(1, k + 1))
    return _Quotient(k=k, gens=tuple(gens), basis=basis, bits=k * (k - 1) // 2 - 1)


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class OrbitSummary:
    size: int
    canonical: StandardSigma


def _orbit_bound(k: int, nmod4: int) -> int:
    bound = math.factorial(k)
    if nmod4 % 2 == 1:
        bound *= 1 << (k - 1)
    return bound


def _budget_bytes() -> int:
    raw = os.environ.get(_BUDGET_ENV, str(_DEFAULT_BUDGET_MB))
    if not raw.strip().isdecimal():
        raise UsageError(f"{_BUDGET_ENV} must be a whole number of MiB, got {raw!r}")
    return int(raw) << 20


def _distinct(words: np.ndarray) -> np.ndarray:
    """Sort ``words`` in place and return its distinct entries, ascending.

    Sorting and dropping entries equal to their left neighbour is much
    faster than np.unique, which dedups uint64 through a hash table.
    """
    words.sort()
    keep = np.empty(words.size, dtype=bool)
    keep[:1] = True
    np.not_equal(words[1:], words[:-1], out=keep[1:])
    return words[keep]


def _check_budget(nbytes: int, budget: int, what: str = "orbit") -> None:
    if nbytes > budget:
        raise ResourceLimitError(
            f"{what} exceeded the memory budget ({budget >> 20} MiB); "
            f"raise it via {_BUDGET_ENV}"
        )


def _step_bytes(j: int, size: int, itemsize: int) -> int:
    """Memory of an orbit step from ``size`` elements of O_j: the (j+1)
    image sets, their distinct copy and O_j itself."""
    return (2 * (j + 1) + 1) * size * itemsize


def _chain_orbit(seed: int, quotient: _Quotient, budget: int) -> np.ndarray:
    """The orbit of ``seed``, sorted, grown through S_1 < S_2 < ... < S_k.

    Step j puts O_j and its images under s_j, s_(j-1) s_j, ..., s_1 ... s_j
    in one array, each image set one generator applied to the previous set,
    and keeps the distinct entries; it is skipped when s_j maps O_j into
    itself.  The budget is checked before each step allocates its arrays.
    """
    orbit = np.array([seed], dtype=quotient.dtype)
    for j in range(1, quotient.k):
        n = orbit.size
        _check_budget(_step_bytes(j, n, orbit.itemsize), budget,
                      f"orbit step of {(j + 1) * n} images from {n} visited elements")
        scratch = np.empty_like(orbit)
        blocks = np.empty((j + 1, n), dtype=orbit.dtype)
        blocks[0] = orbit
        quotient.reduce(quotient.gens[j - 1].apply(orbit, out=blocks[1]), scratch)
        # s_j permutes the quotient, so s_j O_j within O_j means s_j O_j = O_j
        at = np.minimum(np.searchsorted(orbit, blocks[1]), n - 1)
        if np.array_equal(orbit[at], blocks[1]):
            continue
        for m in range(2, j + 1):  # blocks[m] = s_(j-m+1) ... s_j O_j
            quotient.reduce(quotient.gens[j - m].apply(blocks[m - 1], out=blocks[m]), scratch)
        orbit = _distinct(blocks.reshape(-1))
    return orbit


def orbit(s: StandardSigma) -> OrbitSummary:
    """Size and canonical representative of the switching class of s.

    The class is built as an orbit of S_k through the chain S_1 < ... < S_k
    (see the module docstring), on its cosets for odd n and its words for
    even n; each step must fit the memory budget
    (``OAPARITY_ORBIT_BUDGET_MB``).  The size is checked against the
    divisibility bound (k! for even n, k! * 2^(k-1) for odd n).
    """
    b = s.k * (s.k - 1) // 2 - 1
    if b > 63:
        raise OAError(f"orbit search packs states into 64-bit words (k <= 11, got k={s.k})")
    quotient = _quotient(s.k, s.nmod4)
    cosets = _chain_orbit(quotient.least(s.word), quotient, _budget_bytes())
    size = cosets.size * quotient.coset_size
    bound = _orbit_bound(s.k, s.nmod4)
    if bound % size:
        raise OAError(f"orbit size {size} does not divide the group order {bound}")
    canonical = StandardSigma.from_word(s.k, s.nmod4, int(cosets[0]), n=s.n)
    return OrbitSummary(size=size, canonical=canonical)


def class_of_oa(a: OrthogonalArray) -> OrbitSummary:
    """The switching class of an orthogonal array's parity."""
    return orbit(sigma_parity(a))


# ---------------------------------------------------------------------------
# full enumeration


@dataclass(frozen=True)
class ClassTable:
    """Orbit-size census of the whole plausible-parity space for (k, n mod 4)."""

    k: int
    nmod4: int
    entries: tuple  # ((size, count), ...) ascending by size
    total_classes: int
    total_states: int

    @property
    def sizes(self) -> tuple:
        return tuple(size for size, _ in self.entries)


def _next_unvisited(visited: np.ndarray, start: int, chunk: int = 1 << 16) -> int:
    """First False at or after ``start``; len(visited) when none remains."""
    total = len(visited)
    pos = start
    while pos < total:
        sub = visited[pos:pos + chunk]
        idx = int(np.argmin(sub))
        if not sub[idx]:
            return pos + idx
        pos += len(sub)
    return total


def _class_sizes_by_orbit(quotient: _Quotient, budget: int) -> np.ndarray:
    """Class sizes ordered by least word, one orbit per class marked on a
    visited bitmap of one byte per word; for a quotient of words (even n).

    The budget covers the bitmap and an orbit's largest step, the last, from
    at most (k-1)! words of O_(k-1).
    """
    total = 1 << quotient.bits
    step = _step_bytes(quotient.k - 1, math.factorial(quotient.k - 1), quotient.dtype.itemsize)
    _check_budget(total + step, budget,
                  f"enumeration ({total >> 20} MiB bitmap and {step / 2**20:.2f} MiB of images)")
    visited = np.zeros(total, dtype=bool)
    sizes = []
    seed = _next_unvisited(visited, 0)
    while seed < total:
        orbit = _chain_orbit(seed, quotient, budget - total)
        visited[orbit] = True
        sizes.append(orbit.size)
        seed = _next_unvisited(visited, seed + 1)
    return np.array(sizes, dtype=np.int64)


def _class_labels(quotient: _Quotient, budget: int) -> np.ndarray:
    """The least packed index of each element's class, for every packed
    index (see ``_Quotient.packing``).

    m_1 is the identity; m_(j+1) is the least of m_j and m_j o s_j o ... o
    s_i over i = j..1, each composite one gather of the one before through
    s_i's image array.  The budget covers the generators' uint32 images, the
    labels, two gather buffers, and the unpacked words and the arrays and
    scratch each image is computed through.
    """
    size = quotient.size
    nbytes = (len(quotient.gens) + 5) * 4 * size
    _check_budget(nbytes, budget, f"enumeration ({nbytes >> 20} MiB of labels)")
    pack, unpack = quotient.packing()
    label = np.arange(size, dtype=np.uint32)
    words = unpack.apply(label)
    buf = np.empty_like(label)
    images = [pack.apply(quotient.reduce(g.apply(words), buf)) for g in quotient.gens]
    del words
    composite, spare = buf, np.empty_like(label)
    for j in range(1, quotient.k):
        # m_j o s_j, taken before label is lowered
        np.take(label, images[j - 1], out=composite)
        np.minimum(label, composite, out=label)
        for i in range(j - 1, 0, -1):
            np.take(composite, images[i - 1], out=spare)
            np.minimum(label, spare, out=label)
            composite, spare = spare, composite
    return label


def _class_sizes_by_label(quotient: _Quotient, budget: int) -> np.ndarray:
    """Class sizes ordered by least word, from one labelling pass."""
    counts = np.bincount(_class_labels(quotient, budget), minlength=quotient.size)
    return counts[counts > 0] * quotient.coset_size


def enumerate_classes(k: int, nmod4: int) -> ClassTable:
    """Partition all 2^(C(k,2)-1) states into switching classes, k <= 8.

    A quotient of up to 2^20 elements (k <= 7, and k = 8 for odd n) is
    labelled through the chain S_1 < ... < S_k in k(k-1)/2 gathers, the
    even k = 8 space one orbit per class on a visited bitmap; either way the
    arrays must fit the memory budget (``OAPARITY_ORBIT_BUDGET_MB``).
    """
    for name, value in (("k", k), ("nmod4", nmod4)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise OAError(f"{name} must be an integer, got {value!r}")
    if not 3 <= k <= 8:
        raise OAError(
            f"full enumeration supports 3 <= k <= 8 (got k={k}); "
            "use orbit() for individual states at larger k"
        )
    k, nmod4 = int(k), int(nmod4) % 4
    quotient = _quotient(k, nmod4)
    census = _class_sizes_by_label if quotient.size <= _LABEL_LIMIT else _class_sizes_by_orbit
    sizes, counts = np.unique(census(quotient, _budget_bytes()), return_counts=True)
    bound = _orbit_bound(k, nmod4)
    for size in sizes.tolist():
        if bound % size:
            raise OAError(f"orbit size {size} does not divide the group order {bound}")
    entries = tuple(zip(sizes.tolist(), counts.tolist()))
    total = 1 << quotient.bits
    counted = sum(size * count for size, count in entries)
    if counted != total:
        raise OAError(f"orbit sizes account for {counted} of {total} states")
    return ClassTable(
        k=k,
        nmod4=nmod4,
        entries=entries,
        total_classes=int(counts.sum()),
        total_states=total,
    )
