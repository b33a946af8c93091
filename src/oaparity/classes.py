"""Switching classes of plausible parity vectors.

A standardised sigma-parity on k columns is C(k,2)-1 free bits (the (1,2)
entry is pinned to zero), and these states are in bijection with the
plausible tau vectors.  Two operations act on them, ``parity.act_permute``
and ``parity.act_swap`` (re-exported here), which are also the laws by which
an array's column and symbol relabellings move its stored sigma
(``parity.transform_parity_laws``):

* permuting: relabel columns by some permutation of 1..k, then re-standardise
  (complement everything if the new (1,2) entry came out 1 -- complementation
  does not change the underlying tau vector);
* swapping at a vertex subset C (odd n only): flip every bit whose pair has
  exactly one endpoint in C, then re-standardise.  Swapping at C equals
  swapping at the complement of C, so singleton swaps generate everything.

Orbits of the group generated by these operations are the switching classes;
their sizes divide k! for even n and k! * 2^(k-1) for odd n.  The searches
below run on affine maps read off the switching rule of ``parity``, the one
code behind both operations.

A state is a ``StandardSigma``; the search packs each into its ``word``,
whose numeric order is lexicographic order on bit vectors (stable canonical
representatives).

Every generator is affine over GF(2) on words: an adjacent transposition
moves each pair's bit to the pair it relabels onto, flips it when the
pair's orientation reverses, and complements the word when the new (1,2)
entry is 1; a swap at {t} moves no bit, so it is x -> x ^ c_t for a
constant c_t, its image of the zero word.  So the images of the zero word
and of each unit word fix a generator.

For odd n the searches run on a quotient.  The k swap constants span a
space V of dimension k - 1, and every column relabelling maps V onto
itself, so each class is a union of cosets x ^ V of 2^(k-1) states each.
Take a reduced echelon basis of V, each vector's pivot its top bit; a
coset's least word is the member with its pivot bits cleared, and its
packed index is that word with the pivot bits dropped, which keeps the
order of least words.  For even n V is 0 and a packed index is a word.
Taking least words and dropping pivot bits are linear, so each transposition
acts on packed indices as one affine map, a constant XOR one column per
packed bit.  It is read once per (k, n mod 4) off the switching rule,
applied in one batched call to the least words of 0 and of each unit packed
index.  The searches walk packed
indices with the k - 1 transpositions and multiply class sizes by the coset
size 2^(k-1); a class's least word is its least packed index unpacked.

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
for odd n) labels every packed index at once.  The labels m_1 are the
indices themselves; m_j, the least index of each element's S_j-orbit, gives
m_(j+1) as the least of m_j and m_j o s_j o ... o s_i over i.  Each
composite s_j o ... o s_i is one affine map, k(k-1)/2 in all, and the labels
are gathered through it one aligned block of 2^16 indices at a time: its
images of the first block are filled once by doubling, and every other
block's are those XORed with one constant, so only the uint32 labels are
held at full size.  Every class is then labelled by its least index, the
canonical representative; sorting the labels puts each class in one run,
whose length times the coset size is the class size.  The even k = 8 space
(2^27 words) is walked one class at a time, each class one orbit on a
visited bitmap of packed indices, which holds far less than the labels
would.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .core import OAError, OrthogonalArray, ResourceLimitError, UsageError
from .parity import (  # the two operations live beside standardise; re-exported here
    SigmaMatrix,
    StandardSigma,
    _check_shape,
    _sigmas,
    _switch,
    _words,
    act_permute,
    act_swap,
    sigma_parity,
    standardise,
)

# largest quotient enumerate_classes labels in one pass (k <= 7, and k = 8
# for odd n); over the 2^27 words of the even k = 8 space the labels take
# more time and memory than a search per class
_LABEL_LIMIT = 1 << 20
_DEFAULT_BUDGET_MB = 2048
_BUDGET_ENV = "OAPARITY_ORBIT_BUDGET_MB"
# inputs per pass of _Affine.apply; its index buffers then take 128 KiB
_APPLY_BLOCK = 1 << 14
# packed indices per block of _class_labels, a power of two; its image and
# gather buffers then take 1.25 MiB
_LABEL_BLOCK = 1 << 16


# perfbench/wl_space.py builds orbit states under the old name of the packed
# state type, and the benchmark is changed on its own
ParityState = StandardSigma.from_word


# ---------------------------------------------------------------------------
# affine maps and the quotient the searches walk


@dataclass(frozen=True)
class _Affine:
    """x -> const ^ (the XOR of cols[b] over the set bits b of x): an affine
    map over GF(2) on bit vectors held as integers."""

    const: int
    cols: tuple

    def linear(self, x: int) -> int:
        out = 0
        for col in self.cols:
            if x & 1:
                out ^= col
            x >>= 1
        return out

    def __call__(self, x: int) -> int:
        return self.const ^ self.linear(x)

    def after(self, inner: _Affine) -> _Affine:
        """The composite self o inner (inner applied first)."""
        return _Affine(self(inner.const), tuple(self.linear(col) for col in inner.cols))

    def fill(self, out: np.ndarray) -> np.ndarray:
        """The images of 0 .. len(out) - 1 in ``out``, len(out) a power of
        two at most 2^len(cols), by doubling: the images of [2^b, 2^(b+1))
        are those of [0, 2^b) ^ cols[b]."""
        out[0] = self.const
        for b in range(len(out).bit_length() - 1):
            np.bitwise_xor(out[:1 << b], self.cols[b], out=out[1 << b:2 << b])
        return out

    @cached_property
    def _tables(self) -> tuple:
        """(shift, mask, table) for each of the fewest slices of at most 16
        input bits, the mask None for the top slice; a table holds the
        images of its slice's values, the constant folded into the first."""
        width = len(self.cols)
        count = max(1, -(-width // 16))
        dtype = np.uint32 if width <= 32 else np.uint64
        tables, shift = [], 0
        for c in range(count):
            w = width // count + (c < width % count)
            part = _Affine(self.const if c == 0 else 0, self.cols[shift:shift + w])
            mask = (1 << w) - 1 if c < count - 1 else None
            tables.append((shift, mask, part.fill(np.empty(1 << w, dtype=dtype))))
            shift += w
        return tuple(tables)

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The images of ``x``, a 1-d array of inputs of len(cols) bits, in
        x's dtype (uint32 up to 32 bits, else uint64): one table lookup per
        slice of their bits, XORed together, a block of inputs at a time so
        that the lookup buffers stay in cache."""
        if out is None:
            out = np.empty_like(x)
        index = np.empty(min(x.size, _APPLY_BLOCK), dtype=np.intp)
        spare = np.empty(index.size, dtype=x.dtype)
        for lo in range(0, x.size, _APPLY_BLOCK):
            block, image = x[lo:lo + _APPLY_BLOCK], out[lo:lo + _APPLY_BLOCK]
            at, part = index[:block.size], spare[:block.size]
            for c, (shift, mask, table) in enumerate(self._tables):
                np.right_shift(block, shift, out=at)
                if mask is not None:
                    at &= mask
                # every index is in range; numpy buffers ``out`` unless the
                # mode is "clip" or "wrap"
                if c == 0:
                    table.take(at, out=image, mode="clip")
                else:
                    table.take(at, out=part, mode="clip")
                    image ^= part
        return out


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
    constants, for even n (``basis`` empty) a word.  An element is held as
    its packed index: its least word with V's pivot bits dropped, which
    keeps the order of least words.  ``gens`` are the adjacent
    transpositions as affine maps on packed indices; ``basis`` is V's
    reduced echelon basis.
    """

    k: int
    basis: tuple  # ((pivot, vector), ...), see _echelon
    bits: int  # word width, C(k,2) - 1
    gens: tuple = ()

    @property
    def coset_size(self) -> int:
        return 1 << len(self.basis)

    @property
    def width(self) -> int:
        """The bits of a packed index."""
        return self.bits - len(self.basis)

    @property
    def size(self) -> int:
        """The number of elements (cosets for odd n, words for even n)."""
        return 1 << self.width

    @property
    def dtype(self) -> np.dtype:
        """The narrowest unsigned integer type that holds a packed index."""
        return np.dtype(np.uint32 if self.width <= 32 else np.uint64)

    def least(self, word: int) -> int:
        """The least word of ``word``'s coset: its pivot bits cleared."""
        for pivot, vector in self.basis:
            if word >> pivot & 1:
                word ^= vector
        return word

    def index(self, word: int) -> int:
        """The packed index of ``word``'s element."""
        word = self.least(word)
        for pivot, _ in self.basis:  # highest first, so lower pivots stay put
            word = word >> (pivot + 1) << pivot | word & ((1 << pivot) - 1)
        return word

    def word(self, index: int) -> int:
        """The least word of the element with packed index ``index``."""
        for pivot, _ in reversed(self.basis):
            index = index >> pivot << (pivot + 1) | index & ((1 << pivot) - 1)
        return index


@cache
def _quotient(k: int, nmod4: int) -> _Quotient:
    basis = ()
    if nmod4 % 2 == 1:
        # a swap at {t} relabels nothing and flips the (1,2) entry for every
        # word or for none: x -> x ^ c_t, c_t the image of the zero word
        swaps = np.eye(k + 1, dtype=np.uint8)[1:]
        basis = _echelon(_words(_switch(_sigmas(k, nmod4, [0]), chi=swaps)))
    quotient = _Quotient(k=k, basis=basis, bits=k * (k - 1) // 2 - 1)
    # a transposition's map on packed indices is fixed by its images of 0
    # and of each unit index, read off the action on their least words
    indices = [0] + [1 << b for b in range(quotient.width)]
    units = _sigmas(k, nmod4, [quotient.word(x) for x in indices])
    gens = []
    for t in range(1, k):
        g = list(range(1, k + 1))
        g[t - 1], g[t] = g[t], g[t - 1]
        const, *images = map(quotient.index, _words(_switch(units, g=g)))
        gens.append(_Affine(const, tuple(image ^ const for image in images)))
    return replace(quotient, gens=tuple(gens))


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class OrbitSummary:
    size: int
    canonical: StandardSigma


def _check_divides(sizes, k: int, nmod4: int) -> None:
    """Raise OAError unless each orbit size divides the order of the group,
    k! for even n and k! * 2^(k-1) for odd n (Lagrange)."""
    bound = math.factorial(k) << (k - 1) * (nmod4 % 2)
    for size in sizes:
        if bound % size:
            raise OAError(f"orbit size {size} does not divide the group order {bound}")


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
        blocks = np.empty((j + 1, n), dtype=orbit.dtype)
        blocks[0] = orbit
        quotient.gens[j - 1].apply(orbit, out=blocks[1])
        # s_j permutes the quotient, so s_j O_j within O_j means s_j O_j = O_j
        at = np.minimum(np.searchsorted(orbit, blocks[1]), n - 1)
        if np.array_equal(orbit[at], blocks[1]):
            continue
        for m in range(2, j + 1):  # blocks[m] = s_(j-m+1) ... s_j O_j
            quotient.gens[j - m].apply(blocks[m - 1], out=blocks[m])
        orbit = _distinct(blocks.reshape(-1))
    return orbit


def orbit(s: SigmaMatrix) -> OrbitSummary:
    """Size and canonical representative of the switching class of s, that
    of ``standardise(s)``: a sigma and its complement determine one tau.

    The class is built as an orbit of S_k through the chain S_1 < ... < S_k
    (see the module docstring), on its cosets for odd n and its words for
    even n; each step must fit the memory budget
    (``OAPARITY_ORBIT_BUDGET_MB``).  The size is checked against the
    divisibility bound (k! for even n, k! * 2^(k-1) for odd n).  Packed
    indices must fit 64 bits: k <= 11, and k = 12 for odd n.
    """
    # the swap constants span k - 1 dimensions, so a state too wide is
    # refused before its quotient is built
    width = s.k * (s.k - 1) // 2 - 1 - (s.k - 1) * (s.nmod4 % 2)
    if width > 64:
        raise OAError(f"orbit search packs states into 64-bit indices, but k={s.k} with "
                      f"n = {s.nmod4} mod 4 needs {width} bits")
    s = standardise(s)
    quotient = _quotient(s.k, s.nmod4)
    cosets = _chain_orbit(quotient.index(s.word), quotient, _budget_bytes())
    size = cosets.size * quotient.coset_size
    _check_divides([size], s.k, s.nmod4)
    canonical = StandardSigma.from_word(s.k, s.nmod4, quotient.word(int(cosets[0])), n=s.n)
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
    visited bitmap of one byte per packed index, each orbit's element count
    times the coset size.

    The budget covers the bitmap and an orbit's largest step, the last, from
    at most (k-1)! elements of O_(k-1).
    """
    total = quotient.size
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
    return np.array(sizes, dtype=np.int64) * quotient.coset_size


def _class_labels(quotient: _Quotient, budget: int) -> np.ndarray:
    """The least packed index of each element's class, for every packed
    index, as uint32.

    m_1 is the identity; m_(j+1) is the least of m_j and m_j o s_j o ... o
    s_i over i = j..1.  Each composite s_j o ... o s_i is one affine map; the
    labels are gathered through it one aligned block of _LABEL_BLOCK indices
    at a time.  Its images of block 0 are filled once, by doubling, and
    those of the block from lo are the same XOR its linear image of lo, as
    lo + t = lo ^ t.  The labels are lowered in place: a label read during
    step j, in this block or any other, is at most m_j of its element and
    the index of an element of the same S_(j+1)-orbit, so each label still
    ends at m_(j+1).  The budget covers the labels and the larger of the
    block buffers (two intp image arrays and a uint32 gather buffer) and
    the byte per index with which the labels are counted.
    """
    size = quotient.size
    block = min(size, _LABEL_BLOCK)
    buffers = max((2 * np.dtype(np.intp).itemsize + 4) * block, size)
    _check_budget(4 * size + buffers, budget,
                  f"enumeration ({4 * size >> 20} MiB of labels and "
                  f"{buffers / 2**20:.2f} MiB of buffers)")
    label = np.arange(size, dtype=np.uint32)
    blocks = [(lo, label[lo:lo + block]) for lo in range(0, size, block)]
    first = np.empty(block, dtype=np.intp)
    image = np.empty_like(first)
    gathered = np.empty(block, dtype=np.uint32)
    for j in range(1, quotient.k):
        composite = quotient.gens[j - 1]
        for i in range(j, 0, -1):  # composite = s_j o ... o s_i
            if i < j:
                composite = composite.after(quotient.gens[i - 1])
            composite.fill(first)
            for lo, part in blocks:
                at = first if lo == 0 else np.bitwise_xor(first, composite.linear(lo), out=image)
                # every index is in range; numpy buffers ``out`` unless the
                # mode is "clip" or "wrap"
                label.take(at, out=gathered, mode="clip")
                np.minimum(part, gathered, out=part)
    return label


def _class_sizes_by_label(quotient: _Quotient, budget: int) -> np.ndarray:
    """Class sizes ordered by least word, from one labelling pass: the
    labels sorted in place, each class one run of equal labels."""
    label = _class_labels(quotient, budget)
    label.sort()
    bounds = np.empty(label.size + 1, dtype=bool)  # where a run starts or ends
    bounds[0] = bounds[-1] = True
    np.not_equal(label[1:], label[:-1], out=bounds[1:-1])
    return np.diff(np.flatnonzero(bounds)) * quotient.coset_size


def enumerate_classes(k: int, nmod4: int) -> ClassTable:
    """Partition all 2^(C(k,2)-1) states into switching classes, k <= 8.

    A quotient of up to 2^20 elements (k <= 7, and k = 8 for odd n) is
    labelled through the chain S_1 < ... < S_k, a block of labels at a time
    through each of k(k-1)/2 composite maps, the even k = 8 space one orbit
    per class on a visited bitmap; either way the arrays must fit the
    memory budget (``OAPARITY_ORBIT_BUDGET_MB``).
    """
    for name, value in (("k", k), ("nmod4", nmod4)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise OAError(f"{name} must be an integer, got {value!r}")
    if not 3 <= k <= 8:
        raise OAError(
            f"full enumeration supports 3 <= k <= 8 (got k={k}); "
            "use orbit() for individual states at larger k"
        )
    k, nmod4 = int(k), int(nmod4)
    _check_shape(k, nmod4, None)
    quotient = _quotient(k, nmod4)
    census = _class_sizes_by_label if quotient.size <= _LABEL_LIMIT else _class_sizes_by_orbit
    sizes, counts = np.unique(census(quotient, _budget_bytes()), return_counts=True)
    _check_divides(sizes.tolist(), k, nmod4)
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
