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
constant distances.  A single orbit is a breadth-first search: each level
applies every generator to the frontier and deduplicates the images by
sorting them and dropping entries equal to their left neighbour.  Its
visited set is a dense bitmap for k <= 7 and a sorted array of 64-bit words
for k >= 8.

Full enumeration of a space of at most 2^20 states (k <= 7) labels every
state at once: each label starts as the state's own word and is lowered to
the labels of its images under the generators, with pointer jumping, until
a round lowers none; every class is then labelled by its least word, the
canonical representative, and the class sizes are label counts.  At k = 8
(2^27 states) one breadth-first search per class walks a visited bitmap,
which is faster there and holds far less than the labels and the
generators' images.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

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

# largest state space a single orbit walks with a dense visited bitmap and
# enumerate_classes labels in one pass (k <= 7); at k = 8 clearing and
# touching the 128 MiB map costs more than the sorted search, which holds
# only the orbit, and the one-pass labels take more time and memory than a
# search per class
_BITMAP_LIMIT = 1 << 20
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
# compiled generators for breadth-first search


@dataclass(frozen=True)
class _Generator:
    """One group generator as a bit rearrangement of packed states.

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


def _generators(k: int, nmod4: int) -> list[_Generator]:
    identity = tuple(range(1, k + 1))
    gens = []
    for t in range(1, k):
        g = list(identity)
        g[t - 1], g[t] = g[t], g[t - 1]
        gens.append(_compile(k, nmod4, tuple(g)))
    if nmod4 % 2 == 1:
        gens.extend(_compile(k, nmod4, identity, t) for t in range(1, k + 1))
    return gens


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


def _images(frontier: np.ndarray, gens) -> np.ndarray:
    """The images of every frontier word under every generator, in one array."""
    f = frontier.size
    imgs = np.empty(len(gens) * f, dtype=np.uint64)
    for i, g in enumerate(gens):
        g.apply(frontier, out=imgs[i * f:(i + 1) * f])
    return imgs


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


def _orbit_bitmap(seed: int, gens, visited: np.ndarray) -> tuple[int, int]:
    """BFS one orbit on a dense visited map; returns (size, canonical word)."""
    visited[seed] = True
    frontier = np.array([seed], dtype=np.uint64)
    size = 1
    canonical = seed
    while frontier.size:
        imgs = _images(frontier, gens)
        imgs = imgs[~visited[imgs]]
        if imgs.size == 0:
            break
        imgs = _distinct(imgs)
        visited[imgs] = True
        size += imgs.size
        canonical = min(canonical, int(imgs[0]))
        frontier = imgs
    return size, canonical


def _orbit_sorted(seed: int, gens, budget: int) -> tuple[int, int]:
    """BFS one orbit keeping a sorted array of visited 64-bit words.

    The budget covers a level's image array (and the distinct copy taken
    from it) next to the visited array, checked before the level is
    expanded, and the merged visited array after it.
    """
    visited = np.array([seed], dtype=np.uint64)
    frontier = visited
    while frontier.size:
        _check_budget(visited.nbytes + 2 * len(gens) * frontier.nbytes, budget)
        imgs = _distinct(_images(frontier, gens))
        pos = np.searchsorted(visited, imgs)
        pos[pos == len(visited)] = len(visited) - 1
        new = imgs[visited[pos] != imgs]
        if new.size == 0:
            break
        _check_budget((visited.nbytes + new.nbytes) * 3, budget)
        # two sorted runs: the stable sort (timsort) merges them in linear time
        visited = np.sort(np.concatenate([visited, new]), kind="stable")
        frontier = new
    return int(visited.size), int(visited[0])


def orbit(s: StandardSigma) -> OrbitSummary:
    """Size and canonical representative of the switching class of s.

    The size is checked against the divisibility bound (k! for even n,
    k! * 2^(k-1) for odd n).
    """
    b = s.k * (s.k - 1) // 2 - 1
    if b > 63:
        raise OAError(f"orbit search packs states into 64-bit words (k <= 11, got k={s.k})")
    gens = _generators(s.k, s.nmod4)
    if (1 << b) <= _BITMAP_LIMIT:
        visited = np.zeros(1 << b, dtype=bool)
        size, canonical = _orbit_bitmap(s.word, gens, visited)
    else:
        size, canonical = _orbit_sorted(s.word, gens, _budget_bytes())
    bound = _orbit_bound(s.k, s.nmod4)
    if bound % size:
        raise OAError(f"orbit size {size} does not divide the group order {bound}")
    canonical = StandardSigma.from_word(s.k, s.nmod4, canonical, n=s.n)
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


def _class_sizes_by_bfs(gens, total: int, budget: int) -> np.ndarray:
    """Class sizes ordered by least word, one BFS per class on a visited
    bitmap of ``total`` bytes."""
    _check_budget(total, budget, f"enumeration ({total >> 20} MiB bitmap)")
    visited = np.zeros(total, dtype=bool)
    sizes = []
    seed = _next_unvisited(visited, 0)
    while seed < total:
        sizes.append(_orbit_bitmap(seed, gens, visited)[0])
        seed = _next_unvisited(visited, seed + 1)
    return np.array(sizes, dtype=np.int64)


def _class_labels(gens, total: int, budget: int) -> np.ndarray:
    """The least word of each state's class, for all ``total`` states.

    Labels start as the states' own words.  A round lowers each label to the
    label of its image under every generator, then pointer-jumps (label :=
    label[label]) until that changes nothing.  Every label stays a word of
    its state's class and never exceeds its own index, so no step raises a
    label, a step that leaves the sum unchanged changed nothing, and after a
    round that lowers no label each class is labelled by its least word.
    The budget covers the generators' uint32 images, the labels, a gather
    buffer and the scratch of ``apply``.
    """
    nbytes = (len(gens) + 3) * 4 * total
    _check_budget(nbytes, budget, f"enumeration ({nbytes >> 20} MiB of labels)")
    label = np.arange(total, dtype=np.uint32)
    images = [g.apply(label) for g in gens]
    buf = np.empty_like(label)
    level = int(label.sum(dtype=np.uint64))
    while True:
        start = level
        for image in images:
            np.take(label, image, out=buf)
            np.minimum(label, buf, out=label)
        while True:
            np.take(label, label, out=buf)
            label, buf = buf, label
            jumped, level = level, int(label.sum(dtype=np.uint64))
            if level == jumped:
                break
        if level == start:
            return label


def _class_sizes_by_label(gens, total: int, budget: int) -> np.ndarray:
    """Class sizes ordered by least word, from one labelling pass."""
    counts = np.bincount(_class_labels(gens, total, budget), minlength=total)
    return counts[counts > 0]


def enumerate_classes(k: int, nmod4: int) -> ClassTable:
    """Partition all 2^(C(k,2)-1) states into switching classes, k <= 8.

    Spaces of up to 2^20 states (k <= 7) are labelled in one pass, the k = 8
    space by one BFS per class; either way the arrays must fit the memory
    budget (``OAPARITY_ORBIT_BUDGET_MB``).
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
    gens = _generators(k, nmod4)
    total = 1 << (k * (k - 1) // 2 - 1)
    census = _class_sizes_by_label if total <= _BITMAP_LIMIT else _class_sizes_by_bfs
    sizes, counts = np.unique(census(gens, total, _budget_bytes()), return_counts=True)
    bound = _orbit_bound(k, nmod4)
    for size in sizes.tolist():
        if bound % size:
            raise OAError(f"orbit size {size} does not divide the group order {bound}")
    entries = tuple(zip(sizes.tolist(), counts.tolist()))
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
