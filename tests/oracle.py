"""Brute-force oracles for quantities the library derives.

The library counts inversions mod 2 with one sweep of bit-parallel words
per row, derives sigma from C(k,2) - 1 tau components, one per free sigma
bit, and tau from sigma, derives a square's symbol parity from its row and
column parities, checks additivity for every column in one array
comparison, builds
switching classes through the chain S_1 < ... < S_k on packed cosets of the
swaps (odd n) with transpositions as affine maps read off one batched
action on unit words, and searches
with one iterative cell walk that keeps a running square parity, and takes
the ensemble census, the four-column cap and the graph splits as
whole-array passes, checks orthogonality by the kernel's refusal of rows
that are not permutations in the families it reads sigma from, and tells
whether rows agree in one column from k = n + 1, builds each construction's
columns straight from its formula, and trusts its fixed GF(q) tables
without checking them.  These functions compute each
quantity from its definition instead, with parity kernels of their own
(inversions counted by comparing every pair of positions, and cycle
following, which only this module does, for square types and the
kernel's tests; the library's ``permutation_parity`` is the kernel), a
loop over the columns for additivity, a set-based orbit search over the matrix-level
actions, breadth-first searches and a labelling to a fixpoint that apply
every generator of a generating set, over every word of a class or of the
space or over the cosets of the swaps, with generators read off the
matrix-level actions and cosets reduced by an elimination of their own, a
recursive search, one frame per cell, that checks each completed column
from its definition, loops over column triples, quads and vertex pairs with
per-entry lookups, one bincount per column pair, a comparison of every
pair of rows, GF(q) tables one element pair at a time, reducing each
polynomial product term by term, the field axioms on every triple of
elements, the constructions one checked Latin square per multiplier,
with residues found by squaring every element, and the sigma of a linear
array from the determinants of its column pairs (Frobenius-Zolotarev),
with no permutation at all.  Apart from the
search's visit order, which both sides must follow node for node, they
share no algorithm with the code they check.
"""

import functools
import itertools
import math
import random

import numpy as np

from oaparity.classes import act_permute, act_swap
from oaparity.core import _IRREDUCIBLE, LatinSquare, OAError, _prime_power, field_table, mols_to_oa
from oaparity.parity import (
    SigmaMatrix,
    StandardSigma,
    TauVector,
    binom2_bit,
    check_plausible,
    equiparity_type,
    sigma_from_tau,
)


def inversion_parity(perms) -> np.ndarray:
    """Parity bits of the rows of an (m, n) array of permutations, by
    comparing each position with every later one, O(n^2) per row."""
    perms = np.asarray(perms)
    inv = np.zeros(len(perms), dtype=np.int64)
    for t in range(perms.shape[1] - 1):
        inv += np.count_nonzero(perms[:, t + 1:] < perms[:, t, None], axis=1)
    return (inv & 1).astype(np.uint8)


def _tau_bits(mat: np.ndarray, n: int) -> np.ndarray:
    """Tau bits with i < j of an OA matrix, every component from its n
    permutations."""
    k = mat.shape[1]
    bits = np.zeros((k + 1, k + 1, k + 1), dtype=np.uint8)
    cols = np.arange(1, k + 1)
    for c in range(1, k + 1):
        order = np.argsort(mat[:, c - 1], kind="stable")
        grouped = mat[order].reshape(n, n, k)
        others = cols[cols != c]
        ii, jj = np.meshgrid(others, others, indexing="ij")
        sel = ii < jj
        left, right = ii[sel], jj[sel]
        p = len(left)
        x = grouped[:, :, left - 1]   # (n, n, p) column-i entries per symbol class
        y = grouped[:, :, right - 1]
        perms = np.empty((p, n, n), dtype=np.int16)
        perms[
            np.arange(p)[None, None, :],
            np.arange(n)[:, None, None],
            x,
        ] = y
        par = inversion_parity(perms.reshape(p * n, n)).reshape(p, n)
        bits[c, left, right] = par.sum(axis=1) & 1
    return bits


def direct_tau(a) -> TauVector:
    """The tau-parity of an array, every component by definition."""
    return TauVector(k=a.k, nmod4=a.n % 4, bits=_tau_bits(a.rows, a.n), n=a.n)


def _sigma_bits(mat: np.ndarray, n: int) -> np.ndarray:
    """Full sigma matrix bits of an OA matrix; rows indexed by storage position."""
    k = mat.shape[1]
    kk = binom2_bit(n % 4)
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    perms = np.empty((len(pairs), n * n), dtype=np.int32)
    for t, (i, j) in enumerate(pairs):
        perms[t] = mat[:, i - 1].astype(np.int32) * n + mat[:, j - 1]
    par = inversion_parity(perms)
    m = np.zeros((k + 1, k + 1), dtype=np.uint8)
    for t, (i, j) in enumerate(pairs):
        m[i, j] = par[t]
        m[j, i] = par[t] ^ kk
    return m


def direct_sigma(a) -> SigmaMatrix:
    """The sigma-parity of an array at its stored row order, by definition."""
    return SigmaMatrix(a.k, a.n % 4, _sigma_bits(a.rows, a.n), n=a.n)


def orbit_by_actions(state: StandardSigma) -> tuple[int, int]:
    """Size and smallest word of the switching class of ``state``.

    A set-based breadth-first search over ``act_permute`` and ``act_swap``
    with the generating set {(1 2), (1 2 ... k)} and, for odd n, the swap at
    {1} (its conjugates under S_k are all the singleton swaps), not the
    library's adjacent transpositions and k singleton swaps.
    """
    k = state.k
    cycle = tuple(range(2, k + 1)) + (1,)
    transposition = (2, 1) + tuple(range(3, k + 1))
    moves = [lambda s: act_permute(s, transposition), lambda s: act_permute(s, cycle)]
    if state.nmod4 % 2:
        moves.append(lambda s: act_swap(s, (1,)))
    seen = {state.word}
    frontier = [state]
    while frontier:
        nxt = []
        for s in frontier:
            for move in moves:
                image = move(s)
                word = image.word
                if word not in seen:
                    seen.add(word)
                    nxt.append(image)
        frontier = nxt
    return len(seen), min(seen)


class WordMap:
    """One generator on words, read off a matrix-level action.

    The actions are affine over GF(2) on words (a relabelling moves and
    flips bits, standardising complements the word on one bit), so the
    images of the zero word and of each unit word fix one: ``const`` and
    ``cols``, ``const`` XORed into each unit word's image.  It is applied
    one byte of the input at a time.
    """

    def __init__(self, k: int, nmod4: int, action):
        bits = k * (k - 1) // 2 - 1
        self.const = const = action(StandardSigma.from_word(k, nmod4, 0)).word
        self.cols = [action(StandardSigma.from_word(k, nmod4, 1 << b)).word ^ const
                     for b in range(bits)]
        self.tables = []
        for lo in range(0, bits, 8):
            table = [const if lo == 0 else 0]
            for col in self.cols[lo:lo + 8]:
                table += [v ^ col for v in table]
            self.tables.append(np.array(table, dtype=np.uint64))

    def apply(self, words: np.ndarray) -> np.ndarray:
        out = np.zeros(words.shape, dtype=np.uint64)
        for c, table in enumerate(self.tables):
            out ^= table[(words >> np.uint64(8 * c) & np.uint64(255)).astype(np.intp)]
        return out


def word_generators(k: int, nmod4: int) -> list:
    """Every generator on words: the k - 1 adjacent transpositions, then for
    odd n the k singleton swaps, each read off act_permute or act_swap."""
    gens = []
    for t in range(1, k):
        g = list(range(1, k + 1))
        g[t - 1], g[t] = g[t], g[t - 1]
        gens.append(WordMap(k, nmod4, lambda s, g=tuple(g): act_permute(s, g)))
    if nmod4 % 2:
        gens.extend(WordMap(k, nmod4, lambda s, t=t: act_swap(s, (t,))) for t in range(1, k + 1))
    return gens


class WordSpace:
    """The words of (k, n mod 4) under every generator, or with ``cosets``
    (odd n) the cosets x ^ V of the span V of the swap constants under the
    transpositions, each coset held as its least word.

    The basis of V is eliminated to distinct top bits.  Clearing each top
    bit in turn, highest first, leaves the one member of a coset with every
    top bit clear, and any other member has a top bit set where this one
    has it clear, so it is the least.  An element's packed index is its
    least word with the top bits dropped.
    """

    def __init__(self, k: int, nmod4: int, cosets: bool = False):
        self.k, self.nmod4 = k, nmod4
        self.bits = k * (k - 1) // 2 - 1
        gens = word_generators(k, nmod4)
        rows: dict[int, int] = {}
        if cosets and nmod4 % 2:
            gens = gens[:k - 1]  # a swap maps each coset to itself
            zero = StandardSigma.from_word(k, nmod4, 0)
            for t in range(1, k + 1):
                v = act_swap(zero, (t,)).word
                while v and v.bit_length() - 1 in rows:
                    v ^= rows[v.bit_length() - 1]
                if v:
                    rows[v.bit_length() - 1] = v
        self.gens = gens
        self.basis = sorted(rows.items(), reverse=True)
        self.free = [b for b in range(self.bits) if b not in rows]
        self.size = 1 << len(self.free)
        self.coset_size = 1 << len(self.basis)

    def least(self, words: np.ndarray) -> np.ndarray:
        words = words.copy()
        for top, vector in self.basis:
            words ^= (words >> np.uint64(top) & np.uint64(1)) * np.uint64(vector)
        return words

    def images(self, words: np.ndarray) -> np.ndarray:
        """The least images of ``words`` under every generator, in one array."""
        return np.concatenate([self.least(g.apply(words)) for g in self.gens])

    def pack(self, words: np.ndarray) -> np.ndarray:
        """The packed indices of least words."""
        if not self.basis:
            return words.copy()
        out = np.zeros(words.shape, dtype=np.uint64)
        for b, v in enumerate(self.free):
            out |= (words >> np.uint64(v) & np.uint64(1)) << np.uint64(b)
        return out

    def unpack(self, indices: np.ndarray) -> np.ndarray:
        """The least words of packed indices."""
        if not self.basis:
            return indices.copy()
        out = np.zeros(indices.shape, dtype=np.uint64)
        for b, v in enumerate(self.free):
            out |= (indices >> np.uint64(b) & np.uint64(1)) << np.uint64(v)
        return out


_word_space = functools.cache(WordSpace)


def orbit_by_bfs(word: int, space: WordSpace) -> tuple[int, int]:
    """Elements and least word of the orbit of ``word``'s element, by a
    breadth-first search applying every generator of ``space`` to each
    level."""
    visited = space.least(np.array([word], dtype=np.uint64))
    frontier = visited
    while frontier.size:
        imgs = np.sort(space.images(frontier))
        imgs = imgs[np.append(True, imgs[1:] != imgs[:-1])]
        pos = np.minimum(np.searchsorted(visited, imgs), visited.size - 1)
        frontier = imgs[visited[pos] != imgs]
        visited = np.sort(np.concatenate([visited, frontier]), kind="stable")
    return int(visited.size), int(visited[0])


def orbit_by_words(state: StandardSigma) -> tuple[int, int]:
    """Size and smallest word of the switching class of ``state``, by a
    breadth-first search over every word of the class with all 2k - 1
    generators for odd n."""
    return orbit_by_bfs(state.word, _word_space(state.k, state.nmod4))


def class_sizes_by_bfs(space: WordSpace) -> np.ndarray:
    """Class sizes of a space of words ordered by least word, one
    breadth-first search per class with every generator on a visited
    bitmap."""
    visited = np.zeros(1 << space.bits, dtype=bool)
    sizes = []
    for seed in range(visited.size):
        if visited[seed]:
            continue
        visited[seed] = True
        frontier = np.array([seed], dtype=np.uint64)
        size = 1
        while frontier.size:
            imgs = space.images(frontier)
            frontier = np.unique(imgs[~visited[imgs]])
            visited[frontier] = True
            size += frontier.size
        sizes.append(size)
    return np.array(sizes, dtype=np.int64)


def class_labels_by_fixpoint(space: WordSpace) -> np.ndarray:
    """The least packed index of each element's class, for every packed
    index, under any generating set.

    Labels start as the indices.  A round lowers each label to the label of
    its image under every generator, then pointer-jumps (label :=
    label[label]) until that changes nothing; after a round that lowers no
    label, each class is labelled by its least index.
    """
    label = np.arange(space.size, dtype=np.uint32)
    words = space.unpack(label.astype(np.uint64))
    images = [space.pack(space.least(g.apply(words))).astype(np.intp) for g in space.gens]
    del words
    while True:
        start = label.copy()
        for image in images:
            np.minimum(label, label[image], out=label)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        if np.array_equal(label, start):
            return label


def class_sizes_by_fixpoint(space: WordSpace) -> np.ndarray:
    """Class sizes ordered by least word, from ``class_labels_by_fixpoint``."""
    counts = np.bincount(class_labels_by_fixpoint(space), minlength=space.size)
    return counts[counts > 0] * space.coset_size


# ---------------------------------------------------------------------------
# backtracking search, one recursion level per cell


def enumerate_latin_squares(n: int, resume_after: LatinSquare | None = None):
    """Every Latin square of order n in lexicographic order of the flattened
    cells, strictly after ``resume_after`` if given; one generator frame per
    cell, with no running state beyond the row and column masks."""
    full = (1 << n) - 1
    rowmask = [0] * n
    colmask = [0] * n
    grid = [[0] * n for _ in range(n)]
    cursor = None
    if resume_after is not None:
        cursor = [int(x) for x in resume_after.cells.ravel()]

    def rec(pos: int, tight: bool):
        if pos == n * n:
            if not tight:  # strictly after the cursor
                yield LatinSquare(grid)
            return
        r, c = divmod(pos, n)
        avail = full & ~(rowmask[r] | colmask[c])
        lo = cursor[pos] if tight else 0
        m = (avail >> lo) << lo
        while m:
            bit = m & -m
            m ^= bit
            s = bit.bit_length() - 1
            grid[r][c] = s
            rowmask[r] |= bit
            colmask[c] |= bit
            yield from rec(pos + 1, tight and s == lo)
            rowmask[r] ^= bit
            colmask[c] ^= bit

    yield from rec(0, cursor is not None)


def cycle_parity(images) -> int:
    """Parity of a permutation, n minus its number of cycles, by following
    each cycle."""
    seen = [False] * len(images)
    cycles = 0
    for start in range(len(images)):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = images[x]
    return (len(images) - cycles) & 1


def row_permutation(square, i: int) -> np.ndarray:
    """The permutation j -> cells[i, j] of a Latin square."""
    return square.cells[i]


def column_permutation(square, j: int) -> np.ndarray:
    """The permutation i -> cells[i, j] of a Latin square."""
    return square.cells[:, j]


def symbol_permutation(square, symbol: int) -> np.ndarray:
    """The permutation i -> j where cells[i, j] == symbol."""
    return np.argmax(square.cells == symbol, axis=1).astype(np.int16)


def square_type(cells) -> str:
    """The 'rcs' parity type of a Latin square given as an n x n array: the
    parities of its rows j -> cells[i, j], its columns i -> cells[i, j] and
    its symbols i -> j where cells[i, j] is the symbol, each summed mod 2."""
    rows = [[int(x) for x in row] for row in cells]
    columns = [list(col) for col in zip(*rows)]
    symbols = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, s in enumerate(row):
            symbols[s][i] = j
    return "".join(str(sum(map(cycle_parity, perms)) & 1) for perms in (rows, columns, symbols))


def last_two_rows(rect, n: int):
    """(nodes, the set of the completed squares' (r, c): the parities of
    their rows and of their columns, each summed mod 2) of a walk of the
    last two rows of an order-n Latin square below the n - 2 complete rows
    ``rect``, one recursion level per cell; a node is a symbol placed that
    its row and column do not hold yet."""
    full = (1 << n) - 1
    grid = [[int(x) for x in row] for row in rect] + [[0] * n, [0] * n]
    colmask = [sum(1 << x for x in col) for col in zip(*grid[:-2])]
    nodes, types = 0, set()

    def rec(pos: int, rowmask: int):
        nonlocal nodes
        if pos == 2 * n:
            types.add(tuple(sum(map(cycle_parity, perms)) & 1 for perms in (grid, zip(*grid))))
            return
        r, c = divmod(pos, n)
        rowmask = rowmask if c else 0  # a new row holds nothing yet
        avail = full & ~(colmask[c] | rowmask)
        for s in range(n):
            if avail >> s & 1:
                nodes += 1
                grid[n - 2 + r][c] = s
                colmask[c] ^= 1 << s
                rec(pos + 1, rowmask | 1 << s)
                colmask[c] ^= 1 << s

    rec(0, 0)
    return nodes, types


class _Budget(Exception):
    pass


class _Found(Exception):
    def __init__(self, rows):
        self.rows = rows


def search(spec, rng):
    """Backtracking search for ``spec``: (rows or None, nodes, capped).

    Columns are filled cell by cell with one recursion level per cell.  A
    completed square of a type target is checked with ``square_type``; a
    completed column of a tau target with the tau bits of the columns so
    far, each component from its definition.
    ``rng`` shuffles each cell's ascending symbol list in randomized mode.
    """
    n, k, node_cap = spec.n, spec.k, spec.max_nodes
    idx = np.arange(n, dtype=np.int16)
    columns = [np.repeat(idx, n), np.tile(idx, n)]
    nodes = 0

    def column_done() -> bool:
        if isinstance(spec.target, str):
            return square_type(columns[-1].reshape(n, n)) == spec.target
        upto = len(columns)
        sub = spec.target.bits[:upto + 1, :upto + 1, :upto + 1]
        bits = _tau_bits(np.column_stack(columns), n)
        return np.array_equal(bits | bits.transpose(0, 2, 1), sub)

    def place_column():
        nonlocal nodes
        if len(columns) == k:
            raise _Found(np.column_stack(columns))
        new = np.zeros(n * n, dtype=np.int16)
        rowmask = [0] * n
        colmask = [0] * n
        priors = columns[2:]
        pairmask = [[0] * n for _ in priors]
        full = (1 << n) - 1

        def cell(pos: int):
            nonlocal nodes
            if pos == n * n:
                columns.append(new.copy())
                if column_done():
                    place_column()
                columns.pop()
                return
            r, c = divmod(pos, n)
            avail = full & ~(rowmask[r] | colmask[c])
            for t, prior in enumerate(priors):
                avail &= ~pairmask[t][prior[pos]]
                if not avail:
                    return
            symbols = [s for s in range(n) if avail >> s & 1]
            if rng is not None:
                rng.shuffle(symbols)
            for s in symbols:
                bit = 1 << s
                nodes += 1
                if node_cap is not None and nodes > node_cap:
                    raise _Budget
                new[pos] = s
                rowmask[r] |= bit
                colmask[c] |= bit
                for t, prior in enumerate(priors):
                    pairmask[t][prior[pos]] |= bit
                cell(pos + 1)
                rowmask[r] ^= bit
                colmask[c] ^= bit
                for t, prior in enumerate(priors):
                    pairmask[t][prior[pos]] ^= bit

        cell(0)

    try:
        place_column()
    except _Found as hit:
        return hit.rows, nodes, False
    except _Budget:
        return None, nodes, True
    return None, nodes, False


def find(spec):
    """(rows or None, certified_exhausted, nodes) of a search, with the
    restart and seeding rule of randomized mode."""
    if spec.mode != "randomized":
        rows, nodes, capped = search(spec, None)
        return rows, rows is None and spec.mode == "exhaustive" and not capped, nodes
    seed = spec.seed if spec.seed is not None else 0
    total = 0
    for attempt in range(max(1, spec.restarts)):
        rows, nodes, _ = search(spec, random.Random(seed * 1_000_003 + attempt))
        total += nodes
        if rows is not None:
            return rows, False, total
    return None, False, total


# ---------------------------------------------------------------------------
# ensemble census and graph splits, one triple, quad or pair at a time


def entries(t: TauVector) -> list[tuple]:
    """The (c, i, j, bit) components over i < j, c outside {i, j}."""
    k = t.k
    return [
        (c, i, j, t.get(c, i, j))
        for c in range(1, k + 1)
        for i in range(1, k + 1)
        for j in range(i + 1, k + 1)
        if c not in (i, j)
    ]


def census(tau: TauVector) -> dict:
    """Census fields of a tau vector by a loop over the column triples,
    asserting both edge-count identities; ``types_by_triple`` maps each
    triple c1 < c2 < c3 to its 'rcs' type string."""
    mu = sigma_from_tau(tau).row_sums()
    k = tau.k
    counts: dict[str, int] = {}
    types: dict[tuple, str] = {}
    for c1, c2, c3 in itertools.combinations(range(1, k + 1), 3):
        ty = tau.triple_type(c1, c2, c3)
        types[(c1, c2, c3)] = ty
        counts[ty] = counts.get(ty, 0) + 1
    x = counts.get(equiparity_type(tau.nmod4), 0)
    T = sum(b for *_, b in entries(tau))
    if tau.nmod4 in (0, 1):
        expected = 2 * math.comb(k, 3) - 2 * x
    else:
        expected = 2 * x + math.comb(k, 3)
    if T != expected:
        raise OAError(f"edge count {T} disagrees with the type census ({expected})")
    from_mu = sum(m * (k - 1 - m) for m in mu)
    if T != from_mu:
        raise OAError(f"edge count {T} disagrees with the row-sum identity ({from_mu})")
    return {
        "type_counts": counts,
        "x": x,
        "T": T,
        "mu": tuple(mu),
        "pp_plausible": check_plausible(tau).pp_plausible,
        "types_by_triple": types,
    }


def four_column_witness(k: int, types_by_triple: dict, nmod4: int) -> tuple | None:
    """First quad, in lexicographic order, whose four triples hold more than
    two squares of the equiparity type."""
    equi = equiparity_type(nmod4)
    for quad in itertools.combinations(range(1, k + 1), 4):
        hits = sum(
            types_by_triple[triple] == equi for triple in itertools.combinations(quad, 3)
        )
        if hits > 2:
            return quad
    return None


def split_bipartite(verts, edge, what="edge set is not complete bipartite"):
    """Split ``verts`` into the sides of a complete bipartite graph given its
    edge predicate; ((), verts) when there are no edges."""
    if not any(edge(i, j) for i in verts for j in verts if i < j):
        return (), tuple(verts)
    w = verts[0]
    part2 = tuple(v for v in verts if v != w and edge(w, v))
    part1 = tuple(v for v in verts if v == w or not edge(w, v))
    for i in verts:
        for j in verts:
            if i < j and edge(i, j) != ((i in part1) != (j in part1)):
                raise OAError(f"{what} (offending pair ({i}, {j}))")
    return part1, part2


def tau_graph_parts(t: TauVector) -> list[tuple]:
    """(c, part1, part2) of every tau-graph, edges read with ``t.get``."""
    out = []
    for c in range(1, t.k + 1):
        verts = [v for v in range(1, t.k + 1) if v != c]
        p1, p2 = split_bipartite(verts, lambda i, j: bool(t.get(c, i, j)))
        out.append((c, p1, p2))
    return out


def stack_parts(t: TauVector) -> tuple[tuple, tuple]:
    """Parts of the stack: complete bipartite sides for n = 0,1 mod 4, the
    two cliques (the one holding vertex 1 first) for n = 2,3 mod 4."""
    verts = list(range(1, t.k + 1))

    def edge(i, j):
        return sum(t.get(c, i, j) for c in verts if c not in (i, j)) % 2 == 1

    if t.nmod4 in (0, 1):
        return split_bipartite(verts, edge)
    c1 = tuple(v for v in verts if v == 1 or edge(1, v))
    c2 = tuple(v for v in verts if v not in c1)
    for i in verts:
        for j in verts:
            if i < j and edge(i, j) != ((i in c1) == (j in c1)):
                raise OAError(
                    f"stack is not a union of two cliques (offending pair ({i}, {j}))"
                )
    return c1, c2


# ---------------------------------------------------------------------------
# the re-sort of a transform, by sorting the transformed rows


def resort_parity(a, t) -> int:
    """The parity of the row permutation that sorts the transformed rows of
    ``a``, held in ``a``'s stored order, on their keys col1 * n + col2, by
    ``cycle_parity`` of that sort's argsort."""
    rows = a.rows.astype(np.int64)
    if t.kind == "rows":
        new = np.empty_like(rows)
        new[list(t.perm)] = rows
    elif t.kind == "columns":
        new = np.empty_like(rows)
        new[:, [g - 1 for g in t.perm]] = rows
    else:
        new = rows.copy()
        new[:, t.column - 1] = np.asarray(t.perm)[rows[:, t.column - 1]]
    return cycle_parity(np.argsort(new[:, 0] * a.n + new[:, 1]).tolist())


# ---------------------------------------------------------------------------
# orthogonality, one pair of columns or of rows at a time


def rows_agree_in_one_column(a) -> bool:
    """Whether every two distinct rows of an OA agree in exactly one column,
    by comparing every pair of rows."""
    m = a.rows.shape[0]
    agree = (a.rows[:, None, :] == a.rows[None, :, :]).sum(axis=2)
    agree[np.arange(m), np.arange(m)] = 1
    return bool(np.all(agree == 1))


def orthogonality_violation(rows, n: int):
    """The first column pair (i, j), 1-based in lexicographic order, that
    repeats an ordered symbol pair, with its least repeated symbol pair, as
    ((i, j), (u, v)); None when every pair of columns is orthogonal."""
    rows = np.asarray(rows)
    k = rows.shape[1]
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            codes = rows[:, i - 1].astype(np.int64) * n + rows[:, j - 1]
            counts = np.bincount(codes, minlength=n * n)
            if counts.max() > 1:
                code = int(np.argmax(counts > 1))
                return (i, j), (code // n, code % n)
    return None


# ---------------------------------------------------------------------------
# plausibility, one column at a time


def additivity_violation(t: TauVector):
    """The first (c, i, j), i < j, in lexicographic order, where tau^c_ij is
    not tau^c_iw + tau^c_jw, w the least column other than c and tau^c_ww
    = 0; None when fixed-column additivity holds.  One column at a time,
    with per-entry lookups."""
    k = t.k

    def bit(c, i, j):
        return 0 if i == j else t.get(c, i, j)

    for c in range(1, k + 1):
        w = 1 if c != 1 else 2
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                if c in (i, j):
                    continue
                if bit(c, i, j) != bit(c, i, w) ^ bit(c, j, w):
                    return c, i, j
    return None


def triple_violation(t: TauVector):
    """The first triple c1 < c2 < c3, in lexicographic order, whose square
    breaks the law r + c + s = C(n, 2) mod 2, r, c and s its row, column and
    symbol bits tau^{c1}_{c2c3}, tau^{c2}_{c1c3} and tau^{c3}_{c1c2}; None
    when every square keeps it.  One triple at a time, with per-entry
    lookups."""
    kk = binom2_bit(t.nmod4)
    for c1, c2, c3 in itertools.combinations(range(1, t.k + 1), 3):
        if t.get(c1, c2, c3) ^ t.get(c2, c1, c3) ^ t.get(c3, c1, c2) != kk:
            return c1, c2, c3
    return None


# ---------------------------------------------------------------------------
# pinned data


# the nine components tau^1_23, tau^1_24, tau^1_25, tau^3_12, tau^4_12,
# tau^4_13, tau^5_12, tau^5_13, tau^5_14 determine the rest of the vector;
# their values on residue_pattern_oa(n, pattern) depend only on the pattern
DETERMINING_TRIPLES = (
    (1, 2, 3),
    (1, 2, 4),
    (1, 2, 5),
    (3, 1, 2),
    (4, 1, 2),
    (4, 1, 3),
    (5, 1, 2),
    (5, 1, 3),
    (5, 1, 4),
)

EXPECTED_COMPONENTS = {
    "nnn": (0, 0, 0, 0, 1, 1, 0, 0, 0),
    "rnr": (0, 0, 0, 0, 1, 0, 0, 0, 1),
}


def field_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Addition and multiplication tables of GF(q), q = p^e, one element
    pair at a time: label x is the polynomial with x's base-p digits as
    coefficients, sums add digits mod p, and a product is multiplied out
    and reduced from its top term down by the library's fixed irreducible
    polynomial (nothing to reduce for e = 1)."""
    p, e = _prime_power(q)
    red = _IRREDUCIBLE.get(q)
    digits = []
    for x in range(q):
        digits.append([x // p ** i % p for i in range(e)])

    def value(d):
        return sum(c * p ** i for i, c in enumerate(d))

    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            add[a, b] = value([(digits[a][i] + digits[b][i]) % p for i in range(e)])
            prod = [0] * (2 * e - 1)
            for i in range(e):
                for j in range(e):
                    prod[i + j] = (prod[i + j] + digits[a][i] * digits[b][j]) % p
            for d in range(2 * e - 2, e - 1, -1):
                c, prod[d] = prod[d], 0
                for i in range(e):
                    prod[d - e + i] = (prod[d - e + i] - c * red[i]) % p
            mul[a, b] = value(prod[:e])
    return add, mul


def field_axioms_hold(q: int, add: np.ndarray, mul: np.ndarray) -> bool:
    """Whether q x q tables on labels 0..q-1 form a field with 0 and 1 as
    identities: both operations commutative and associative, every row of
    + and every nonzero row of * a permutation (so inverses exist), 0 * x
    = 0, and * distributive over +, each law checked on every triple."""
    idx = np.arange(q)
    ok = (
        np.array_equal(add, add.T)
        and np.array_equal(mul, mul.T)
        and np.array_equal(add[0], idx)
        and np.array_equal(mul[1], idx)
        and np.array_equal(mul[0], np.zeros(q, dtype=add.dtype))
        and np.array_equal(np.sort(add, axis=1), np.tile(idx, (q, 1)))
        and np.array_equal(np.sort(mul[1:], axis=1), np.tile(idx, (q - 1, 1)))
    )
    return bool(
        ok
        and np.array_equal(add[add[:, :, None], idx], add[idx[:, None, None], add[None]])
        and np.array_equal(mul[mul[:, :, None], idx], mul[idx[:, None, None], mul[None]])
        and np.array_equal(mul[idx[:, None, None], add[None]], add[mul[:, :, None], mul[:, None, :]])
    )


# ---------------------------------------------------------------------------
# constructions, one Latin square per multiplier


def linear_mols(q: int):
    """The OA(q+1, q) of the squares L_lam[r, c] = lam*r + c over GF(q), lam
    = 1..q-1, each built and checked as a LatinSquare, then joined by
    ``mols_to_oa``."""
    f = field_table(q)
    idx = np.arange(q)
    return mols_to_oa([LatinSquare(f.add[f.mul[lam][:, None], idx[None, :]])
                       for lam in range(1, q)])


def residues(n: int) -> set:
    """The nonzero squares mod n, by squaring every element."""
    return {x * x % n for x in range(1, n)}


def residue_pattern(n: int, a: int) -> str:
    """The 'r'/'n' residuosity of a - 1, a, a + 1 mod prime n, read off
    ``residues``."""
    squares = residues(n)
    return "".join("r" if (a + d) % n in squares else "n" for d in (-1, 0, 1))


def residue_pattern_oa(n: int, a: int):
    """The OA(5, n) of the squares lam*r + c mod n, lam = a, a^2, a^3, each
    built and checked as a LatinSquare, then joined by ``mols_to_oa``."""
    idx = np.arange(n)
    return mols_to_oa([LatinSquare((lam * idx[:, None] + idx[None, :]) % n)
                       for lam in (a % n, a * a % n, a ** 3 % n)])


# ---------------------------------------------------------------------------
# the parity of a linear array, by the Frobenius-Zolotarev lemma


def zolotarev_sigma(q: int, forms) -> SigmaMatrix:
    """The sigma-parity of the OA(k, q) whose column i is the linear form
    alpha * r + beta * c over GF(q), forms[i - 1] = (alpha, beta) as field
    labels, read off determinants instead of rows.

    Pair (i, j) maps the point (r, c) to (form_i, form_j), a linear map of
    GF(q)^2 with determinant alpha_i beta_j - alpha_j beta_i.  For odd q it
    is an odd permutation of the q^2 points exactly when that determinant
    is a non-square (Frobenius-Zolotarev); for even q >= 4 every such map
    is even; for q = 2, GL(2, 2) acts as S_3 on the three nonzero points,
    so a map is odd exactly when it is an involution other than the
    identity.  Relabelling the points as row indices is a conjugation,
    which keeps the parity.  Columns 1 and 2 are r and c, (1, 0) and
    (0, 1), so sigma_12 is the identity and the matrix is standardised as
    it stands.
    """
    if _prime_power(q)[1] == 1:
        idx = np.arange(q)
        add, mul = (idx[:, None] + idx) % q, idx[:, None] * idx % q
    else:
        add, mul = field_tables(q)
    neg = np.argmin(add, axis=1)  # add[x, neg[x]] = 0
    squares = {int(mul[x, x]) for x in range(1, q)}
    eye = np.eye(2, dtype=np.int64)
    k = len(forms)
    m = np.zeros((k + 1, k + 1), dtype=np.uint8)
    for (i, (ai, bi)), (j, (aj, bj)) in itertools.permutations(enumerate(forms, 1), 2):
        if q % 2:
            m[i, j] = int(add[mul[ai, bj], neg[mul[aj, bi]]]) not in squares
        elif q == 2:
            g = np.array([[ai, bi], [aj, bj]])
            m[i, j] = not np.array_equal(g, eye) and np.array_equal(g @ g % 2, eye)
    return SigmaMatrix(k, q % 4, m, n=q)
