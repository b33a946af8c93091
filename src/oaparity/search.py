"""Latin square enumeration and backtracking search for arrays with a
prescribed parity, both on one iterative cell walk.

The walk (``_walk``) fills one new OA column cell by cell, in row-major
order of the grid of the first two columns, with an explicit per-cell stack,
so no recursion limit bounds n.  A cell lies on k - 1 lines, its row, its
column and its symbol class in each earlier square, and each line keeps a
bitmask of the symbols it holds, so a node is a few integer ORs.  Symbols
are tried in ascending order, or in a seeded shuffle of it.  The walk counts
the row and column inversions of the first square as it goes, so a
completed square's parity type is known at once; the symbol bit follows, as
r + c + s = C(n, 2) mod 2 for every Latin square.

Enumeration runs the walk with no earlier squares and resumes after any
square it yielded.  The array search nests one walk per column, a recursion
at most k deep, and prunes at column completion, where the parity components
among the filled columns are final and must match the target.  A type
string names the tau of its OA(3, n) (``TauVector.of_type``), so every
target is a tau vector and one rule decides it.  The first square passes
iff its running type equals the target's type on columns 1, 2, 3.  At three
columns that type and the free sigma bits determine each other (tau^1_23 =
sigma_13, tau^2_13 = sigma_23 + C(n, 2), tau^3_12 = sigma_13 + sigma_23), so
no kernel runs there.  From the fourth column on, the columns so far are
built into an ``OrthogonalArray``, whose sigma the kernel reads, and its
entries between the new column and each earlier one must equal those of the
target's sigma, which the plausibility gate keeps on the target.  A found
array is checked once more, its sigma against the target's.

First-hit and exhaustive searches fold each column's walk by its first row.
Row 0 of a new column meets no earlier line but its own row (every earlier
square is Latin, so row 0 holds each of its symbol classes once), so it
takes every permutation, and the first two in visit order are the identity
(even) and the swap of the last two symbols (odd).  Relabelling the new
column's symbols by a permutation g maps the Latin and orthogonality
constraints onto themselves, so the subtree below first row g, the nested
walks of later columns included, is an isomorphic copy of the subtree below
the identity or the odd row, with the same node count.  By
``transform_parity_laws`` the relabelling adds n * parity(g) to the tau
components with this column in the lower index pair and changes no other
component, so every target check in the copy, at this column and at every
later one, decides as in the subtree of g's parity.  Hence when neither of
the two walked subtrees ended the search, no other first row can: the walk
adds the nodes it would have visited, the rest of the row-0 trie plus
n!/2 - 1 copies of each subtree, and stops.  The odd row itself is walked
only when its subtree can differ from the identity row's.  Below it lies
tau o M for each square M below the identity row, tau the swap of the last
two symbols, and by the same law tau o M's entries between the new column
and each earlier one are M's plus n.  The caller tells the walk, for each
M, whether tau o M is decided as M is: always for even n; for odd n iff
neither M nor tau o M matches, so in the last column iff tau o M does not
match (a match of M would have ended the search).  When every M below the
identity row is, or there is none, the odd row's subtree is a copy of the
identity row's that cannot end the search, and the walk adds its nodes,
the row's last two cells and the identity row's subtree count.  Node
counts, caps and found arrays are those of the full walk.  Enumeration and
randomized mode walk every node; a first-square walk, which passes its
squares by type, always walks its odd row.

A walk for a first square of one type also counts, instead of walking, the
last two rows below each n - 2 complete rows that hold no square of that
type.  After n - 2 rows column j lacks a 2-set M_j of symbols and each
symbol is lacking from two columns; joining two columns for each symbol
they both lack gives a disjoint union of cycles.  Row n - 1 is forced, so
it adds n nodes for each complete row n - 2, and the nodes of row n - 2
are its valid prefixes: on columns 0..t-1 there are V_t of them, the
product over the components of the graph induced on those columns of 2
for a whole cycle and L + 1 for a path of L columns.  The tail holds
sum(V_t, t = 1..n) + n V_n nodes, V_n = 2^(number of cycles).  Row n - 1
is pi o (row n - 2), with pi the product of the cycles as permutations of
the symbols, so every completion adds the row bit sum(L - 1) mod 2.
Column j gains 2n - 3 - a - b inversions, M_j = {a < b}, plus one if b
goes in row n - 2, and each symbol is in two of the M_j, so the column bit
added is n plus the number of columns with the larger symbol in row n - 2.
Reversing a cycle's orientation flips that choice in its L columns: both
column bits are reached iff some cycle has odd length.  A tail that
reaches the target's (r, c) is walked as before, and so is every tail of a
randomized walk, where a skipped cell would skip its shuffle, or of the
replay down to a resume cursor.  The column masks after n - 2 rows do not
depend on the order of the rows above, and repeat often, so each walk
keeps the count and the bits of each tail it has counted by its masks.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import LatinSquare, OAError, OrthogonalArray, UsageError
from .parity import (StandardSigma, TauVector, binom2_bit, plausible_types, sigma_from_tau,
                     sigma_parity)

MAX_ENUM_ORDER = 6

# exhaustive search is certified only at scales where full exploration is
# realistic on a desk machine
_EXHAUSTIVE_LIMITS = {3: 6, 4: 5}


class _OutOfNodes(Exception):
    pass


class _Nodes:
    """Symbols placed so far by the nested walks of one search, and the cap."""

    def __init__(self, cap: int | None = None):
        self.count, self.cap = 0, sys.maxsize if cap is None else cap


class _Symbols(dict):
    """Symbol mask -> its symbols in descending order, filled on first use."""

    def __missing__(self, mask: int) -> list:
        out = self[mask] = [x for x in range(mask.bit_length() - 1, -1, -1) if mask >> x & 1]
        return out


_TYPES = [f"{code:03b}" for code in range(8)]


def _check_type(ty) -> None:
    """Raise OAError unless ``ty`` is a parity type, 3 bits 'rcs'."""
    if ty not in _TYPES:
        raise OAError(f"a parity type is 3 bits 'rcs', got {ty!r}")


def _tail(n: int, miss: list) -> tuple[int, set]:
    """The last two rows of a Latin square of order n whose column j lacks
    the 2-set of symbols ``miss[j]`` (a bitmask) after n - 2 complete rows:
    (the nodes a walk of them visits, the (row, column) parity bits that
    each completion adds), as in the module docstring."""
    lo = [(m & -m).bit_length() - 1 for m in miss]
    hi = [m.bit_length() - 1 for m in miss]
    other = [0] * n  # symbol -> the sum of the two columns that lack it
    for j in range(n):
        other[lo[j]] += j
        other[hi[j]] += j
    # V_t, column by column: a new column starts a path, extends one, joins
    # two into one or closes one into a cycle
    end, length = list(range(n)), [1] * n  # at each end of a path: its other end, its length
    v, total, cycles, odd = 1, 0, 0, 0
    for j in range(n):
        u, w = sorted((other[lo[j]] - j, other[hi[j]] - j))  # its neighbours
        if w < j and end[u] == w:
            v = v // (length[u] + 1) * 2
            cycles += 1
            odd |= ~length[u] & 1
        elif w < j:
            a, b = end[u], end[w]
            size = length[u] + length[w] + 1
            v = v // ((length[u] + 1) * (length[w] + 1)) * (size + 1)
            end[a], end[b], length[a], length[b] = b, a, size, size
        elif u < j:
            a, size = end[u], length[u] + 1
            v = v // size * (size + 1)
            end[a], end[j], length[a], length[j] = j, a, size, size
        else:
            v *= 2
        total += v
    rbit = (n - cycles) & 1
    if odd:
        return total + n * v, {(rbit, 0), (rbit, 1)}
    # the column bit of one completion: row n - 2 takes the smaller symbol of
    # the first column of each cycle, and each symbol below goes on to row
    # n - 2 of the other column that lacks it
    seen, larger = [False] * n, 0
    for c in range(n):
        s = lo[c]
        while not seen[c]:
            seen[c] = True
            larger += s == hi[c]
            s = lo[c] + hi[c] - s
            c = other[s] - c
    return total + n * v, {(rbit, (n + larger) & 1)}


def _walk(n: int, priors, cells: list, nodes: _Nodes, rng=None, start=None, fold=False,
          want=None):
    """Fill ``cells`` (row-major, n*n) with every Latin square of order n
    orthogonal to each column in ``priors``, in turn; yield each time one is
    complete, with its 'rcs' parity type when ``priors`` is empty.  With
    ``want``, an 'rcs' type and no ``priors``, yield only squares of that
    type, and count the last two rows that hold none (module docstring).

    Each symbol placed counts one node; the node past ``nodes.cap`` raises
    ``_OutOfNodes``.  ``rng`` shuffles each cell's ascending symbol list.
    With ``start``, a completed square, the walk resumes strictly after it.
    With ``fold``, ignored with ``rng`` or ``start``, the walk stops after
    the subtrees below its first two first rows and counts the nodes of the
    rest (see the module docstring); that is exact only when what the caller
    does with a square depends on its first row through the row's parity.
    Without ``want`` it also counts the odd first row's subtree when the
    caller has sent True into each yield below the identity row: the
    square with its last two symbols swapped is decided as this one.
    """
    size, full = n * n, (1 << n) - 1
    last = size - 1
    first = not priors  # the new column is the first square: track its parity
    shift = (n ** 3).bit_length()  # inv packs row inversions above column ones
    kk = binom2_bit(n % 4)  # r + c + s = C(n, 2) mod 2 gives the symbol bit
    # the lines through each cell: its row, its column and its symbol class
    # in each earlier square
    classes = [[n * (t + 2) + x for x in col.tolist()] for t, col in enumerate(priors)]
    ids = [(p // n, n + p % n, *(cls[p] for cls in classes)) for p in range(size)]
    # full where the next cell shares a line with this one, so cannot repeat its symbol
    shared = [full if set(ids[p]) & set(ids[p + 1]) else 0 for p in range(last)]
    used = [0] * (n * (len(priors) + 2))
    inv = [0] * (size + 1)  # packed inversions of the cells before each cell
    stack = [[]] * size     # symbols left to try at each cell, the next one last
    after = [full] * size   # symbols the next cell may take before this one's is placed
    symbols = _Symbols()
    count, cap = nodes.count, nodes.cap
    replay = start is not None  # descend along ``start`` first, without yielding it
    plain = rng is None and not replay
    fold = fold and plain
    tail = (n - 2) * n  # the first cell of row n - 2, never entered for n < 3
    wr, wc = (int(want[0]), int(want[1])) if want else (0, 0)
    entered, below = 0, []  # count on entering row 1; nodes below each first row
    alike = fold and not want  # each square so far is decided as its copy below the odd row
    tails = {}  # column masks after n - 2 rows -> _tail of them

    def options(m, pos):
        """The symbols in mask m for cell pos, the one to try first last."""
        if replay:
            return [x for x in symbols[m] if x > start[pos]] + [start[pos]]
        if rng is None:
            return symbols[m][:]
        out = symbols[m][::-1]
        rng.shuffle(out)
        out.reverse()
        return out

    pos = 0
    stack[0] = options(full, 0)
    while True:
        syms = stack[pos]
        if not syms:
            pos -= 1
            if pos < 0:
                break
            bit = 1 << cells[pos]
            for line in ids[pos]:
                used[line] ^= bit
            if fold and pos == n - 1:  # the subtree below a whole first row is done
                below.append(count - entered)
                if alike:  # the odd row's last two cells and a copy of the subtree
                    count += 2 + below[0]
                    below.append(below[0])
                if len(below) == 2:  # the even and the odd row: count the rest
                    count += sum(math.perm(n, j) for j in range(1, n + 1)) - n - 2 \
                        + (math.factorial(n) // 2 - 1) * sum(below)
                    if count > cap:
                        nodes.count = cap + 1
                        raise _OutOfNodes
                    break
            continue
        s = syms.pop()
        count += 1
        if count > cap:
            nodes.count = count
            raise _OutOfNodes
        if pos < last:
            m = after[pos] & ~(1 << s & shared[pos])
            if not m:  # the next cell has no symbol left: a leaf of the tree
                continue
        if first:
            r, c = ids[pos]
            inv[pos + 1] = inv[pos] + ((used[r] >> s + 1).bit_count() << shift) \
                + (used[c] >> s + 1).bit_count()
        cells[pos] = s
        if pos == last:
            if replay:  # back at ``start``: from here on, squares after it
                replay, plain = False, rng is None
                continue
            pr, pc = inv[size] >> shift & 1, inv[size] & 1
            ty = _TYPES[pr << 2 | pc << 1 | pr ^ pc ^ kk] if first else None
            if want and ty != want:
                continue
            nodes.count = count
            if not (yield ty):
                alike = False
            count = nodes.count
            continue
        bit = 1 << s
        for line in ids[pos]:
            used[line] |= bit
        pos += 1
        if pos == n:
            entered = count
        if pos == tail and want and plain:
            masks = tuple(used[n:2 * n])
            if masks not in tails:
                tails[masks] = _tail(n, [full ^ u for u in masks])
            skipped, adds = tails[masks]
            if (wr ^ inv[pos] >> shift & 1, wc ^ inv[pos] & 1) not in adds:
                count += skipped
                if count > cap:
                    nodes.count = cap + 1
                    raise _OutOfNodes
                stack[pos] = []
                continue
        if pos < last:
            f = 0
            for line in ids[pos + 1]:
                f |= used[line]
            after[pos] = full & ~f
        stack[pos] = symbols[m][:] if plain else options(m, pos)
    nodes.count = count


def latin_square_walk(n: int, resume_after: LatinSquare | None = None,
                      parity_type: str | None = None):
    """Every Latin square of order n exactly once, in lexicographic order of
    the flattened cell tuple, strictly after ``resume_after`` if given; with
    ``parity_type``, an 'rcs' string, only the squares of that type; any
    other string raises OAError.

    Returns ``(cells, walk)``: ``walk`` yields each square's 'rcs' parity
    type when ``cells``, a row-major list, holds the square.
    """
    if n > MAX_ENUM_ORDER:
        raise OAError(f"exhaustive enumeration supports n <= {MAX_ENUM_ORDER}, got {n}")
    if n < 1:
        raise OAError(f"need n >= 1, got {n}")
    if parity_type is not None:
        _check_type(parity_type)
    start = None
    if resume_after is not None:
        if resume_after.n != n:
            raise OAError("resume square has the wrong order")
        start = [int(x) for x in resume_after.cells.ravel()]
    cells = [0] * (n * n)
    return cells, _walk(n, (), cells, _Nodes(), start=start, want=parity_type)


def enumerate_latin_squares(n: int, resume_after: LatinSquare | None = None):
    """Yield every Latin square of order n exactly once, in lexicographic
    order of the flattened cell tuple.  With ``resume_after`` the stream
    restarts strictly after that square."""
    cells, walk = latin_square_walk(n, resume_after)
    for _ in walk:
        yield LatinSquare._unchecked(np.array(cells, dtype=np.int16).reshape(n, n))


def achieved_parity_types(n: int) -> set:
    """The set of parity types realised by at least one square of order n.

    A conjugate of a square (its OA(3, n) with the three columns permuted)
    is a square whose type has the same bits permuted: transposing swaps r
    and c, exchanging columns and symbols swaps c and s.  So every type seen
    brings its images under S_3, and the enumeration ends as soon as these
    hold all four plausible types.
    """
    possible = set(plausible_types(n % 4))
    seen: set[str] = set()
    for ty in latin_square_walk(n)[1]:
        if ty not in seen:
            seen.update("".join(ty[i] for i in p) for p in itertools.permutations(range(3)))
            if seen == possible:
                break
    return seen


# ---------------------------------------------------------------------------
# targeted search


@dataclass(frozen=True)
class SearchSpec:
    """What to look for and how hard to try.

    ``target`` is a TauVector for the full (k, n), of this n or of unknown
    n, or a 3-bit parity-type string when k = 3, which the search reads as
    the tau that ``TauVector.of_type`` gives it.  That tau, ``tau``, passes
    ``sigma_from_tau``, the one plausibility gate, once, which keeps its
    standardised sigma on it for the search and the check of what it finds;
    a type that no square of order n has is refused there.
    The first square is checked by its parity type, each later column by
    the free sigma entries of the columns so far.  Modes:
    "first-hit" (deterministic DFS, first match), "exhaustive" (certifies
    non-existence; only for k=3 n<=6 and k=4 n<=5), "randomized" (seeded
    symbol shuffles with restarts).  First-hit and exhaustive walks fold
    each column by its first row; a randomized walk does not, and visits
    every node of its shuffled tree, so with no ``max_nodes`` it can run
    far longer than first-hit on the same target.  ``max_nodes`` (None for
    no cap) must be >= 0 and ``restarts`` >= 1; a ``seed``, or ``restarts``
    other than 1, is refused outside mode "randomized", which alone reads
    them.  A malformed type string raises OAError.
    """

    k: int
    n: int
    target: object
    mode: str = "first-hit"
    seed: int | None = None
    restarts: int = 1
    max_nodes: int | None = None
    tau: TauVector = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("exhaustive", "first-hit", "randomized"):
            raise OAError(f"unknown search mode {self.mode!r}")
        if not 3 <= self.k <= self.n + 1:
            raise OAError(f"need 3 <= k <= n+1, got k={self.k}, n={self.n}")
        if self.max_nodes is not None and self.max_nodes < 0:
            raise UsageError(f"max_nodes must be >= 0, got {self.max_nodes}")
        if self.restarts < 1:
            raise UsageError(f"restarts must be >= 1, got {self.restarts}")
        if self.mode != "randomized" and (self.seed is not None or self.restarts != 1):
            raise UsageError(f"seed and restarts need mode 'randomized', not {self.mode!r}")
        if self.mode == "exhaustive" and self.n > _EXHAUSTIVE_LIMITS.get(self.k, -1):
            raise OAError("exhaustive mode is certified only for " + " and ".join(
                f"k={k} with n <= {n}" for k, n in _EXHAUSTIVE_LIMITS.items()))
        if isinstance(self.target, str):
            _check_type(self.target)
            if self.k != 3:
                raise OAError("a parity-type target needs k = 3")
            t = TauVector.of_type(self.target, self.n)
        elif isinstance(self.target, TauVector):
            t = self.target
            if t.k != self.k or t.nmod4 != self.n % 4 or t.n not in (None, self.n):
                raise OAError("target dimensions disagree with the search spec")
        else:
            raise OAError("target must be a TauVector or a parity-type string")
        sigma_from_tau(t)
        object.__setattr__(self, "tau", t)


@dataclass(frozen=True)
class SearchOutcome:
    """found=None with certified_exhausted=True is a non-existence proof;
    with certified_exhausted=False the budget ran out first."""

    found: OrthogonalArray | None
    certified_exhausted: bool
    nodes: int
    seed: int | None = None


def _partial_tau_matches(columns, n: int, target: StandardSigma) -> bool | None:
    """Whether the tau components among the j >= 4 columns so far equal the
    target's; plausible taus and standardised sigmas determine each other,
    column by column, so this compares the free sigma entries among them.
    Those of the earlier columns matched when each was added, so only
    column j of the sigma of the array so far is compared.

    None instead of False when the new column's symbols relabelled by an odd
    permutation would match: for odd n that flips each entry compared
    (``transform_parity_laws``), so all of them differ now."""
    j = len(columns)
    sigma = sigma_parity(OrthogonalArray(np.column_stack(columns)))
    differ = sigma.m[1:j, j] != target.m[1:j, j]
    if not differ.any():
        return True
    return None if n % 2 and differ.all() else False


def _search(spec: SearchSpec, rng: random.Random | None):
    """(array or None, nodes, whether the node cap was hit) of a search for
    the spec's tau."""
    n, k = spec.n, spec.k
    want = spec.tau.triple_type(1, 2, 3)
    sigma = sigma_from_tau(spec.tau)
    idx = np.arange(n, dtype=np.int16)
    columns = [np.repeat(idx, n), np.tile(idx, n)]
    nodes = _Nodes(spec.max_nodes)

    def extend() -> bool:
        """Add matching columns until there are k; one level per column."""
        if len(columns) == k:
            return True
        first = len(columns) == 2  # the walk yields first squares of the target's type only
        cells = [0] * (n * n)
        walk = _walk(n, columns[2:], cells, nodes, rng, fold=True, want=want if first else None)
        alike = None  # whether the square's copy below the odd first row is decided alike
        while True:
            try:
                walk.send(alike)
            except StopIteration:
                return False
            columns.append(np.array(cells, dtype=np.int16))
            match = first or _partial_tau_matches(columns, n, sigma)
            if match and extend():
                return True
            columns.pop()
            alike = n % 2 == 0 or match is False

    try:
        if extend():
            return OrthogonalArray(np.column_stack(columns)), nodes.count, False
    except _OutOfNodes:
        return None, nodes.count, True
    return None, nodes.count, False


def find_oa_with_parity(spec: SearchSpec) -> SearchOutcome:
    """Search for an OA(k, n) whose parity matches the target.

    A returned array's sigma is checked against the target's before it is
    handed back.  Non-existence is certified only in exhaustive mode with no
    node budget; running out of budget is reported as an inconclusive outcome.
    """
    randomized = spec.mode == "randomized"
    seed = (0 if spec.seed is None else spec.seed) if randomized else None
    total_nodes = 0
    for attempt in range(spec.restarts if randomized else 1):
        rng = random.Random(seed * 1_000_003 + attempt) if randomized else None
        oa, nodes, capped = _search(spec, rng)
        total_nodes += nodes
        if oa is not None:
            if sigma_parity(oa) != sigma_from_tau(spec.tau):
                raise OAError("search result does not match the target parity")
            return SearchOutcome(oa, False, total_nodes, seed)
    return SearchOutcome(None, spec.mode == "exhaustive" and not capped, total_nodes, seed)
