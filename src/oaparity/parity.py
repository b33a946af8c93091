"""Tau-parity and sigma-parity of orthogonal arrays.

The tau-parity of an OA(k, n) is the vector of bits tau^c_{ij}, one per
ordered triple of distinct columns: within each symbol class of column c the
rows induce a permutation from the column-i entries to the column-j entries,
and tau^c_{ij} adds up the parities of those n permutations.

The sigma-parity is the vector of parities of the permutations sigma_{ij} of
the row-index set [0, n^2) given by r -> (a_ri, a_rj), with rows indexed by
their lexicographic storage position.  Under that convention sigma_12 is the
identity.

The two determine each other once a standardisation fixes the choice between
a sigma-parity and its complement:

    tau^c_{ij}      = sigma_ci + sigma_cj
    sigma_ji        = sigma_ij + C(n,2)          (mod 2 throughout)

One type, ``SigmaMatrix``, holds a sigma-parity; ``StandardSigma`` is its
subtype whose (1,2) entry is zero.  Because sigma_12 is the identity in
storage order, the stored sigma of an array *is* the standardised sigma its
tau determines.

Both follow from the fixed-column bits d[c, j] = tau^c_{w(c) j}, with
w(1) = 2 and w(c) = 1 otherwise, by one formula (``_sigma_upper``).  It
reads C(k,2) - 1 families, one per free sigma bit: d[c, j] for each free
pair (c, j) of ``free_pairs``.  An ``OrthogonalArray`` gets them, when it
is built, from its (C(k,2) - 1)*n permutations of length n in one
``parity_batch`` call, not from C(k,2) permutations of length n^2; that
call counts inversions mod 2 in one bit-parallel sweep down the n
positions of every permutation at once.  The kernel refuses a row that is
not a permutation, and a family's rows are permutations exactly when its
two columns are orthogonal, so the same call is the array's orthogonality
check.  The array keeps the sigma, which ``sigma_parity`` returns, and
``tau_parity`` is ``tau_from_sigma`` of it, so the additivity
identity tau^c_{ij} = tau^c_{wi} + tau^c_{wj} holds by construction there
and the tests compare it with every component computed directly.
A plausible tau is exactly its C(k,2) - 1 standardised sigma bits, so
``sigma_from_tau`` is the one plausibility gate: a tau that
``tau_from_sigma`` derives carries the standardised sigma it came from,
which it hands back with no plausibility pass; of any other tau it runs
``check_plausible``, then reads d off the vector and keeps the sigma on the
tau, so no tau is checked twice.  ``check_plausible`` is otherwise only the
violation lister of a report and the tests' reference.  ``standard_sigma``
gives the standardised sigma of an array, a tau or a sigma matrix, and is
all the census and the graphs read: no tau cube is built for them.  The
plane conditions of k = n + 1 are degree parities of that sigma, all read
off its row sums mu: by the transpose law the in-degrees are mu_v + (k -
1) * C(n, 2), one shift for every vertex.  ``SigmaMatrix.pp_plausible`` is
the one plane verdict, which the report, the census and the graphs read.

A ``TauVector`` reads the components with i < j of whatever array it is
given and stores them in both index orders, so tau^c_{ij} = tau^c_{ji} holds
by construction and ``bits[c]`` is the adjacency matrix of tau-graph c.
Every constructor of a parity vector takes its shape through one check,
the ranges the JSON readers enforce.

The two switching operations on a standardised sigma, ``act_permute`` and
``act_swap``, live here beside ``standardise``: the switching classes of
``classes`` are their orbits, and the transformation laws of an array are
these operations, since the re-sort into storage order after a column or
symbol relabelling has exactly the parity of the complement
``standardise`` applies (``transform_parity_laws``); ``apply_transform``
reads its re-sort bit off the same law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    LatinSquare,
    OAError,
    OrthogonalArray,
    PermutationError,
    Transform,
    _check_transform,
    _not_orthogonal,
    parity_batch,
    permutation_parity,
)


def binom2_bit(nmod4: int) -> int:
    """Parity of C(n, 2), which depends only on n mod 4."""
    return 1 if nmod4 % 4 in (2, 3) else 0


def plausible_types(nmod4: int) -> tuple[str, str, str, str]:
    """The four parity types a square of order n can have."""
    if nmod4 % 4 in (0, 1):
        return ("000", "011", "101", "110")
    return ("111", "100", "010", "001")


def equiparity_type(nmod4: int) -> str:
    return "000" if nmod4 % 4 in (0, 1) else "111"


class ParityTriple(NamedTuple):
    """Row, column and symbol parity of one Latin square."""

    pr: int
    pc: int
    ps: int

    @property
    def type_str(self) -> str:
        return f"{self.pr}{self.pc}{self.ps}"


def latin_square_parities(square: LatinSquare) -> ParityTriple:
    """Row/column/symbol parity bits of a Latin square.

    Each bit is the mod-2 sum of the parities of the n permutations obtained
    by fixing a row (j -> cells[i,j]), a column (i -> cells[i,j]) or a symbol
    (i -> j where cells[i,j] is the symbol).  The square's n rows and then
    its n columns go through one ``parity_batch`` call, and each half summed
    mod 2 is r and c; any two parities determine the third,
    s = r + c + C(n,2) mod 2.
    """
    n = square.n
    bits = parity_batch(np.concatenate((square.cells, square.cells.T)))
    r, c = (bits.reshape(2, n).sum(axis=1) & 1).tolist()
    return ParityTriple(r, c, r ^ c ^ binom2_bit(n % 4))


# ---------------------------------------------------------------------------
# parity vectors


def _check_shape(k: int, nmod4: int, n: int | None) -> None:
    """Raise OAError unless k >= 3, nmod4 is in 0..3 and n, when given, is
    at least 1 and congruent to nmod4 mod 4."""
    if k < 3:
        raise OAError(f"need k >= 3, got {k}")
    if not 0 <= nmod4 <= 3:
        raise OAError(f"nmod4 must be 0, 1, 2 or 3, got {nmod4}")
    if n is not None and n < 1:
        raise OAError(f"need n >= 1, got {n}")
    if n is not None and n % 4 != nmod4:
        raise OAError(f"n={n} inconsistent with nmod4={nmod4}")


@lru_cache(maxsize=None)
def _canonical_mask(k: int) -> np.ndarray:
    """Read-only mask of the components (c, i, j) with i < j of a (k+1)^3
    array: 1 <= i < j <= k, c in 1..k other than i and j."""
    off = _off_diagonal(k)
    mask = off[:, :, None] & off[:, None, :] & np.triu(off)
    mask.setflags(write=False)
    return mask


class TauVector:
    """All bits tau^c_{ij} of one parity vector.

    ``bits`` is a read-only (k+1)^3 array holding tau^c_{ij} at [c, i, j]
    and at [c, j, i]; the constructor reads the components with i < j of
    the array it is given and mirrors them, and entries with index 0 or
    repeated indices are zero.  ``n`` is optional: parity laws depend only
    on n mod 4, and vectors built from abstract sigma data may not come with
    a concrete alphabet size.
    """

    __slots__ = ("k", "nmod4", "n", "bits", "_sigma")

    def __init__(self, k: int, nmod4: int, bits: np.ndarray, n: int | None = None):
        _check_shape(k, nmod4, n)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (k + 1,) * 3:
            raise OAError(f"bits must have shape {(k + 1,) * 3} with index 0 unused")
        half = np.where(_canonical_mask(k), bits, 0).astype(np.uint8)
        arr = half | half.transpose(0, 2, 1)
        arr.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "nmod4", nmod4)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bits", arr)
        # set by tau_from_sigma or the first sigma_from_tau
        object.__setattr__(self, "_sigma", None)

    def __setattr__(self, name, value):
        raise AttributeError("TauVector is immutable")

    def get(self, c: int, i: int, j: int) -> int:
        if len({c, i, j}) != 3 or not all(1 <= x <= self.k for x in (c, i, j)):
            raise OAError(f"invalid column triple ({c}, {i}, {j})")
        return int(self.bits[c, i, j])

    def mirrored(self) -> np.ndarray:
        """``bits``, which holds both index orders."""
        return self.bits

    def triple_type(self, c1: int, c2: int, c3: int) -> str:
        """Parity type of the square on columns c1 < c2 < c3, as 'rcs' bits."""
        if not c1 < c2 < c3:
            raise OAError("columns must be given in increasing order")
        return f"{self.get(c1, c2, c3)}{self.get(c2, c1, c3)}{self.get(c3, c1, c2)}"

    def entries(self) -> list[list[int]]:
        """Canonical [c, i, j, bit] rows over i < j, in lexicographic order."""
        c, i, j = np.nonzero(_canonical_mask(self.k))
        return np.column_stack((c, i, j, self.bits[c, i, j])).tolist()

    @classmethod
    def from_entries(cls, k, nmod4, entries, n=None) -> "TauVector":
        """The vector with the [c, i, j, bit] rows ``entries``, i < j or i > j.

        Each row must name distinct integer columns in 1..k and a bit, and a
        component given twice must be given the same bit both times."""
        rows = np.asarray(entries)
        if rows.shape[1:] != (4,):
            raise OAError(f"tau entries must be [c, i, j, bit] rows, got shape {rows.shape}")
        bad = (rows[:, 3] != 0) & (rows[:, 3] != 1)
        if bad.any():
            raise OAError(f"tau bit must be 0 or 1, got {rows[bad, 3][0].item()!r}")
        cols = rows[:, :3]
        bad = ((cols != np.floor(cols)) | (cols < 1) | (cols > k)
               | (cols == cols[:, [1, 2, 0]])).any(axis=1)
        if bad.any():
            raise OAError("invalid column triple ({}, {}, {})".format(*cols[bad][0].tolist()))
        c, i, j, b = rows.astype(np.intp).T
        i, j = np.minimum(i, j), np.maximum(i, j)
        bits = np.zeros((k + 1, k + 1, k + 1), dtype=np.uint8)
        bits[c, i, j] = b
        bad = bits[c, i, j] != b  # rows that disagree on a component: one bit stays
        if bad.any():
            raise OAError("tau component ({}, {}, {}) given twice with different bits"
                          .format(*rows[bad][0, :3].tolist()))
        return cls(k=k, nmod4=nmod4, bits=bits, n=n)

    @classmethod
    def of_type(cls, ty: str, n: int) -> "TauVector":
        """The tau of an OA(3, n) whose square has the 'rcs' parity type
        ``ty``: tau^1_23 = r, tau^2_13 = c and tau^3_12 = s, the inverse of
        ``triple_type(1, 2, 3)``."""
        r, c, s = (int(x) for x in ty)
        return cls.from_entries(3, n % 4, [[1, 2, 3, r], [2, 1, 3, c], [3, 1, 2, s]], n=n)

    def __eq__(self, other):
        return (
            isinstance(other, TauVector)
            and self.k == other.k
            and self.nmod4 == other.nmod4
            and np.array_equal(self.bits, other.bits)
        )

    def __hash__(self):
        return hash((self.k, self.nmod4, self.bits.tobytes()))

    def __repr__(self):
        return f"TauVector(k={self.k}, nmod4={self.nmod4})"


@lru_cache(maxsize=None)
def _off_diagonal(k: int) -> np.ndarray:
    """Read-only mask of the entries (i, j), 1 <= i != j <= k, of a (k+1)^2 matrix."""
    off = ~np.eye(k + 1, dtype=bool)
    off[0, :] = False
    off[:, 0] = False
    off.setflags(write=False)
    return off


class SigmaMatrix:
    """Full k x k matrix of sigma-parity bits with zero diagonal.

    Off-diagonal entries satisfy m[j][i] = m[i][j] + C(n,2) mod 2, which the
    constructor enforces; row and column 0 are unused and stored as zero.
    """

    __slots__ = ("k", "nmod4", "n", "m")

    def __init__(self, k: int, nmod4: int, m: np.ndarray, n: int | None = None):
        _check_shape(k, nmod4, n)
        arr = np.asarray(m, dtype=np.uint8).copy()
        if arr.shape != (k + 1, k + 1):
            raise OAError(f"matrix must have shape ({k + 1}, {k + 1}) with row/col 0 unused")
        arr[0, :] = 0
        arr[:, 0] = 0
        if np.any(np.diagonal(arr)):
            raise OAError("diagonal entries must be zero")
        off = _off_diagonal(k)
        if not np.array_equal(arr.T[off], arr[off] ^ binom2_bit(nmod4)):
            raise OAError("entries violate the transpose law m[j][i] = m[i][j] + C(n,2)")
        arr.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "nmod4", nmod4)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", arr)

    @classmethod
    def from_upper(cls, k: int, nmod4: int, upper: np.ndarray, n: int | None = None):
        """Complete the entries above the diagonal by the transpose law."""
        return cls(k, nmod4, _complete(np.triu(np.asarray(upper, dtype=np.uint8), 1), nmod4), n=n)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def get(self, i: int, j: int) -> int:
        if i == j or not (1 <= i <= self.k and 1 <= j <= self.k):
            raise OAError(f"invalid column pair ({i}, {j})")
        return int(self.m[i, j])

    def pairs(self) -> list[list[int]]:
        """[i, j, bit] rows for 1 <= i < j <= k, in lexicographic order."""
        i, j = np.triu_indices(self.k + 1, 1)
        i, j = i[self.k:], j[self.k:]  # the first k pairs are in the unused row 0
        return np.column_stack((i, j, self.m[i, j])).tolist()

    def row_sums(self) -> tuple[int, ...]:
        """Out-degrees mu_c of the sigma-graph, c = 1..k."""
        return tuple(int(s) for s in self.m[1:, 1:].sum(axis=1))

    @property
    def pp_plausible(self) -> str:
        """The plane verdict: "na" unless n is known and k = n + 1, else
        "yes" iff all row sums mu_c share one parity.

        Summing tau^c_ij = sigma_ci + sigma_cj over the columns c other
        than i and j gives in_i + in_j + C(n, 2), with in_v the in-degrees
        of the sigma-graph, so the over-columns sum rule of
        ``check_plausible`` asks that all in-degrees share one parity.  By
        the transpose law in_v = mu_v + (k - 1) * C(n, 2), a shift common to
        every vertex, so the parities of mu decide it, and complementing
        changes every parity alike: both sigmas of a tau get one verdict.
        """
        if self.n is None or self.k != self.n + 1:
            return "na"
        odd = self.m[1:, 1:].sum(axis=1) & 1  # mu mod 2
        return "yes" if (odd == odd[0]).all() else "no"

    def complement(self) -> "SigmaMatrix":
        return SigmaMatrix(self.k, self.nmod4, self.m ^ _off_diagonal(self.k), n=self.n)

    def __eq__(self, other):
        return (
            isinstance(other, SigmaMatrix)
            and self.k == other.k
            and self.nmod4 == other.nmod4
            and np.array_equal(self.m, other.m)
        )

    def __hash__(self):
        return hash((self.k, self.nmod4, self.m.tobytes()))

    def __repr__(self):
        return f"{type(self).__name__}(k={self.k}, nmod4={self.nmod4})"


@lru_cache(maxsize=None)
def free_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the free entries of a standardised
    sigma: the pairs (i, j), 1 <= i < j <= k, in lexicographic order with
    (1, 2), which standardisation pins to zero, left out."""
    i, j = np.triu_indices(k + 1, 1)
    i, j = i[k + 1:], j[k + 1:]  # row 0 holds the first k pairs, then (1, 2)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


# ---------------------------------------------------------------------------
# the switching rule and the word packing, on the last two axes of sigma
# arrays; row and column 0 are unused and may hold anything


def _complete(up: np.ndarray, nmod4: int) -> np.ndarray:
    """Sigma arrays whose entries above the diagonal are those of ``up``,
    which is zero on and below it, and whose entries below follow by the
    transpose law."""
    return up | np.tril(up.swapaxes(-1, -2) ^ binom2_bit(nmod4), -1)


def _switch(m: np.ndarray, g=None, chi: np.ndarray | None = None) -> np.ndarray:
    """The switching rule: flip the entries with exactly one index in the
    swap set, whose indicator on 0..k is ``chi`` (its leading axes broadcast
    against m's), relabel column i as g[i - 1], then complement where the
    (1,2) entry is 1."""
    off = _off_diagonal(m.shape[-1] - 1)
    if chi is not None:
        m = m ^ ((chi[..., :, None] ^ chi[..., None, :]) & off)
    if g is not None:
        ginv = np.empty(len(g) + 1, dtype=np.intp)
        ginv[[0, *g]] = np.arange(len(g) + 1)
        m = m[..., ginv[:, None], ginv]
    return m ^ (m[..., 1:2, 2:3] & off)


def _sigmas(k: int, nmod4: int, words) -> np.ndarray:
    """The standardised sigmas whose free entries each word packs, stacked
    on the first axis."""
    rows, cols = free_pairs(k)
    pad = -rows.size % 8
    raw = b"".join((w << pad).to_bytes((rows.size + pad) // 8, "big") for w in words)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(words), -1), axis=1)
    up = np.zeros((len(words), k + 1, k + 1), dtype=np.uint8)
    up[:, rows, cols] = bits[:, :rows.size]
    return _complete(up, nmod4)


def _words(m: np.ndarray) -> list[int]:
    """The word of each standardised sigma on the last two axes of m: the
    free pair at position v of ``free_pairs`` is bit b - 1 - v, b = C(k,2) -
    1, so numeric order on words is lexicographic order on bit vectors."""
    rows, cols = free_pairs(m.shape[-1] - 1)
    packed = np.packbits(m[..., rows, cols].reshape(-1, rows.size), axis=1)
    pad = -rows.size % 8
    return [int.from_bytes(row.tobytes(), "big") >> pad for row in packed]


class StandardSigma(SigmaMatrix):
    """A sigma matrix standardised so that its (1,2) entry is zero.

    Of a sigma matrix and its complement, which determine the same tau
    vector, exactly one is standard.  Its C(k,2) - 1 free entries pack into
    one integer, ``word`` (see ``_words``).
    """

    __slots__ = ()

    def __init__(self, k: int, nmod4: int, m: np.ndarray, n: int | None = None):
        super().__init__(k, nmod4, m, n=n)
        if self.m[1, 2]:
            raise OAError("standardised sigma must have zero (1,2) entry")

    @classmethod
    def from_word(cls, k: int, nmod4: int, word: int, n: int | None = None) -> "StandardSigma":
        """The standardised sigma whose free entries ``word`` packs."""
        _check_shape(k, nmod4, n)
        if not 0 <= word < (1 << (k * (k - 1) // 2 - 1)):
            raise OAError(f"word out of range for k={k}")
        return cls(k, nmod4, _sigmas(k, nmod4, [word])[0], n=n)

    @property
    def word(self) -> int:
        """The free entries packed into one integer, (1,3) the top bit."""
        return _words(self.m)[0]

    def to_matrix(self) -> SigmaMatrix:
        """The full matrix, which a standardised sigma already is."""
        return self


def standardise(sigma: SigmaMatrix) -> StandardSigma:
    """Pick between a sigma matrix and its complement by zeroing entry (1,2);
    a ``StandardSigma`` is returned as it is."""
    if isinstance(sigma, StandardSigma):
        return sigma
    return StandardSigma(sigma.k, sigma.nmod4, _switch(sigma.m), n=sigma.n)


def act_permute(s: StandardSigma, g) -> StandardSigma:
    """Relabel columns by g (1-based images) and re-standardise.

    Satisfies act(act(s, g), h) = act(s, h o g).
    """
    g = tuple(g)
    if sorted(g) != list(range(1, s.k + 1)):
        raise OAError("g must be a permutation of 1..k")
    return StandardSigma(s.k, s.nmod4, _switch(s.m, g=g), n=s.n)


def act_swap(s: StandardSigma, cset) -> StandardSigma:
    """Flip bits with exactly one endpoint in cset and re-standardise; odd n
    only."""
    if s.nmod4 % 2 == 0:
        raise OAError("swap undefined for even n")
    members = set(cset)
    if not members <= set(range(1, s.k + 1)):
        raise OAError("swap set must be a subset of 1..k")
    chi = np.zeros(s.k + 1, dtype=np.uint8)
    chi[list(members)] = 1
    return StandardSigma(s.k, s.nmod4, _switch(s.m, chi=chi), n=s.n)


# ---------------------------------------------------------------------------
# parity of an orthogonal array


def _fixed_column_bits(rows: np.ndarray, n: int) -> np.ndarray:
    """The fixed-column bits d of OA rows in storage order, at the C(k,2) - 1
    families that carry the free sigma bits: d[c, j] for each free pair
    (c, j), c in {1, 2} with j >= 3 and 3 <= c < j.  Other entries are
    zero.  ``_stored_sigma``, and through it every ``OrthogonalArray``
    built, reads its sigma off them.

    They determine the other components by additivity, tau^c_{ij} =
    tau^c_{wi} + tau^c_{wj}: within a symbol class of c, pi_ij = pi_wj o
    pi_iw, and parity(pi_iw) = parity(pi_wi).  Family (c, j) holds pi_wj on
    each symbol class of c, and its n rows are permutations exactly when
    columns c and j are orthogonal, given that columns 1 and 2 are (the
    storage order of ``rows``) and, for c >= 3, columns 1 and c, an earlier
    family.  So the kernel, which refuses a row that is not a permutation,
    checks every pair it reads: the first refused row is in the family of
    the first pair that fails, in lexicographic order, and it is raised as
    ``OrthogonalityError``.

    With L_j[u, v] = column j at row (u, v), family (1, j) is the rows of
    L_j and family (2, j) its columns, both views of ``rows``; family
    (c, j), c >= 3, reads L_j[u, v] at the v where L_c[u, v] = s, found by
    one inverse scatter of the squares L_3..L_{k-1}.  The families are laid
    out positions first, so the kernel reads each position as one run.
    """
    k = rows.shape[1]
    c, j = free_pairs(k)
    grid = rows.reshape(n, n, k)  # [u, v, column - 1]
    squares = grid[:, :, j[0] - 1:]  # the L_j of families (1, j) and (2, j)
    m = squares.shape[2]
    perms = np.empty((n, len(c), n), dtype=rows.dtype)  # [position, family, row]
    perms[:, :m] = squares.transpose(1, 2, 0)
    perms[:, m:2 * m] = squares.transpose(0, 2, 1)
    if k > 3:
        # where[u, c - 3, s]: the row u * n + v with L_c[u, v] = s; zero rows
        # stand in where row u of L_c repeats a symbol, and then family
        # (1, c) is refused first
        where = np.zeros((n, k - 3, n), dtype=np.intp)
        where.reshape(-1)[grid[:, :, 2:k - 1].transpose(0, 2, 1)
                          + np.arange(0, where.size, n).reshape(n, k - 3, 1)] = (
            np.arange(n * n).reshape(n, 1, n))
        found = rows.take(where, axis=0)  # [u, c - 3, s, column - 1]
        f = 2 * m
        for col in range(3, k):
            perms[:, f:f + k - col] = found[:, col - 3, :, col:].transpose(0, 2, 1)
            f += k - col
    try:
        par = parity_batch(perms.reshape(n, len(c) * n).T)
    except PermutationError as exc:
        fam = exc.row // n
        raise _not_orthogonal(rows, n, int(c[fam]), int(j[fam])) from None
    d = np.zeros((k + 1, k + 1), dtype=np.uint8)
    d[c, j] = par.reshape(len(c), n).sum(axis=1) & 1
    return d


def _stored_sigma(rows: np.ndarray, n: int) -> StandardSigma:
    """The sigma-parity of OA rows in storage order whose columns 1 and 2
    are orthogonal; ``OrthogonalityError`` if another pair is not.

    Stored rows are sorted on columns 1 and 2, so sigma_12 is the identity
    and the stored sigma is the standardised one.
    """
    up = _sigma_upper(_fixed_column_bits(rows, n), n % 4)
    return StandardSigma.from_upper(rows.shape[1], n % 4, up, n=n)


@lru_cache(maxsize=256)
def sigma_parity(a: OrthogonalArray) -> StandardSigma:
    """The sigma-parity of an orthogonal array at its stored row order, read
    when the array was built."""
    return a._sigma


@lru_cache(maxsize=256)
def tau_parity(a: OrthogonalArray) -> TauVector:
    """The tau-parity of an orthogonal array, derived from its sigma-parity."""
    return tau_from_sigma(sigma_parity(a))


# ---------------------------------------------------------------------------
# conversions


def _read_fixed_columns(bits: np.ndarray) -> np.ndarray:
    """d[c, j] = tau^c_{w(c) j} of a (k+1)^3 tau bit array; d[c, w(c)] = 0."""
    d = bits[:, 1].copy()
    d[1] = bits[1, 2]
    return d


def _sigma_upper(d: np.ndarray, nmod4: int) -> np.ndarray:
    """The standardised sigma that d determines, in the entries i < j:
    sigma_1j = d[1,j], sigma_2j = d[2,j] + C(n,2) and sigma_ij = d[1,i] +
    d[i,j] + C(n,2) for 3 <= i < j."""
    kk = binom2_bit(nmod4)
    up = np.zeros_like(d)
    up[1, 3:] = d[1, 3:]
    up[2, 3:] = d[2, 3:] ^ kk
    up[3:, 3:] = np.triu(d[1, 3:, None] ^ d[3:, 3:] ^ kk, 1)
    return up


def tau_from_sigma(s: SigmaMatrix) -> TauVector:
    """tau^c_{ij} = sigma_ci + sigma_cj; complements map to the same vector.

    The vector carries ``standardise(s)`` for ``sigma_from_tau``: it is
    plausible by construction, additivity by the formula and the triple law
    by the transpose law of s.
    """
    t = TauVector(k=s.k, nmod4=s.nmod4, bits=s.m[:, :, None] ^ s.m[:, None, :], n=s.n)
    object.__setattr__(t, "_sigma", standardise(s))
    return t


def sigma_from_tau(t: TauVector) -> StandardSigma:
    """The standardised sigma-parity determined by a plausible tau, and the
    one plausibility gate: the sigma it carries if ``tau_from_sigma`` built
    it or an earlier call read it, else read off it once ``check_plausible``
    has passed, and kept on it.  Plausible taus and standardised sigmas are
    in bijection, so a tau needs at most one plausibility pass."""
    if t._sigma is not None:
        return t._sigma
    report = check_plausible(t)
    if not report.plausible:
        kind, witness = report.violations[0]
        raise OAError(f"tau vector is not plausible: {kind} violated at {witness}")
    up = _sigma_upper(_read_fixed_columns(t.bits), t.nmod4)
    object.__setattr__(t, "_sigma", StandardSigma.from_upper(t.k, t.nmod4, up, n=t.n))
    return t._sigma


def standard_sigma(x: OrthogonalArray | TauVector | SigmaMatrix) -> StandardSigma:
    """The standardised sigma of an array (the one it stores), of a tau
    (``sigma_from_tau``, the one plausibility gate) or of a sigma matrix
    (``standardise``): the one state the census and the graphs read."""
    if isinstance(x, OrthogonalArray):
        return sigma_parity(x)
    return sigma_from_tau(x) if isinstance(x, TauVector) else standardise(x)


# ---------------------------------------------------------------------------
# plausibility


def _triple_mask(k: int) -> np.ndarray:
    """Read-only mask of the column triples 1 <= c1 < c2 < c3 <= k of a
    (k+1)^3 array.  The square on such a triple has its row, column and
    symbol bits at [c1, c2, c3] of ``bits``, ``bits.transpose(1, 0, 2)``
    and ``bits.transpose(1, 2, 0)``, tau's three zero-copy views.  Built
    per call: a cache would keep (k+1)^3 bytes for every k ever seen."""
    up = np.triu(_off_diagonal(k))  # 1 <= i < j <= k
    mask = up[:, :, None] & up[None, :, :]
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class PlausibilityReport:
    """Outcome of the structural constraints on a tau vector.

    ``pp_plausible`` is "na" unless the vector is a plane candidate
    (k = n+1 with n known); plausibility itself needs only n mod 4.
    ``violations`` holds the first offending witness per constraint.
    """

    plausible: bool
    pp_plausible: str
    violations: list = field(default_factory=list)


def check_plausible(t: TauVector) -> PlausibilityReport:
    """Check index symmetry, fixed-column additivity and the triple law: the
    pass behind ``sigma_from_tau``, the one gate, and the violation lister
    and reference; a plausible tau's plane verdict is read off its sigma,
    ``SigmaMatrix.pp_plausible``.

    Symmetry holds by construction of ``TauVector.bits``.  The triple law
    is the Latin-square law r + c + s = C(n, 2) mod 2 ("any two parities
    determine the third") on every square of the ensemble: the square on
    columns c1 < c2 < c3 has row, column and symbol bits tau^{c1}_{c2c3},
    tau^{c2}_{c1c3} and tau^{c3}_{c1c2}; its witness is the first triple
    that breaks it, in lexicographic order.  For plane candidates
    (k = n+1) the over-columns sum rule for each pair is also evaluated
    from the tau bits and reported as ``pp_plausible``.
    """
    k = t.k
    kk = binom2_bit(t.nmod4)
    full = t.bits
    violations = []

    # tau^c_{ij} = tau^c_{wi} + tau^c_{wj}, w = w(c): the first column, and
    # its first pair, whose tau-graph is not an isolated c plus the complete
    # bipartite graph with sides read off d[c]
    d = _read_fixed_columns(full)
    bad = (full ^ d[:, :, None] ^ d[:, None, :]) & _canonical_mask(k)
    if bad.any():
        violations.append(("additivity", tuple(np.argwhere(bad)[0].tolist())))

    # r + c + s = C(n,2) on the square of every triple c1 < c2 < c3
    square_sum = full ^ full.transpose(1, 0, 2) ^ full.transpose(1, 2, 0)
    bad3 = (square_sum != kk) & _triple_mask(k)
    if bad3.any():
        c1, c2, c3 = np.argwhere(bad3)[0]
        violations.append(("triple", (int(c1), int(c2), int(c3))))

    plausible = not violations

    pp = "na"
    if t.n is not None and t.k == t.n + 1:
        sums = full[1:].sum(axis=0) & 1
        badpp = (sums != kk) & np.triu(_off_diagonal(k))
        if badpp.any():
            i, j = np.argwhere(badpp)[0]
            violations.append(("pp", (int(i), int(j))))
            pp = "no"
        else:
            pp = "yes" if plausible else "no"

    return PlausibilityReport(plausible=plausible, pp_plausible=pp, violations=violations)


# ---------------------------------------------------------------------------
# transformation laws


def transform_parity_laws(a: OrthogonalArray, t: Transform) -> tuple[TauVector, StandardSigma]:
    """Predicted tau and sigma of the stored result of ``apply_transform``:
    the two switching operations of ``act_permute`` and ``act_swap``.

    Row permutations leave the stored array, hence both parities,
    unchanged.  A column relabelling g relabels sigma's indices, and the
    re-sort into storage order, by columns g^-1(1), g^-1(2), is a
    permutation of parity sigma_{g^-1(1) g^-1(2)}, the relabelled (1,2)
    entry: exactly the complement ``standardise`` applies, so the stored
    sigma is ``act_permute(sigma, g)``.  A symbol permutation gamma in
    column c adds n * parity(gamma) to the sigma entries in row and column
    c, a swap at {c} when n and gamma are both odd; for c = 1 or 2 the
    re-sort moves n blocks of n rows, or permutes within each of n blocks,
    by gamma, parity n * parity(gamma), the flipped (1,2) entry, so again
    the complement ``standardise`` applies: the stored sigma is
    ``act_swap(sigma, (c,))``.  Any other transform keeps the stored order
    and the sigma.  The predicted tau is ``tau_from_sigma`` of the
    predicted sigma.  The transform is not applied; the test suite asserts
    these predictions against recomputation.
    """
    _check_transform(a, t)
    sigma = sigma_parity(a)
    if t.kind == "columns":
        sigma = act_permute(sigma, t.perm)
    elif t.kind == "symbols" and a.n & permutation_parity(t.perm):
        sigma = act_swap(sigma, (t.column,))
    return tau_from_sigma(sigma), sigma
