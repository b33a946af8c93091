"""Permutations, finite fields, Latin squares and orthogonal arrays.

Conventions used throughout the package:

* symbols are 0-based: the alphabet of size n is [0, n-1];
* columns of an orthogonal array are 1-based, matching the usual
  indexing of column pairs and triples in the combinatorics literature;
* an OA(k, n) is stored with its n^2 rows sorted lexicographically, so
  the row whose first two entries are (u, v) sits at position u*n + v.
  Every pair of columns of a valid array contains every ordered symbol
  pair exactly once, hence the first two columns of the sorted storage
  enumerate [0,n-1]^2 in order.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class OAError(ValueError):
    """Invalid square/array data, or an operation applied out of domain."""


class OrthogonalityError(OAError):
    """A pair of columns (or squares) repeats an ordered symbol pair."""

    def __init__(self, msg: str, pair=None, repeated=None):
        super().__init__(msg)
        self.pair = pair          # offending pair of columns or square indices
        self.repeated = repeated  # a repeated ordered symbol pair


class PermutationError(OAError):
    """A row given to ``parity_batch`` as a permutation is not one."""

    def __init__(self, msg: str, row: int):
        super().__init__(msg)
        self.row = row  # the first such row of the batch


class ResourceLimitError(OAError):
    """An enumeration exceeded its configured memory budget."""


class UsageError(OAError):
    """A setting the caller controls (such as an environment variable) is invalid."""


# ---------------------------------------------------------------------------
# permutations


def permutation_parity(images) -> int:
    """Parity bit of a permutation given as the images of 0..n-1, any
    iterable of ints: 0 for even, 1 for odd, by ``parity_batch`` on a
    one-row batch.  A sequence that is not a permutation of 0..n-1 raises
    the kernel's OAError."""
    return int(parity_batch(np.fromiter(map(int, images), dtype=np.int64)[None])[0])


# elements per chunk: at 2^16 the chunk's words take 128 KiB for n <= 16,
# 256 KiB for n <= 32 and 512 KiB beyond.  On one batch of each shape the
# arrays benchmark passes (lengths 16 to 59), best of 15 interleaved on a
# 2-core host, 2^14..2^18 took 7.9, 6.2, 5.3, 5.3 and 7.4 ms
_KERNEL_CHUNK = 1 << 16


def parity_batch(perms: np.ndarray) -> np.ndarray:
    """Parity bits of many permutations at once: their inversion counts mod 2.

    ``perms`` has shape (m, n), each row a permutation of 0..n-1, in any
    integer dtype and memory layout.  For n <= 64 each row is swept once,
    with one word ``seen`` per row: after position t, bit v of seen marks
    the values at positions <= t, so ``(seen >> x_t) >> 1`` marks the
    earlier values greater than x_t.  As popcount(a) + popcount(b) =
    popcount(a ^ b) (mod 2), the parity is the popcount parity of the XOR
    of those words over t, which a fold by halves of the word gives.  The
    word has 16 bits for n <= 16, 32 for n <= 32 and 64 otherwise, and the
    values, cast to it, are the shift counts themselves.

    Longer rows take radix-64 levels on 64-bit words: level l keeps one
    word per value prefix x >> 6(l+1) and sets bit (x >> 6l) & 63 in it,
    so an earlier x' > x is counted at exactly one level, the highest where
    their digits differ; n <= 64 is the one-level case.  A level's words
    are running XORs down the row's elements grouped by prefix, in position
    order (a stable sort), and each row is padded with n, n+1, ... up to
    whole groups, which adds no inversion.

    A row that is not a permutation is refused: ``PermutationError`` names
    the first one.  For n <= 64 the check is free, as the running XOR of
    1 << x at a row's last position has all n low bits set exactly when
    each value occurs an odd number of times, so once.  Longer rows are
    checked the same way in each radix-64 window of level 0, whose values
    must also have the window's index as their sorted prefix x >> 6;
    without that, [0..63, 0..63] would pass at n = 128.

    The sweep is one numpy pass per position over all rows of a chunk of
    about ``_KERNEL_CHUNK`` elements, so memory stays flat for any batch
    size.  With a pass per position, long rows in small batches are slow:
    36 rows of length 65 take about 4x, and 64 rows of length 4097 (padded
    to 8192) about 10x, the time of pointer jumping, whose ceil(log2 n)
    passes each cover the whole chunk.  The callers send long rows too:
    an ``OrthogonalArray``'s family pass (``parity._fixed_column_bits``)
    and ``latin_square_parities`` send rows of length n, the array's order,
    which reaches 1 019 for ``residue_pattern_oa``, and
    ``permutation_parity`` one row, of length n^2 for the row permutation
    of ``apply_transform``.  Tests compare it with two oracles, cycle
    following and inversion counting.
    """
    perms = np.asarray(perms)
    if perms.ndim != 2:
        raise OAError("parity_batch expects a 2-d array of permutations")
    m, n = perms.shape
    out = np.zeros(m, dtype=np.uint8)
    if n == 0:
        return out
    levels = max(1, -(-(n - 1).bit_length() // 6))
    unit = 64 ** (levels - 1)
    width = -(-n // unit) * unit  # n padded to whole groups of every level
    bits = 16 if width <= 16 else 32 if width <= 32 else 64
    word = np.dtype(f"uint{bits}")
    # one level takes the values as digits; more keep them narrow to sort
    dtype = word if levels == 1 else np.min_scalar_type(width - 1)
    rows = max(1, _KERNEL_CHUNK // width)
    one = word.type(1)
    for lo in range(0, m, rows):
        block = perms[lo:lo + rows]
        if block.min() < 0 or block.max() >= n:
            raise OAError(f"parity_batch entries must lie in [0, {n - 1}]")
        b = len(block)
        # positions down, rows across, so a position is one contiguous row
        x = np.empty((width, b), dtype=dtype)
        x[:n] = block.T
        x[n:] = np.arange(n, width, dtype=dtype)[:, None]
        acc = np.zeros(b, dtype=word)
        for level in reversed(range(levels)):
            if level < levels - 1:
                # group by the prefix above this level, keeping position order
                order = np.argsort(x >> (6 * level + 6), axis=0, kind="stable")
                x = np.take_along_axis(x, order, axis=0)
            digit = x if levels == 1 else ((x >> (6 * level)) & 63).astype(word)
            seen = np.left_shift(one, digit)
            size = min(64 ** (level + 1), width)
            steps = list(seen.reshape(width // size, size, b).swapaxes(0, 1))
            for prev, cur in zip(steps, steps[1:]):
                np.bitwise_xor(cur, prev, out=cur)
            if level == 0:
                # each window holds every digit once, and only its own prefix
                ok = steps[-1] == word.type((1 << size) - 1)  # windows x rows
                if levels > 1:
                    prefix = (x >> 6) == (np.arange(width) >> 6)[:, None]
                    ok &= prefix.reshape(width // size, size, b).all(axis=1)
                if not ok.all():
                    row = lo + int(np.argmin(ok.all(axis=0)))
                    raise PermutationError(
                        f"parity_batch row {row} is not a permutation of 0..{n - 1}", row)
            digit += one
            seen >>= digit
            acc ^= np.bitwise_xor.reduce(seen, axis=0)
        shift = bits // 2
        while shift:
            acc ^= acc >> word.type(shift)
            shift //= 2
        out[lo:lo + b] = acc & one
    return out


# ---------------------------------------------------------------------------
# finite fields GF(q), q = p^e <= 32

# fixed irreducible polynomial per extension field, coefficients ascending
# degree and monic; any irreducible choice gives an isomorphic field, fixing
# one makes every construction bit-reproducible
_IRREDUCIBLE = {
    4: (1, 1, 1),            # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),         # x^3 + x + 1 over GF(2)
    9: (1, 0, 1),            # x^2 + 1 over GF(3)
    16: (1, 1, 0, 0, 1),     # x^4 + x + 1 over GF(2)
    25: (2, 0, 1),           # x^2 + 2 over GF(5)
    27: (1, 2, 0, 1),        # x^3 + 2x + 1 over GF(3)
    32: (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1 over GF(2)
}

MAX_FIELD_ORDER = 32


def _prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, p prime; raise OAError otherwise."""
    if q < 2:
        raise OAError(f"field order must be at least 2, got {q}")
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q  # q itself is prime
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise OAError(f"{q} is not a prime power")
    return p, e


@dataclass(frozen=True, eq=False)
class FieldTable:
    """Addition/multiplication tables of GF(q).

    Element labels are 0..q-1 with 0 the additive and 1 the multiplicative
    identity.  Label x encodes the polynomial whose coefficients are the
    base-p digits of x (least significant digit = constant term), a
    constant for e = 1.
    """

    q: int
    p: int
    e: int
    add: np.ndarray
    mul: np.ndarray


def field_table(q: int) -> FieldTable:
    """Build GF(q) tables for a prime power q <= 32.

    Label x is the polynomial whose coefficients are its base-p digits, so
    addition adds digits mod p, and mul[x, y] = sum_i x_i * (t^i * y): each
    t^i * y is y's digits shifted once more and reduced by the fixed
    irreducible polynomial.  For a prime nothing is shifted, and the
    formula is xy mod p.  The tables are not checked here: there are 18 of
    them, and the tests check the field axioms on each.
    """
    p, e = _prime_power(q)
    if q > MAX_FIELD_ORDER:
        raise OAError(f"field order {q} exceeds the supported maximum {MAX_FIELD_ORDER}")
    weight = p ** np.arange(e)
    digits = np.arange(q)[:, None] // weight % p  # [x, i]
    powers = [digits]  # [i][y]: the digits of t^i * y
    for _ in range(1, e):
        shifted = np.pad(powers[-1], ((0, 0), (1, 0)))  # times t, degree e last
        powers.append((shifted - shifted[:, -1:] * _IRREDUCIBLE[q])[:, :e] % p)
    add = ((digits[:, None] + digits[None, :]) % p @ weight).astype(np.int16)
    mul = (np.einsum("xi,iyj->xyj", digits, np.stack(powers)) % p @ weight).astype(np.int16)
    add.setflags(write=False)
    mul.setflags(write=False)
    return FieldTable(q=q, p=p, e=e, add=add, mul=mul)


# ---------------------------------------------------------------------------
# Latin squares


def _narrow_symbols(arr: np.ndarray, n: int) -> np.ndarray:
    """``arr`` as int16 after checking that it holds integers in [0, n).

    The check runs on the array as given, so a value that int16 cannot hold
    (40000, 65536, 2**70) is rejected instead of overflowing or wrapping.
    """
    if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= n):
        raise OAError(f"symbols must be integers in [0, {n - 1}]")
    return arr.astype(np.int16, copy=False)


class LatinSquare:
    """An n x n square over symbols 0..n-1, each once per row and column."""

    __slots__ = ("n", "cells")

    def __init__(self, cells):
        arr = np.array(cells)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise OAError(f"square must be n x n, got shape {arr.shape}")
        n = arr.shape[0]
        arr = _narrow_symbols(arr, n)
        idx = np.arange(n, dtype=np.int16)
        if not np.array_equal(np.sort(arr, axis=1), np.tile(idx, (n, 1))):
            raise OAError("some row is not a permutation of 0..n-1")
        if not np.array_equal(np.sort(arr, axis=0), np.tile(idx[:, None], (1, n))):
            raise OAError("some column is not a permutation of 0..n-1")
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cells", arr)

    @classmethod
    def _unchecked(cls, arr: np.ndarray) -> "LatinSquare":
        """Wrap an n x n int16 array that is Latin by construction, skipping
        the checks of the public constructor."""
        square = object.__new__(cls)
        arr.setflags(write=False)
        object.__setattr__(square, "n", arr.shape[0])
        object.__setattr__(square, "cells", arr)
        return square

    def __setattr__(self, name, value):
        raise AttributeError("LatinSquare is immutable")

    def key(self) -> tuple:
        """Flattened cell tuple; defines the lexicographic order on squares."""
        return tuple(int(x) for x in self.cells.ravel())

    def __eq__(self, other):
        return isinstance(other, LatinSquare) and np.array_equal(self.cells, other.cells)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"LatinSquare(n={self.n})"


def cyclic_square(n: int) -> LatinSquare:
    """The addition table of the integers mod n: cells[i, j] = i + j."""
    idx = np.arange(n)
    return LatinSquare((idx[:, None] + idx[None, :]) % n)


# ---------------------------------------------------------------------------
# orthogonal arrays


def _not_orthogonal(arr: np.ndarray, n: int, i: int, j: int) -> OrthogonalityError:
    """The error for columns i < j (1-based) of ``arr``, which repeat an
    ordered symbol pair: it names the least repeated one."""
    codes = arr[:, i - 1].astype(np.int32) * n + arr[:, j - 1]
    u, v = divmod(int(np.argmax(np.bincount(codes, minlength=n * n) > 1)), n)
    return OrthogonalityError(
        f"columns {i} and {j} repeat the ordered pair ({u}, {v})",
        pair=(i, j),
        repeated=(u, v),
    )


def _storage_order(arr: np.ndarray, n: int) -> np.ndarray:
    """The row order that sorts ``arr`` on the single key col1 * n + col2.

    Where columns 1 and 2 are orthogonal the keys are distinct, so this is
    the lexicographic order on all columns; where they are not,
    ``OrthogonalArray`` refuses the array whatever its row order.
    """
    return np.argsort(arr[:, 0].astype(np.int32) * n + arr[:, 1])


class OrthogonalArray:
    """An OA(k, n): n^2 rows of k symbols, every column pair orthogonal.

    Rows are sorted into lexicographic storage order on construction;
    3 <= k <= n+1 is enforced.  Columns 1 and 2 are orthogonal when the
    sorted keys col1 * n + col2 are 0..n^2 - 1.  Every other pair is checked
    by the pass that reads the array's sigma-parity off the kernel
    (``parity._stored_sigma``), and the array keeps that sigma for
    ``sigma_parity``.  An ``OrthogonalityError`` names the first failing
    pair in lexicographic order and its least repeated symbol pair.  The
    hash, which the parity caches take on every lookup, is computed once.
    """

    __slots__ = ("k", "n", "rows", "_sigma", "_hash")

    def __init__(self, rows):
        from .parity import _stored_sigma  # parity imports this module

        arr = np.array(rows)
        if arr.ndim != 2:
            raise OAError(f"array must be 2-d, got shape {arr.shape}")
        m, k = arr.shape
        n = math.isqrt(m)
        if n * n != m:
            raise OAError(f"row count {m} is not a perfect square")
        if not 3 <= k <= n + 1:
            raise OAError(f"need 3 <= k <= n+1, got k={k}, n={n}")
        arr = _narrow_symbols(arr, n)
        arr = arr[_storage_order(arr, n)]
        if not np.array_equal(arr[:, 0].astype(np.int32) * n + arr[:, 1], np.arange(m)):
            raise _not_orthogonal(arr, n, 1, 2)
        arr.setflags(write=False)
        object.__setattr__(self, "_sigma", _stored_sigma(arr, n))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", arr)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("OrthogonalArray is immutable")

    def __eq__(self, other):
        return isinstance(other, OrthogonalArray) and np.array_equal(self.rows, other.rows)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.k, self.n, self.rows.tobytes())))
        return self._hash

    def __repr__(self):
        return f"OrthogonalArray(k={self.k}, n={self.n})"


def mols_to_oa(squares) -> OrthogonalArray:
    """Assemble an OA(k, n) from a list of k-2 pairwise orthogonal squares.

    Column 1 is the row index, column 2 the column index, column i+2 holds
    the entries of the i-th square.  A set (rather than a list) is first
    sorted lexicographically to fix the column order.
    """
    if isinstance(squares, (set, frozenset)):
        squares = sorted(squares, key=LatinSquare.key)
    squares = list(squares)
    if not squares:
        raise OAError("need at least one square")
    n = squares[0].n
    if any(s.n != n for s in squares):
        raise OAError("squares must share one order")
    idx = np.arange(n, dtype=np.int16)
    grid_r = np.repeat(idx, n)
    grid_c = np.tile(idx, n)
    cols = [grid_r, grid_c] + [s.cells.ravel() for s in squares]
    try:
        return OrthogonalArray(np.column_stack(cols))
    except OrthogonalityError as exc:
        # rows and columns are Latin, so the first failing pair is two squares
        a, b = exc.pair[0] - 2, exc.pair[1] - 2
        u, v = exc.repeated
        raise OrthogonalityError(
            f"squares {a} and {b} are not orthogonal: pair ({u}, {v}) repeats",
            pair=(a, b),
            repeated=(u, v),
        ) from None


def oa_to_mols(a: OrthogonalArray) -> list[LatinSquare]:
    """The k-2 squares of an OA: square i-2 has cells[u, v] = column i at row
    (u, v).  They are read-only views of the rows, unchecked, as the array's
    kernel pass proved every one of them Latin."""
    n = a.n
    return [LatinSquare._unchecked(a.rows[:, i].reshape(n, n)) for i in range(2, a.k)]


def rows_agree_in_one_column(a: OrthogonalArray) -> bool:
    """Whether every two distinct rows agree in exactly one column.

    Two rows of an OA agree in at most one column, as two agreements would
    repeat a symbol pair.  A row agrees in column c with the n - 1 other
    rows of its symbol class there, so with (n - 1) * k rows in all, out of
    n^2 - 1 = (n - 1)(n + 1): every other row exactly when k = n + 1, the
    plane arrays.
    """
    return a.k == a.n + 1


# ---------------------------------------------------------------------------
# transforms


@dataclass(frozen=True)
class Transform:
    """One relabelling operation on an orthogonal array.

    kind = "rows":    perm maps stored row positions (0-based, length n^2)
    kind = "columns": perm maps column labels (1-based images, length k)
    kind = "symbols": perm maps symbols (0-based, length n) within `column`
    """

    kind: str
    perm: tuple
    column: int | None = None

    def __post_init__(self):
        if self.kind not in ("rows", "columns", "symbols"):
            raise OAError(f"unknown transform kind {self.kind!r}")
        if self.kind == "symbols" and self.column is None:
            raise OAError("symbol transform needs a target column")
        base = 1 if self.kind == "columns" else 0
        if sorted(self.perm) != list(range(base, base + len(self.perm))):
            raise OAError("transform permutation is not a bijection on its domain")


@dataclass(frozen=True)
class TransformResult:
    """A transformed array plus the sort bookkeeping bit.

    ``sort_parity`` is the parity of the row permutation taking the
    logically transformed array back to lexicographic storage order; the
    sigma-parity of the logical array equals the stored sigma-parity plus
    this bit (row order is invisible to tau-parity).
    """

    oa: OrthogonalArray
    sort_parity: int


def _check_transform(a: OrthogonalArray, t: Transform) -> None:
    """Raise OAError unless ``t`` has the length, and for a symbol
    transform the column, that the shape of ``a`` asks for."""
    if t.kind == "rows":
        if len(t.perm) != a.n * a.n:
            raise OAError(f"row permutation must have length {a.n * a.n}")
    elif t.kind == "columns":
        if len(t.perm) != a.k:
            raise OAError(f"column permutation must have length {a.k}")
    else:
        if len(t.perm) != a.n:
            raise OAError(f"symbol permutation must have length {a.n}")
        if not 1 <= t.column <= a.k:
            raise OAError(f"column {t.column} out of range 1..{a.k}")


def apply_transform(a: OrthogonalArray, t: Transform) -> TransformResult:
    _check_transform(a, t)
    mat = a.rows
    if t.kind == "rows":
        # re-sorting restores the identical stored array; only the parity of
        # the logical permutation survives
        return TransformResult(a, permutation_parity(t.perm))
    if t.kind == "columns":
        new = np.empty_like(mat)
        new[:, np.subtract(t.perm, 1)] = mat
    else:
        gamma = np.asarray(t.perm, dtype=np.int16)
        new = mat.copy()
        new[:, t.column - 1] = gamma[mat[:, t.column - 1]]
        if t.column > 2:
            return TransformResult(OrthogonalArray(new), 0)
    order = _storage_order(new, a.n)
    return TransformResult(OrthogonalArray(new), permutation_parity(order))
