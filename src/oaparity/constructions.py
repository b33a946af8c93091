"""Explicit generators of arrays and sigma matrices with known parity.

Three families of artefacts:

* linear MOLS over GF(q) and the OA(q+1, q) they span (the classical
  plane construction; for prime q the squares are lam*r + c mod q);
* an OA(5, n) family for primes n = 3 mod 4 built from the squares with
  multipliers a, a^2, a^3, where consecutive elements a-1, a, a+1 have a
  prescribed quadratic-residue pattern -- the two patterns land in the two
  switching classes that exist for k=5, odd n = 3 mod 4;
* sigma matrices with prescribed ensemble statistics: the block-diagonal
  tournament meeting the equiparity lower bound, the circulant meeting the
  equiparity maximum, the lower-triangular matrix with no equiparity squares
  at all, and free-bit completions that satisfy the plane degree conditions.

An array is built straight from its formula: the grid columns r and c of
the n^2 cells (r, c) in row-major order, then one column per square, its
formula evaluated on the grid, all passed to ``OrthogonalArray`` in one
call.  That call's kernel pass is the one check that every square is Latin
and every two are orthogonal; no square is built or checked on its own.
A sigma matrix is written above its diagonal only and completed by the
transpose law, ``SigmaMatrix.from_upper``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OAError, OrthogonalArray, _least_prime_factor, field_table
from .parity import (SigmaMatrix, StandardSigma, TauVector, _check_shape, free_pairs,
                     plausible_types, sigma_from_tau)


def linear_mols(q: int) -> OrthogonalArray:
    """The OA(q+1, q) of the squares L_lam[r, c] = lam*r + c over GF(q),
    lam = 1..q-1: the column f.add[f.mul[lam, r], c] per multiplier beside
    the grid columns r and c."""
    f = field_table(q)
    r, c = np.divmod(np.arange(q * q, dtype=np.int32), q)
    squares = [f.add[f.mul[lam, r], c] for lam in range(1, q)]
    return OrthogonalArray(np.column_stack([r, c] + squares))


# ---------------------------------------------------------------------------
# quadratic-residue OA(5, n) family


def is_prime(n: int) -> bool:
    return n >= 2 and _least_prime_factor(n) == n


def is_quadratic_residue(x: int, n: int) -> bool:
    """Euler criterion for odd prime n; x must not be 0 mod n."""
    x %= n
    if x == 0:
        raise OAError("0 is neither a residue nor a non-residue")
    return pow(x, (n - 1) // 2, n) == 1


PATTERNS = ("nnn", "rnr")

MAX_RESIDUE_ORDER = 1024


def residue_pattern(n: int, a: int) -> str:
    """The residuosity of a-1, a, a+1 mod the odd prime n, 'r' for a residue
    and 'n' for a non-residue, for 2 <= a <= n-2.  The two patterns of
    ``PATTERNS``, three consecutive non-residues and residue, non-residue,
    residue, both occur for every prime n = 3 mod 4 with n >= 11."""
    return "".join("r" if is_quadratic_residue(a + d, n) else "n" for d in (-1, 0, 1))


def qualifying_values(n: int, pattern: str) -> list[int]:
    """All a in [2, n-2] whose ``residue_pattern`` is ``pattern``."""
    return [a for a in range(2, n - 1) if residue_pattern(n, a) == pattern]


def residue_pattern_oa(n: int, pattern: str, a: int | None = None) -> OrthogonalArray:
    """OA(5, n) from the squares (lam*r + c) mod n, lam = a, a^2, a^3 mod n.

    n must be a prime = 3 mod 4 with 11 <= n <= ``MAX_RESIDUE_ORDER``; the
    bound is checked first, before the primality test and the scan for a.
    The least qualifying a is chosen when none is given; the resulting tau
    vector depends only on the pattern, not on the choice of a.
    """
    if n > MAX_RESIDUE_ORDER:
        raise OAError(f"residue order {n} exceeds the supported maximum {MAX_RESIDUE_ORDER}")
    if not is_prime(n) or n % 4 != 3 or n < 11:
        raise OAError(f"need a prime n = 3 mod 4 with n >= 11, got {n}")
    if pattern not in PATTERNS:
        raise OAError(f"pattern must be one of {PATTERNS}")
    if a is None:
        a = qualifying_values(n, pattern)[0]
    elif not 2 <= a <= n - 2:
        raise OAError(f"a={a} out of range 2..{n - 2}")
    elif residue_pattern(n, a) != pattern:
        raise OAError(f"a={a} does not match pattern {pattern} mod {n}")
    r, c = np.divmod(np.arange(n * n, dtype=np.int32), n)
    squares = [(lam * r + c) % n for lam in (a, a * a % n, a ** 3 % n)]
    return OrthogonalArray(np.column_stack([r, c] + squares))


# ---------------------------------------------------------------------------
# sigma matrices with prescribed properties


def _force_last_column(n: int, upper: np.ndarray, first: int, delta) -> StandardSigma:
    """Complete an upper triangle on k = n+1 columns to a standardised sigma
    whose rows first..n have parity ``delta`` (None: the parity of row 1),
    by setting their entries in the last column.  Row k then has parity
    ``delta`` too whenever rows 1..first-1 do and k * delta has the parity
    of the degree sum (C(k,2) for a tournament, even for a graph), so the
    completion meets the plane conditions."""
    k, nmod4 = n + 1, n % 4
    m = SigmaMatrix.from_upper(k, nmod4, upper).m
    if delta is None:
        delta = int(m[1, 1:].sum() & 1)
    upper = upper.copy()
    upper[first:k, k] = (m[first:k, 1:k].sum(axis=1) & 1) ^ delta
    return StandardSigma.from_upper(k, nmod4, upper, n=n)


def pp_plausible_sigma(n: int, free_bits) -> StandardSigma:
    """Complete free upper-triangle bits to a plane-plausible sigma, k = n+1.

    The bits fill pairs (i, j) with 1 <= i < j <= n in lexicographic order,
    skipping the pinned (1,2) entry; for odd n one extra bit sets the
    (1, n+1) entry.  The last column is then forced so every vertex's
    (out-)degree has one parity: zero for n = 0 mod 4, one for n = 2 mod 4,
    and the parity the free bits imply for odd n.  Every completion passes
    the plane-plausibility check; there are 2^C(n,2) of them for odd n and
    2^(C(n,2)-1) for even n.  A bit other than 0 or 1 is refused.
    """
    if n < 2:
        raise OAError(f"need n >= 2, got {n}")
    k = n + 1
    nmod4 = n % 4
    bits = list(free_bits)
    bad = [b for b in bits if b not in (0, 1)]
    if bad:
        raise OAError(f"free bit must be 0 or 1, got {bad[0]!r}")
    expected = n * (n - 1) // 2 - 1 + (n % 2)
    if len(bits) != expected:
        raise OAError(f"need {expected} free bits for n={n}, got {len(bits)}")
    upper = np.zeros((k + 1, k + 1), dtype=np.uint8)
    i, j = free_pairs(n)
    upper[i, j] = bits[: len(i)]
    if n % 2:
        upper[1, k] = bits[-1]
        return _force_last_column(n, upper, first=2, delta=None)
    # every degree even for n = 0 mod 4, odd for n = 2 mod 4
    return _force_last_column(n, upper, first=1, delta=nmod4 // 2)


def block_sizes(n: int) -> tuple[int, ...]:
    """Diagonal block layout of the extremal tournament on k = n+1 vertices."""
    if n % 4 == 2:
        return ((n - 2) // 4) * (4,) + (3,)
    if n % 4 == 3:
        return ((n + 1) // 4) * (4,)
    raise OAError(f"need n = 2,3 mod 4, got {n}")


def block_sigma(n: int) -> SigmaMatrix:
    """Block-diagonal tournament on k = n+1 vertices, ones above the blocks.

    Above the diagonal a block is all ones but its first two superdiagonal
    entries, so a block of 3 is the cyclic triangle and a block of 4 that
    triangle with a sink added: one cyclic triangle, one equiparity square,
    per block, ceil(n/4) in all, the minimum for a plane candidate with
    n = 2,3 mod 4.  The transpose law fills the rest.
    """
    sizes = block_sizes(n)
    if n < 2:
        raise OAError(f"need n >= 2, got {n}")
    k = n + 1
    upper = np.ones((k + 1, k + 1), dtype=np.uint8)
    starts = np.cumsum((1,) + sizes[:-1])
    upper[starts, starts + 1] = 0
    upper[starts + 1, starts + 2] = 0
    return SigmaMatrix.from_upper(k, n % 4, upper, n=n)


def circulant_sigma(n: int) -> StandardSigma:
    """Circulant sigma on k = n+1: pair (i, j), i < j, is 0 when the least
    non-negative residue of j - i mod n lies in [1, n/2].

    Every tau-graph of the result is an isolated vertex plus the complete
    bipartite graph with sides floor(n/2) and ceil(n/2), so the ensemble
    meets the equiparity maximum.  The plane degree condition holds for
    n = 2 mod 4; for n = 3 mod 4 the literal formula yields mixed in-degree
    parities and the plausibility checker reports the vector as not
    plane-plausible (callers should consult the checker rather than assume).
    """
    if n % 4 not in (2, 3):
        raise OAError(f"need n = 2,3 mod 4, got {n}")
    if n < 2:
        raise OAError(f"need n >= 2, got {n}")
    k = n + 1
    i, j = np.indices((k + 1, k + 1))
    d = (j - i) % n
    upper = (d < 1) | (d > n // 2)
    return StandardSigma.from_upper(k, n % 4, upper, n=n)


def lower_triangular_sigma(k: int, nmod4: int) -> SigmaMatrix:
    """All ones strictly below the diagonal; ensemble with zero equiparity.

    The induced tau bits are tau^c_{ij} = 1 exactly when i < c < j, so each
    column triple contributes exactly one odd component and no square in the
    ensemble is equiparity.  Requires n = 2,3 mod 4: the upper triangle is
    zero, and the transpose law fills the lower one with ones.
    """
    _check_shape(k, nmod4, None)
    if nmod4 not in (2, 3):
        raise OAError(f"lower-triangular sigma needs n = 2,3 mod 4, got nmod4={nmod4}")
    return SigmaMatrix.from_upper(k, nmod4, np.zeros((k + 1, k + 1), dtype=np.uint8))


# ---------------------------------------------------------------------------
# feasible parity-type counts of a complete set of MOLS


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: StandardSigma | None = None


def feasible_type_counts(n: int, z: int, y1: int, y2: int, y3: int) -> FeasibilityResult:
    """Whether n-1 squares of a complete set can have the given type counts.

    z counts the equiparity type and y1, y2, y3 the other three types, in
    the order of ``plausible_types``: (111, 100, 010, 001) for n = 2,3 mod 4
    and (000, 011, 101, 110) for n = 0,1 mod 4.  The type of the square on
    columns 1, 2, c is determined by the pair (sigma_1c, sigma_2c), read at
    column 3 off the sigma of the type's OA(3, n) (``TauVector.of_type``),
    so the counts fix rows 1 and 2 of a standardised sigma up to the order
    of the columns.  The witness takes the types in the order given, gives
    rows 3..n the degree parity of row 1 through their last-column entries
    and sets every other free bit to zero; the degree sum then fixes row k.  A
    plane-plausible sigma with these rows exists exactly when the witness
    is one (``SigmaMatrix.pp_plausible``), which is returned then.
    """
    if n < 2:
        raise OAError(f"need n >= 2, got {n}")
    if min(z, y1, y2, y3) < 0:
        raise OAError("counts must be non-negative")
    if z + y1 + y2 + y3 != n - 1:
        return FeasibilityResult(False)
    heads = [sigma_from_tau(TauVector.of_type(ty, n)).m[1:3, 3] for ty in plausible_types(n % 4)]
    k = n + 1
    upper = np.zeros((k + 1, k + 1), dtype=np.uint8)
    upper[1:3, 3:] = np.repeat(heads, (z, y1, y2, y3), axis=0).T
    witness = _force_last_column(n, upper, first=3, delta=None)
    if witness.pp_plausible != "yes":
        return FeasibilityResult(False)
    return FeasibilityResult(True, witness)
