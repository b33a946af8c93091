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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LatinSquare, OAError, OrthogonalArray, field_table, mols_to_oa
from .parity import SigmaMatrix, StandardSigma, free_pairs


def linear_mols(q: int) -> OrthogonalArray:
    """The OA(q+1, q) of the squares L_lam[r, c] = lam*r + c over GF(q)."""
    f = field_table(q)
    idx = np.arange(q)
    squares = [
        LatinSquare(f.add[f.mul[lam][:, None], idx[None, :]])
        for lam in range(1, q)
    ]
    return mols_to_oa(squares)


# ---------------------------------------------------------------------------
# quadratic-residue OA(5, n) family


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_quadratic_residue(x: int, n: int) -> bool:
    """Euler criterion for odd prime n; x must not be 0 mod n."""
    x %= n
    if x == 0:
        raise OAError("0 is neither a residue nor a non-residue")
    return pow(x, (n - 1) // 2, n) == 1


PATTERNS = ("nnn", "rnr")


@dataclass(frozen=True)
class ResiduePattern:
    """Element a of Z_n whose neighbours a-1, a, a+1 match a residue pattern.

    "nnn" asks for three consecutive non-residues, "rnr" for
    residue, non-residue, residue.  Both exist for every prime
    n = 3 mod 4 with n >= 11.
    """

    n: int
    a: int
    pattern: str

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise OAError(f"pattern must be one of {PATTERNS}")
        if not (2 <= self.a <= self.n - 2):
            raise OAError(f"a={self.a} out of range 2..{self.n - 2}")
        want = (
            (False, False, False) if self.pattern == "nnn" else (True, False, True)
        )
        got = tuple(is_quadratic_residue(self.a + d, self.n) for d in (-1, 0, 1))
        if got != want:
            raise OAError(
                f"a={self.a} does not match pattern {self.pattern} mod {self.n}"
            )


def qualifying_values(n: int, pattern: str) -> list[int]:
    """All a in [2, n-2] matching the residue pattern."""
    out = []
    for a in range(2, n - 1):
        try:
            ResiduePattern(n=n, a=a, pattern=pattern)
        except OAError:
            continue
        out.append(a)
    return out


def residue_pattern_oa(n: int, pattern: str, a: int | None = None) -> OrthogonalArray:
    """OA(5, n) from the squares with multipliers a, a^2, a^3 mod n.

    n must be a prime = 3 mod 4 with n >= 11.  The least qualifying a is
    chosen when none is given; the resulting tau vector depends only on the
    pattern, not on the choice of a.
    """
    if not is_prime(n) or n % 4 != 3 or n < 11:
        raise OAError(f"need a prime n = 3 mod 4 with n >= 11, got {n}")
    if pattern not in PATTERNS:
        raise OAError(f"pattern must be one of {PATTERNS}")
    if a is None:
        qualifying = qualifying_values(n, pattern)
        if not qualifying:
            raise OAError(f"no qualifying a for pattern {pattern} mod {n}")
        a = qualifying[0]
    else:
        ResiduePattern(n=n, a=a, pattern=pattern)  # validates
    idx = np.arange(n)
    squares = [
        LatinSquare((lam * idx[:, None] + idx[None, :]) % n)
        for lam in (a % n, (a * a) % n, (a * a * a) % n)
    ]
    return mols_to_oa(squares)


# the nine components tau^1_23, tau^1_24, tau^1_25, tau^3_12, tau^4_12,
# tau^4_13, tau^5_12, tau^5_13, tau^5_14 determine the rest of the vector
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
    2^(C(n,2)-1) for even n.
    """
    if n < 2:
        raise OAError(f"need n >= 2, got {n}")
    k = n + 1
    nmod4 = n % 4
    bits = [int(b) & 1 for b in free_bits]
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


_B3 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.uint8)
_B4 = np.array(
    [[0, 0, 1, 1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 0, 0]], dtype=np.uint8
)


def block_sizes(n: int) -> tuple[int, ...]:
    """Diagonal block layout of the extremal tournament on k = n+1 vertices."""
    if n % 4 == 2:
        return ((n - 2) // 4) * (4,) + (3,)
    if n % 4 == 3:
        return ((n + 1) // 4) * (4,)
    raise OAError(f"need n = 2,3 mod 4, got {n}")


def block_sigma(n: int) -> SigmaMatrix:
    """Block-diagonal tournament on k = n+1 vertices, ones above the blocks.

    Its row sums realise the extremal good sequence, so the induced ensemble
    has exactly ceil(n/4) equiparity squares, the minimum possible for a
    plane candidate with n = 2,3 mod 4.
    """
    k = n + 1
    m = np.zeros((k + 1, k + 1), dtype=np.uint8)
    iu = np.triu_indices(k, 1)
    m[iu[0] + 1, iu[1] + 1] = 1
    pos = 1
    for size in block_sizes(n):
        blk = _B4 if size == 4 else _B3
        m[pos:pos + size, pos:pos + size] = blk
        pos += size
    return SigmaMatrix(k=k, nmod4=n % 4, m=m, n=n)


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
    k = n + 1
    i, j = np.indices((k + 1, k + 1))
    d = (j - i) % n
    upper = (d < 1) | (d > n // 2)
    return StandardSigma.from_upper(k, n % 4, upper, n=n)


def lower_triangular_sigma(k: int, nmod4: int) -> SigmaMatrix:
    """All ones strictly below the diagonal; ensemble with zero equiparity.

    The induced tau bits are tau^c_{ij} = 1 exactly when i < c < j, so each
    column triple contributes exactly one odd component and no square in the
    ensemble is equiparity.  Requires n = 2,3 mod 4 (the transpose law forces
    the complementary upper triangle to be zero).
    """
    if nmod4 % 4 not in (2, 3):
        raise OAError(f"lower-triangular sigma needs n = 2,3 mod 4, got nmod4={nmod4}")
    m = np.zeros((k + 1, k + 1), dtype=np.uint8)
    il = np.tril_indices(k, -1)
    m[il[0] + 1, il[1] + 1] = 1
    return SigmaMatrix(k=k, nmod4=nmod4 % 4, m=m)


# ---------------------------------------------------------------------------
# feasible parity-type counts of a complete set of MOLS


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: StandardSigma | None = None


def feasible_type_counts(n: int, z: int, y1: int, y2: int, y3: int) -> FeasibilityResult:
    """Whether n-1 squares of a complete set can have the given type counts.

    z counts the equiparity type and y1, y2, y3 the other three types, in
    the fixed order (111, 100, 010, 001) for n = 2,3 mod 4 and
    (000, 011, 101, 110) for n = 0,1 mod 4.  Feasible counts come with a
    plane-plausible witness sigma whose first two rows encode the pattern
    and whose unconstrained bits are zero.
    """
    if min(z, y1, y2, y3) < 0:
        raise OAError("counts must be non-negative")
    if z + y1 + y2 + y3 != n - 1:
        return FeasibilityResult(False)
    if n % 2 == 0:
        ok = (y1 % 2 == y2 % 2 == y3 % 2) and (y1 % 2 != z % 2)
    elif n % 4 == 1:
        ok = (y1 % 2 == y2 % 2) and (y3 % 2 == z % 2)
    else:
        ok = (y1 % 2 != y2 % 2) and (y3 % 2 != z % 2)
    if not ok:
        return FeasibilityResult(False)

    if n % 4 in (2, 3):
        head = [(1, 0)] * z + [(1, 1)] * y1 + [(0, 0)] * y2 + [(0, 1)] * y3
    else:
        head = [(0, 0)] * z + [(0, 1)] * y1 + [(1, 0)] * y2 + [(1, 1)] * y3
    k = n + 1
    upper = np.zeros((k + 1, k + 1), dtype=np.uint8)
    for c, (w1, w2) in enumerate(head, start=3):
        upper[1, c] = w1
        upper[2, c] = w2
    # the parity conditions give rows 1 and 2 the degree parity that the
    # degree sum leaves to every row
    return FeasibilityResult(True, _force_last_column(n, upper, first=3, delta=None))
