"""Parity census of the ensemble and the laws constraining it.

The ensemble of an OA(k, n) is the set of C(k,3) Latin squares read off its
column triples (columns kept in increasing order).  The census counts the
parity types over the triples; writing x for the number of equiparity
squares and T for the total number of edges over all tau-graphs, the two
edge counts

    T = 2*C(k,3) - 2x          (n = 0,1 mod 4)
    T = 2x + C(k,3)            (n = 2,3 mod 4)
    T = sum_c mu_c * (k-1-mu_c)

agree, where mu_c are the sigma-matrix row sums.  The census takes T from
mu and x from the type counts, and asserts the identity of its n mod 4
between them.
The identities count triangles by degree sequence: for n = 2,3 mod 4 sigma
is a tournament and the equiparity squares are its cyclic triangles, so
x = C(k,3) - sum_c C(mu_c, 2) (Kendall and Babington Smith, 1940); for
n = 0,1 mod 4 sigma is a graph and x = C(k,3) - T/2 (Goodman, 1959).

The plane conditions of a vector with k = n + 1 are read off mu as well:
summing tau^c_ij = sigma_ci + sigma_cj over the columns c other than i and j
gives in_i + in_j + C(n, 2), with in_i the column sums of sigma, so the
over-columns sum rule holds iff all in-degrees share one parity, and by the
transpose law sigma_ji = sigma_ij + C(n, 2) iff all mu_c do.

The census works on the tau bit array as a whole: the type of the square on
columns c1 < c2 < c3 is the 3-bit code tau^{c1}_{c2c3} << 2 |
tau^{c2}_{c1c3} << 1 | tau^{c3}_{c1c2} (so "rcs" is the code in binary).
The three bits sit at [c1, c2, c3] of ``bits``, ``bits.transpose(1, 0, 2)``
and ``bits.transpose(1, 2, 0)``, so one whole-array expression over these
views codes every square, and ``np.bincount`` counts the codes under the
mask of the triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OAError, OrthogonalArray
from .parity import (
    TauVector,
    _triple_mask,
    equiparity_type,
    sigma_from_tau,
    tau_parity,
)


def max_equiparity(k: int) -> int:
    """Largest possible number of equiparity squares in an ensemble,
    (k * floor((k-1)/2) * ceil((k-1)/2) - C(k,3)) / 2, for n = 2,3 mod 4."""
    if k < 3:
        raise OAError(f"need k >= 3, got {k}")
    return (k * ((k - 1) // 2) * (k // 2) - math.comb(k, 3)) // 2


@dataclass(frozen=True)
class GoodSequence:
    """Candidate row-sum sequence mu_1..mu_{n+1} for an OA(n+1, n)."""

    n: int
    terms: tuple

    def __post_init__(self):
        if len(self.terms) != self.n + 1:
            raise OAError(f"need {self.n + 1} terms, got {len(self.terms)}")
        if any(t < 0 for t in self.terms):
            raise OAError("terms must be non-negative")


def is_good(seq: GoodSequence) -> bool:
    """Partial sums stay below n*m - C(m,2) for every prefix length m."""
    total = 0
    for m, term in enumerate(seq.terms, start=1):
        total += term
        if total > seq.n * m - math.comb(m, 2):
            return False
    return True


def optimal_mu(n: int) -> GoodSequence:
    """The extremal good sequence: the first n+1 terms of three terms n-1,
    one term n-3, then each term four less than the term four places
    earlier (n = 2 keeps only the three terms 1).  Defined for n = 2,3
    mod 4; its ensemble realises the equiparity lower bound."""
    if n % 4 not in (2, 3):
        raise OAError(f"need n = 2,3 mod 4, got {n}")
    terms = [n - 1, n - 1, n - 1, n - 3]
    while len(terms) < n + 1:
        terms.append(terms[-4] - 4)
    return GoodSequence(n=n, terms=tuple(terms[:n + 1]))


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True, eq=False)
class EnsembleCensus:
    """Parity-type counts over the C(k,3) column triples.

    x counts equiparity squares (type 000 for n = 0,1 mod 4, else 111);
    T is the total tau-graph edge count; mu the sigma row sums.
    ``pp_plausible`` is "na" unless n is known and k = n+1, and otherwise
    "yes" iff all mu_c share one parity (the plane conditions).

    ``ensemble_census`` builds every field from a plausible tau, so the
    edge-count identities and the four-column cap hold on it as theorems.
    A census built by hand may carry fields no vector has;
    ``check_ensemble_laws`` still evaluates the laws it reads off x.
    """

    k: int
    nmod4: int
    n: int | None
    type_counts: dict
    x: int
    T: int
    mu: tuple
    pp_plausible: str


def ensemble_census(source: OrthogonalArray | TauVector) -> EnsembleCensus:
    """Census of an array or of a bare (plausible) tau vector."""
    tau = tau_parity(source) if isinstance(source, OrthogonalArray) else source
    mu = sigma_from_tau(tau).row_sums()
    k = tau.k
    bits = tau.bits
    types = bits << 2 | bits.transpose(1, 0, 2) << 1 | bits.transpose(1, 2, 0)
    counts = np.bincount(types[_triple_mask(k)], minlength=8)
    x = int(counts[int(equiparity_type(tau.nmod4), 2)])
    T = sum(m * (k - 1 - m) for m in mu)
    if tau.nmod4 in (0, 1):
        expected = 2 * math.comb(k, 3) - 2 * x
    else:
        expected = 2 * x + math.comb(k, 3)
    if T != expected:
        raise OAError(f"edge count {T} disagrees with the type census ({expected})")
    pp = "na"
    if tau.n is not None and k == tau.n + 1:
        pp = "yes" if len({m & 1 for m in mu}) == 1 else "no"
    return EnsembleCensus(
        k=k,
        nmod4=tau.nmod4,
        n=tau.n,
        type_counts={f"{v:03b}": int(counts[v]) for v in range(8) if counts[v]},
        x=x,
        T=T,
        mu=tuple(mu),
        pp_plausible=pp,
    )


# ---------------------------------------------------------------------------
# the laws


@dataclass(frozen=True)
class LawCheck:
    name: str
    applicable: bool
    passed: bool | None
    detail: str


@dataclass(frozen=True)
class EnsembleReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)

    def __getitem__(self, name: str) -> LawCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_ensemble_laws(census: EnsembleCensus) -> EnsembleReport:
    """Evaluate the ensemble laws; violations are reported, never raised.

    Two laws are taken as proved for every census ``ensemble_census``
    builds and pass whenever they apply.  The edge-count identity is the
    count of cyclic triangles of a tournament by its score sequence
    (Kendall and Babington Smith, 1940) for n = 2,3 mod 4 and Goodman's
    count of the triangles of a graph and its complement (1959) for
    n = 0,1 mod 4; the census asserts it.  The four-column cap holds since
    four columns span a 4-vertex tournament, which has at most two cyclic
    triangles.  The other laws are evaluated from x, so a census built by
    hand still exercises them: the even count, the lower bound, the
    congruence and the upper bound.

    The plane-case bounds and the congruence are applicable only when
    k = n+1 and the vector satisfies the plane degree conditions (outside
    of that the laws simply do not bind); the upper bound and the
    four-column cap need only n = 2,3 mod 4.
    """
    k, nm, x = census.k, census.nmod4, census.x
    plane = census.n is not None and k == census.n + 1 and census.pp_plausible == "yes"
    checks = []

    checks.append(
        LawCheck(
            name="edge-count-identity",
            applicable=True,
            passed=True,  # asserted during census construction
            detail=f"T={census.T} consistent with both edge counts",
        )
    )

    if nm == 0:
        applicable = plane
        passed = (x % 2 == 0) if applicable else None
        checks.append(
            LawCheck("equiparity-even", applicable, passed, f"x={x} must be even")
        )

    n = census.n
    bound = None
    if plane:
        if nm == 0:
            bound = n * (n + 1) * (n - 4) // 24
        elif nm == 1:
            bound = (n + 1) * (n - 1) * (n - 3) // 24
        else:
            bound = math.ceil(n / 4)
    checks.append(
        LawCheck(
            "equiparity-lower-bound",
            plane,
            (x >= bound) if plane else None,
            f"x={x} >= {bound}" if plane else "needs a plane-plausible OA(n+1, n)",
        )
    )
    if nm in (2, 3):
        congruent = (x % 4 == math.ceil(n / 4) % 4) if plane else None
        checks.append(
            LawCheck(
                "equiparity-congruence",
                plane,
                congruent,
                f"x={x} = ceil(n/4) mod 4" if plane else "needs a plane-plausible OA(n+1, n)",
            )
        )
        cap = max_equiparity(k)
        checks.append(
            LawCheck(
                "equiparity-upper-bound",
                True,
                x <= cap,
                f"x={x} <= {cap}",
            )
        )
        checks.append(
            LawCheck(
                "four-column-cap",
                k >= 4,
                True if k >= 4 else None,
                "every 4 columns yield at most 2 equiparity squares",
            )
        )
    return EnsembleReport(checks=tuple(checks))
