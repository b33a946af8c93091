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
mu, once, and x from the type counts; the identity of its n mod 4 between
them is a theorem, which the tests assert on every census input.
The identities count triangles by degree sequence: for n = 2,3 mod 4 sigma
is a tournament and the equiparity squares are its cyclic triangles, so
x = C(k,3) - sum_c C(mu_c, 2) (Kendall and Babington Smith, 1940); for
n = 0,1 mod 4 sigma is a graph and x = C(k,3) - T/2 (Goodman, 1959).

The plane conditions of a vector with k = n + 1 are degree parities of the
same sigma: summing tau^c_ij = sigma_ci + sigma_cj over the columns c other
than i and j gives in_i + in_j + C(n, 2), with in_i the column sums of
sigma, so the over-columns sum rule holds iff all in-degrees share one
parity, and by the transpose law sigma_ji = sigma_ij + C(n, 2), which makes
in_c = mu_c + (k - 1) * C(n, 2), iff all mu_c do.  The census takes that
verdict from the sigma, ``SigmaMatrix.pp_plausible``.

The census reads the standardised sigma, ``standard_sigma``, and no tau.
On the square of columns a < b < c the row bit is r = tau^a_bc = sigma_ab +
sigma_ac and the symbol bit s = tau^c_ab = sigma_ca + sigma_cb = sigma_ac +
sigma_bc by the transpose law, so r + s = sigma_ab + sigma_bc, and the
column bit is r + s + C(n, 2).  With A the +-1 upper triangle of sigma,
A_ab = (-1)^sigma_ab for a < b and 0 elsewhere, P its row sums and Q its
column sums, the sums over all triples are

    S_r  = sum (-1)^r       = (P.P - C(k,2)) / 2
    S_s  = sum (-1)^s       = (Q.Q - C(k,2)) / 2
    S_rs = sum (-1)^(r + s) = P.Q

(S_r pairs the entries of row a, S_s those of column c, and S_rs those
of column b with those of row b, A_ab^2 being 1), and the number of
squares with bits (r, s) is

    (C(k,3) + (-1)^r S_r + (-1)^s S_s + (-1)^(r+s) S_rs) / 4,

three O(k^2) sums in place of a pass over the k^3 triples.  This is the
degree counting of the identities above, labelled by type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constructions import block_sigma
from .core import OAError
from .parity import binom2_bit, equiparity_type, standard_sigma


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
    """The extremal good sequence, the row sums of ``block_sigma(n)``:
    three terms n-1, one term n-3, then each term four less than the term
    four places earlier, n+1 terms in all.  Defined for n = 2,3 mod 4; its
    ensemble realises the equiparity lower bound."""
    return GoodSequence(n=n, terms=block_sigma(n).row_sums())


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True, eq=False)
class EnsembleCensus:
    """Parity-type counts over the C(k,3) column triples.

    x counts equiparity squares (type 000 for n = 0,1 mod 4, else 111);
    T is the total tau-graph edge count; mu the sigma row sums.
    ``pp_plausible`` is the plane verdict of that sigma,
    ``SigmaMatrix.pp_plausible``: "na" unless n is known and k = n+1, and
    otherwise "yes" iff all mu_c share one parity (the plane conditions).

    ``ensemble_census`` builds every field from the standardised sigma of
    its source, ``standard_sigma`` (for a tau, ``sigma_from_tau``, the one
    plausibility gate), so the edge-count identities and the four-column
    cap hold on it as theorems.
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


def ensemble_census(source) -> EnsembleCensus:
    """Census of an array, a plausible tau vector or a sigma matrix, read
    off its standardised sigma by the three degree sums."""
    sigma = standard_sigma(source)
    k, nmod4, mu = sigma.k, sigma.nmod4, sigma.row_sums()
    a = np.triu(1 - 2 * sigma.m[1:, 1:].astype(np.int64), 1)
    p, q = a.sum(axis=1), a.sum(axis=0)
    pairs, triples = math.comb(k, 2), math.comb(k, 3)
    s_r, s_s, s_rs = (int(p @ p) - pairs) // 2, (int(q @ q) - pairs) // 2, int(p @ q)
    counts = {f"{r}{r ^ s ^ binom2_bit(nmod4)}{s}":
              (triples + (1 - 2 * r) * s_r + (1 - 2 * s) * s_s + (1 - 2 * (r ^ s)) * s_rs) // 4
              for r in (0, 1) for s in (0, 1)}
    x = counts[equiparity_type(nmod4)]
    T = sum(m * (k - 1 - m) for m in mu)
    return EnsembleCensus(k=k, nmod4=nmod4, n=sigma.n, x=x, T=T, mu=mu,
                          type_counts={ty: c for ty, c in sorted(counts.items()) if c},
                          pp_plausible=sigma.pp_plausible)


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

    The laws are one table of (name, applicable, passed, detail) rows in
    report order: the edge-count identity; for n = 0 mod 4 the even count;
    the lower bound; for n = 2,3 mod 4 the congruence, the upper bound and
    the four-column cap.  A row that does not apply reports ``passed`` as
    None.

    Two laws are taken as proved for every census ``ensemble_census``
    builds and pass whenever they apply.  The edge-count identity is the
    count of cyclic triangles of a tournament by its score sequence
    (Kendall and Babington Smith, 1940) for n = 2,3 mod 4 and Goodman's
    count of the triangles of a graph and its complement (1959) for
    n = 0,1 mod 4: a theorem, asserted in the tests.  The four-column cap
    holds since four columns span a 4-vertex tournament, which has at most
    two cyclic triangles.  The other laws are evaluated from x, so a census built by
    hand still exercises them: the even count, the lower bound, the
    congruence and the upper bound.

    The even count, the lower bound and the congruence apply only when
    k = n+1 and the vector satisfies the plane degree conditions (outside
    of that the laws simply do not bind); the upper bound and the
    four-column cap need only n = 2,3 mod 4, the cap also k >= 4.
    """
    k, nm, n, x = census.k, census.nmod4, census.n, census.x
    plane = n is not None and k == n + 1 and census.pp_plausible == "yes"
    needs = "needs a plane-plausible OA(n+1, n)"
    if plane:
        ceil = math.ceil(n / 4)
        lower = (n * (n + 1) * (n - 4) // 24, (n + 1) * (n - 1) * (n - 3) // 24, ceil, ceil)[nm]
    rows = [("edge-count-identity", True, True,  # a theorem, asserted in the tests
             f"T={census.T} consistent with both edge counts")]
    if nm == 0:
        rows.append(("equiparity-even", plane, x % 2 == 0, f"x={x} must be even"))
    rows.append(("equiparity-lower-bound", plane, plane and x >= lower,
                 f"x={x} >= {lower}" if plane else needs))
    if nm in (2, 3):
        cap = max_equiparity(k)
        rows += [
            ("equiparity-congruence", plane, plane and x % 4 == ceil % 4,
             f"x={x} = ceil(n/4) mod 4" if plane else needs),
            ("equiparity-upper-bound", True, x <= cap, f"x={x} <= {cap}"),
            ("four-column-cap", k >= 4, True, "every 4 columns yield at most 2 equiparity squares"),
        ]
    return EnsembleReport(tuple(LawCheck(name, applies, passed if applies else None, detail)
                                for name, applies, passed, detail in rows))
