import math
import random

import numpy as np
import pytest

from oaparity.core import OAError
from oaparity.parity import SigmaMatrix, TauVector, standardise, tau_from_sigma, tau_parity
from oaparity.constructions import (
    block_sigma,
    circulant_sigma,
    linear_mols,
    lower_triangular_sigma,
    pp_plausible_sigma,
)
from oaparity.ensemble import (
    EnsembleCensus,
    GoodSequence,
    check_ensemble_laws,
    ensemble_census,
    is_good,
    max_equiparity,
    optimal_mu,
)

import oracle
from conftest import flip_components, random_plausible_tau, result_or_error, sigma_inputs


def test_zero_vector_census():
    t = TauVector(k=5, nmod4=0, bits=np.zeros((6, 6, 6), dtype=np.uint8))
    c = ensemble_census(t)
    assert c.type_counts == {"000": 10}
    assert c.x == 10
    assert c.T == 0


def test_block_censuses():
    c6 = ensemble_census(tau_from_sigma(standardise(block_sigma(6))))
    assert c6.x == 2 == math.ceil(6 / 4)
    assert c6.T == 39
    c7 = ensemble_census(tau_from_sigma(standardise(block_sigma(7))))
    assert c7.x == 2
    assert c7.T == 60
    assert c7.mu in ((6, 6, 6, 4, 2, 2, 2, 0), (1, 1, 1, 3, 5, 5, 5, 7))


def test_circulant_censuses():
    assert ensemble_census(tau_from_sigma(circulant_sigma(6))).x == 14 == max_equiparity(7)
    assert ensemble_census(tau_from_sigma(circulant_sigma(7))).x == 20 == max_equiparity(8)


def test_census_of_array_matches_census_of_its_tau():
    a = linear_mols(7)
    via_oa = ensemble_census(a)
    via_tau = ensemble_census(tau_parity(a))
    assert via_oa.type_counts == via_tau.type_counts
    assert via_oa.x == via_tau.x
    assert via_oa.T == via_tau.T
    # mu may differ by complementation, but the edge identity fixes its value
    assert sum(m * (a.k - 1 - m) for m in via_oa.mu) == sum(
        m * (a.k - 1 - m) for m in via_tau.mu
    )


def test_degenerate_plane_n2_is_all_equiparity():
    # OA(3,2) has a one-square ensemble of type 111; the mixed-ensemble
    # phenomenon at n = 2 mod 4 starts only above the degenerate order 2
    from oaparity.core import cyclic_square, mols_to_oa

    c = ensemble_census(mols_to_oa([cyclic_square(2)]))
    assert c.type_counts == {"111": 1}
    assert c.x == 1


def test_census_rejects_implausible():
    bits = np.zeros((5, 5, 5), dtype=np.uint8)
    bits[1, 2, 3] = 1
    with pytest.raises(OAError):
        ensemble_census(TauVector(k=4, nmod4=0, bits=bits))


def test_edge_identities_on_random_pp_vectors():
    rng = random.Random(41)
    for n in (5, 6, 8, 9):
        nbits = n * (n - 1) // 2 - 1 + (n % 2)
        for _ in range(5):
            bits = [rng.randrange(2) for _ in range(nbits)]
            t = tau_from_sigma(pp_plausible_sigma(n, bits))
            c = ensemble_census(t)  # T is read off mu; the identity is checked here
            k = n + 1
            if n % 4 in (0, 1):
                assert c.T == 2 * math.comb(k, 3) - 2 * c.x
            else:
                assert c.T == 2 * c.x + math.comb(k, 3)


def _closed_forms(k: int, nmod4: int, mu) -> tuple[int, int]:
    """x and T of a degree sequence: cyclic triangles of a tournament
    (Kendall and Babington Smith) for n = 2,3 mod 4, triangles of a graph
    and its complement (Goodman) for n = 0,1 mod 4."""
    T = sum(m * (k - 1 - m) for m in mu)
    if nmod4 in (2, 3):
        return math.comb(k, 3) - sum(math.comb(m, 2) for m in mu), T
    return math.comb(k, 3) - T // 2, T


def _degree_vectors():
    rng = random.Random(43)
    for k in (3, 4, 5, 7, 10, 17, 32, 33, 64):
        for nm in range(4):
            for n in (None, k - 1 if (k - 1) % 4 == nm else None):
                yield random_plausible_tau(rng, k, nm, n=n), None
    for n in (30, 31, 47, 62, 63):
        nbits = n * (n - 1) // 2 - 1 + (n % 2)
        for density in (0.1, 0.5, 0.9):
            bits = [int(rng.random() < density) for _ in range(nbits)]
            sigma = pp_plausible_sigma(n, bits)
            yield tau_from_sigma(sigma), sigma
    for n in (2, 3, 6, 7, 30, 31, 47, 62, 63):
        for sigma in (block_sigma(n), circulant_sigma(n)):
            yield tau_from_sigma(standardise(sigma)), sigma


def test_census_counts_match_degree_sequence_closed_forms():
    # x comes from the type census and T from mu; both must equal the
    # closed forms of the degree sequence, and T the edges in tau's bits
    seen = set()
    for t, sigma in _degree_vectors():
        c = ensemble_census(t)
        assert (c.x, c.T) == _closed_forms(t.k, t.nmod4, c.mu)
        assert c.T == int(t.bits.sum()) // 2
        if sigma is not None:
            assert (c.x, c.T) == _closed_forms(t.k, t.nmod4, sigma.row_sums())
        seen.add(t.nmod4)
    assert seen == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# laws


def test_desarguesian_even_order_all_equiparity():
    for q in (4, 8, 16):
        c = ensemble_census(linear_mols(q))
        assert c.x == math.comb(q + 1, 3)
        assert check_ensemble_laws(c).all_passed


def test_plane_law_reports():
    for q in (5, 7, 9, 11, 13):
        rep = check_ensemble_laws(ensemble_census(linear_mols(q)))
        assert rep.all_passed


def test_hypothetical_census_violates_even_order_laws():
    # n=8 with eleven equiparity squares would break both the parity and the
    # size of the lower bound (x must be even and at least 12)
    fake = EnsembleCensus(
        k=9,
        nmod4=0,
        n=8,
        type_counts={"000": 11, "011": 73},
        x=11,
        T=2 * math.comb(9, 3) - 22,
        mu=(0,) * 9,
        pp_plausible="yes",
    )
    rep = check_ensemble_laws(fake)
    assert rep["equiparity-even"].applicable and not rep["equiparity-even"].passed
    bound = rep["equiparity-lower-bound"]
    assert bound.applicable and not bound.passed
    assert "12" in bound.detail


def _cap_witness(t):
    """The brute-force four-column witness of t: None when the cap holds."""
    return oracle.four_column_witness(t.k, oracle.census(t)["types_by_triple"], t.nmod4)


def test_lower_triangular_laws_not_applicable():
    # not plane-plausible, so the plane bounds have no force; the cap and
    # upper bound still hold
    t = tau_from_sigma(standardise(lower_triangular_sigma(8, 3)))
    t_plane = TauVector(k=8, nmod4=3, bits=t.bits, n=7)
    rep = check_ensemble_laws(ensemble_census(t_plane))
    assert not rep["equiparity-lower-bound"].applicable
    assert rep["equiparity-upper-bound"].passed
    assert rep["four-column-cap"].applicable and _cap_witness(t_plane) is None


def test_four_column_cap_on_desarguesian():
    for q in (3, 7, 11):
        t = tau_parity(linear_mols(q))
        assert check_ensemble_laws(ensemble_census(t))["four-column-cap"].applicable
        assert _cap_witness(t) is None


def _oracle_vectors():
    rng = random.Random(71)
    for k in (3, 4, 5, 6, 7, 9, 12, 16, 20):
        for nm in range(4):
            for n in (None, k - 1 if (k - 1) % 4 == nm else None):
                yield random_plausible_tau(rng, k, nm, n=n)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        yield tau_parity(linear_mols(q))
    for n in (5, 6, 8, 9, 10, 11):
        nbits = n * (n - 1) // 2 - 1 + (n % 2)
        yield tau_from_sigma(pp_plausible_sigma(n, [rng.randrange(2) for _ in range(nbits)]))
    yield from sigma_inputs(random.Random(73), (3, 4, 5, 6, 7, 8, 16, 33, 64))


def test_census_and_laws_match_oracle():
    # a sigma input's census is that of its tau, which the oracle reads; a
    # sigma's complement follows it and has its tau, so brute force runs once
    prev = None
    for source in _oracle_vectors():
        t = tau_from_sigma(source) if isinstance(source, SigmaMatrix) else source
        fresh, prev = (t, t.n) != prev, (t, t.n)
        c = ensemble_census(source)
        if fresh:
            want = oracle.census(t)
        assert c.type_counts == want["type_counts"]
        assert (c.x, c.T, c.mu, c.pp_plausible) == (
            want["x"], want["T"], want["mu"], want["pp_plausible"])
        cap = check_ensemble_laws(c)["four-column-cap"] if t.nmod4 in (2, 3) else None
        if cap is not None and cap.applicable:
            # the census takes the cap as proved; brute force confirms it
            assert cap.passed
            assert not fresh or oracle.four_column_witness(t.k, want["types_by_triple"],
                                                           t.nmod4) is None


def test_census_errors_match_oracle_on_flipped_vectors():
    rng = random.Random(72)
    raised = 0
    for t in _oracle_vectors():
        if isinstance(t, SigmaMatrix):
            continue  # the flips are made in a tau's bits
        for count in (1, 2, 5):
            bad = flip_components(t, rng, count)
            got = result_or_error(ensemble_census, bad)
            want = result_or_error(oracle.census, bad)
            if isinstance(want, str):
                raised += 1
                assert got == want
            else:
                assert got.type_counts == want["type_counts"] and got.x == want["x"]
    assert raised > 100


def _hand_built(k: int, nmod4: int, x: int) -> EnsembleCensus:
    return EnsembleCensus(
        k=k, nmod4=nmod4, n=None, type_counts={}, x=x, T=0, mu=(0,) * k,
        pp_plausible="na",
    )


def test_hand_built_census_is_judged_by_its_x():
    # no vector has x above the maximum; the laws read off x still report
    # it, while the cap, proved for every census a vector yields, passes
    over = check_ensemble_laws(_hand_built(6, 2, max_equiparity(6) + 1))
    assert not over["equiparity-upper-bound"].passed
    assert over["four-column-cap"].passed
    assert not over.all_passed
    assert check_ensemble_laws(_hand_built(6, 2, max_equiparity(6))).all_passed


def _paper_lower(n: int) -> int:
    """The paper's least x of a plane-plausible OA(n+1, n): n(n+1)(n-4)/24
    for n = 0 mod 4, (n+1)(n-1)(n-3)/24 for n = 1, ceil(n/4) for n = 2, 3."""
    return [n * (n + 1) * (n - 4) // 24, (n + 1) * (n - 1) * (n - 3) // 24,
            -(-n // 4), -(-n // 4)][n % 4]


def _paper_upper(k: int) -> int:
    """The paper's largest x for n = 2, 3 mod 4:
    (k floor((k-1)/2) ceil((k-1)/2) - C(k,3)) / 2."""
    return (k * ((k - 1) // 2) * -(-(k - 1) // 2) - math.comb(k, 3)) // 2


def _paper_laws(k: int, nmod4: int, n: int | None, x: int, plane: bool, T: int) -> list:
    """The (name, applicable, passed, detail) rows of the ensemble laws in
    report order: for a plane-plausible OA(n+1, n), x even (n = 0 mod 4),
    x at least ``_paper_lower`` and, for n = 2, 3, x = ceil(n/4) mod 4;
    for n = 2, 3, x at most ``_paper_upper``."""
    needs = "needs a plane-plausible OA(n+1, n)"
    rows = [("edge-count-identity", True, True, f"T={T} consistent with both edge counts")]
    if nmod4 == 0:
        rows.append(("equiparity-even", plane, x % 2 == 0 if plane else None,
                     f"x={x} must be even"))
    if plane:
        rows.append(("equiparity-lower-bound", True, x >= _paper_lower(n),
                     f"x={x} >= {_paper_lower(n)}"))
    else:
        rows.append(("equiparity-lower-bound", False, None, needs))
    if nmod4 in (2, 3):
        if plane:
            rows.append(("equiparity-congruence", True, (x - -(-n // 4)) % 4 == 0,
                         f"x={x} = ceil(n/4) mod 4"))
        else:
            rows.append(("equiparity-congruence", False, None, needs))
        rows.append(("equiparity-upper-bound", True, x <= _paper_upper(k),
                     f"x={x} <= {_paper_upper(k)}"))
        rows.append(("four-column-cap", k >= 4, True if k >= 4 else None,
                     "every 4 columns yield at most 2 equiparity squares"))
    return rows


@pytest.mark.parametrize("n", [2, 3, 8, 9, 10, 11, 14, 15])
@pytest.mark.parametrize("verdict", ["yes", "no", "na"])
def test_every_law_on_both_sides_of_its_bound(n, verdict):
    """Hand-built censuses of k = n + 1 columns: a plane one (the plane
    verdict "yes"), one that fails the plane conditions and one of unknown
    n.  x runs over both sides of the lower bound, the congruence, the even
    count and the upper bound; names, order, applicability, verdicts, their
    types and the details all follow the paper's formulas."""
    k, nmod4, plane = n + 1, n % 4, verdict == "yes"
    lower, upper = _paper_lower(n), _paper_upper(k)
    seen, binding = set(), set()
    for x in sorted({0, lower - 1, lower, lower + 1, lower + 4, upper, upper + 1} - {-1}):
        census = EnsembleCensus(
            k=k, nmod4=nmod4, n=None if verdict == "na" else n, type_counts={}, x=x,
            T=17, mu=(0,) * k, pp_plausible=verdict,
        )
        checks = check_ensemble_laws(census).checks
        got = [(c.name, c.applicable, c.passed, c.detail) for c in checks]
        want = _paper_laws(k, nmod4, n, x, plane, 17)
        assert got == want
        assert all(type(c.passed) in (bool, type(None)) for c in checks)
        seen.update((name, passed) for name, _, passed, _ in got)
        binding.update(name for name, applies, _, _ in want if applies)
    # each law evaluated from x is seen both passing and failing
    for name in binding - {"edge-count-identity", "four-column-cap"}:
        assert {(name, True), (name, False)} <= seen, name


# ---------------------------------------------------------------------------
# good sequences


def test_optimal_mu_values():
    assert optimal_mu(6).terms == (5, 5, 5, 3, 1, 1, 1)
    assert sum(optimal_mu(6).terms) == math.comb(7, 2)
    assert optimal_mu(7).terms == (6, 6, 6, 4, 2, 2, 2, 0)
    with pytest.raises(OAError):
        optimal_mu(8)


def test_optimal_mu_is_good_and_greedy():
    for n in (6, 7, 10, 11, 14, 15):
        seq = optimal_mu(n)
        assert is_good(seq)
        # greedy lower bound: prefix sums never fall more than 1 short
        total = 0
        for m, term in enumerate(seq.terms, start=1):
            total += term
            assert total >= n * m - math.comb(m, 2) - 1


def _optimal_mu_by_recurrence(n):
    """The extremal good sequence as the paper gives it: three terms n-1,
    one term n-3, then each term four less than the term four places
    earlier, cut to n+1 terms."""
    terms = [n - 1, n - 1, n - 1, n - 3]
    while len(terms) < n + 1:
        terms.append(terms[-4] - 4)
    return tuple(terms[:n + 1])


def test_optimal_mu_equals_the_recurrence():
    for n in (n for n in range(2, 40) if n % 4 in (2, 3)):
        assert optimal_mu(n) == GoodSequence(n=n, terms=_optimal_mu_by_recurrence(n)), n


def test_block_sigma_row_sums_are_good():
    for n in (2, 3, 6, 7, 10, 11):
        mu = tuple(sorted(block_sigma(n).row_sums(), reverse=True))
        assert is_good(GoodSequence(n=n, terms=mu))
        assert mu == optimal_mu(n).terms


def test_not_good_sequence():
    assert not is_good(GoodSequence(n=6, terms=(6, 6, 6, 3, 0, 0, 0)))
    with pytest.raises(OAError):
        GoodSequence(n=6, terms=(1, 2, 3))


def test_good_swap_property():
    # a good sequence with mu_c = mu_{c+1} - 2 stays good after interchange
    rng = random.Random(42)
    checked = 0
    for _ in range(400):
        n = rng.choice((6, 7, 10))
        terms = [rng.randrange(0, n) for _ in range(n + 1)]
        seq = GoodSequence(n=n, terms=tuple(terms))
        if not is_good(seq):
            continue
        for c in range(n):
            if terms[c] == terms[c + 1] - 2:
                swapped = list(terms)
                swapped[c], swapped[c + 1] = swapped[c + 1], swapped[c]
                assert is_good(GoodSequence(n=n, terms=tuple(swapped)))
                checked += 1
    assert checked > 10


# ---------------------------------------------------------------------------
# the equiparity maximum


def test_max_equiparity_values():
    assert max_equiparity(7) == 14
    assert max_equiparity(8) == 20
    assert max_equiparity(4) == 2
    for k in range(3, 101):
        # the (near-)regular score sequence has the most cyclic triangles
        half = k // 2
        scores = [(k - 1) // 2] * k if k % 2 else [half - 1] * half + [half] * half
        assert len(scores) == k and sum(scores) == math.comb(k, 2)
        assert max_equiparity(k) == math.comb(k, 3) - sum(math.comb(m, 2) for m in scores)


def test_max_equiparity_asymptotics():
    for k in (50, 100, 500):
        ratio = max_equiparity(k) / math.comb(k, 3)
        assert abs(ratio - 0.25) <= 3 / k
