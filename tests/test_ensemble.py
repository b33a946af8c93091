import math
import random

import numpy as np
import pytest

from oaparity.core import OAError
from oaparity.parity import TauVector, standardise, tau_from_sigma, tau_parity
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
from conftest import flip_components, random_plausible_tau, result_or_error


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
            c = ensemble_census(t)  # construction checks T from mu against x
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


def test_census_and_laws_match_oracle():
    for t in _oracle_vectors():
        c = ensemble_census(t)
        want = oracle.census(t)
        assert c.type_counts == want["type_counts"]
        assert (c.x, c.T, c.mu, c.pp_plausible) == (
            want["x"], want["T"], want["mu"], want["pp_plausible"])
        cap = check_ensemble_laws(c)["four-column-cap"] if t.nmod4 in (2, 3) else None
        if cap is not None and cap.applicable:
            # the census takes the cap as proved; brute force confirms it
            assert cap.passed
            assert oracle.four_column_witness(t.k, want["types_by_triple"], t.nmod4) is None


def test_census_errors_match_oracle_on_flipped_vectors():
    rng = random.Random(72)
    raised = 0
    for t in _oracle_vectors():
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
