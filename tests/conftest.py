import numpy as np

from oaparity.core import LatinSquare, OAError, Transform, mols_to_oa
from oaparity.parity import SigmaMatrix, TauVector, standardise, tau_from_sigma


def swap_count_parity(images):
    """Independent parity oracle: count swaps of a selection sort."""
    imgs = list(images)
    swaps = 0
    for i in range(len(imgs)):
        while imgs[i] != i:
            j = imgs[i]
            imgs[i], imgs[j] = imgs[j], imgs[i]
            swaps += 1
    return swaps & 1


def zn_linear_square(p, lam):
    """cells[r, c] = lam*r + c mod p; reference construction over Z_p."""
    idx = np.arange(p)
    return LatinSquare((lam * idx[:, None] + idx[None, :]) % p)


def zn_linear_oa(p, k=None):
    """OA(k, p) from the squares lam*r + c over Z_p, lam = 1..k-2."""
    if k is None:
        k = p + 1
    return mols_to_oa([zn_linear_square(p, lam) for lam in range(1, k - 1)])


def random_isotope_square(square, rng):
    """Random row/column/symbol relabelling of a Latin square."""
    n = square.n
    rp = list(range(n))
    cp = list(range(n))
    sp = list(range(n))
    rng.shuffle(rp)
    rng.shuffle(cp)
    rng.shuffle(sp)
    cells = square.cells[np.ix_(rp, cp)]
    return LatinSquare(np.asarray(sp, dtype=np.int16)[cells])


def random_transform(a, rng, kinds=("rows", "columns", "symbols")):
    kind = rng.choice(kinds)
    if kind == "rows":
        perm = list(range(a.n * a.n))
        rng.shuffle(perm)
        return Transform(kind="rows", perm=tuple(perm))
    if kind == "columns":
        perm = list(range(1, a.k + 1))
        rng.shuffle(perm)
        return Transform(kind="columns", perm=tuple(perm))
    perm = list(range(a.n))
    rng.shuffle(perm)
    return Transform(kind="symbols", perm=tuple(perm), column=rng.randrange(1, a.k + 1))


def random_plausible_tau(rng, k, nmod4, n=None):
    """Tau vector of a random sigma matrix: plausible by construction."""
    upper = np.array([[rng.randrange(2) for _ in range(k + 1)] for _ in range(k + 1)])
    return tau_from_sigma(SigmaMatrix.from_upper(k, nmod4, upper, n=n))


def sigma_inputs(rng, ks):
    """For each k in ks and each n mod 4, with n unknown and, when its
    residue allows, n = k - 1: a random standardised sigma and its
    complement, which determine one tau."""
    for k in ks:
        for nmod4 in range(4):
            for n in [None] + [k - 1] * ((k - 1) % 4 == nmod4):
                upper = np.array([[rng.randrange(2) for _ in range(k + 1)] for _ in range(k + 1)])
                s = standardise(SigmaMatrix.from_upper(k, nmod4, upper, n=n))
                yield s
                yield s.complement()


def flip_components(t, rng, count):
    """Copy of tau vector t with ``count`` random components (c, i, j),
    i < j, flipped."""
    bits = t.bits.copy()
    for _ in range(count):
        c, i, j = rng.sample(range(1, t.k + 1), 3)
        i, j = min(i, j), max(i, j)
        bits[c, i, j] ^= 1
    return TauVector(k=t.k, nmod4=t.nmod4, bits=bits, n=t.n)


def result_or_error(fn, arg):
    """fn(arg), or the message of the OAError it raises."""
    try:
        return fn(arg)
    except OAError as exc:
        return str(exc)
