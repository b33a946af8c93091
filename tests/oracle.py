"""Brute-force oracles for quantities the library derives.

The library counts cycles by pointer jumping, derives tau from k(k-2) of its
components by additivity, derives sigma from tau, and walks switching
classes breadth-first on packed words with compiled generators.  These
functions compute each quantity from its definition instead, with a parity
kernel of their own (inversion counting) and a set-based orbit search over
the matrix-level actions, so they share no algorithm with the code they
check.
"""

import numpy as np

from oaparity.classes import ParityState, act_permute, act_swap
from oaparity.parity import SigmaMatrix, TauVector, binom2_bit


def inversion_parity(perms) -> np.ndarray:
    """Parity bits of the rows of an (m, n) array of permutations, by
    counting inversions in O(n^2) per row."""
    perms = np.asarray(perms)
    m, n = perms.shape
    out = np.empty(m, dtype=np.uint8)
    iu, ju = np.triu_indices(n, 1)
    # chunk so the (chunk, n*(n-1)/2) comparison table stays modest
    chunk = max(1, (1 << 22) // max(1, len(iu)))
    for lo in range(0, m, chunk):
        block = perms[lo:lo + chunk]
        inv = (block[:, iu] > block[:, ju]).sum(axis=1)
        out[lo:lo + chunk] = inv & 1
    return out


def _tau_bits(mat: np.ndarray, n: int) -> np.ndarray:
    """Canonical tau bits of an OA matrix, every component from its n
    permutations."""
    k = mat.shape[1]
    bits = np.zeros((k + 1, k + 1, k + 1), dtype=np.uint8)
    cols = np.arange(1, k + 1)
    for c in range(1, k + 1):
        order = np.argsort(mat[:, c - 1], kind="stable")
        grouped = mat[order].reshape(n, n, k)
        others = cols[cols != c]
        ii, jj = np.meshgrid(others, others, indexing="ij")
        sel = ii < jj
        left, right = ii[sel], jj[sel]
        p = len(left)
        x = grouped[:, :, left - 1]   # (n, n, p) column-i entries per symbol class
        y = grouped[:, :, right - 1]
        perms = np.empty((p, n, n), dtype=np.int16)
        perms[
            np.arange(p)[None, None, :],
            np.arange(n)[:, None, None],
            x,
        ] = y
        par = inversion_parity(perms.reshape(p * n, n)).reshape(p, n)
        bits[c, left, right] = par.sum(axis=1) & 1
    return bits


def direct_tau(a) -> TauVector:
    """The tau-parity of an array, every component by definition."""
    return TauVector(k=a.k, nmod4=a.n % 4, bits=_tau_bits(a.rows, a.n), n=a.n)


def _sigma_bits(mat: np.ndarray, n: int) -> np.ndarray:
    """Full sigma matrix bits of an OA matrix; rows indexed by storage position."""
    k = mat.shape[1]
    kk = binom2_bit(n % 4)
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    perms = np.empty((len(pairs), n * n), dtype=np.int32)
    for t, (i, j) in enumerate(pairs):
        perms[t] = mat[:, i - 1].astype(np.int32) * n + mat[:, j - 1]
    par = inversion_parity(perms)
    m = np.zeros((k + 1, k + 1), dtype=np.uint8)
    for t, (i, j) in enumerate(pairs):
        m[i, j] = par[t]
        m[j, i] = par[t] ^ kk
    return m


def direct_sigma(a) -> SigmaMatrix:
    """The sigma-parity of an array at its stored row order, by definition."""
    return SigmaMatrix(a.k, a.n % 4, _sigma_bits(a.rows, a.n), n=a.n)


def orbit_by_actions(state: ParityState) -> tuple[int, int]:
    """Size and smallest word of the switching class of ``state``.

    A set-based breadth-first search over ``act_permute`` and ``act_swap``
    with the generating set {(1 2), (1 2 ... k)} and, for odd n, the swap at
    {1} (its conjugates under S_k are all the singleton swaps), not the
    library's adjacent transpositions and k singleton swaps.
    """
    k = state.k
    cycle = tuple(range(2, k + 1)) + (1,)
    transposition = (2, 1) + tuple(range(3, k + 1))
    moves = [lambda s: act_permute(s, transposition), lambda s: act_permute(s, cycle)]
    if state.nmod4 % 2:
        moves.append(lambda s: act_swap(s, (1,)))
    seen = {state.word}
    frontier = [state]
    while frontier:
        nxt = []
        for s in frontier:
            for move in moves:
                image = move(s)
                if image.word not in seen:
                    seen.add(image.word)
                    nxt.append(image)
        frontier = nxt
    return len(seen), min(seen)
