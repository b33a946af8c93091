"""Brute-force oracles for quantities the library derives.

``sigma_parity`` derives sigma from tau; these functions compute it from its
definition instead: the parity of the permutation r -> (a_ri, a_rj) of the
n^2 row positions, for every column pair.
"""

import numpy as np

from oaparity.core import parity_batch
from oaparity.parity import SigmaMatrix, binom2_bit


def _sigma_bits(mat: np.ndarray, n: int) -> np.ndarray:
    """Full sigma matrix bits of an OA matrix; rows indexed by storage position."""
    k = mat.shape[1]
    kk = binom2_bit(n % 4)
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    perms = np.empty((len(pairs), n * n), dtype=np.int32)
    for t, (i, j) in enumerate(pairs):
        perms[t] = mat[:, i - 1].astype(np.int32) * n + mat[:, j - 1]
    par = parity_batch(perms)
    m = np.zeros((k + 1, k + 1), dtype=np.uint8)
    for t, (i, j) in enumerate(pairs):
        m[i, j] = par[t]
        m[j, i] = par[t] ^ kk
    return m


def direct_sigma(a) -> SigmaMatrix:
    """The sigma-parity of an array at its stored row order, by definition."""
    return SigmaMatrix(a.k, a.n % 4, _sigma_bits(a.rows, a.n), n=a.n)
