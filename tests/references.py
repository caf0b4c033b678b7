"""Dense and direct reference forms that the package computes another way.

Each function here is the plain form of a computation that the package
does in a cheaper shape; the tests compare the two.
"""

import numpy as np

from cpflow.opbasis import ChoiVerdict, choi_min_eig
from cpflow.weights import omega1


def assemble_doubled(blocks, dim_in: int, dim_out: int) -> np.ndarray:
    """Superoperator of the entrywise 2x2 map on the doubled space.

    blocks is a 2x2 nested sequence of superoperators, each of shape
    (dim_out^2, dim_in^2); block (a, b) acts on the (a, b) block of a
    doubled density.  cornercheck.fold_doubled is the folded form.
    """
    big = np.zeros((2 * dim_out, 2 * dim_out, 2 * dim_in, 2 * dim_in),
                   dtype=complex)
    for a in range(2):
        for b in range(2):
            s4 = np.asarray(blocks[a][b], dtype=complex).reshape(
                dim_out, dim_out, dim_in, dim_in)
            big[a * dim_out:(a + 1) * dim_out,
                b * dim_out:(b + 1) * dim_out,
                a * dim_in:(a + 1) * dim_in,
                b * dim_in:(b + 1) * dim_in] = s4
    return big.reshape(4 * dim_out * dim_out, 4 * dim_in * dim_in)


def doubled_entries(superop: np.ndarray, dim_in: int, dim_out: int):
    """The four entrywise blocks of a superoperator on the doubled space.

    Inverse of assemble_doubled on entrywise maps: block (a, b) is the
    part of the map from the (a, b) input block to the (a, b) output
    block.
    """
    s8 = superop.reshape(2, dim_out, 2, dim_out, 2, dim_in, 2, dim_in)
    return [[s8[a, :, b, :, a, :, b, :].reshape(dim_out * dim_out,
                                               dim_in * dim_in)
             for b in range(2)] for a in range(2)]


def permuted_choi_min_eig(superop: np.ndarray, dim_in: int, dim_out: int,
                          perm_in, perm_out,
                          tolerance: float = 1e-8) -> ChoiVerdict:
    """Choi spectrum after permuting the input and output operator bases.

    Basis permutations are unitary conjugations, so the minimum Choi
    eigenvalue must be unchanged up to round-off.
    """
    p_in = np.eye(dim_in)[:, list(perm_in)]
    p_out = np.eye(dim_out)[:, list(perm_out)]
    left = np.kron(p_out.T, p_out.T)
    right = np.kron(p_in, p_in)
    return choi_min_eig(left @ superop @ right, dim_in, dim_out, tolerance)


def omega_full(rho, element, xi, cfg=None, n_factors=None) -> complex:
    """The full weight omega(rho) = omega1(rho) + rho(Delta) xi."""
    base = omega1(rho, element, cfg, n_factors)
    return base.value + rho.delta_value() * xi.value(element)
