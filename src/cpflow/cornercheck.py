"""2x2 matrices of maps and weights, Choi positivity, subordination.

A corner is the off-diagonal entry of a 2x2 matrix of maps acting
entrywise on a doubled space.  Here the diagonal entries are weight
superoperators (the minimal series weight or its unital extension) and
the off-diagonal entries are the series weights with label z on the unit
circle.  Complete positivity of the induced generalized boundary
representations is decided through Choi spectra, and the subordination
order between two weights is the complete positivity of the difference
of their boundary representations along a decreasing sequence of cut
levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .opbasis import (
    ChoiVerdict,
    MatrixModel,
    choi_min_eig,
)


class NonCompletelyPositiveInputError(ValueError):
    """An input map that must be CP is not; carries the offending eigenvalue."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class DegenerateDirectionError(ValueError):
    """The requested witness direction is degenerate (label z = 1)."""


def assemble_doubled(blocks, dim_in: int, dim_out: int) -> np.ndarray:
    """Superoperator of the entrywise 2x2 map on the doubled space.

    blocks is a 2x2 nested sequence of superoperators, each of shape
    (dim_out^2, dim_in^2); block (a, b) acts on the (a, b) block of a
    doubled density.
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


def doubled_boundary_rep(model: MatrixModel, blocks, t: float) -> np.ndarray:
    """Boundary representation of a 2x2 matrix of weights at cut level t.

    The cut and lambdahat act entrywise on doubled densities, so the
    resolvent system of the doubled weight is block diagonal and its
    boundary representation is the 2x2 matrix of the entries'
    representations.  blocks is a 2x2 nested sequence of weight
    superoperators over the model; each entry's system goes through the
    singularity gate of MatrixModel.boundary_rep.
    """
    return assemble_doubled([[model.boundary_rep(w, t)[0] for w in row]
                             for row in blocks], model.dim_k, model.dim_h)


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


@dataclass(frozen=True)
class WeightMatrix:
    """2x2 matrix of weight superoperators over a shared model.

    diagonal: the weight used on both diagonal entries; offdiag_label:
    the unit label z of the off-diagonal series weights (upper gets z,
    lower gets conj(z) so Hermiticity of doubled densities is preserved).
    """

    model: MatrixModel
    diagonal: np.ndarray
    offdiag_label: complex

    def blocks(self) -> list:
        z = complex(self.offdiag_label)
        upper = self.model.weight_superop(z)
        lower = self.model.weight_superop(np.conj(z))
        return [[self.diagonal, upper], [lower, self.diagonal]]

    def boundary_rep(self, t: float) -> np.ndarray:
        return doubled_boundary_rep(self.model, self.blocks(), t)


def minimal_weight_matrix(model: MatrixModel, z: complex) -> WeightMatrix:
    return WeightMatrix(model, model.weight_superop(), z)


def unital_weight_matrix(model: MatrixModel, z: complex,
                         nu_density: np.ndarray) -> WeightMatrix:
    eta, _ = model.xi_eta(nu_density)
    return WeightMatrix(model, model.weight_superop(xi_eta=eta), z)


@dataclass(frozen=True)
class SubordinationVerdict:
    subordinate: bool
    cut_levels: tuple[float, ...]
    difference_min_eigs: tuple[float, ...]
    tolerance: float


def subordination_check(model: MatrixModel, upper, lower, cut_levels,
                        tolerance: float = 1e-8) -> SubordinationVerdict:
    """Is lower subordinate to upper at the sampled cut levels?

    upper and lower are weight superoperators over the model (or
    WeightMatrix instances); the check compares their generalized
    boundary representations: the difference must be CP at every sampled
    level.  Inputs whose own boundary representations are not CP are
    rejected with the offending eigenvalue.
    """
    if isinstance(upper, WeightMatrix):
        blocks = 2
        reps = [(upper.boundary_rep(t), lower.boundary_rep(t))
                for t in cut_levels]
    else:
        blocks = 1
        reps = [(model.boundary_rep(upper, t)[0],
                 model.boundary_rep(lower, t)[0])
                for t in cut_levels]
    din = blocks * model.dim_k
    dout = blocks * model.dim_h
    mins = []
    for t, (rep_up, rep_low) in zip(cut_levels, reps):
        for name, rep in (("upper", rep_up), ("lower", rep_low)):
            v = choi_min_eig(rep, din, dout, tolerance)
            if not v.completely_positive:
                raise NonCompletelyPositiveInputError(
                    "%s weight is not CP at cut level %g" % (name, t),
                    v.min_eigenvalue)
        mins.append(choi_min_eig(rep_up - rep_low, din, dout,
                                 tolerance).min_eigenvalue)
    sub = all(m >= -tolerance for m in mins)
    return SubordinationVerdict(sub, tuple(cut_levels), tuple(mins),
                                tolerance)


@dataclass(frozen=True)
class HypermaxReport:
    """Numerical witness that the off-diagonal corner at z is not hypermaximal.

    minimal_cp: the mixed matrix with minimal diagonal is CP at every
    sampled cut level; dominated: the unital-diagonal matrix dominates it;
    gap_nonzero: the diagonal gap is a nonzero weight.  All three passing
    is the finite-dimensional content of the no-rotations obstruction.
    """

    label: complex
    cut_levels: tuple[float, ...]
    minimal_min_eigs: tuple[float, ...]
    difference_min_eigs: tuple[float, ...]
    gap_norm: float
    tolerance: float

    @property
    def minimal_cp(self) -> bool:
        return all(m >= -self.tolerance for m in self.minimal_min_eigs)

    @property
    def dominated(self) -> bool:
        return all(m >= -self.tolerance for m in self.difference_min_eigs)

    @property
    def gap_nonzero(self) -> bool:
        return self.gap_norm > 1e-12

    @property
    def witnessed(self) -> bool:
        return self.minimal_cp and self.dominated and self.gap_nonzero


def hypermax_witness(z: complex, model: MatrixModel,
                     nu_density: np.ndarray,
                     cut_levels=(0.5, 0.25),
                     tolerance: float = 1e-8) -> HypermaxReport:
    """Witness the failure of hypermaximality of the corner at label z.

    Requires |z| = 1 and z != 1; z = 1 is the degenerate direction where
    the off-diagonal admits an extra weight and the witness collapses.
    """
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-12:
        raise ValueError("witness labels must lie on the unit circle")
    if abs(z - 1.0) <= 1e-12:
        raise DegenerateDirectionError(
            "label z = 1 admits an off-diagonal weight shift; the witness "
            "direction is degenerate")
    eta, _ = model.xi_eta(nu_density)
    gap_norm = float(np.linalg.norm(eta)) * float(
        np.linalg.norm(model.delta_matrix))
    minimal = minimal_weight_matrix(model, z)
    unital = WeightMatrix(model, model.weight_superop(xi_eta=eta), z)
    din, dout = 2 * model.dim_k, 2 * model.dim_h
    minimal_eigs = []
    diff_eigs = []
    for t in cut_levels:
        rep_min = minimal.boundary_rep(t)
        rep_full = unital.boundary_rep(t)
        minimal_eigs.append(choi_min_eig(rep_min, din, dout,
                                         tolerance).min_eigenvalue)
        diff_eigs.append(choi_min_eig(rep_full - rep_min, din, dout,
                                      tolerance).min_eigenvalue)
    return HypermaxReport(z, tuple(cut_levels), tuple(minimal_eigs),
                          tuple(diff_eigs), gap_norm, tolerance)


def derivation_residual(model: MatrixModel, z: complex) -> float:
    """Residual of the corner identity sigma(rho - z L pi rho) = z pi rho.

    sigma is the series weight at label z with |z| < 1; the identity pins
    the off-diagonal of a corner matrix to the series weight.
    """
    z = complex(z)
    sigma = model.weight_superop(z)
    k_hat, _ = model.series_kernel
    d2 = k_hat.shape[0]
    lhs = sigma @ (np.eye(d2) - z * k_hat)
    return float(np.linalg.norm(lhs - z * model.pi_superop))


def offdiag_perturbation_min_eig(model: MatrixModel, z: complex,
                                 nu_density: np.ndarray, eps: float,
                                 t: float) -> float:
    """Minimum Choi eigenvalue after shifting the off-diagonal weight.

    Adds eps times the normalized weight (the gap direction) to the upper
    off-diagonal entry.  For z != 1 this has no consistent counterpart in
    the corner equations and the Choi spectrum of the boundary
    representation is expected to go negative.
    """
    eta, _ = model.xi_eta(nu_density)
    gap = eps * eta.reshape(-1, 1) @ model.delta_matrix.T.reshape(1, -1)
    diag = model.weight_superop()
    upper = model.weight_superop(complex(z)) + gap
    lower = model.weight_superop(np.conj(complex(z)))
    rep = doubled_boundary_rep(model, [[diag, upper], [lower, diag]], t)
    return choi_min_eig(rep, 2 * model.dim_k,
                        2 * model.dim_h).min_eigenvalue
