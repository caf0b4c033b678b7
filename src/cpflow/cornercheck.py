"""2x2 matrices of maps and weights, Choi positivity, subordination.

A corner is the off-diagonal entry of a 2x2 matrix of maps Phi = [phi_ab]
acting entrywise on a doubled space: Phi(X) has the blocks phi_ab(X_ab).
Here the diagonal entries are weight superoperators (the minimal series
weight or its unital extension) and the off-diagonal entries are the
series weights with label z on the unit circle.  Complete positivity of
the induced generalized boundary representations is decided through
Choi spectra, and the subordination order between two weights is the
complete positivity of the difference of their boundary representations
along a decreasing sequence of cut levels.

The doubled space is never built.  A 2x2 map is CP iff its fold
psi(X) = sum_ab phi_ab(X_ab) = V* Phi(X) V, V = [I; I], is CP: up to a
permutation Choi(Phi) is Choi(psi) plus an identically zero block (see
fold_doubled), so its Choi spectrum is taken on 2 dim_k dim_h rows
instead of 4 dim_k dim_h.  The unital and the minimal matrix at a label
share their off-diagonal entries, and boundary representations of 2x2
matrices are taken entry by entry, so the difference of theirs is
diag(D, D), with D the difference of the diagonal entries'
representations.  Dominance of the minimal matrix by the unital one is
therefore the subordination of the minimal weight to the unital weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .opbasis import MatrixModel, choi_min_eig


class NonCompletelyPositiveInputError(ValueError):
    """An input map that must be CP is not; carries the offending eigenvalue."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class DegenerateDirectionError(ValueError):
    """The requested witness direction is degenerate (label z = 1)."""


def fold_doubled(blocks, dim_in: int, dim_out: int) -> np.ndarray:
    """Superoperator of the fold psi(X) = sum_ab phi_ab(X_ab) of a 2x2 map.

    blocks is a 2x2 nested sequence of superoperators phi_ab, each of
    shape (dim_out^2, dim_in^2); the entrywise map Phi = [phi_ab] sends a
    doubled density X to the doubled density with blocks phi_ab(X_ab).
    Its fold is psi(X) = V* Phi(X) V with V = [I; I], a map from
    2*dim_in- to dim_out-densities.  Phi(E_ij) lives in the output block
    of the input block of i, so up to a permutation Choi(Phi) is
    Choi(psi) plus an identically zero block: Phi is CP iff psi is, and
    the minimum Choi eigenvalue of Phi is min(that of psi, 0).  The fold
    places each entry on its input block and adds nothing up, so its
    Choi matrix has the very entries of the nonzero part of Choi(Phi).
    """
    s5 = np.array([[np.reshape(blocks[a][b], (dim_out * dim_out, dim_in,
                                              dim_in))
                    for b in range(2)] for a in range(2)], dtype=complex)
    return s5.transpose(2, 0, 3, 1, 4).reshape(dim_out * dim_out,
                                               4 * dim_in * dim_in)


def _folded_rep(model: MatrixModel, diagonal, upper, lower,
                t: float) -> np.ndarray:
    """Folded boundary representation of a 2x2 weight matrix at level t.

    The matrix is [[diagonal, upper], [lower, diagonal]].  The cut and
    lambdahat act entrywise on doubled densities, so the resolvent system
    of the doubled weight is block diagonal and its boundary
    representation is the 2x2 matrix of the entries' representations; the
    shared diagonal is solved once.  Each entry's system goes through the
    singularity gate of MatrixModel.boundary_rep.
    """
    diag_rep, upper_rep, lower_rep = (model.boundary_rep(w, t)[0]
                                      for w in (diagonal, upper, lower))
    return fold_doubled([[diag_rep, upper_rep], [lower_rep, diag_rep]],
                        model.dim_k, model.dim_h)


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
        """Fold of the doubled boundary representation at cut level t."""
        (diagonal, upper), (lower, _) = self.blocks()
        return _folded_rep(self.model, diagonal, upper, lower, t)


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
    WeightMatrix instances, whose folds are compared); the check compares
    their generalized boundary representations: the difference must be
    CP at every sampled level.  Inputs whose own boundary representations
    are not CP are rejected with the offending eigenvalue.  An empty list
    of cut levels samples nothing, and a cut at the top cell edge keeps
    no cell, so every representation there is the zero map: both are
    rejected with ValueError.
    """
    top = model.h_edges[-1]
    if len(cut_levels) == 0 or max(cut_levels) >= top - 1e-12:
        raise ValueError("subordination needs cut levels below the top "
                         "cell edge %g" % top)
    if isinstance(upper, WeightMatrix):
        din = 2 * model.dim_k
        reps = [(upper.boundary_rep(t), lower.boundary_rep(t))
                for t in cut_levels]
    else:
        din = model.dim_k
        reps = [(model.boundary_rep(upper, t)[0],
                 model.boundary_rep(lower, t)[0])
                for t in cut_levels]
    mins = []
    for t, (rep_up, rep_low) in zip(cut_levels, reps):
        for name, rep in (("upper", rep_up), ("lower", rep_low)):
            v = choi_min_eig(rep, din, model.dim_h, tolerance)
            if not v.completely_positive:
                raise NonCompletelyPositiveInputError(
                    "%s weight is not CP at cut level %g" % (name, t),
                    v.min_eigenvalue)
        mins.append(choi_min_eig(rep_up - rep_low, din, model.dim_h,
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
    Dominance is read from subordination_check of the minimal weight
    under the unital one (see the module docstring), so it does not
    depend on z, and non-CP diagonal weights or cut levels that sample
    nothing are rejected as there.
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
    minimal = model.weight_superop()
    dominance = subordination_check(
        model, model.weight_superop(xi_eta=eta), minimal, cut_levels,
        tolerance)
    corner = WeightMatrix(model, minimal, z)
    minimal_eigs = tuple(
        choi_min_eig(corner.boundary_rep(t), 2 * model.dim_k, model.dim_h,
                     tolerance).min_eigenvalue for t in cut_levels)
    return HypermaxReport(z, tuple(cut_levels), minimal_eigs,
                          dominance.difference_min_eigs, gap_norm,
                          tolerance)


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
    rep = _folded_rep(model, model.weight_superop(),
                      model.weight_superop(complex(z)) + gap,
                      model.weight_superop(np.conj(complex(z))), t)
    return choi_min_eig(rep, 2 * model.dim_k, model.dim_h).min_eigenvalue
