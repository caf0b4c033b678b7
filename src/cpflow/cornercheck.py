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
fold_doubled).  Nor are the output cells that a cut drops: boundary
representations, their folds and differences live on the cells the cut
keeps (MatrixModel.apply_truncation), and _kept_min_eig restores the
dropped zero block.  The unital and the minimal matrix at a label share
their off-diagonal entries, and boundary representations of 2x2
matrices are taken entry by entry, so the difference of theirs is
diag(D, D), with D the difference of the diagonal entries'
representations.  Dominance of the minimal matrix by the unital one is
therefore the subordination of the minimal weight to the unital weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .opbasis import MatrixModel, choi_min_eig, cut_edge, is_cp


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
    The fold has the dtype numpy promotes the blocks to: it is real when
    every block is.
    """
    s5 = np.array([[np.reshape(blocks[a][b], (dim_out * dim_out, dim_in,
                                              dim_in))
                    for b in range(2)] for a in range(2)])
    return s5.transpose(2, 0, 3, 1, 4).reshape(dim_out * dim_out,
                                               4 * dim_in * dim_in)


def _kept_min_eig(model: MatrixModel, rep: np.ndarray, dim_in: int,
                  t: float) -> float:
    """Minimum Choi eigenvalue of a map given on the outputs that the cut
    at level t keeps (a boundary_rep, or a fold or difference of such).

    The whole map's Choi matrix is rep's plus identically zero rows and
    columns, as in choi_min_eig's zero-row rule: its minimum eigenvalue
    is rep's, or min(rep's, 0) when the cut drops a cell.
    """
    kept = model.kept_cells(t)
    low = choi_min_eig(rep, dim_in, model.dim_k * kept).min_eigenvalue
    return low if kept == model.h_dim else min(low, 0.0)


def _folded_rep(model: MatrixModel, diag_rep: np.ndarray, offdiag,
                t: float) -> np.ndarray:
    """Folded boundary representation of a 2x2 weight matrix at level t.

    The matrix is [[diagonal, offdiag], [conj(offdiag), diagonal]].  The
    cut and lambdahat act entrywise on doubled densities, so its boundary
    representation is the 2x2 matrix of the entries' ones, all on the
    outputs the cut keeps.  diag_rep is the diagonal's, solved by the
    caller.  The model is real, so the lower entry's is the conjugate of
    the upper entry's, the one system solved here.
    """
    rep = model.boundary_rep(offdiag, t)[0]
    return fold_doubled([[diag_rep, rep], [rep.conj(), diag_rep]],
                        model.dim_k, model.dim_k * model.kept_cells(t))


@dataclass(frozen=True)
class WeightMatrix:
    """2x2 matrix of weight superoperators over a shared model.

    diagonal: the weight used on both diagonal entries; offdiag_label:
    the unit label z of the off-diagonal series weights (upper gets z,
    lower gets conj(z) so Hermiticity of doubled densities is preserved).
    Only the weight at z is solved, once per matrix (the model is real).
    """

    model: MatrixModel
    diagonal: np.ndarray
    offdiag_label: complex

    @cached_property
    def blocks(self) -> list:
        z = complex(self.offdiag_label)
        upper = self.model.weight_superop(z)
        return [[self.diagonal, upper], [upper.conj(), self.diagonal]]

    def boundary_rep(self, t: float) -> np.ndarray:
        """Fold of the doubled boundary representation at cut level t, on
        the outputs the cut keeps (_folded_rep)."""
        diag_rep = self.model.boundary_rep(self.diagonal, t)[0]
        return _folded_rep(self.model, diag_rep, self.blocks[0][1], t)


@dataclass(frozen=True)
class SubordinationVerdict:
    """Minimum Choi eigenvalues per cut: upper, lower, upper - lower.

    lower_reps keeps the lower weight's boundary representation at each
    cut (MatrixModel.boundary_rep), for a corner with that weight on its
    diagonal (hypermax_witness).
    """

    subordinate: bool
    cut_levels: tuple[float, ...]
    upper_min_eigs: tuple[float, ...]
    lower_min_eigs: tuple[float, ...]
    difference_min_eigs: tuple[float, ...]
    lower_reps: tuple[np.ndarray, ...] = field(compare=False, repr=False)


def subordination_check(model: MatrixModel, upper, lower,
                        cut_levels) -> SubordinationVerdict:
    """Is lower subordinate to upper at the sampled cut levels?

    upper and lower are weight superoperators over the model; the check
    compares their generalized boundary representations: the difference
    must be CP at every sampled level.  Inputs whose own boundary
    representations are not CP are rejected with the offending eigenvalue.
    The cut levels must be one or more distinct cell edges below the top
    one (opbasis.cut_edge), else ValueError is raised before any
    representation is solved.
    """
    edges = [cut_edge(t) for t in cut_levels]
    if not edges or len(set(edges)) < len(edges):
        raise ValueError("subordination needs cut levels that name distinct "
                         "cell edges, got %s" % (list(cut_levels),))
    mins = {"upper": [], "lower": [], "difference": []}
    lower_reps = []
    for t in cut_levels:
        rep_up, rep_low = (model.boundary_rep(w, t)[0]
                           for w in (upper, lower))
        lower_reps.append(rep_low)
        for name, rep in (("upper", rep_up), ("lower", rep_low)):
            low = _kept_min_eig(model, rep, model.dim_k, t)
            if not is_cp(low):
                raise NonCompletelyPositiveInputError(
                    "%s weight is not CP at cut level %g" % (name, t), low)
            mins[name].append(low)
        mins["difference"].append(
            _kept_min_eig(model, rep_up - rep_low, model.dim_k, t))
    sub = all(map(is_cp, mins["difference"]))
    return SubordinationVerdict(sub, tuple(cut_levels), tuple(mins["upper"]),
                                tuple(mins["lower"]),
                                tuple(mins["difference"]), tuple(lower_reps))


@dataclass(frozen=True)
class HypermaxReport:
    """Numerical witness that the off-diagonal corner at z is not hypermaximal.

    minimal_cp: the mixed matrix with minimal diagonal is CP at every cut
    level of dominance; dominated: dominance, the subordination of the
    minimal weight to the unital one, holds; gap_nonzero: the diagonal
    gap is a nonzero weight.  All three passing is the finite-dimensional
    content of the no-rotations obstruction.
    """

    label: complex
    minimal_min_eigs: tuple[float, ...]
    gap_norm: float
    dominance: SubordinationVerdict

    @property
    def minimal_cp(self) -> bool:
        return all(map(is_cp, self.minimal_min_eigs))

    @property
    def dominated(self) -> bool:
        return self.dominance.subordinate

    @property
    def gap_nonzero(self) -> bool:
        return self.gap_norm > 1e-12

    @property
    def witnessed(self) -> bool:
        return self.minimal_cp and self.dominated and self.gap_nonzero


def on_unit_circle(z: complex) -> bool:
    """|z| = 1 to within 1e-12; False for a NaN or infinite label."""
    return abs(abs(z) - 1.0) <= 1e-12


def hypermax_witness(z: complex, model: MatrixModel, eta: np.ndarray,
                     dominance: SubordinationVerdict) -> HypermaxReport:
    """Witness the failure of hypermaximality of the corner at label z.

    Requires |z| = 1 and z != 1; z = 1 is the degenerate direction where
    the off-diagonal admits an extra weight and the witness collapses.
    eta is the density of the normalized weight (MatrixModel.xi_eta),
    which sets the diagonal gap, and dominance the subordination_check of
    the unital weight over the minimal one (see the module docstring);
    its cut levels are the witness's, and its lower representations are
    the corner's diagonal ones.  Only the off-diagonal entry at z is
    solved here; the one at conj(z) is its conjugate.
    """
    z = complex(z)
    if not on_unit_circle(z):
        raise ValueError("witness labels must lie on the unit circle")
    if abs(z - 1.0) <= 1e-12:
        raise DegenerateDirectionError(
            "label z = 1 admits an off-diagonal weight shift; the witness "
            "direction is degenerate")
    gap_norm = float(np.linalg.norm(eta)) * float(
        np.linalg.norm(model.delta_matrix))
    upper = model.weight_superop(z)
    minimal_eigs = [
        _kept_min_eig(model, _folded_rep(model, diag_rep, upper, t),
                      2 * model.dim_k, t)
        for t, diag_rep in zip(dominance.cut_levels, dominance.lower_reps)]
    return HypermaxReport(z, tuple(minimal_eigs), gap_norm, dominance)


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
