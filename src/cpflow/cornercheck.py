"""2x2 matrices of maps and weights, Choi positivity, subordination.

A corner is the off-diagonal entry of a 2x2 matrix of maps Phi = [phi_ab]
acting entrywise on a doubled space: Phi(X) has the blocks phi_ab(X_ab).
Here the diagonal entries are weights of the model (the minimal series
weight or a unital extension, named by the density nu it is built from)
and the off-diagonal entries are the series weights with label z on the
unit circle.  Complete positivity of the induced generalized boundary
representations is decided through Choi spectra, and the subordination
order between two weights is the complete positivity of the difference
of their boundary representations along a decreasing sequence of cut
levels.

The doubled space is never built.  A 2x2 map is CP iff its fold
psi(X) = sum_ab phi_ab(X_ab) = V* Phi(X) V, V = [I; I], is CP: up to a
permutation Choi(Phi) is Choi(psi) plus an identically zero block, and
Choi(psi) is the 2x2 block matrix of the entries' Choi matrices.  Nor is
any representation dense: boundary representations are word sums
(MatrixModel.boundary_rep) on the cells a cut keeps plus a rank-one term
kept as Kronecker factors x^T (x) E, and _on_kept restores the zero
block of the dropped cells.  The unital and the minimal matrix at a
label share their off-diagonal entries, and boundary representations of
2x2 matrices are taken entry by entry, so the difference of theirs is
diag(D, D), with D the difference of the diagonal entries'
representations.  Dominance of the minimal matrix by the unital one is
therefore the subordination of the minimal weight to the unital weight;
D is the unital weight's rank-one term.

A QR Choi spectrum (opbasis.choi_min_eig) is taken only where no
smaller certificate decides the verdict.  Per cut, subordination_check
takes the lower weight's, reads the difference x^T (x) D off the extreme
eigenvalues of x and D, and takes the upper weight's only when the sum
of those two minima fails is_cp: upper = lower + difference, so by
Weyl's inequality it is CP otherwise.  hypermax_witness takes the
folded corner's only where its coefficient blocks do not certify it.
The default corner run takes the lower weight's two spectra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .opbasis import (
    BoundaryRep,
    ChoiFactors,
    MatrixModel,
    _kron,
    choi_min_eig,
    cut_edge,
    is_cp,
)


class NonCompletelyPositiveInputError(ValueError):
    """An input map that must be CP is not; carries the offending eigenvalue."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class DegenerateDirectionError(ValueError):
    """The requested witness direction is degenerate (label z = 1)."""


def _on_kept(model: MatrixModel, t: float, low: float) -> float:
    """The minimum Choi eigenvalue of a whole map from low, that on the
    outputs the cut at level t keeps: the whole Choi matrix adds
    identically zero rows and columns, so it is low, or min(low, 0) when
    the cut drops a cell."""
    return low if model.kept_cells(t) == model.h_dim else min(low, 0.0)


def _kept_min_eig(model: MatrixModel, factors: ChoiFactors, dim_in: int,
                  t: float) -> float:
    """Minimum Choi eigenvalue of a map given on the outputs that the cut
    at level t keeps (a boundary representation or a fold of such), by
    its QR spectrum."""
    return _on_kept(model, t, choi_min_eig(
        factors, dim_in, model.dim_k * model.kept_cells(t)).min_eigenvalue)


def _difference_min_eig(model: MatrixModel, up: BoundaryRep,
                        low: BoundaryRep, t: float) -> float:
    """Minimum Choi eigenvalue of up - low, two representations at cut
    level t: they share the words and x, so the difference is x^T (x) D,
    D = up.e - low.e, whose least eigenvalue is a product of extreme
    eigenvalues of x and D."""
    ends = np.outer(np.linalg.eigvalsh(up.x)[[0, -1]],
                    np.linalg.eigvalsh(up.e - low.e)[[0, -1]])
    return _on_kept(model, t, float(ends.min()))


def _folded_rep(model: MatrixModel, diag_rep: BoundaryRep, z: complex,
                t: float) -> ChoiFactors:
    """Choi factors of the folded boundary representation of the 2x2
    weight matrix [[diagonal, omega_z], [omega_conj(z), diagonal]] at
    cut level t.

    diag_rep is the diagonal's representation at t.  The series weight
    at z has the diagonal's words, with coefficients z^{|w|+1} and
    z^{N+1} / (1 - z mu_c) and no rank-one term; the model is real, so
    the lower entry's coefficients are their conjugates.  The fold's
    Choi matrix is the 2x2 block matrix of the entries' Choi matrices.
    """
    diag = diag_rep.choi
    off = model.boundary_rep(t, z).coeffs
    upper = np.zeros(diag.weights.shape, np.result_type(diag.weights, off))
    upper[:len(off), :len(off)] = np.diag(off)
    weights = np.block([[diag.weights, upper], [upper.conj().T,
                                                diag.weights]])
    return ChoiFactors(_kron(np.eye(2), diag.vectors), weights)


@dataclass(frozen=True)
class WeightMatrix:
    """2x2 matrix of weights over a shared model.

    The diagonal entries are the unital weight built from nu
    (MatrixModel.boundary_rep; None for the minimal weight); the
    off-diagonal ones are the series weights at the unit label z (upper)
    and conj(z) (lower, so Hermiticity of doubled densities is
    preserved).
    """

    model: MatrixModel
    nu: np.ndarray | None
    offdiag_label: complex

    def boundary_rep(self, t: float) -> ChoiFactors:
        """Choi factors of the folded boundary representation at cut
        level t, on the outputs the cut keeps (_folded_rep)."""
        return _folded_rep(self.model,
                           self.model.boundary_rep(t, nu=self.nu),
                           self.offdiag_label, t)


@dataclass(frozen=True)
class SubordinationVerdict:
    """Minimum Choi eigenvalues per cut: upper, lower, upper - lower.

    An upper minimum is None where Weyl's inequality made the upper
    weight CP without its spectrum (the module docstring).  reps keeps
    the (upper, lower) boundary representations at each cut
    (MatrixModel.boundary_rep) for hypermax_witness: the lower one is
    its corner's diagonal, and the difference of their rank-one terms
    its diagonal gap.
    """

    subordinate: bool
    cut_levels: tuple[float, ...]
    upper_min_eigs: tuple[float | None, ...]
    lower_min_eigs: tuple[float, ...]
    difference_min_eigs: tuple[float, ...]
    reps: tuple[tuple[BoundaryRep, BoundaryRep], ...] = field(
        compare=False, repr=False)


def subordination_check(model: MatrixModel, upper, lower,
                        cut_levels) -> SubordinationVerdict:
    """Is lower subordinate to upper at the sampled cut levels?

    upper and lower name weights of the model by the density nu that
    their unital extension is built from (MatrixModel.boundary_rep), None
    for the minimal weight.  The check compares their generalized boundary
    representations: the difference must be CP at every sampled level.
    Both share the minimal weight's words, so the difference is that of
    their rank-one terms.  Inputs whose own boundary representations are
    not CP are rejected with the offending eigenvalue.  The cut levels
    must be one or more distinct cell edges below the top one
    (opbasis.cut_edge), else ValueError is raised before any
    representation is built.
    """
    edges = [cut_edge(t) for t in cut_levels]
    if not edges or len(set(edges)) < len(edges):
        raise ValueError("subordination needs cut levels that name distinct "
                         "cell edges, got %s" % (list(cut_levels),))
    mins = {"upper": [], "lower": [], "difference": []}
    reps = []
    for t in cut_levels:
        rep_up, rep_low = (model.boundary_rep(t, nu=nu)
                           for nu in (upper, lower))
        reps.append((rep_up, rep_low))
        low = _kept_min_eig(model, rep_low.choi, model.dim_k, t)
        diff = _difference_min_eig(model, rep_up, rep_low, t)
        up = (None if is_cp(low + diff)
              else _kept_min_eig(model, rep_up.choi, model.dim_k, t))
        for name, value in (("upper", up), ("lower", low)):
            if value is not None and not is_cp(value):
                raise NonCompletelyPositiveInputError(
                    "%s weight is not CP at cut level %g" % (name, t), value)
        for values, value in zip(mins.values(), (up, low, diff)):
            values.append(value)
    sub = all(map(is_cp, mins["difference"]))
    return SubordinationVerdict(sub, tuple(cut_levels), tuple(mins["upper"]),
                                tuple(mins["lower"]),
                                tuple(mins["difference"]), tuple(reps))


@dataclass(frozen=True)
class HypermaxReport:
    """Numerical witness that the off-diagonal corner at z is not hypermaximal.

    minimal_cp: the mixed matrix with minimal diagonal is CP at every cut
    level of dominance; dominated: dominance, the subordination of the
    minimal weight to the unital one, holds; gap_nonzero: the diagonal
    gap, the unital weight's rank-one term, is nonzero.  gap_norm is the
    largest Frobenius norm of that term's Choi matrix over the cut
    levels.  All three passing is the finite-dimensional content of the
    no-rotations obstruction.  A minimum is None where the coefficient
    blocks made the corner CP without its spectrum (hypermax_witness).
    """

    label: complex
    minimal_min_eigs: tuple[float | None, ...]
    gap_norm: float
    dominance: SubordinationVerdict

    @property
    def minimal_cp(self) -> bool:
        return all(low is None or is_cp(low)
                   for low in self.minimal_min_eigs)

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


def _margin_bound(low: BoundaryRep, off: np.ndarray) -> float:
    """A lower bound on the least Choi eigenvalue of the folded corner
    with diagonal low, a word sum without rank-one term, and off-diagonal
    coefficients off.

    The fold is the sum over the words w of B_w (x) v_w v_w^*, with
    B_w = [[a_w, b_w], [conj(b_w), a_w]] and v_w the word's Choi vector,
    and B_w >= (a_w - |b_w|) I, so its least eigenvalue is at least
    sum_w min(0, a_w - |b_w|) ||v_w||^2.
    """
    slack = np.minimum(low.coeffs - np.abs(off), 0.0)
    neg = np.flatnonzero(slack)
    return float(slack[neg] @ np.linalg.norm(low.words[:, neg], axis=0) ** 2)


def hypermax_witness(z: complex, model: MatrixModel,
                     dominance: SubordinationVerdict) -> HypermaxReport:
    """Witness the failure of hypermaximality of the corner at label z.

    Requires |z| = 1 and z != 1; z = 1 is the degenerate direction where
    the off-diagonal admits an extra weight and the witness collapses.
    dominance is the subordination_check of the unital weight over the
    minimal one (see the module docstring); its cut levels are the
    witness's, its lower representations are the corner's diagonal ones,
    and the difference of its representations' rank-one terms, the
    unital weight's, is the diagonal gap x^T (x) D, whose Choi norm is
    ||x||_F ||D||_F.  Only the off-diagonal coefficients at z are
    computed here; the ones at conj(z) are their conjugates.

    With the minimal weight on the diagonal, minimal_cp holds at every
    |z| <= 1, so the witness does not tell one label on the circle from
    another.  The folded corner is the sum over the words w of the
    dropped-cell series of the 2x2 coefficient block
    [[c_1, c_z], [conj(c_z), c_1]] times vec(K_w) vec(K_w)^* on each
    input block.  For |w| < N the block is [[1, z^{n+1}],
    [conj(z)^{n+1}, 1]], positive semidefinite because |z^{n+1}| <= 1.
    On the words of length N it is [[a, b], [conj(b), a]] with
    a = 1 / (1 - mu_c) and b = z^{N+1} / (1 - z mu_c), positive
    semidefinite because |1 - z mu_c| >= 1 - mu_c.  In floating point
    |z^{n+1}| may round an ulp above 1, so a margin a - |b| may come out
    just below zero; _margin_bound bounds the fold's least eigenvalue by
    the sum of the negative margins, and the folded spectrum (_folded_rep)
    is taken only at a cut where that bound fails is_cp, or where the
    diagonal has a rank-one term, which this argument leaves out.
    """
    z = complex(z)
    if not on_unit_circle(z):
        raise ValueError("witness labels must lie on the unit circle")
    if abs(z - 1.0) <= 1e-12:
        raise DegenerateDirectionError(
            "label z = 1 admits an off-diagonal weight shift; the witness "
            "direction is degenerate")
    gap_norm = max(float(np.linalg.norm(up.x) * np.linalg.norm(up.e - low.e))
                   for up, low in dominance.reps)
    minimal_eigs = []
    for t, (_, low) in zip(dominance.cut_levels, dominance.reps):
        off = model.boundary_rep(t, z).coeffs
        certified = not low.e.any() and is_cp(_margin_bound(low, off))
        minimal_eigs.append(None if certified else _kept_min_eig(
            model, _folded_rep(model, low, z, t), 2 * model.dim_k, t))
    return HypermaxReport(z, tuple(minimal_eigs), gap_norm, dominance)


_RESIDUAL_BLOCK = 16  # unit densities per block; N = 3 has 64


def derivation_residual(model: MatrixModel, z: complex) -> float:
    """Residual of the corner identity sigma(rho - z L pi rho) = z pi rho
    on the dim_k^2 unit densities.

    sigma is the series weight at label z with |z| < 1, summed through Q,
    and L pi goes through the shift and the cell damping; the identity
    pins the off-diagonal of a corner matrix to the series weight.  The
    unit densities run in blocks of _RESIDUAL_BLOCK, so that memory stays
    a few MB where all at once would take 2.4 GB at N = 6, and the
    residual is the root sum of squares of the blocks' norms.  At N = 3
    a block's largest arrays take 147 KB, few enough that the allocator
    keeps their pages from one run to the next; all 64 densities at once
    are faulted in again on every run.
    """
    d, norms = model.dim_k, []
    for start in range(0, d * d, _RESIDUAL_BLOCK):
        units = np.eye(min(_RESIDUAL_BLOCK, d * d - start), d * d, start)
        units = units.reshape(-1, d, d)
        pi_rho = model.pi_superop(units)
        lhs = model.weight_superop(units - z * model.lambda_superop(pi_rho),
                                   z)
        lhs -= z * pi_rho
        norms.append(np.linalg.norm(lhs))
    return float(np.linalg.norm(norms))
