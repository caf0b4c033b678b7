"""Dense and direct reference forms that the package computes another way.

Each function here is the plain form of a computation that the package
does in a cheaper shape; the tests compare the two.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from mpmath import mp

from cpflow.gauge import (
    FLOW,
    GENERAL,
    UNITARY,
    GaugeParam,
    InvalidParameterError,
    UnitAction,
    r_term,
)
from cpflow.cli import _seq
from cpflow.halfline import ExpKernelVector, ExpMultiplier, Grid
from cpflow.opbasis import (
    DEFAULT_EDGES,
    BoundaryRep,
    ChoiFactors,
    ChoiVerdict,
    MatrixModel,
    NonInvertibleSystemError,
    _finite_resolvent,
    _label,
    cut_edge,
)
from cpflow.semigroups import (
    InvalidExperimentError,
    _step_damping,
    covariance,
    evolve,
    flow_inner,
)
from cpflow.tensorspace import (
    ProductVector,
    TensorOperator,
    reference_state,
    tail_weight_product,
)
from cpflow.weights import (
    BoundaryWeight,
    HElement,
    HFunctional,
    NonConvergenceError,
    SeriesValue,
    WeightSeriesConfig,
    boundary_identity,
    identity_element,
    omega1,
    rank_one,
    xi_from_nu,
)


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
    every block is.  cornercheck folds Choi factors instead.
    """
    s5 = np.array([[np.reshape(blocks[a][b], (dim_out * dim_out, dim_in,
                                              dim_in))
                    for b in range(2)] for a in range(2)])
    return s5.transpose(2, 0, 3, 1, 4).reshape(dim_out * dim_out,
                                               4 * dim_in * dim_in)


def assemble_doubled(blocks, dim_in: int, dim_out: int) -> np.ndarray:
    """Superoperator of the entrywise 2x2 map on the doubled space.

    blocks is a 2x2 nested sequence of superoperators, each of shape
    (dim_out^2, dim_in^2); block (a, b) acts on the (a, b) block of a
    doubled density.  cornercheck.fold_doubled is the folded form; like
    it, the result has the dtype numpy promotes the blocks to.
    """
    big = np.zeros((2 * dim_out, 2 * dim_out, 2 * dim_in, 2 * dim_in),
                   dtype=np.result_type(*(b for row in blocks for b in row)))
    for a in range(2):
        for b in range(2):
            s4 = np.asarray(blocks[a][b]).reshape(
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


def identity_superop(dim: int) -> np.ndarray:
    return np.eye(dim * dim, dtype=complex)


def transpose_superop(dim: int) -> np.ndarray:
    """Superoperator of the matrix transpose (the canonical non-CP map)."""
    out = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            out[j * dim + i, i * dim + j] = 1.0
    return out


def complex_model(model: MatrixModel) -> MatrixModel:
    """The same model with its constant matrices promoted to complex128.

    MatrixModel keeps real data real; this is its complex form, in which
    every product, solve, condition number and Choi spectrum runs in
    complex arithmetic on data whose imaginary part is zero.  The leaf
    constants are model's, promoted; the shift and the slot matrix Q are
    then built from them in complex arithmetic.
    """
    out = MatrixModel(model.n_factors, model.factor_dim, model.seq)
    for name in ("damping", "h_damping", "cross_overlap", "delta_matrix"):
        vars(out)[name] = getattr(model, name).astype(complex)
    kappa, fidelity = model.reference_coords
    vars(out)["reference_coords"] = (kappa.astype(complex), fidelity)
    return out


def unit_densities(dim: int) -> np.ndarray:
    """The dim^2 matrix units E_ij as a stack, in row-major order."""
    return np.eye(dim * dim).reshape(dim * dim, dim, dim)


def on_columns(fn, superop: np.ndarray, dim: int) -> np.ndarray:
    """A map on dim-densities applied to each column of a superoperator,
    read as a vectorized density; the images, vectorized, as columns."""
    cols = superop.shape[1]
    return fn(superop.T.reshape(cols, dim, dim)).reshape(cols, -1).T


def map_superop(fn, dim: int) -> np.ndarray:
    """The superoperator of a map on dim-densities (a map of the model):
    its images of the unit densities, vectorized, as columns."""
    return on_columns(fn, np.eye(dim * dim), dim)


def cut_projection(model, t: float) -> np.ndarray:
    """The spectral tail cut U(t)U(t)* on the half-line slot.

    t must name a cell edge below the top one (cut_edge); the cut is then
    the exact diagonal projection onto the cells at or above it, which
    MatrixModel._cut_cells names as slices.
    """
    edge = cut_edge(t)
    return np.diag([float(e >= edge) for e in DEFAULT_EDGES[:-1]])


def truncation_superop(model, t: float) -> np.ndarray:
    """Superoperator of mu -> P mu P for the spectral cut at level t.

    MatrixModel.apply_truncation keeps the block on the kept cells.
    """
    p_tilde = np.kron(np.eye(model.dim_k), cut_projection(model, t))
    return np.kron(p_tilde, p_tilde.T)


def dense_pi_superop(model) -> np.ndarray:
    """pihat over row-major vectorized densities, from the shift:
    rho -> s0* rho s0 (MatrixModel.pi_superop)."""
    s0 = model.shift
    return np.kron(s0.conj().T, s0.T)


def superop_lambda(model, mu: np.ndarray, cells: int | None = None):
    """lambdahat applied column by column to a superoperator from the
    cell damping, without its matrix.

    The columns of mu are vectorized densities on the top cells of the
    half-line slot, all of them by default (MatrixModel.lambda_superop
    on the densities).
    """
    d = model.dim_k
    n = model.h_dim if cells is None else cells
    mu5 = mu.reshape(d, n, d, n, -1)
    out = np.einsum("bqap...,pq->ba...", mu5, model.h_damping[-n:, -n:])
    return out.reshape(d * d, -1)


def superop_truncation(model, t: float, superop: np.ndarray) -> np.ndarray:
    """mu -> P mu P after a superoperator, on the rows of the kept cells
    (MatrixModel.apply_truncation on the densities)."""
    d, h, n = model.dim_k, model.h_dim, model.kept_cells(t)
    kept = superop.reshape(d, h, d, h, -1)[:, h - n:, :, h - n:]
    return kept.reshape(d * d * n * n, -1)


def full_size(model, t: float, kept: np.ndarray) -> np.ndarray:
    """A map given on the outputs the cut at t keeps, over all outputs.

    kept has the rows of superop_truncation (as boundary_rep and its
    folds do); they are scattered back into zeros of shape
    (dim_h^2, columns).
    """
    d, h, n = model.dim_k, model.h_dim, model.kept_cells(t)
    out = np.zeros((d, h, d, h, kept.shape[-1]), dtype=kept.dtype)
    out[:, h - n:, :, h - n:] = kept.reshape(d, n, d, n, -1)
    return out.reshape(d * h * d * h, -1)


def masked_truncation(model, t: float, superop: np.ndarray) -> np.ndarray:
    """mu -> P mu P after superop as a mask over all dim_h^2 output rows.

    The tiled diagonal of the cut marks the kept basis vectors; the
    result equals truncation_superop(model, t) @ superop bit for bit.
    """
    dh = model.dim_h
    keep = np.tile(np.diag(cut_projection(model, t)) != 0, model.dim_k)
    om3 = superop.reshape(dh, dh, -1)
    out = om3 * np.outer(keep, keep)[:, :, None]
    return out.reshape(dh * dh, -1)


def solve_weight_superop(model, z: complex = 1.0) -> np.ndarray:
    """MatrixModel.weight_superop by an exact resolvent solve.

    z pihat (I - z khat)^{-1} with khat = lambdahat pihat built from the
    shift and the cell damping, gated on the spectral radius of khat from
    its eigenvalues; the model sums the finite form through its slot
    matrix instead.
    """
    z = complex(z)
    if not z.imag:
        z = z.real
    d = model.dim_k
    pi_hat = dense_pi_superop(model)
    k_hat = superop_lambda(model, pi_hat)
    radius = float(np.max(np.abs(np.linalg.eigvals(k_hat))))
    if abs(z) * radius >= 1.0 - 1e-9:
        raise NonInvertibleSystemError(
            "weight series does not converge in this model", radius)
    core = np.linalg.solve(np.eye(d * d) - z * k_hat, np.eye(d * d))
    return z * (pi_hat @ core)


def dense_letters(model) -> np.ndarray:
    """The Kraus letters of khat = lambdahat pihat from the shift and the
    cell damping, never from the slot matrix Q: A_p = sqrt(h_p)
    (I (x) <p|) s0^*, one dim_k x dim_k letter per cell p, lowest cell
    first, so that khat is rho -> sum_p A_p rho A_p^*."""
    d, h = model.dim_k, model.h_dim
    rows = model.shift.conj().T.reshape(d, h, d).transpose(1, 0, 2)
    return np.sqrt(np.diag(model.h_damping))[:, None, None] * rows


def kraus(letters: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_p A_p x A_p^* over a stack of letters, x a matrix or a stack of
    them along leading axes.  The letters' adjoints give the dual map
    (tr(y k(x)) = tr(k*(y) x))."""
    herm = letters.conj().swapaxes(1, 2)
    return (letters @ x[..., None, :, :] @ herm).sum(axis=-3)


def letter_words(letters: np.ndarray,
                 length: int) -> tuple[np.ndarray, np.ndarray]:
    """The products A_w of the letters over every word w of length
    0 .. length, as one stack (count, d, d) in order of length, the first
    letter of a word most significant, and the word lengths."""
    stacks = [np.eye(letters.shape[-1], dtype=letters.dtype)[None]]
    for _ in range(length):
        grown = np.einsum("pij,wjk->pwik", letters, stacks[-1])
        stacks.append(grown.reshape(-1, *grown.shape[2:]))
    lengths = np.repeat(np.arange(length + 1), [len(s) for s in stacks])
    return np.concatenate(stacks), lengths


def letter_dropped_words(model, t: float) -> tuple[np.ndarray, np.ndarray]:
    """MatrixModel._dropped_words by products of the dense letters: the
    Choi vectors vec(K_w^T) of K_w = P s0^* A_w over the words w of the
    dropped cells' letters, and the word lengths."""
    d, h = model.dim_k, model.h_dim
    dropped, kept = model._cut_cells(t)
    words, lengths = letter_words(dense_letters(model)[dropped],
                                  model.n_factors)
    head = model.shift.conj().T.reshape(d, h, d)[:, kept]
    vectors = np.einsum("icj,wjk->kicw", head, words)
    return vectors.reshape(-1, len(words)), lengths


# The einsum and np.kron forms that MatrixModel and cornercheck replaced
# by matmuls and broadcast products; the broadcast products round
# exactly as these do.

def einsum_kernel(model, rho: np.ndarray, q: np.ndarray) -> np.ndarray:
    """MatrixModel._kernel by two ellipsis einsums."""
    m, d, kappa = model.factor_dim, model.dim_k, model.reference_coords[0]
    slots = rho.reshape(*rho.shape[:-2], m, d // m, m, d // m)
    rest = np.einsum("ij,...iajb->...ab", q, slots)
    return np.einsum("...ab,kl->...akbl", rest,
                     np.outer(kappa, kappa)).reshape(rho.shape)


def kron_delta_matrix(model) -> np.ndarray:
    """MatrixModel.delta_matrix by np.kron."""
    out = np.array([[1.0]])
    for _ in range(model.n_factors):
        out = np.kron(out, model.damping)
    return out * tail_weight_product(model.seq, model.n_factors + 1)


def kron_dropped_words(model, t: float) -> tuple[np.ndarray, np.ndarray]:
    """MatrixModel._dropped_words by einsum and np.kron, never cached."""
    d, m, n_f = model.dim_k, model.factor_dim, model.n_factors
    dropped, kept = model._cut_cells(t)
    head = model.shift.conj().T.reshape(d, model.h_dim, d)[:, kept]
    head = head.reshape(-1, d)
    slot = model.cross_overlap[:, dropped] * np.sqrt(
        np.diag(model.h_damping)[dropped])
    kappa = model.reference_coords[0]
    words, tail, blocks = np.ones((1, 1)), np.ones(1), []
    for n in range(n_f + 1):
        rest = head.reshape(len(head), m ** (n_f - n), m ** n) @ tail
        blocks.append(np.einsum("wa,ob->abow", words, rest)
                      .reshape(d * len(head), -1))
        words = np.einsum("kp,wa->pwak", slot, words)
        words = words.reshape(-1, m ** (n + 1))
        tail = np.kron(tail, kappa)
    lengths = np.repeat(np.arange(n_f + 1), [b.shape[1] for b in blocks])
    return np.hstack(blocks), lengths


def kron_boundary_rep(model, t: float, z: complex = 1.0,
                      nu: np.ndarray | None = None) -> BoundaryRep:
    """MatrixModel.boundary_rep with mu_c, x and Delta rebuilt on each
    call and its Kronecker products by np.kron."""
    z = _label(z)
    vectors, lengths = kron_dropped_words(model, t)
    dropped = model._cut_cells(t)[0]
    q_c, n_f = model._slot_matrix_on(dropped), model.n_factors
    mu_c = model._tail_ratio_of(q_c)
    coeffs = np.where(lengths < n_f, z ** (lengths + 1),
                      z ** (n_f + 1) / (1.0 - z * mu_c))
    delta = kron_delta_matrix(model)
    seed = delta - model._kernel_dual(delta, model.slot_matrix)
    x = _finite_resolvent(lambda y: model._kernel_dual(y, q_c), seed, mu_c,
                          n_f)
    dn = model.dim_k * model.kept_cells(t)
    if nu is None:
        return BoundaryRep(vectors, coeffs, x, np.zeros((dn, dn)))
    low_nu = model.lambda_superop(nu, dropped)
    on = np.flatnonzero(np.any(low_nu != 0, axis=1))
    cols = vectors.reshape(model.dim_k, dn, -1)[on].transpose(1, 2, 0)
    cols = cols.reshape(dn, -1)
    e = model.apply_truncation(t, nu) + cols @ np.kron(
        np.diag(coeffs), low_nu[np.ix_(on, on)]) @ cols.conj().T
    return BoundaryRep(vectors, coeffs, x, e / (1.0 - np.sum(x.T * low_nu)))


def kron_gap(rep: BoundaryRep) -> ChoiFactors:
    """BoundaryRep.gap by np.kron."""
    on = np.flatnonzero(np.any(rep.e != 0, axis=1))
    return ChoiFactors(np.kron(np.eye(len(rep.x)), np.eye(len(rep.e))[:, on]),
                       np.kron(rep.x.T, rep.e[np.ix_(on, on)]))


def kron_folded_vectors(diag_rep: BoundaryRep) -> np.ndarray:
    """The Choi vectors of cornercheck._folded_rep by np.kron."""
    return np.kron(np.eye(2), diag_rep.choi.vectors)


def tail_eigenvalues(letters: np.ndarray, kappa: np.ndarray,
                     n: int) -> tuple[np.ndarray, float]:
    """a_p = <K, A_p K> per letter, K = kappa^{(x) n} the tail vector
    onto which n letters map every vector, so that the Kraus map of the
    letters has k^{n+1} = mu k^n with mu = sum_p |a_p|^2; and the largest
    relative residual |A_p K - a_p K| / |A_p K| of the eigenvector
    identity (0 for no letter)."""
    tail = reduce(np.kron, [kappa] * n)
    images = letters @ tail
    eigs = images @ tail.conj()
    residual = np.linalg.norm(images - eigs[:, None] * tail, axis=1)
    scale = np.linalg.norm(images, axis=1)
    return eigs, float(np.max(residual / scale, initial=0.0))


def choi_tail_ratio(letters: np.ndarray, n: int) -> tuple[float, float]:
    """mu with k^{n+1} = mu k^n for the Kraus map k of the letters, fitted
    on the Choi matrices C_n = sum_w vec(A_w) vec(A_w)^* over the words w
    of length n and n + 1, which determine the maps, and the relative
    residual |C_{n+1} - mu C_n| / (|C_{n+1}| + mu |C_n|) of the fit.

    No letter gives no words, mu = 0 and residual 0.  MatrixModel reads
    mu off its slot matrix instead, mu = kappa^T Q kappa.
    """
    def grow(stack):
        grown = np.einsum("pij,wjk->pwik", letters, stack)
        return grown.reshape(-1, *stack.shape[1:])

    def choi(stack):
        vecs = stack.reshape(len(stack), stack.shape[-1] ** 2)
        return vecs.T @ vecs.conj()

    last = np.eye(letters.shape[-1], dtype=letters.dtype)[None]
    for _ in range(n):
        last = grow(last)
    c_last, c_after = choi(last), choi(grow(last))
    norm_last = np.linalg.norm(c_last)
    mu = np.vdot(c_last, c_after).real / norm_last ** 2 if norm_last else 0.0
    scale = np.linalg.norm(c_after) + mu * norm_last
    residual = np.linalg.norm(c_after - mu * c_last)
    return float(mu), float(residual / scale) if scale else 0.0


def unchunked_derivation_residual(model, z: complex) -> float:
    """cornercheck.derivation_residual on all dim_k^2 unit densities at
    once, as one norm of the whole residual, its squares summed by
    math.fsum, density by density and then the densities' sums: a numpy
    norm of a million entries is itself off by a few 1e-15 relative, and
    correctly rounded sums of nonnegative terms add to within an ulp of
    the exact sum."""
    units = unit_densities(model.dim_k)
    pi_rho = model.pi_superop(units)
    lhs = model.weight_superop(units - z * model.lambda_superop(pi_rho), z)
    lhs -= z * pi_rho
    return math.sqrt(math.fsum(math.fsum((one * one).ravel().tolist())
                               for part in (lhs.real, lhs.imag)
                               for one in part))


def solve_xi_eta(model, nu_density: np.ndarray) -> tuple[np.ndarray, float]:
    """The density eta of the normalized weight built from nu, and
    d = nu(Lambda(Delta)), with the resolvent solved on K-densities.

    With d = nu(Lambda(Delta)), eta = (1 - d)^{-1} sum_n (pihat
    lambdahat)^n nu.  Pushing the resolvent through lambdahat sums the
    series on K-densities:

        sum_n (pihat lambdahat)^n nu
            = nu + pihat (I - lambdahat pihat)^{-1} lambdahat nu,

    so eta = (nu + omega1(nu o Lambda)) / (1 - d) with omega1 the
    minimal weight: the formula of weights.BoundaryWeight.value for the
    weight that weights.xi_from_nu builds from nu.
    """
    dk, dh = model.dim_k, model.dim_h
    lam_nu = superop_lambda(model, nu_density.reshape(-1, 1))
    d_val = np.trace(lam_nu.reshape(dk, dk) @ model.delta_matrix).real
    pi_hat = dense_pi_superop(model)
    k_hat = superop_lambda(model, pi_hat)
    core = np.linalg.solve(np.eye(dk * dk) - k_hat, lam_nu.reshape(-1))
    tail = (pi_hat @ core).reshape(dh, dh)
    eta = (nu_density + tail) / (1.0 - d_val)
    return 0.5 * (eta + eta.conj().T), d_val


def gap_superop(model, eta: np.ndarray) -> np.ndarray:
    """The rank-one gap G = eta (x) Delta, rho -> tr(rho Delta) eta.

    The unital weight built from nu is the minimal weight plus the gap
    of eta = solve_xi_eta(model, nu)[0].
    """
    return eta.reshape(-1, 1) @ model.delta_matrix.T.reshape(1, -1)


def solve_unital_weight(model, nu: np.ndarray | None) -> np.ndarray:
    """The weight built from nu (None: the minimal one) on the solve path."""
    minimal = solve_weight_superop(model)
    if nu is None:
        return minimal
    return minimal + gap_superop(model, solve_xi_eta(model, nu)[0])


def sherman_morrison_gap(model, t: float, nu: np.ndarray) -> tuple:
    """The unital weight's rank-one term at cut level t, in its
    Sherman-Morrison form through eta = solve_xi_eta(model, nu)[0].

    B0, the minimal weight's representation, is the model's
    (MatrixModel.boundary_rep, held to the solve path by its own tests);
    lambdahat_k is lambdahat on the kept cells, and x
    the matrix of the functional vec(Delta)^T (I - khat)(I - khat_c)^{-1},
    solved on dense superoperators:

        E = (I - B0 lambdahat_k) cut(eta),
        beta = tr(x lambdahat_k eta),
        gap(rho) = tr(x rho) E / (1 + beta).

    MatrixModel.boundary_rep writes the same term from nu alone.  Returns
    the gap's superoperator on the outputs the cut keeps (the rows of
    solve_boundary_rep), beta, x and d = nu(Lambda(Delta)).
    """
    dk, kept = model.dim_k, model.kept_cells(t)
    eta, d_val = solve_xi_eta(model, nu)
    b0 = dense_rep(model, t, model.boundary_rep(t))
    cut_eta = superop_truncation(model, t, eta.reshape(-1, 1))
    lam_k_eta = superop_lambda(model, cut_eta, kept)
    pi_hat = dense_pi_superop(model)
    k_hat = superop_lambda(model, pi_hat)
    k_c = k_hat - superop_lambda(
        model, superop_truncation(model, t, pi_hat), kept)
    # tr(rho Delta) = vec(Delta^T) . vec(rho) on row-major vectorizations
    eye = np.eye(dk * dk)
    f = np.linalg.solve((eye - k_c).T,
                        (eye - k_hat).T @ model.delta_matrix.T.reshape(-1))
    beta = (f @ lam_k_eta).item()
    e_col = cut_eta - b0 @ lam_k_eta
    return (np.outer(e_col, f) / (1.0 + beta), beta, f.reshape(dk, dk).T,
            d_val)


def solve_boundary_rep(model, omega_superop: np.ndarray,
                       t: float) -> tuple[np.ndarray, float]:
    """MatrixModel.boundary_rep of a weight superoperator, by a solve.

    Solves (I + lambdahat omegahat|_t) sigma = rho and returns the
    superoperator rho -> omegahat|_t(sigma) on the outputs the cut
    keeps (superop_truncation's rows), with the condition number of the
    solved system.  No inverse is formed: the nonzero rows are solved
    against the transposed system and the zero rows stay exact zeros.
    """
    w_t = superop_truncation(model, t, omega_superop)
    k_mat = superop_lambda(model, w_t, model.kept_cells(t))
    system = np.eye(len(k_mat)) + k_mat
    condition = float(np.linalg.cond(system))
    if not np.isfinite(condition) or condition > 1e12:
        raise NonInvertibleSystemError(
            "resolvent system is numerically singular", condition)
    live = np.flatnonzero(np.any(w_t != 0, axis=1))
    rep = np.zeros((len(w_t), len(system)), dtype=system.dtype)
    rep[live] = np.linalg.solve(system.T, w_t[live].T).T
    return rep, condition


def choi_matrix(superop: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    """Choi matrix of a map given as a superoperator over matrix units."""
    if superop.shape != (dim_out * dim_out, dim_in * dim_in):
        raise ValueError("superoperator shape does not match the dimensions")
    t4 = superop.reshape(dim_out, dim_out, dim_in, dim_in)
    return (t4.transpose(2, 0, 3, 1)
            .reshape(dim_in * dim_out, dim_in * dim_out))


def dense_choi_min_eig(superop: np.ndarray, dim_in: int,
                       dim_out: int) -> ChoiVerdict:
    """opbasis.choi_min_eig on the dense Choi matrix of a superoperator.

    The spectrum is taken on the Hermitian part of the Choi matrix.  A row
    of a Hermitian matrix that is identically zero (exact test, no
    tolerance) has a zero column too, so the matrix is the principal
    submatrix on the other rows plus a zero block: the minimum eigenvalue
    is min(lambda_sub, 0) when rows were dropped, and 0 for the zero map.
    Trace and hermiticity defect are those of the whole Choi matrix.
    """
    choi = choi_matrix(superop, dim_in, dim_out)
    # two Choi-sized arrays at most: herm is built in place on a new array,
    # the defect in place on choi unless choi views superop, and choi is
    # freed before eigvalsh copies herm.  np.conjugate always allocates;
    # choi.conj() would not do here, since for real input it returns choi
    # itself and herm += choi would double it
    herm = np.conjugate(choi).T
    herm += choi
    herm *= 0.5
    if np.may_share_memory(choi, superop):
        choi = choi.copy()
    choi -= herm
    defect = float(np.linalg.norm(choi))
    del choi
    live = np.flatnonzero(np.any(herm != 0, axis=1))
    low = 0.0
    if live.size == herm.shape[0]:
        low = float(np.linalg.eigvalsh(herm)[0])
    elif live.size:
        low = min(float(np.linalg.eigvalsh(herm[np.ix_(live, live)])[0]),
                  0.0)
    return ChoiVerdict(low, float(np.trace(herm).real), defect)


def dense_superop(factors: ChoiFactors, dim_in: int,
                  dim_out: int) -> np.ndarray:
    """The superoperator of a map given by its Choi factors."""
    choi = factors.vectors @ factors.weights @ factors.vectors.conj().T
    return (choi.reshape(dim_in, dim_out, dim_in, dim_out)
            .transpose(1, 3, 0, 2).reshape(dim_out ** 2, dim_in ** 2))


def choi_difference(a: ChoiFactors, b: ChoiFactors) -> ChoiFactors:
    """Choi factors of the map a - b: the factors stacked, b's weights
    negated."""
    return a + ChoiFactors(b.vectors, -b.weights)


def choi_frobenius_norm(factors: ChoiFactors) -> float:
    """Frobenius norm of the Choi matrix V W V^*, which is not formed:
    its square is tr(W G W^* G) with the Gram matrix G = V^* V."""
    g, w = factors.vectors.conj().T @ factors.vectors, factors.weights
    return float(np.sqrt(abs(np.vdot(g @ w, w @ g))))


def dense_rep(model, t: float, rep) -> np.ndarray:
    """A BoundaryRep as the superoperator on the outputs the cut keeps
    (the rows of solve_boundary_rep)."""
    return dense_superop(rep.choi, model.dim_k,
                         model.dim_k * model.kept_cells(t))


def full_size_boundary_rep(model, omega_superop: np.ndarray,
                           t: float) -> tuple[np.ndarray, float]:
    """MatrixModel.boundary_rep over all dim_h^2 output rows.

    The masked truncation, lambdahat over every cell, and a solve of the
    rows that are not identically zero; the rows the cut removed stay
    exact zeros.  boundary_rep solves the kept rows only.
    """
    w_t = masked_truncation(model, t, omega_superop)
    k_mat = superop_lambda(model, w_t)
    d2 = k_mat.shape[0]
    system = np.eye(d2) + k_mat
    condition = float(np.linalg.cond(system))
    if not np.isfinite(condition) or condition > 1e12:
        raise NonInvertibleSystemError(
            "resolvent system is numerically singular", condition)
    live = np.flatnonzero(np.any(w_t != 0, axis=1))
    rep = np.zeros((w_t.shape[0], d2), dtype=system.dtype)
    rep[live] = np.linalg.solve(system.T, w_t[live].T).T
    return rep, condition


def dense_lambda_superop(model, blocks: int = 1) -> np.ndarray:
    """Dense lambdahat on densities with 1 or 2 diagonal blocks.

    MatrixModel.lambda_superop is the map on densities, superop_lambda
    the matrix-free form on superoperator columns.
    """
    d, mh = blocks * model.dim_k, model.h_dim
    eye = np.eye(d)
    t6 = np.einsum("bi,aj,pq->baiqjp", eye, eye, model.h_damping)
    return t6.reshape(d * d, (d * mh) ** 2)


def permuted_choi_min_eig(superop: np.ndarray, dim_in: int, dim_out: int,
                          perm_in, perm_out) -> ChoiVerdict:
    """Choi spectrum after permuting the input and output operator bases.

    Basis permutations are unitary conjugations, so the minimum Choi
    eigenvalue must be unchanged up to round-off.
    """
    p_in = np.eye(dim_in)[:, list(perm_in)]
    p_out = np.eye(dim_out)[:, list(perm_out)]
    left = np.kron(p_out.T, p_out.T)
    right = np.kron(p_in, p_in)
    return dense_choi_min_eig(left @ superop @ right, dim_in, dim_out)


def full_size_corner_minima(model: MatrixModel, upper, lower, cut_levels,
                            labels) -> tuple:
    """Every Choi minimum of a corner run, on the dense solve path.

    upper and lower name weights as subordination_check does (the nu of
    their unital extension, or None for the minimal weight).  cornercheck
    works on word sums over the outputs each cut keeps; this is the path
    over all dim_h^2 output rows: solved weights, full_size_boundary_rep,
    folded by fold_doubled(..., dim_h), and dense_choi_min_eig on the
    whole.  Returns the minima of subordination_check (upper, lower and
    difference, per cut) and of hypermax_witness (per label, per cut)
    with lower on the diagonal.
    """
    dims = (model.dim_k, model.dim_h)
    doubled = (2 * model.dim_k, model.dim_h)
    mins = {"upper": [], "lower": [], "difference": []}
    witness = {z: [] for z in labels}
    weights = [solve_unital_weight(model, nu) for nu in (upper, lower)]
    for t in cut_levels:
        rep_up, rep_low = (full_size_boundary_rep(model, w, t)[0]
                           for w in weights)
        for name, rep in (("upper", rep_up), ("lower", rep_low),
                          ("difference", rep_up - rep_low)):
            mins[name].append(dense_choi_min_eig(rep, *dims).min_eigenvalue)
        for z in labels:
            off = full_size_boundary_rep(model, solve_weight_superop(model, z),
                                         t)[0]
            fold = fold_doubled([[rep_low, off], [off.conj(), rep_low]],
                                *dims)
            witness[z].append(
                dense_choi_min_eig(fold, *doubled).min_eigenvalue)
    return ({name: tuple(v) for name, v in mins.items()},
            {z: tuple(v) for z, v in witness.items()})


def rowwise_gamma_grid(a: np.ndarray, grid: Grid) -> np.ndarray:
    """halfline.gamma_grid's diagonal recursion with a new temporary for
    each decayed row."""
    n, h = grid.points, grid.spacing
    out = h * np.asarray(a, dtype=np.result_type(a, float))
    decay = np.exp(-h)
    for i in range(1, n):
        out[i, 1:] += decay * out[i - 1, :-1]
    return out


def block_members(block) -> list[complex]:
    """The members of a halfline.ComplexBlock as Python complex numbers."""
    return list(map(complex, block.real.tolist(), block.imag.tolist()))


def omega_full(rho, element, xi, cfg=None, n_factors=None) -> complex:
    """The full weight omega(rho) = omega1(rho) + rho(Delta) xi."""
    base = omega1(rho, element, cfg, n_factors)
    return base.value + rho.delta_value() * xi.value(element)


def random_param_reference(rng: np.random.Generator,
                           klass: str = GENERAL) -> GaugeParam:
    """A random gauge parameter drawn one keyword-parsed call at a time.

    gauge.random_param takes the one member of a block draw; it consumes
    the generator in the same order, all uniforms of the class first, then
    all normals.
    """
    if klass not in (FLOW, UNITARY, GENERAL):
        raise InvalidParameterError("unknown class %r" % (klass,))
    if klass == FLOW:
        r = rng.uniform(0, 1)
        return GaugeParam(r * np.exp(2j * np.pi * rng.uniform()), klass=FLOW)
    if klass == UNITARY:
        a = np.exp(2j * np.pi * rng.uniform())
        b = complex(rng.normal(), rng.normal())
        # numpy's array complex product may round differently in the last
        # place from its scalar one; the package multiplies arrays
        c = (-np.conj([a]) * np.array([b]))[0]
        return GaugeParam(a, b, c, 1j * rng.normal(), klass=UNITARY)
    r = rng.uniform(0, 0.95)
    a = r * np.exp(2j * np.pi * rng.uniform())
    y_re = rng.uniform(0, 2)
    b = complex(rng.normal(), rng.normal())
    c = complex(rng.normal(), rng.normal())
    return GaugeParam(a, b, c, complex(y_re, rng.normal()))


def r_value(a: complex, b: complex, c: complex,
            ap: complex, bp: complex, cp: complex) -> float:
    """r for |a|, |a'| < 1 on plain complex numbers or complex arrays.

    gauge._r_pair returns it as its first output, with the square form.
    """
    da = 1.0 - abs(a) ** 2
    dap = 1.0 - abs(ap) ** 2
    daap = 1.0 - abs(a * ap) ** 2
    return (abs(ap.conjugate() * bp + cp) ** 2 / dap
            + abs(bp * da - a.conjugate() * b - c) ** 2 / da
            - abs((a * ap).conjugate() * (a * bp + b)
                  + ap.conjugate() * c + cp) ** 2 / daap)


def r_square_form(a: complex, b: complex, c: complex,
                  ap: complex, bp: complex, cp: complex) -> float:
    """r as one squared modulus over a positive denominator:

        |(1-|a|^2) a' (conj(a') b' + c')
         + (1-|a'|^2) (b' (1-|a|^2) - conj(a) b - c)|^2
        / ((1-|a|^2) (1-|a'|^2) (1-|a a'|^2)),

    nonnegative by construction for |a|, |a'| < 1.  gauge._r_pair returns
    it as its second output.
    """
    da = 1.0 - abs(a) ** 2
    dap = 1.0 - abs(ap) ** 2
    daap = 1.0 - abs(a * ap) ** 2
    num = (da * ap * (ap.conjugate() * bp + cp)
           + dap * (bp * da - a.conjugate() * b - c))
    return abs(num) ** 2 / (da * dap * daap)


def identity_param(klass: str = GENERAL) -> GaugeParam:
    return GaugeParam(1.0, 0.0, 0.0, 0.0, klass=klass)


def act_reference(g: GaugeParam, z: complex) -> UnitAction:
    """gauge.act in numpy scalar arithmetic (np.conj and a complex quotient).

    gauge.act takes the same steps on plain complex numbers.
    """
    z = complex(z)
    a, b, c, y = g.a, g.b, g.c, g.y
    label = a * z + b
    if g.on_unit_circle:
        rate = -(y + 1j * (a * np.conj(b) * z).imag)
    else:
        v = -(np.conj(a) * b + c) / (1.0 - abs(a) ** 2)
        rate = (-y - 0.5 * abs(v + z) ** 2 * (1.0 - abs(a) ** 2)
                + 1j * (np.conj(c) * z).imag)
    return UnitAction(label, complex(rate))


def composed_reference(g: GaugeParam, gp: GaugeParam, sign: int) -> tuple:
    """(a'', b'', c'', y'') of gauge.compose (sign 1) or of the literal
    printed law y'' = y + y' + i Im(conj(c) b') - r / 2 (sign -1), in
    numpy scalar arithmetic."""
    y2 = g.y + gp.y + sign * (0.5 * r_term(g, gp)
                              - 1j * (np.conj(g.c) * gp.b).imag)
    return g.a * gp.a, g.a * gp.b + g.b, np.conj(gp.a) * g.c + gp.c, y2


def full_numeric_gram(zs, t: float, f) -> np.ndarray:
    """Gram matrix pairing all k^2 evolved states; numeric_gram pairs i <= j."""
    states = [evolve(f, z, t).state for z in zs]
    return np.array([[flow_inner(u, v) for v in states] for u in states])


def padded_pairing(f, g, steps: int, w: complex, z: complex) -> complex:
    """The pairing of f and g under (w, z) after steps more steps, by the
    recursion over a list of steps outflows, zero past the P cells.

    This is the step loop that semigroups._pairer evaluates in closed form
    from the outflows of the P cells.
    """
    h = f.grid.spacing
    a, b = f.source_cells, g.source_cells
    points = len(a)
    outflows = [h * complex(np.vdot(a[points - 1 - k], b[points - 1 - k]))
                for k in range(min(steps, points))]
    outflows += [0.0] * (steps - len(outflows))
    d = _step_damping(w, h) * _step_damping(z, h)
    feed = h * np.conj(complex(w)) * complex(z)
    value = h * complex(np.vdot(a, b))
    for ov in outflows:
        value = d * ((value - ov) + feed * value)
    return value


def _exact_vdot(a, b):
    """np.vdot(a, b) of float cells, exact to the working precision."""
    return mp.fdot(np.ravel(b).tolist(), np.ravel(a).tolist(),
                   conjugate=True)


def reference_pairer(f, g, extra: int = 0):
    """semigroups._pairer's recursion at mp.dps = 50, from the same floats.

    d = exp(-(|w|^2 + |z|^2) h / 2) and feed = h conj(w) z are taken in
    mpmath from the float labels and h, and start and the outflows are the
    exact pairings of the float source cells; the steps that push a cell
    out run as the recursion (padded_pairing's loop), and the outflow-free
    tail is one power of d (1 + feed), so a pair costs O(P) whatever the
    step count (start costs O(P dim_k) once).  Returns (pair, scale):
    pair(w, z) is the mpmath value, and scale = |start| + sum |ov_k| is
    the size against which a float evaluation's error is bounded.
    """
    with mp.workdps(50):
        h = mp.mpf(f.grid.spacing)
        steps = f.steps + extra
        a, b = f.source_cells, g.source_cells
        points = len(a)
        start = h * _exact_vdot(a, b)
        outflows = [h * _exact_vdot(a[points - 1 - k], b[points - 1 - k])
                    for k in range(min(steps, points))]
        scale = float(abs(start) + sum(abs(ov) for ov in outflows))

    def pair(w: complex, z: complex):
        with mp.workdps(50):
            w, z = mp.mpc(complex(w)), mp.mpc(complex(z))
            d = mp.exp(-(abs(w) ** 2 + abs(z) ** 2) * h / 2)
            feed = h * mp.conj(w) * z
            value = start
            for ov in outflows:
                value = d * ((value - ov) + feed * value)
            return value * (d * (1 + feed)) ** (steps - len(outflows))

    return pair, scale


def reference_evolve(state, z: complex, t: float):
    """(cells, outflow_mass) of semigroups.evolve at mp.dps = 50.

    The step damping exp(-|z|^2 h / 2) is taken in mpmath from the float
    label and h; a surviving cell is its float source cell times the
    damping to the power of the step count, and a cell pushed out at step
    k adds h |cell|^2 times the damping to the power 2k to the float
    outflow_mass of the state.  Returns mpmath matrices and numbers.
    """
    h = state.grid.spacing
    steps = int(round(t / h))
    src = state.cells
    points, dim_k = src.shape
    with mp.workdps(50):
        damping = mp.exp(-abs(mp.mpc(complex(z))) ** 2 * mp.mpf(h) / 2)
        power = damping ** steps
        cells = mp.matrix(points, dim_k)
        for j in range(points - steps):
            for c in range(dim_k):
                cells[j + steps, c] = mp.mpc(complex(src[j, c])) * power
        outflow = mp.mpf(state.outflow_mass)
        for k in range(min(steps, points)):
            mass = _exact_vdot(src[points - 1 - k], src[points - 1 - k])
            outflow += mp.mpf(h) * mass.real * damping ** (2 * k)
    return cells, outflow


def covariance_residuals_by_label(ws, zs, t: float, f, g,
                                  outflow_tolerance: float = 1e-8):
    """semigroups.covariance_residuals evolving f once per w and g once per
    z, and pairing each (w, z) with its own flow_inner call.

    semigroups.covariance_residuals evolves once per distinct step
    damping and pairs every (w, z) from the sources.
    """
    base = flow_inner(f, g)
    efs = [evolve(f, w, t).state for w in ws]
    egs = [evolve(g, z, t).state for z in zs]
    outflow = max(e.outflow_mass for e in efs + egs)
    if outflow > outflow_tolerance:
        raise InvalidExperimentError(
            "outflow mass %.3e exceeds the experiment tolerance; enlarge "
            "the grid" % outflow)
    out = np.empty((len(efs), len(egs)))
    for i, (w, ef) in enumerate(zip(ws, efs)):
        t_snapped = (ef.steps - f.steps) * f.grid.spacing
        for j, (z, eg) in enumerate(zip(zs, egs)):
            expected = np.exp(covariance(w, z) * t_snapped) * base
            out[i, j] = abs(flow_inner(ef, eg) - expected)
    return out


def numeric_gram_by_label(zs, t: float, f) -> np.ndarray:
    """semigroups.numeric_gram with one evolution and one flow_inner call
    per label and per pair i <= j."""
    states = [evolve(f, z, t).state for z in zs]
    k = len(states)
    out = np.empty((k, k), dtype=complex)
    for i in range(k):
        out[i, i] = flow_inner(states[i], states[i]).real
        for j in range(i + 1, k):
            out[i, j] = flow_inner(states[i], states[j])
            out[j, i] = out[i, j].conjugate()
    return out


def isometry_residual(z: complex, t: float, f) -> float:
    """| ||U_z(t) f|| - ||f|| |, the O(h) boundary-feed discretization error.

    c(z, z) = 0 makes U_z(t) an isometry; in the stepper the damping and
    the boundary feed cancel only to first order in the step size, so this
    residual measures exactly the boundary-feed discretization and must
    shrink linearly under grid refinement.
    """
    ef = evolve(f, z, t).state
    return float(abs(ef.norm() - f.norm()))


def series_by_shifting(rho, element, cfg, n_factors, z=1.0) -> SeriesValue:
    """The weight series by building each shifted functional and pairing it.

    weights._series reads the same orbit from per-slot tables.
    """
    target = element.pi_image(n_factors)
    delta_limit = rho.delta_value()
    telescopes = element.telescoping and z == 1.0
    explicit = cfg.max_terms
    if telescopes:
        explicit = min(cfg.max_terms, 4 * n_factors + 4)
    cur = rho
    terms = []
    zpow = z
    for _ in range(explicit):
        terms.append(zpow * cur(target))
        cur = cur.shifted()
        zpow = zpow * z
        cert = abs(zpow) * abs(cur(None) - delta_limit)
        if cert < cfg.tail_tolerance:
            return SeriesValue(np.sum(terms), np.array(terms), cert, False)
    if telescopes:
        # for I - Lambda the terms are rho_n(I) - rho_{n+1}(I), so the
        # remaining sum is exactly cur(I) - rho(Delta)
        tail = cur(None) - delta_limit
        return SeriesValue(np.sum(terms) + tail, np.array(terms), 0.0, True)
    partial = np.cumsum(terms)
    raise NonConvergenceError(
        "weight series still above tolerance after %d terms" % cfg.max_terms,
        partial)


def unitality_residuals_by_sample(cfg, rng):
    """The running (worst1, worst2) of cli.run_weights_unitality after each
    sample, with one functional per sample.

    The runner puts a block of samples through each weight series.  The
    draw is sample after sample, so the first k values are those of a run
    of k samples.
    """
    seq = _seq(cfg)
    n_factors = cfg["tensor"]["factors"]
    m = cfg["weights"]["factor_dim"]
    samples = cfg["weights"]["samples"]
    series = WeightSeriesConfig(max_terms=cfg["series"]["max_terms"],
                                tail_tolerance=cfg["series"]["tail_tolerance"])
    bid = boundary_identity()
    nu_vec = reference_state(seq, n_factors)
    nu_h = seq.reference(1)
    raw = HFunctional(((1.0, (nu_vec, nu_h), (nu_vec, nu_h)),))
    scale = raw(identity_element()).real
    nu = HFunctional(((1.0 / scale, (nu_vec, nu_h), (nu_vec, nu_h)),))
    xi = xi_from_nu(nu, series, n_factors=n_factors)
    xi_at_identity = xi.value(bid)
    worst1 = worst2 = 0.0
    for _ in range(samples):
        # one draw per sample, indexed [vector, factor, re/im, j]: the same
        # stream as one rng.normal(size=m) call per part, in that order
        parts = rng.normal(size=(2, n_factors, 2, m))
        coeffs = parts[:, :, 0] + 1j * parts[:, :, 1]
        vecs = [ProductVector(seq, tuple(
            ExpKernelVector([(row[j], 1.0 + j) for j in range(m)])
            for row in vec), n_factors + 1) for vec in coeffs]
        rho = rank_one(vecs[0], vecs[0]) + rank_one(vecs[1], vecs[1])
        val1 = omega1(rho, bid, series, n_factors=n_factors).value
        total, delta = rho(None), rho.delta_value()
        worst1 = max(worst1, abs(val1 - (total - delta)))
        # the full weight omega(rho) = omega1(rho) + rho(Delta) xi(I)
        worst2 = max(worst2, abs(val1 + delta * xi_at_identity - total))
        yield worst1, worst2


def unitality_records(rep, worst1: float, worst2: float) -> None:
    """The records cli.run_weights_unitality makes of its residuals."""
    rep.bound("minimal-weight-identity-residual", worst1, 1e-8, "le",
              "paper")
    rep.bound("unital-weight-residual", worst2, 1e-8, "le", "paper")


def lambda_of(k_op: TensorOperator) -> HElement:
    """Lambda(C) = C tensor multiplication-by-exp(-x)."""
    return HElement(terms=((1.0, ExpMultiplier(), k_op),))


def on_boundary_identity(weight: BoundaryWeight) -> complex:
    return weight.value(boundary_identity())


def zero_boundary_weight(n_factors: int,
                         cfg: WeightSeriesConfig | None = None) -> BoundaryWeight:
    return BoundaryWeight(HFunctional(()), 0.0, n_factors,
                          cfg or WeightSeriesConfig())


# ---------------------------------------------------------------------------
# a weight that vanishes on an exhausting family yet has infinite mass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonNormalRow:
    n: int
    weight_value: float
    partial_mass: float


def nonnormal_weight_demo(s: float, n_max: int,
                          points: int = 4000,
                          length: float = 12.0) -> list[NonNormalRow]:
    """Grid demonstration of a weight with no normal part.

    The generating function is h(x) = x^{-s/2} (1 - exp(-x))^{1/2} with
    s in (1, 2).  For each n a function g orthogonal to h and supported in
    [1/n, infinity) is built; the weight vanishes on it while the h-mass
    over [1/n, infinity) keeps growing as n increases.
    """
    if not (1.0 < s < 2.0):
        raise ValueError("the exponent must lie strictly between 1 and 2")
    grid = Grid(length, points)
    x = grid.midpoints
    h = x ** (-0.5 * s) * np.sqrt(1.0 - np.exp(-x))
    hsq = h * h
    dx = grid.spacing
    rows = []
    for n in range(1, n_max + 1):
        support = x >= 1.0 / n
        idx = np.nonzero(support)[0]
        half = idx[: len(idx) // 2]
        rest = idx[len(idx) // 2:]
        g = np.zeros_like(h)
        g[half] = h[half]
        c = (hsq[half].sum() / hsq[rest].sum())
        g[rest] = -c * h[rest]
        gnorm = np.sqrt(dx) * np.linalg.norm(g)
        weight_value = abs(dx * np.vdot(h, g / gnorm)) ** 2
        partial_mass = dx * hsq[support].sum()
        rows.append(NonNormalRow(n, float(weight_value), float(partial_mass)))
    return rows
