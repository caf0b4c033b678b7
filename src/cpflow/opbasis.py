"""Finite operator-space model for weight maps and positivity checks.

The truncated tensor space is modelled as N factors of an m-dimensional
span of decaying exponentials, orthonormalized exactly.  The extra
half-line slot of the big space carries the orthonormal indicators of the
cells between DEFAULT_EDGES.  On these cells multiplication by exp(-x) and
the spectral tail cuts are exact commuting diagonal matrices.

The series kernel khat = lambdahat pihat acts on the first tensor slot
through one m x m matrix, Q = X diag(h) X^T = sum_p h_p x_p x_p^T
(MatrixModel.slot_matrix), with x_p the overlap of the slot basis with
cell p, h_p the cell's damping and kappa the reference coordinates:
khat(rho) = tr_1[(Q (x) I) rho] (x) kappa kappa^T.  N steps contract
every slot, so khat^{N+1} = mu khat^N with mu = kappa^T Q kappa by
construction, and every resolvent is the finite sum

    (I - z khat)^{-1} = sum_{n<N} (z khat)^n + z^N khat^N / (1 - z mu).

A cut drops the cells below its level; khat_c and mu_c are the same
with Q_c over the dropped cells.  The generalized boundary
representation of the series weight at label z, cut o z pihat
(I - z khat_c)^{-1}, is the sum over the words w = p_1 .. p_n of
dropped cells, n <= N, of rho -> K_w rho K_w^*, with coefficient
z^{n+1} for n < N and z^{N+1} / (1 - z mu_c) for n = N: K_w contracts
slots 1 .. n against the sqrt(h_p) x_p, appends kappa^{(x) n} and takes
the cut shift P s0^*.  The unital weight's representation adds one
rank-one term from nu alone, in which 1 - d cancels, kept as the
Kronecker factors of its Choi matrix x^T (x) E (boundary_rep).  A
map's Choi matrix is kept as factors V W V^* (ChoiFactors), and its
spectrum is taken on the range of V (choi_min_eig): nothing here solves
a system or builds a Choi matrix.

Functionals are identified with density matrices: rho(A) = tr(rho_d A).
Every map of the model acts on a density, or on a stack of densities
along leading axes; none is built as a matrix over vectorized densities.

The model is real: its rates, lambda sequence, cells and cuts are real, so
every constant matrix (damping, cross overlap, reference coordinates,
Delta, shift and Q) is float64, and so are the minimal and unital
weights of a real density and their boundary representations.
Complex numbers enter only through a label z with nonzero imaginary part,
from which numpy promotes.  A closed form that returns complex numbers is
taken real only when its imaginary part is exactly zero (_real_if_exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .halfline import ExpKernelVector, ExpMultiplier, inner_product
from .tensorspace import LambdaSequence, tail_weight_product

UNITAL_LIMIT = 1.0 - 1e-8  # the d = nu(Lambda(Delta)) where 1 - d is singular


class NonInvertibleSystemError(np.linalg.LinAlgError):
    """A weight series of the model diverges (|z| mu >= 1), or the
    normalization 1 - nu(Lambda(Delta)) of a unital weight is singular;
    condition is |z| mu or nu(Lambda(Delta))."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


def orthonormal_span(rates) -> list[ExpKernelVector]:
    """Exact orthonormal basis of span{exp(-r x)} via Cholesky of the Gram."""
    rates = [complex(r) for r in rates]
    m = len(rates)
    units = [ExpKernelVector([(1.0, r)]) for r in rates]
    gram = np.array([[inner_product(u, v) for v in units] for u in units])
    chol = np.linalg.cholesky(gram)
    coeff = np.linalg.inv(chol).conj().T  # columns: coordinates of the basis
    return [ExpKernelVector([(coeff[i, k], rates[i]) for i in range(m)])
            for k in range(m)]


def _real_if_exact(a) -> np.ndarray:
    """a as float64 if its imaginary part is exactly zero, else as it is."""
    a = np.asarray(a)
    return a if a.imag.any() else a.real.copy()


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two matrices as one broadcast product: the same
    products, so the same values, without np.kron's overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        len(a) * len(b), a.shape[1] * b.shape[1])


def _label(z: complex) -> complex:
    """z as a complex number, or as a float when its imaginary part is
    zero, so that a real label keeps the model's arithmetic real."""
    z = complex(z)
    return z.real if not z.imag else z


def _finite_resolvent(step, seed, mu_scale, n: int):
    """sum_{k<n} step^k(seed) + step^n(seed) / (1 - mu_scale), by Horner's
    rule: the resolvent (I - step)^{-1} applied to seed when
    step^{n+1} = mu_scale step^n."""
    out = seed / (1.0 - mu_scale)
    for _ in range(n):
        out = seed + step(out)
    return out


def _exp_cell_integral(rate: complex, a: float, b: float) -> complex:
    """integral_a^b exp(-rate x) dx."""
    return (np.exp(-rate * a) - np.exp(-rate * b)) / rate


DEFAULT_EDGES = (0.0, 0.25, 0.5, 2.0)


def cut_edge(t: float) -> float:
    """The cell edge below the top edge that cut level t names, else
    ValueError: a cut at the top edge keeps no cell, so every boundary
    representation there is the zero map and passes any CP check."""
    for edge in DEFAULT_EDGES[:-1]:
        if abs(t - edge) < 1e-12:
            return edge
    raise ValueError("cut levels must be cell edges below the top edge "
                     "%g, got %g" % (DEFAULT_EDGES[-1], t))


def cut_edges(levels) -> list[float]:
    """The edges that the cut levels name (cut_edge): one or more, and no
    edge twice, as it would be checked and reported twice; else ValueError."""
    edges = [cut_edge(t) for t in levels]
    if not edges or len(set(edges)) < len(edges):
        raise ValueError("cut levels must name distinct cell edges, got %s"
                         % (list(levels),))
    return edges


class Cut(NamedTuple):
    """The cut at one cell edge (MatrixModel.cut).

    dropped and kept slice the cells below the edge and the top ones from
    it up, where every map after the cut lives; dim_out = dim_k x kept
    cells is the dimension of those maps' outputs.  words holds the Choi
    vectors vec(K_w^T), one column per word w of length 0 .. N over the
    dropped cells (by length, the first cell of a word most significant),
    indexed (input, kept output) like choi_min_eig's Choi matrix, and
    lengths their lengths: the word p_1 .. p_n contracts slot n + 1 - i
    against sqrt(h_{p_i}) x_{p_i}, and the head P s0^* takes the rest,
    its last n slots against kappa.  mu = kappa^T Q_c kappa is mu_c, and
    x = (I - khat_c^*)^{-1} (I - khat^*) Delta the functional
    rho -> tr(x rho) of every unital weight's rank-one term at the cut
    (MatrixModel.boundary_rep).
    """

    dropped: slice
    kept: slice
    dim_out: int
    words: np.ndarray
    lengths: np.ndarray
    mu: float
    x: np.ndarray


@dataclass(frozen=True)
class MatrixModel:
    """Truncated model with n_factors tensor slots of dimension factor_dim.

    The half-line slot has one basis vector per cell of DEFAULT_EDGES.
    """

    n_factors: int = 4
    factor_dim: int = 2
    seq: LambdaSequence = LambdaSequence("linear")
    # the records of cut, by cut edge
    _cuts: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def dim_k(self) -> int:
        return self.factor_dim ** self.n_factors

    @property
    def h_dim(self) -> int:
        return len(DEFAULT_EDGES) - 1

    @property
    def dim_h(self) -> int:
        return self.dim_k * self.h_dim

    @cached_property
    def basis(self) -> list[ExpKernelVector]:
        rates = [0.5 + j for j in range(self.factor_dim)]
        return orthonormal_span(rates)

    @cached_property
    def damping(self) -> np.ndarray:
        """Compression of multiplication by exp(-x) to the tensor-slot span."""
        damp = ExpMultiplier()
        out = _real_if_exact([[damp.matrix_element(u, v)
                               for v in self.basis] for u in self.basis])
        return 0.5 * (out + out.conj().T)

    @cached_property
    def h_damping(self) -> np.ndarray:
        """Multiplication by exp(-x) compressed to the half-line slot."""
        e = DEFAULT_EDGES
        vals = [_exp_cell_integral(1.0, e[j], e[j + 1]).real / (e[j + 1] - e[j])
                for j in range(self.h_dim)]
        return np.diag(vals)

    @cached_property
    def cross_overlap(self) -> np.ndarray:
        """(tensor-slot basis_i, half-line basis_j) overlap matrix."""
        e = DEFAULT_EDGES
        out = np.empty((self.factor_dim, self.h_dim), dtype=complex)
        for i, vec in enumerate(self.basis):
            for j in range(self.h_dim):
                width = e[j + 1] - e[j]
                val = sum(np.conj(c) * _exp_cell_integral(np.conj(mu),
                                                          e[j], e[j + 1])
                          for c, mu in vec.terms)
                out[i, j] = val / np.sqrt(width)
        return _real_if_exact(out)

    @cached_property
    def reference_coords(self) -> tuple[np.ndarray, float]:
        """Span coordinates of the first tail reference vector, normalized.

        Returns (unit coordinate vector, projection fidelity).
        """
        ref = self.seq.reference(self.n_factors + 1)
        raw = _real_if_exact([inner_product(b, ref) for b in self.basis])
        fid = float(np.linalg.norm(raw))
        return raw / fid, fid

    @cached_property
    def delta_matrix(self) -> np.ndarray:
        """Compression of the limit operator Delta to the truncated space."""
        out = np.array([[1.0]])
        for _ in range(self.n_factors):
            out = _kron(out, self.damping)
        return out * tail_weight_product(self.seq, self.n_factors + 1)

    @cached_property
    def shift(self) -> np.ndarray:
        """Matrix of the shift compression S0 (dim_k x dim_h).

        The half-line factor is projected into slot one, every tensor slot
        moves up, and the last slot is contracted against the reference
        coordinates.
        """
        kappa, _ = self.reference_coords
        rest = np.eye(self.factor_dim ** (self.n_factors - 1))
        # rows (j, i1 .. i_{N-1}), columns (i1 .. i_{N-1}, i_N, i0)
        return np.einsum("jc,ab,k->jabkc", self.cross_overlap, rest,
                         np.conj(kappa)).reshape(self.dim_k, self.dim_h)

    # -- the series kernel on the first slot ---------------------------------

    def _slot_matrix_on(self, cells: slice = slice(None)) -> np.ndarray:
        """Q_c = X_c diag(h_c) X_c^T over the cells (zero for no cell)."""
        x = self.cross_overlap[:, cells]
        return (x * np.diag(self.h_damping)[cells]) @ x.T

    @cached_property
    def slot_matrix(self) -> np.ndarray:
        """Q over all cells: khat = tr_1[(Q (x) I) .] (x) kappa kappa^T."""
        return self._slot_matrix_on()

    def _tail_ratio_of(self, q: np.ndarray) -> float:
        """kappa^T q kappa: mu_c of the slot matrix Q_c of some cells."""
        kappa = self.reference_coords[0]
        return float((kappa @ q @ kappa).real)

    @cached_property
    def tail_ratio(self) -> float:
        """mu = kappa^T Q kappa: khat^{N+1} = mu khat^N, khat's radius."""
        return self._tail_ratio_of(self.slot_matrix)

    def _kernel(self, rho: np.ndarray, q: np.ndarray) -> np.ndarray:
        """tr_1[(q (x) I) rho] (x) kappa kappa^T, the series kernel with
        slot matrix q, on a K-density or a stack of them."""
        m, d, kappa = self.factor_dim, self.dim_k, self.reference_coords[0]
        lead, r = rho.shape[:-2], d // m
        # the first slot's index pair (i, j) as one axis against vec(q)
        pairs = rho.reshape(*lead, m, r, m, r).swapaxes(-3, -2)
        rest = q.ravel() @ pairs.reshape(*lead, m * m, r * r)
        return (rest.reshape(*lead, r, 1, r, 1)
                * np.outer(kappa, kappa)[:, None, :]).reshape(rho.shape)

    def _kernel_dual(self, y: np.ndarray, q: np.ndarray) -> np.ndarray:
        """q^T (x) (I (x) kappa^T) y (I (x) kappa), the dual of _kernel:
        tr(y khat(rho)) = tr(khat^*(y) rho)."""
        m, d, kappa = self.factor_dim, self.dim_k, self.reference_coords[0]
        slots = y.reshape(*y.shape[:-2], d // m, m, d // m, m)
        rest = np.einsum("...akbl,k,l->...ab", slots, kappa, kappa)
        return np.einsum("ji,...ab->...iajb", q, rest).reshape(y.shape)

    def _converging(self, z: complex) -> float:
        """mu, once the weight series at label z converges (|z| mu < 1)."""
        mu = self.tail_ratio
        if abs(z) * mu >= 1.0 - 1e-9:
            raise NonInvertibleSystemError(
                "weight series does not converge in this model", abs(z) * mu)
        return mu

    # -- maps on densities -------------------------------------------------

    def pi_superop(self, rho: np.ndarray) -> np.ndarray:
        """pihat: the density of rho composed with the shift, s0* rho s0."""
        return self.shift.conj().T @ rho @ self.shift

    def lambda_superop(self, rho: np.ndarray,
                       cells: slice = slice(None)) -> np.ndarray:
        """lambdahat on the given cells: the density of rho composed with
        the damping embedding, sum_p h_p (I (x) <p|) rho (I (x) |p>) over
        the cells p in the slice, all of them by default."""
        d, h = self.dim_k, self.h_dim
        blocks = rho.reshape(*rho.shape[:-2], d, h, d, h)
        return np.einsum("...apbp,p->...ab", blocks[..., cells, :, cells],
                         np.diag(self.h_damping)[cells])

    def weight_superop(self, rho: np.ndarray, z: complex = 1.0) -> np.ndarray:
        """The series weight density z pihat (I - z khat)^{-1} rho.

        The resolvent is summed in its finite form sum_{n<N} (z khat)^n +
        z^N khat^N / (1 - z mu), by Horner's rule through Q.  At
        z = 1 this is the minimal weight; the unital weight adds the
        rank-one gap rho -> tr(rho Delta) eta.  A label with zero
        imaginary part is real, so the weight of a real density is real.
        """
        z = _label(z)
        mu = self._converging(z)
        core = _finite_resolvent(
            lambda c: z * self._kernel(c, self.slot_matrix), rho, z * mu,
            self.n_factors)
        # in place, z first: numpy's complex product does not round
        # symmetrically, and z * (an unnamed result of 256 KB or more)
        # runs in place with the operands swapped, so a density's weight
        # would round by the size of its stack
        image = self.pi_superop(core)
        return np.multiply(z, image, out=image)

    def apply_truncation(self, t: float, rho: np.ndarray) -> np.ndarray:
        """The cut P rho P at level t, on the cells it keeps.

        P is the exact 0/1 diagonal on the kept cells (cut(t).kept), so
        P rho P is zero outside rho's block on them; the result is that
        block, a cut(t).dim_out-density.  On a model that has not yet
        built the cut this builds the whole record, words and x too (the
        words take 0.74 s at N = 8, cut 0.5); only tests call this before
        boundary_rep.
        """
        d, h = self.dim_k, self.h_dim
        kept = self.cut(t).kept
        block = rho.reshape(*rho.shape[:-2], d, h, d, h)[..., kept, :, kept]
        return block.reshape(*rho.shape[:-2], d * block.shape[-3], -1)

    # -- boundary representations in word form -----------------------------

    def cut(self, t: float) -> Cut:
        """The cut at level t (Cut), built once per cut edge."""
        edge = cut_edge(t)
        if edge in self._cuts:
            return self._cuts[edge]
        d, m, n_f = self.dim_k, self.factor_dim, self.n_factors
        low = DEFAULT_EDGES.index(edge)
        dropped, kept = slice(0, low), slice(low, self.h_dim)
        head = self.shift.conj().T.reshape(d, self.h_dim, d)[:, kept]
        head = head.reshape(-1, d)
        slot = self.cross_overlap[:, dropped] * np.sqrt(
            np.diag(self.h_damping)[dropped])
        kappa = self.reference_coords[0]
        words, tail, blocks = np.ones((1, 1)), np.ones(1), []
        for n in range(n_f + 1):
            rest = head.reshape(len(head), m ** (n_f - n), m ** n) @ tail
            # vec(K_w^T) indexed (a, b, o, w): words[w, a] rest[o, b]
            blocks.append((words.T[:, None, None, :]
                           * rest.T[None, :, :, None])
                          .reshape(d * len(head), -1))
            # the next letter p leads: slot[k, p] words[w, a] at (p w, a k)
            words = slot.T[:, None, None, :] * words[None, :, :, None]
            words = words.reshape(-1, m ** (n + 1))
            tail = np.outer(tail, kappa).ravel()
        lengths = np.repeat(np.arange(n_f + 1), [b.shape[1] for b in blocks])
        q_c = self._slot_matrix_on(dropped)
        mu_c, delta = self._tail_ratio_of(q_c), self.delta_matrix
        seed = delta - self._kernel_dual(delta, self.slot_matrix)
        x = _finite_resolvent(lambda y: self._kernel_dual(y, q_c), seed,
                              mu_c, n_f)
        self._cuts[edge] = Cut(dropped, kept, d * (self.h_dim - low),
                               np.hstack(blocks), lengths, mu_c, x)
        return self._cuts[edge]

    def boundary_rep(self, t: float, z: complex = 1.0,
                     nu: np.ndarray | None = None) -> BoundaryRep:
        """Generalized boundary representation at cut level t, in word form.

        Of the series weight at label z: cut o z pihat (I - z khat_c)^{-1},
        the word sum of the module docstring, on the outputs the cut
        keeps (apply_truncation).

        With nu, of the unital weight omega^1 + G(eta) built from nu
        (label 1), G(eta) the rank-one gap rho -> tr(rho Delta) eta with
        eta = (nu + omega^1(lambdahat nu)) / (1 - d), d = nu(Lambda(Delta))
        (the density of weights.xi_from_nu): B0, the minimal weight's
        representation, plus

            rho -> tr(x rho) E / (1 - tr(x lambdahat_c nu)),
            E = cut(nu) + B0(lambdahat_c nu),
            x = (I - khat_c^*)^{-1} (I - khat^*) Delta,

        with lambdahat_c lambdahat on the dropped cells: G(eta)'s
        Sherman-Morrison term with 1 - d cancelled, so eta is never summed.
        nu is rejected with condition d when 1 - d is singular
        (d >= UNITAL_LIMIT).  The term is kept as its Kronecker factors,
        x (dim_k x dim_k, the same for every nu) and E over its scale
        (BoundaryRep); a weight without one has E = 0.
        """
        z = _label(z)
        if nu is not None and z != 1.0:
            raise ValueError("the unital weight has label 1, got %r" % z)
        self._converging(z)
        cut, n_f = self.cut(t), self.n_factors
        vectors, x, dn = cut.words, cut.x, cut.dim_out
        coeffs = np.where(cut.lengths < n_f, z ** (cut.lengths + 1),
                          z ** (n_f + 1) / (1.0 - z * cut.mu))
        if nu is None:
            return BoundaryRep(vectors, coeffs, x, np.zeros((dn, dn)))
        d_val = np.trace(self.lambda_superop(nu) @ self.delta_matrix).real
        if d_val >= UNITAL_LIMIT:
            raise NonInvertibleSystemError(
                "normalization 1 - nu(Lambda(Delta)) is singular", d_val)
        # E = cut(nu) + B0(lambdahat_c nu), B0 read off the words on the
        # rows where lambdahat_c nu is not identically zero
        low_nu = self.lambda_superop(nu, cut.dropped)
        on = np.flatnonzero(np.any(low_nu != 0, axis=1))
        cols = vectors.reshape(self.dim_k, dn, -1)[on].transpose(1, 2, 0)
        cols = cols.reshape(dn, -1)
        e = self.apply_truncation(t, nu) + cols @ _kron(
            np.diag(coeffs), low_nu[np.ix_(on, on)]) @ cols.conj().T
        return BoundaryRep(vectors, coeffs, x,
                           e / (1.0 - np.sum(x.T * low_nu)))


@dataclass(frozen=True)
class ChoiFactors:
    """A map between density spaces by factors of its Choi matrix.

    The Choi matrix is vectors @ weights @ vectors^*, with vectors of
    shape (dim_in * dim_out, m), indexed (input, output) like the rows of
    the Choi matrix of choi_min_eig, and weights (m, m).  Adding two maps
    stacks their factors.
    """

    vectors: np.ndarray
    weights: np.ndarray

    def __add__(self, other: ChoiFactors) -> ChoiFactors:
        a, b = self.weights, other.weights
        weights = np.zeros((len(a) + len(b),) * 2, np.result_type(a, b))
        weights[:len(a), :len(a)], weights[len(a):, len(a):] = a, b
        return ChoiFactors(np.hstack([self.vectors, other.vectors]), weights)


@dataclass(frozen=True)
class BoundaryRep:
    """A generalized boundary representation in word form.

    The map rho -> sum_w coeffs[w] K_w rho K_w^* from K-densities to the
    densities on the cells a cut keeps, plus the unital weight's rank-one
    term rho -> tr(x rho) e: words holds the Choi vectors of the K_w, one
    column each (MatrixModel.boundary_rep), and the term's Choi matrix is
    x^T (x) e, with e = 0 for a weight that has none.
    """

    words: np.ndarray
    coeffs: np.ndarray
    x: np.ndarray
    e: np.ndarray

    @property
    def gap(self) -> ChoiFactors:
        """Choi factors of the rank-one term, on the rows where e is not
        identically zero (without columns when e = 0)."""
        on = np.flatnonzero(np.any(self.e != 0, axis=1))
        return ChoiFactors(_kron(np.eye(len(self.x)),
                                 np.eye(len(self.e))[:, on]),
                           _kron(self.x.T, self.e[np.ix_(on, on)]))

    @property
    def choi(self) -> ChoiFactors:
        words = ChoiFactors(self.words, np.diag(self.coeffs))
        return words + self.gap if self.e.any() else words


# ---------------------------------------------------------------------------
# Choi spectra
# ---------------------------------------------------------------------------

CP_TOLERANCE = 1e-8
"""How far below zero a minimum Choi eigenvalue may lie for a CP verdict."""


def is_cp(min_eigenvalue: float) -> bool:
    """The CP verdict on a minimum Choi eigenvalue: >= -CP_TOLERANCE."""
    return min_eigenvalue >= -CP_TOLERANCE


@dataclass(frozen=True)
class ChoiVerdict:
    min_eigenvalue: float
    trace: float
    hermiticity_defect: float


def choi_min_eig(factors: ChoiFactors, dim_in: int,
                 dim_out: int) -> ChoiVerdict:
    """Minimum Choi eigenvalue of a map; it is CP when that is not negative.

    With the thin QR V = QR of the Choi vectors, the Choi matrix
    V W V^* = Q (R W R^*) Q^* has the spectrum of R W R^* on the range
    of V and zeros on its orthogonal complement, which is not empty when
    V has fewer columns than the Choi dimension: the minimum is then
    min(that of R W R^*, 0), with no rank threshold, and 0 for a map
    without factors.  The spectrum is that of the Hermitian part of W;
    trace and hermiticity defect are those of the whole Choi matrix.
    """
    vectors, weights = factors.vectors, factors.weights
    dim = dim_in * dim_out
    if vectors.shape[0] != dim:
        raise ValueError("Choi vectors do not match the dimensions")
    r = np.linalg.qr(vectors, mode="r")
    herm = 0.5 * (weights + weights.conj().T)
    core = r @ herm @ r.conj().T
    defect = float(np.linalg.norm(r @ (weights - herm) @ r.conj().T))
    low = float(np.linalg.eigvalsh(core)[0]) if len(core) else 0.0
    if len(core) < dim:
        low = min(low, 0.0)
    return ChoiVerdict(low, float(np.trace(core).real), defect)
