"""Finite operator-space model for weight maps and positivity checks.

The truncated tensor space is modelled as N factors of an m-dimensional
span of decaying exponentials, orthonormalized exactly.  The extra
half-line slot of the big space carries the orthonormal indicators of the
cells between DEFAULT_EDGES.  On these cells multiplication by exp(-x) and
the spectral tail cuts are exact commuting diagonal matrices, which is
what makes the generalized boundary representation of a series weight
manifestly completely positive: the resolvent rearranges into the
positive series

    cut o sum_n (pihat lambdahat_complement)^n pihat.

Functionals are identified with density matrices: rho(A) = tr(rho_d A).
Maps between functional spaces are superoperator matrices over row-major
vectorized densities; lambdahat alone is applied without its matrix.

The model is real: its rates, lambda sequence, cells and cuts are real, so
every constant matrix (damping, cross overlap, reference coordinates,
Delta, shift, cut, pihat and the series kernel) is float64, and so are the
minimal and unital weights and their boundary representations.  Complex
numbers enter only through a label z with nonzero imaginary part, from
which numpy promotes.  A closed form that returns complex numbers is
taken real only when its imaginary part is exactly zero (_real_if_exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .halfline import ExpKernelVector, inner_product
from .tensorspace import LambdaSequence, tail_weight_product


class NonInvertibleSystemError(np.linalg.LinAlgError):
    """The resolvent system of a boundary representation is singular."""

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


def _exp_cell_integral(rate: complex, a: float, b: float) -> complex:
    """integral_a^b exp(-rate x) dx."""
    return (np.exp(-rate * a) - np.exp(-rate * b)) / rate


DEFAULT_EDGES = (0.0, 0.25, 0.5, 2.0)


@dataclass(frozen=True)
class MatrixModel:
    """Truncated model with n_factors tensor slots of dimension factor_dim.

    The half-line slot has one basis vector per cell of DEFAULT_EDGES.
    """

    n_factors: int = 4
    factor_dim: int = 2
    seq: LambdaSequence = LambdaSequence("linear")

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
        out = _real_if_exact([[inner_product(u, v.shifted(1.0))
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
            out = np.kron(out, self.damping)
        return out * tail_weight_product(self.seq, self.n_factors + 1)

    @cached_property
    def shift(self) -> np.ndarray:
        """Matrix of the shift compression S0 (dim_k x dim_h).

        The half-line factor is projected into slot one, every tensor slot
        moves up, and the last slot is contracted against the reference
        coordinates.
        """
        m, n, mh = self.factor_dim, self.n_factors, self.h_dim
        kappa, _ = self.reference_coords
        cross = self.cross_overlap
        s0 = np.zeros((self.dim_k, self.dim_h),
                      dtype=np.result_type(kappa, cross))
        shape = (m,) * n + (mh,)
        for col in range(self.dim_h):
            idx = np.unravel_index(col, shape)  # (i1 .. iN, i0)
            v = np.zeros((m,) * n, dtype=s0.dtype)
            coeff = np.conj(kappa[idx[-2]])
            for j in range(m):
                out_idx = (j,) + idx[:-2]
                v[out_idx] = coeff * cross[j, idx[-1]]
            s0[:, col] = v.reshape(-1)
        return s0

    def cut(self, t: float) -> np.ndarray:
        """The spectral tail cut U(t)U(t)* on the half-line slot.

        t must coincide with a cell edge; the cut is then an exact
        diagonal projection.
        """
        e = DEFAULT_EDGES
        if not any(abs(t - edge) < 1e-12 for edge in e):
            raise ValueError("cut level %g is not a cell edge of %r" % (t, e))
        return np.diag([1.0 if e[j] >= t - 1e-12 else 0.0
                        for j in range(self.h_dim)])

    # -- superoperator matrices --------------------------------------------

    @cached_property
    def pi_superop(self) -> np.ndarray:
        """pihat: the density of rho composed with the shift, s0* rho s0."""
        s0 = self.shift
        return np.kron(s0.conj().T, s0.T)

    def lambda_superop(self, mu: np.ndarray) -> np.ndarray:
        """lambdahat: the density of mu composed with the damping embedding.

        mu is a density, or a superoperator whose columns are vectorized
        densities; a superoperator is mapped column by column, so the
        result is lambdahat @ mu without building the dense lambdahat.
        """
        d = self.dim_k
        mh = self.h_dim
        if mu.shape == (d * mh, d * mh):
            mu4 = mu.reshape(d, mh, d, mh)
            return np.einsum("bqap,pq->ba", mu4, self.h_damping)
        mu5 = mu.reshape(d, mh, d, mh, -1)
        out = np.einsum("bqap...,pq->ba...", mu5, self.h_damping)
        return out.reshape(d * d, -1)

    @cached_property
    def series_kernel(self) -> tuple[np.ndarray, float]:
        """lambdahat pihat on K-densities, and its spectral radius.

        Every series resolvent of the model is (I - z lambdahat pihat)^{-1}
        on dim_k^2 coordinates; the weight series converges for
        |z| radius < 1.
        """
        k_hat = self.lambda_superop(self.pi_superop)
        return k_hat, float(np.max(np.abs(np.linalg.eigvals(k_hat))))

    def weight_superop(self, z: complex = 1.0) -> np.ndarray:
        """Matrix of rho -> series weight density on the big space.

        The geometric series z pihat (I - z lambdahat pihat)^{-1} is summed
        by an exact resolvent solve.  At z = 1 this is the minimal weight;
        the unital weight adds gap_superop.  A label with zero imaginary
        part is real, so the weight is real.
        """
        z = complex(z)
        if not z.imag:
            z = z.real
        d = self.dim_k
        k_hat, radius = self.series_kernel
        if abs(z) * radius >= 1.0 - 1e-9:
            raise NonInvertibleSystemError(
                "weight series does not converge in this model", radius)
        core = np.linalg.solve(np.eye(d * d) - z * k_hat, np.eye(d * d))
        return z * (self.pi_superop @ core)

    def gap_superop(self, eta: np.ndarray) -> np.ndarray:
        """The rank-one gap G = eta (x) Delta, rho -> tr(rho Delta) eta.

        eta is the density of the normalized weight (xi_eta), and the
        unital weight is weight_superop() + gap_superop(eta).
        """
        return eta.reshape(-1, 1) @ self.delta_matrix.T.reshape(1, -1)

    def xi_eta(self, nu_density: np.ndarray) -> tuple[np.ndarray, float]:
        """Density of the normalized weight built from nu, plus nu(Lambda Delta).

        With d = nu(Lambda(Delta)), eta = (1 - d)^{-1} sum_n (pihat
        lambdahat)^n nu.  Pushing the resolvent through lambdahat sums the
        series on K-densities:

            sum_n (pihat lambdahat)^n nu
                = nu + pihat (I - lambdahat pihat)^{-1} lambdahat nu,

        so eta = (nu + omega1(nu o Lambda)) / (1 - d) with omega1 the
        minimal weight.  This is the formula of weights.BoundaryWeight.value
        for the weight that weights.xi_from_nu builds from nu.
        """
        lam_nu = self.lambda_superop(nu_density)
        d_val = np.trace(lam_nu @ self.delta_matrix).real
        if d_val >= 1.0 - 1e-8:
            raise NonInvertibleSystemError(
                "normalization 1 - nu(Lambda(Delta)) is singular", d_val)
        dk, dh = self.dim_k, self.dim_h
        k_hat, _ = self.series_kernel
        core = np.linalg.solve(np.eye(dk * dk) - k_hat, lam_nu.reshape(-1))
        tail = (self.pi_superop @ core).reshape(dh, dh)
        eta = (nu_density + tail) / (1.0 - d_val)
        return 0.5 * (eta + eta.conj().T), d_val

    def apply_truncation(self, t: float, superop: np.ndarray) -> np.ndarray:
        """Compose mu -> P mu P after the given superoperator.

        The cut P is an exact 0/1 diagonal, so P mu P keeps the rows and
        columns of mu on the cells at or above t and zeroes the rest.  The
        result is a mask over the output axes of the superoperator and
        equals the dense superoperator of mu -> P mu P times superop, bit
        for bit.
        """
        dh = self.dim_h
        keep = np.tile(np.diag(self.cut(t)), self.dim_k)
        om3 = superop.reshape(dh, dh, -1)
        out = om3 * np.outer(keep, keep)[:, :, None]
        return out.reshape(dh * dh, -1)

    def boundary_rep(self, omega_superop: np.ndarray,
                     t: float) -> tuple[np.ndarray, float]:
        """Generalized boundary representation at cut level t.

        Solves (I + lambdahat omegahat|_t) sigma = rho and returns the
        superoperator rho -> omegahat|_t(sigma) together with the condition
        number of the solved system.  No inverse is formed: the rows of
        omegahat|_t that are not identically zero are solved against the
        transposed system, and the rows the cut removed stay exact zeros.
        """
        w_t = self.apply_truncation(t, omega_superop)
        k_mat = self.lambda_superop(w_t)
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


# ---------------------------------------------------------------------------
# Choi spectra
# ---------------------------------------------------------------------------

def choi_matrix(superop: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    """Choi matrix of a map given as a superoperator over matrix units."""
    if superop.shape != (dim_out * dim_out, dim_in * dim_in):
        raise ValueError("superoperator shape does not match the dimensions")
    t4 = superop.reshape(dim_out, dim_out, dim_in, dim_in)
    return (t4.transpose(2, 0, 3, 1)
            .reshape(dim_in * dim_out, dim_in * dim_out))


@dataclass(frozen=True)
class ChoiVerdict:
    min_eigenvalue: float
    trace: float
    hermiticity_defect: float
    tolerance: float

    @property
    def completely_positive(self) -> bool:
        scale = max(abs(self.trace), 1.0)
        return self.min_eigenvalue >= -self.tolerance * scale


def choi_min_eig(superop: np.ndarray, dim_in: int, dim_out: int,
                 tolerance: float = 1e-8) -> ChoiVerdict:
    """Minimum Choi eigenvalue; the map is CP when it is not negative.

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
    # choi.conj() would not do here, since for real input (the model's
    # usual case) it returns choi itself and herm += choi would double it
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
    return ChoiVerdict(low, float(np.trace(herm).real), defect, tolerance)

