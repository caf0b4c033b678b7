"""Single-particle calculus on L2(0, infinity).

Two backends live here.  The analytic backend works with finite
combinations of decaying exponentials, for which inner products and the
canonical maps (multiplication by e^{-x}, the damped translation average,
the boundary expectation) all have closed forms.  The grid backend stores
samples at cell midpoints and is the carrier for transport.

Every analytic closed form reduces to inner_product, the one place where
the exponential kernel sum_{jk} conj(c_j) d_k / (conj(mu_j) + nu_k) is
summed: multiplication by exp(-r x) shifts every rate by r, translation
and tail restriction rescale the coefficients, and rank-one factors fold
into the coefficients of a single vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np


class InvalidVectorError(ValueError):
    """Raised when an exponential-kernel vector is not square integrable."""


class UnsupportedRepresentationError(TypeError):
    """Raised when an operation needs a representation it was not given."""


# ---------------------------------------------------------------------------
# analytic backend
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpKernelVector:
    """A function x -> sum_j c_j exp(-mu_j x) with Re(mu_j) > 0.

    terms: sequence of (coefficient, rate) pairs.
    """

    terms: tuple[tuple[complex, complex], ...]

    def __init__(self, terms: Iterable[tuple[complex, complex]]):
        terms = tuple((complex(c), complex(mu)) for c, mu in terms)
        for _, mu in terms:
            if mu.real <= 0.0:
                raise InvalidVectorError(
                    "rate %r has non-positive real part" % (mu,))
        object.__setattr__(self, "terms", terms)

    def __add__(self, other: "ExpKernelVector") -> "ExpKernelVector":
        return ExpKernelVector(self.terms + other.terms)

    def scaled(self, c: complex) -> "ExpKernelVector":
        return ExpKernelVector([(c * a, mu) for a, mu in self.terms])

    def shifted(self, delta: complex) -> "ExpKernelVector":
        """Multiply pointwise by exp(-delta x), i.e. add delta to each rate."""
        return ExpKernelVector([(a, mu + delta) for a, mu in self.terms])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=complex)
        for c, mu in self.terms:
            out += c * np.exp(-mu * x)
        return out

    def norm(self) -> float:
        return float(np.sqrt(inner_product(self, self).real))


def inner_product(f: ExpKernelVector, g: ExpKernelVector) -> complex:
    """Exact value of integral_0^inf conj(f(x)) g(x) dx.

    For f = sum c_j exp(-mu_j x) and g = sum d_k exp(-nu_k x) this is
    sum_{jk} conj(c_j) d_k / (conj(mu_j) + nu_k).
    """
    total = 0.0 + 0.0j
    for c, mu in f.terms:
        c_bar, mu_bar = c.conjugate(), mu.conjugate()
        for d, nu in g.terms:
            total += c_bar * d / (mu_bar + nu)
    return total


def reference_vector(lam: float) -> ExpKernelVector:
    """The unit vector lam * exp(-lam^2 x / 2)."""
    if lam <= 0:
        raise InvalidVectorError("reference parameter must be positive")
    return ExpKernelVector([(lam, 0.5 * lam * lam)])


BOUNDARY_KERNEL = ExpKernelVector([(1.0, 0.5)])
"""Unit vector q(x) = exp(-x/2) used for the boundary expectation.

The defining identities (value 1 on the identity, factor 1/2 against
multiplication by exp(-x), factor exp(-t) under translation conjugation)
single out this kernel; source texts for this construction disagree on
the printed expression, and the identity-preserving choice is used here.
"""


# ---------------------------------------------------------------------------
# operators in kernel form
# ---------------------------------------------------------------------------

class HalfLineOperator:
    """Base class: anything with matrix elements against kernel vectors."""

    def matrix_element(self, u: ExpKernelVector, v: ExpKernelVector) -> complex:
        """Return (u, A v)."""
        raise NotImplementedError

    def adjoint(self) -> "HalfLineOperator":
        raise NotImplementedError


class IdentityOperator(HalfLineOperator):
    def matrix_element(self, u, v):
        return inner_product(u, v)

    def adjoint(self):
        return self


class ZeroOperator(HalfLineOperator):
    def matrix_element(self, u, v):
        return 0.0 + 0.0j

    def adjoint(self):
        return self


@dataclass(frozen=True)
class ExpMultiplier(HalfLineOperator):
    """Multiplication by exp(-rate * x); rate=1 is the damping factor."""

    rate: complex = 1.0

    def matrix_element(self, u, v):
        return inner_product(u, v.shifted(self.rate))

    def adjoint(self):
        return ExpMultiplier(np.conj(self.rate))


@dataclass(frozen=True)
class RankOneSum(HalfLineOperator):
    """A = sum_j w_j |ket_j><bra_j| over exponential-kernel vectors."""

    parts: tuple[tuple[ExpKernelVector, ExpKernelVector, complex], ...]

    def __init__(self, parts: Iterable[tuple[ExpKernelVector, ExpKernelVector, complex]]):
        object.__setattr__(
            self, "parts",
            tuple((bra, ket, complex(w)) for bra, ket, w in parts))

    def matrix_element(self, u, v):
        total = 0.0 + 0.0j
        for bra, ket, w in self.parts:
            total += w * inner_product(u, ket) * inner_product(bra, v)
        return total

    def adjoint(self):
        return RankOneSum([(ket, bra, np.conj(w)) for bra, ket, w in self.parts])


@dataclass(frozen=True)
class GammaImage(HalfLineOperator):
    """The damped translation average of a source operator.

    Matrix elements are the closed-form value of
    integral_0^inf exp(-t) (u, U(t) A U(t)* v) dt
    where U(t) is right translation.  Only identity and rank-one-sum
    sources are supported exactly.
    """

    source: HalfLineOperator

    def matrix_element(self, u, v):
        src = self.source
        if isinstance(src, IdentityOperator):
            return inner_product(u, v) - inner_product(u, v.shifted(1.0))
        if isinstance(src, ZeroOperator):
            return 0.0 + 0.0j
        if isinstance(src, RankOneSum):
            # (u, ket)(bra, v) / (1 + conj(alpha) + nu) per pair of terms of
            # u and v: fold the overlaps into the coefficients, damp once
            total = 0.0 + 0.0j
            for bra, ket, w in src.parts:
                total += w * inner_product(_weighted(u, ket),
                                           _weighted(v, bra).shifted(1.0))
            return total
        raise UnsupportedRepresentationError(
            "damped translation average needs identity or rank-one-sum input; "
            "use the grid quadrature path for matrix data")

    def adjoint(self):
        return GammaImage(self.source.adjoint())


def _weighted(f: ExpKernelVector, g: ExpKernelVector) -> ExpKernelVector:
    """sum_j c_j (g, exp(-mu_j x)) exp(-mu_j x) over the terms of f."""
    return ExpKernelVector(
        [(c * inner_product(g, ExpKernelVector([(1.0, mu)])), mu)
         for c, mu in f.terms])


def apply_gamma(a: HalfLineOperator) -> HalfLineOperator:
    """Gamma(A): average of U(t) A U(t)* against exp(-t) dt.

    Satisfies Gamma(I) = I - (multiplication by exp(-x)).
    """
    if isinstance(a, np.ndarray):
        raise UnsupportedRepresentationError(
            "grid matrices are not supported exactly; call gamma_grid")
    return GammaImage(a)


def gamma_grid(a: np.ndarray, grid: "Grid", t_cut: float = 40.0) -> np.ndarray:
    """Approximate the damped translation average of a grid-matrix operator.

    The result is flagged approximate: the t-integral is a Riemann sum over
    whole-cell translations and the tail beyond t_cut is dropped:

        out[i, j] = sum_{k < steps, k <= min(i, j)} h e^{-kh} a[i-k, j-k],

    since U(kh) A U(kh)* shifts the matrix down-right by k cells.  Rows
    follow the diagonal recursion

        out[i] = h a[i] + e^{-h} shift(out[i-1]),

    less h e^{-steps h} shift^steps(a[i-steps]) once the cut truncates,
    which is O(n^2) instead of one n x n block per step, O(n^3).  It
    agrees with the blockwise sum to 1e-13 relative (tests/test_halfline).
    """
    n = grid.points
    if a.shape != (n, n):
        raise UnsupportedRepresentationError("matrix does not match the grid")
    h = grid.spacing
    steps = min(n, int(round(t_cut / h)))
    if steps <= 0:
        return np.zeros((n, n), dtype=complex)
    out = h * np.asarray(a, dtype=complex)
    decay = np.exp(-h)
    cut = h * np.exp(-steps * h)
    for i in range(1, n):
        out[i, 1:] += decay * out[i - 1, :-1]
        if i >= steps:
            out[i, steps:] -= cut * a[i - steps, : n - steps]
    return out


def phi_functional(rho: Callable, a_h: HalfLineOperator | None = None,
                   a_k=None) -> complex:
    """Boundary expectation of a product operator against a functional.

    rho is a callable functional on the tensor-space part (rho(None) must
    give the value on the identity); a_h is the half-line factor of the
    operator and a_k its tensor-space factor.  The half-line factor is
    contracted against the boundary kernel q(x) = exp(-x/2).
    """
    if a_h is None:
        a_h = IdentityOperator()
    q = BOUNDARY_KERNEL
    return a_h.matrix_element(q, q) * rho(a_k)


# ---------------------------------------------------------------------------
# grid backend
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    length: float
    points: int

    def __post_init__(self):
        if self.length <= 0 or self.points <= 0:
            raise ValueError("grid needs positive length and point count")

    @property
    def spacing(self) -> float:
        return self.length / self.points

    @property
    def midpoints(self) -> np.ndarray:
        h = self.spacing
        return (np.arange(self.points) + 0.5) * h


@dataclass(frozen=True)
class GridVector:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.points,):
            raise ValueError("value array does not match the grid")
        object.__setattr__(self, "values", vals)

    def norm(self) -> float:
        return float(np.sqrt(self.grid.spacing) * np.linalg.norm(self.values))


def sample(f: ExpKernelVector, grid: Grid) -> GridVector:
    return GridVector(grid, f(grid.midpoints))


def grid_inner_product(f: GridVector, g: GridVector) -> complex:
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    return f.grid.spacing * complex(np.vdot(f.values, g.values))


@dataclass(frozen=True)
class TranslateResult:
    vector: GridVector
    steps: int
    snap_distance: float


def translate(f: GridVector, t: float) -> TranslateResult:
    """Right translation by t, snapped to a whole number of cells.

    Shift with zero fill; mass pushed past the right edge is discarded.
    """
    if t < 0:
        raise ValueError("translation distance must be nonnegative")
    h = f.grid.spacing
    steps = int(round(t / h))
    snap = abs(t - steps * h)
    vals = np.zeros_like(f.values)
    if steps < f.grid.points:
        if steps == 0:
            vals[:] = f.values
        else:
            vals[steps:] = f.values[:-steps]
    return TranslateResult(GridVector(f.grid, vals), steps, snap)


def cut_projector(f: GridVector, t: float) -> GridVector:
    """Apply E(t) = I - U(t)U(t)*: keep the part supported in [0, t)."""
    h = f.grid.spacing
    steps = int(round(t / h))
    vals = f.values.copy()
    vals[steps:] = 0.0
    return GridVector(f.grid, vals)


def tail_projector(f: GridVector, t: float) -> GridVector:
    """Apply U(t)U(t)*: keep the part supported in [t, infinity)."""
    h = f.grid.spacing
    steps = int(round(t / h))
    vals = f.values.copy()
    vals[:steps] = 0.0
    return GridVector(f.grid, vals)
