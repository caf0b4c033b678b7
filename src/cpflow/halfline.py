"""Single-particle calculus on L2(0, infinity).

Functions are finite combinations of decaying exponentials, for which
inner products and the canonical maps (multiplication by e^{-x} and the
damped translation average) have closed forms.  Grid is the
cell-midpoint grid on [0, L); gamma_grid is the damped translation
average of a matrix on it, and grid functions under transport are
semigroups.FlowState.

Every analytic closed form reduces to inner_product, the one place where
the exponential kernel sum_{jk} conj(c_j) d_k / (conj(mu_j) + nu_k) is
summed: multiplication by exp(-r x) shifts every rate by r, translation
and tail restriction rescale the coefficients, and rank-one factors fold
into the coefficients of a single vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


class InvalidVectorError(ValueError):
    """Raised when an exponential-kernel vector is not square integrable."""


class UnsupportedRepresentationError(TypeError):
    """Raised when an operation needs a representation it was not given."""


# ---------------------------------------------------------------------------
# exponential kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpKernelVector:
    """A function x -> sum_j c_j exp(-mu_j x) with Re(mu_j) > 0.

    terms: sequence of (coefficient, rate) pairs.  A coefficient may be a
    1-D array, one entry per member of a block of vectors with the same
    rates; it is held as a ComplexBlock, so every closed form runs on all
    members at once and rounds each member as it rounds a single vector.
    Block vectors are not hashable.
    """

    terms: tuple[tuple[complex, complex], ...]

    def __init__(self, terms: Iterable[tuple[complex, complex]]):
        terms = tuple((_coefficient(c), complex(mu)) for c, mu in terms)
        for _, mu in terms:
            if mu.real <= 0.0:
                raise InvalidVectorError(
                    "rate %r has non-positive real part" % (mu,))
        object.__setattr__(self, "terms", terms)

    def __add__(self, other: "ExpKernelVector") -> "ExpKernelVector":
        return ExpKernelVector(self.terms + other.terms)

    def shifted(self, delta: complex) -> "ExpKernelVector":
        """Multiply pointwise by exp(-delta x), i.e. add delta to each rate."""
        return ExpKernelVector([(a, mu + delta) for a, mu in self.terms])


def _coefficient(c):
    """complex(c), or a 1-D block as a ComplexBlock."""
    if isinstance(c, ComplexBlock):
        return c
    if isinstance(c, np.ndarray) and c.ndim:
        c = np.asarray(c, complex)
        return ComplexBlock(np.array(c.real), np.array(c.imag))
    return complex(c)


class ComplexBlock:
    """A 1-D block of complex numbers held as two float64 arrays.

    + and * (a scalar on either side), - (a scalar on the right), / by
    a scalar, conjugate() and abs() round every member exactly as
    CPython 3.11 rounds the same operation on that member as a Python
    complex (_Py_c_sum, _Py_c_diff, _Py_c_prod, _Py_c_quot, hypot).
    Each real multiply and add is its own ufunc call, so no pair of them
    can fuse into an FMA; numpy's complex128 product and np.abs round
    differently.  A scalar operand (int, float, complex or a numpy
    number) is promoted with complex(x), as CPython promotes it.  A
    block divisor and array operands raise TypeError, an overflowing
    modulus is inf where CPython raises OverflowError, and numpy may
    warn on overflow where CPython is silent.  np.asarray gives
    complex128.
    """

    __slots__ = ("real", "imag")
    __array_ufunc__ = None  # numpy operators defer to the block
    __hash__ = None

    def __init__(self, real: np.ndarray, imag: np.ndarray):
        self.real = real
        self.imag = imag

    @property
    def shape(self) -> tuple[int, ...]:
        return self.real.shape

    @property
    def size(self) -> int:
        return self.real.size

    def __array__(self, dtype=None, copy=None):
        out = np.empty(self.real.shape, complex)
        out.real = self.real
        out.imag = self.imag
        return out if dtype is None else out.astype(dtype, copy=False)

    def conjugate(self) -> "ComplexBlock":
        return ComplexBlock(self.real, -self.imag)

    def __abs__(self) -> np.ndarray:
        return np.hypot(self.real, self.imag)

    def __add__(self, other) -> "ComplexBlock":
        o = _parts(other)
        if o is None:
            return NotImplemented
        return ComplexBlock(self.real + o[0], self.imag + o[1])

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexBlock":
        o = _parts(other)
        if o is None:
            return NotImplemented
        return ComplexBlock(self.real - o[0], self.imag - o[1])

    def __mul__(self, other) -> "ComplexBlock":
        # (ar br - ai bi) + (ar bi + ai br) i: the same sum in either
        # operand order, so it serves both sides
        o = _parts(other)
        if o is None:
            return NotImplemented
        ar, ai = self.real, self.imag
        br, bi = o
        return ComplexBlock(ar * br - ai * bi, ar * bi + ai * br)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexBlock":
        """The branches of _Py_c_quot, chosen once from the scalar divisor."""
        if isinstance(other, ComplexBlock):
            raise TypeError("a block divides only by a scalar")
        o = _parts(other)
        if o is None:
            return NotImplemented
        ar, ai = self.real, self.imag
        br, bi = o
        if abs(br) >= abs(bi):
            if br == 0.0:
                raise ZeroDivisionError("complex division by zero")
            ratio = bi / br
            denom = br + bi * ratio
            return ComplexBlock((ar + ai * ratio) / denom,
                                (ai - ar * ratio) / denom)
        if abs(bi) >= abs(br):
            ratio = br / bi
            denom = br * ratio + bi
            return ComplexBlock((ar * ratio + ai) / denom,
                                (ai * ratio - ar) / denom)
        nan = np.full(ar.shape, np.nan)  # a NaN part in the divisor
        return ComplexBlock(nan, nan.copy())


def _parts(x):
    """(real, imag) of a block or of complex(x) for a scalar x, else None."""
    if isinstance(x, ComplexBlock):
        return x.real, x.imag
    if isinstance(x, (int, float, complex, np.number)):
        x = complex(x)
        return x.real, x.imag
    return None


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


# ---------------------------------------------------------------------------
# operators in kernel form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityOperator:
    """The identity; every instance is equal to and hashes like every other."""

    def matrix_element(self, u, v):
        return inner_product(u, v)


@dataclass(frozen=True)
class ExpMultiplier:
    """Multiplication by exp(-x); all instances are equal and hash alike."""

    def matrix_element(self, u, v):
        return inner_product(u, v.shifted(1.0))


def gamma_element(u: ExpKernelVector, v: ExpKernelVector,
                  parts: Iterable[tuple[ExpKernelVector, ExpKernelVector,
                                        complex]] | None = None) -> complex:
    """Exact (u, Gamma(A) v), where Gamma(A) is the damped translation average

        integral_0^inf exp(-t) U(t) A U(t)* dt

    and U(t) is right translation.  A is the identity when parts is None,
    so the value is that of Gamma(I) = I - (multiplication by exp(-x)).
    Otherwise A = sum_j w_j |ket_j><bra_j| over the triples (bra, ket, w)
    in parts.  gamma_grid is the grid form of the same average.
    """
    if parts is None:
        return inner_product(u, v) - inner_product(u, v.shifted(1.0))
    # (u, ket)(bra, v) / (1 + conj(alpha) + nu) per pair of terms of u and
    # v: fold the overlaps into the coefficients, damp once
    total = 0.0 + 0.0j
    for bra, ket, w in parts:
        total += complex(w) * inner_product(_weighted(u, ket),
                                            _weighted(v, bra).shifted(1.0))
    return total


def _weighted(f: ExpKernelVector, g: ExpKernelVector) -> ExpKernelVector:
    """sum_j c_j (g, exp(-mu_j x)) exp(-mu_j x) over the terms of f."""
    return ExpKernelVector(
        [(c * inner_product(g, ExpKernelVector([(1.0, mu)])), mu)
         for c, mu in f.terms])


def gamma_grid(a: np.ndarray, grid: "Grid") -> np.ndarray:
    """Approximate the damped translation average of a grid-matrix operator.

    The result is flagged approximate: the t-integral is a Riemann sum over
    every whole-cell translation that keeps a cell on the grid:

        out[i, j] = sum_{k <= min(i, j)} h e^{-kh} a[i-k, j-k],

    since U(kh) A U(kh)* shifts the matrix down-right by k cells.  Rows
    follow the diagonal recursion

        out[i] = h a[i] + e^{-h} shift(out[i-1]),

    which is O(n^2) instead of one n x n block per step, O(n^3).  It
    agrees with the blockwise sum to 1e-13 relative (tests/test_halfline).
    The sum runs in np.result_type(a, float): a real matrix stays real,
    with the values of the real part of the complex sum, bit for bit.
    """
    n = grid.points
    if a.shape != (n, n):
        raise UnsupportedRepresentationError("matrix does not match the grid")
    h = grid.spacing
    out = h * np.asarray(a, dtype=np.result_type(a, float))
    # the decay as a row, not a scalar each call converts again
    decay = np.full(n - 1, np.exp(-h))
    step = np.empty(n - 1, out.dtype)
    multiply, add = np.multiply, np.add
    # row i from row i - 1 in place, the decayed row in one reused buffer
    for prev, row in zip(out[:-1, :-1], out[1:, 1:]):
        multiply(decay, prev, out=step)
        add(row, step, out=row)
    return out


# ---------------------------------------------------------------------------
# grid
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
