"""Closed-form half-line calculus against quadrature oracles."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from cpflow.halfline import (
    ComplexBlock,
    ExpKernelVector,
    ExpMultiplier,
    Grid,
    InvalidVectorError,
    UnsupportedRepresentationError,
    gamma_element,
    gamma_grid,
    inner_product,
    reference_vector,
)
from cpflow.semigroups import FlowState, evolve, flow_inner
from references import (
    block_members,
    rowwise_gamma_grid,
    sampled,
    scalar_decay_gamma_grid,
)

BOUNDARY_KERNEL = ExpKernelVector([(1.0, 0.5)])
"""Unit vector q(x) = exp(-x/2) used for the boundary expectation.

The defining identities (value 1 on the identity, factor 1/2 against
multiplication by exp(-x), factor exp(-t) under translation conjugation)
single out this kernel; source texts for this construction disagree on
the printed expression, and the identity-preserving choice is used here.
"""


def kernel_sum(f, g):
    """sum_{jk} conj(c_j) d_k / (conj(mu_j) + nu_k), written out."""
    return sum(np.conj(c) * d / (np.conj(mu) + nu)
               for c, mu in f.terms for d, nu in g.terms)


def random_vector(rng, n_terms):
    return ExpKernelVector(
        [(complex(rng.normal(), rng.normal()),
          complex(rng.uniform(0.3, 3.0), rng.normal()))
         for _ in range(n_terms)])


complex_terms = st.lists(st.tuples(
    st.complex_numbers(max_magnitude=3, allow_nan=False,
                       allow_infinity=False),
    st.builds(complex, st.floats(min_value=0.2, max_value=5.0),
              st.floats(min_value=-4.0, max_value=4.0))),
    min_size=1, max_size=4)


def quad_inner(f, g, upper=60.0):
    def integrand(x):
        return np.conj(sampled(f, x)) * sampled(g, x)

    re = quad(lambda x: integrand(x).real, 0, upper, limit=200)[0]
    im = quad(lambda x: integrand(x).imag, 0, upper, limit=200)[0]
    return re + 1j * im


class TestInnerProduct:
    def test_single_exponential(self):
        f = ExpKernelVector([(1.0, 1.0)])
        assert inner_product(f, f) == pytest.approx(0.5)

    def test_matches_quadrature(self):
        f = ExpKernelVector([(1.0 + 0.5j, 0.7), (-0.3, 2.1 + 0.4j)])
        g = ExpKernelVector([(2.0, 1.3), (0.25j, 0.9)])
        exact = inner_product(f, g)
        assert exact == pytest.approx(quad_inner(f, g), abs=1e-10)

    def test_rejects_growing_kernel(self):
        with pytest.raises(InvalidVectorError):
            ExpKernelVector([(1.0, -0.2)])

    @given(complex_terms, complex_terms)
    @settings(max_examples=50, deadline=None)
    def test_matches_kernel_sum(self, f_terms, g_terms):
        f, g = ExpKernelVector(f_terms), ExpKernelVector(g_terms)
        expected = kernel_sum(f, g)
        scale = sum(abs(c * d / (np.conj(mu) + nu))
                    for c, mu in f.terms for d, nu in g.terms)
        assert abs(inner_product(f, g) - expected) <= 1e-14 * scale

    @given(st.lists(st.tuples(
        st.complex_numbers(max_magnitude=3, allow_nan=False,
                           allow_infinity=False),
        st.floats(min_value=0.2, max_value=5.0)), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_norm_nonnegative(self, terms):
        f = ExpKernelVector(terms)
        assert inner_product(f, f).real >= -1e-12

    @given(st.floats(min_value=0.3, max_value=4.0),
           st.floats(min_value=0.3, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_conjugate_symmetry(self, r1, r2):
        f = ExpKernelVector([(1.0 + 1j, r1)])
        g = ExpKernelVector([(0.5 - 2j, r2)])
        assert inner_product(f, g) == pytest.approx(
            np.conj(inner_product(g, f)))


class TestReferenceVectors:
    def test_unit_norm(self):
        for lam in (1.0, 2.0, 3.5):
            v = reference_vector(lam)
            assert inner_product(v, v).real == pytest.approx(1.0)

    def test_damped_overlap(self):
        v = reference_vector(1.0)
        damped = v.shifted(1.0)
        # (k1, e^{-x} k1) = 1/(1 + lambda_1^2) = 1/2
        assert inner_product(v, damped).real == pytest.approx(0.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidVectorError):
            reference_vector(0.0)


class TestBoundaryKernel:
    def test_unit_vector(self):
        q = BOUNDARY_KERNEL
        assert inner_product(q, q).real == pytest.approx(1.0)

    def test_damping_expectation(self):
        q = BOUNDARY_KERNEL
        val = ExpMultiplier().matrix_element(q, q)
        assert val.real == pytest.approx(0.5)


class TestGamma:
    def test_identity_image_is_identity_minus_damping(self):
        # Gamma(I) = I - e^{-x}: sum conj(a) d / (s (1 + s)),
        # s = conj(alpha) + nu
        rng = np.random.default_rng(3)
        for _ in range(20):
            u, v = random_vector(rng, 3), random_vector(rng, 2)
            expected = 0.0
            for a, alpha in u.terms:
                for d, nu in v.terms:
                    s = np.conj(alpha) + nu
                    expected += np.conj(a) * d / (s * (1.0 + s))
            assert gamma_element(u, v) == pytest.approx(expected, rel=1e-12)

    def test_rank_one_matches_nested_kernel_sums(self):
        # the term-by-term closed form: one overlap per rank-one side,
        # divided by 1 + conj(alpha) + nu for the damped translation
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, v, ket, bra = (random_vector(rng, n) for n in (3, 2, 2, 3))
            w = complex(rng.normal(), rng.normal())
            expected = 0.0
            for a, alpha in u.terms:
                for c, mu in ket.terms:
                    left = np.conj(a) * c / (np.conj(alpha) + mu)
                    for d, nu in v.terms:
                        for e, beta in bra.terms:
                            right = d * np.conj(e) / (nu + np.conj(beta))
                            expected += (w * left * right
                                         / (1.0 + np.conj(alpha) + nu))
            assert gamma_element(u, v, [(bra, ket, w)]) == pytest.approx(
                expected, rel=1e-12)

    def test_rank_one_closed_form(self):
        e = ExpKernelVector([(1.0, 1.0)])
        # (e, Gamma(|e><e|) e) with unit rates: 1/(2*2*3) = 1/12
        assert gamma_element(e, e, [(e, e, 1.0)]) == pytest.approx(1.0 / 12.0)

    def test_rank_one_matches_quadrature(self):
        e = ExpKernelVector([(1.0, 1.0), (0.5, 2.0)])
        u = ExpKernelVector([(1.0, 1.4)])

        def integrand(t):
            # (u, U(t) e) with real kernels: translate e to the right by t
            ov = quad(lambda y: (np.conj(sampled(u, y + t))
                                * sampled(e, y)).real,
                      0, 60, limit=200)[0]
            return np.exp(-t) * ov * ov

        oracle = quad(integrand, 0, 40, limit=200)[0]
        assert gamma_element(u, u, [(e, e, 1.0)]).real == pytest.approx(
            oracle, abs=1e-6)

    def test_zero_source(self):
        u = ExpKernelVector([(1.0, 1.0)])
        assert gamma_element(u, u, parts=[]) == 0.0

    def test_grid_quadrature_approximates_identity_image(self):
        grid = Grid(30.0, 3000)
        a = np.eye(grid.points)
        out = gamma_grid(a, grid)
        u = np.exp(-grid.midpoints)
        val = grid.spacing * np.vdot(u, out @ u)
        # Gamma(I) = I - damping: (u, (I - e^{-x}) u) = 1/2 - 1/3
        assert val.real == pytest.approx(1.0 / 6.0, abs=5e-3)

    @pytest.mark.parametrize("source", ["identity", "rank-one"])
    def test_grid_converges_to_closed_form(self, source):
        # perfbench's Gamma grids and its refinement-order rule (0.8): the
        # Riemann sums approach gamma_element at first order
        u = ExpKernelVector([(1.0, 0.7), (-0.3, 1.9)])
        v = ExpKernelVector([(0.8, 1.1)])
        ket = ExpKernelVector([(1.0, 1.0), (0.5, 2.0)])
        bra = ExpKernelVector([(1.0, 1.4)])
        parts = None if source == "identity" else [(bra, ket, 1.0)]
        exact = gamma_element(u, v, parts)
        errors = []
        for n in (150, 300, 600):
            grid = Grid(15.0, n)
            x, h = grid.midpoints, grid.spacing
            if parts is None:
                a = np.eye(n)
            else:
                a = h * np.outer(sampled(ket, x), np.conj(sampled(bra, x)))
            value = h * np.vdot(sampled(u, x),
                                gamma_grid(a, grid) @ sampled(v, x))
            errors.append(abs(value - exact))
        orders = [np.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
        assert min(orders) >= 0.8


def blockwise_gamma_grid(a, grid):
    """gamma_grid as one shifted n x n block per translation step, O(n^3)."""
    n = grid.points
    h = grid.spacing
    out = np.zeros_like(a, dtype=complex)
    for k in range(n):
        block = np.zeros_like(out)
        block[k:, k:] = a[: n - k, : n - k]
        out += np.exp(-k * h) * h * block
    return out


class TestGammaGridRecursion:
    @pytest.mark.parametrize("n", [1, 2, 150, 301])
    @pytest.mark.parametrize("source", ["identity", "random"])
    def test_matches_blockwise_sum(self, n, source):
        grid = Grid(15.0, n)
        if source == "identity":
            a = np.eye(n)
        else:
            rng = np.random.default_rng(n)
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ref = blockwise_gamma_grid(a, grid)
        out = gamma_grid(a, grid)
        scale = np.max(np.abs(ref))
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("n", [1, 2, 150, 301])
    @pytest.mark.parametrize("source", ["identity", "random-complex"])
    def test_equals_the_row_recursion_bit_for_bit(self, n, source):
        # the in-place rows round as a new temporary per row does
        grid = Grid(15.0, n)
        if source == "identity":
            a = np.eye(n)
        else:
            rng = np.random.default_rng(n)
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        out, want = gamma_grid(a, grid), rowwise_gamma_grid(a, grid)
        assert out.dtype == want.dtype
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("n", [7, 150, 300, 600])
    @pytest.mark.parametrize("source", ["identity", "random-real",
                                        "random-complex"])
    def test_equals_the_scalar_decay_loop_bit_for_bit(self, n, source):
        grid = Grid(15.0, n)
        rng = np.random.default_rng(n)
        if source == "identity":
            a = np.eye(n)
        elif source == "random-real":
            a = rng.normal(size=(n, n))
        else:
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        out, want = gamma_grid(a, grid), scalar_decay_gamma_grid(a, grid)
        assert out.dtype == want.dtype
        assert np.array_equal(out, want)

    # a real input stays real, with the real part of the complex path's
    # values bit for bit; that path's imaginary part is all zero
    @pytest.mark.parametrize("n", [1, 2, 150, 301])
    @pytest.mark.parametrize("source", ["identity", "random", "integer"])
    def test_real_input_stays_real(self, n, source):
        grid = Grid(15.0, n)
        if source == "identity":
            a = np.eye(n)
        elif source == "random":
            a = np.random.default_rng(n).normal(size=(n, n))
        else:
            a = np.arange(n * n).reshape(n, n)
        out = gamma_grid(a, grid)
        assert out.dtype == np.float64
        promoted = gamma_grid(a.astype(complex), grid)
        assert np.array_equal(out, promoted.real)
        assert not np.any(promoted.imag)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (4,)])
    def test_mismatched_shape_rejected(self, shape):
        with pytest.raises(UnsupportedRepresentationError):
            gamma_grid(np.ones(shape), Grid(1.0, 4))


class TestGridBackend:
    """Sampled exponential kernels on the transport stepper's grid."""

    def test_sampled_inner_product_converges(self):
        f = ExpKernelVector([(1.0, 0.9)])
        g = ExpKernelVector([(1.0 + 1j, 1.3)])
        exact = inner_product(f, g)
        errs = []
        for n in (400, 800, 1600):
            grid = Grid(40.0, n)
            approx = flow_inner(FlowState(grid, sampled(f, grid.midpoints)),
                                FlowState(grid, sampled(g, grid.midpoints)))
            errs.append(abs(approx - exact))
        assert errs[0] > errs[1] > errs[2]

    def test_translate_shifts_support(self):
        # U_0(t) is the plain right translation, snapped to whole cells
        grid = Grid(10.0, 100)
        f = FlowState(grid, sampled(ExpKernelVector([(1.0, 1.0)]),
                                   grid.midpoints))
        res = evolve(f, 0.0, 1.0)
        assert res.state.steps == 10
        assert res.snap_distance == pytest.approx(0.0, abs=1e-12)
        assert np.all(res.state.cells[:10] == 0)
        np.testing.assert_allclose(res.state.cells[10:], f.cells[:-10])


# ---------------------------------------------------------------------------
# block arithmetic against CPython's complex, member by member
# ---------------------------------------------------------------------------

# finite floats over the whole exponent range, signed zeros included
parts = st.one_of(st.sampled_from([0.0, -0.0]),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.floats(min_value=-1e3, max_value=1e3))
complexes = st.builds(complex, parts, parts)
members = st.lists(complexes, min_size=1, max_size=8)
# every scalar type a block meets: Python and numpy, real and complex
scalars = st.one_of(parts, parts.map(np.float64), complexes,
                    complexes.map(np.complex128))


def block_of(values):
    return ExpKernelVector([(np.array(values, complex), 1.0)]).terms[0][0]


def same_members(block, expected):
    """Member by member by repr, so signed zeros count."""
    assert isinstance(block, ComplexBlock)
    assert [repr(z) for z in block_members(block)] \
        == [repr(z) for z in expected]


def quiet():
    """numpy warns on overflow where CPython's complex is silent."""
    return np.errstate(all="ignore")


OPERATORS = (operator.add, operator.sub, operator.mul)


class TestComplexBlock:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_block_with_block(self, data):
        xs = data.draw(members)
        ys = data.draw(st.lists(complexes, min_size=len(xs),
                                max_size=len(xs)))
        with quiet():
            for fn in OPERATORS:
                same_members(fn(block_of(xs), block_of(ys)),
                             [fn(x, y) for x, y in zip(xs, ys)])

    @given(members, scalars)
    @settings(max_examples=100, deadline=None)
    def test_block_with_scalar_on_either_side(self, xs, s):
        block = block_of(xs)
        with quiet():
            for fn in OPERATORS:
                same_members(fn(block, s), [fn(x, complex(s)) for x in xs])
            for fn in (operator.add, operator.mul):  # s - block raises
                same_members(fn(s, block), [fn(complex(s), x) for x in xs])

    @pytest.mark.parametrize("branch", ["real", "imag"])
    @given(members, parts, parts, st.sampled_from([complex, np.complex128]))
    @settings(max_examples=60, deadline=None)
    def test_quotient_by_scalar(self, branch, xs, p, q, kind):
        # |real| >= |imag| and |imag| > |real| take different branches
        big, small = sorted((p, q), key=abs, reverse=True)
        divisor = kind(complex(big, small) if branch == "real"
                       else complex(small, big))
        if divisor == 0 or (branch == "imag" and abs(big) == abs(small)):
            return
        with quiet():
            same_members(block_of(xs) / divisor,
                         [x / complex(divisor) for x in xs])

    @given(members, parts.map(np.float64))
    @settings(max_examples=50, deadline=None)
    def test_quotient_by_real_scalar(self, xs, s):
        if s == 0:
            return
        with quiet():
            same_members(block_of(xs) / s, [x / s for x in xs])

    def test_quotient_special_divisors(self):
        xs = [1 + 2j, -0.0 + 0j]
        with pytest.raises(ZeroDivisionError):
            block_of(xs) / 0j
        nan = complex(float("nan"), 1.0)
        with quiet():
            same_members(block_of(xs) / nan, [x / nan for x in xs])

    @given(members)
    @settings(max_examples=100, deadline=None)
    def test_conjugate_and_modulus(self, xs):
        block = block_of(xs)
        same_members(block.conjugate(), [x.conjugate() for x in xs])
        with quiet():
            modulus = abs(block)
        expected = []
        for x in xs:
            try:
                expected.append(abs(x))
            except OverflowError:  # CPython raises; the block gives inf
                expected.append(float("inf"))
        assert [repr(v) for v in modulus.tolist()] == [
            repr(v) for v in expected]

    @given(members)
    @settings(max_examples=30, deadline=None)
    def test_conversions(self, xs):
        block = block_of(xs)
        assert block.shape == (len(xs),) and block.size == len(xs)
        out = np.asarray(block)
        assert out.dtype == np.complex128
        assert [repr(complex(z)) for z in out] == [repr(x) for x in xs]

    def test_block_divisor_and_arrays_rejected(self):
        block = block_of([1 + 2j, 3 - 4j])
        with pytest.raises(TypeError):
            block / block
        with pytest.raises(TypeError):
            2.0 / block
        with pytest.raises(TypeError):
            np.complex128(2.0) / block
        array = np.array([1.0, 2.0])
        for op in OPERATORS:
            with pytest.raises(TypeError):
                op(block, array)
            with pytest.raises(TypeError):
                op(array, block)
        with pytest.raises(TypeError):
            block / array
        # no src path negates a block or subtracts one from a scalar
        with pytest.raises(TypeError):
            -block
        with pytest.raises(TypeError):
            np.float64(2.0) - block
