"""Closed-form half-line calculus against quadrature oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from cpflow.halfline import (
    BOUNDARY_KERNEL,
    ExpKernelVector,
    ExpMultiplier,
    GammaImage,
    Grid,
    IdentityOperator,
    InvalidVectorError,
    RankOneSum,
    UnsupportedRepresentationError,
    ZeroOperator,
    apply_gamma,
    cut_projector,
    gamma_grid,
    grid_inner_product,
    inner_product,
    phi_functional,
    reference_vector,
    sample,
    tail_projector,
    translate,
)


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
    re = quad(lambda x: (np.conj(f(x)) * g(x)).real, 0, upper, limit=200)[0]
    im = quad(lambda x: (np.conj(f(x)) * g(x)).imag, 0, upper, limit=200)[0]
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
        val = ExpMultiplier(1.0).matrix_element(q, q)
        assert val.real == pytest.approx(0.5)

    def test_phi_scales_by_kernel_expectation(self):
        val = phi_functional(lambda a: 2.0, ExpMultiplier(1.0), None)
        assert val == pytest.approx(1.0)


class TestGamma:
    def test_identity_image_is_identity_minus_damping(self):
        # Gamma(I) = I - e^{-x}: sum conj(a) d / (s (1 + s)),
        # s = conj(alpha) + nu
        rng = np.random.default_rng(3)
        img = apply_gamma(IdentityOperator())
        for _ in range(20):
            u, v = random_vector(rng, 3), random_vector(rng, 2)
            expected = 0.0
            for a, alpha in u.terms:
                for d, nu in v.terms:
                    s = np.conj(alpha) + nu
                    expected += np.conj(a) * d / (s * (1.0 + s))
            assert img.matrix_element(u, v) == pytest.approx(expected,
                                                             rel=1e-12)

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
            img = apply_gamma(RankOneSum([(bra, ket, w)]))
            assert img.matrix_element(u, v) == pytest.approx(expected,
                                                             rel=1e-12)

    def test_rank_one_closed_form(self):
        e = ExpKernelVector([(1.0, 1.0)])
        img = apply_gamma(RankOneSum([(e, e, 1.0)]))
        # (e, Gamma(|e><e|) e) with unit rates: 1/(2*2*3) = 1/12
        assert img.matrix_element(e, e) == pytest.approx(1.0 / 12.0)

    def test_rank_one_matches_quadrature(self):
        e = ExpKernelVector([(1.0, 1.0), (0.5, 2.0)])
        u = ExpKernelVector([(1.0, 1.4)])
        img = apply_gamma(RankOneSum([(e, e, 1.0)]))

        def integrand(t):
            # (u, U(t) e) with real kernels: translate e to the right by t
            ov = quad(lambda y: (np.conj(u(y + t)) * e(y)).real,
                      0, 60, limit=200)[0]
            return np.exp(-t) * ov * ov

        oracle = quad(integrand, 0, 40, limit=200)[0]
        assert img.matrix_element(u, u).real == pytest.approx(oracle,
                                                              abs=1e-6)

    def test_zero_source(self):
        u = ExpKernelVector([(1.0, 1.0)])
        assert apply_gamma(ZeroOperator()).matrix_element(u, u) == 0.0

    def test_unsupported_source(self):
        u = ExpKernelVector([(1.0, 1.0)])
        with pytest.raises(UnsupportedRepresentationError):
            GammaImage(ExpMultiplier(1.0)).matrix_element(u, u)

    def test_grid_quadrature_approximates_identity_image(self):
        grid = Grid(30.0, 3000)
        a = np.eye(grid.points)
        out = gamma_grid(a, grid)
        u = sample(ExpKernelVector([(1.0, 1.0)]), grid)
        val = grid.spacing * np.vdot(u.values, out @ u.values)
        # Gamma(I) = I - damping: (u, (I - e^{-x}) u) = 1/2 - 1/3
        assert val.real == pytest.approx(1.0 / 6.0, abs=5e-3)


def blockwise_gamma_grid(a, grid, t_cut=40.0):
    """gamma_grid as one shifted n x n block per translation step, O(n^3)."""
    n = grid.points
    h = grid.spacing
    steps = min(n, int(round(t_cut / h)))
    out = np.zeros_like(a, dtype=complex)
    for k in range(steps):
        block = np.zeros_like(out)
        block[k:, k:] = a[: n - k, : n - k]
        out += np.exp(-k * h) * h * block
    return out


class TestGammaGridRecursion:
    # t_cut above the grid length keeps every step; 0.4 of it truncates
    # (for n = 1 it rounds to no step at all)
    @pytest.mark.parametrize("n", [1, 2, 150, 301])
    @pytest.mark.parametrize("source", ["identity", "random"])
    @pytest.mark.parametrize("cut_fraction", [40.0 / 15.0, 0.4],
                             ids=["uncut", "cut"])
    def test_matches_blockwise_sum(self, n, source, cut_fraction):
        grid = Grid(15.0, n)
        if source == "identity":
            a = np.eye(n)
        else:
            rng = np.random.default_rng(n)
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        t_cut = cut_fraction * grid.length
        ref = blockwise_gamma_grid(a, grid, t_cut)
        out = gamma_grid(a, grid, t_cut)
        scale = np.max(np.abs(ref))
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (4,)])
    def test_mismatched_shape_rejected(self, shape):
        with pytest.raises(UnsupportedRepresentationError):
            gamma_grid(np.ones(shape), Grid(1.0, 4))


class TestGridBackend:
    def test_sampled_inner_product_converges(self):
        f = ExpKernelVector([(1.0, 0.9)])
        g = ExpKernelVector([(1.0 + 1j, 1.3)])
        exact = inner_product(f, g)
        errs = []
        for n in (400, 800, 1600):
            grid = Grid(40.0, n)
            approx = grid_inner_product(sample(f, grid), sample(g, grid))
            errs.append(abs(approx - exact))
        assert errs[0] > errs[1] > errs[2]

    def test_translate_shifts_support(self):
        grid = Grid(10.0, 100)
        f = sample(ExpKernelVector([(1.0, 1.0)]), grid)
        res = translate(f, 1.0)
        assert res.steps == 10
        assert res.snap_distance == pytest.approx(0.0, abs=1e-12)
        assert np.all(res.vector.values[:10] == 0)
        np.testing.assert_allclose(res.vector.values[10:], f.values[:-10])

    def test_cut_and_tail_partition(self):
        grid = Grid(10.0, 100)
        f = sample(ExpKernelVector([(1.0, 1.0)]), grid)
        head = cut_projector(f, 2.0)
        tail = tail_projector(f, 2.0)
        np.testing.assert_allclose(head.values + tail.values, f.values)
        assert np.vdot(head.values, tail.values) == 0

    def test_negative_translation_rejected(self):
        grid = Grid(10.0, 100)
        f = sample(ExpKernelVector([(1.0, 1.0)]), grid)
        with pytest.raises(ValueError):
            translate(f, -0.5)
