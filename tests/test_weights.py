"""Weight series, normalization identities and the decay lemma."""

import numpy as np
import pytest

from cpflow.halfline import ExpKernelVector
from cpflow.tensorspace import LambdaSequence, ProductVector, reference_state
from cpflow.weights import (
    HFunctional,
    NonConvergenceError,
    PreconditionViolationError,
    WeightSeriesConfig,
    boundary_identity,
    build_delta_null_functional,
    identity_element,
    lambda_of,
    lemma_decay_curve,
    nonnormal_weight_demo,
    omega1,
    omega_z,
    rank_one,
    xi_from_nu,
    zero_boundary_weight,
)
from cpflow.tensorspace import identity_operator
from references import omega_full

LINEAR = LambdaSequence("linear")


def random_state(rng, n_factors=4, m=2):
    factors = []
    for _ in range(n_factors):
        coeffs = rng.normal(size=m) + 1j * rng.normal(size=m)
        factors.append(ExpKernelVector(
            [(coeffs[j], 1.0 + j) for j in range(m)]))
    return ProductVector(LINEAR, tuple(factors), n_factors + 1)


def unit_nu(n_factors=4):
    kv = reference_state(LINEAR, n_factors)
    hv = LINEAR.reference(1)
    raw = HFunctional(((1.0, (kv, hv), (kv, hv)),))
    scale = raw(identity_element()).real
    return HFunctional(((1.0 / scale, (kv, hv), (kv, hv)),))


class TestMinimalWeight:
    def test_identity_relation(self):
        rng = np.random.default_rng(1)
        rho = rank_one(random_state(rng))
        val = omega1(rho, boundary_identity(), n_factors=4)
        expected = rho(None) - rho.delta_value()
        assert val.value == pytest.approx(expected, abs=1e-10)
        assert val.exact_tail

    def test_nonconvergence_without_telescoping(self):
        rng = np.random.default_rng(2)
        rho = rank_one(random_state(rng))
        cfg = WeightSeriesConfig(max_terms=30)
        with pytest.raises(NonConvergenceError) as err:
            omega1(rho, identity_element(), cfg, n_factors=4)
        assert len(err.value.partial_sums) > 0

    def test_z_twist_shrinks_value(self):
        rng = np.random.default_rng(3)
        f = random_state(rng)
        rho = rank_one(f)
        small = omega_z(0.5, rho, identity_element(), n_factors=4)
        smaller = omega_z(0.25, rho, identity_element(), n_factors=4)
        assert abs(smaller.value) < abs(small.value)

    def test_z_zero_is_zero(self):
        rng = np.random.default_rng(4)
        rho = rank_one(random_state(rng))
        assert omega_z(0.0, rho, identity_element(),
                       n_factors=4).value == 0.0


class TestUnitalFamily:
    def test_xi_unital_on_boundary_identity(self):
        xi = xi_from_nu(unit_nu(), n_factors=4)
        assert xi.on_boundary_identity().real == pytest.approx(1.0,
                                                               abs=1e-10)

    def test_full_weight_unitality(self):
        rng = np.random.default_rng(5)
        xi = xi_from_nu(unit_nu(), n_factors=4)
        for _ in range(5):
            f = random_state(rng)
            rho = rank_one(f)
            val = omega_full(rho, boundary_identity(), xi, n_factors=4)
            assert val == pytest.approx(rho(None), abs=1e-10)

    def test_zero_weight_reduces_to_minimal(self):
        rng = np.random.default_rng(6)
        rho = rank_one(random_state(rng))
        xi0 = zero_boundary_weight(4)
        full = omega_full(rho, boundary_identity(), xi0, n_factors=4)
        base = omega1(rho, boundary_identity(), n_factors=4)
        assert full == pytest.approx(base.value)

    def test_lambda_of_matches_damped_trace(self):
        nu = unit_nu()
        val = nu(lambda_of(identity_operator()))
        assert val == pytest.approx(nu.damped_trace()(None))


class TestDecayLemma:
    def make_rho(self, head=3, width=4):
        f0 = reference_state(LINEAR, width)
        bumped = [fac + ExpKernelVector([(0.5, 1.5 + i)]) if i < head
                  else fac for i, fac in enumerate(f0.factors)]
        f = ProductVector(LINEAR, bumped, f0.tail_start)
        return build_delta_null_functional(f, f0)

    def test_delta_vanishes(self):
        rho = self.make_rho()
        assert abs(rho.delta_value()) < 1e-12

    def test_norms_vanish_past_head(self):
        rho = self.make_rho(head=3)
        curve = lemma_decay_curve(rho, 8)
        assert np.all(curve[3:] <= 1e-12)
        assert curve[0] > 1e-3

    def test_precondition_enforced(self):
        f = reference_state(LINEAR, 4)
        rho = rank_one(f)
        with pytest.raises(PreconditionViolationError):
            lemma_decay_curve(rho, 4)


class TestNonNormalWeight:
    def test_vanishing_values_with_growing_mass(self):
        rows = nonnormal_weight_demo(1.5, 6)
        values = [r.weight_value for r in rows]
        masses = [r.partial_mass for r in rows]
        assert max(values) < 1e-2
        assert masses[-1] > masses[0]

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            nonnormal_weight_demo(2.5, 3)
