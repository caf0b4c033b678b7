"""Weight series, normalization identities and the decay lemma."""

import cmath

import numpy as np
import pytest

from cpflow import cli
from cpflow.halfline import (
    ComplexBlock,
    ExpKernelVector,
    ExpMultiplier,
    IdentityOperator,
)
from cpflow.tensorspace import (
    LambdaSequence,
    ProductVector,
    TensorOperator,
    TruncationExceededError,
    delta_operator,
    reference_state,
)
from cpflow.weights import (
    Functional,
    HElement,
    HFunctional,
    NearSingularNormalizationError,
    NonConvergenceError,
    PreconditionViolationError,
    WeightSeriesConfig,
    boundary_identity,
    build_delta_null_functional,
    identity_element,
    lemma_decay_curve,
    omega1,
    omega_z,
    rank_one,
    xi_from_nu,
)
from cpflow.opbasis import NonInvertibleSystemError
from cpflow.tensorspace import identity_operator
from references import (
    block_members,
    lambda_of,
    nonnormal_weight_demo,
    omega_full,
    on_boundary_identity,
    series_by_shifting,
    unitality_records,
    unitality_residuals_by_sample,
    zero_boundary_weight,
)

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

    def test_telescoping_is_read_off_the_terms(self):
        # I - Lambda built by hand, its terms as a list, sums with the
        # exact tail as boundary_identity() does
        rng = np.random.default_rng(1)
        rho = rank_one(random_state(rng))
        built = boundary_identity()
        by_hand = HElement(list(built.terms))
        assert by_hand.telescoping and built.telescoping
        assert HElement(tuple(by_hand.terms)) == built
        val = omega1(rho, by_hand, n_factors=4)
        assert val.exact_tail
        assert val.value == omega1(rho, built, n_factors=4).value
        assert not identity_element().telescoping

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
        assert on_boundary_identity(xi).real == pytest.approx(1.0,
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

    @staticmethod
    def scaled_nu(c):
        """c nu for the unit nu: its d = nu(Lambda(Delta)) scales by c."""
        (w, ket, bra), = unit_nu().terms
        return HFunctional(((c * w, ket, bra),))

    @pytest.mark.parametrize("d_scaled", [1.0 - 5e-9, 1.0, 2.0])
    def test_singular_normalization_rejected(self, d_scaled):
        # opbasis.UNITAL_LIMIT, d >= 1 - 1e-8, the threshold of the matrix
        # model's unital representation, carrying d as it does
        # (test_opbasis)
        d0 = unit_nu().damped_trace().delta_value()
        assert d0.imag == 0.0 and 0.0 < d0.real < 1.0
        with pytest.raises(NearSingularNormalizationError) as err:
            xi_from_nu(self.scaled_nu(d_scaled / d0.real), n_factors=4)
        assert isinstance(err.value, NonInvertibleSystemError)
        assert err.value.condition == pytest.approx(d_scaled, rel=1e-12)

    def test_normalization_just_below_the_threshold_accepted(self):
        d0 = unit_nu().damped_trace().delta_value().real
        xi = xi_from_nu(self.scaled_nu((1.0 - 2e-8) / d0), n_factors=4)
        assert xi.norm_const == pytest.approx(5e7, rel=1e-6)

    def test_non_real_normalization_rejected(self):
        d0 = unit_nu().damped_trace().delta_value().real
        with pytest.raises(PreconditionViolationError, match="not real"):
            xi_from_nu(self.scaled_nu(0.5j / d0), n_factors=4)

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


# ---------------------------------------------------------------------------
# the slot-table series against the shift-by-shift loop
# ---------------------------------------------------------------------------

ELEMENTS = {
    "boundary-identity": boundary_identity,
    "identity": identity_element,
    "lambda-identity": lambda: lambda_of(identity_operator()),
    "lambda-delta": lambda: lambda_of(delta_operator()),
}
TWISTS = [1.0, 0.5, 0.7j, -0.4, cmath.exp(1j * cmath.pi / 3)]
SHORT_CFG = WeightSeriesConfig(max_terms=60)


def random_functional(rng, width, n_terms=3, seq=LINEAR, tail_start=None):
    """n_terms rank-ones w (bra, . ket) with independent bra and ket."""
    def vec():
        factors = []
        for _ in range(width):
            coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
            factors.append(ExpKernelVector(
                [(coeffs[j], 1.0 + j + 0.5 * rng.random()) for j in range(2)]))
        return ProductVector(seq, factors, tail_start)
    return Functional([(complex(rng.normal(), rng.normal()), vec(), vec())
                       for _ in range(n_terms)])


def outcome(series, *args):
    try:
        return series(*args), None
    except Exception as exc:  # compared with the reference's
        return None, exc


def assert_same_series(rho, element, cfg, n_factors, z):
    """omega_z and the shift-by-shift loop agree bit for bit, errors too."""
    new, new_exc = outcome(omega_z, z, rho, element, cfg, n_factors)
    old, old_exc = outcome(series_by_shifting, rho, element, cfg,
                           n_factors, z)
    if old_exc is not None:
        assert type(new_exc) is type(old_exc)
        assert str(new_exc) == str(old_exc)
        if isinstance(old_exc, NonConvergenceError):
            assert np.array_equal(new_exc.partial_sums, old_exc.partial_sums)
        return old_exc
    assert new_exc is None, new_exc
    assert new.value == old.value
    assert new.tail_certificate == old.tail_certificate
    assert new.exact_tail == old.exact_tail
    assert new.terms.dtype == old.terms.dtype
    assert np.array_equal(new.terms, old.terms)
    return old


class TestSeriesTable:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("element", sorted(ELEMENTS))
    @pytest.mark.parametrize("z", TWISTS)
    def test_matches_shift_by_shift(self, width, element, z):
        rng = np.random.default_rng(1000 * width + TWISTS.index(z))
        rho = random_functional(rng, width)
        assert_same_series(rho, ELEMENTS[element](), SHORT_CFG, width, z)

    def test_cases_cover_each_outcome(self):
        # the parametrized cases reach a converged value, an exact
        # telescoped tail and a non-convergence error
        kinds = set()
        for element in ELEMENTS:
            for z in (1.0, 0.5):
                rho = random_functional(np.random.default_rng(3), 2)
                res = assert_same_series(rho, ELEMENTS[element](),
                                         SHORT_CFG, 2, z)
                kinds.add(type(res).__name__ if isinstance(res, Exception)
                          else res.exact_tail)
        assert kinds == {True, False, "NonConvergenceError"}

    @pytest.mark.parametrize("element", sorted(ELEMENTS))
    @pytest.mark.parametrize("z", [1.0, 0.7j])
    def test_other_tail_start(self, element, z):
        rng = np.random.default_rng(11)
        rho = random_functional(rng, 3, tail_start=6)
        assert_same_series(rho, ELEMENTS[element](), SHORT_CFG, 3, z)

    def test_nonconvergence_partial_sums(self):
        rng = np.random.default_rng(12)
        rho = random_functional(rng, 2)
        exc = assert_same_series(rho, identity_element(),
                                 WeightSeriesConfig(max_terms=25), 2, 1.0)
        assert isinstance(exc, NonConvergenceError)
        assert len(exc.partial_sums) == 25

    def test_terms_of_different_widths(self):
        rng = np.random.default_rng(13)
        rho = random_functional(rng, 2) + random_functional(rng, 3, 1)
        for element in ELEMENTS.values():
            assert_same_series(rho, element(), SHORT_CFG, 2, 0.5)

    def test_mismatched_widths(self):
        rng = np.random.default_rng(14)
        good = random_functional(rng, 2, 1)
        (w, ket, _), = random_functional(rng, 3, 1).terms
        (_, _, bra), = good.terms
        rho = good + Functional([(w, ket, bra)])
        exc = assert_same_series(rho, boundary_identity(), SHORT_CFG, 2, 1.0)
        assert isinstance(exc, ValueError)

    def test_mixed_sequences(self):
        # a linear ket against a custom bra: their tails differ
        rho = rank_one(reference_state(LINEAR, 2),
                       reference_state(LambdaSequence("custom", (2.0, 4.0)),
                                       2))
        for element in ELEMENTS.values():
            exc = assert_same_series(rho, element(), SHORT_CFG, 2, 1.0)
            assert isinstance(exc, ValueError)
            assert "lambda sequence" in str(exc)

    def test_state_narrower_than_target(self):
        # pi(Lambda(e^{-x} x I)) touches two slots; the second term has one
        rng = np.random.default_rng(15)
        rho = random_functional(rng, 2) + random_functional(rng, 1, 1)
        two_slots = lambda_of(TensorOperator([(1.0, (ExpMultiplier(),),
                                               "identity")]))
        exc = assert_same_series(rho, two_slots, SHORT_CFG, 2, 1.0)
        assert isinstance(exc, TruncationExceededError)
        assert str(exc) == "operator touches 2 slots, state has 1"

    @pytest.mark.parametrize("element", sorted(ELEMENTS))
    def test_short_custom_sequence_accepted(self, element):
        seq = LambdaSequence("custom", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
                                        8.0, 1e9, 1e9))
        rho = random_functional(np.random.default_rng(16), 2, seq=seq)
        res = assert_same_series(rho, ELEMENTS[element](),
                                 WeightSeriesConfig(), 2, 1.0)
        assert not isinstance(res, Exception)
        assert len(res.terms) == 8

    @pytest.mark.parametrize("values, message", [
        ((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 1e9),
         "custom sequence has no value at index 10"),
        ((2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0),
         "custom sequence ends before its tail product settles"),
    ])
    @pytest.mark.parametrize("element", sorted(ELEMENTS))
    def test_short_custom_sequence_rejected(self, values, message, element):
        seq = LambdaSequence("custom", values)
        rho = random_functional(np.random.default_rng(17), 2, seq=seq)
        exc = assert_same_series(rho, ELEMENTS[element](),
                                 WeightSeriesConfig(), 2, 1.0)
        assert isinstance(exc, TruncationExceededError)
        assert str(exc) == message

    def test_unital_family_matches(self):
        xi = xi_from_nu(unit_nu(), n_factors=4)
        for element in ELEMENTS.values():
            el = element()
            old, _ = outcome(series_by_shifting, xi.nu.damped_trace(), el,
                             xi.cfg, 4)
            if old is not None:
                expected = xi.norm_const * (xi.nu(el) + old.value)
                assert xi.value(el) == expected


class TestReferenceMemo:
    def test_operators_are_values(self):
        assert IdentityOperator() == IdentityOperator()
        assert hash(IdentityOperator()) == hash(IdentityOperator())
        assert IdentityOperator() != ExpMultiplier()


class TestInferWidth:
    def test_empty_functional_needs_width(self):
        with pytest.raises(ValueError, match="no terms"):
            omega1(Functional([]), boundary_identity())
        with pytest.raises(ValueError, match="no terms"):
            omega_z(0.5, Functional([]), boundary_identity())

    def test_empty_functional_with_width(self):
        res = omega1(Functional([]), boundary_identity(), n_factors=2)
        assert res.value == 0.0


# ---------------------------------------------------------------------------
# blocks of functionals against one functional per member
# ---------------------------------------------------------------------------

SEEDS = [2024, 7, 11]
BLOCK_SIZES = [1, 128, 129]
THIRD = 0.9 * cmath.exp(1j * cmath.pi / 3)


def block_coefficients(seed, members, n_factors=3, m=3):
    """Coefficients indexed [member, vector, factor, j], as the runner's."""
    parts = np.random.default_rng(seed).normal(
        size=(members, 2, n_factors, 2, m))
    return parts[:, :, :, 0] + 1j * parts[:, :, :, 1]


def block_functional(coeffs, seq=LINEAR):
    """Two rank-ones and a cross term over vectors coeffs[..., v, i, j].

    coeffs with a leading member axis gives a block; coeffs[i] gives
    member i alone.
    """
    n_factors, m = coeffs.shape[-2:]
    v0, v1 = (ProductVector(seq, [
        ExpKernelVector([(coeffs[..., v, i, j], 1.0 + j) for j in range(m)])
        for i in range(n_factors)]) for v in range(2))
    return Functional([(1.0, v0, v0), (1.0, v1, v1), (0.3 - 0.4j, v0, v1)])


def assert_member(block, i, single):
    """Member i of a block series is the single functional's series."""
    n = len(single.terms)
    assert np.array_equal(block.terms[:n, i], single.terms)
    assert np.isnan(block.terms[n:, i]).all()
    assert block.value[i] == single.value
    assert block.tail_certificate[i] == single.tail_certificate
    assert block.exact_tail[i] == single.exact_tail


SERIES = {
    "omega1": lambda rho: omega1(rho, boundary_identity()),
    "omega_z(0.5)": lambda rho: omega_z(0.5, rho, boundary_identity()),
    "omega_z(0.9e^{i pi/3})": lambda rho: omega_z(THIRD, rho,
                                                  identity_element()),
    "omega_z(0)": lambda rho: omega_z(0, rho, boundary_identity()),
}


@pytest.fixture(scope="module")
def single_references():
    """seed -> the single-functional values of each member of the largest
    block, computed once per seed.

    A block's draw is member-major, so the first k members of the largest
    draw are the block of k members.
    """
    cache = {}

    def get(seed):
        if seed not in cache:
            coeffs = block_coefficients(seed, max(BLOCK_SIZES))
            singles = [block_functional(c) for c in coeffs]
            values = {name: [series(rho) for rho in singles]
                      for name, series in SERIES.items()}
            for name, a in (("identity", None), ("delta", delta_operator())):
                values[name] = [rho(a) for rho in singles]
            values["delta_value"] = [rho.delta_value() for rho in singles]
            cache[seed] = coeffs, values
        return cache[seed]
    return get


RUNNER_SAMPLES = sorted(
    {1, 64, 65, cli._SAMPLE_BLOCK, cli._SAMPLE_BLOCK + 1, 700})


@pytest.fixture(scope="module")
def per_sample_residuals():
    """seed -> the per-sample reference's running (worst1, worst2) after
    each of max(RUNNER_SAMPLES) samples, computed once per seed."""
    cache = {}

    def get(seed):
        if seed not in cache:
            cfg = cli.load_config(None)
            cfg["weights"]["samples"] = max(RUNNER_SAMPLES)
            cache[seed] = list(unitality_residuals_by_sample(
                cfg, np.random.default_rng(seed)))
        return cache[seed]
    return get


class TestBlocks:
    @pytest.mark.parametrize("members", BLOCK_SIZES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_members_equal_single_functionals(self, seed, members,
                                              single_references):
        coeffs = block_coefficients(seed, members)
        largest, singles = single_references(seed)
        assert np.array_equal(coeffs, largest[:members])
        block = block_functional(coeffs)
        for name, series in SERIES.items():
            res = series(block)
            assert res.terms.shape[1:] == (members,)
            for i in range(members):
                assert_member(res, i, singles[name][i])
        for name, a in (("identity", None), ("delta", delta_operator())):
            values = block(a)
            assert values.shape == (members,)
            assert block_members(values) == singles[name][:members], name
        assert block_members(block.delta_value()) \
            == singles["delta_value"][:members]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_members_stop_at_their_own_term(self, seed):
        coeffs = block_coefficients(seed, 7)
        coeffs *= 2.0 ** np.arange(-6, 1)[:, None, None, None]
        block = block_functional(coeffs)
        for name, series in SERIES.items():
            res = series(block)
            lengths = [len(series(block_functional(coeffs[i])).terms)
                       for i in range(7)]
            if name == "omega_z(0)":
                # every member stops after its one zero term
                assert lengths == [1] * 7
            else:
                assert len(set(lengths)) > 1
            assert len(res.terms) == max(lengths)
            for i in range(7):
                assert_member(res, i, series(block_functional(coeffs[i])))

    def test_first_failing_member_partial_sums(self):
        coeffs = block_coefficients(2024, 3)
        coeffs *= np.array([1e-6, 1e3, 1e2])[:, None, None, None]

        def series(rho, max_terms):
            return omega_z(0.5, rho, identity_element(),
                           WeightSeriesConfig(max_terms=max_terms))

        small = series(block_functional(coeffs[0]), 200)
        cfg_terms = len(small.terms)
        failures = []
        for i in (1, 2):
            with pytest.raises(NonConvergenceError) as err:
                series(block_functional(coeffs[i]), cfg_terms)
            failures.append(err.value)
        assert not np.array_equal(failures[0].partial_sums,
                                  failures[1].partial_sums)
        with pytest.raises(NonConvergenceError) as err:
            series(block_functional(coeffs), cfg_terms)
        assert str(err.value) == str(failures[0])
        assert np.array_equal(err.value.partial_sums,
                              failures[0].partial_sums)

    @pytest.mark.parametrize("values", [
        (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 1e9),
        (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0),
        (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 1e9, 1e9),
    ])
    @pytest.mark.parametrize("element", sorted(ELEMENTS))
    def test_short_custom_sequence(self, values, element):
        seq = LambdaSequence("custom", values)
        coeffs = block_coefficients(17, 4, n_factors=2, m=2)
        coeffs *= np.array([1e-9, 1.0, 1e-3, 10.0])[:, None, None, None]
        el = ELEMENTS[element]()
        # the small members stop before the sequence runs out, if at all
        for picks in ([0, 1, 2, 3], [0, 2]):
            singles = [outcome(omega1, block_functional(coeffs[i], seq), el)
                       for i in picks]
            res, exc = outcome(omega1, block_functional(coeffs[picks], seq),
                               el)
            errors = [e for _, e in singles if e is not None]
            if not errors:
                assert exc is None, exc
                for i, (single, _) in enumerate(singles):
                    assert_member(res, i, single)
            else:
                assert isinstance(exc, TruncationExceededError)
                assert str(exc) == str(errors[0])

    def test_short_custom_sequence_cases_raise(self):
        seq = LambdaSequence("custom", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
                                        8.0, 1e9))
        coeffs = block_coefficients(17, 4, n_factors=2, m=2)
        with pytest.raises(TruncationExceededError,
                           match="no value at index 10"):
            omega1(block_functional(coeffs, seq), boundary_identity())

    def test_complex128_coefficients_are_coerced(self):
        coeffs = block_coefficients(11, 5)
        (c, _), = ExpKernelVector([(coeffs[:, 0, 0, 0], 1.0)]).terms
        assert type(c) is ComplexBlock
        assert c.real.dtype == c.imag.dtype == np.float64
        assert block_members(c) == [complex(x) for x in coeffs[:, 0, 0, 0]]
        as_objects = coeffs.astype(object)
        for series in SERIES.values():
            res = series(block_functional(coeffs))
            ref = series(block_functional(as_objects))
            assert np.array_equal(res.terms, ref.terms, equal_nan=True)
            for i in range(5):
                assert_member(res, i, series(block_functional(coeffs[i])))

    def test_scalar_coefficients_stay_complex(self):
        (c, mu), = ExpKernelVector([(np.complex128(1 + 2j), 1)]).terms
        assert type(c) is complex and type(mu) is complex
        (c, _), = ExpKernelVector([(np.array(1 + 2j), 1.0)]).terms
        assert type(c) is complex

    @pytest.mark.parametrize("samples", RUNNER_SAMPLES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_runner_matches_per_sample_loop(self, seed, samples, tmp_path,
                                            per_sample_residuals):
        cfg = cli.load_config(None)
        cfg["weights"]["samples"] = samples
        rep = cli.Reporter("weights-unitality", cfg, tmp_path)
        cli.run_weights_unitality(cfg, rep, np.random.default_rng(seed))
        ref = cli.Reporter("weights-unitality", cfg, tmp_path)
        unitality_records(ref, *per_sample_residuals(seed)[samples - 1])
        assert repr(rep.records) == repr(ref.records)
