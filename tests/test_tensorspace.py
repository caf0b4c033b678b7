"""Truncated tensor products, shifts and the limit-operator pairing."""

import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from cpflow.halfline import ExpMultiplier, inner_product
from cpflow.tensorspace import (
    InvalidSequenceError,
    LambdaSequence,
    ProductVector,
    TensorOperator,
    TruncationExceededError,
    delta_operator,
    delta_pairing,
    identity_operator,
    pairing,
    pi_apply,
    pi_lambda_power,
    reference_state,
    tail_weight_product,
)

LINEAR = LambdaSequence("linear")


class TestLambdaSequence:
    def test_linear_values(self):
        assert LINEAR.value(3) == 3.0

    def test_reference_is_unit(self):
        for i in (1, 2, 5):
            v = LINEAR.reference(i)
            assert inner_product(v, v).real == pytest.approx(1.0)

    def test_custom_requires_values(self):
        with pytest.raises(InvalidSequenceError):
            LambdaSequence("custom")

    # an unknown kind, and values a closed-form kind would ignore
    @pytest.mark.parametrize("kind, values, message", [
        ("weird", (), "unknown sequence kind 'weird'"),
        ("linear", (3.0,), "a linear sequence takes no values"),
        ("geometric", (), "unknown sequence kind 'geometric'"),
    ])
    def test_unread_setting_rejected(self, kind, values, message):
        with pytest.raises(InvalidSequenceError, match=message):
            LambdaSequence(kind, values)

    # lambda^2 underflows to a zero rate, or overflows
    @pytest.mark.parametrize("values", [(1.0e-12, 1.0e-300), (1.0, 1.0e300),
                                        (float("nan"),)])
    def test_custom_needs_a_finite_rate(self, values):
        with pytest.raises(InvalidSequenceError, match="rate"):
            LambdaSequence("custom", values)


# lambda_n = 2^n, n <= 60: no kind, since it fails condition two
POWERS_OF_TWO = LambdaSequence("custom", tuple(2.0 ** i for i in range(1, 61)))


class TestLambdaConditions:
    """The two conditions of LambdaSequence's docstring, as exact sums."""

    @staticmethod
    def increment(seq, n):
        a, b = seq.value(n), seq.value(n + 1)
        return (a - b) ** 2 / (a * a + b * b)

    def test_linear_sums_in_closed_form(self):
        with mpmath.workdps(30):
            first = mpmath.nsum(lambda n: 1 / n ** 2, [1, mpmath.inf])
            second = mpmath.nsum(lambda n: 1 / (n ** 2 + (n + 1) ** 2),
                                 [1, mpmath.inf])
            closed = mpmath.pi / 2 * mpmath.tanh(mpmath.pi / 2) - 1
            assert abs(first - mpmath.pi ** 2 / 6) < 1e-15
            assert abs(second - closed) < 1e-15
        assert float(closed) == pytest.approx(0.4406595199775146, abs=1e-16)
        n = sympy.symbols("n", integer=True, positive=True)
        assert sympy.summation(1 / n ** 2, (n, 1, sympy.oo)) \
            == sympy.pi ** 2 / 6
        # the summands above are the sequence's own terms
        for i in range(1, 30):
            assert self.increment(LINEAR, i) == 1.0 / (i * i + (i + 1) ** 2)

    @pytest.mark.parametrize("seq", [LINEAR, POWERS_OF_TWO],
                             ids=["linear", "powers-of-two"])
    def test_increment_term_is_reference_defect(self, seq):
        # 1 - (k_n, k_{n+1}): how far the shifted reference vector moves
        for n in (1, 2, 5, 20, 40):
            overlap = inner_product(seq.reference(n), seq.reference(n + 1))
            assert overlap.imag == 0.0
            assert 1.0 - overlap.real == pytest.approx(
                self.increment(seq, n), abs=1e-15)

    def test_powers_of_two_fail_condition_two(self):
        # every term is 1/5, so the sum diverges; condition one holds (1/3)
        n = sympy.symbols("n", integer=True, positive=True)
        term = (2 ** n - 2 ** (n + 1)) ** 2 / (4 ** n + 4 ** (n + 1))
        assert sympy.simplify(term) == sympy.Rational(1, 5)
        assert sympy.summation(sympy.Rational(1, 4) ** n, (n, 1, sympy.oo)) \
            == sympy.Rational(1, 3)
        for i in (1, 5, 20, 59):
            assert self.increment(POWERS_OF_TWO, i) == 0.2


class TestTailWeight:
    def test_linear_closed_form(self):
        expected = np.pi / np.sinh(np.pi)
        assert tail_weight_product(LINEAR, 1) == pytest.approx(expected,
                                                               abs=1e-14)

    def test_head_division(self):
        full = tail_weight_product(LINEAR, 1)
        head = np.prod([i * i / (1.0 + i * i) for i in range(1, 5)])
        assert tail_weight_product(LINEAR, 5) == pytest.approx(full / head)

    def test_numeric_matches_closed_form(self):
        # the list's loop against prod_{i >= s} 1 / (1 + 4^-i), a
        # q-Pochhammer symbol; the terms past 2^60 are below an ulp
        quarter = mpmath.mpf(1) / 4
        for start in (1, 2, 5):
            closed = 1 / mpmath.qp(-quarter ** start, quarter)
            assert tail_weight_product(POWERS_OF_TWO, start) \
                == pytest.approx(float(closed), rel=1e-15)

    def test_geometric_ends_where_its_square_overflows(self):
        # a custom list of 2^n ends at 2^511: from 2^512 on the square
        # overflows, so no list takes that value
        powers = tuple(2.0 ** i for i in range(1, 512))
        geom = LambdaSequence("custom", powers)
        assert geom.value(511) == 2.0 ** 511
        assert math.isfinite(geom.value(511) ** 2)
        with pytest.raises(TruncationExceededError, match="index 512"):
            geom.value(512)
        with pytest.raises(InvalidSequenceError, match="finite square"):
            LambdaSequence("custom", powers + (2.0 ** 512,))

    def test_custom_takes_every_listed_value(self):
        # a settled term before unsettled ones does not end the product
        values = (1e9, 2.0, 3.0, 1e9)
        seq = LambdaSequence("custom", values)
        for start in (1, 2, 4):
            assert tail_weight_product(seq, start) == pytest.approx(
                np.prod([v * v / (1.0 + v * v) for v in values[start - 1:]]),
                rel=1e-15)

    def test_custom_unsettled_last_value_rejected(self):
        seq = LambdaSequence("custom", (1e9, 2.0, 3.0))
        for start in (1, 3):
            with pytest.raises(TruncationExceededError, match="settles"):
                tail_weight_product(seq, start)
        with pytest.raises(TruncationExceededError, match="index 4"):
            tail_weight_product(seq, 4)


class TestProductVector:
    def test_reference_state_norm(self):
        f = reference_state(LINEAR, 4)
        assert pairing(f, identity_operator(), f).real == pytest.approx(1.0)

    def test_shift_appends_reference(self):
        f = reference_state(LINEAR, 4)
        g = f.shifted_down()
        assert g.width == 4
        assert g.tail_start == f.tail_start + 1

    def test_mismatched_tails_rejected(self):
        f = reference_state(LINEAR, 4)
        g = reference_state(LINEAR, 4).shifted_down()
        with pytest.raises(ValueError):
            pairing(f, identity_operator(), g)

    def test_mixed_sequences_rejected(self):
        # the implicit tails would be resolved with the ket's sequence alone
        f = reference_state(LINEAR, 2)
        g = reference_state(POWERS_OF_TWO, 2)
        for op in (identity_operator(), delta_operator()):
            with pytest.raises(ValueError, match="lambda sequence"):
                pairing(f, op, g)


class TestPairing:
    def test_identity_pairing_is_inner_product(self):
        f = reference_state(LINEAR, 3)
        assert pairing(f, identity_operator(), f) == pytest.approx(
            math.prod(inner_product(u, v) for u, v in zip(f.factors,
                                                           f.factors)))

    def test_delta_value(self):
        f = reference_state(LINEAR, 3)
        val = pairing(f, delta_operator(), f)
        assert val.real == pytest.approx(np.pi / np.sinh(np.pi), abs=1e-12)

    def test_operator_adjoint_pairs_conjugate(self):
        # multiplication by e^{-x} is self-adjoint, so the adjoint of a
        # only conjugates its coefficient
        f = reference_state(LINEAR, 3)
        damp = (ExpMultiplier(),) * 3
        a = TensorOperator([(0.7 + 0.2j, damp, "identity")])
        a_star = TensorOperator([(0.7 - 0.2j, damp, "identity")])
        lhs = pairing(f, a, f)
        rhs = pairing(f, a_star, f)
        assert lhs == pytest.approx(np.conj(rhs))


class TestIteratedShifts:
    def test_truncation_guard(self):
        with pytest.raises(TruncationExceededError):
            pi_lambda_power(identity_operator(), 5, 4)

    def test_prepends_damping_slots(self):
        op = pi_lambda_power(identity_operator(), 2, 4)
        assert op.width == 2

    def test_pi_apply_width(self):
        op = pi_apply(ExpMultiplier(), identity_operator(), 4)
        assert op.width == 1


class TestDeltaPairing:
    def test_finite_product_oracle(self):
        f = reference_state(LINEAR, 8)
        result = delta_pairing(f, f)
        for n in range(9):
            finite = np.prod([i * i / (1.0 + i * i)
                              for i in range(1, n + 1)])
            assert result.curve[n].real == pytest.approx(float(finite),
                                                          abs=1e-12)

    def test_curve_monotone(self):
        f = reference_state(LINEAR, 8)
        curve = delta_pairing(f, f).curve.real
        assert np.all(np.diff(curve) <= 1e-14)

    def test_value_includes_tail(self):
        f = reference_state(LINEAR, 8)
        result = delta_pairing(f, f)
        assert result.value.real == pytest.approx(np.pi / np.sinh(np.pi),
                                                  abs=1e-12)

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_value_independent_of_truncation(self, n):
        f = reference_state(LINEAR, n)
        result = delta_pairing(f, f)
        assert result.value.real == pytest.approx(np.pi / np.sinh(np.pi),
                                                  abs=1e-12)
