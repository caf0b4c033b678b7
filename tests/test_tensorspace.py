"""Truncated tensor products, shifts and the limit-operator pairing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpflow.halfline import ExpMultiplier, inner_product
from cpflow.tensorspace import (
    InvalidSequenceError,
    LambdaSequence,
    ProductVector,
    TensorOperator,
    TruncationExceededError,
    check_lambda_sequence,
    delta_operator,
    delta_pairing,
    identity_operator,
    pairing,
    pi_apply,
    pi_lambda_power,
    product_inner,
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
        ("geometric", (1.0, 2.0), "a geometric sequence takes no values"),
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

    def test_admissibility_linear(self):
        report = check_lambda_sequence(LINEAR, 200)
        assert report.admissible

    def test_admissibility_fails_for_slow_sequence(self):
        slow = LambdaSequence("custom",
                             tuple(1.0 + 0.001 * i for i in range(220)))
        report = check_lambda_sequence(slow, 200)
        assert not report.admissible


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
        geom = LambdaSequence("geometric")
        val = tail_weight_product(geom, 1)
        assert 0.0 < val < 1.0

    def test_geometric_ends_where_its_square_overflows(self):
        geom = LambdaSequence("geometric")
        assert geom.value(511) == 2.0 ** 511
        assert math.isfinite(geom.value(511) ** 2)
        with pytest.raises(TruncationExceededError, match="2\\^512"):
            geom.value(512)

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
        assert product_inner(f, f).real == pytest.approx(1.0)

    def test_shift_appends_reference(self):
        f = reference_state(LINEAR, 4)
        g = f.shifted_down()
        assert g.width == 4
        assert g.tail_start == f.tail_start + 1

    def test_mismatched_tails_rejected(self):
        f = reference_state(LINEAR, 4)
        g = reference_state(LINEAR, 4).shifted_down()
        with pytest.raises(ValueError):
            product_inner(f, g)

    def test_mixed_sequences_rejected(self):
        # the implicit tails would be resolved with the ket's sequence alone
        f = reference_state(LINEAR, 2)
        g = reference_state(LambdaSequence("geometric"), 2)
        with pytest.raises(ValueError, match="lambda sequence"):
            product_inner(f, g)
        for op in (identity_operator(), delta_operator()):
            with pytest.raises(ValueError, match="lambda sequence"):
                pairing(f, op, g)


class TestPairing:
    def test_identity_pairing_is_inner_product(self):
        f = reference_state(LINEAR, 3)
        assert pairing(f, identity_operator(), f) == pytest.approx(
            product_inner(f, f))

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
