"""Truncated infinite tensor product over L2(0, infinity).

States keep N explicit exponential-kernel factors and an implicit tail of
reference vectors k_i(x) = lambda_i exp(-lambda_i^2 x / 2).  Operators are
finite sums of elementary tensors with a declared behaviour (identity or
damping by exp(-x)) on all slots past their explicit factors.  The
down-shift of states, the induced endomorphism pi, and the limit
operator Delta are realised on this truncation.

TensorOperator.slots states the one slot rule: on a state of width n a
term meets its explicit factors, then its tail operator on the other
slots, and a damping tail adds the closed-form tail weight.  pairing and
the weight series' orbit (weights._OrbitTerm) both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .halfline import (
    ExpKernelVector,
    ExpMultiplier,
    IdentityOperator,
    reference_vector,
)


class InvalidSequenceError(ValueError):
    """Raised for non-positive or unusable factor-scale sequences."""


class TruncationExceededError(ValueError):
    """Raised when an operation needs more factors than the truncation has."""


# ---------------------------------------------------------------------------
# factor-scale sequences
# ---------------------------------------------------------------------------

LAMBDA_KINDS = ("linear", "custom")
"""The sequence kinds: the one infinite sequence and a finite list."""


@dataclass(frozen=True)
class LambdaSequence:
    """The per-factor scale sequence lambda_1, lambda_2, ...

    kind "linear" is lambda_n = n; "custom" takes an explicit finite list,
    the only kind that takes one, and is a truncation, not a sequence.

    The infinite product needs two conditions on the scales:
    sum 1/lambda_n^2 < inf, so that Delta != 0, and
    sum (lambda_n - lambda_{n+1})^2 / (lambda_n^2 + lambda_{n+1}^2) < inf,
    whose n-th term is exactly 1 - (k_n, k_{n+1}), so that the shift keeps
    the reference vector in its incomplete tensor product (von Neumann,
    Compositio Math. 6, 1939).  The linear sequence meets
    both: the sums are pi^2/6 and (pi/2) tanh(pi/2) - 1.  lambda_n = 2^n
    meets the first and fails the second (every term is 1/5); a custom
    list of its first values is still a valid truncation.
    """

    kind: Literal["linear", "custom"] = "linear"
    custom_values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in LAMBDA_KINDS:
            raise InvalidSequenceError("unknown sequence kind %r"
                                       % (self.kind,))
        if self.kind != "custom" and self.custom_values:
            raise InvalidSequenceError(
                "a %s sequence takes no values" % self.kind)
        if self.kind == "custom":
            vals = tuple(float(v) for v in self.custom_values)
            if not vals:
                raise InvalidSequenceError("custom sequence is empty")
            if any(v <= 0 for v in vals):
                raise InvalidSequenceError("scales must be strictly positive")
            if not all(has_rate(v) for v in vals):
                raise InvalidSequenceError(
                    "scales must have a positive finite square and rate "
                    "lambda^2 / 2")
            object.__setattr__(self, "custom_values", vals)

    def value(self, i: int) -> float:
        if i < 1:
            raise IndexError("sequence index starts at 1")
        if self.kind == "linear":
            return float(i)
        if i > len(self.custom_values):
            raise TruncationExceededError(
                "custom sequence has no value at index %d" % i)
        return self.custom_values[i - 1]

    def reference(self, i: int) -> ExpKernelVector:
        return reference_vector(self.value(i))


def has_rate(lam: float) -> bool:
    """Whether lambda^2 and the reference rate lambda^2 / 2 are positive
    finite floats, as reference_vector and tail_weight_product form them."""
    return 0.0 < lam * lam < math.inf and 0.5 * lam * lam > 0.0


def tail_weight_product(seq: LambdaSequence, start: int) -> float:
    """prod_{i >= start} lambda_i^2 / (1 + lambda_i^2).

    For the linear sequence the full product is pi/sinh(pi) and tails are
    obtained by dividing out the leading factors.  A custom list need not
    be monotone, so every listed term from start on counts, and the
    implicit tail behind it is taken as 1 only if its last term is.
    """
    if seq.kind == "linear":
        full = math.pi / math.sinh(math.pi)
        head = 1.0
        for i in range(1, start):
            head *= i * i / (1.0 + i * i)
        return full / head
    log_total = 0.0
    # a start past the list reads value(start) alone, which raises
    for i in range(start, max(start, len(seq.custom_values)) + 1):
        lam2 = seq.value(i) ** 2
        term = lam2 / (1.0 + lam2)
        log_total += math.log(term)
    if 1.0 - term < 1e-17:
        return math.exp(log_total)
    raise TruncationExceededError(
        "custom sequence ends before its tail product settles")


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductVector:
    """N explicit factors with reference factors k_{tail_start}, ... behind."""

    seq: LambdaSequence
    factors: tuple[ExpKernelVector, ...]
    tail_start: int

    def __init__(self, seq: LambdaSequence,
                 factors: Iterable[ExpKernelVector],
                 tail_start: int | None = None):
        factors = tuple(factors)
        if tail_start is None:
            tail_start = len(factors) + 1
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "tail_start", int(tail_start))

    @property
    def width(self) -> int:
        return len(self.factors)

    def shifted_down(self) -> "ProductVector":
        """Drop the first factor; the next reference vector joins the head."""
        new = self.factors[1:] + (self.seq.reference(self.tail_start),)
        return ProductVector(self.seq, new, self.tail_start + 1)


def reference_state(seq: LambdaSequence, n_factors: int) -> ProductVector:
    return ProductVector(seq, [seq.reference(i) for i in range(1, n_factors + 1)])


def check_aligned(f: ProductVector, g: ProductVector) -> None:
    """Width, tail start and lambda sequence: tails are resolved as one."""
    if f.width != g.width or f.tail_start != g.tail_start:
        raise ValueError("states must share truncation and tail alignment")
    if f.seq != g.seq:
        raise ValueError("states must share their lambda sequence")


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

TailKind = Literal["identity", "damping"]

_TAIL_OPS: dict[TailKind, IdentityOperator | ExpMultiplier] = {
    "identity": IdentityOperator(),
    "damping": ExpMultiplier(),
}
"""The operator every slot past a term's explicit factors carries."""


@dataclass(frozen=True)
class TensorOperator:
    """Sum of elementary tensors sum_t c_t O_1 x O_2 x ... acting on the
    truncated product space.

    Each term lists its explicit factor operators; every slot past them is
    the identity ("identity" tail) or multiplication by exp(-x)
    ("damping" tail).  The all-damping term with no explicit factors is
    the limit operator Delta.
    """

    terms: tuple[tuple[complex, tuple[IdentityOperator | ExpMultiplier, ...],
                       TailKind], ...]

    def __init__(self, terms: Iterable[tuple[
            complex, Sequence[IdentityOperator | ExpMultiplier], TailKind]]):
        packed = []
        for c, factors, tail in terms:
            if tail not in _TAIL_OPS:
                raise ValueError("unknown tail kind %r" % (tail,))
            packed.append((complex(c), tuple(factors), tail))
        object.__setattr__(self, "terms", tuple(packed))

    @property
    def width(self) -> int:
        return max((len(f) for _, f, _ in self.terms), default=0)

    def slots(self, n: int) -> tuple[list[tuple[complex, tuple, bool]],
                                     TruncationExceededError | None]:
        """Per term up to the first one wider than n: its coefficient, its
        n slot operators (explicit factors, then the tail operator) and
        whether its tail damps; then that wider term's error, or None,
        for the caller to raise after evaluating the terms before it."""
        out = []
        for c, factors, tail in self.terms:
            if len(factors) > n:
                return out, TruncationExceededError(
                    "operator touches %d slots, state has %d"
                    % (len(factors), n))
            out.append((c, factors + (_TAIL_OPS[tail],) * (n - len(factors)),
                        tail == "damping"))
        return out, None


def identity_operator() -> TensorOperator:
    return TensorOperator([(1.0, (), "identity")])


def delta_operator() -> TensorOperator:
    """Delta: exp(-x) damping on every slot including the implicit tail."""
    return TensorOperator([(1.0, (), "damping")])


def pairing(g: ProductVector, a: TensorOperator, f: ProductVector) -> complex:
    """(g, A f) on the truncated space, tails resolved in closed form."""
    check_aligned(f, g)
    slots, overwide = a.slots(f.width)
    total = 0.0 + 0.0j
    for c, ops, damps in slots:
        val = c
        for op, u, v in zip(ops, g.factors, f.factors):
            val *= op.matrix_element(u, v)
        if damps:
            val *= tail_weight_product(f.seq, f.tail_start)
        total += val
    if overwide is not None:
        raise overwide
    return total


def pi_apply(h_op: IdentityOperator | ExpMultiplier, k_op: TensorOperator,
             n_factors: int) -> TensorOperator:
    """pi applied to the product operator (k_op tensor h_op).

    The half-line factor becomes slot one and every factor of k_op moves
    up by one slot.
    """
    if k_op.width + 1 > n_factors:
        raise TruncationExceededError("no room to shift the factors up")
    return TensorOperator(
        [(c, (h_op,) + f, t) for c, f, t in k_op.terms])


# ---------------------------------------------------------------------------
# the limit operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaPairingResult:
    value: complex
    curve: np.ndarray


def delta_pairing(f: ProductVector, g: ProductVector) -> DeltaPairingResult:
    """(f, Delta g) together with the approach curve n -> (f, (pi Lambda)^n(I) g).

    The curve runs n = 0 .. N over the explicit factors, in one pass: each
    (pi Lambda)^(n+1)(I) is one pi_apply of the damping slot to
    (pi Lambda)^n(I).  The reported value includes the closed-form tail
    factor past the truncation.
    """
    n = f.width
    op = identity_operator()
    curve = [pairing(f, op, g)]
    for _ in range(n):
        op = pi_apply(ExpMultiplier(), op, n)
        curve.append(pairing(f, op, g))
    value = pairing(f, delta_operator(), g)
    return DeltaPairingResult(value, np.array(curve))
