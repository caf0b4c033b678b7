"""Normal functionals and boundary weights on the truncated model.

Functionals are finite sums of rank-one bra-kets over product vectors.
The weight series (the minimal weight, its z-twisted variants, and the
unital family built from a normalization functional) are evaluated on the
shift orbit rho_n = rho o sigma^n of the functional instead of shifting
the operator, so the truncation window never overflows.  Series tails are
certified by the positive majorant at the boundary identity I - Lambda,
for which the series telescopes and the tail has a closed form.

The series reads the orbit from a table per rank-one term: for each
distinct slot operator (identity, damping, and those of the target) one
list of matrix elements (bra_s, op ket_s) per absolute slot s, filled
for the explicit slots when the term is built and grown by one reference
slot per shift; the damping list gives the shift weights.  I, Delta and
the target meet the slots by tensorspace's one slot rule,
TensorOperator.slots, which pairing reads too, and one loop multiplies
the entries in the order pairing does, so every value equals the
pairing of the shifted functional bit for bit (tests/references.py
keeps that loop as series_by_shifting), and a custom sequence that runs
out raises at the same shift.
Functional.__call__, delta_value and shifted stay on pairing:
they give the independent side of the checked identities (rho(I) and
rho(Delta) in weights-unitality) and the decay curve.

A functional whose explicit factors carry array coefficients is a block
of functionals with the same rates, sequence and target: the same kernels
evaluate every member at once, and each value is an array over members.
The coefficients are halfline.ComplexBlock values, float64 real and
imaginary parts whose arithmetic rounds each member exactly as Python's
complex rounds the single functional, so every member's value is the
single functional's bit for bit (numpy's complex128 products and moduli
round differently in the last place).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .halfline import (
    ExpKernelVector,
    ExpMultiplier,
    IdentityOperator,
)
from .opbasis import UNITAL_LIMIT, NonInvertibleSystemError
from .tensorspace import (
    ProductVector,
    TensorOperator,
    check_aligned,
    delta_operator,
    identity_operator,
    pairing,
    pi_apply,
    tail_weight_product,
)


_DAMPING = ExpMultiplier()
"""Multiplication by exp(-x): the shift weight (bra_1, exp(-x) ket_1)."""


class NonConvergenceError(RuntimeError):
    """Weight series did not settle within the allowed number of terms."""

    def __init__(self, message: str, partial_sums: np.ndarray):
        super().__init__(message)
        self.partial_sums = partial_sums


class PreconditionViolationError(ValueError):
    """An input fails a stated precondition; carries the measured value."""

    def __init__(self, message: str, measured: complex):
        super().__init__(message)
        self.measured = measured


class NearSingularNormalizationError(NonInvertibleSystemError):
    """The normalization 1 - nu(Lambda(Delta)) is too close to zero;
    condition is nu(Lambda(Delta)), as the matrix model reports it."""


@dataclass(frozen=True)
class WeightSeriesConfig:
    max_terms: int = 200
    tail_tolerance: float = 1e-10


# ---------------------------------------------------------------------------
# functionals on the truncated tensor space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Functional:
    """rho(A) = sum_j w_j (bra_j, A ket_j) over product vectors."""

    terms: tuple[tuple[complex, ProductVector, ProductVector], ...]

    def __init__(self, terms: Iterable[tuple[complex, ProductVector, ProductVector]]):
        object.__setattr__(
            self, "terms",
            tuple((complex(w), ket, bra) for w, ket, bra in terms))

    def __call__(self, a: TensorOperator | None = None) -> complex:
        if a is None:
            a = identity_operator()
        return sum((w * pairing(bra, a, ket) for w, ket, bra in self.terms),
                   0.0 + 0.0j)

    def __add__(self, other: "Functional") -> "Functional":
        return Functional(self.terms + other.terms)

    def shifted(self) -> "Functional":
        """One application of the down-shift on the predual side.

        Each rank-one picks up the factor (bra_1, exp(-x) ket_1) and both
        vectors lose their first factor to the reference tail.
        """
        out = []
        for w, ket, bra in self.terms:
            mult = _DAMPING.matrix_element(bra.factors[0], ket.factors[0])
            out.append((w * mult, ket.shifted_down(), bra.shifted_down()))
        return Functional(out)

    def delta_value(self) -> complex:
        return self(delta_operator())

    def norm(self) -> float:
        """Trace norm of the representing finite-rank operator."""
        if not self.terms:
            return 0.0
        kets = [k for _, k, _ in self.terms]
        bras = [b for _, _, b in self.terms]
        vectors = kets + bras
        p = len(vectors)
        ident = identity_operator()
        gram = np.empty((p, p), dtype=complex)
        for i in range(p):
            for j in range(p):
                gram[i, j] = pairing(vectors[i], ident, vectors[j])
        gram = 0.5 * (gram + gram.conj().T)
        evals, evecs = np.linalg.eigh(gram)
        keep = evals > max(evals.max(), 1.0) * 1e-14 if evals.size else evals > 0
        coords = (np.sqrt(np.clip(evals[keep], 0, None))[:, None]
                  * evecs[:, keep].conj().T)
        n_terms = len(self.terms)
        mat = np.zeros((coords.shape[0], coords.shape[0]), dtype=complex)
        for j, (w, _, _) in enumerate(self.terms):
            mat += w * np.outer(coords[:, j], coords[:, n_terms + j].conj())
        return float(np.linalg.svd(mat, compute_uv=False).sum())


def rank_one(ket: ProductVector,
             bra: ProductVector | None = None) -> Functional:
    return Functional([(1.0, ket, bra if bra is not None else ket)])


# ---------------------------------------------------------------------------
# elements of the big algebra in product form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HElement:
    """A finite sum of product operators (k_op tensor h_op) on K x L2."""

    terms: tuple[tuple[complex, IdentityOperator | ExpMultiplier,
                       TensorOperator], ...]

    @property
    def telescoping(self) -> bool:
        """Whether this is I - Lambda, for which the weight series
        telescopes and admits an exact tail; read off the terms."""
        return tuple(self.terms) == boundary_identity().terms

    def pi_image(self, n_factors: int) -> TensorOperator:
        """pi of the element: the terms of each pi(k_op tensor h_op),
        scaled by their coefficient; the zero operator for no terms."""
        return TensorOperator(
            (c * w, factors, tail) for c, h_op, k_op in self.terms
            for w, factors, tail in pi_apply(h_op, k_op, n_factors).terms)


def boundary_identity() -> HElement:
    """The element I - Lambda, i.e. identity minus damping on the last slot."""
    return HElement(
        terms=((1.0, IdentityOperator(), identity_operator()),
               (-1.0, ExpMultiplier(), identity_operator())))


def identity_element() -> HElement:
    return HElement(terms=((1.0, IdentityOperator(), identity_operator()),))


# ---------------------------------------------------------------------------
# weight series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesValue:
    """Per member of a block, arrays; terms has the term axis first and is
    nan past the terms a member sums."""
    value: complex
    terms: np.ndarray
    tail_certificate: float
    exact_tail: bool


class _OrbitTerm:
    """One rank-one w (bra, . ket) of a functional along its shift orbit.

    Absolute slot s holds the explicit factors for s < width and the
    reference vectors k_{tail_start + s - width} past them.  After k
    shifts the weight is w times the damping entries of slots 0..k-1, and
    position i of the truncated state reads slot k + i.

    I, Delta and the target are resolved by TensorOperator.slots, as in
    tensorspace.pairing, and value multiplies in pairing's order, so each
    value is the one pairing gives on the shifted functional.  vals keeps
    one list of matrix elements (bra_s, op ket_s) per distinct slot
    operator, from slot 0, filled here for the explicit slots and grown
    by one reference slot per shift; the damping list gives the shift
    weights.
    """

    def __init__(self, w: complex, ket: ProductVector, bra: ProductVector,
                 target: TensorOperator):
        check_aligned(ket, bra)
        self.w = w
        self.ket = ket
        n = ket.width
        slots = [op.slots(n) for op in (identity_operator(), delta_operator(),
                                        target)]
        distinct = dict.fromkeys([_DAMPING] + [
            op for terms, _ in slots for _, ops, _ in terms for op in ops])
        self.vals = {op: [op.matrix_element(bra.factors[s], ket.factors[s])
                          for s in range(n)] for op in distinct}
        self.damping = self.vals[_DAMPING]
        self.identity, self.delta, self.target = (
            ([(c, [self.vals[op] for op in ops], damps)
              for c, ops, damps in terms], overwide)
            for terms, overwide in slots)

    def value(self, operator, k: int) -> complex:
        """rho_k(operator) after k shifts; operator is self.identity,
        self.delta or self.target."""
        terms, overwide = operator
        total = 0.0 + 0.0j
        for c, factors, damps in terms:
            val = c
            for i, vals in enumerate(factors):
                val *= vals[k + i]
            if damps:
                val *= tail_weight_product(self.ket.seq,
                                           self.ket.tail_start + k)
            total += val
        if overwide is not None:
            raise overwide
        return self.w * total

    def shift(self, k: int) -> None:
        """rho_k -> rho_{k+1}: damp slot k, append slot k + width.

        Bra and ket share their sequence and tail start (check_aligned),
        so one reference vector fills the new slot on both sides.  It is
        fetched here, so a custom sequence too short for it raises at the
        shift where ProductVector.shifted_down would.
        """
        self.w = self.w * self.damping[k]
        ref = self.ket.seq.reference(self.ket.tail_start + k)
        for op, vals in self.vals.items():
            vals.append(op.matrix_element(ref, ref))


def _series(rho: Functional, element: HElement, cfg: WeightSeriesConfig,
            n_factors: int, z: complex = 1.0) -> SeriesValue:
    """sum_n z^{n+1} rho((pi Lambda)^n pi(element)) with certified tail.

    The orbit rho_n = rho o sigma^n is read from per-slot tables (see the
    module docstring); the certificate compares rho_n(I) with rho(Delta).
    Each member of a block stops at the first term its certificate allows
    and sums its own terms; the loop runs until every member has stopped.
    """
    target = element.pi_image(n_factors)
    orbit = []
    parts = []
    for w, ket, bra in rho.terms:
        term = _OrbitTerm(w, ket, bra, target)
        parts.append(term.value(term.delta, 0))
        orbit.append(term)
    delta_limit = sum(parts, 0.0 + 0.0j)
    telescopes = element.telescoping and z == 1.0
    explicit = cfg.max_terms
    if telescopes:
        explicit = min(cfg.max_terms, 4 * n_factors + 4)
    shape = np.shape(delta_limit)  # () for a single functional
    stop = np.zeros(np.size(delta_limit), int)  # terms summed; 0 = running
    cert_at = np.zeros(stop.size)
    terms = []
    zpow = z
    for k in range(explicit):
        terms.append(zpow * sum((t.value(t.target, k) for t in orbit),
                                0.0 + 0.0j))
        for t in orbit:
            t.shift(k)
        zpow = zpow * z
        cert = np.asarray(abs(zpow) * abs(_identity_value(orbit, k + 1)
                                          - delta_limit), float).reshape(-1)
        hit = cert < cfg.tail_tolerance
        if hit.any():
            hit &= stop == 0
            stop[hit] = k + 1
            cert_at[hit] = cert[hit]
            if stop.all():
                break
    series = np.array(terms, complex)
    rows = series.reshape(len(terms), stop.size)  # a view, one column each
    running = stop == 0
    if running.any() and not telescopes:
        first = np.flatnonzero(running)[0]
        raise NonConvergenceError(
            "weight series still above tolerance after %d terms"
            % cfg.max_terms, np.cumsum(rows[:, first]))
    stop[running] = len(terms)
    value = np.empty(stop.size, complex)
    for n in sorted(set(stop.tolist())):  # np.unique loads numpy.ma, +1 MB
        # one contiguous row per member: np.sum adds it pairwise, as on
        # the member's own 1-D terms
        members = stop == n
        value[members] = np.ascontiguousarray(rows[:n, members].T).sum(axis=1)
        rows[n:, members] = np.nan
    if running.any():
        # for I - Lambda the terms are rho_n(I) - rho_{n+1}(I), so the
        # remaining sum is exactly rho_n(I) - rho(Delta)
        tail = _identity_value(orbit, len(terms)) - delta_limit
        value[running] += np.asarray(tail, complex).reshape(-1)[running]
    exact = running.reshape(shape)
    return SeriesValue(value.reshape(shape)[()], series,
                       cert_at.reshape(shape)[()],
                       exact if shape else bool(exact))


def _identity_value(orbit: list[_OrbitTerm], k: int) -> complex:
    return sum((t.value(t.identity, k) for t in orbit), 0.0 + 0.0j)


def omega1(rho: Functional, element: HElement,
           cfg: WeightSeriesConfig | None = None,
           n_factors: int | None = None) -> SeriesValue:
    """The minimal weight: sum_n rho((pi Lambda)^n pi(element)).

    Satisfies omega1(rho)(I - Lambda) = rho(I) - rho(Delta).
    """
    cfg = cfg or WeightSeriesConfig()
    if n_factors is None:
        n_factors = _infer_width(rho)
    return _series(rho, element, cfg, n_factors, z=1.0)


def omega_z(z: complex, rho: Functional, element: HElement,
            cfg: WeightSeriesConfig | None = None,
            n_factors: int | None = None) -> SeriesValue:
    """The z-twisted weight sum_n z^{n+1} rho((pi Lambda)^n pi(element))."""
    if abs(z) > 1.0 + 1e-12:
        raise ValueError("twist parameter must satisfy |z| <= 1")
    cfg = cfg or WeightSeriesConfig()
    if n_factors is None:
        n_factors = _infer_width(rho)
    return _series(rho, element, cfg, n_factors, z=z)


def _infer_width(rho: Functional) -> int:
    if not rho.terms:
        raise ValueError("functional has no terms: pass n_factors")
    widths = {k.width for _, k, b in rho.terms} | {b.width for _, k, b in rho.terms}
    if len(widths) != 1:
        raise ValueError("functional mixes truncation widths")
    return widths.pop()


# ---------------------------------------------------------------------------
# functionals on the big algebra and the unital family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HFunctional:
    """nu(A) over K x L2: rank-ones (w, (ket_K, ket_h), (bra_K, bra_h))."""

    terms: tuple[tuple[complex, tuple[ProductVector, ExpKernelVector],
                       tuple[ProductVector, ExpKernelVector]], ...]

    def __call__(self, element: HElement) -> complex:
        total = 0.0 + 0.0j
        for w, (ket_k, ket_h), (bra_k, bra_h) in self.terms:
            for c, h_op, k_op in element.terms:
                total += (w * c * h_op.matrix_element(bra_h, ket_h)
                          * pairing(bra_k, k_op, ket_k))
        return total

    def damped_trace(self) -> Functional:
        """The tensor-space functional C -> nu(C tensor exp(-x))."""
        out = []
        for w, (ket_k, ket_h), (bra_k, bra_h) in self.terms:
            out.append((w * _DAMPING.matrix_element(bra_h, ket_h),
                        ket_k, bra_k))
        return Functional(out)


@dataclass(frozen=True)
class BoundaryWeight:
    """A weight held through its series data, evaluated on product elements.

    For the family built from a normalization functional nu the value is
    norm_const * (nu(A) + omega1(nu-damped)(A)).
    """

    nu: HFunctional
    norm_const: float
    n_factors: int
    cfg: WeightSeriesConfig

    def value(self, element: HElement) -> complex:
        series = _series(self.nu.damped_trace(), element, self.cfg,
                         self.n_factors)
        return self.norm_const * (self.nu(element) + series.value)


def xi_from_nu(nu: HFunctional, cfg: WeightSeriesConfig | None = None, *,
               n_factors: int) -> BoundaryWeight:
    """Build the normalized weight from a positive functional nu.

    The result satisfies xi(I - Lambda) = (nu(I) - d) / (1 - d) with
    d = nu(Lambda(Delta)); in particular it is unital exactly when
    nu(I) = 1.
    """
    cfg = cfg or WeightSeriesConfig()
    damped = nu.damped_trace()
    d = damped.delta_value()
    if abs(d.imag) > 1e-10:
        raise PreconditionViolationError("nu(Lambda(Delta)) is not real", d)
    if d.real >= UNITAL_LIMIT:
        raise NearSingularNormalizationError(
            "nu(Lambda(Delta)) = %g is too close to 1" % d.real, d.real)
    return BoundaryWeight(nu, 1.0 / (1.0 - d.real), n_factors, cfg)


# ---------------------------------------------------------------------------
# the decay curve
# ---------------------------------------------------------------------------

def build_delta_null_functional(f: ProductVector,
                                f0: ProductVector) -> Functional:
    """|f><f| - c |f0><f0| with c chosen so the value on Delta vanishes."""
    num = rank_one(f).delta_value()
    den = rank_one(f0).delta_value()
    return Functional([(1.0, f, f), (-num / den, f0, f0)])


def lemma_decay_curve(rho: Functional, n_max: int) -> np.ndarray:
    """Norms of the iterated down-shifts of rho.

    Requires |rho(Delta)| <= 1e-10; for functionals built from head-supported
    vectors at level m the curve is numerically zero from n = m on.
    """
    d = rho.delta_value()
    if abs(d) > 1e-10:
        raise PreconditionViolationError(
            "functional does not vanish on Delta", d)
    out = []
    cur = rho
    for _ in range(n_max + 1):
        out.append(cur.norm())
        cur = cur.shifted()
    return np.array(out)
