"""Normal functionals and boundary weights on the truncated model.

Functionals are finite sums of rank-one bra-kets over product vectors.
The weight series (the minimal weight, its z-twisted variants, and the
unital family built from a normalization functional) are evaluated by
shifting the functional instead of the operator, so the truncation window
never overflows.  Series tails are certified by the positive majorant at
the boundary identity I - Lambda, for which the series telescopes and the
tail has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .halfline import (
    ExpKernelVector,
    ExpMultiplier,
    Grid,
    HalfLineOperator,
    IdentityOperator,
    inner_product,
)
from .tensorspace import (
    ProductVector,
    TensorOperator,
    delta_operator,
    identity_operator,
    pairing,
    pi_apply,
    product_inner,
)


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


class NearSingularNormalizationError(ValueError):
    """The normalization 1 - nu(Lambda(Delta)) is too close to zero."""


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

    def scaled(self, c: complex) -> "Functional":
        return Functional([(c * w, k, b) for w, k, b in self.terms])

    def __add__(self, other: "Functional") -> "Functional":
        return Functional(self.terms + other.terms)

    def shifted(self) -> "Functional":
        """One application of the down-shift on the predual side.

        Each rank-one picks up the factor (bra_1, exp(-x) ket_1) and both
        vectors lose their first factor to the reference tail.
        """
        out = []
        for w, ket, bra in self.terms:
            mult = inner_product(bra.factors[0], ket.factors[0].shifted(1.0))
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
        gram = np.empty((p, p), dtype=complex)
        for i in range(p):
            for j in range(p):
                gram[i, j] = product_inner(vectors[i], vectors[j])
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


def rank_one(ket: ProductVector, bra: ProductVector | None = None,
             weight: complex = 1.0) -> Functional:
    return Functional([(weight, ket, bra if bra is not None else ket)])


# ---------------------------------------------------------------------------
# elements of the big algebra in product form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HElement:
    """A finite sum of product operators (k_op tensor h_op) on K x L2.

    telescoping marks the distinguished element I - Lambda, for which the
    weight series telescopes and admits an exact tail.
    """

    terms: tuple[tuple[complex, HalfLineOperator, TensorOperator], ...]
    telescoping: bool = False

    def pi_image(self, n_factors: int) -> TensorOperator:
        out = None
        for c, h_op, k_op in self.terms:
            piece = pi_apply(h_op, k_op, n_factors).scaled(c)
            out = piece if out is None else out + piece
        return out


def boundary_identity() -> HElement:
    """The element I - Lambda, i.e. identity minus damping on the last slot."""
    return HElement(
        terms=((1.0, IdentityOperator(), identity_operator()),
               (-1.0, ExpMultiplier(1.0), identity_operator())),
        telescoping=True)


def lambda_of(k_op: TensorOperator) -> HElement:
    """Lambda(C) = C tensor multiplication-by-exp(-x)."""
    return HElement(terms=((1.0, ExpMultiplier(1.0), k_op),))


def identity_element() -> HElement:
    return HElement(terms=((1.0, IdentityOperator(), identity_operator()),))


# ---------------------------------------------------------------------------
# weight series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesValue:
    value: complex
    terms: np.ndarray
    tail_certificate: float
    exact_tail: bool


def _series(rho: Functional, element: HElement, cfg: WeightSeriesConfig,
            n_factors: int, z: complex = 1.0) -> SeriesValue:
    """sum_n z^{n+1} rho((pi Lambda)^n pi(element)) with certified tail."""
    target = element.pi_image(n_factors)
    delta_limit = rho.delta_value()
    telescopes = element.telescoping and z == 1.0
    explicit = cfg.max_terms
    if telescopes:
        explicit = min(cfg.max_terms, 4 * n_factors + 4)
    cur = rho
    terms = []
    zpow = z
    for _ in range(explicit):
        terms.append(zpow * cur(target))
        cur = cur.shifted()
        zpow = zpow * z
        cert = abs(zpow) * abs(cur(None) - delta_limit)
        if cert < cfg.tail_tolerance:
            return SeriesValue(np.sum(terms), np.array(terms), cert, False)
    if telescopes:
        # for I - Lambda the terms are rho_n(I) - rho_{n+1}(I), so the
        # remaining sum is exactly cur(I) - rho(Delta)
        tail = cur(None) - delta_limit
        return SeriesValue(np.sum(terms) + tail, np.array(terms), 0.0, True)
    partial = np.cumsum(terms)
    raise NonConvergenceError(
        "weight series still above tolerance after %d terms" % cfg.max_terms,
        partial)


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
    if z == 0:
        return SeriesValue(0.0 + 0.0j, np.zeros(0), 0.0, True)
    return _series(rho, element, cfg, n_factors, z=z)


def _infer_width(rho: Functional) -> int:
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
            out.append((w * inner_product(bra_h, ket_h.shifted(1.0)),
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

    def on_boundary_identity(self) -> complex:
        return self.value(boundary_identity())


def zero_boundary_weight(n_factors: int,
                         cfg: WeightSeriesConfig | None = None) -> BoundaryWeight:
    return BoundaryWeight(HFunctional(()), 0.0, n_factors,
                          cfg or WeightSeriesConfig())


def xi_from_nu(nu: HFunctional, cfg: WeightSeriesConfig | None = None,
               n_factors: int | None = None,
               epsilon: float = 1e-8) -> BoundaryWeight:
    """Build the normalized weight from a positive functional nu.

    The result satisfies xi(I - Lambda) = (nu(I) - d) / (1 - d) with
    d = nu(Lambda(Delta)); in particular it is unital exactly when
    nu(I) = 1.
    """
    cfg = cfg or WeightSeriesConfig()
    if n_factors is None:
        widths = {k[0].width for _, k, b in nu.terms}
        n_factors = widths.pop() if widths else 1
    damped = nu.damped_trace()
    d = damped.delta_value()
    if abs(d.imag) > 1e-10:
        raise PreconditionViolationError("nu(Lambda(Delta)) is not real", d)
    if d.real >= 1.0 - epsilon:
        raise NearSingularNormalizationError(
            "nu(Lambda(Delta)) = %g is too close to 1" % d.real)
    return BoundaryWeight(nu, 1.0 / (1.0 - d.real), n_factors, cfg)


def omega_full(rho: Functional, element: HElement, xi: BoundaryWeight,
               cfg: WeightSeriesConfig | None = None,
               n_factors: int | None = None) -> complex:
    """The full weight omega(rho) = omega1(rho) + rho(Delta) xi."""
    base = omega1(rho, element, cfg, n_factors)
    return base.value + rho.delta_value() * xi.value(element)


# ---------------------------------------------------------------------------
# the decay curve
# ---------------------------------------------------------------------------

def build_delta_null_functional(f: ProductVector,
                                f0: ProductVector) -> Functional:
    """|f><f| - c |f0><f0| with c chosen so the value on Delta vanishes."""
    num = rank_one(f).delta_value()
    den = rank_one(f0).delta_value()
    return Functional([(1.0, f, f), (-num / den, f0, f0)])


def lemma_decay_curve(rho: Functional, n_max: int,
                      delta_tol: float = 1e-10) -> np.ndarray:
    """Norms of the iterated down-shifts of rho.

    Requires rho(Delta) = 0; for functionals built from head-supported
    vectors at level m the curve is numerically zero from n = m on.
    """
    d = rho.delta_value()
    if abs(d) > delta_tol:
        raise PreconditionViolationError(
            "functional does not vanish on Delta", d)
    out = []
    cur = rho
    for _ in range(n_max + 1):
        out.append(cur.norm())
        cur = cur.shifted()
    return np.array(out)


# ---------------------------------------------------------------------------
# a weight that vanishes on an exhausting family yet has infinite mass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonNormalRow:
    n: int
    weight_value: float
    partial_mass: float


def nonnormal_weight_demo(s: float, n_max: int,
                          points: int = 4000,
                          length: float = 12.0) -> list[NonNormalRow]:
    """Grid demonstration of a weight with no normal part.

    The generating function is h(x) = x^{-s/2} (1 - exp(-x))^{1/2} with
    s in (1, 2).  For each n a function g orthogonal to h and supported in
    [1/n, infinity) is built; the weight vanishes on it while the h-mass
    over [1/n, infinity) keeps growing as n increases.
    """
    if not (1.0 < s < 2.0):
        raise ValueError("the exponent must lie strictly between 1 and 2")
    grid = Grid(length, points)
    x = grid.midpoints
    h = x ** (-0.5 * s) * np.sqrt(1.0 - np.exp(-x))
    hsq = h * h
    dx = grid.spacing
    rows = []
    for n in range(1, n_max + 1):
        support = x >= 1.0 / n
        idx = np.nonzero(support)[0]
        half = idx[: len(idx) // 2]
        rest = idx[len(idx) // 2:]
        g = np.zeros_like(h)
        g[half] = h[half]
        c = (hsq[half].sum() / hsq[rest].sum())
        g[rest] = -c * h[rest]
        gnorm = np.sqrt(dx) * np.linalg.norm(g)
        weight_value = abs(dx * np.vdot(h, g / gnorm)) ** 2
        partial_mass = dx * hsq[support].sum()
        rows.append(NonNormalRow(n, float(weight_value), float(partial_mass)))
    return rows
