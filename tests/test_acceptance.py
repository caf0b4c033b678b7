"""End-to-end acceptance checks at the stated tolerances.

Each test covers one acceptance criterion and prints a single summary
line of the form "[PASS] criterion-k: ..." (or raises, in which case the
criterion fails).
"""

import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from cpflow.cli import main as cli_main
from cpflow.gauge import (
    FLOW,
    UNITARY,
    action_composition_residual,
    adjoint,
    compose,
    formula_discrepancy_report,
    pair_reachable,
    r_sweep,
    random_param,
    single_reachable,
)
from cpflow.halfline import ExpKernelVector, Grid, inner_product
from cpflow.opbasis import MatrixModel
from cpflow.cornercheck import (
    DegenerateDirectionError,
    hypermax_witness,
    subordination_check,
)
from cpflow.semigroups import (
    FlowState,
    analytic_gram,
    bump_state,
    covariance_residuals,
    flow_inner,
    gram_min_eig,
    refinement_orders,
)
from cpflow.tensorspace import (
    LambdaSequence,
    ProductVector,
    delta_pairing,
    reference_state,
)
from cpflow.weights import (
    HFunctional,
    boundary_identity,
    build_delta_null_functional,
    identity_element,
    lemma_decay_curve,
    omega1,
    rank_one,
    xi_from_nu,
)
from references import omega_full

LINEAR = LambdaSequence("linear")


def announce(tag, detail):
    print("\n[PASS] %s: %s" % (tag, detail))


def test_criterion_1_delta_pairing():
    f = reference_state(LINEAR, 8)
    result = delta_pairing(f, f)
    curve = result.curve.real
    finite = float(np.prod([i * i / (1.0 + i * i) for i in range(1, 9)]))
    limit = float(np.pi / np.sinh(np.pi))
    assert abs(curve[-1] - finite) < 1e-10
    assert np.all(np.diff(curve) <= 1e-14)
    assert abs(result.value.real - limit) < 1e-10
    announce("criterion-1",
             "pairing at level 8 = %.12f (oracle %.12f), limit %.6f"
             % (curve[-1], finite, limit))


def test_criterion_2_decay():
    f0 = reference_state(LINEAR, 4)
    bumped = [fac + ExpKernelVector([(0.5, 1.5 + i)]) if i < 3 else fac
              for i, fac in enumerate(f0.factors)]
    f = ProductVector(LINEAR, bumped, f0.tail_start)
    rho = build_delta_null_functional(f, f0)
    curve = lemma_decay_curve(rho, 8)
    assert np.all(curve[3:] <= 1e-12)
    announce("criterion-2",
             "shift norms vanish from n=3 (max %.2e)" % max(curve[3:]))


def test_criterion_3_weight_normalization():
    rng = np.random.default_rng(3)
    n_factors, m = 4, 3
    kv = reference_state(LINEAR, n_factors)
    hv = LINEAR.reference(1)
    raw = HFunctional(((1.0, (kv, hv), (kv, hv)),))
    scale = raw(identity_element()).real
    nu = HFunctional(((1.0 / scale, (kv, hv), (kv, hv)),))
    xi = xi_from_nu(nu, n_factors=n_factors)
    bid = boundary_identity()
    worst1 = worst2 = 0.0
    for _ in range(100):
        factors = []
        for _ in range(n_factors):
            coeffs = rng.normal(size=m) + 1j * rng.normal(size=m)
            factors.append(ExpKernelVector(
                [(coeffs[j], 1.0 + j) for j in range(m)]))
        rho = rank_one(ProductVector(LINEAR, tuple(factors),
                                     n_factors + 1))
        val1 = omega1(rho, bid, n_factors=n_factors).value
        worst1 = max(worst1, abs(val1 - (rho(None) - rho.delta_value())))
        val2 = omega_full(rho, bid, xi, n_factors=n_factors)
        worst2 = max(worst2, abs(val2 - rho(None)))
    assert worst1 < 1e-8
    assert worst2 < 1e-8
    announce("criterion-3",
             "identity residual %.2e, unitality residual %.2e over 100 "
             "positive functionals" % (worst1, worst2))


def test_criterion_4_covariance():
    labels = [0.0, 1.0, 1j, 1 + 1j]
    residuals = []
    for n in (200, 400, 800):
        grid = Grid(8.0, n)
        f = bump_state(grid, 3.0, 0.4)
        g = bump_state(grid, 3.5, 0.5)
        worst = 0.0
        for w in labels:
            for z in labels:
                worst = max(worst, covariance_residuals(
                    [w], [z], 1.0, f, g)[0, 0])
        residuals.append(worst)
    orders = refinement_orders(residuals)
    assert min(orders) >= 0.8
    gram_eig = gram_min_eig(analytic_gram(labels, 1.0))
    assert gram_eig >= -1e-12
    announce("criterion-4",
             "covariance residual orders %s, Gram min eig %.2e"
             % (["%.2f" % o for o in orders], gram_eig))


def test_criterion_5_gauge_algebra():
    rng = np.random.default_rng(5)
    zs = [complex(rng.normal(), rng.normal()) for _ in range(25)]
    worst_assoc = 0.0
    for _ in range(1000):
        a, b, c = (random_param(rng) for _ in range(3))
        p1 = compose(compose(a, b), c)
        p2 = compose(a, compose(b, c))
        worst_assoc = max(worst_assoc,
                          max(abs(getattr(p1, n) - getattr(p2, n))
                              for n in "abcy"))
    assert worst_assoc < 1e-12
    # 100,000 random general pairs, drawn and evaluated in blocks
    r_min, _ = r_sweep(rng, 100000)
    assert r_min >= -1e-12
    g = random_param(rng, UNITARY)
    inv = compose(g, adjoint(g))
    assert max(abs(inv.a - 1.0), abs(inv.b), abs(inv.c), abs(inv.y)) < 1e-12
    closure = compose(random_param(rng, UNITARY), random_param(rng, UNITARY))
    assert closure.klass == UNITARY
    worst_exact = 0.0
    for _ in range(100):
        for klass in (UNITARY, FLOW):
            pair = (random_param(rng, klass), random_param(rng, klass))
            worst_exact = max(worst_exact,
                              action_composition_residual(*pair, zs))
    assert worst_exact < 1e-12
    report = None
    for _ in range(100):
        g, gp = random_param(rng), random_param(rng)
        candidate = formula_discrepancy_report(g, gp, zs)
        if candidate["discrepant"]:
            report = candidate
            break
    general_ok = report is None or (
        report["residual_action_consistent"] < 1e-12
        and "reproducer" in report)
    assert general_ok
    announce("criterion-5",
             "assoc %.2e, r_min %.2e, exact-class oracle %.2e, printed-law "
             "discrepancy %s" % (worst_assoc, r_min, worst_exact,
                                 "reported" if report else "absent"))


def test_criterion_6_transitivity():
    res = pair_reachable((0.0, 1.0), (0.0, 1j), "a1")
    assert not res.reachable and "1j" in res.obstruction
    res = pair_reachable((0.0, 1.0), (0.0, 1j), "unit")
    assert res.reachable
    assert abs(res.witness[0] - 1j) < 1e-12 and abs(res.witness[1]) < 1e-12
    rng = np.random.default_rng(6)
    for _ in range(100):
        z0 = complex(rng.normal(), rng.normal())
        z1 = complex(rng.normal(), rng.normal())
        a, b = single_reachable(z0, z1).witness
        assert abs(a * z0 + b - z1) < 1e-12
    announce("criterion-6",
             "rotation obstruction under a=1, witness (i, 0) on the "
             "circle, 100 translation witnesses")


def test_criterion_7_cp_subordination():
    model = MatrixModel(n_factors=4, factor_dim=2)
    dh = model.dim_h
    nu = np.zeros((dh, dh), dtype=complex)
    nu[0, 0] = 1.0
    minimal = model.weight_superop()
    eta, _ = model.xi_eta(nu)
    full = minimal + model.gap_superop(eta)
    verdict = subordination_check(model, full, minimal, (0.5, 0.25))
    eigs = dict(zip(verdict.cut_levels, verdict.lower_min_eigs))
    for t in (0.5, 0.25):
        assert eigs[t] >= -1e-8
    assert verdict.subordinate
    witness = hypermax_witness(-1.0, model, eta, verdict)
    assert witness.witnessed
    with pytest.raises(DegenerateDirectionError):
        hypermax_witness(1.0, model, eta, verdict)
    announce("criterion-7",
             "boundary-rep Choi min eigs %s, subordination %s, hypermax "
             "witness passes, z=1 degenerate"
             % ({t: "%.1e" % v for t, v in eigs.items()},
                verdict.subordinate))


def test_criterion_8_backend_cross_validation():
    rng = np.random.default_rng(8)
    funcs = []
    for _ in range(50):
        terms = [(complex(rng.normal(), rng.normal()),
                  rng.uniform(0.5, 3.0)) for _ in range(3)]
        funcs.append(ExpKernelVector(terms))
    errors = []
    for n in (2000, 4000, 8000):
        grid = Grid(40.0, n)
        sampled = [FlowState(grid, f(grid.midpoints)) for f in funcs]
        worst = 0.0
        for f, sf in zip(funcs, sampled):
            exact = inner_product(f, f)
            worst = max(worst, abs(flow_inner(sf, sf) - exact))
        errors.append(worst)
    orders = refinement_orders(errors)
    assert min(orders) >= 0.9
    announce("criterion-8",
             "analytic/grid agreement orders %s over 50 functions"
             % ["%.2f" % o for o in orders])


def test_criterion_9_cli_determinism(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "gauge": {"triples": 100, "r_samples": 2000, "z_samples": 10,
                  "pairs": 30},
        "corner": {"factors": 2, "cut_levels": [0.5, 0.25],
                   "witness_label": "-1"},
        "weights": {"samples": 5, "factor_dim": 2},
        "covariance": {"refinements": 2},
    }))
    commands = ["delta", "decay", "covariance", "gauge-check",
                "transitivity", "corner", "weights-unitality"]
    runner = CliRunner()
    for command in commands:
        payloads = []
        for tag in ("a", "b"):
            out = tmp_path / command / tag
            result = runner.invoke(
                cli_main,
                [command, "--config", str(config), "--seed", "11",
                 "--out", str(out)], catch_exceptions=False)
            assert result.exit_code == 0, result.output
            with open(out / ("%s-report.json" % command)) as fh:
                report = json.load(fh)
            report.pop("timing")
            payloads.append(json.dumps(report, sort_keys=True))
        assert payloads[0] == payloads[1], command
    announce("criterion-9",
             "identical reports modulo timing for all %d commands"
             % len(commands))
