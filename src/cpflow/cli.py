"""Configuration-driven experiment runner.

Each command runs one experiment family, writes a JSON report plus CSV
curve sidecars into the output directory, and exits nonzero when any
check fails.  Reports are deterministic for a fixed config and seed;
wall-clock timing lives under the "timing" key so consumers can compare
reports modulo timestamps.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .halfline import ComplexBlock, ExpKernelVector, Grid
from .tensorspace import (
    LAMBDA_KINDS,
    LambdaSequence,
    ProductVector,
    TruncationExceededError,
    delta_pairing,
    has_rate,
    reference_state,
    tail_weight_product,
)
from .weights import (
    Functional,
    HFunctional,
    WeightSeriesConfig,
    boundary_identity,
    build_delta_null_functional,
    identity_element,
    lemma_decay_curve,
    omega1,
    rank_one,
    xi_from_nu,
)
from .opbasis import CP_TOLERANCE, DEFAULT_EDGES, MatrixModel, cut_edges
# choi_min_eig is unused here; perfbench's selftest checks this binding
from .opbasis import choi_min_eig  # noqa: F401
from .cornercheck import (
    DegenerateDirectionError,
    derivation_residual,
    hypermax_witness,
    subordination_check,
)
from .gauge import (
    FLOW,
    GENERAL,
    UNITARY,
    action_sweep,
    associativity_sweep,
    first_discrepancy,
    on_unit_circle,
    pair_reachable,
    r_sweep,
    single_reachable,
)
from .semigroups import (
    CoarseGridError,
    InvalidExperimentError,
    StepCountError,
    analytic_gram,
    bump_state,
    covariance,
    covariance_residuals,
    gram_min_eig,
    numeric_gram,
    refinement_orders,
    semigroup_residual,
)


class ConfigError(Exception):
    """A config the runners cannot run; main exits 2 with its message."""


DEFAULT_CONFIG = {
    "grid": {"length": 8.0, "points": 200},
    "tensor": {"factors": 4, "factor_dim": 2},
    "lambda": {"kind": "linear", "values": None},
    "series": {key: getattr(WeightSeriesConfig, key)
               for key in ("tail_tolerance", "max_terms")},
    "seeds": {"rng": 2024},
    "delta": {"levels": 8},
    "decay": {"n_max": 8, "head_level": 3},
    "covariance": {"labels": [0.0, 1.0, "1j", "1+1j"], "t": 1.0,
                   "refinements": 3},
    "gauge": {"triples": 1000, "r_samples": 100000, "z_samples": 25,
              "pairs": 200},
    "transitivity": {"pairs": 100},
    "corner": {"cut_levels": [0.5, 0.25], "witness_label": "-1",
               "factors": 3},
    "weights": {"samples": 25, "factor_dim": 3},
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in (override or {}).items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


# The least value of each integer setting.  Below it a runner indexes an
# empty tuple, takes the min or max of no samples, or passes a check that
# never ran; covariance needs two refinement levels for one order, and
# decay bumps no factor below head level 1; at delta level 0 the pairing
# curve is the single point 1.
MINIMUMS = {
    "tensor.factors": 1, "tensor.factor_dim": 1, "series.max_terms": 1,
    "seeds.rng": 0, "covariance.refinements": 2, "gauge.triples": 1,
    "gauge.r_samples": 1, "gauge.z_samples": 1, "gauge.pairs": 1,
    "transitivity.pairs": 1, "corner.factors": 1, "weights.samples": 1,
    "weights.factor_dim": 1, "decay.head_level": 1, "delta.levels": 1,
}

# The settings that must be > 0.  At covariance.t = 0 every residual is 0
# and the order inf: a pass that checks nothing.  At tail_tolerance <= 0
# the certificate cert < tol never holds: every series runs max_terms.
POSITIVE = ("grid.length", "grid.points", "covariance.t",
            "series.tail_tolerance")


def _parses(convert, values) -> bool:
    try:
        for value in values:
            convert(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _bad_numbers(cfg: dict) -> list[str]:
    """Errors for numeric settings whose value has the wrong type or is
    not finite.

    A setting whose default is an int takes an int; one whose default is
    a float takes a finite int or float.  Booleans are neither.
    """
    errors = []
    for section, block in DEFAULT_CONFIG.items():
        for key, default in block.items():
            if not isinstance(default, (int, float)):
                continue
            value = cfg[section][key]
            kind = int if isinstance(default, int) else (int, float)
            if isinstance(value, bool) or not isinstance(value, kind):
                errors.append("%s.%s must be %s, got %r" % (
                    section, key,
                    "an integer" if kind is int else "a number", value))
            elif isinstance(value, float) and not math.isfinite(value):
                errors.append("%s.%s must be finite, got %r"
                              % (section, key, value))
    return errors


def _validate(cfg: dict) -> list[str]:
    errors = []
    malformed = False
    for section, block in cfg.items():
        if section not in DEFAULT_CONFIG:
            errors.append("unknown config section %r" % section)
        elif not isinstance(block, dict):
            errors.append("config section %r must be a mapping" % section)
            malformed = True
        else:
            errors.extend("unknown config key %s.%s" % (section, key)
                          for key in block
                          if key not in DEFAULT_CONFIG[section])
    if malformed:
        return errors
    bad_numbers = _bad_numbers(cfg)
    errors.extend(bad_numbers)
    if not bad_numbers:
        for name in POSITIVE:
            section, key = name.split(".")
            if cfg[section][key] <= 0:
                errors.append("%s must be > 0, got %r"
                              % (name, cfg[section][key]))
        for name, least in MINIMUMS.items():
            section, key = name.split(".")
            if cfg[section][key] < least:
                errors.append("%s must be >= %d, got %r"
                              % (name, least, cfg[section][key]))
        if cfg["decay"]["n_max"] < cfg["decay"]["head_level"]:
            errors.append("decay.n_max must be >= decay.head_level")
    if cfg["lambda"]["kind"] not in LAMBDA_KINDS:
        errors.append("lambda.kind must be %s (a finite list such as "
                      "lambda_n = 2^n is kind custom with lambda.values)"
                      % " or ".join(LAMBDA_KINDS))
    values = cfg["lambda"]["values"]
    if cfg["lambda"]["kind"] == "custom" and not values:
        errors.append("lambda.kind=custom requires lambda.values")
    if cfg["lambda"]["kind"] != "custom" and values is not None:
        errors.append("lambda.values is read only with lambda.kind=custom")
    # the reference rate lambda^2 / 2 must neither overflow nor underflow
    if values is not None and not (isinstance(values, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            and 0 < v and _parses(float, [v])
            and has_rate(float(v)) for v in values)):
        errors.append("lambda.values must be a list of finite positive "
                      "numbers whose squares and halved squares are "
                      "positive finite floats")
    # the step damping exp(-|z|^2 h / 2) needs |z|^2 as a finite float
    labels = cfg["covariance"]["labels"]
    if not isinstance(labels, list) or not labels \
            or not _parses(_modulus_squared, labels) \
            or not all(math.isfinite(_modulus_squared(v)) for v in labels):
        errors.append("covariance.labels must be a non-empty list of "
                      "complex numbers with a finite squared modulus")
    else:
        # 2 conj(w) z - |w|^2 - |z|^2 may still overflow
        zs = [_label(v) for v in labels]
        with np.errstate(over="ignore", invalid="ignore"):
            if not all(np.isfinite(covariance(w, z)) for w in zs for z in zs):
                errors.append("covariance.labels must have a finite "
                              "covariance c(w, z) for every pair")
    cuts = cfg["corner"]["cut_levels"]
    if not isinstance(cuts, list) or not _parses(
            lambda c: cut_edges([float(t) for t in c]), [cuts]):
        errors.append("corner.cut_levels must be a non-empty list of "
                      "distinct cell edges below the top edge %s"
                      % (DEFAULT_EDGES[:-1],))
    witness = cfg["corner"]["witness_label"]
    if not _parses(_label, [witness]) or not on_unit_circle(_label(witness)):
        errors.append("corner.witness_label must be a complex number on "
                      "the unit circle")
    return errors


def load_config(path: str | None) -> dict:
    override = {}
    if path is not None:
        try:
            with open(path) as fh:
                override = yaml.safe_load(fh) or {}
        except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
            # an OSError's own text names the path again
            raise ConfigError("invalid config: cannot read %s: %s" % (
                path, getattr(exc, "strerror", None) or exc)) from exc
    if not isinstance(override, dict):
        raise ConfigError("invalid config: the top level must be a mapping")
    # a copy: runners and main may write into the sections they get
    cfg = _merge(copy.deepcopy(DEFAULT_CONFIG), override)
    errors = _validate(cfg)
    if errors:
        raise ConfigError("invalid config: " + "; ".join(errors))
    return cfg


def _seq(cfg: dict) -> LambdaSequence:
    lam = cfg["lambda"]
    if lam["kind"] == "custom":
        return LambdaSequence("custom", tuple(lam["values"]))
    return LambdaSequence(lam["kind"])


def _label(value) -> complex:
    return complex(str(value).replace(" ", ""))


def _modulus_squared(value) -> float:
    return abs(_label(value)) ** 2


class Reporter:
    def __init__(self, experiment: str, cfg: dict, out_dir: Path):
        self.experiment = experiment
        self.cfg = cfg
        self.out_dir = out_dir
        self.records = []
        self.curves = {}
        self.attachments = {}
        self.started = time.time()

    def record(self, name: str, value, expected, tolerance: float,
               passed: bool, provenance: str):
        self.records.append({
            "name": name,
            "value": value,
            "expected": expected,
            "tolerance": tolerance,
            "pass": bool(passed),
            "provenance": provenance,
        })

    def close(self, name: str, value: float, expected: float,
              tolerance: float, provenance: str):
        self.record(name, value, expected, tolerance,
                    abs(value - expected) <= tolerance, provenance)

    def bound(self, name: str, value: float, bound: float, kind: str,
              provenance: str):
        passed = value >= bound if kind == "ge" else value <= bound
        self.record(name, value, "%s %r" % (kind, bound), 0.0, passed,
                    provenance)

    def curve(self, name: str, rows):
        self.curves[name] = [(int(i), float(v), float(b)) for i, v, b in rows]

    def attach(self, name: str, payload) -> str:
        """Keep payload to write as JSON beside the report; return its file
        name."""
        filename = "%s-%s.json" % (self.experiment, name)
        self.attachments[filename] = payload
        return filename

    @property
    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.records)

    def write(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for name, rows in self.curves.items():
            path = self.out_dir / ("%s-%s.csv" % (self.experiment, name))
            with open(path, "w") as fh:
                fh.write("index,value,bound\n")
                for i, v, b in rows:
                    fh.write("%d,%.17g,%.17g\n" % (i, v, b))
        report = {
            "experiment": self.experiment,
            "version": __version__,
            "config": self.cfg,
            "records": self.records,
            "all_pass": self.all_pass,
            "timing": {"wall_seconds": time.time() - self.started},
        }
        path = self.out_dir / ("%s-report.json" % self.experiment)
        for name, payload in [*self.attachments.items(), (path.name, report)]:
            with open(self.out_dir / name, "w") as fh:
                fh.write(json.dumps(payload, indent=2, sort_keys=True,
                                    default=str) + "\n")
        return path


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def run_delta(cfg, rep: Reporter, rng):
    seq = _seq(cfg)
    levels = int(cfg["delta"]["levels"])
    f = reference_state(seq, levels)
    result = delta_pairing(f, f)
    curve = result.curve.real
    finite = float(np.prod([seq.value(i) ** 2 / (1.0 + seq.value(i) ** 2)
                            for i in range(1, levels + 1)]))
    # pi/sinh(pi) is the full product of the linear sequence in closed form
    limit = (float(np.pi / np.sinh(np.pi)) if seq.kind == "linear"
             else tail_weight_product(seq, 1))
    rep.close("pairing-at-level-%d" % levels, float(curve[-1]), finite,
              1e-10, "derived-oracle")
    rep.close("limit-reference", float(result.value.real), limit, 1e-10,
              "derived-oracle")
    monotone = all(a >= b - 1e-14 for a, b in zip(curve, curve[1:]))
    rep.record("curve-monotone-nonincreasing", monotone, True, 0.0,
               monotone, "trivial")
    rep.curve("pairing", [(i, v, limit) for i, v in enumerate(curve)])


def run_decay(cfg, rep: Reporter, rng):
    seq = _seq(cfg)
    head = int(cfg["decay"]["head_level"])
    n_max = int(cfg["decay"]["n_max"])
    width = max(head + 1, 4)
    f0 = reference_state(seq, width)
    bumped = [fac + ExpKernelVector([(0.5, 1.5 + i)]) if i < head else fac
              for i, fac in enumerate(f0.factors)]
    f = ProductVector(seq, bumped, f0.tail_start)
    rho = build_delta_null_functional(f, f0)
    curve = lemma_decay_curve(rho, n_max)
    rep.bound("delta-value", float(abs(rho.delta_value())), 1e-12, "le",
              "trivial")
    rep.bound("max-norm-from-level-%d" % head, float(max(curve[head:])),
              1e-12, "le", "derived-oracle")
    rep.curve("decay", [(i, float(v), 1e-12 if i >= head else float(v))
                        for i, v in enumerate(curve)])


def run_covariance(cfg, rep: Reporter, rng):
    block = cfg["covariance"]
    labels = [_label(v) for v in block["labels"]]
    t = float(block["t"])
    length = float(cfg["grid"]["length"])
    base_points = int(cfg["grid"]["points"])
    n_levels = int(block["refinements"])
    max_residuals = []
    for level in range(n_levels):
        grid = Grid(length, base_points * 2 ** level)
        f = bump_state(grid, 3.0, 0.4)
        g = bump_state(grid, 3.5, 0.5)
        max_residuals.append(
            float(covariance_residuals(labels, labels, t, f, g).max()))
    if not any(max_residuals):  # the order inf: a pass that tests nothing
        raise ConfigError("invalid config: covariance.labels %r leave every "
                          "residual exactly 0 at every refinement level"
                          % (block["labels"],))
    orders = refinement_orders(max_residuals)
    rep.bound("min-refinement-order", min(orders), 0.8, "ge",
              "derived-oracle")
    grid = Grid(length, base_points)
    f = bump_state(grid, 3.0, 0.4)
    gram_a = gram_min_eig(analytic_gram(labels, t))
    gram_n = gram_min_eig(numeric_gram(labels, t, f))
    rep.bound("analytic-gram-min-eig", gram_a, -1e-12, "ge", "paper")
    rep.bound("numeric-gram-min-eig", gram_n, -1e-12, "ge", "derived-oracle")
    h = grid.spacing
    res = semigroup_residual(1 + 1j, 10 * h, 5 * h, f)
    rep.bound("semigroup-residual", res, 0.0, "le", "trivial")
    rep.close("covariance-at-1-i", covariance(1.0, 1j).real, -1.0, 1e-15,
              "derived-oracle")
    rep.curve("residuals", [(i, v, v) for i, v in enumerate(max_residuals)])


def run_gauge_check(cfg, rep: Reporter, rng):
    block = cfg["gauge"]
    zs = [complex(rng.normal(), rng.normal())
          for _ in range(block["z_samples"])]
    rep.bound("associativity-residual",
              associativity_sweep(rng, block["triples"]), 1e-12, "le",
              "derived-oracle")
    r_min, square_form_residual = r_sweep(rng, block["r_samples"])
    rep.bound("r-minimum", r_min, -1e-12, "ge", "paper")
    rep.bound("r-square-form-residual", square_form_residual, 1e-12, "le",
              "derived-oracle")
    worst = action_sweep(rng, block["pairs"], zs)
    for key, klass in (("unitary", UNITARY), ("flow", FLOW),
                       ("general", GENERAL)):
        rep.bound("action-oracle-residual-%s" % key, worst[klass], 1e-12,
                  "le", "derived-oracle")
    discrepancy = first_discrepancy(rng, block["pairs"], zs)
    if discrepancy is not None:
        rep.record("formula-discrepancy-report",
                   rep.attach("formula-discrepancy", discrepancy),
                   "emitted when printed law deviates", 0.0, True,
                   "derived-oracle")


def run_transitivity(cfg, rep: Reporter, rng):
    res = pair_reachable((0.0, 1.0), (0.0, 1j), "a1")
    rep.record("pair-0-1-to-0-i-under-a1", res.reachable, False, 0.0,
               res.reachable is False and "1j" in (res.obstruction or ""),
               "derived-oracle")
    res = pair_reachable((0.0, 1.0), (0.0, 1j), "unit")
    ok = res.reachable and abs(res.witness[0] - 1j) < 1e-12 \
        and abs(res.witness[1]) < 1e-12
    rep.record("pair-0-1-to-0-i-under-unit-circle", res.reachable, True,
               0.0, ok, "trivial")
    worst = 0.0
    for _ in range(cfg["transitivity"]["pairs"]):
        z0 = complex(rng.normal(), rng.normal())
        z1 = complex(rng.normal(), rng.normal())
        wit = single_reachable(z0, z1)
        worst = max(worst, abs(wit.witness[0] * z0 + wit.witness[1] - z1))
    rep.bound("single-unit-witness-residual", worst, 1e-12, "le",
              "trivial")


def run_corner(cfg, rep: Reporter, rng):
    block = cfg["corner"]
    model = MatrixModel(n_factors=int(block["factors"]),
                        factor_dim=cfg["tensor"]["factor_dim"],
                        seq=_seq(cfg))
    cuts = [float(t) for t in block["cut_levels"]]
    nu = np.zeros((model.dim_h, model.dim_h))
    nu[0, 0] = 1.0
    verdict = subordination_check(model, nu, None, cuts)
    for t, low in zip(cuts, verdict.lower_min_eigs):
        rep.bound("boundary-rep-choi-min-t-%g" % t, low, -CP_TOLERANCE,
                  "ge", "derived-oracle")
    rep.record("subordination-full-over-minimal", verdict.subordinate,
               True, CP_TOLERANCE, verdict.subordinate, "paper")
    label = _label(block["witness_label"])
    try:
        wit = hypermax_witness(label, model, verdict)
        rep.record("hypermax-witness", wit.witnessed, True, CP_TOLERANCE,
                   wit.witnessed, "derived-oracle")
    except DegenerateDirectionError as exc:
        rep.record("hypermax-witness", "degenerate: %s" % exc,
                   "witness or degenerate branch", 0.0, True, "trivial")
    rep.bound("corner-derivation-residual",
              derivation_residual(model, 0.4 + 0.3j), 1e-10, "le", "paper")


_SAMPLE_BLOCK = 1024
"""Samples run through the weight series and their residuals as one block
of functionals, the default 700 in one: block arithmetic costs per numpy
call, not per member.  Each member stops at its own term and rounds as it
would alone (halfline.ComplexBlock), so no value moves."""


def _sample_block(rng, seq, n_factors: int, m: int, k: int) -> Functional:
    """k random functionals |f><f| + |g><g| as one block functional.

    The draw is indexed [sample, vector, factor, re/im, j]: the same
    stream as one rng.normal(size=m) call per part, sample after sample.
    One member-major copy of it, [vector, factor, re/im, j, sample],
    holds every coefficient: each ComplexBlock is a contiguous real row
    and imaginary row of that copy.
    """
    parts = rng.normal(size=(k, 2, n_factors, 2, m))
    rows = np.moveaxis(parts, 0, -1).copy()
    vecs = [ProductVector(seq, tuple(
        ExpKernelVector([(ComplexBlock(rows[v, i, 0, j], rows[v, i, 1, j]),
                          1.0 + j) for j in range(m)])
        for i in range(n_factors)), n_factors + 1) for v in range(2)]
    return rank_one(vecs[0], vecs[0]) + rank_one(vecs[1], vecs[1])


def run_weights_unitality(cfg, rep: Reporter, rng):
    seq = _seq(cfg)
    n_factors = cfg["tensor"]["factors"]
    m = cfg["weights"]["factor_dim"]
    samples = cfg["weights"]["samples"]
    series = WeightSeriesConfig(**cfg["series"])
    bid = boundary_identity()
    nu_vec = reference_state(seq, n_factors)
    nu_h = seq.reference(1)
    raw = HFunctional(((1.0, (nu_vec, nu_h), (nu_vec, nu_h)),))
    scale = raw(identity_element()).real
    nu = HFunctional(((1.0 / scale, (nu_vec, nu_h), (nu_vec, nu_h)),))
    xi = xi_from_nu(nu, series, n_factors=n_factors)
    xi_at_identity = xi.value(bid)
    worst1 = worst2 = 0.0
    for done in range(0, samples, _SAMPLE_BLOCK):
        rho = _sample_block(rng, seq, n_factors, m,
                            min(_SAMPLE_BLOCK, samples - done))
        value = omega1(rho, bid, series, n_factors=n_factors).value
        val1 = ComplexBlock(value.real, value.imag)
        total, delta = rho(None), rho.delta_value()
        # np.maximum, unlike max, keeps a NaN residual, which then fails
        worst1 = np.maximum(worst1, abs(val1 - (total - delta)).max())
        # the full weight omega(rho) = omega1(rho) + rho(Delta) xi(I)
        worst2 = np.maximum(
            worst2, abs(val1 + delta * xi_at_identity - total).max())
    rep.bound("minimal-weight-identity-residual", worst1, 1e-8, "le",
              "paper")
    rep.bound("unital-weight-residual", worst2, 1e-8, "le", "paper")


COMMANDS = {
    "delta": run_delta,
    "decay": run_decay,
    "covariance": run_covariance,
    "gauge-check": run_gauge_check,
    "transitivity": run_transitivity,
    "corner": run_corner,
    "weights-unitality": run_weights_unitality,
}


def main(argv: list[str] | None = None) -> int:
    """Run one experiment, write its report and return the exit status:
    0 if every check passes, 1 if one fails, 2 on a usage or config error."""
    parser = argparse.ArgumentParser(
        prog="cpflow", description="Run one experiment and write its report.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config",
                        help="YAML config overriding the defaults.")
    parser.add_argument("--out", default="out",
                        help="Directory for the report and CSV curves.")
    parser.add_argument("--seed", type=int,
                        help="Override the RNG seed from the config.")
    try:
        args = parser.parse_args(argv)
        if args.seed is not None and args.seed < 0:
            parser.error("argument --seed: %d is not >= 0" % args.seed)
    except SystemExit as exc:  # a usage error (2), or --help (0)
        return exc.code
    # the nearest existing ancestor: a run must not end unable to write
    out = next(p for p in (Path(args.out), *Path(args.out).parents)
               if p.exists() or p.is_symlink())
    if not out.is_dir():
        print("Error: --out %s: %s is not a directory" % (args.out, out),
              file=sys.stderr)
        return 2
    try:
        rep = _run(args.command, args.config, args.out, args.seed)
    except ConfigError as exc:
        print("Error: %s" % exc, file=sys.stderr)
        return 2
    failed = [r["name"] for r in rep.records if not r["pass"]]
    print("report: %s" % rep.write())
    for record in rep.records:
        print("  [%s] %s" % ("PASS" if record["pass"] else "FAIL",
                             record["name"]))
    if failed:
        print("Error: failed checks: %s" % ", ".join(failed), file=sys.stderr)
    return 1 if failed else 0


def _run(command, config_path, out_dir, seed) -> Reporter:
    """The records of one command run as main runs it, unwritten."""
    cfg = load_config(config_path)
    if seed is not None:
        cfg["seeds"]["rng"] = int(seed)
    rng = np.random.default_rng(cfg["seeds"]["rng"])
    rep = Reporter(command, cfg, Path(out_dir))
    try:
        COMMANDS[command](cfg, rep, rng)
    except TruncationExceededError as exc:
        # how many values a command reads is known only once it runs
        if cfg["lambda"]["kind"] != "custom":
            raise
        raise ConfigError("invalid config: lambda.values is too short for "
                          "%s: %s" % (command, exc)) from exc
    except InvalidExperimentError as exc:
        # the outflow gate: whether the bumps leave the grid within t is
        # known only once they are evolved (so is a t / h that overflows,
        # and a grid whose cells miss the bumps)
        if command != "covariance":
            raise
        if isinstance(exc, StepCountError):
            setting = "covariance.t"
        elif isinstance(exc, CoarseGridError):
            setting = "grid.points is too few for grid.length"
        else:
            setting = "grid.length is too short for covariance.t"
        raise ConfigError("invalid config: %s: %s" % (setting, exc)) from exc
    return rep


if __name__ == "__main__":
    sys.exit(main())
