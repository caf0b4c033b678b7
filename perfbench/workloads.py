"""The three workloads, built from a seed, and one campaign over them.

A campaign runs every step of a workload once.  A step is a cpflow CLI
runner (``cli.COMMANDS``) with its config, or the benchmark's own
damped-translation-average refinement check on ``halfline.gamma_grid``.
Each Reporter record is one check; a step that raises counts as one failed
check and the campaign goes on with the next step.

Why these workloads (timings on a 2-core x86-64 box, OpenBLAS 0.3.31):

* corner -- the ``corner`` runner at its default config (3 factors of
  dimension 2, 3 half-line cells, cuts 0.5/0.25, witness -1).  Criterion 7
  is the slowest oracle in the lab, and 3 factors run the same kernels as
  its 4 (which needs about 40 s and 1 GB, too heavy to repeat).  Dense
  superoperators up to ~9 MB, larger than L2: ``apply_truncation`` einsums
  and ``eigvalsh`` on 768x768 Choi matrices dominate.
* transport -- the ``covariance`` runner over 6 refinements (grids of
  200..6400 points) plus ``gamma_grid`` of the identity on grids of
  150/300/600 cells: the grid backend, large-array numpy step loops, no
  LAPACK and no closed-form kernels.
* analytic -- ``delta``, ``decay``, ``transitivity``, ``gauge-check`` and
  ``weights-unitality`` (700 samples, so the weight series costs about as
  much as the gauge group): the closed-form backend, with about a million
  tiny ``inner_product`` calls and 200k ``random_param`` calls per campaign.
  This is where per-call overhead on 1..6-term inputs shows.

The corner and transport runners draw no random numbers, so their inputs
are the same for every seed; the seed still reaches ``cfg["seeds"]["rng"]``
and the runner's generator.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from cpflow import cli, halfline

# (command, config override) per workload
STEPS = {
    "corner": (("corner", {}),),
    "transport": (("covariance", {"covariance": {"refinements": 6}}),),
    "analytic": (("delta", {}), ("decay", {}), ("transitivity", {}),
                 ("gauge-check", {}),
                 ("weights-unitality", {"weights": {"samples": 700}})),
}

# damped translation average of the identity on Grid(GAMMA_LENGTH, n)
GAMMA_LENGTH = 15.0
GAMMA_POINTS = {"transport": (150, 300, 600)}
GAMMA_MIN_ORDER = 0.8  # refinement-order rule of criteria 4 and 8


@dataclass
class Tally:
    """Checks attempted and failed, with the names of the failures."""

    attempted: int = 0
    failed: int = 0
    records: int = 0
    failures: list = field(default_factory=list)

    def add(self, name: str, passed: bool):
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(name)


@dataclass(frozen=True)
class CommandStep:
    """One cpflow CLI runner with its merged config."""

    command: str
    cfg: dict

    @property
    def name(self):
        return self.command

    def __call__(self, out_dir: Path, tally: Tally):
        cfg = copy.deepcopy(self.cfg)
        rep = cli.Reporter(self.command, cfg, out_dir)
        try:
            cli.COMMANDS[self.command](
                cfg, rep, np.random.default_rng(cfg["seeds"]["rng"]))
            rep.write()
        finally:
            tally.records += len(rep.records)
            for record in rep.records:
                tally.add("%s/%s" % (self.command, record["name"]),
                          record["pass"])


@dataclass(frozen=True)
class GammaRefinementStep:
    """(u, Gamma(I) u) -> 1/6 for u = exp(-x) under grid halving.

    Gamma(I) = I - (multiplication by exp(-x)), so the exact value is
    1/2 - 1/3.  The check passes when every log2 ratio of successive
    errors is at least GAMMA_MIN_ORDER.
    """

    inputs: tuple  # (grid, identity matrix, samples of u) per grid size
    name: str = "gamma-grid-refinement"

    def __call__(self, out_dir: Path, tally: Tally):
        errors = []
        for grid, eye, u in self.inputs:
            image = halfline.gamma_grid(eye, grid)
            value = grid.spacing * complex(np.vdot(u, image @ u))
            errors.append(abs(value - 1.0 / 6.0))
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        tally.add(self.name, min(orders) >= GAMMA_MIN_ORDER)


def _config(override: dict, seed: int, out_dir: Path, command: str) -> dict:
    """Merge and validate an override exactly as ``cpflow --config`` does."""
    override = copy.deepcopy(override)
    override.setdefault("seeds", {})["rng"] = int(seed)
    path = out_dir / ("%s-config.yaml" % command)
    with open(path, "w") as fh:
        yaml.safe_dump(override, fh)
    return cli.load_config(str(path))


def prepare(workload: str, seed: int, out_dir: Path) -> list:
    """The steps of one campaign, with every input built from the seed."""
    if workload not in STEPS:
        raise ValueError("unknown workload %r" % workload)
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = [CommandStep(command, _config(override, seed, out_dir, command))
             for command, override in STEPS[workload]]
    if workload in GAMMA_POINTS:
        inputs = []
        for n in GAMMA_POINTS[workload]:
            grid = halfline.Grid(GAMMA_LENGTH, n)
            inputs.append((grid, np.eye(n), np.exp(-grid.midpoints)))
        steps.append(GammaRefinementStep(tuple(inputs)))
    return steps


def run_campaign(steps, out_dir: Path, tally: Tally):
    """Run every step once; a step that raises is one failed check."""
    for step in steps:
        try:
            step(out_dir, tally)
        except Exception as exc:  # a raising check is a failure, not a crash
            tally.add("%s: raised %s: %s" % (step.name, type(exc).__name__,
                                             exc), False)
