"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

* failure counting: a campaign with one injected failing check and one
  injected raising check counts both as failed, and the raise is charged
  to the layer it left;
* layer coverage on a non-default seed: every workload passes every
  check on seed 7, every per-layer ``*.calls`` count is nonzero exactly on
  the workloads listed in ``metrics.PER_LAYER`` and zero elsewhere, every
  count repeats exactly between traced campaigns, and uninstalling the
  tracer restores every rebound name;
* ``BENCHMARK.json`` lists exactly the metrics and workloads defined here.

Takes about two minutes; exits nonzero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import run

SEED = 7  # not the default 2024


class _FailingStep:
    name = "injected-failing-check"

    def __call__(self, out_dir, tally):
        from cpflow import cli
        rep = cli.Reporter(self.name, {}, out_dir)
        rep.close("one-is-zero", 1.0, 0.0, 1e-12, "selftest")
        tally.records += len(rep.records)
        for record in rep.records:
            tally.add(record["name"], record["pass"])


class _RaisingStep:
    name = "injected-raising-check"

    def __call__(self, out_dir, tally):
        import numpy as np
        from cpflow import halfline
        # a 3x3 matrix on a 4-cell grid: gamma_grid raises
        halfline.gamma_grid(np.eye(3), halfline.Grid(1.0, 4))
        tally.add(self.name, True)


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def test_failure_counting(out_dir: Path):
    steps = run.setup("analytic", SEED, out_dir)[:1]  # the delta runner
    from tracer import Tracer
    from workloads import Tally, run_campaign
    clean = Tally()
    run_campaign(steps, out_dir, clean)
    check(clean.failed == 0 and clean.attempted > 0, "delta must pass")
    tally = Tally()
    tracer = Tracer()
    with tracer:
        tracer.begin_campaign()
        run_campaign(steps + [_FailingStep(), _RaisingStep()], out_dir,
                     tally)
    check(tally.attempted == clean.attempted + 2,
          "attempted %d, expected %d" % (tally.attempted,
                                         clean.attempted + 2))
    check(tally.failed == 2, "failed %d, expected 2: %s"
          % (tally.failed, tally.failures))
    check(tally.failures[0] == "one-is-zero", tally.failures)
    check(tally.failures[1].startswith(
        "injected-raising-check: raised UnsupportedRepresentationError"),
        tally.failures)
    errors = tracer.campaign_summary(0)["errors"]
    check(dict(errors) == {"halfline": 1}, "layer errors %r" % dict(errors))


def _bindings():
    from cpflow import cli, cornercheck, opbasis, weights
    return [cli.COMMANDS["corner"], cli.run_corner, cli.choi_min_eig,
            cornercheck.choi_min_eig, opbasis.choi_min_eig,
            opbasis.MatrixModel.boundary_rep, weights.Functional.shifted,
            weights.pairing, cli.Reporter.write]


def test_layer_coverage(out_dir: Path):
    import metrics
    before = _bindings()
    counts = [m for m in metrics.PER_LAYER if m.unit in ("count", "B")]
    for workload in metrics.WORKLOADS:
        start = time.perf_counter()
        _, _, tally, tracer, per_campaign = run.measure_layers(
            workload, SEED, 0.0, out_dir / workload, min_pairs=2)
        check(tally.failed == 0, "%s on seed %d: %s"
              % (workload, SEED, tally.failures))
        first, second = per_campaign
        for metric in counts:
            check(first[metric.name] == second[metric.name],
                  "%s: %s differs between campaigns (%r, %r)"
                  % (workload, metric.name, first[metric.name],
                     second[metric.name]))
        for metric in metrics.PER_LAYER:
            if not metric.name.endswith(".calls"):
                continue
            used = first[metric.name] > 0
            check(used == (workload in metric.uses),
                  "%s: %s = %d, predicted %s" % (
                      workload, metric.name, first[metric.name],
                      "nonzero" if workload in metric.uses else "zero"))
        for span in tracer.spans:
            check(-1e-6 <= span["self_s"] <= span["end"] - span["start"]
                  + 1e-9, "self time outside [0, duration]: %r" % span)
        print("  %s: %d checks, coverage ok (%.1f s)"
              % (workload, tally.attempted, time.perf_counter() - start))
    after = _bindings()
    check(all(a is b for a, b in zip(before, after)),
          "uninstall did not restore every binding")
    check(not any(hasattr(f, "__wrapped__") for f in after),
          "a wrapper survived uninstall")


def test_benchmark_json(out_dir: Path):
    import metrics
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS),
          "workloads differ")
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        defined = [(m.name, m.unit, m.better) for m in table]
        check(listed == defined, "%s in BENCHMARK.json differs: %r"
              % (key, set(listed) ^ set(defined)))


def main() -> int:
    out_dir = run.OUT / "selftest"
    try:
        for test in (test_benchmark_json, test_failure_counting,
                     test_layer_coverage):
            print(test.__name__, flush=True)
            test(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
