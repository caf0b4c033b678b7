"""Benchmark of the cpflow checking laboratory.

    python3 perfbench/run.py --workload corner --seed 2024 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A run builds its inputs from ``--seed``, runs one untimed warm-up
campaign, then times whole campaigns for about ``--seconds`` seconds (at
least five).  Every Reporter record and the benchmark's own Gamma-grid
check must pass.  The last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (median over several
  fresh processes), ``campaign_s`` (median campaign wall time),
  ``peak_rss_mb`` and ``checks_passed_frac``;
* ``--trace 1``: the per-layer metrics of ``metrics.PER_LAYER``, from
  campaigns run under the tracer alternating with untraced ones (their
  difference is ``trace.overhead_s``).  The trace is written to
  ``.perfbench_out/trace-<workload>-seed<seed>.json``.

``--workload all`` runs every workload, each in its own process, and prints
their results one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
MIN_CAMPAIGNS = 5
PROBE_TIMEOUT_S = 60


def import_cpflow():
    """Put this checkout's ``src`` first on the path and import cpflow."""
    package = SRC / "cpflow"
    if not (package / "__init__.py").is_file():
        sys.exit("perfbench: no cpflow sources at %s" % package)
    sys.path.insert(0, str(SRC))
    import cpflow
    if Path(cpflow.__file__).resolve().parent != package.resolve():
        sys.exit("perfbench: imported cpflow from %s, not from %s"
                 % (cpflow.__file__, package))


def setup(workload: str, seed: int, out_dir: Path):
    """Everything before the first campaign: imports, config, inputs."""
    import_cpflow()
    import workloads
    return workloads.prepare(workload, seed, out_dir)


def time_setup(workload: str, seed: int, out_dir: Path) -> float:
    """Wall time from starting a fresh process until its setup is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--out", str(out_dir)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if code != 0 or line.strip() != "ready":
        sys.exit("perfbench: set-up probe failed with exit code %d" % code)
    return elapsed


def timed_campaign(steps, out_dir: Path, tally) -> tuple[float, float]:
    """(wall seconds, process CPU seconds) of one campaign."""
    from workloads import run_campaign
    cpu = time.process_time()
    start = time.perf_counter()
    run_campaign(steps, out_dir, tally)
    return time.perf_counter() - start, time.process_time() - cpu


def measure_end_to_end(workload, seed, seconds, run_dir):
    setups = [time_setup(workload, seed, run_dir / ("probe-%d" % i))
              for i in range(SETUP_REPEATS)]
    steps = setup(workload, seed, run_dir)
    from workloads import Tally
    tally = Tally()
    cold, _ = timed_campaign(steps, run_dir, tally)
    walls = []
    start = time.perf_counter()
    while (len(walls) < MIN_CAMPAIGNS or time.perf_counter() - start
           + statistics.median(walls) <= seconds):
        walls.append(timed_campaign(steps, run_dir, tally)[0])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "campaign_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "checks_passed_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    notes = {
        "setup_s": "median of %d set-ups" % len(setups),
        "campaign_s": "median of %d campaigns, warm-up %.4g s"
                      % (len(walls), cold),
        "checks_passed_frac": "%d of %d checks failed (checks_failed_frac "
                              "%.4g)" % (tally.failed, tally.attempted,
                                         tally.failed / tally.attempted),
    }
    return metrics, notes, tally


def measure_layers(workload, seed, seconds, run_dir, min_pairs=1):
    """Alternate untraced and traced campaigns; per-layer medians."""
    steps = setup(workload, seed, run_dir)
    import metrics as layer_metrics
    from tracer import Tracer
    from workloads import Tally
    tally = Tally()
    cold, _ = timed_campaign(steps, run_dir, tally)
    tracer = Tracer()
    plain, traced, cpus, per_campaign = [], [], [], []
    start = time.perf_counter()
    while (len(traced) < min_pairs or time.perf_counter() - start
           + plain[-1] + traced[-1] <= seconds):
        wall, cpu = timed_campaign(steps, run_dir, tally)
        plain.append(wall)
        cpus.append(cpu)
        records_before = tally.records
        with tracer:
            tracer.begin_campaign()
            traced.append(timed_campaign(steps, run_dir, tally)[0])
        per_campaign.append(layer_metrics.layer_values(
            tracer.campaign_summary(tracer.campaign),
            tally.records - records_before))
    values = layer_metrics.median_values(per_campaign)
    values["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(plain))
    values["process.cpu_s"] = statistics.median(cpus)
    values["cold_extra_s"] = cold - statistics.median(plain)
    units = {m.name: m.unit for m in layer_metrics.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name in units}
    notes = {"trace.overhead_s": "%d traced vs %d untraced campaigns"
                                 % (len(traced), len(plain))}
    return metrics, notes, tally, tracer, per_campaign


def run_one(args):
    run_dir = OUT / ("%s-%d" % (args.workload, os.getpid()))
    try:
        if args.trace:
            metrics, notes, tally, tracer, _ = measure_layers(
                args.workload, args.seed, args.seconds, run_dir)
        else:
            metrics, notes, tally = measure_end_to_end(
                args.workload, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    import envinfo
    env = envinfo.environment(ROOT)
    if args.trace:
        tracer.write(OUT / ("trace-%s-seed%d.json" % (args.workload,
                                                      args.seed)), env)
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed,
                                              args.trace))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("  %-44s %14.6g %-6s%s" % (name, value, unit,
                                         "  (%s)" % note if note else ""))
    for failure in tally.failures:
        print("  FAILED: %s" % failure)
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        if args.workload == "all" or not args.out:
            parser.error("a set-up probe needs one workload and --out")
        setup(args.workload, args.seed, Path(args.out))
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
