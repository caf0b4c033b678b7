"""Compare the benchmark's end-to-end metrics of two checkouts, pair by pair.

    python3 tools/ab.py PARENT CHANGE --workload W --pairs 10

Each pair runs the benchmark command of BENCHMARK.json
(``perfbench/run.py``) with ``--trace 0`` and the benchmark's own run
length once from each checkout, every run a fresh process started in its
checkout.  Half the pairs start with the parent and half with the change,
in an order drawn from a seed that is printed first (``--order-seed``
repeats an order).  Each side reads and writes its bytecode only under a
private ``PYTHONPYCACHEPREFIX`` that one unrecorded warm-up run fills
before the pairs, so a checkout's own ``__pycache__``, stale or not, and
a ``PYTHONDONTWRITEBYTECODE`` in the caller's environment, under which a
side with stale bytecode would recompile in every process, change no
number.  Every run's metrics are printed, then, for each
end-to-end metric of BENCHMARK.json, the two medians, the parent's
quartiles, the median over pairs of how much worse the change reads
within its pair, the pairs the change wins and the verdict of
``judge``.  The direction and bound of each metric come from the
BENCHMARK.json of this checkout, which the tool only reads.  Exits 1
when a run fails or a metric regresses.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Comparison(NamedTuple):
    """One metric over the pairs: medians, the parent's quartiles, the
    median over pairs of how much worse the change reads than the parent
    of its pair (negative when it reads better), the pairs the change
    reads better in, and the verdict."""

    parent_median: float
    change_median: float
    parent_quartiles: tuple[float, float]
    pair_median: float
    wins: int
    pairs: int
    verdict: str


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> Comparison:
    """The verdict on one metric from its paired runs.

    parent[i] and change[i] are the runs of pair i.  The change wins a
    pair when it reads better there (lower or higher, as better says);
    ties count for neither side.  The verdict is

    - "gain" when the change wins at least nine tenths of the pairs and
      its median is better than the parent's by more than the parent's
      interquartile range;
    - else "regression" when its median is worse than the parent's by
      more than bound, relative to the parent's median, and so is the
      median over pairs of the change's run less the parent's (a drift
      of the host that both runs of a pair share cancels in it);
    - else "unresolved" when only the medians are that much worse;
    - else "unresolved" when the parent's interquartile range, relative
      to its median, is wider than bound, unless every run of the change
      reads better than every run of the parent;
    - else "no regression".
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("judge needs two or more pairs of runs")
    sign = {"lower": 1.0, "higher": -1.0}[better]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    # a tie reads +0.0: sign * (c - p) would be -0.0 when higher is better
    pair_med = statistics.median(sign * c - sign * p
                                 for p, c in zip(parent, change))
    scale = abs(p_med) or 1.0  # a zero median compares absolutely
    if wins * 10 >= 9 * len(parent) and sign * (p_med - c_med) > q3 - q1:
        verdict = "gain"
    elif sign * (c_med - p_med) > bound * scale:
        verdict = ("regression" if pair_med > bound * scale
                   else "unresolved")
    elif q3 - q1 > bound * scale and not all(
            sign * (p - c) > 0 for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "no regression"
    return Comparison(p_med, c_med, (q1, q3), pair_med, wins, len(parent),
                      verdict)


def end_to_end_metrics(spec: dict) -> dict[str, dict]:
    """name -> {"better": ..., "bound": ...} for each end-to-end metric of
    a benchmark specification (BENCHMARK.json)."""
    return {m["name"]: {"better": m["better"], "bound": m["bound"]}
            for m in spec["end_to_end"]}


def pair_order(pairs: int, seed: int) -> list[bool]:
    """For each pair, whether the parent runs first: half the pairs each
    way (the parent first in the odd one out), shuffled by seed."""
    firsts = [i % 2 == 0 for i in range(pairs)]
    random.Random(seed).shuffle(firsts)
    return firsts


def result_line(stdout: str) -> dict:
    """The JSON object on the last line of a benchmark run's output."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_env(pycache: Path) -> dict[str, str]:
    """This process's environment, with bytecode read from and written to
    pycache only, and written even where PYTHONDONTWRITEBYTECODE is set
    here."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_once(spec: dict, checkout: Path, workload: str,
             pycache: Path) -> dict:
    """One benchmark run from the checkout, its bytecode under pycache;
    its metric values by name."""
    # the command's interpreter is this one
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--trace", "0", "--seconds", str(spec["run_seconds"])]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env=run_env(pycache))
    if proc.returncode != 0:
        sys.exit("ab: run in %s exited %d:\n%s"
                 % (checkout, proc.returncode, proc.stderr))
    result = result_line(proc.stdout)
    if not result["correct"]:
        print("  run in %s: %d of %d checks failed"
              % (checkout, result["failed"], result["attempted"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--order-seed", type=int)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    seed = (args.order_seed if args.order_seed is not None
            else random.SystemRandom().randrange(2 ** 32))
    print("order seed %d" % seed, flush=True)
    metrics = end_to_end_metrics(spec)
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-pycache-") as cache:
        sides = {side: (getattr(args, side).resolve(), Path(cache) / side)
                 for side in runs}
        for checkout, pycache in sides.values():
            run_once(spec, checkout, args.workload, pycache)  # warm-up
        for i, parent_first in enumerate(pair_order(args.pairs, seed)):
            order = ("parent", "change") if parent_first else ("change",
                                                               "parent")
            for side in order:
                checkout, pycache = sides[side]
                values = run_once(spec, checkout, args.workload, pycache)
                runs[side].append(values)
                print("pair %d %s: %s" % (i + 1, side, " ".join(
                    "%s=%.6g" % (name, values[name]) for name in metrics)),
                    flush=True)
    print("%-20s %13s %13s %27s %13s %5s  %s" % (
        "metric", "parent median", "change median", "parent quartiles",
        "pair median", "wins", "verdict"))
    regressed = False
    for name, m in metrics.items():
        c = judge([r[name] for r in runs["parent"]],
                  [r[name] for r in runs["change"]], m["better"], m["bound"])
        regressed |= c.verdict == "regression"
        print("%-20s %13.6g %13.6g %13.6g..%-12.6g %13.6g %2d/%-2d  %s" % (
            name, c.parent_median, c.change_median, *c.parent_quartiles,
            c.pair_median, c.wins, c.pairs, c.verdict))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
