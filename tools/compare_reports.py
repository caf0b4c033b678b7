"""Compare what two checkouts of cpflow write, command by command.

    python3 tools/compare_reports.py PARENT CHANGE

Runs each command of this checkout's ``cli.COMMANDS`` at its default
config and seeds 2024, 7 and 11 in PARENT and CHANGE (each imports the
package from its ``src``), each run in its own temporary directory.  A
report must be equal once its ``timing`` block is dropped; any other file
(CSV curves, ``gauge-check-formula-discrepancy.json``) must match byte for
byte, and so must each run's exit code, stdout and stderr (with the run's
output directory written as ``<out>``).  Prints one line per difference,
naming the file or stream, and exits 1 if there is any: per report, one
line per differing record (its name and both values) and one if anything
else does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from cpflow.cli import COMMANDS  # noqa: E402

SEEDS = (2024, 7, 11)


def run(checkout: Path, command: str, seed: int,
        out: Path) -> tuple[int, str, str]:
    """Run one command of the checkout; return its exit code, stdout and
    stderr, each stream with the output directory written as <out>."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "cpflow.cli", command, "--seed", str(seed),
         "--out", str(out)],
        cwd=checkout, env=env, capture_output=True, text=True)
    return (done.returncode, done.stdout.replace(str(out), "<out>"),
            done.stderr.replace(str(out), "<out>"))


def _report(path: Path) -> dict:
    report = json.loads(path.read_text())
    report.pop("timing", None)
    return report


def _value(record: dict | None) -> str:
    return "absent" if record is None else json.dumps(record["value"])


def compare_reports(name: str, old: dict, new: dict) -> list[str]:
    """One line per record that differs between two reports (timing
    dropped), and one for the file if anything else differs."""
    records = [{r["name"]: r for r in report.pop("records", [])}
               for report in (old, new)]
    lines = ["%s: %s %s -> %s" % (name, key, _value(records[0].get(key)),
                                  _value(records[1].get(key)))
             for key in {**records[0], **records[1]}
             if records[0].get(key) != records[1].get(key)]
    if old != new:
        lines.append("%s: differs outside timing and records" % name)
    return lines


def compare_dirs(old: Path, new: Path) -> list[str]:
    """The files of two output directories that differ, one line each,
    or one line per differing record of a report."""
    differences = []
    names = {p.name for p in old.iterdir()} | {p.name for p in new.iterdir()}
    for name in sorted(names):
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            differences.append("%s: written by one side only" % name)
        elif name.endswith("-report.json"):
            differences += compare_reports(name, _report(a), _report(b))
        elif a.read_bytes() != b.read_bytes():
            differences.append("%s: bytes differ" % name)
    return differences


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_reports.py PARENT CHANGE",
              file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv)
    differences = []
    files = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for command in COMMANDS:
                outs = [Path(tmp, side, "%s-%d" % (command, seed))
                        for side in ("parent", "change")]
                was, now = [run(checkout, command, seed, out)
                            for checkout, out in zip((parent, change), outs)]
                label = "seed %d %s" % (seed, command)
                if was[0] != now[0]:
                    differences.append("%s: exit code %d, was %d"
                                       % (label, now[0], was[0]))
                differences += ["%s: %s differs" % (label, stream)
                                for stream, old, new in zip(
                                    ("stdout", "stderr"), was[1:], now[1:])
                                if old != new]
                if not all(out.is_dir() for out in outs):
                    differences.append("%s: no output directory" % label)
                    continue
                files += len(list(outs[1].iterdir()))
                differences += ["%s: %s" % (label, line)
                                for line in compare_dirs(*outs)]
    for line in differences:
        print(line)
    print("%d files compared, %d differences" % (files, len(differences)))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
