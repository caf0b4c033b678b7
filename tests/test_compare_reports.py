"""tools/compare_reports.py: what counts as a difference between two runs."""

import importlib.util
import json
from pathlib import Path

import pytest

from cpflow import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)

REPORT = {"experiment": "delta", "all_pass": True,
          "records": [{"name": "limit-reference", "value": 0.27202905498213314,
                       "pass": True}],
          "timing": {"total_s": 0.01}}
CSV = "index,value,bound\n0,1,0.2720290549821332\n"


def write_run(directory: Path, report: dict, csv: str = CSV) -> Path:
    directory.mkdir()
    (directory / "delta-report.json").write_text(json.dumps(report))
    (directory / "delta-pairing.csv").write_text(csv)
    return directory


@pytest.fixture
def parent(tmp_path):
    return write_run(tmp_path / "parent", REPORT)


def test_timing_only_difference_passes(parent, tmp_path):
    change = write_run(tmp_path / "change",
                       dict(REPORT, timing={"total_s": 9.5}))
    assert compare_reports.compare_dirs(parent, change) == []


def test_changed_record_is_reported(parent, tmp_path):
    record = dict(REPORT["records"][0], value=0.2720290549821332)
    added = {"name": "new-record", "value": True, "pass": True}
    change = write_run(tmp_path / "change",
                       dict(REPORT, records=[record, added]))
    assert compare_reports.compare_dirs(parent, change) \
        == ["delta-report.json: limit-reference 0.27202905498213314 -> "
            "0.2720290549821332",
            "delta-report.json: new-record absent -> true"]


def test_change_outside_records_is_reported(parent, tmp_path):
    change = write_run(tmp_path / "change", dict(REPORT, all_pass=False))
    assert compare_reports.compare_dirs(parent, change) \
        == ["delta-report.json: differs outside timing and records"]


def test_csv_compared_byte_for_byte(parent, tmp_path):
    change = write_run(tmp_path / "change", REPORT,
                       CSV.replace("0.2720290549821332", "0.27202905498213320"))
    (change / "extra.csv").write_text(CSV)
    assert compare_reports.compare_dirs(parent, change) \
        == ["delta-pairing.csv: bytes differ",
            "extra.csv: written by one side only"]


def test_runs_every_command_of_the_cli(monkeypatch, tmp_path, capsys):
    runs = []

    def run(checkout, command, seed, out):
        runs.append((checkout.name, seed, command))
        out.mkdir(parents=True)
        return 0, "", ""

    monkeypatch.setattr(compare_reports, "run", run)
    assert compare_reports.main([str(tmp_path / "parent"),
                                 str(tmp_path / "change")]) == 0
    assert runs == [(side, seed, command)
                    for seed in compare_reports.SEEDS
                    for command in cli.COMMANDS
                    for side in ("parent", "change")]
    assert capsys.readouterr().out == "0 files compared, 0 differences\n"


def test_printed_streams_are_compared(monkeypatch, tmp_path, capsys):
    def run(checkout, command, seed, out):
        out.mkdir(parents=True)
        moved = checkout.name == "change" and (seed, command) == (7, "delta")
        return 0, "report: <out>/%s-report.json\n" % command, \
            "Error: moved\n" if moved else ""

    monkeypatch.setattr(compare_reports, "run", run)
    assert compare_reports.main([str(tmp_path / "parent"),
                                 str(tmp_path / "change")]) == 1
    assert capsys.readouterr().out == ("seed 7 delta: stderr differs\n"
                                       "0 files compared, 1 differences\n")


def test_output_directory_is_a_placeholder(tmp_path):
    # what a run prints names its output directory, which differs per run
    checkout = TOOL.parent.parent
    runs = [compare_reports.run(checkout, "transitivity", 7, tmp_path / side)
            for side in ("parent", "change")]
    assert runs[0] == runs[1]
    code, stdout, stderr = runs[0]
    assert code == 0 and stderr == ""
    assert stdout.startswith("report: <out>/transitivity-report.json\n")
