"""Command-line runner: reports, curves, determinism, config validation."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from cpflow import cli, cornercheck, opbasis, semigroups
from cpflow.cli import (
    COMMANDS,
    DEFAULT_CONFIG,
    MINIMUMS,
    Reporter,
    load_config,
    main,
    run_covariance,
    run_delta,
    run_weights_unitality,
)
from cpflow.opbasis import MatrixModel
from cpflow.semigroups import InvalidExperimentError
from cpflow.tensorspace import TruncationExceededError

FAST_CONFIG = {
    "gauge": {"triples": 50, "r_samples": 500, "z_samples": 10, "pairs": 20},
    "corner": {"factors": 2, "cut_levels": [0.5, 0.25],
               "witness_label": "-1"},
    "weights": {"samples": 3, "factor_dim": 2},
    "covariance": {"refinements": 2},
    "transitivity": {"pairs": 10},
}

# the fast config of acceptance criterion 9 (run there with --seed 11)
REPRODUCTION_CONFIG = {
    "gauge": {"triples": 100, "r_samples": 2000, "z_samples": 10,
              "pairs": 30},
    "corner": {"factors": 2, "cut_levels": [0.5, 0.25],
               "witness_label": "-1"},
    "weights": {"samples": 5, "factor_dim": 2},
    "covariance": {"refinements": 2},
}

ALL_COMMANDS = ["delta", "decay", "covariance", "gauge-check",
                "transitivity", "corner", "weights-unitality"]


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(FAST_CONFIG))
    return str(path)


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def load_report(out_dir, command):
    with open("%s/%s-report.json" % (out_dir, command)) as fh:
        return json.load(fh)


class TestCommands:
    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_command_passes(self, command, tmp_path, fast_config):
        out = tmp_path / "out"
        result = run_cli([command, "--config", fast_config,
                          "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = load_report(out, command)
        assert report["all_pass"]
        assert report["records"]
        for record in report["records"]:
            assert record["provenance"] in ("paper", "trivial",
                                            "derived-oracle")
            assert "tolerance" in record

    def test_curve_sidecar_format(self, tmp_path, fast_config):
        out = tmp_path / "out"
        run_cli(["delta", "--config", fast_config, "--out", str(out)])
        lines = (out / "delta-pairing.csv").read_text().strip().splitlines()
        assert lines[0] == "index,value,bound"
        first = lines[1].split(",")
        assert int(first[0]) == 0
        float(first[1]), float(first[2])

    def test_invalid_config_aggregated(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({
            "grid": {"length": -1, "points": 0},
            "lambda": {"kind": "weird"},
        }))
        result = CliRunner().invoke(
            main, ["delta", "--config", str(path), "--out",
                   str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "grid.length" in result.output
        assert "lambda.kind" in result.output

    @pytest.mark.parametrize("override, message", [
        ({"corner": {"cut_levels": [0.3]}}, "corner.cut_levels"),
        ({"corner": {"cut_levels": ["abc"]}}, "corner.cut_levels"),
        ({"corner": {"witness_label": "abc"}}, "corner.witness_label"),
        ({"corner": {"witness_label": 2}}, "corner.witness_label"),
        ({"covariance": {"labels": [0.0, "1+"]}}, "covariance.labels"),
        ({"gird": {"points": 10}}, "'gird'"),
        ({"corner": {"cut_level": [0.5]}}, "corner.cut_level"),
        ({"grid": 5}, "'grid'"),
        ([1, 2], "top level"),
        ({"corner": {"factors": 0}}, "corner.factors must be >= 1"),
        ({"covariance": {"refinements": 0}},
         "covariance.refinements must be >= 2"),
        ({"covariance": {"refinements": 1}},
         "covariance.refinements must be >= 2"),
        ({"gauge": {"r_samples": 0}}, "gauge.r_samples must be >= 1"),
        ({"gauge": {"triples": 0}}, "gauge.triples must be >= 1"),
        ({"gauge": {"z_samples": 0}}, "gauge.z_samples must be >= 1"),
        ({"gauge": {"pairs": 0}}, "gauge.pairs must be >= 1"),
        ({"transitivity": {"pairs": 0}}, "transitivity.pairs must be >= 1"),
        ({"weights": {"samples": 0}}, "weights.samples must be >= 1"),
        ({"weights": {"factor_dim": 0}}, "weights.factor_dim must be >= 1"),
        ({"tensor": {"factors": 0}}, "tensor.factors must be >= 1"),
        ({"seeds": {"rng": -1}}, "seeds.rng must be >= 0"),
        ({"decay": {"n_max": 2}},
         "decay.n_max must be >= decay.head_level"),
        ({"lambda": {"kind": "custom", "values": ["a"]}}, "lambda.values"),
        ({"lambda": {"kind": "custom", "values": [1.0, -2.0]}},
         "lambda.values"),
        ({"lambda": {"values": 3}}, "lambda.values"),
        ({"decay": {"head_level": -1}}, "decay.head_level must be >= 1"),
        ({"decay": {"head_level": 0}}, "decay.head_level must be >= 1"),
        ({"corner": {"cut_levels": [2.0]}}, "corner.cut_levels"),
        ({"corner": {"cut_levels": []}}, "corner.cut_levels"),
        ({"covariance": {"labels": []}}, "covariance.labels"),
        ({"covariance": {"t": -1.0}}, "covariance.t must be > 0"),
        ({"covariance": {"t": 0.0}}, "covariance.t must be > 0"),
        ({"delta": {"levels": 0}}, "delta.levels must be >= 1"),
        ({"delta": {"levels": -2}}, "delta.levels must be >= 1"),
        ({"grid": {"length": math.inf}}, "grid.length must be finite"),
        ({"grid": {"length": -math.inf}}, "grid.length must be finite"),
        ({"grid": {"length": math.nan}}, "grid.length must be finite"),
        ({"covariance": {"t": math.nan}}, "covariance.t must be finite"),
        ({"covariance": {"t": math.inf}}, "covariance.t must be finite"),
        ({"series": {"tail_tolerance": math.nan}},
         "series.tail_tolerance must be finite"),
        ({"series": {"tail_tolerance": 0.0}},
         "series.tail_tolerance must be > 0"),
        ({"series": {"tail_tolerance": -1.0}},
         "series.tail_tolerance must be > 0"),
        ({"lambda": {"kind": "custom", "values": [math.inf, 2.0]}},
         "lambda.values must be a list of finite positive numbers"),
        ({"lambda": {"kind": "custom", "values": [1.0, math.nan]}},
         "lambda.values must be a list of finite positive numbers"),
        ({"covariance": {"labels": [0.0, "nan"]}}, "covariance.labels"),
        ({"covariance": {"labels": ["1+infj"]}}, "covariance.labels"),
        # |z|^2 overflows a float: the step damping cannot be formed
        ({"covariance": {"labels": ["1e155", "1"]}}, "covariance.labels"),
        # |z|^2 is finite, but c(z, z) overflows in 2 conj(z) z
        ({"covariance": {"labels": ["1e154", "1"]}}, "covariance.labels"),
        ({"covariance": {"labels": ["1", "-1e154j"]}}, "covariance.labels"),
        # lambda^2 / 2 underflows to a zero rate
        ({"lambda": {"kind": "custom", "values": [1.0e-12, 1.0e-300]}},
         "lambda.values"),
        # lambda^2 overflows a float
        ({"lambda": {"kind": "custom",
                     "values": [1, 2, 3, 4, 5, 6, 7, 8, 1.0e+300]}},
         "lambda.values"),
        ({"corner": {"witness_label": "nan"}}, "corner.witness_label"),
        ({"grid": {"points": 0}}, "grid.points must be > 0"),
        # values only a custom sequence reads
        ({"lambda": {"kind": "linear", "values": [0.5, 0.7]}},
         "lambda.values is read only with lambda.kind=custom"),
        ({"lambda": {"kind": "geometric", "values": [1.0]}},
         "lambda.values is read only with lambda.kind=custom"),
        ({"lambda": {"values": [2.0]}},
         "lambda.values is read only with lambda.kind=custom"),
        # levels that name one edge: the check would run, and be reported
        # under one record name, twice
        ({"corner": {"cut_levels": [0.5, 0.5000000000001, 0.25]}},
         "corner.cut_levels must be a non-empty list of distinct"),
        ({"corner": {"cut_levels": [0.25, 0.0, 0.25]}},
         "corner.cut_levels must be a non-empty list of distinct"),
        # lambda_n = 2^n fails the second condition on the scales; its
        # first values are a custom list
        ({"lambda": {"kind": "geometric"}},
         "lambda.kind must be linear or custom"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, override, message):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(override))
        result = CliRunner().invoke(
            main, ["corner", "--config", str(path), "--out",
                   str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)

    @pytest.mark.parametrize("override, message", [
        ({"grid": {"length": "abc"}}, "grid.length must be a number"),
        ({"series": {"max_terms": "5"}}, "series.max_terms must be an integer"),
        ({"corner": {"factors": "x"}}, "corner.factors must be an integer"),
        ({"corner": {"factors": 2.0}}, "corner.factors must be an integer"),
        ({"grid": {"points": True}}, "grid.points must be an integer"),
    ])
    def test_mistyped_number_is_config_error(self, tmp_path, override,
                                             message):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(dict(override, gird={})))
        result = CliRunner().invoke(
            main, ["corner", "--config", str(path), "--out",
                   str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "'gird'" in result.output
        assert result.exception is None or isinstance(result.exception,
                                                      SystemExit)

    def test_corner_errors_aggregated(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({
            "gird": {"points": 10},
            "corner": {"cut_levels": [0.3], "witness_label": "abc"},
            "covariance": {"labels": ["x"]},
        }))
        result = CliRunner().invoke(
            main, ["corner", "--config", str(path), "--out",
                   str(tmp_path / "o")])
        assert result.exit_code == 2
        for name in ("'gird'", "corner.cut_levels", "corner.witness_label",
                     "covariance.labels"):
            assert name in result.output

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_least_accepted_values_run(self, command, tmp_path):
        path = tmp_path / "least.yaml"
        config = {name.split(".")[0]: {} for name in MINIMUMS}
        for name, least in MINIMUMS.items():
            section, key = name.split(".")
            config[section][key] = least
        config["decay"] = {"n_max": 3, "head_level": 3}
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "out"
        result = run_cli([command, "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert load_report(out, command)["all_pass"]

    def test_negative_seed_option_is_usage_error(self, tmp_path):
        result = CliRunner().invoke(
            main, ["delta", "--seed", "-1", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "--seed" in result.output

    def test_every_cell_edge_is_a_valid_cut(self, tmp_path):
        # every edge below the top one: a cut at the top edge keeps no cell
        path = tmp_path / "edges.yaml"
        config = dict(FAST_CONFIG)
        config["corner"] = dict(FAST_CONFIG["corner"],
                                cut_levels=[0.0, 0.25, 0.5])
        path.write_text(yaml.safe_dump(config))
        out = tmp_path / "out"
        result = run_cli(["corner", "--config", str(path), "--out",
                          str(out)])
        assert result.exit_code == 0, result.output
        assert load_report(out, "corner")["all_pass"]

    def test_loaded_configs_share_no_section(self):
        # main writes --seed into cfg["seeds"]; the defaults must not see it
        first = load_config(None)
        first["seeds"]["rng"] = 1
        assert load_config(None)["seeds"]["rng"] == DEFAULT_CONFIG["seeds"][
            "rng"] == 2024

    def test_unknown_command_rejected(self, tmp_path):
        result = CliRunner().invoke(main, ["frobnicate"])
        assert result.exit_code != 0

    def test_import_leaves_click_out(self, tmp_path):
        # main, the click command, is built on first access and kept; the
        # console script's own import form still exits 2 on a bad config
        src = os.path.dirname(os.path.dirname(opbasis.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        check = ("import sys, cpflow.cli as cli\n"
                 "assert 'click' not in sys.modules\n"
                 "assert not hasattr(cli, 'no_such_name')\n"
                 "import click\n"
                 "assert isinstance(cli.main, click.Command)\n"
                 "assert vars(cli)['main'] is cli.main\n")
        subprocess.run([sys.executable, "-c", check], env=env, check=True,
                       timeout=60)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"grid": {"length": -1}}))
        script = "import sys\nfrom cpflow.cli import main\nsys.exit(main())"
        run = subprocess.run(
            [sys.executable, "-c", script, "delta", "--config", str(path),
             "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == ("Error: invalid config: grid.length must be "
                              "> 0, got -1\n")


class RecordingConfig(dict):
    """A config that records the dotted name of every setting read."""

    def __init__(self, data, read, prefix=""):
        super().__init__(data)
        self.read = read
        self.prefix = prefix

    def __getitem__(self, key):
        name = self.prefix + key
        self.read.add(name)
        value = super().__getitem__(key)
        if isinstance(value, dict):
            return RecordingConfig(value, self.read, name + ".")
        return value


# the settings each runner reads at the default lambda.kind, as README
# "Command line" tables them; main reads seeds.rng for every command, and
# a runner that reads lambda.kind reads lambda.values under kind custom
COMMAND_KEYS = {
    "delta": {"delta.levels", "lambda.kind"},
    "decay": {"decay.head_level", "decay.n_max", "lambda.kind"},
    "covariance": {"covariance.labels", "covariance.refinements",
                   "covariance.t", "grid.length", "grid.points"},
    "gauge-check": {"gauge.pairs", "gauge.r_samples", "gauge.triples",
                    "gauge.z_samples"},
    "transitivity": {"transitivity.pairs"},
    "corner": {"corner.cut_levels", "corner.factors",
               "corner.witness_label", "lambda.kind", "tensor.factor_dim"},
    "weights-unitality": {"lambda.kind", "series.max_terms",
                          "series.tail_tolerance", "tensor.factors",
                          "weights.factor_dim", "weights.samples"},
}


class TestConfigKeysRead:
    def test_every_setting_is_read_by_a_runner(self, tmp_path, fast_config):
        reads = {}
        for command, runner in COMMANDS.items():
            read = reads[command] = set()
            cfg = RecordingConfig(load_config(fast_config), read)
            runner(cfg, Reporter(command, cfg, tmp_path / command),
                   np.random.default_rng(0))
        assert {command: {name for name in read if "." in name}
                for command, read in reads.items()} == COMMAND_KEYS
        read = set().union(*reads.values())
        custom = load_config(fast_config)
        custom["lambda"] = {"kind": "custom", "values": [1.0e9] + [
            float(i) for i in range(2, 21)] + [1.0e9]}
        cfg = RecordingConfig(custom, read)
        run_delta(cfg, Reporter("delta", cfg, tmp_path / "custom"),
                  np.random.default_rng(0))
        settings = {"%s.%s" % (section, key)
                    for section, block in DEFAULT_CONFIG.items()
                    for key in block}
        assert settings - read == {"seeds.rng"}

    def test_series_settings_reach_the_weight_series(self, tmp_path,
                                                     fast_config):
        # a loose tail tolerance cuts the series short: the identity misses
        cfg = load_config(fast_config)
        cfg["series"]["tail_tolerance"] = 0.5
        rep = Reporter("weights-unitality", cfg, tmp_path)
        run_weights_unitality(cfg, rep, np.random.default_rng(7))
        residual = {r["name"]: r for r in rep.records}[
            "minimal-weight-identity-residual"]
        assert not residual["pass"]
        assert residual["value"] > 1e-3


class TestWeightsRecords:
    @pytest.mark.parametrize("block, member", [(1024, 12), (10, 22)])
    def test_nan_member_fails_both_records(self, block, member, tmp_path,
                                           monkeypatch):
        # one member's weight series returns NaN, in the one block of 25
        # or in the last of three blocks: both residuals carry it and fail
        series, seen = cli.omega1, []

        def omega1(rho, *args, **kwargs):
            res = series(rho, *args, **kwargs)
            value = res.value.copy()
            start = sum(seen)
            seen.append(value.size)
            if start <= member < sum(seen):
                value[member - start] = complex("nan")
            return dataclasses.replace(res, value=value)

        monkeypatch.setattr(cli, "omega1", omega1)
        monkeypatch.setattr(cli, "_SAMPLE_BLOCK", block)
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"weights": {"samples": 25}}))
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["weights-unitality", "--config",
                                           str(path), "--out", str(out)])
        assert result.exit_code == 1
        assert sum(seen) == 25 and len(seen) == -(-25 // block)
        records = load_report(out, "weights-unitality")["records"]
        assert [r["name"] for r in records] == [
            "minimal-weight-identity-residual", "unital-weight-residual"]
        for record in records:
            assert math.isnan(record["value"]) and not record["pass"]


class TestGaugeRecords:
    def test_r_minimum_and_square_form_residual(self, tmp_path, fast_config):
        out = tmp_path / "out"
        result = run_cli(["gauge-check", "--config", fast_config,
                          "--out", str(out)])
        assert result.exit_code == 0, result.output
        records = {r["name"]: r for r in load_report(out,
                                                     "gauge-check")["records"]}
        assert records["r-minimum"]["expected"] == "ge -1e-12"
        residual = records["r-square-form-residual"]
        assert residual["expected"] == "le 1e-12"
        assert residual["provenance"] == "derived-oracle"
        assert 0.0 <= residual["value"] <= 1e-12


class TestDeterminism:
    @pytest.mark.parametrize("command", ["delta", "gauge-check",
                                         "weights-unitality"])
    def test_reports_identical_modulo_timing(self, command, tmp_path,
                                             fast_config):
        reports = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            result = run_cli([command, "--config", fast_config,
                              "--seed", "7", "--out", str(out)])
            assert result.exit_code == 0, result.output
            rep = load_report(out, command)
            rep.pop("timing")
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[0] == reports[1]

    def test_seed_changes_samples_not_verdict(self, tmp_path, fast_config):
        verdicts = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            result = run_cli(["gauge-check", "--config", fast_config,
                              "--seed", seed, "--out", str(out)])
            verdicts.append(result.exit_code)
        assert verdicts == [0, 0]

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_report_reproduces_from_its_own_config(self, command, tmp_path):
        # the config block of a report is the whole run: fed back through
        # --config alone, it gives the same report and the same sidecars
        first, second = tmp_path / "first", tmp_path / "second"
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(REPRODUCTION_CONFIG))
        result = run_cli([command, "--config", str(path), "--seed", "11",
                          "--out", str(first)])
        assert result.exit_code == 0, result.output
        report = load_report(first, command)
        path = tmp_path / "recorded.yaml"
        path.write_text(yaml.safe_dump(report["config"]))
        result = run_cli([command, "--config", str(path),
                          "--out", str(second)])
        assert result.exit_code == 0, result.output
        again = load_report(second, command)
        report.pop("timing")
        again.pop("timing")
        assert again == report
        sidecars = sorted(p.name for p in first.iterdir()
                          if p.name != "%s-report.json" % command)
        assert sidecars == sorted(p.name for p in second.iterdir()
                                  if p.name != "%s-report.json" % command)
        for name in sidecars:
            assert (second / name).read_bytes() == (first / name).read_bytes()


# record values at the default config, as computed when each shifted
# functional was built and paired; the slot-table series must keep them,
# and delta, pairing's direct consumer, holds pairing's products
GOLDEN_RECORDS = {
    ("weights-unitality", 2024): {
        "minimal-weight-identity-residual": "2.842170943040401e-14",
        "unital-weight-residual": "2.842170943040401e-14"},
    ("weights-unitality", 7): {
        "minimal-weight-identity-residual": "1.4210854715202004e-14",
        "unital-weight-residual": "2.1316282072803006e-14"},
    ("weights-unitality", 11): {
        "minimal-weight-identity-residual": "7.105427357601002e-15",
        "unital-weight-residual": "7.105427357601002e-15"},
}
for _seed in (2024, 7, 11):
    GOLDEN_RECORDS[("decay", _seed)] = {"delta-value": "0.0",
                                        "max-norm-from-level-3": "0.0"}
    GOLDEN_RECORDS[("delta", _seed)] = {
        "pairing-at-level-8": "0.30586775289037743",
        "limit-reference": "0.27202905498213314",
        "curve-monotone-nonincreasing": "True"}
# the value column of each command's curve sidecar, as the records above
GOLDEN_CURVES = {
    "decay": ("decay-decay.csv",
              ["0.95584308492520298", "0.10790507654127174",
               "0.060773472717787533"] + ["0"] * 6),
    "delta": ("delta-pairing.csv",
              ["1", "0.5", "0.40000000000000002", "0.36000000000000004",
               "0.33882352941176475", "0.32579185520361997",
               "0.31698666992784647", "0.31064693652928954",
               "0.30586775289037743"]),
}


class TestGoldenRecords:
    @pytest.mark.parametrize("command, seed", sorted(GOLDEN_RECORDS))
    def test_record_values_pinned(self, command, seed, tmp_path):
        out = tmp_path / "out"
        result = run_cli([command, "--seed", str(seed), "--out", str(out)])
        assert result.exit_code == 0, result.output
        values = {r["name"]: repr(r["value"])
                  for r in load_report(out, command)["records"]}
        assert values == GOLDEN_RECORDS[(command, seed)]
        if command in GOLDEN_CURVES:
            name, column = GOLDEN_CURVES[command]
            rows = (out / name).read_text().split()[1:]
            assert [row.split(",")[1] for row in rows] == column


# corner records (name, value, pass) at the default config (3 factors)
# and at 2 factors, as computed when the corner runner solved each
# boundary representation and Choi spectrum as often as it needed it
GOLDEN_CORNER = {
    3: [("boundary-rep-choi-min-t-0.5", -6.114370999510743e-16, True),
        ("boundary-rep-choi-min-t-0.25", -1.1187446642285858e-15, True),
        ("subordination-full-over-minimal", True, True),
        ("hypermax-witness", True, True),
        ("corner-derivation-residual", 4.955900126292414e-16, True)],
    2: [("boundary-rep-choi-min-t-0.5", -4.3257011323278505e-16, True),
        ("boundary-rep-choi-min-t-0.25", -1.4710984740809945e-16, True),
        ("subordination-full-over-minimal", True, True),
        ("hypermax-witness", True, True),
        ("corner-derivation-residual", 2.5064281004120743e-16, True)],
}


def corner_records(factors, out_dir):
    cfg = load_config(None)
    cfg["corner"]["factors"] = factors
    rep = Reporter("corner", cfg, out_dir)
    COMMANDS["corner"](cfg, rep, np.random.default_rng(cfg["seeds"]["rng"]))
    return rep.records


class TestCornerPipeline:
    @pytest.mark.parametrize("factors", sorted(GOLDEN_CORNER))
    def test_records_pinned(self, factors, tmp_path):
        records = corner_records(factors, tmp_path)
        golden = GOLDEN_CORNER[factors]
        assert [(r["name"], r["pass"]) for r in records] \
            == [(name, passed) for name, _, passed in golden]
        for record, (_, value, _) in zip(records, golden):
            if isinstance(value, bool):
                assert record["value"] is value
            else:
                assert abs(record["value"] - value) <= 1e-12

    def test_uncut_level_pinned(self, tmp_path):
        # cut 0.0 keeps every cell, so no dropped block enters its minimum;
        # the minimal weight's representation there is the one word
        # rho -> s0* rho s0, whose Choi vector spans 1 of 192 dimensions,
        # and at cut 0.5 it has 15 words in 64: both minima are the exact
        # zero of the complement of their range
        path = tmp_path / "cuts.yaml"
        path.write_text(yaml.safe_dump({"corner": {"cut_levels": [0.0,
                                                                  0.5]}}))
        out = tmp_path / "out"
        result = run_cli(["corner", "--config", str(path), "--seed", "2024",
                          "--out", str(out)])
        assert result.exit_code == 0, result.output
        values = {r["name"]: repr(r["value"])
                  for r in load_report(out, "corner")["records"]}
        assert values["boundary-rep-choi-min-t-0"] == "0.0"
        assert values["boundary-rep-choi-min-t-0.5"] == "0.0"

    def test_each_result_computed_once(self, monkeypatch, tmp_path):
        # series weights: one per block of 16 unit densities of the
        # derivation label (64 at N = 3, so 4), each with lambdahat
        # applied to its pihat; no weight series is summed from nu, since
        # the unital representation applies lambdahat to nu for its
        # normalization check, cuts nu once and applies lambdahat to nu on
        # the dropped cells (4 lambdahat with the derivation's 4), and the
        # witness reads its gap off that representation's rank-one term;
        # boundary representations: unital and minimal at each cut, then
        # the corner's off-diagonal coefficients at each cut (its diagonal
        # is the minimal weight's, handed on by the subordination verdict,
        # and the lower entry's coefficients are the conjugates); Choi: the
        # minimal weight at each cut, as the unital weight is CP by the
        # difference's small spectra and the corner by its coefficient
        # blocks
        calls = {"boundary_rep": 0, "choi_min_eig": 0, "weight_superop": 0,
                 "apply_truncation": 0, "lambda_superop": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("boundary_rep", "weight_superop", "apply_truncation",
                     "lambda_superop"):
            monkeypatch.setattr(MatrixModel, name,
                                counted(name, getattr(MatrixModel, name)))
        choi = counted("choi_min_eig", opbasis.choi_min_eig)
        for module in (opbasis, cornercheck):
            monkeypatch.setattr(module, "choi_min_eig", choi)
        corner_records(3, tmp_path)
        assert calls == {"boundary_rep": 6, "choi_min_eig": 2,
                         "weight_superop": 4, "apply_truncation": 2,
                         "lambda_superop": 8}


# the default delta report, linear lambda: (name, value, expected)
GOLDEN_DELTA = [
    ("pairing-at-level-8", "0.30586775289037743", "0.30586775289037743"),
    ("limit-reference", "0.27202905498213314", "0.2720290549821332"),
    ("curve-monotone-nonincreasing", "True", "True"),
]


class TestCovariancePipeline:
    # per level, the outflow gate evolves each bump once (the tables pair
    # from the sources); then semigroup_residual's three
    @pytest.mark.parametrize("refinements, evolutions", [(3, 9), (6, 15)])
    def test_one_evolution_per_damping(self, monkeypatch, tmp_path,
                                       refinements, evolutions):
        calls = []
        evolve = semigroups.evolve

        def counted(state, z, t):
            calls.append(z)
            return evolve(state, z, t)

        monkeypatch.setattr(semigroups, "evolve", counted)
        path = tmp_path / "covariance.yaml"
        path.write_text(yaml.safe_dump(
            {"covariance": {"refinements": refinements}}))
        result = run_cli(["covariance", "--config", str(path), "--out",
                          str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        assert len(calls) == evolutions


# bumps that leave the grid within covariance.t
OUTFLOW_CONFIGS = [{"covariance": {"t": 7.9}}, {"grid": {"length": 3.0}}]


class TestOutflowGate:
    @pytest.mark.parametrize("override", OUTFLOW_CONFIGS)
    def test_cli_reports_config_error(self, tmp_path, override):
        path = tmp_path / "outflow.yaml"
        path.write_text(yaml.safe_dump(override))
        result = CliRunner().invoke(
            main, ["covariance", "--config", str(path), "--out",
                   str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "invalid config: grid.length" in result.output
        assert "covariance.t" in result.output
        assert "outflow mass" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_outflow_message_pinned(self, tmp_path):
        path = tmp_path / "outflow.yaml"
        path.write_text(yaml.safe_dump(
            {"covariance": {"labels": ["1", "2j"], "t": 7.9}}))
        result = CliRunner().invoke(
            main, ["covariance", "--config", str(path), "--out",
                   str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert ("Error: invalid config: grid.length is too short for "
                "covariance.t: outflow mass 1.206e-02 exceeds the "
                "experiment tolerance; enlarge the grid\n") in result.output

    # t / h overflows to inf: no step count exists, whatever grid.length
    def test_huge_time_is_config_error(self, tmp_path):
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump({"covariance": {"t": 1.0e308}}))
        result = CliRunner().invoke(
            main, ["covariance", "--config", str(path), "--out",
                   str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "invalid config: covariance.t" in result.output
        assert "grid.length" not in result.output
        assert isinstance(result.exception, SystemExit)

    # t / h is finite but too large to index the cells
    def test_unindexable_step_count_is_config_error(self, tmp_path):
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(
            {"covariance": {"labels": ["-3+2j"], "t": 1.0e150}}))
        result = CliRunner().invoke(
            main, ["covariance", "--config", str(path), "--out",
                   str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "invalid config: covariance.t" in result.output
        assert "grid.length" not in result.output
        assert isinstance(result.exception, SystemExit)

    # a positive t that rounds to no step at some refinement level would
    # pass with every residual exactly 0 (or warn on log2(0))
    @pytest.mark.parametrize("override", [
        {"covariance": {"t": 1.0e-6}},
        {"grid": {"length": 7.9, "points": 2}}])
    def test_zero_step_count_is_config_error(self, tmp_path, override):
        path = tmp_path / "zero.yaml"
        path.write_text(yaml.safe_dump(override))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(
                main, ["covariance", "--config", str(path), "--out",
                       str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "invalid config: covariance.t" in result.output
        assert "rounds to no step" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    # labels that move nothing within a step: 0 is pure translation, and
    # |z|^2 h underflows for the others, so every residual is exactly 0
    # and the refinement order inf would pass without testing anything
    @pytest.mark.parametrize("labels", [["0"], [0.0, "1e-200"],
                                        ["1e-160j"]])
    def test_unmeasured_labels_are_config_error(self, tmp_path, labels):
        path = tmp_path / "labels.yaml"
        path.write_text(yaml.safe_dump({"covariance": {"labels": labels}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(
                main, ["covariance", "--config", str(path), "--out",
                       str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "invalid config: covariance.labels" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    # every cell midpoint lies where the bump underflows to zero, or where
    # its offset overflows when squared
    @pytest.mark.parametrize("grid", [{"length": 1.0e8, "points": 2},
                                      {"length": 1.0e300}])
    def test_coarse_grid_is_config_error(self, tmp_path, grid):
        path = tmp_path / "coarse.yaml"
        path.write_text(yaml.safe_dump({"grid": grid}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(
                main, ["covariance", "--config", str(path), "--out",
                       str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert ("invalid config: grid.points is too few for grid.length"
                in result.output)
        assert "covariance.t" not in result.output
        assert isinstance(result.exception, SystemExit)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_largest_overflow_free_labels_run(self, tmp_path):
        # every c(w, z) is finite, but the grid cannot resolve |z|^2 h:
        # an unresolvable label is a FAIL of the refinement order check,
        # which exists to catch it, not a config error
        path = tmp_path / "labels.yaml"
        path.write_text(yaml.safe_dump(
            {"covariance": {"labels": ["1e153", "1"]}}))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(
                main, ["covariance", "--config", str(path), "--out",
                       str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "invalid config" not in result.output
        assert "Traceback" not in result.output
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        records = load_report(out, "covariance")["records"]
        assert [r["name"] for r in records if not r["pass"]] \
            == ["min-refinement-order"]

    @pytest.mark.parametrize("override", OUTFLOW_CONFIGS)
    def test_runner_still_raises(self, tmp_path, override):
        path = tmp_path / "outflow.yaml"
        path.write_text(yaml.safe_dump(override))
        cfg = load_config(str(path))
        rep = Reporter("covariance", cfg, tmp_path / "o")
        with pytest.raises(InvalidExperimentError, match="outflow mass"):
            run_covariance(cfg, rep, np.random.default_rng(0))


class TestDeltaOracle:
    def test_linear_report_pinned(self, tmp_path):
        out = tmp_path / "out"
        result = run_cli(["delta", "--out", str(out)])
        assert result.exit_code == 0, result.output
        records = load_report(out, "delta")["records"]
        assert [(r["name"], repr(r["value"]), repr(r["expected"]))
                for r in records] == GOLDEN_DELTA
        rows = (out / "delta-pairing.csv").read_text().split()[1:]
        assert {row.split(",")[2] for row in rows} \
            == {"%.17g" % 0.2720290549821332}

    def test_geometric_sequence_passes(self, tmp_path):
        # lambda_n = 2^n, n <= 60: the level product and the limit follow
        # the list instead of the linear closed forms
        path = tmp_path / "geometric.yaml"
        path.write_text(yaml.safe_dump({"lambda": {
            "kind": "custom", "values": [2.0 ** i for i in range(1, 61)]}}))
        out = tmp_path / "out"
        result = run_cli(["delta", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        records = {r["name"]: r for r in load_report(out, "delta")["records"]}
        assert all(r["pass"] for r in records.values())
        level = records["pairing-at-level-8"]["expected"]
        assert level == pytest.approx(math.prod(
            4.0 ** i / (1.0 + 4.0 ** i) for i in range(1, 9)), rel=1e-15)
        limit = records["limit-reference"]["expected"]
        assert limit == pytest.approx(math.prod(
            4.0 ** i / (1.0 + 4.0 ** i) for i in range(1, 60)), rel=1e-15)
        assert limit < level

    def test_custom_sequence_limit_takes_every_listed_value(self, tmp_path):
        # not monotone: the first value has settled, later ones have not
        values = [1.0e9] + [float(i) for i in range(2, 21)] + [1.0e9]
        path = tmp_path / "custom.yaml"
        path.write_text(yaml.safe_dump(
            {"lambda": {"kind": "custom", "values": values}}))
        out = tmp_path / "out"
        result = run_cli(["delta", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        records = {r["name"]: r for r in load_report(out, "delta")["records"]}
        assert all(r["pass"] for r in records.values())
        limit = records["limit-reference"]["expected"]
        assert limit == pytest.approx(math.prod(
            v * v / (1.0 + v * v) for v in values), rel=1e-14)
        assert limit == pytest.approx(0.5712, abs=1e-4)


class TestGeometricOverflow:
    """lambda_i = 2^i as a custom list ends at 2^511: its square overflows
    from i = 512 on, so a run that reads further is a config error."""

    POWERS = [2.0 ** i for i in range(1, 512)]

    @pytest.mark.parametrize("command, override", [
        ("delta", {"delta": {"levels": 511}}),
        ("weights-unitality", {"tensor": {"factors": 600}}),
    ])
    def test_cli_reports_config_error(self, tmp_path, command, override):
        path = tmp_path / "geometric.yaml"
        path.write_text(yaml.safe_dump(dict(override, **{
            "lambda": {"kind": "custom", "values": self.POWERS}})))
        result = CliRunner().invoke(
            main, [command, "--config", str(path), "--out",
                   str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "invalid config: lambda.values is too short" in result.output
        assert "index 512" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_last_overflow_free_level_runs(self, tmp_path):
        path = tmp_path / "geometric.yaml"
        path.write_text(yaml.safe_dump({
            "delta": {"levels": 510},
            "lambda": {"kind": "custom", "values": self.POWERS}}))
        out = tmp_path / "o"
        result = run_cli(["delta", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert load_report(out, "delta")["all_pass"]


# custom lambda sequences that parse but are too short for delta
SHORT_LAMBDAS = [
    ([1.0, 2.0], "custom sequence has no value at index 3"),
    ([2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
     "custom sequence ends before its tail product settles"),
]


class TestShortLambdaSequence:
    @pytest.mark.parametrize("values, message", SHORT_LAMBDAS)
    def test_cli_reports_config_error(self, tmp_path, values, message):
        path = tmp_path / "short.yaml"
        path.write_text(yaml.safe_dump(
            {"lambda": {"kind": "custom", "values": values}}))
        result = CliRunner().invoke(
            main, ["delta", "--config", str(path), "--out",
                   str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "invalid config: lambda.values" in result.output
        assert message in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("values, message", SHORT_LAMBDAS)
    def test_runner_still_raises(self, tmp_path, values, message):
        path = tmp_path / "short.yaml"
        path.write_text(yaml.safe_dump(
            {"lambda": {"kind": "custom", "values": values}}))
        cfg = load_config(str(path))
        rep = Reporter("delta", cfg, tmp_path / "o")
        with pytest.raises(TruncationExceededError, match=message):
            run_delta(cfg, rep, np.random.default_rng(0))


# Edge values for the config contract: numbers at and past the ends of
# float64, non-finite ones, and values of the wrong type for any key.
EDGES = st.sampled_from([0, -1, 0.0, -1.0, 1e-300, 1e300, -1e300, math.inf,
                         -math.inf, math.nan, "x", [1.0], {"x": 1}, None,
                         True])
# labels near zero, near the overflow of |z|^2, and not numbers at all
LABELS = st.sampled_from([0, 0.0, "0", "1", "-1", "1j", "1+1j", "-3+2j",
                          "1e-200", "1e-160j", "1e-300", "1e153", "1e300",
                          "nan", "inf", "x", None, True])


def edgy(valid):
    """A usable value half the time, an edge value the other half."""
    return st.one_of(valid, EDGES)


def counts(high):
    """Counts up to a cap that keeps every run small."""
    return edgy(st.integers(1, high))


OVERRIDES = {
    "grid.length": edgy(st.floats(4.0, 50.0)),
    "grid.points": counts(400),
    "tensor.factors": counts(6),
    "tensor.factor_dim": counts(3),
    "lambda.kind": st.sampled_from(["linear", "geometric", "custom", "x",
                                    None]),
    "lambda.values": edgy(st.lists(edgy(st.floats(0.5, 20.0)),
                                   max_size=12)),
    "series.tail_tolerance": edgy(st.floats(1e-14, 1e-2)),
    "series.max_terms": counts(200),
    "seeds.rng": counts(2 ** 40),
    "delta.levels": counts(12),
    "decay.n_max": counts(12),
    "decay.head_level": counts(12),
    "covariance.labels": edgy(st.lists(LABELS, max_size=3)),
    "covariance.t": edgy(st.floats(0.01, 2.0)),
    "covariance.refinements": counts(3),
    "gauge.triples": counts(50),
    "gauge.r_samples": counts(200),
    "gauge.z_samples": counts(10),
    "gauge.pairs": counts(20),
    "transitivity.pairs": counts(10),
    "corner.factors": counts(2),
    "corner.cut_levels": edgy(st.lists(edgy(st.sampled_from(
        [0.5, 0.25, 0.125, 0.3, 1.0])), max_size=3)),
    "corner.witness_label": LABELS,
    "weights.samples": counts(3),
    "weights.factor_dim": counts(3),
}
OVERRIDE = st.sampled_from(sorted(OVERRIDES)).flatmap(
    lambda key: st.tuples(st.just(key), OVERRIDES[key]))


def reject_constant(name):
    raise ValueError("%s is not JSON" % name)


# The largest label the config check accepts (2 |z|^2 is the largest
# float), and a t whose step count is near the largest index: the
# closed-form pairing's overflow and underflow paths.  Each config runs;
# the refinement order FAILs, its verdict on an unresolvable grid.
LARGEST_LABEL = "9.480751908109176e+153"
RUNNING_EDGES = [
    [("covariance.labels", [LARGEST_LABEL, "-%sj" % LARGEST_LABEL, "1"])],
    [("covariance.labels", ["2.5", "2.5j"]), ("covariance.t", 1.0e17)],
    [("covariance.labels", [LARGEST_LABEL, "2.5"]),
     ("covariance.t", 1.0e17)],
    # h conj(w) z = -1 exactly at h = 0.04: the pairing step's A is 0
    [("covariance.labels", ["5", "-5"])],
    # h conj(w) z = -(1 - 2^-52) at h = 0.0625, where the log1p argument
    # of log |A| cancels to exactly -1
    [("grid.points", 128), ("covariance.labels", ["4", "-3.999999999999999"])],
]


class TestConfigContract:
    """Any config either runs, fails a check, or is a config error."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(command=st.sampled_from(ALL_COMMANDS),
           overrides=st.lists(OVERRIDE, min_size=1, max_size=3,
                              unique_by=lambda kv: kv[0]))
    # a check that measured nothing wrote "value": Infinity
    @example(command="covariance", overrides=[("covariance.labels", ["0"])])
    # the bump warned on an overflowing offset before its config error
    @example(command="covariance", overrides=[("grid.length", 1e300)])
    @example(command="covariance", overrides=RUNNING_EDGES[0])
    @example(command="covariance", overrides=RUNNING_EDGES[1])
    @example(command="covariance", overrides=RUNNING_EDGES[2])
    @example(command="covariance", overrides=RUNNING_EDGES[3])
    @example(command="covariance", overrides=RUNNING_EDGES[4])
    def test_exit_codes_and_reports(self, command, overrides):
        # the fast sizes under the drawn keys: every count stays capped
        config = json.loads(json.dumps(FAST_CONFIG))
        for name, value in overrides:
            section, key = name.split(".")
            config.setdefault(section, {})[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.yaml")
            with open(path, "w") as fh:
                fh.write(yaml.safe_dump(config))
            out = os.path.join(tmp, "o")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = CliRunner().invoke(
                    main, [command, "--config", path, "--out", out])
            assert result.exit_code in (0, 1, 2), result.output
            if overrides in RUNNING_EDGES:
                assert result.exit_code in (0, 1), result.output
            assert result.exception is None \
                or isinstance(result.exception, SystemExit), result.output
            assert not [w for w in caught
                        if issubclass(w.category, RuntimeWarning)]
            for name in os.listdir(out) if os.path.isdir(out) else ():
                if name.endswith(".json"):
                    with open(os.path.join(out, name)) as fh:
                        json.loads(fh.read(), parse_constant=reject_constant)
