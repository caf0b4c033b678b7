"""Command-line runner: reports, curves, determinism, config validation."""

import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from cpflow.cli import MINIMUMS, Reporter, load_config, main, run_delta
from cpflow.tensorspace import TruncationExceededError

FAST_CONFIG = {
    "gauge": {"triples": 50, "r_samples": 500, "z_samples": 10, "pairs": 20},
    "corner": {"factors": 2, "cut_levels": [0.5, 0.25],
               "witness_label": "-1"},
    "weights": {"samples": 3, "factor_dim": 2},
    "covariance": {"refinements": 2},
    "transitivity": {"pairs": 10},
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

    def test_negative_refine_option_is_usage_error(self, tmp_path):
        result = CliRunner().invoke(
            main, ["covariance", "--refine", "-1", "--out",
                   str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "--refine" in result.output

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

    def test_unknown_command_rejected(self, tmp_path):
        result = CliRunner().invoke(main, ["frobnicate"])
        assert result.exit_code != 0


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


class TestRefine:
    def test_extra_refinement_levels(self, tmp_path, fast_config):
        out = tmp_path / "out"
        result = run_cli(["covariance", "--config", fast_config,
                          "--refine", "1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = (out / "covariance-residuals.csv").read_text() \
            .strip().splitlines()
        assert len(lines) - 1 == 3  # 2 configured + 1 extra level


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
