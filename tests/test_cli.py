"""Command-line runner: reports, curves, determinism, config validation."""

import json
import math

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from cpflow import cornercheck, opbasis
from cpflow.cli import (
    COMMANDS,
    DEFAULT_CONFIG,
    MINIMUMS,
    Reporter,
    load_config,
    main,
    run_delta,
    run_weights_unitality,
)
from cpflow.opbasis import MatrixModel
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


class TestConfigKeysRead:
    def test_every_setting_is_read_by_a_runner(self, tmp_path, fast_config):
        # seeds.rng is read by main, which seeds the runner's generator
        read = set()
        for command, runner in COMMANDS.items():
            cfg = RecordingConfig(load_config(fast_config), read)
            runner(cfg, Reporter(command, cfg, tmp_path / command),
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
# functional was built and paired; the slot-table series must keep them
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
GOLDEN_DECAY_CURVE = ["0.95584308492520298", "0.10790507654127174",
                      "0.060773472717787533"] + ["0"] * 6


class TestGoldenRecords:
    @pytest.mark.parametrize("command, seed", sorted(GOLDEN_RECORDS))
    def test_record_values_pinned(self, command, seed, tmp_path):
        out = tmp_path / "out"
        result = run_cli([command, "--seed", str(seed), "--out", str(out)])
        assert result.exit_code == 0, result.output
        values = {r["name"]: repr(r["value"])
                  for r in load_report(out, command)["records"]}
        assert values == GOLDEN_RECORDS[(command, seed)]
        if command == "decay":
            rows = (out / "decay-decay.csv").read_text().split()[1:]
            assert [row.split(",")[1] for row in rows] == GOLDEN_DECAY_CURVE


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

    def test_each_result_computed_once(self, monkeypatch, tmp_path):
        # 4 weights (minimal, z, conj(z), the derivation label; the unital
        # weight is the minimal one plus the rank-one gap);
        # boundary representations: unital and minimal at each cut, then
        # the corner's upper and lower (its diagonal is the minimal
        # weight's, handed on by the subordination verdict); Choi: unital,
        # minimal and their difference at each cut, then the corner
        calls = {"boundary_rep": 0, "choi_min_eig": 0, "weight_superop": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("boundary_rep", "weight_superop"):
            monkeypatch.setattr(MatrixModel, name,
                                counted(name, getattr(MatrixModel, name)))
        choi = counted("choi_min_eig", opbasis.choi_min_eig)
        for module in (opbasis, cornercheck):
            monkeypatch.setattr(module, "choi_min_eig", choi)
        corner_records(3, tmp_path)
        assert calls["boundary_rep"] <= 8
        assert calls["choi_min_eig"] <= 8
        assert calls["weight_superop"] <= 4


# the default delta report, linear lambda: (name, value, expected)
GOLDEN_DELTA = [
    ("pairing-at-level-8", "0.30586775289037743", "0.30586775289037743"),
    ("limit-reference", "0.27202905498213314", "0.2720290549821332"),
    ("curve-monotone-nonincreasing", "True", "True"),
]


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
        # lambda_n = 2^n: the level product and the limit follow the
        # sequence instead of the linear closed forms
        path = tmp_path / "geometric.yaml"
        path.write_text(yaml.safe_dump({"lambda": {"kind": "geometric"}}))
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
