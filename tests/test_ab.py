"""tools/ab.py: the statistics of the alternating-pairs verdict and the
environment of its runs.

Every case runs on synthetic numbers; no benchmark process is started.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def shifted(values, delta):
    return [v + delta for v in values]


class TestJudge:
    def test_quartiles_medians_and_wins(self):
        c = ab.judge(PARENT, shifted(PARENT, -5.0), "lower", 1.0)
        assert c.parent_median == 14.5 and c.change_median == 9.5
        assert c.parent_quartiles == (12.25, 16.75)
        assert (c.wins, c.pairs) == (10, 10)

    def test_gain_needs_a_gap_wider_than_the_parents_spread(self):
        # ten wins each; the parent's interquartile range is 4.5
        assert ab.judge(PARENT, shifted(PARENT, -4.6), "lower",
                        1.0).verdict == "gain"
        assert ab.judge(PARENT, shifted(PARENT, -4.5), "lower",
                        1.0).verdict != "gain"

    def test_gain_needs_nine_wins_in_ten(self):
        # nine wins and one loss is a gain, eight wins and two losses not
        nine = shifted(PARENT, -6.0)
        nine[0] = 11.0
        assert ab.judge(PARENT, nine, "lower", 1.0).verdict == "gain"
        eight = list(nine)
        eight[1] = 12.0
        c = ab.judge(PARENT, eight, "lower", 1.0)
        assert c.wins == 8 and c.verdict != "gain"

    def test_ties_count_for_neither_side(self):
        change = shifted(PARENT, -6.0)
        change[:2] = PARENT[:2]
        c = ab.judge(PARENT, change, "lower", 1.0)
        assert c.wins == 8 and c.verdict != "gain"

    def test_regression_is_a_median_worse_by_more_than_the_bound(self):
        narrow = [100.0 + 0.1 * i for i in range(10)]
        worse = ab.judge(narrow, shifted(narrow, 26.0), "lower", 0.25)
        assert worse.verdict == "regression"
        assert worse.pair_median == pytest.approx(26.0)
        within = ab.judge(narrow, shifted(narrow, 20.0), "lower", 0.25)
        assert within.verdict == "no regression"

    def test_drift_inside_a_run_is_unresolved_not_a_regression(self):
        # the medians read 1 -> 3, but within its pair the change reads
        # worse in two pairs and the same in eight: a drift both sides of
        # a pair share, so the median over pairs of change - parent is 0
        parent = [1.0] * 6 + [3.0] * 4
        change = [1.0] * 4 + [3.0] * 6
        c = ab.judge(parent, change, "lower", 0.25)
        assert (c.parent_median, c.change_median) == (1.0, 3.0)
        assert c.pair_median == 0.0 and c.wins == 0
        assert c.verdict == "unresolved"
        # read with higher better, each change run is worse by 2 or 0
        higher = ab.judge(change, parent, "higher", 0.25)
        assert str(higher.pair_median) == "0.0"  # not -0.0
        assert higher.verdict == "unresolved"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        # the parent's quartiles are 12.25 and 16.75: 31% of its median
        assert ab.judge(PARENT, shifted(PARENT, 1.0), "lower",
                        0.25).verdict == "unresolved"
        assert ab.judge(PARENT, PARENT, "lower", 0.25).verdict \
            == "unresolved"

    def test_every_change_run_better_resolves_a_wide_spread(self):
        # quartiles 10 and 17.5 about a median of 10: a change below every
        # parent run is no regression, though not a gain, and one just
        # above the median is unresolved
        parent = [10.0] * 7 + [20.0] * 3
        c = ab.judge(parent, [9.9] * 10, "lower", 0.25)
        assert c.wins == 10 and c.verdict == "no regression"
        assert ab.judge(parent, [10.1] * 10, "lower", 0.25).verdict \
            == "unresolved"

    def test_higher_is_better(self):
        ones = [1.0] * 10
        assert ab.judge(ones, [0.98] * 10, "higher", 0.01).verdict \
            == "regression"
        assert ab.judge(ones, [0.995] * 10, "higher", 0.01).verdict \
            == "no regression"
        low = [0.5 + 0.01 * i for i in range(10)]
        assert ab.judge(low, shifted(low, 0.1), "higher",
                        1.0).verdict == "gain"

    def test_unpaired_runs_rejected(self):
        with pytest.raises(ValueError):
            ab.judge(PARENT, PARENT[:9], "lower", 0.25)
        with pytest.raises(ValueError):
            ab.judge([1.0], [1.0], "lower", 0.25)


class TestProtocol:
    def test_bounds_and_directions_come_from_the_benchmark(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = ab.end_to_end_metrics(spec)
        assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
        for m in spec["end_to_end"]:
            assert metrics[m["name"]] == {"better": m["better"],
                                          "bound": m["bound"]}

    @pytest.mark.parametrize("pairs", [2, 9, 10])
    def test_order_is_balanced_and_repeats_from_its_seed(self, pairs):
        order = ab.pair_order(pairs, 7)
        assert order == ab.pair_order(pairs, 7)
        assert sum(order) == (pairs + 1) // 2
        assert any(ab.pair_order(pairs, seed) != order
                   for seed in range(20))

    def test_result_is_the_last_line(self):
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"campaign_s": {"value": 0.005, "unit": "s"}}}
        stdout = "workload corner\n  campaign_s 0.005 s\n%s\n" % json.dumps(
            result)
        assert ab.result_line(stdout) == result


class TestRuns:
    def test_each_side_warms_a_private_bytecode_cache_unrecorded(
            self, monkeypatch, tmp_path):
        # a side's first run is its warm-up and reads 100, every later run
        # 1: only the 1s reach the verdict, and every run of a side writes
        # its bytecode under one prefix of its own, outside both checkouts
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        names = ab.end_to_end_metrics(json.loads(
            (ROOT / "BENCHMARK.json").read_text()))
        calls = []

        def fake_run(cmd, cwd, env, **kwargs):
            calls.append((Path(cwd).name, env))
            first = [side for side, _ in calls].count(Path(cwd).name) == 1
            result = {"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {name: {"value": 100.0 if first else 1.0}
                                  for name in names}}
            return subprocess.CompletedProcess(cmd, 0, json.dumps(result),
                                               "")

        judged = []
        judge = ab.judge

        def recorded(parent, change, *args):
            judged.append((parent, change))
            return judge(parent, change, *args)

        monkeypatch.setattr(ab.subprocess, "run", fake_run)
        monkeypatch.setattr(ab, "judge", recorded)
        assert ab.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                        "--workload", "corner", "--pairs", "4",
                        "--order-seed", "1"]) == 0
        assert [side for side, _ in calls[:2]] == ["parent", "change"]
        assert len(calls) == 2 + 2 * 4
        assert judged == [([1.0] * 4, [1.0] * 4)] * len(names)
        prefixes = {}
        for side, env in calls:
            assert "PYTHONDONTWRITEBYTECODE" not in env
            prefixes.setdefault(side, set()).add(env["PYTHONPYCACHEPREFIX"])
        (parent,), (change,) = prefixes["parent"], prefixes["change"]
        assert parent != change
        for prefix in (parent, change):
            assert not Path(prefix).is_relative_to(tmp_path)
            assert not Path(prefix).exists()  # removed after the runs
