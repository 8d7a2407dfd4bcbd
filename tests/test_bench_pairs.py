"""The claim rule of ``scripts/bench_pairs.py``, on synthetic pairs of runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

HIGHER = {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "ops_per_s", "unit": "op/s", "better": "lower", "bound": 0.25}
# Parent runs 100.0 to 100.9: quartiles 0.45 apart.
PARENT = [100.0 + 0.1 * k for k in range(10)]


def run(ops_per_s, failed=0, correct=True):
    return {"correct": correct, "attempted": 1000, "failed": failed,
            "ops_per_s": ops_per_s}


def pairs(changes, parents=PARENT):
    return [
        {"parent": run(p), "change": run(c)} for p, c in zip(parents, changes)
    ]


def verdict(changes, metric=HIGHER, parents=PARENT):
    return bench_pairs.compare(pairs(changes, parents), [metric])["ops_per_s"]


class TestCompare:
    def test_fewer_than_ten_pairs_are_never_claimable(self):
        changes = [p + 5.0 for p in PARENT]
        assert verdict(changes[:9], parents=PARENT[:9])["wins"] == 9
        assert not verdict(changes[:9], parents=PARENT[:9])["gain_claimable"]
        assert verdict(changes)["gain_claimable"]

    def test_nine_wins_in_ten_above_the_parent_spread_are_claimable(self):
        changes = [p + 5.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
        result = verdict(changes)
        assert (result["wins"], result["losses"]) == (9, 1)
        assert result["gain_claimable"]
        # Eight wins are too few, however large the gain.
        changes[8] = PARENT[8] - 1.0
        assert not verdict(changes)["gain_claimable"]

    def test_a_median_gap_within_the_parent_spread_is_not_claimable(self):
        # Every pair is won, but the medians lie 0.3 apart, under the 0.45
        # between the parent's quartiles.
        result = verdict([p + 0.3 for p in PARENT])
        assert result["wins"] == 10
        assert not result["gain_claimable"]

    def test_ties_count_for_neither_side(self):
        changes = [p + 5.0 for p in PARENT[:9]] + [PARENT[9]]
        result = verdict(changes)
        assert (result["wins"], result["losses"]) == (9, 0)
        assert result["gain_claimable"]
        changes[8] = PARENT[8]
        result = verdict(changes)
        assert (result["wins"], result["losses"]) == (8, 0)
        assert not result["gain_claimable"]

    @pytest.mark.parametrize("step", [5.0, -5.0])
    def test_better_lower_flips_the_sign(self, step):
        changes = [p + step for p in PARENT]
        higher, lower = verdict(changes, HIGHER), verdict(changes, LOWER)
        assert (higher["wins"], higher["losses"]) == (lower["losses"], lower["wins"])
        assert higher["gain_claimable"] == (step > 0)
        assert lower["gain_claimable"] == (step < 0)
        assert higher["median_change"] == lower["median_change"]

    # A clear gain: ten wins of 5.0, far beyond the parent's spread.
    GAIN = [p + 5.0 for p in PARENT]

    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_an_incorrect_run_on_either_side_voids_the_claim(self, side):
        runs = pairs(self.GAIN)
        runs[3][side] = run(runs[3][side]["ops_per_s"], correct=False)
        result = bench_pairs.compare(runs, [HIGHER])["ops_per_s"]
        assert result["wins"] == 10
        assert not result["gain_claimable"]
        assert not bench_pairs.failures(runs)[side]["all_correct"]

    def test_a_larger_failed_share_voids_the_claim(self):
        runs = pairs(self.GAIN)
        runs[0]["parent"] = run(PARENT[0], failed=1)
        runs[5]["change"] = run(self.GAIN[5], failed=2)
        shares = bench_pairs.failures(runs)
        assert shares["parent"] == {"failed_share": 1 / 10000, "all_correct": True}
        assert shares["change"] == {"failed_share": 2 / 10000, "all_correct": True}
        assert not bench_pairs.compare(runs, [HIGHER])["ops_per_s"]["gain_claimable"]
        # An equal share leaves the gain claimable.
        runs[7]["parent"] = run(PARENT[7], failed=1)
        assert bench_pairs.compare(runs, [HIGHER])["ops_per_s"]["gain_claimable"]


class TestBound:
    @pytest.mark.parametrize("metric", [HIGHER, LOWER], ids=["higher", "lower"])
    def test_thirty_percent_worse_is_out_of_bound(self, metric):
        worse = 1.3 if metric is LOWER else 0.7
        result = verdict([p * worse for p in PARENT], metric)
        assert result["bound"] == 0.25
        assert not result["within_bound"]
        assert result["resolved"]

    @pytest.mark.parametrize("metric", [HIGHER, LOWER], ids=["higher", "lower"])
    def test_ten_percent_worse_is_within_bound(self, metric):
        worse = 1.1 if metric is LOWER else 0.9
        result = verdict([p * worse for p in PARENT], metric)
        assert result["within_bound"]
        assert result["resolved"]

    def test_a_wide_parent_spread_is_unresolved_unless_every_run_is_won(self):
        # Parent runs 70 to 133: quartiles 31% of the median apart.
        parents = [70.0 + 7.0 * k for k in range(10)]
        assert not verdict(parents, parents=parents)["resolved"]
        # Winning every pair is not enough: the runs still overlap.
        overlapping = verdict([p + 1.0 for p in parents], parents=parents)
        assert overlapping["wins"] == 10
        assert not overlapping["resolved"]
        assert verdict([134.0 + k for k in range(10)], parents=parents)["resolved"]
        assert not verdict([133.0] + [140.0] * 9, parents=parents)["resolved"]


def test_src_py_lines_counts_the_newlines_of_python_files_under_src(tmp_path):
    package = tmp_path / "src" / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_bytes(b"x = 1\ny = 2\n")
    (package / "sub" / "b.py").write_bytes(b"z = 3\n\nw = 4")
    (package / "data.csv").write_bytes(b"1\n2\n3\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "c.py").write_bytes(b"\n" * 5)
    assert bench_pairs.src_py_lines(tmp_path) == 4


def test_a_failed_run_keeps_the_finished_pairs(tmp_path, monkeypatch):
    contract = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(contract))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "checkout", lambda rev, target: target)
    monkeypatch.setattr(bench_pairs, "trees", lambda rev: {})
    monkeypatch.setattr(bench_pairs, "src_py_lines", lambda tree: 0)
    runs = []

    def run(tree, workload, seed, seconds):
        runs.append((workload, seed, tree.name))
        if len(runs) == 6:  # the second side of the third pair
            raise bench_pairs.RunFailed(3, "".join(f"line {k}\n" for k in range(30)))
        return {"correct": True, "attempted": 10, "failed": 0, "ops_per_s": 1.0}

    monkeypatch.setattr(bench_pairs, "run", run)
    workload = contract["workloads"][0]["name"]
    argv = ["--parent", "p", "--change", "c", "--tag", "t", "--seed", "7",
            "--workload", workload]
    assert bench_pairs.main(argv) == 1
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    workload_record = record["workloads"][workload]
    assert list(workload_record) == ["pairs"]
    assert [pair["seed"] for pair in workload_record["pairs"]] == [7, 8]
    assert record["failed_run"] == {
        "workload": workload, "seed": 9, "side": runs[-1][2], "exit_code": 3,
        "stderr_tail": [f"line {k}" for k in range(10, 30)],
    }
