"""Compare two revisions with the benchmark, in alternating pairs of runs.

    python scripts/bench_pairs.py --parent REV --change REV --tag TAG \\
        --seed N [--pairs 10] [--workload NAME ...]

Each revision is extracted with ``git archive`` into its own temporary
checkout, and ``perfbench/run.py`` of that checkout runs there, unchanged,
once per pair and workload, for the ``run_seconds`` that
``BENCHMARK.json`` fixes.  Pair k uses seed N + k on both sides, so
pass seeds that were not used while the change was written.  The side
that runs first is drawn at random for the first pair (from the seed, so
a run can be repeated) and alternates after that.  An uncommitted tree
can be compared by passing the commit that ``git stash create`` prints;
the record names each side's ``src`` and ``perfbench`` tree ids, which
match those of any later commit with the same code, and each side's
``src_py_lines``, the newlines in its ``src/**/*.py`` files.

The record goes to ``BENCH_<TAG>.json`` at the repository root: for
each workload the end-to-end metrics of every pair, and per metric each
side's median and quartiles, the change's median relative to the
parent's, the pairs the change won (ties count for neither side) and
whether the gain clears the claim rule: at least ten pairs, nine in
ten of them won, and the medians further apart than the parent's
quartiles.  Each metric also carries its ``bound`` from
``BENCHMARK.json``, whether the change's median is within it
(``within_bound``) and whether the parent's spread lets the pairs tell
(``resolved``).  Per workload it also records each side's share of failed
ops and whether all its runs were correct; a gain never counts when a
run on either side was incorrect or the change failed a larger share.

A run that exits non-zero ends the comparison: the record keeps the
pairs completed so far (a workload cut short holds only its ``pairs``)
and names the run in ``failed_run`` with its workload, seed, side, exit
code and the last lines of its stderr, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: The fewest pairs on which the claim rule can hold.
CLAIM_PAIRS = 10
#: The lines of a failed run's stderr that the record keeps.
STDERR_TAIL_LINES = 20


class RunFailed(Exception):
    """A benchmark run exited non-zero."""

    def __init__(self, exit_code: int, stderr: str) -> None:
        super().__init__(f"benchmark run exited {exit_code}")
        self.exit_code = exit_code
        self.stderr_tail = stderr.splitlines()[-STDERR_TAIL_LINES:]


def checkout(rev: str, target: Path) -> Path:
    """The tree of ``rev``, extracted into the new directory ``target``."""
    target.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, stdout=subprocess.PIPE
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target


def trees(rev: str) -> dict:
    """The ids of the trees of ``rev`` that decide what a run measures."""
    return {
        path: subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", f"{rev}:{path}"],
            check=True, stdout=subprocess.PIPE, text=True,
        ).stdout.strip()
        for path in ("src", "perfbench")
    }


def src_py_lines(tree: Path) -> int:
    """Newlines in every ``src/**/*.py`` file of ``tree``, counted as
    ``perfbench/package.py`` counts its ``src_py_lines``."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its closing JSON line, which names the metrics."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RunFailed(done.returncode, done.stderr)
    result = json.loads(done.stdout.splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def failures(pairs: list[dict]) -> dict:
    """Per side: the share of attempted ops that failed, over all runs,
    and whether every run was correct."""
    return {
        side: {
            "failed_share": sum(p[side]["failed"] for p in pairs)
            / sum(p[side]["attempted"] for p in pairs),
            "all_correct": all(p[side]["correct"] for p in pairs),
        }
        for side in SIDES
    }


def compare(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' spread, the relative median change, the wins
    and the no-regression verdict.

    The verdict takes the metric's ``bound``: the change is within it when
    its median is no worse than the parent's by more than ``bound`` of the
    parent's, and the comparison is resolved when the parent's quartiles
    lie within ``bound`` of its median, or every change run reads better
    than every parent run.  No gain is claimable unless every run on both
    sides was correct and the change failed no larger share of its ops
    than the parent.
    """
    fails = failures(pairs)
    sound = (
        fails["parent"]["all_correct"]
        and fails["change"]["all_correct"]
        and fails["change"]["failed_share"] <= fails["parent"]["failed_share"]
    )
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        sides = {side: summary([p[side][name] for p in pairs]) for side in SIDES}
        parent, change = sides["parent"], sides["change"]
        gains = [sign * (p["change"][name] - p["parent"][name]) for p in pairs]
        wins = sum(g > 0 for g in gains)
        median_change = change["median"] / parent["median"] - 1
        # Every change run reads better than every parent run.
        apart = min(sign * p["change"][name] for p in pairs) > max(
            sign * p["parent"][name] for p in pairs
        )
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **sides,
            "median_change": median_change,
            "wins": wins,
            "losses": sum(g < 0 for g in gains),
            "bound": metric["bound"],
            "within_bound": sign * median_change >= -metric["bound"],
            "resolved": (
                (parent["q3"] - parent["q1"]) / parent["median"] <= metric["bound"]
                or apart
            ),
            "gain_claimable": (
                sound
                and len(pairs) >= CLAIM_PAIRS
                and wins >= 0.9 * len(pairs)
                and sign * (change["median"] - parent["median"])
                > parent["q3"] - parent["q1"]
            ),
        }
    return out


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=workloads)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    revs = {side: getattr(args, side) for side in SIDES}
    seconds = contract["run_seconds"]
    first = random.Random(args.seed).randrange(2)
    with tempfile.TemporaryDirectory() as scratch:
        dirs = {side: checkout(rev, Path(scratch, side)) for side, rev in revs.items()}
        record = {
            "command": contract["command"],
            "revisions": revs,
            "trees": {side: trees(rev) for side, rev in revs.items()},
            "src_py_lines": {side: src_py_lines(tree) for side, tree in dirs.items()},
            "seconds": seconds,
            "workloads": {},
        }
        try:
            for workload in args.workload or workloads:
                pairs = []
                record["workloads"][workload] = {"pairs": pairs}
                for k in range(args.pairs):
                    seed = args.seed + k
                    order = SIDES if (first + k) % 2 == 0 else SIDES[::-1]
                    pair = {"seed": seed, "first": order[0]}
                    for side in order:
                        pair[side] = run(dirs[side], workload, seed, seconds)
                        print(workload, seed, side, json.dumps(pair[side]), flush=True)
                    pairs.append(pair)
                record["workloads"][workload] = {
                    "failures": failures(pairs),
                    "metrics": compare(pairs, contract["end_to_end"]),
                    "pairs": pairs,
                }
        except RunFailed as failed:
            record["failed_run"] = {
                "workload": workload, "seed": seed, "side": side,
                "exit_code": failed.exit_code, "stderr_tail": failed.stderr_tail,
            }
            print(f"{workload} seed {seed} {side}: {failed}", file=sys.stderr)
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 1 if "failed_run" in record else 0


if __name__ == "__main__":
    sys.exit(main())
