"""Compare the command line's output bytes at two revisions.

    python scripts/cli_bytes.py --parent REV --change REV

Each revision is extracted with ``git archive`` into its own temporary
checkout (``bench_pairs.checkout``), and a fixed set of ``spin-stirling``
calls runs against each checkout's ``src``: ``cycle`` (text and
``--json``, an engine and a refused zero-width cycle), ``sweep`` (CSV,
JSON and the flag-less default grid), ``fit`` (both bundled datasets, to
stdout and to ``--out``) and ``engine-curve`` (the README curve, a
9,000-point curve that builds block pairs, and a refused axis).

Every call runs in a fresh working directory at the same path on both
sides, holding a copy of that side's bundled datasets under ``data/``,
so echoed paths match.  Per call the script compares the exit code,
stdout, stderr and every file in the working directory afterwards, and
prints one line.  It exits 1, naming the first call that differs, if
any does, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import SIDES, checkout

CYCLE = ["cycle", "--ja-k", "-42", "--jb-k", "-32", "--th", "40", "--tc", "20"]
ZERO_WIDTH = ["cycle", "--ja-k", "-32", "--jb-k", "-32", "--th", "40", "--tc", "20"]
GRID = ["--ratio-steps", "50", "--tr-steps", "40"]
CURVE = [
    "engine-curve", "--ja-k", "-42", "--jb-k", "-32", "--tc", "20", "--th-max", "350",
    "--out", "curve.csv",
]
AMBIENT, PRESSURE = "data/cu2_dimer_ambient.csv", "data/cu2_dimer_0p84gpa.csv"

#: Case name -> the arguments of one ``spin-stirling`` call.
CASES = {
    "cycle engine": CYCLE,
    "cycle engine --json": [*CYCLE, "--json"],
    "cycle zero-width": ZERO_WIDTH,
    "cycle zero-width --json": [*ZERO_WIDTH, "--json"],
    "sweep csv": ["sweep", *GRID, "--out", "map.csv"],
    "sweep json": ["sweep", *GRID, "--format", "json", "--out", "map.json"],
    "sweep default grid": ["sweep", "--out", "default.csv"],
    "fit ambient": ["fit", "--data", AMBIENT],
    "fit ambient --out": ["fit", "--data", AMBIENT, "--out", "fit.json"],
    "fit 0.84 GPa": ["fit", "--data", PRESSURE],
    "fit 0.84 GPa --out": ["fit", "--data", PRESSURE, "--out", "fit.json"],
    "engine-curve README": [*CURVE, "--th-min", "21", "--steps", "330"],
    "engine-curve 9000 points": [*CURVE, "--th-min", "21", "--steps", "9000"],
    "engine-curve refused axis": [*CURVE, "--th-min", "15", "--steps", "9"],
}


def run(tree: Path, args: list[str], work: Path) -> dict:
    """One call of ``tree``'s command line in ``work``: its exit code,
    stdout, stderr and the bytes of every file in ``work`` afterwards."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "spin_stirling.cli", *args],
        cwd=work, env=env, capture_output=True,
    )
    files = {
        str(path.relative_to(work)): path.read_bytes()
        for path in sorted(work.rglob("*")) if path.is_file()
    }
    return {
        "exit code": done.returncode, "stdout": done.stdout, "stderr": done.stderr,
        "files": files,
    }


def outputs(tree: Path, work: Path) -> dict[str, dict]:
    """Per case, what :func:`run` gives for ``tree``, each case in a fresh
    ``work`` directory holding ``tree``'s bundled datasets."""
    results = {}
    for case, args in CASES.items():
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(tree / "src" / "spin_stirling" / "data", work / "data")
        results[case] = run(tree, args, work)
    shutil.rmtree(work)
    return results


def differences(parent: dict, change: dict) -> list[str]:
    """What differs between two results of :func:`run`: the streams by
    name, and each file that either side lacks or writes differently."""
    streams = ("exit code", "stdout", "stderr")
    found = [key for key in streams if parent[key] != change[key]]
    names = sorted(set(parent["files"]) | set(change["files"]))
    found += [
        f"file {name}" for name in names
        if parent["files"].get(name) != change["files"].get(name)
    ]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch, "work")
        results = {
            side: outputs(checkout(getattr(args, side), Path(scratch, side)), work)
            for side in SIDES
        }
    first = None
    for case in CASES:
        found = differences(results["parent"][case], results["change"][case])
        verdict = f"differs in {', '.join(found)}" if found else "identical"
        print(f"{case}: {verdict}")
        if found and first is None:
            first = case
    if first is not None:
        print(f"first differing case: {first}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
