"""Independent reference physics and the byte-identity digests.

The per-op checks must not rely on the program to verify itself, so the
net work is recomputed here from free energies, a route that shares no
code with the package:

    W = F(j_a, T_h) - F(j_b, T_h) + F(j_b, T_c) - F(j_a, T_c),
    F(j, T) = -T ln Z,   Z = 3 exp(-j / 4T) + exp(3j / 4T).

Run as a script, this module recomputes the four reference outputs (the
stock default-grid CSV and JSON exports, the README engine curve and the
default ambient fit report) and compares their sha256 digests with
``references.json``; ``--write`` records the current digests instead.
It runs in a child process so that its 400x400 sweep does not count
towards the benchmark process's peak memory.

    python3 perfbench/reference.py [--write]
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

import package

REFERENCES = Path(__file__).with_name("references.json")

# The README's engine-curve and fit commands, minus the output path.
ENGINE_CURVE_ARGS = [
    "engine-curve", "--ja-k=-42", "--jb-k=-32", "--tc=20",
    "--th-min=21", "--th-max=350", "--steps=330",
]
AMBIENT_DATASET = "cu2_dimer_ambient.csv"
PRESSURE_DATASET = "cu2_dimer_0p84gpa.csv"
# Fixed-g ambient fit as printed in the README.
AMBIENT_FIT_J = -32.13087200947598
AMBIENT_FIT_ITERATIONS = 2

_LN3 = math.log(3.0)


def free_energy(j, t):
    """Helmholtz free energy -T ln Z of the dimer, kelvin times k_B."""
    x = np.asarray(j, dtype=float) / np.asarray(t, dtype=float)
    return -np.asarray(t, dtype=float) * np.logaddexp(_LN3 - 0.25 * x, 0.75 * x)


def net_work(j_a, j_b, t_hot, t_cold):
    """Net cycle work from free energies; broadcasts like numpy."""
    return (
        free_energy(j_a, t_hot)
        - free_energy(j_b, t_hot)
        + free_energy(j_b, t_cold)
        - free_energy(j_a, t_cold)
    )


def roundoff_floor(j_a, j_b, t_hot, t_cold):
    """Absolute roundoff scale of a cycle's state-function arithmetic.

    Stroke heats are differences of terms bounded by T ln 4 and 3|J|/4,
    so a check cannot demand more than a few dozen ulps of their sum.
    """
    operands = 2.0 * math.log(4.0) * (t_hot + t_cold) + 1.5 * (abs(j_a) + abs(j_b))
    return 32.0 * math.ulp(1.0) * operands


def close(a: float, b: float, tol: float) -> bool:
    """Equal within ``tol``, with NaN equal only to NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dataset_path(mods, name: str) -> str:
    return str(Path(mods["package"].__file__).parent / "data" / name)


def compute_digests(mods, scratch: Path) -> dict[str, str]:
    """sha256 of each reference output, produced by the code under test."""
    phasemap = mods["phasemap"]
    cells = phasemap.sweep(phasemap.SweepGrid.default())
    digests = {
        "mode_map_default.csv": sha256(phasemap.export(cells, "csv")),
        "mode_map_default.json": sha256(phasemap.export(cells, "json")),
    }
    del cells
    curve_path = scratch / "reference_engine_curve.csv"
    rc, _out, err = package.run_cli(mods, ENGINE_CURVE_ARGS + [f"--out={curve_path}"])
    if rc != 0:
        raise RuntimeError(f"engine-curve exited {rc}: {err.strip()}")
    digests["engine_curve_readme.csv"] = sha256(curve_path.read_bytes())
    curve_path.unlink()
    rc, out, err = package.run_cli(
        mods, ["fit", f"--data={dataset_path(mods, AMBIENT_DATASET)}"]
    )
    if rc != 0:
        raise RuntimeError(f"fit exited {rc}: {err.strip()}")
    digests["fit_ambient_default.json"] = sha256(out.encode("utf-8"))
    return digests


def load_references() -> dict[str, str]:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))["sha256"]


def main(argv: list[str]) -> int:
    mods = package.load()
    scratch = package.scratch_dir()
    digests = compute_digests(mods, scratch)
    if argv == ["--write"]:
        REFERENCES.write_text(
            json.dumps({"sha256": digests}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return 0
    if argv:
        print(f"usage: {sys.argv[0]} [--write]", file=sys.stderr)
        return 2
    expected = load_references()
    mismatched = sorted(k for k in expected if digests.get(k) != expected[k])
    print(json.dumps({"checked": sorted(expected), "mismatched": mismatched}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except package.PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
