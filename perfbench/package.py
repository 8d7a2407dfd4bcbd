"""Loading the package under test from the checkout, and calling its CLI.

The benchmark imports ``spin_stirling`` from ``src/`` of the checkout it
sits in, never from an installed copy, and fails when that source tree
is absent.  Run artifacts (temporary outputs, result records) go under
``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# The metered layers; ``constants`` and ``errors`` do no work.
MODULES = ("cli", "phasemap", "cycle", "magnetometry", "_kernels", "core")


class PackageMissing(RuntimeError):
    """The checkout holds no importable ``spin_stirling`` source tree."""


def load() -> dict:
    """Import the package's modules from ``src/``; keyed by short name."""
    init = SRC / "spin_stirling" / "__init__.py"
    if not init.is_file():
        raise PackageMissing(f"no spin_stirling source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("spin_stirling")
    if Path(package.__file__).resolve() != init.resolve():
        raise PackageMissing(
            f"spin_stirling was imported from {package.__file__}, not {init}"
        )
    mods = {name: importlib.import_module(f"spin_stirling.{name}") for name in MODULES}
    mods["package"] = package
    mods["errors"] = importlib.import_module("spin_stirling.errors")
    return mods


def scratch_dir() -> Path:
    path = OUT / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_cli(mods, argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods["cli"].main(argv)
    return code, out.getvalue(), err.getvalue()


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(mods) -> dict:
    """What a result must carry to be compared with another one."""
    lines = 0
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "src_py_lines": lines,
        "src_py_sha256": tree.hexdigest(),
        "package_version": getattr(mods["package"], "__version__", None),
    }
