"""Self-test of the benchmark itself, a few ops per workload.

    python3 perfbench/selftest.py

For each workload it runs a few seeded ops three ways, through the same
``run_op`` the benchmark loop uses, and proves that:

* untraced ops pass their output checks;
* traced ops write byte-for-byte the same outputs as untraced ones;
* an output corrupted after the op is counted as a failed op, so every
  corrupted op shows in ``failed_op_ratio``.

Exits 0 when all of that holds, 1 otherwise.  Takes about half a minute.
"""

from __future__ import annotations

import hashlib
import sys
import warnings

import numpy as np

import package
import run
import tracer as tracing
from workloads import WORKLOADS

SEED = 20240601
MAP_OPS = 2


class Corrupting:
    """The workload with every observed output deliberately broken."""

    def __init__(self, workload):
        self._workload = workload
        self.name = workload.name

    def run(self, spec):
        return self._workload.run(spec)

    def observe(self, spec, raw):
        return self._workload.corrupt(spec, self._workload.observe(spec, raw))

    def check(self, spec, obs):
        return self._workload.check(spec, obs)

    def cycles(self, spec):
        return self._workload.cycles(spec)


def _pick(name, specs):
    """A few specs; on the mix, the first of each kind."""
    if name != "small-mix":
        return specs[:MAP_OPS]
    firsts = {}
    for spec in specs:
        firsts.setdefault(spec[0], spec)
    return list(firsts.values())


def _digest(obs) -> str:
    digest = hashlib.sha256()
    for part in obs["payload"]:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def check_workload(name: str, mods, tracer) -> list[str]:
    workload = WORKLOADS[name](mods)
    specs = _pick(name, workload.make_inputs(np.random.default_rng(SEED)))
    workload.warm_up()
    plain, traced, corrupted = run.Group(), run.Group(), run.Group()
    problems: list[str] = []
    failures = []
    totals = tracing.LayerTotals()
    for spec in specs:
        untraced_obs = run.run_op(workload, spec, plain, problems)
        traced_obs = run.run_op(workload, spec, traced, problems, tracer, totals)
        if untraced_obs is None or traced_obs is None:
            continue
        if _digest(untraced_obs) != _digest(traced_obs):
            failures.append(f"{name}: traced output differs for {spec[0]!r} op")
    bad = Corrupting(workload)
    for spec in specs:
        run.run_op(bad, spec, corrupted, [])
    if plain.failed or traced.failed:
        failures.append(f"{name}: correct ops failed their checks: {problems}")
    if totals.ops != len(specs) or not totals.calls:
        failures.append(f"{name}: the traced ops recorded no spans")
    if corrupted.failed != corrupted.attempted:
        failures.append(
            f"{name}: {corrupted.attempted - corrupted.failed} of "
            f"{corrupted.attempted} corrupted outputs passed their checks"
        )
    print(
        f"{name}: {len(specs)} ops; untraced failed {plain.failed}, traced failed "
        f"{traced.failed}, corrupted failed {corrupted.failed}/{corrupted.attempted}"
    )
    return failures


def main() -> int:
    mods = package.load()
    warnings.simplefilter("ignore", mods["errors"].CurieRegimeWarning)
    tracer = tracing.Tracer(mods)
    failures = []
    for name in WORKLOADS:
        failures += check_workload(name, mods, tracer)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest passed" if not failures else "selftest failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
