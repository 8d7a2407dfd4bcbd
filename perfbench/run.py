"""Benchmark of spin-stirling: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``map-400``, ``map-json-readback`` and
``small-mix``.  One client runs ops back to back, each op starting when
the previous one has returned, until the ops have taken ``--seconds`` of
wall time and at least ``MIN_OPS`` have run.  Every op's output is
checked outside the timed region; the four reference outputs are then
checked against their recorded sha256 digests in a child process.

Times are reported at a reference machine speed.  Right before and
right after every op (and every setup probe) the benchmark times a fixed
probe, a little work of the kinds the program spends its time on, and
scales the op's wall time by the probe's nominal time over its measured
time.  On a shared 2-vCPU virtual machine the speed switched between two
levels 1.4x apart for seconds at a time, and the small-mix wall-clock
p50 moved by up to 30% between runs.  Over twenty 10 s windows of
small-mix ops there, the mean op time varied by 7.4% (sd of its log);
divided by the adjacent probe times, by 1.2%.  Ops that take seconds
(map-400) span many switches, so for them the scaling removes less.
The plain wall-clock figures are kept in the result record
(``wall_clock``) next to the scaled ones.

A failed op (nonzero exit, exception, or an output that fails its check)
counts in ``failed``; ``failed_op_ratio`` is printed and recorded but is
not a declared metric, since it is 0 whenever the program is right.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics: self time,
calls and work counts of each module's public functions, taken from
spans kept in memory (``tracer.py``).  On the map workloads every second
traced op runs the sweep with one worker (``SPIN_STIRLING_THREADS=1``),
the single-thread baseline for the sweep's thread pool.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list each
metric with its unit.  The full record (metadata, op counts, tail
percentile, problems found) is written to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import package
import tracer as tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# Fresh interpreters timed from launch to the first op being ready.
SETUP_PROBES = 5
# An op count that always leaves 10 samples beyond the tail percentile.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
CHILD_TIMEOUT_S = 150
# The speed probe, timed right before and right after every op; its
# nominal time defines the reference speed.
PROBE_ROWS = 600
PROBE_REFERENCE_S = 0.8e-3
THREADS_ENV_VAR = "SPIN_STIRLING_THREADS"

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "cycles_per_s": "cycle/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def speed_probe() -> float:
    """Seconds a fixed piece of work takes at the machine's current speed.

    The work mixes what the program's ops spend their time on: float
    formatting, building small objects and numpy calls on small arrays.
    It tracked small-mix op times across speed changes with a slope of
    0.9 in log-log; a plain arithmetic loop gave 1.45.
    """
    start = time.perf_counter()
    rows = []
    x = np.linspace(0.0, 1.0, 16)
    for i in range(PROBE_ROWS):
        rows.append("%.17g,%d" % (i * 0.37, i))
        if i % 8 == 0:
            x = np.exp(-x)
    ",".join(rows)
    return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a wall time between two probes into reference time."""
    return 2.0 * PROBE_REFERENCE_S / (before + after)


def setup(name: str, seed: int):
    """Import the package, draw the inputs and warm every op kind up."""
    mods = package.load()
    # Expected on part of the input domain and not a failure; ignoring it
    # keeps per-op cost independent of the warnings registry.
    warnings.simplefilter("ignore", mods["errors"].CurieRegimeWarning)
    workload = WORKLOADS[name](mods)
    specs = workload.make_inputs(np.random.default_rng(seed))
    workload.warm_up()
    return mods, workload, specs


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Seconds from launching a fresh interpreter to its first op being
    ready, as measured and at reference speed."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    before = speed_probe()
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe exited {code} without becoming ready")
    return ready, ready * speed_scale(before, speed_probe())


def check_references() -> tuple[bool, dict]:
    """Byte-identity of the four reference outputs, in a child process."""
    done = subprocess.run(
        [sys.executable, str(HERE / "reference.py")],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        return False, {"error": done.stderr.strip()[-500:]}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return not result["mismatched"], result


class Group:
    """Latencies and outcomes of one kind of op in a run.

    ``latencies`` are wall times as measured; ``scaled`` are the same
    times at reference speed.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.failed = 0
        self.cycles = 0
        self.stdout_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_op(workload, spec, group: Group, problems: list, tracer=None, totals=None):
    """Time one op, then check its output; returns the observed output."""
    before = speed_probe()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        raw, error = workload.run(spec), None
    except Exception as exc:  # a failing op is counted and the loop goes on
        raw, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    scale = speed_scale(before, speed_probe())
    group.latencies.append(elapsed)
    group.scaled.append(elapsed * scale)
    if totals is not None:
        totals.add_op(tracer.take_spans(), elapsed, scale)
    obs = None
    if error is None:
        try:
            obs = workload.observe(spec, raw)
            error = workload.check(spec, obs)
        except Exception as exc:  # an unreadable output is a failed op
            error = f"checking: {type(exc).__name__}: {exc}"
    if error is not None:
        group.failed += 1
        if len(problems) < 5:
            problems.append(error)
        return obs
    group.cycles += workload.cycles(spec)
    group.stdout_bytes += obs.get("stdout_bytes", 0)
    return obs


def measure(workload, specs, seconds: float, trace: bool, mods):
    """The closed loop; returns per-group tallies, layer totals, problems."""
    groups = collections.defaultdict(Group)
    problems: list[str] = []
    kinds = collections.Counter()
    totals = {"traced": tracing.LayerTotals(), "one_worker": tracing.LayerTotals()}
    tracer = tracing.Tracer(mods)
    one_worker_too = workload.name.startswith("map")
    busy = 0.0
    i = 0
    while busy < seconds or i < MIN_OPS:
        spec = specs[i % len(specs)]
        kinds[spec[0]] += 1
        if not trace or i % 2 == 0:
            name = "plain"
        elif one_worker_too and i % 4 == 3:
            name = "one_worker"
        else:
            name = "traced"
        group = groups[name]
        if name == "plain":
            run_op(workload, spec, group, problems)
        else:
            previous = os.environ.get(THREADS_ENV_VAR)
            if name == "one_worker":
                os.environ[THREADS_ENV_VAR] = "1"
            try:
                run_op(workload, spec, group, problems, tracer, totals[name])
            finally:
                if name == "one_worker":
                    if previous is None:
                        del os.environ[THREADS_ENV_VAR]
                    else:
                        os.environ[THREADS_ENV_VAR] = previous
        busy += group.latencies[-1]
        i += 1
    return groups, totals, problems, kinds


def _timing(latencies: list[float], completed: int, cycles: int) -> dict:
    busy = sum(latencies)
    ordered = sorted(latencies)
    n = len(ordered)
    # The tail is the highest percentile with TAIL_BEYOND samples beyond
    # it; a traced run may have too few untraced ops for one.
    return {
        "ops_per_s": completed / busy,
        "cycles_per_s": cycles / busy,
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": ordered[n - TAIL_BEYOND - 1] * 1e3 if n > TAIL_BEYOND else None,
    }


def end_to_end(groups, setup_samples: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics over the untraced ops of a run, at reference
    speed; the same figures in plain wall time go into the record."""
    group = groups["plain"]
    n = group.attempted
    completed = n - group.failed
    metrics = _timing(group.scaled, completed, group.cycles)
    metrics["setup_s"] = statistics.median(s for _raw, s in setup_samples)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = _timing(group.latencies, completed, group.cycles)
    wall["setup_s"] = statistics.median(raw for raw, _s in setup_samples)
    extra = {
        "op_tail_percentile": 100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else None,
        "op_tail_samples_beyond": TAIL_BEYOND,
        "op_samples": n,
        "failed_op_ratio": group.failed / n,
        "setup_samples_s": setup_samples,
        "wall_clock": wall,
        "speed_factor_median": statistics.median(
            raw / s for raw, s in zip(group.latencies, group.scaled)
        ),
    }
    return metrics, extra


# Function key and the figures reported for it: "calls" and "self_ms"
# are totals over the traced ops divided by their number; any other field
# is a work count divided by the function's calls.
_FUNCTION_METRICS = (
    ("cli.main", ("calls", "self_ms")),
    ("phasemap.sweep", ("calls", "self_ms", "cells")),
    ("phasemap.export", ("self_ms", "bytes")),
    ("phasemap.export_to_path", ("self_ms",)),
    ("phasemap.read_cells", ("self_ms", "cells")),
    ("phasemap.trace_zero_work_boundary", ("self_ms",)),
    ("cycle.assemble_ledger", ("calls", "self_ms")),
    ("cycle.classify_mode", ("calls", "self_ms")),
    ("magnetometry.ingest_csv", ("self_ms",)),
    ("magnetometry.fit_bleaney_bowers", ("self_ms", "iterations")),
    ("magnetometry.engine_curve", ("self_ms", "points")),
    ("magnetometry.engine_curve_csv", ("self_ms",)),
    ("core.gibbs_oracle", ("calls", "self_ms")),
)
_COUNT_UNITS = {"cells": "cells/call", "bytes": "B/call", "iterations": "iter/call",
                "points": "points/call"}
STATE_FUNCTIONS = ("populations", "entropy", "internal_energy",
                   "dimensionless_susceptibility", "molar_susceptibility")
LAYER_NAMES = tuple(tracing.layer_name(m) for m in tracing.LAYERS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(groups, totals, workload, mods) -> tuple[dict, dict]:
    """Per-layer metrics (value, unit) from the traced ops of a run."""
    t = totals["traced"]
    ops = t.ops
    out: dict[str, tuple[float, str]] = {}
    for key, fields in _FUNCTION_METRICS:
        for field in fields:
            if field == "calls":
                out[f"{key}.calls"] = (_ratio(t.calls[key], ops), "calls/op")
            elif field == "self_ms":
                out[f"{key}.self_ms"] = (_ratio(t.self_s[key] * 1e3, ops), "ms/op")
            else:
                value = _ratio(t.counts[key, field], t.calls[key])
                out[f"{key}.{field}"] = (value, _COUNT_UNITS[field])
    out["cli.stdout_bytes"] = (_ratio(groups["traced"].stdout_bytes, ops), "B/op")

    one = totals["one_worker"]
    out["phasemap.sweep.one_worker.self_ms"] = (
        _ratio(one.self_s["phasemap.sweep"] * 1e3, one.ops), "ms/op")
    resolve = getattr(mods["phasemap"], "resolve_thread_count", None)
    cells = getattr(workload, "steps", 0) ** 2
    out["phasemap.sweep.auto_workers"] = (
        float(resolve(cells)) if resolve is not None and cells else 0.0, "workers")

    trace_key = "phasemap.trace_zero_work_boundary"
    out[f"{trace_key}.work_evals"] = (
        _ratio(t.child_count(trace_key, "kernels."), t.calls[trace_key]), "evals/call")
    fit_key = "magnetometry.fit_bleaney_bowers"
    jacobians = t.child_count(fit_key, "magnetometry.bleaney_bowers_jacobian")
    out["magnetometry.fit.accepted_per_iteration"] = (
        _ratio(jacobians - t.calls[fit_key], t.counts[fit_key, "iterations"]), "ratio")

    kernel_s = t.layer_self_s("kernels")
    elements = t.layer_count("kernels", "elements")
    out["kernels.calls"] = (_ratio(t.layer_calls("kernels"), ops), "calls/op")
    out["kernels.self_ms"] = (_ratio(kernel_s * 1e3, ops), "ms/op")
    out["kernels.elements"] = (_ratio(elements, ops), "elem/op")
    out["kernels.bytes_computed"] = (_ratio(t.layer_count("kernels", "bytes"), ops), "B/op")
    out["kernels.ns_per_element"] = (_ratio(kernel_s * 1e9, elements), "ns/elem")

    state_keys = [f"core.{name}" for name in STATE_FUNCTIONS]
    out["core.state_functions.calls"] = (
        _ratio(sum(t.calls[k] for k in state_keys), ops), "calls/op")
    out["core.state_functions.self_ms"] = (
        _ratio(sum(t.self_s[k] for k in state_keys) * 1e3, ops), "ms/op")

    for layer in LAYER_NAMES:
        out[f"layer.{layer}.self_ms"] = (_ratio(t.layer_self_s(layer) * 1e3, ops), "ms/op")

    plain = statistics.median(groups["plain"].scaled)
    traced = statistics.median(groups["traced"].scaled) if ops else plain
    out["trace.overhead_ratio"] = (traced / plain - 1.0, "ratio")
    attributed = sum(t.self_s.values())
    out["trace.unattributed_share"] = (_ratio(t.op_wall_s - attributed, t.op_wall_s), "ratio")
    extra = {"traced_ops": ops, "one_worker_ops": one.ops,
             "untraced_ops": groups["plain"].attempted}
    return out, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mods, workload, specs = setup(args.workload, args.seed)
    except package.PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    groups, totals, problems, kinds = measure(
        workload, specs, args.seconds, bool(args.trace), mods
    )
    refs_ok, refs = check_references()
    attempted = sum(g.attempted for g in groups.values())
    failed = sum(g.failed for g in groups.values())

    e2e, e2e_extra = end_to_end(groups, setup_samples)
    if args.trace:
        layered, layer_extra = per_layer(groups, totals, workload, mods)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layered.items()}
    else:
        layer_extra = {}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "op_kinds": dict(kinds),
        "problems": problems,
        "references": refs,
        "environment": package.environment(mods),
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "end_to_end_extra": e2e_extra,
        "per_layer_extra": layer_extra,
        "metrics": metrics,
    }
    results = package.OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        print(f"{'op_tail_percentile':48s} {e2e_extra['op_tail_percentile']:>16.6g} %"
              f" ({TAIL_BEYOND} of {e2e_extra['op_samples']} samples beyond)")
    print(f"{'failed_op_ratio':48s} {failed / attempted:>16.6g} ratio")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": failed == 0 and refs_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
