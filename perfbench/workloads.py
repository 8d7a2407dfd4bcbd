"""The benchmark's workloads: seeded inputs, the timed op, and its checks.

Each workload is a closed loop with one client.  A workload object
offers:

``make_inputs(rng)``   a pool of op specs drawn from the seed (setup);
``warm_up()``          one small op of every kind (setup);
``run(spec)``          the op itself, the only timed call;
``observe(spec, raw)`` reads what the op produced (untimed);
``check(spec, obs)``   None when the output is right, else the problem;
``corrupt(spec, obs)`` a deliberately wrong copy, for the self-test;
``cycles(spec)``       Stirling cycles the op evaluates.

``observe`` returns a dict whose ``payload`` (a tuple of byte strings)
is everything the op wrote, files and stdout, so traced and untraced
runs can be compared.
Checks recompute expected values through paths other than the one under
test: scalar ledgers against grid cells, free energies against reported
work, the Gibbs oracle against closed forms.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np

import package
import reference

# Cells re-derived through the scalar ledger per map op.
SAMPLE_CELLS = 48
# Specs drawn per run; ops cycle through the pool.  A map op takes
# seconds, a small-mix op milliseconds.
MAP_POOL = 64
MIX_POOL = 4096

_CSV_HEADER = b"coupling_ratio,temp_ratio,mode,work,q_in,q_out,eta_over_carnot"
_MODE_TOKENS = (
    "heat_engine", "refrigerator", "accelerator", "heater", "carnot", "forbidden",
)


def _draw_maps(rng, steps: int) -> list[tuple[str, float, float, tuple[int, ...]]]:
    """Seeded mode maps: branch, anchor j_b and t_cold, plus the cells the
    check re-derives.

    |j_b| in [20, 60] K and t_cold in [10, 30] K follow a quasi-random
    (R2) sequence from a seeded start, so every run's first ops cover the
    anchor box evenly instead of by the luck of the draw.  A map's cost
    depends on its branch (b-negative maps hold about twice the engine
    cells of b-positive ones), so the branches repeat as two b-negative
    (the stock branch) to one b-positive: with equal shares the median op
    would sit on the boundary between the two branches' costs.
    """
    start = rng.random(2).tolist()
    maps = []
    for k in range(MAP_POOL):
        u = (start[0] + k * 0.7548776662466927) % 1.0
        v = (start[1] + k * 0.5698402909980532) % 1.0
        magnitude, t_cold = 20.0 + 40.0 * u, 10.0 + 20.0 * v
        sample = tuple(rng.choice(steps * steps, size=SAMPLE_CELLS, replace=False).tolist())
        if k % 3 != 2:
            maps.append(("b-negative", -magnitude, t_cold, sample))
        else:
            maps.append(("b-positive", magnitude, t_cold, sample))
    return maps


def _check_cell(mods, j_b, t_cold, ratio, temp_ratio, mode, work, q_in, q_out):
    """Compare one grid cell with the scalar ledger and classification.

    The only difference allowed is the documented demotion of an engine
    whose efficiency ratio escapes (0, 1) to an accelerator.
    """
    cycle = mods["cycle"]
    j_a = ratio * j_b
    t_hot = temp_ratio * t_cold
    if j_a == j_b:
        # A zero-width cycle is no valid CycleSpec; the grid gives it the
        # limiting values: no work, the two isochoric heats cancel, and
        # the (0, +, -) pattern classifies as an accelerator.
        if work == 0.0 and q_in == -q_out > 0.0 and mode == "accelerator":
            return None
        return f"zero-width cell at {temp_ratio!r}: W={work!r}, q_in={q_in!r}, {mode}"
    spec = cycle.CycleSpec.from_values(j_a, j_b, t_hot, t_cold)
    ledger = cycle.assemble_ledger(spec)
    expected = cycle.classify_mode(ledger)
    scale = max(abs(ledger.q_ab), abs(ledger.q_bc), abs(ledger.q_cd), abs(ledger.q_da))
    tol = max(1e-12 * scale, reference.roundoff_floor(j_a, j_b, t_hot, t_cold))
    for name, got, want in (
        ("work", work, ledger.work),
        ("q_in", q_in, ledger.q_in),
        ("q_out", q_out, ledger.q_out),
    ):
        if not reference.close(got, want, tol):
            return f"cell ({ratio!r}, {temp_ratio!r}) {name} {got!r} != scalar {want!r}"
    demoted = mode == "accelerator" and expected.value == "heat_engine"
    if mode != expected.value and not demoted:
        return f"cell ({ratio!r}, {temp_ratio!r}) mode {mode} != scalar {expected.value}"
    return None


def _axes(steps: int, ratio=(-3.0, 3.0), temp=(1.005, 3.0)):
    return (
        np.linspace(ratio[0], ratio[1], steps).tolist(),
        np.linspace(temp[0], temp[1], steps).tolist(),
    )


class MapCsv:
    """``spin-stirling sweep`` on a seeded 400x400 grid, CSV to a file."""

    name = "map-400"
    steps = 400

    def __init__(self, mods):
        self.mods = mods
        self.out = package.scratch_dir() / f"{self.name}.csv"
        self.ratio_axis, self.temp_axis = _axes(self.steps)

    def make_inputs(self, rng):
        return _draw_maps(rng, self.steps)

    def _argv(self, spec, steps):
        branch, j_b, t_cold, _sample = spec
        return [
            "sweep", f"--branch={branch}", f"--jb-k={j_b!r}", f"--tc={t_cold!r}",
            "--ratio-min=-3", "--ratio-max=3", f"--ratio-steps={steps}",
            "--tr-min=1.005", "--tr-max=3", f"--tr-steps={steps}",
            f"--out={self.out}",
        ]

    def warm_up(self):
        package.run_cli(self.mods, self._argv(("b-negative", -32.0, 20.0, ()), 16))

    def run(self, spec):
        return package.run_cli(self.mods, self._argv(spec, self.steps))

    def observe(self, spec, raw):
        code, stdout, stderr = raw
        data = self.out.read_bytes() if code == 0 else b""
        return {
            "code": code,
            "stdout": stdout,
            "stderr": stderr,
            "csv": data,
            "payload": (stdout.encode("utf-8"), data),
            "stdout_bytes": len(stdout.encode("utf-8")),
        }

    def check(self, spec, obs):
        if obs["code"] != 0:
            return f"exit {obs['code']}: {obs['stderr'].strip()[:200]}"
        n = self.steps
        stdout = dict(
            line.split(" ", 1) for line in obs["stdout"].splitlines()
            if line and not line.startswith("#")
        )
        if stdout.get("cells") != str(n * n):
            return f"stdout reports {stdout.get('cells')} cells, expected {n * n}"
        data = obs["csv"]
        # Row k runs from ends[k] + 1 to ends[k + 1]; offsets keep the
        # check's memory small next to the op's own.
        ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")).tolist()
        if data[: len(_CSV_HEADER) + 1] != _CSV_HEADER + b"\n" or len(ends) != n * n + 1 \
                or ends[-1] != len(data) - 1:
            return "CSV header, row count or final newline is wrong"
        for token in _MODE_TOKENS:
            found = data.count(b"," + token.encode() + b",")
            if str(found) != stdout.get(token):
                return f"{token}: {found} rows in the CSV, stdout says {stdout.get(token)}"
        _branch, j_b, t_cold, sample = spec
        for k in sample:
            row = data[ends[k] + 1 : ends[k + 1]].decode().split(",")
            ratio, temp_ratio = float(row[0]), float(row[1])
            if ratio != self.ratio_axis[k % n] or temp_ratio != self.temp_axis[k // n]:
                return f"row {k} axes ({ratio!r}, {temp_ratio!r}) are off the grid"
            problem = _check_cell(
                self.mods, j_b, t_cold, ratio, temp_ratio, row[2],
                float(row[3]), float(row[4]), float(row[5]),
            )
            if problem:
                return problem
        return None

    def corrupt(self, spec, obs):
        bad = re.sub(rb",[a-z_]+,", b",carnot,", obs["csv"])
        return dict(obs, csv=bad, payload=(obs["payload"][0], bad))

    def cycles(self, spec):
        return self.steps * self.steps


class MapJsonReadback:
    """Library sweep of a seeded 200x200 grid, JSON export, ``read_cells``."""

    name = "map-json-readback"
    steps = 200

    def __init__(self, mods):
        self.mods = mods
        self.out = package.scratch_dir() / f"{self.name}.json"
        self.ratio_axis, self.temp_axis = _axes(self.steps)

    def make_inputs(self, rng):
        return _draw_maps(rng, self.steps)

    def _grid(self, spec, ratio_axis, temp_axis):
        branch, j_b, t_cold, _sample = spec
        phasemap = self.mods["phasemap"]
        return phasemap.SweepGrid(
            coupling_ratio_axis=tuple(ratio_axis),
            temp_ratio_axis=tuple(temp_axis),
            anchor=phasemap.GridAnchor(
                j_b=self.mods["core"].Coupling(j_b), t_cold=t_cold
            ),
            branch=phasemap.Branch.from_token(branch),
        )

    def _roundtrip(self, grid):
        phasemap = self.mods["phasemap"]
        cells = phasemap.sweep(grid)
        phasemap.export_to_path(cells, str(self.out), format="json")
        return phasemap.read_cells(self.out.read_bytes(), format="json")

    def warm_up(self):
        ratio, temp = _axes(16)
        self._roundtrip(self._grid(("b-negative", -32.0, 20.0, ()), ratio, temp))

    def run(self, spec):
        return self._roundtrip(self._grid(spec, self.ratio_axis, self.temp_axis))

    def observe(self, spec, raw):
        data = self.out.read_bytes()
        return {"cells": raw, "payload": (data,)}

    def check(self, spec, obs):
        cells = obs["cells"]
        n = self.steps
        if len(cells) != n * n:
            return f"{len(cells)} cells re-read, expected {n * n}"
        if [cells[k].coupling_ratio for k in range(n)] != self.ratio_axis:
            return "re-read coupling-ratio axis differs from the grid"
        if [cells[k * n].temp_ratio for k in range(n)] != self.temp_axis:
            return "re-read temperature-ratio axis differs from the grid"
        _branch, j_b, t_cold, sample = spec
        for k in sample:
            cell = cells[k]
            if (cell.coupling_ratio, cell.temp_ratio) != (
                self.ratio_axis[k % n], self.temp_axis[k // n]
            ):
                return f"cell {k} sits off its grid position"
            problem = _check_cell(
                self.mods, j_b, t_cold, cell.coupling_ratio, cell.temp_ratio,
                cell.mode.value, cell.work, cell.q_in, cell.q_out,
            )
            if problem:
                return problem
        return None

    def corrupt(self, spec, obs):
        bad = [dataclasses.replace(c, work=c.work + 1.0) for c in obs["cells"]]
        return dict(obs, cells=bad)

    def cycles(self, spec):
        return self.steps * self.steps


def _draw_cycle(rng) -> tuple[float, float, float, float]:
    """One cycle from the acceptance tests' random-cycle domain.

    Couplings in [-200, 200] K, nonzero and distinct; both baths in
    [5, 400] K with a temperature ratio in (1, 10]; rejection keeps the
    hot bath in range.
    """
    while True:
        j_a = float(rng.uniform(-200.0, 200.0))
        j_b = float(rng.uniform(-200.0, 200.0))
        t_cold = float(rng.uniform(5.0, 400.0))
        t_hot = t_cold * float(rng.uniform(1.0 + 1e-9, 10.0))
        if t_hot <= 400.0 and j_a != 0.0 and j_b != 0.0 and j_a != j_b:
            return j_a, j_b, t_hot, t_cold


class SmallMix:
    """A seeded stream of small requests with fixed shares of each kind."""

    name = "small-mix"
    SHARES = {"cycle": 0.4, "curve": 0.2, "fit": 0.2, "trace": 0.1, "table": 0.1}
    CURVE_POINTS = 330
    TABLE_POINTS = 100
    FITS = (
        (reference.AMBIENT_DATASET, False),
        (reference.AMBIENT_DATASET, True),
        (reference.PRESSURE_DATASET, False),
        (reference.PRESSURE_DATASET, True),
    )

    def __init__(self, mods):
        self.mods = mods
        self.out = package.scratch_dir() / f"{self.name}-curve.csv"
        self.stock_grid = mods["phasemap"].SweepGrid.default()
        self.fit_digest = reference.load_references()["fit_ambient_default.json"]
        self.data_paths = {
            name: reference.dataset_path(mods, name) for name, _free_g in self.FITS
        }

    def make_inputs(self, rng):
        # Shares are exact in every block of ten ops, so the latency
        # quantiles do not move with the seed's luck of the draw.
        block = [kind for kind, share in self.SHARES.items() for _ in range(round(10 * share))]
        kinds = [k for _ in range(MIX_POOL // len(block)) for k in rng.permutation(block).tolist()]
        return [self._draw(kind, rng) for kind in kinds]

    def _draw(self, kind, rng):
        if kind == "cycle":
            return ("cycle", _draw_cycle(rng))
        if kind == "curve":
            j_a, j_b, _t_hot, _t_cold = _draw_cycle(rng)
            t_cold = float(rng.uniform(5.0, 50.0))
            th_min = t_cold * float(rng.uniform(1.01, 1.5))
            th_max = th_min + float(rng.uniform(50.0, 350.0))
            return ("curve", (j_a, j_b, t_cold, th_min, th_max))
        if kind == "fit":
            return ("fit", self.FITS[int(rng.integers(len(self.FITS)))])
        if kind == "trace":
            return ("trace", float(rng.uniform(1.005, 3.0)))
        j = rng.uniform(-200.0, 200.0, size=self.TABLE_POINTS)
        t = rng.uniform(5.0, 400.0, size=self.TABLE_POINTS)
        return ("table", tuple(zip(j.tolist(), t.tolist())))

    def warm_up(self):
        rng = np.random.default_rng(0)
        for kind in self.SHARES:
            spec = self._draw(kind, rng)
            self.observe(spec, self.run(spec))

    def run(self, spec):
        kind, params = spec
        if kind == "cycle":
            j_a, j_b, t_hot, t_cold = params
            return package.run_cli(self.mods, [
                "cycle", f"--ja-k={j_a!r}", f"--jb-k={j_b!r}",
                f"--th={t_hot!r}", f"--tc={t_cold!r}", "--json",
            ])
        if kind == "curve":
            j_a, j_b, t_cold, th_min, th_max = params
            return package.run_cli(self.mods, [
                "engine-curve", f"--ja-k={j_a!r}", f"--jb-k={j_b!r}",
                f"--tc={t_cold!r}", f"--th-min={th_min!r}", f"--th-max={th_max!r}",
                f"--steps={self.CURVE_POINTS}", f"--out={self.out}",
            ])
        if kind == "fit":
            dataset, free_g = params
            argv = ["fit", f"--data={self.data_paths[dataset]}"]
            return package.run_cli(self.mods, argv + (["--free-g"] if free_g else []))
        if kind == "trace":
            return self.mods["phasemap"].trace_zero_work_boundary(self.stock_grid, params)
        core = self.mods["core"]
        rows = []
        for j, t in params:
            point = core.ThermalPoint.from_values(j, t)
            rows.append((
                core.populations(point),
                core.entropy(point),
                core.internal_energy(point),
                core.gibbs_oracle(point),
            ))
        return rows

    def observe(self, spec, raw):
        kind = spec[0]
        if kind in ("cycle", "curve", "fit"):
            code, stdout, stderr = raw
            data = self.out.read_bytes() if kind == "curve" and code == 0 else b""
            return {
                "code": code, "stdout": stdout, "stderr": stderr, "file": data,
                "payload": (stdout.encode("utf-8"), data),
                "stdout_bytes": len(stdout.encode("utf-8")),
            }
        if kind == "trace":
            return {"roots": raw, "payload": (repr(raw).encode(),)}
        flat = [
            (p.as_tuple(), s, u, o.populations.as_tuple(), o.entropy, o.internal_energy)
            for p, s, u, o in raw
        ]
        return {"rows": flat, "payload": (repr(flat).encode(),)}

    def check(self, spec, obs):
        kind, params = spec
        if "code" in obs and obs["code"] != 0:
            return f"{kind}: exit {obs['code']}: {obs['stderr'].strip()[:200]}"
        return getattr(self, f"_check_{kind}")(params, obs)

    def _check_cycle(self, params, obs):
        j_a, j_b, t_hot, t_cold = params
        report = json.loads(obs["stdout"])
        if report["config"] != {"ja_k": j_a, "jb_k": j_b, "th": t_hot, "tc": t_cold}:
            return f"cycle report echoes {report['config']}, not its inputs"
        ledger = report["ledger_k_kb"]
        q = [ledger[k] for k in ("q_ab", "q_bc", "q_cd", "q_da")]
        floor = reference.roundoff_floor(j_a, j_b, t_hot, t_cold)
        tol = max(1e-10 * max(*map(abs, q), abs(ledger["work"])), floor)
        if abs(ledger["work"] - sum(q)) > tol:
            return f"cycle report breaks the first law: W={ledger['work']!r}, sum Q={sum(q)!r}"
        if ledger["q_in"] != q[0] + q[3] or ledger["q_out"] != q[1] + q[2]:
            return "cycle report q_in/q_out are not the stroke sums"
        independent = float(reference.net_work(j_a, j_b, t_hot, t_cold))
        if abs(ledger["work"] - independent) > tol + floor:
            return f"cycle work {ledger['work']!r} != free-energy work {independent!r}"
        return None

    def _check_curve(self, params, obs):
        j_a, j_b, t_cold, th_min, th_max = params
        rows = obs["file"].decode().splitlines()
        if len(rows) != self.CURVE_POINTS + 1:
            return f"engine curve has {len(rows) - 1} rows, expected {self.CURVE_POINTS}"
        axis = np.linspace(th_min, th_max, self.CURVE_POINTS).tolist()
        kb = self.mods["package"].KB_EV_PER_K
        engines = 0
        for t_hot, row in zip(axis, rows[1:]):
            f = row.split(",")
            if float(f[0]) != t_hot:
                return f"engine-curve row at {f[0]} is off the axis"
            q = [float(v) for v in f[1:5]]
            floor = reference.roundoff_floor(j_a, j_b, t_hot, t_cold) * kb
            work = float(f[5])
            tol = max(1e-10 * max(*map(abs, q), abs(work)), floor)
            if abs(work - sum(q)) > tol:
                return f"engine-curve row at {t_hot!r} K breaks the first law"
            engines += f[8] == "heat_engine"
            if (f[6] != "") != (f[8] == "heat_engine"):
                return f"engine-curve row at {t_hot!r} K: eta present for mode {f[8]}"
        summary = f"points {self.CURVE_POINTS} heat_engine {engines}"
        if summary not in obs["stdout"].splitlines():
            return f"engine-curve stdout does not report '{summary}'"
        return None

    def _check_fit(self, params, obs):
        dataset, free_g = params
        report = json.loads(obs["stdout"])
        if report["converged"] is not True or not math.isfinite(report["j_over_kb_K"]):
            return f"fit of {dataset} did not converge to a finite coupling"
        if dataset == reference.AMBIENT_DATASET and not free_g:
            if (report["j_over_kb_K"], report["iterations"]) != (
                reference.AMBIENT_FIT_J, reference.AMBIENT_FIT_ITERATIONS
            ):
                return f"ambient fit gave J={report['j_over_kb_K']!r} in {report['iterations']} iterations"
            if reference.sha256(obs["stdout"].encode("utf-8")) != self.fit_digest:
                return "ambient fit report differs from the reference bytes"
        return None

    def _check_trace(self, temp_ratio, obs):
        roots = obs["roots"]
        axis = self.stock_grid.coupling_ratio_axis
        if roots != sorted(roots) or not roots:
            return f"zero-work roots {roots!r} are empty or unsorted"
        j_b = self.stock_grid.anchor.j_b.j_over_kb
        t_cold = self.stock_grid.anchor.t_cold
        for root in roots:
            if not axis[0] <= root <= axis[-1]:
                return f"zero-work root {root!r} lies off the axis"
            d = 1e-7 * max(1.0, abs(root))
            below, above = reference.net_work(
                np.array([root - d, root + d]) * j_b, j_b, temp_ratio * t_cold, t_cold
            ).tolist()
            if below * above > 0.0:
                return f"no work sign change around root {root!r} at T_h/T_c={temp_ratio!r}"
        return None

    def _check_table(self, params, obs):
        for (j, _t), (pops, s, u, o_pops, o_s, o_u) in zip(params, obs["rows"]):
            if max(abs(a - b) for a, b in zip(pops, o_pops)) > 1e-12:
                return f"populations at J={j!r} differ from the Gibbs oracle"
            if abs(s - o_s) > 1e-12 or abs(u - o_u) > 1e-12 * max(1.0, abs(o_u)):
                return f"entropy or energy at J={j!r} differs from the Gibbs oracle"
        if len(obs["rows"]) != len(params):
            return "state table is missing rows"
        return None

    def corrupt(self, spec, obs):
        kind = spec[0]
        if kind == "cycle":
            report = json.loads(obs["stdout"])
            report["ledger_k_kb"]["q_ab"] += 1.0
            return dict(obs, stdout=json.dumps(report))
        if kind == "curve":
            rows = obs["file"].split(b"\n")
            fields = rows[1].split(b",")
            fields[5] = repr(float(fields[5]) + 1.0).encode()
            rows[1] = b",".join(fields)
            return dict(obs, file=b"\n".join(rows))
        if kind == "fit":
            report = json.loads(obs["stdout"])
            report["converged"] = False
            return dict(obs, stdout=json.dumps(report))
        if kind == "trace":
            return dict(obs, roots=[r + 0.01 for r in obs["roots"]])
        rows = [(p, s + 1e-9, u, op, os_, ou) for p, s, u, op, os_, ou in obs["rows"]]
        return dict(obs, rows=rows)

    def cycles(self, spec):
        kind = spec[0]
        if kind == "cycle":
            return 1
        if kind == "curve":
            return self.CURVE_POINTS
        return 0


WORKLOADS = {w.name: w for w in (MapCsv, MapJsonReadback, SmallMix)}
