"""Command-line surface for the spin-stirling package.

Four subcommands wrap the library: ``cycle`` evaluates one Stirling
cycle, ``sweep`` writes a mode map over the ratio plane, ``fit``
performs a Bleaney-Bowers fit of a susceptibility CSV, and
``engine-curve`` tabulates the cycle against the hot-bath temperature.

Every parameter can come from a flat INI config file (one section per
subcommand, keys equal to the long flag names with dashes replaced by
underscores); explicit flags override the file.  The fully resolved
parameter set is echoed with the output so a run can be reproduced from
its artifacts alone.  Outputs are deterministic byte for byte.

Exit codes: 0 success, 2 validation failure, 3 I/O failure, 4 data or
fit failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import importlib.resources
import json
import math
import sys
from typing import Any, Callable, Sequence

import numpy as np

from .constants import KB_EV_PER_K
from .core import Coupling
from .cycle import CycleSpec, OperationMode, _evaluate_cycles, carnot_efficiency
from .errors import (
    DataFormatError,
    InvariantViolation,
    ModeError,
    SpinStirlingError,
    ValidationError,
)
from .magnetometry import (
    FixG,
    FreeG,
    engine_curve,
    engine_curve_csv,
    fit_bleaney_bowers,
    fit_report_json,
    ingest_csv,
)
from .phasemap import Branch, GridAnchor, SweepGrid, export_to_path, sweep

__all__ = ["main", "console_entry", "schema_text"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_DATA = 4


def schema_text(name: str) -> str:
    """Return the shipped JSON schema for ``name``.

    ``name`` is the schema stem, one of ``cycle_report``, ``fit_report``,
    or ``mode_map``; the ``.schema.json`` suffix may be included or left
    off.
    """
    if not name.endswith(".schema.json"):
        name = f"{name}.schema.json"
    resource = importlib.resources.files("spin_stirling") / "schemas" / name
    return resource.read_text(encoding="utf-8")


@dataclasses.dataclass(frozen=True)
class _Param:
    """One resolvable CLI parameter: flag, config key, type, default.

    A ``_parse_bool`` parameter is a ``store_true`` flag on the command
    line and a parsed boolean in the config file.
    """

    name: str
    kind: Callable[[str], Any]
    default: Any = None
    required: bool = False
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"cannot interpret {text!r} as a boolean")


_CYCLE_PARAMS = (
    _Param("ja_k", float, required=True, help="J_A/k_B in K"),
    _Param("jb_k", float, required=True, help="J_B/k_B in K"),
    _Param("th", float, required=True, help="hot bath temperature in K"),
    _Param("tc", float, required=True, help="cold bath temperature in K"),
    _Param("json", _parse_bool, default=False, help="emit a JSON report"),
)

_SWEEP_PARAMS = (
    _Param(
        "branch", str, default="b-negative", help="b-negative (default) or b-positive"
    ),
    _Param("jb_k", float, default=None, help="anchor J_B/k_B in K"),
    _Param("tc", float, default=20.0, help="anchor cold temperature in K"),
    _Param("ratio_min", float, default=-3.0),
    _Param("ratio_max", float, default=3.0),
    _Param("ratio_steps", int, default=400),
    _Param("tr_min", float, default=1.005),
    _Param("tr_max", float, default=3.0),
    _Param("tr_steps", int, default=400),
    _Param("format", str, default="csv", help="csv (default) or json"),
    _Param("out", str, required=True, help="output file path"),
)

_FIT_PARAMS = (
    _Param("data", str, required=True, help="input CSV path"),
    _Param("fix_g", float, default=None, help="fit J with g fixed"),
    _Param("free_g", _parse_bool, default=False, help="fit J and g together"),
    _Param("g_init", float, default=None, help="starting g for --free-g"),
    _Param(
        "out", str, default=None, help="write the JSON report here instead of stdout"
    ),
)

_CURVE_PARAMS = (
    _Param("ja_k", float, required=True),
    _Param("jb_k", float, required=True),
    _Param("tc", float, required=True),
    _Param("th_min", float, required=True),
    _Param("th_max", float, required=True),
    _Param("steps", int, required=True),
    _Param("out", str, required=True, help="output CSV path"),
)

#: Subcommand name -> (help line, parameters).
_COMMANDS = {
    "cycle": ("evaluate one Stirling cycle", _CYCLE_PARAMS),
    "sweep": ("write a mode map over the ratio plane", _SWEEP_PARAMS),
    "fit": ("fit a susceptibility CSV", _FIT_PARAMS),
    "engine-curve": (
        "tabulate the cycle against the hot-bath temperature",
        _CURVE_PARAMS,
    ),
}


def _load_config_section(path: str, section: str) -> dict[str, str]:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except configparser.Error as exc:
        raise ValidationError(f"cannot parse config file {path}: {exc}") from exc
    if not parser.has_section(section):
        return {}
    return dict(parser.items(section))


def _resolve_params(ns: argparse.Namespace, command: str) -> dict[str, Any]:
    """Merge defaults, config-file values, and explicit flags.

    Precedence, lowest to highest: built-in default, config file
    section, command-line flag.  Unknown config keys are rejected so a
    typo cannot silently fall back to a default.
    """
    _, params = _COMMANDS[command]
    by_name = {p.name: p for p in params}
    resolved: dict[str, Any] = {p.name: p.default for p in params}

    config_path = getattr(ns, "config", None)
    if config_path is not None:
        section = _load_config_section(config_path, command)
        for key, raw in section.items():
            if key not in by_name:
                raise ValidationError(
                    f"unknown key {key!r} in config section [{command}]"
                )
            try:
                resolved[key] = by_name[key].kind(raw)
            except ValidationError:
                raise
            except ValueError as exc:
                raise ValidationError(
                    f"config key {key!r}: cannot parse value {raw!r}"
                ) from exc

    for param in params:
        flag_value = getattr(ns, param.name)
        if flag_value is not None:
            resolved[param.name] = flag_value

    for param in params:
        if param.required and resolved[param.name] is None:
            raise ValidationError(f"missing required parameter {param.flag}")
    return resolved


def _echo_lines(resolved: dict[str, Any]) -> list[str]:
    return [f"# {key} = {value!r}" for key, value in resolved.items()]


def _cmd_cycle(ns: argparse.Namespace) -> int:
    resolved = _resolve_params(ns, "cycle")
    spec = CycleSpec(
        j_a=Coupling(resolved["ja_k"]),
        j_b=Coupling(resolved["jb_k"]),
        t_hot=resolved["th"],
        t_cold=resolved["tc"],
    )
    ledger, mode, eta = next(
        _evaluate_cycles(
            spec.j_a.j_over_kb, spec.j_b.j_over_kb, spec.t_hot, spec.t_cold
        ).rows()
    )
    eta_carnot = carnot_efficiency(spec.t_hot, spec.t_cold)

    ledger_fields = ("q_ab", "q_bc", "q_cd", "q_da", "work", "q_in", "q_out")
    config_echo = {k: resolved[k] for k in ("ja_k", "jb_k", "th", "tc")}

    if resolved["json"]:
        payload = {
            "config": config_echo,
            "ledger_k_kb": {f: getattr(ledger, f) for f in ledger_fields},
            "ledger_ev": {
                f: getattr(ledger, f) * KB_EV_PER_K for f in ledger_fields
            },
            "mode": mode.token,
            "eta": eta,
            "eta_carnot": eta_carnot,
        }
        print(json.dumps(payload, indent=2, allow_nan=False))
        return EXIT_OK

    for line in _echo_lines(config_echo):
        print(line)
    print(f"{'quantity':<10}{'kelvin*k_B':>22}{'eV':>18}")
    for field in ledger_fields:
        value = getattr(ledger, field)
        print(f"{field:<10}{value:>22.12g}{value * KB_EV_PER_K:>18.6e}")
    print(f"mode       {mode.token}")
    if eta is not None:
        print(f"eta        {eta:.12g}")
    print(f"eta_carnot {eta_carnot:.12g}")
    return EXIT_OK


def _cmd_sweep(ns: argparse.Namespace) -> int:
    resolved = _resolve_params(ns, "sweep")
    branch = Branch.from_token(resolved["branch"])
    if resolved["jb_k"] is None:
        resolved["jb_k"] = -32.0 if branch is Branch.B_NEGATIVE else 32.0
    if resolved["format"] not in ("csv", "json"):
        raise ValidationError(
            f"--format must be 'csv' or 'json', got {resolved['format']!r}"
        )
    for steps_key in ("ratio_steps", "tr_steps"):
        if resolved[steps_key] < 1:
            raise ValidationError(f"--{steps_key.replace('_', '-')} must be >= 1")

    grid = SweepGrid(
        coupling_ratio_axis=tuple(
            np.linspace(
                resolved["ratio_min"], resolved["ratio_max"], resolved["ratio_steps"]
            ).tolist()
        ),
        temp_ratio_axis=tuple(
            np.linspace(
                resolved["tr_min"], resolved["tr_max"], resolved["tr_steps"]
            ).tolist()
        ),
        anchor=GridAnchor(j_b=Coupling(resolved["jb_k"]), t_cold=resolved["tc"]),
        branch=branch,
    )
    cells = sweep(grid)
    export_to_path(cells, resolved["out"], format=resolved["format"])

    counts = np.bincount(cells.mode_code, minlength=len(OperationMode))
    for line in _echo_lines(resolved):
        print(line)
    print(f"cells {len(cells)}")
    for mode, count in zip(OperationMode, counts.tolist()):
        print(f"{mode.token} {count}")
    print(f"wrote {resolved['out']}")
    return EXIT_OK


def _cmd_fit(ns: argparse.Namespace) -> int:
    resolved = _resolve_params(ns, "fit")
    if resolved["fix_g"] is not None and resolved["free_g"]:
        raise ValidationError("--fix-g and --free-g are mutually exclusive")
    if resolved["g_init"] is not None and not resolved["free_g"]:
        raise ValidationError("--g-init applies only with --free-g")
    if resolved["free_g"]:
        policy = (
            FreeG(resolved["g_init"]) if resolved["g_init"] is not None else FreeG()
        )
    elif resolved["fix_g"] is not None:
        policy = FixG(resolved["fix_g"])
    else:
        policy = FixG()

    with open(resolved["data"], "rb") as handle:
        dataset = ingest_csv(handle)
    result = fit_bleaney_bowers(dataset, policy)
    report = fit_report_json(result, dataset)

    for line in _echo_lines(resolved):
        print(line, file=sys.stderr)
    if resolved["out"] is not None:
        try:
            with open(resolved["out"], "wb") as handle:
                handle.write(report)
        except OSError as exc:
            raise OSError(
                exc.errno, f"cannot write fit report: {exc.strerror}", resolved["out"]
            ) from exc
        print(f"wrote {resolved['out']}", file=sys.stderr)
    else:
        sys.stdout.write(report.decode("utf-8"))

    if not result.converged:
        print(
            f"fit did not converge after {result.iterations} iterations",
            file=sys.stderr,
        )
        return EXIT_DATA
    return EXIT_OK


def _cmd_engine_curve(ns: argparse.Namespace) -> int:
    resolved = _resolve_params(ns, "engine-curve")
    if resolved["steps"] < 1:
        raise ValidationError("--steps must be >= 1")
    if not resolved["th_min"] > resolved["tc"]:
        raise ValidationError("--th-min must exceed --tc")
    if resolved["th_max"] < resolved["th_min"]:
        raise ValidationError("--th-max must be at least --th-min")

    axis = np.linspace(
        resolved["th_min"], resolved["th_max"], resolved["steps"]
    ).tolist()
    points = engine_curve(
        j_a=Coupling(resolved["ja_k"]),
        j_b=Coupling(resolved["jb_k"]),
        t_cold=resolved["tc"],
        t_hot_axis=axis,
    )
    payload = engine_curve_csv(points)
    try:
        with open(resolved["out"], "wb") as handle:
            handle.write(payload)
    except OSError as exc:
        raise OSError(
            exc.errno, f"cannot write engine curve: {exc.strerror}", resolved["out"]
        ) from exc

    for line in _echo_lines(resolved):
        print(line)
    engine_points = sum(
        1 for p in points if p.mode is OperationMode.HEAT_ENGINE
    )
    print(f"points {len(points)} heat_engine {engine_points}")
    print(f"wrote {resolved['out']}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin-stirling",
        description=(
            "Quantum Stirling cycle of a spin-1/2 dimer: single cycles, "
            "mode maps, susceptibility fits, and engine curves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "cycle": _cmd_cycle,
        "sweep": _cmd_sweep,
        "fit": _cmd_fit,
        "engine-curve": _cmd_engine_curve,
    }
    for command, (summary, params) in _COMMANDS.items():
        sub_parser = sub.add_parser(command, help=summary)
        for param in params:
            if param.kind is _parse_bool:
                sub_parser.add_argument(
                    param.flag,
                    dest=param.name,
                    action="store_true",
                    default=None,
                    help=param.help,
                )
            else:
                sub_parser.add_argument(
                    param.flag, dest=param.name, type=param.kind, help=param.help
                )
        sub_parser.add_argument(
            "--config", help="INI config file with a section per subcommand"
        )
        sub_parser.set_defaults(handler=handlers[command])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point returning an exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_VALIDATION
    try:
        return ns.handler(ns)
    except InvariantViolation:
        # An internal consistency bug should crash loudly, not map to a
        # polite exit code.
        raise
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValidationError, ModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SpinStirlingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
