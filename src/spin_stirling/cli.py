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
import functools
import importlib.resources
import io
import json
import sys
import warnings
from typing import Any, Callable, Sequence

import numpy as np

from .constants import KB_EV_PER_K
from .core import Coupling
from ._format import decode, write
from .cycle import (
    _ENGINE,
    CycleSpec,
    OperationMode,
    StrokeLedger,
    _evaluate_cycles,
    carnot_efficiency,
)
from .errors import (
    DataFormatError,
    InvariantViolation,
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
from .phasemap import (
    Branch,
    GridAnchor,
    SweepGrid,
    _check_format,
    export_to_path,
    sweep,
)

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


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValidationError(f"cannot interpret {text!r} as a boolean") from None


_CYCLE_PARAMS = (
    _Param("ja_k", float, required=True, help="J_A/k_B in K"),
    _Param("jb_k", float, required=True, help="J_B/k_B in K"),
    _Param("th", float, required=True, help="hot bath temperature in K"),
    _Param("tc", float, required=True, help="cold bath temperature in K"),
    _Param("json", _parse_bool, default=False, help="emit a JSON report"),
)

# The grid parameters default to SweepGrid.default's, see _cmd_sweep.
_SWEEP_PARAMS = (
    _Param("branch", str, help="b-negative (default) or b-positive"),
    _Param("jb_k", float, help="anchor J_B/k_B in K"),
    _Param("tc", float, help="anchor cold temperature in K"),
    _Param("ratio_min", float),
    _Param("ratio_max", float),
    _Param("ratio_steps", int),
    _Param("tr_min", float),
    _Param("tr_max", float),
    _Param("tr_steps", int),
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


def _load_config_section(path: str, section: str) -> dict[str, str]:
    parser = configparser.ConfigParser()
    with open(path, "rb") as handle:
        text = decode(handle.read(), ValidationError, f"config file {path}")
    try:
        parser.read_file(io.StringIO(text, newline=None), source=path)
    except configparser.Error as exc:
        raise ValidationError(f"cannot parse config file {path}: {exc}") from exc
    return dict(parser.items(section)) if parser.has_section(section) else {}


def _resolve_params(
    ns: argparse.Namespace, command: str, params: tuple[_Param, ...]
) -> dict[str, Any]:
    """Merge defaults, config-file values, and explicit flags.

    Precedence, lowest to highest: built-in default, config file
    section, command-line flag.  Unknown config keys are rejected so a
    typo cannot silently fall back to a default.
    """
    by_name = {p.name: p for p in params}
    resolved: dict[str, Any] = {p.name: p.default for p in params}

    if ns.config is not None:
        section = _load_config_section(ns.config, command)
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
            raise ValidationError(f"missing required parameter {_flag(param.name)}")
    return resolved


def _echo(values: dict[str, Any], file=None) -> None:
    for key, value in values.items():
        print(f"# {key} = {value!r}", file=file)


def _axis(resolved: dict[str, Any], lo: str, hi: str, steps: str) -> list[float]:
    """``np.linspace`` over the flags ``lo``, ``hi`` and ``steps``.

    A step count below one, an infinite bound and a span beyond the
    largest double are rejected, the last two before numpy warns.
    """
    if resolved[steps] < 1:
        raise ValidationError(f"{_flag(steps)} must be >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        axis = np.linspace(resolved[lo], resolved[hi], resolved[steps])
    if not np.isfinite(axis).all():
        raise ValidationError(
            f"{_flag(lo)} and {_flag(hi)} must give a finite axis, "
            f"got {resolved[lo]!r} and {resolved[hi]!r}"
        )
    return axis.tolist()


def _cmd_cycle(resolved: dict[str, Any]) -> int:
    spec = CycleSpec(
        j_a=Coupling(resolved["ja_k"]),
        j_b=Coupling(resolved["jb_k"]),
        t_hot=resolved["th"],
        t_cold=resolved["tc"],
    )
    ledger, mode, eta = next(
        _evaluate_cycles(spec.j_a, spec.j_b, spec.t_hot, spec.t_cold).rows()
    )
    eta_carnot = carnot_efficiency(spec.t_hot, spec.t_cold)

    ledger_fields = [field.name for field in dataclasses.fields(StrokeLedger)]
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

    _echo(config_echo)
    print(f"{'quantity':<10}{'kelvin*k_B':>22}{'eV':>18}")
    for field in ledger_fields:
        value = getattr(ledger, field)
        print(f"{field:<10}{value:>22.12g}{value * KB_EV_PER_K:>18.6e}")
    print(f"mode       {mode.token}")
    if eta is not None:
        print(f"eta        {eta:.12g}")
    print(f"eta_carnot {eta_carnot:.12g}")
    return EXIT_OK


def _sweep_params(grid: SweepGrid) -> dict[str, Any]:
    """The sweep parameters that give ``grid``, but for ``format`` and
    ``out``."""
    ratios, temp_ratios = grid.coupling_ratio_axis, grid.temp_ratio_axis
    return dict(
        branch=grid.branch.value, jb_k=grid.anchor.j_b.j_over_kb, tc=grid.anchor.t_cold,
        ratio_min=ratios[0], ratio_max=ratios[-1], ratio_steps=len(ratios),
        tr_min=temp_ratios[0], tr_max=temp_ratios[-1], tr_steps=len(temp_ratios),
    )


def _cmd_sweep(resolved: dict[str, Any]) -> int:
    token = resolved["branch"]
    default = (
        SweepGrid.default() if token is None
        else SweepGrid.default(Branch.from_token(token))
    )
    for key, value in _sweep_params(default).items():
        if resolved[key] is None:
            resolved[key] = value
    _check_format(resolved["format"])
    grid = SweepGrid(
        coupling_ratio_axis=tuple(
            _axis(resolved, "ratio_min", "ratio_max", "ratio_steps")
        ),
        temp_ratio_axis=tuple(_axis(resolved, "tr_min", "tr_max", "tr_steps")),
        anchor=GridAnchor(j_b=Coupling(resolved["jb_k"]), t_cold=resolved["tc"]),
        branch=default.branch,
    )
    cells = sweep(grid)
    export_to_path(cells, resolved["out"], format=resolved["format"])

    counts = np.bincount(cells.mode_code, minlength=len(OperationMode))
    _echo(resolved)
    print(f"cells {len(cells)}")
    for mode, count in zip(OperationMode, counts.tolist()):
        print(f"{mode.token} {count}")
    print(f"wrote {resolved['out']}")
    return EXIT_OK


def _cmd_fit(resolved: dict[str, Any]) -> int:
    if resolved["fix_g"] is not None and resolved["free_g"]:
        raise ValidationError("--fix-g and --free-g are mutually exclusive")
    if resolved["g_init"] is not None and not resolved["free_g"]:
        raise ValidationError("--g-init applies only with --free-g")
    if resolved["free_g"]:
        policy = FreeG() if resolved["g_init"] is None else FreeG(resolved["g_init"])
    else:
        policy = FixG() if resolved["fix_g"] is None else FixG(resolved["fix_g"])

    with open(resolved["data"], "rb") as handle:
        dataset = ingest_csv(handle)
    result = fit_bleaney_bowers(dataset, policy)
    report = fit_report_json(result, dataset)

    _echo(resolved, file=sys.stderr)
    if resolved["out"] is not None:
        write(resolved["out"], [report], "fit report")
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


def _cmd_engine_curve(resolved: dict[str, Any]) -> int:
    axis = _axis(resolved, "th_min", "th_max", "steps")
    if resolved["th_max"] < resolved["th_min"]:
        raise ValidationError("--th-max must be at least --th-min")
    curve = engine_curve(
        Coupling(resolved["ja_k"]), Coupling(resolved["jb_k"]), resolved["tc"], axis
    )
    write(resolved["out"], [engine_curve_csv(curve)], "engine curve")

    _echo(resolved)
    engine_points = np.count_nonzero(curve.code == _ENGINE)
    print(f"points {len(curve)} heat_engine {engine_points}")
    print(f"wrote {resolved['out']}")
    return EXIT_OK


#: Subcommand name -> (help line, parameters, handler of the resolved
#: parameters).
_COMMANDS = {
    "cycle": ("evaluate one Stirling cycle", _CYCLE_PARAMS, _cmd_cycle),
    "sweep": ("write a mode map over the ratio plane", _SWEEP_PARAMS, _cmd_sweep),
    "fit": ("fit a susceptibility CSV", _FIT_PARAMS, _cmd_fit),
    "engine-curve": (
        "tabulate the cycle against the hot-bath temperature",
        _CURVE_PARAMS,
        _cmd_engine_curve,
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused.

    Reuse is safe: every parse returns a fresh namespace, every flag
    defaults to None, and config values merge in :func:`_resolve_params`.
    """
    parser = argparse.ArgumentParser(
        prog="spin-stirling",
        description=(
            "Quantum Stirling cycle of a spin-1/2 dimer: single cycles, "
            "mode maps, susceptibility fits, and engine curves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, params, _) in _COMMANDS.items():
        sub_parser = sub.add_parser(command, help=summary)
        for param in params:
            # A boolean is a bare flag; None marks any flag left unset.
            kind = (
                {"action": "store_true", "default": None}
                if param.kind is _parse_bool
                else {"type": param.kind}
            )
            sub_parser.add_argument(
                _flag(param.name), dest=param.name, help=param.help, **kind
            )
        sub_parser.add_argument(
            "--config", help="INI config file with a section per subcommand"
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point returning an exit code instead of raising SystemExit.

    Each distinct warning that the command raises is printed once to
    stderr as a ``warning: <message>`` line, ahead of any ``error:``
    line; a warning that the filters turn into an error still raises.
    An :class:`InvariantViolation` is a package bug and propagates.
    """
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_VALIDATION
    _, params, handler = _COMMANDS[ns.command]
    with warnings.catch_warnings(record=True) as caught:
        try:
            return handler(_resolve_params(ns, ns.command, params))
        except InvariantViolation:
            raise
        except (SpinStirlingError, OSError) as exc:
            failure = exc
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)
    print(f"error: {failure}", file=sys.stderr)
    if isinstance(failure, DataFormatError):
        return EXIT_DATA
    return EXIT_IO if isinstance(failure, OSError) else EXIT_VALIDATION


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
