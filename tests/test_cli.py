"""End-to-end tests of the command line interface, run in process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import spin_stirling.cli as cli
from spin_stirling import errors
from spin_stirling.cli import (
    EXIT_DATA,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    schema_text,
)
from spin_stirling.core import Coupling
from spin_stirling.magnetometry import (
    bleaney_bowers_chi,
    engine_curve,
    engine_curve_csv,
)
from spin_stirling.phasemap import SweepGrid, export, sweep

CYCLE_ARGS = ["cycle", "--ja-k", "-42", "--jb-k", "-32", "--th", "40", "--tc", "20"]


def write_synthetic_data(path, j=-32.0, g=2.1):
    temps = np.linspace(20.0, 350.0, 67)
    chi = bleaney_bowers_chi(temps, j, g)
    rows = ["T_K,chi_emu_mol"]
    rows += ["%.17g,%.17g" % (t, c) for t, c in zip(temps, chi)]
    path.write_text("\n".join(rows) + "\n")
    return path


def run_in_subprocess(*args):
    """Run ``python *args`` with this checkout's ``src`` on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=60, check=False,
    )


def validate(instance, schema_name):
    jsonschema.validate(instance, json.loads(schema_text(schema_name)))


class TestCycleCommand:
    def test_table_output(self, capsys):
        assert main(CYCLE_ARGS) == EXIT_OK
        out = capsys.readouterr().out
        assert "heat_engine" in out
        assert "work" in out

    def test_json_output_matches_schema(self, capsys):
        assert main(CYCLE_ARGS + ["--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        validate(payload, "cycle_report")
        assert payload["mode"] == "heat_engine"
        assert payload["ledger_k_kb"]["work"] == pytest.approx(0.6670520799196522)

    def test_deep_gap_cycle_is_not_forbidden(self, capsys):
        # Every stroke heat underflows; the work's roundoff residue must
        # not give the cycle a sign pattern the second law forbids.
        args = ["cycle", "--ja-k=200", "--jb-k=600", "--th=2", "--tc=1.99"]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out
        assert "mode       carnot" in out.splitlines()
        assert "forbidden" not in out

    def test_output_is_reproducible(self, capsys):
        main(CYCLE_ARGS + ["--json"])
        first = capsys.readouterr().out
        main(CYCLE_ARGS + ["--json"])
        assert capsys.readouterr().out == first

    def test_missing_flag_is_a_validation_error(self, capsys):
        args = [a for a in CYCLE_ARGS if a not in ("--tc", "20")]
        assert main(args) == EXIT_VALIDATION
        assert "--tc" in capsys.readouterr().err

    def test_inverted_baths_fail_validation(self, capsys):
        args = ["cycle", "--ja-k", "-42", "--jb-k", "-32", "--th", "10", "--tc", "20"]
        assert main(args) == EXIT_VALIDATION

    def test_zero_width_stroke_fails_validation(self):
        args = ["cycle", "--ja-k", "-32", "--jb-k", "-32", "--th", "40", "--tc", "20"]
        assert main(args) == EXIT_VALIDATION

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "cycle.ini"
        config.write_text("[cycle]\nja_k = -42\njb_k = -32\nth = 40\ntc = 20\n")
        assert main(["cycle", "--config", str(config)]) == EXIT_OK
        assert "heat_engine" in capsys.readouterr().out

    def test_flags_override_the_config_file(self, tmp_path, capsys):
        config = tmp_path / "cycle.ini"
        config.write_text("[cycle]\nja_k = -42\njb_k = -32\nth = 40\ntc = 20\n")
        assert main(["cycle", "--config", str(config), "--th", "50"]) == EXIT_OK
        assert "# th = 50.0" in capsys.readouterr().out

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        config = tmp_path / "cycle.ini"
        config.write_text("[cycle]\nja_k = -42\njb_k = -32\nth = 40\ntc = 20\nbogus = 1\n")
        assert main(["cycle", "--config", str(config)]) == EXIT_VALIDATION
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_file_is_an_io_error(self):
        assert main(["cycle", "--config", "/nonexistent/cli.ini"]) == EXIT_IO

    def test_help_exits_cleanly(self):
        assert main(["cycle", "--help"]) == EXIT_OK
        assert main(["--help"]) == EXIT_OK


class TestSweepCommand:
    def test_writes_csv_and_prints_counts(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        args = [
            "sweep", "--out", str(out),
            "--ratio-steps", "24", "--tr-steps", "18",
        ]
        assert main(args) == EXIT_OK
        text = capsys.readouterr().out
        assert out.exists()
        header = out.read_bytes().splitlines()[0]
        assert header == b"coupling_ratio,temp_ratio,mode,work,q_in,q_out,eta_over_carnot"
        assert "cells 432" in text
        counts = {
            line.split()[0]: int(line.split()[1])
            for line in text.splitlines()
            if line and line.split()[0] in
            ("heat_engine", "refrigerator", "accelerator", "heater",
             "carnot", "forbidden")
        }
        assert sum(counts.values()) == 432
        assert len(counts) == 6
        rows = out.read_text().splitlines()[1:]
        for token, count in counts.items():
            assert sum(row.split(",")[2] == token for row in rows) == count

    def test_flag_less_sweep_writes_the_default_grid(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        assert main(["sweep", "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == export(sweep(SweepGrid.default()))
        echo = [line for line in capsys.readouterr().out.splitlines() if line[0] == "#"]
        assert echo == [
            "# branch = 'b-negative'", "# jb_k = -32.0", "# tc = 20.0",
            "# ratio_min = -3.0", "# ratio_max = 3.0", "# ratio_steps = 400",
            "# tr_min = 1.005", "# tr_max = 3.0", "# tr_steps = 400",
            "# format = 'csv'", f"# out = {str(out)!r}",
        ]

    def test_json_output_matches_schema(self, tmp_path):
        out = tmp_path / "map.json"
        args = [
            "sweep", "--out", str(out), "--format", "json",
            "--ratio-steps", "7", "--tr-steps", "5",
        ]
        assert main(args) == EXIT_OK
        validate(json.loads(out.read_bytes()), "mode_map")

    def test_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        base = ["sweep", "--ratio-steps", "30", "--tr-steps", "11"]
        assert main(base + ["--out", str(first)]) == EXIT_OK
        assert main(base + ["--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_positive_branch_flips_the_default_anchor(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        args = [
            "sweep", "--branch", "b-positive", "--out", str(out),
            "--ratio-steps", "5", "--tr-steps", "4",
        ]
        assert main(args) == EXIT_OK
        assert "# jb_k = 32.0" in capsys.readouterr().out

    def test_single_cell_grid(self, tmp_path):
        out = tmp_path / "cell.csv"
        args = [
            "sweep", "--out", str(out),
            "--ratio-min", "1.3125", "--ratio-max", "1.3125", "--ratio-steps", "1",
            "--tr-min", "2.0", "--tr-max", "2.0", "--tr-steps", "1",
        ]
        assert main(args) == EXIT_OK
        lines = out.read_bytes().splitlines()
        assert len(lines) == 2
        assert b"heat_engine" in lines[1]

    def test_unknown_branch_fails_validation(self, tmp_path):
        args = ["sweep", "--branch", "sideways", "--out", str(tmp_path / "x.csv")]
        assert main(args) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "bounds",
        [
            ["--tr-max", "inf"],
            ["--ratio-min=-inf"],
            ["--ratio-min=-1e308", "--ratio-max", "1e308"],
        ],
    )
    def test_non_finite_axis_fails_validation_without_a_warning(
        self, bounds, tmp_path, capsys
    ):
        out = tmp_path / "m.csv"
        args = ["sweep", "--ratio-steps", "3", "--tr-steps", "3", "--out", str(out)]
        assert main(args + bounds) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert "must give a finite axis" in captured.err
        assert not (tmp_path / "m.csv").exists()

    def test_unknown_format_fails_before_any_cell_is_computed(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_sweep(grid):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        out = tmp_path / "map.yaml"
        args = ["sweep", "--format", "yaml", "--out", str(out)]
        assert main(args) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown export format 'yaml'" in captured.err
        assert not out.exists()

    def test_unwritable_output_is_an_io_error(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "map.csv"
        args = ["sweep", "--out", str(target), "--ratio-steps", "4", "--tr-steps", "3"]
        assert main(args) == EXIT_IO
        assert capsys.readouterr().err == (
            "error: [Errno 2] cannot write csv export: "
            f"No such file or directory: '{target}'\n"
        )


class TestFitCommand:
    def test_report_on_stdout_matches_schema(self, tmp_path, capsys):
        data = write_synthetic_data(tmp_path / "chi.csv")
        assert main(["fit", "--data", str(data)]) == EXIT_OK
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        validate(payload, "fit_report")
        assert payload["j_over_kb_K"] == pytest.approx(-32.0, abs=1e-6)
        assert payload["g"] == 2.1
        assert payload["converged"] is True
        # Parameter echo goes to stderr so stdout stays machine readable.
        assert "# data =" in captured.err

    def test_report_file_output(self, tmp_path):
        data = write_synthetic_data(tmp_path / "chi.csv")
        out = tmp_path / "report.json"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == EXIT_OK
        validate(json.loads(out.read_bytes()), "fit_report")

    def test_free_g_recovers_both_parameters(self, tmp_path, capsys):
        data = write_synthetic_data(tmp_path / "chi.csv", j=-27.3, g=2.05)
        assert main(["fit", "--data", str(data), "--free-g"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["j_over_kb_K"] == pytest.approx(-27.3, abs=1e-5)
        assert payload["g"] == pytest.approx(2.05, abs=1e-6)

    def test_fix_and_free_are_mutually_exclusive(self, tmp_path):
        data = write_synthetic_data(tmp_path / "chi.csv")
        args = ["fit", "--data", str(data), "--fix-g", "2.0", "--free-g"]
        assert main(args) == EXIT_VALIDATION

    def test_g_init_requires_free_g(self, tmp_path, capsys):
        data = write_synthetic_data(tmp_path / "chi.csv")
        assert main(["fit", "--data", str(data), "--g-init", "1.7"]) == EXIT_VALIDATION
        config = tmp_path / "fit.ini"
        config.write_text(f"[fit]\ndata = {data}\ng_init = 1.7\n")
        assert main(["fit", "--config", str(config)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("--g-init applies only with --free-g") == 2
        assert main(["fit", "--config", str(config), "--free-g"]) == EXIT_OK

    def test_nonpositive_fixed_g_fails_validation(self, tmp_path):
        data = write_synthetic_data(tmp_path / "chi.csv")
        assert main(["fit", "--data", str(data), "--fix-g", "0"]) == EXIT_VALIDATION

    def test_missing_data_file_is_an_io_error(self):
        assert main(["fit", "--data", "/nonexistent/chi.csv"]) == EXIT_IO

    def test_unparseable_data_is_a_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("T_K,chi_emu_mol\n10,0.01\n20,oops\n30,0.03\n40,0.04\n50,0.05\n")
        assert main(["fit", "--data", str(bad)]) == EXIT_DATA

    def test_empty_data_file_is_a_data_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["fit", "--data", str(empty)]) == EXIT_DATA

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_pressure_is_a_data_error(self, value, tmp_path, capsys):
        data = write_synthetic_data(tmp_path / "chi.csv")
        with open(data, "a") as handle:
            handle.write(f"# pressure_GPa: {value}\n")
        assert main(["fit", "--data", str(data)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: pressure_GPa must be finite, got {value}\n"

    def test_exhausted_iteration_budget_is_a_data_error(self, tmp_path, monkeypatch):
        import spin_stirling.magnetometry as mag

        monkeypatch.setattr(mag, "FIT_MAX_ITERATIONS", 0)
        data = write_synthetic_data(tmp_path / "chi.csv")
        assert main(["fit", "--data", str(data), "--fix-g", "1.2"]) == EXIT_DATA


class TestEngineCurveCommand:
    BASE = [
        "engine-curve", "--ja-k", "-42", "--jb-k", "-32", "--tc", "20",
        "--th-min", "20.5", "--th-max", "350",
    ]

    def test_writes_the_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(self.BASE + ["--steps", "34", "--out", str(out)]) == EXIT_OK
        lines = out.read_bytes().splitlines()
        assert lines[0] == (
            b"T_h_K,Q_AB_eV,Q_BC_eV,Q_CD_eV,Q_DA_eV,W_eV,eta,eta_carnot,mode"
        )
        assert len(lines) == 35
        assert all(line.endswith(b"heat_engine") for line in lines[1:])

    def test_single_step_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        args = [
            "engine-curve", "--ja-k", "-42", "--jb-k", "-32", "--tc", "20",
            "--th-min", "40", "--th-max", "40", "--steps", "1", "--out", str(out),
        ]
        assert main(args) == EXIT_OK
        assert len(out.read_bytes().splitlines()) == 2

    def test_mixed_mode_curve_matches_the_library(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        args = [
            "engine-curve", "--ja-k", "10", "--jb-k", "-50", "--tc", "5",
            "--th-min", "5.05", "--th-max", "335", "--steps", "60",
            "--out", str(out),
        ]
        assert main(args) == EXIT_OK
        axis = np.linspace(5.05, 335.0, 60).tolist()
        points = engine_curve(Coupling(10.0), Coupling(-50.0), 5.0, axis)
        modes = [point.mode.token for point in points]
        assert modes == ["heat_engine"] + ["accelerator"] * 59
        assert out.read_bytes() == engine_curve_csv(points)
        assert "points 60 heat_engine 1" in capsys.readouterr().out.splitlines()

    def test_goes_through_the_public_functions(self, tmp_path, monkeypatch):
        # The tracer meters these bindings, so the command must call them.
        out = tmp_path / "curve.csv"
        args = self.BASE + ["--steps", "34", "--out", str(out)]
        assert main(args) == EXIT_OK
        expected = out.read_bytes()
        out.unlink()
        calls = []
        for name in ("engine_curve", "engine_curve_csv"):
            def counted(*call_args, _name=name, _function=getattr(cli, name), **kw):
                calls.append(_name)
                return _function(*call_args, **kw)

            monkeypatch.setattr(cli, name, counted)
        assert main(args) == EXIT_OK
        assert calls == ["engine_curve", "engine_curve_csv"]
        assert out.read_bytes() == expected

    def test_rejects_nonpositive_steps(self, tmp_path):
        args = self.BASE + ["--steps", "0", "--out", str(tmp_path / "c.csv")]
        assert main(args) == EXIT_VALIDATION

    def test_rejects_hot_axis_below_the_cold_bath(self, tmp_path, capsys):
        args = [
            "engine-curve", "--ja-k", "-42", "--jb-k", "-32", "--tc", "20",
            "--th-min", "19", "--th-max", "350", "--steps", "10",
            "--out", str(tmp_path / "c.csv"),
        ]
        assert main(args) == EXIT_VALIDATION
        # The rule is the cycle's own, not a copy in the command line.
        assert capsys.readouterr().err == (
            "error: t_hot must exceed t_cold, got t_hot=19.0, t_cold=20.0\n"
        )

    @pytest.mark.parametrize("bound", [["--th-max", "inf"], ["--th-min", "nan"]])
    def test_rejects_a_non_finite_hot_axis_without_a_warning(
        self, bound, tmp_path, capsys
    ):
        args = [
            "engine-curve", "--ja-k", "-42", "--jb-k", "-32", "--tc", "20",
            "--th-min", "30", "--th-max", "350", "--steps", "3",
            "--out", str(tmp_path / "c.csv"),
        ]
        assert main(args + bound) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --th-min and --th-max must give")
        assert len(captured.err.splitlines()) == 1

    def test_rejects_inverted_hot_axis(self, tmp_path):
        args = [
            "engine-curve", "--ja-k", "-42", "--jb-k", "-32", "--tc", "20",
            "--th-min", "300", "--th-max", "200", "--steps", "10",
            "--out", str(tmp_path / "c.csv"),
        ]
        assert main(args) == EXIT_VALIDATION


class TestTopLevel:
    def test_no_subcommand_fails_validation(self):
        assert main([]) == EXIT_VALIDATION

    def test_unknown_subcommand_fails_validation(self):
        assert main(["warp-drive"]) == EXIT_VALIDATION

    def test_import_leaves_fractions_and_decimal_unloaded(self):
        # Import time is paid by every console call; the export formatter's
        # power-of-ten table is built with int arithmetic, not Fraction.
        code = (
            "import sys, spin_stirling.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        )
        result = run_in_subprocess("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    ENTRY = "from spin_stirling.cli import console_entry; console_entry()"
    CURIE_WARNING = (
        "warning: cycle endpoint enters the Curie paramagnetic regime "
        "(T > |J|/k_B); the dimer description degrades there\n"
    )

    def test_a_warning_is_one_stderr_line(self, capsys):
        # In process the suite's filter ignores the warning, so run the
        # console entry point in a fresh interpreter.
        result = run_in_subprocess("-c", self.ENTRY, *CYCLE_ARGS)
        assert result.returncode == EXIT_OK
        assert result.stderr == self.CURIE_WARNING
        assert main(CYCLE_ARGS) == EXIT_OK
        assert result.stdout == capsys.readouterr().out

    def test_warnings_come_before_the_error_line(self, tmp_path):
        out = tmp_path / "missing" / "curve.csv"
        args = TestEngineCurveCommand.BASE + ["--steps", "3", "--out", str(out)]
        result = run_in_subprocess("-c", self.ENTRY, *args)
        assert result.returncode == EXIT_IO
        warning, error = result.stderr.splitlines(keepends=True)
        assert warning == self.CURIE_WARNING
        assert error.startswith("error: [Errno 2] cannot write engine curve")


class TestExitCodes:
    # Every error type a command can raise, and the exit code it maps to;
    # None means the error is a package bug and propagates uncaught.
    TABLE = [
        (errors.ValidationError, EXIT_VALIDATION),
        (errors.OverflowCapError, EXIT_VALIDATION),
        (errors.ModeError, EXIT_VALIDATION),
        (errors.SpinStirlingError, EXIT_VALIDATION),
        (errors.DataFormatError, EXIT_DATA),
        (OSError, EXIT_IO),
        (FileNotFoundError, EXIT_IO),
        (PermissionError, EXIT_IO),
        (errors.InvariantViolation, None),
    ]

    def test_table_covers_every_package_error(self):
        package_errors = {
            getattr(errors, name)
            for name in errors.__all__
            if issubclass(getattr(errors, name), Exception)
            and not issubclass(getattr(errors, name), Warning)
        }
        assert package_errors <= {error for error, _ in self.TABLE}

    @pytest.mark.parametrize(
        "error, code", TABLE, ids=[error.__name__ for error, _ in TABLE]
    )
    def test_error_maps_to_its_exit_code(
        self, error, code, tmp_path, monkeypatch, capsys
    ):
        def failing_fit(*_args):
            raise error("injected failure")

        monkeypatch.setattr(cli, "fit_bleaney_bowers", failing_fit)
        args = ["fit", "--data", str(write_synthetic_data(tmp_path / "chi.csv"))]
        if code is None:
            with pytest.raises(error, match="injected failure"):
                main(args)
            return
        assert main(args) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: injected failure\n"


    def test_non_utf8_data_file_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "chi.csv"
        data.write_bytes(b"T_K,chi_emu_mol\n\xff,1\n")
        assert main(["fit", "--data", str(data)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: susceptibility data is not UTF-8: byte 16 (invalid start byte)\n"
        )

    def test_non_utf8_config_file_is_a_validation_error(self, tmp_path, capsys):
        config = tmp_path / "fit.ini"
        config.write_bytes(b"[fit]\ndata = \xfe\n")
        assert main(["fit", "--config", str(config)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: config file {config} is not UTF-8: "
            "byte 13 (invalid start byte)\n"
        )


class TestRepeatedCalls:
    def test_the_parser_is_built_once(self, capsys):
        assert main(CYCLE_ARGS) == EXIT_OK
        parser = cli._build_parser()
        assert main(["cycle", "--help"]) == EXIT_OK
        assert cli._build_parser() is parser

    def test_repeated_calls_do_not_depend_on_order(self, tmp_path, capsys):
        data = write_synthetic_data(tmp_path / "chi.csv")
        config = tmp_path / "cycle.ini"
        config.write_text("[cycle]\njson = true\n")
        out = tmp_path / "out"
        sequence = [
            CYCLE_ARGS + ["--json"],
            ["cycle", "--ja-k", "not-a-number"],
            ["sweep", "--ratio-steps", "5", "--tr-steps", "4", "--out", str(out)],
            ["fit", "--data", str(data)],
            TestEngineCurveCommand.BASE + ["--steps", "7", "--out", str(out)],
            ["--help"],
            CYCLE_ARGS + ["--config", str(config)],
            ["cycle", "--help"],
            CYCLE_ARGS,
        ]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return code, captured.out, captured.err, written

        # No call may leave state behind for the next one: the same
        # calls in the reverse order give the same results.
        forward = [run(argv) for argv in sequence]
        backward = [run(argv) for argv in reversed(sequence)][::-1]
        assert forward == backward
        codes = [code for code, *_ in forward]
        assert codes == [EXIT_OK, EXIT_VALIDATION] + [EXIT_OK] * 7
        assert "invalid float value" in forward[1][2]
        assert "usage: spin-stirling" in forward[5][1]
        # The parser is built once per process; a config value and a
        # help request leave nothing behind in it.
        assert forward[6] == forward[0]
        assert forward[7][1].startswith("usage: spin-stirling cycle")
        assert forward[8][1].startswith("# ja_k = -42.0\n")
