"""The comparison of ``scripts/cli_bytes.py``, with checkouts and CLI runs
replaced by fakes."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def cli_bytes():
    """The script, loaded from its file with ``bench_pairs`` handed to its
    import for the load only, so neither ``sys.path`` nor ``sys.modules``
    keeps a trace."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "bench_pairs", load("bench_pairs"))
        return load("cli_bytes")


def result(files):
    return {"exit code": 0, "stdout": b"ok\n", "stderr": b"", "files": files}


@pytest.fixture
def compare(cli_bytes, monkeypatch, capsys):
    """Run ``main`` on fake checkouts, where the change side writes
    ``out.csv`` differently in the case named ``differing``, if any."""

    def checkout(rev, target):
        (target / "src" / "spin_stirling" / "data").mkdir(parents=True)
        return target

    def run_main(differing=None):
        def run(tree, args, work):
            assert work.is_dir() and (work / "data").is_dir()
            changed = tree.name == "change" and args == cli_bytes.CASES.get(differing)
            return result({"out.csv": b"1,3\n" if changed else b"1,2\n"})

        monkeypatch.setattr(cli_bytes, "checkout", checkout)
        monkeypatch.setattr(cli_bytes, "run", run)
        code = cli_bytes.main(["--parent", "p", "--change", "c"])
        captured = capsys.readouterr()
        return code, captured.out.splitlines(), captured.err

    return run_main


def test_identical_outputs_exit_0(cli_bytes, compare):
    code, lines, err = compare()
    assert code == 0
    assert lines == [f"{case}: identical" for case in cli_bytes.CASES]
    assert err == ""


def test_a_differing_file_exits_1_and_names_its_case(cli_bytes, compare):
    code, lines, err = compare(differing="sweep json")
    assert code == 1
    assert "sweep json: differs in file out.csv" in lines
    identical = [line for line in lines if line.endswith(": identical")]
    assert len(identical) == len(cli_bytes.CASES) - 1
    assert err == "first differing case: sweep json\n"


def test_a_file_on_one_side_only_differs(cli_bytes):
    parent, change = result({"a": b"x"}), result({"a": b"x", "b": b""})
    assert cli_bytes.differences(parent, change) == ["file b"]
    assert cli_bytes.differences(change, change) == []
