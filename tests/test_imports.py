"""No piobs entry point or module loads scipy.

``import piobs`` needs numpy alone, and so does every command: ranks,
condition numbers, LU solves, the Sylvester candidates of pole placement,
the Kalman decomposition basis, spectrum pairing and traces are numpy code.
Each command runs in a fresh interpreter, which then must hold no scipy
module, and a scan of the source keeps a lazy ``import scipy`` inside a
function from coming back. scipy stays a test dependency, as an oracle.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import piobs
from piobs import cli

#: The directory holding the piobs package this suite imports.
SRC = str(pathlib.Path(piobs.__file__).resolve().parents[1])
#: A p = 2 observable plant, whose placement takes the Sylvester candidates,
#: and a detectable but unobservable plant, whose analysis and design take
#: the Kalman decomposition basis.
DATA = pathlib.Path(__file__).parent / "data"
OBSERVABLE = str(DATA / "observable5.system.json")
UNOBSERVABLE = str(DATA / "unobservable4.system.json")


def scipy_modules_after(code, cwd):
    """Names of the scipy modules loaded once ``code`` ran in a fresh interpreter."""
    script = (
        code
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


@pytest.fixture
def worked_files(tmp_path):
    system = tmp_path / "worked.json"
    system.write_text('{"name": "worked-1d", "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]}')
    report = tmp_path / "report.json"
    assert cli.main(["design", str(system), "--pole", "0.2", "--phi-scalar", "0.3",
                     "--out", str(report)]) == 0
    return str(system), str(report)


def test_import_and_argument_parsing_load_no_scipy(tmp_path):
    loaded = scipy_modules_after(
        "import piobs, piobs.cli, piobs.reportio; piobs.cli.build_parser()", tmp_path
    )
    assert loaded == set()


def test_analyze_and_simulate_do_not_load_scipy_optimize(tmp_path, worked_files):
    system, report = worked_files
    loaded = scipy_modules_after(
        "from piobs import cli\n"
        f"assert cli.main(['analyze', {system!r}]) == 0\n"
        f"assert cli.main(['simulate', {system!r}, {report!r}, '--horizon', '50']) == 0",
        tmp_path,
    )
    assert "scipy.optimize" not in loaded


@pytest.mark.parametrize("command", ["design", "verify", "batch"])
def test_design_verify_and_batch_do_not_load_scipy_optimize(tmp_path, worked_files,
                                                            command):
    system, report = worked_files
    argv = {
        "design": ["design", system, "--out", "again.json"],
        "verify": ["verify", system, report],
        "batch": ["batch", system, "--out-dir", "reports"],
    }[command]
    loaded = scipy_modules_after(
        f"from piobs import cli\nassert cli.main({argv!r}) == 0", tmp_path
    )
    assert "scipy.optimize" not in loaded


@pytest.mark.parametrize("command", ["analyze", "verify", "simulate"])
def test_analyze_verify_and_simulate_load_no_scipy(tmp_path, worked_files, command):
    system, report = worked_files
    argv = {
        "analyze": ["analyze", system],
        "verify": ["verify", system, report],
        "simulate": ["simulate", system, report, "--horizon", "50", "--out", "trace.csv"],
    }[command]
    loaded = scipy_modules_after(
        f"from piobs import cli\nassert cli.main({argv!r}) == 0", tmp_path
    )
    assert loaded == set()


@pytest.mark.parametrize("command", ["design", "batch", "analyze"])
def test_design_batch_and_analyze_of_an_unobservable_pair_load_no_scipy(tmp_path,
                                                                        command):
    argv = {
        "design": ["design", UNOBSERVABLE, "--seed", "5", "--out", "report.json"],
        "batch": ["batch", OBSERVABLE, UNOBSERVABLE, "--seed", "5", "--out-dir", "reports"],
        "analyze": ["analyze", UNOBSERVABLE],
    }[command]
    loaded = scipy_modules_after(
        f"from piobs import cli\nassert cli.main({argv!r}) == 0", tmp_path
    )
    assert loaded == set()


def test_no_piobs_module_imports_scipy():
    found = []
    for path in sorted(pathlib.Path(SRC, "piobs").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
