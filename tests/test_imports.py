"""Which scipy modules a fresh interpreter loads for each piobs entry point.

``import piobs`` needs numpy alone, and so do ranks, condition numbers and
traces. scipy.linalg loads for three things only: the LU solve and the
Sylvester candidates of a design, and the basis of the Kalman decomposition
of an unobservable pair. So ``verify``, ``simulate`` and ``analyze`` of an
observable pair load no scipy at all. No command loads scipy.optimize: the
spectrum pairing that designs and verifications perform is numpy code.
"""

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


def test_design_loads_scipy_linalg_but_not_scipy_optimize(tmp_path, worked_files):
    system, _ = worked_files
    loaded = scipy_modules_after(
        "from piobs import cli\n"
        f"assert cli.main(['design', {system!r}, '--out', 'again.json']) == 0",
        tmp_path,
    )
    assert "scipy.linalg" in loaded
    assert "scipy.optimize" not in loaded


def test_analyze_of_an_unobservable_pair_loads_scipy_linalg(tmp_path):
    system = tmp_path / "unobservable.json"
    system.write_text('{"A": [[0.5, 0], [0, 0.2]], "B": [[1], [1]], "C": [[1, 0]]}')
    loaded = scipy_modules_after(
        f"from piobs import cli\nassert cli.main(['analyze', {str(system)!r}]) == 0",
        tmp_path,
    )
    assert "scipy.linalg" in loaded
