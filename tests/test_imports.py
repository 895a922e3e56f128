"""No piobs entry point or module loads scipy.

``import piobs`` needs numpy alone, and so does every command: ranks, the
Sylvester candidates of pole placement, the Kalman decomposition basis,
the coupling matrix, spectrum pairing and traces are numpy code.
Each command runs in a fresh interpreter, which then must hold no scipy
module, and a scan of the source keeps a lazy ``import scipy`` inside a
function from coming back. scipy stays a test dependency, as an oracle.

Two numpy subpackages that numpy loads lazily stay unloaded as well: no
command loads ``numpy.ma``, and the commands that draw no random numbers
load no ``numpy.random`` (which pulls in ``secrets`` and ``hashlib``).
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
OBSERVABLE_REPORT = str(DATA / "observable5.design-seed5.json")
UNOBSERVABLE = str(DATA / "unobservable4.system.json")


def modules_after(code, cwd, *packages):
    """Names of the modules of ``packages`` loaded once ``code`` ran in a fresh interpreter."""
    script = (
        code
        + "\nimport json, sys\n"
        + f"packages = {packages!r}\n"
        + "print(json.dumps(sorted(m for m in sys.modules\n"
        + "                        if any(m == p or m.startswith(p + '.') for p in packages))))"
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
    loaded = modules_after(
        "import piobs, piobs.cli, piobs.reportio; piobs.cli.build_parser()", tmp_path, "scipy"
    )
    assert loaded == set()


def test_analyze_and_simulate_do_not_load_scipy_optimize(tmp_path, worked_files):
    system, report = worked_files
    loaded = modules_after(
        "from piobs import cli\n"
        f"assert cli.main(['analyze', {system!r}]) == 0\n"
        f"assert cli.main(['simulate', {system!r}, {report!r}, '--horizon', '50']) == 0",
        tmp_path, "scipy",
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
    loaded = modules_after(
        f"from piobs import cli\nassert cli.main({argv!r}) == 0", tmp_path, "scipy"
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
    loaded = modules_after(
        f"from piobs import cli\nassert cli.main({argv!r}) == 0", tmp_path, "scipy"
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
    loaded = modules_after(
        f"from piobs import cli\nassert cli.main({argv!r}) == 0", tmp_path, "scipy"
    )
    assert loaded == set()


#: argv of each command, and whether it may draw random numbers.
NUMPY_COMMANDS = {
    "analyze": (["analyze", UNOBSERVABLE], False),
    "design": (["design", OBSERVABLE, "--seed", "5", "--out", "report.json"], True),
    "verify": (["verify", OBSERVABLE, OBSERVABLE_REPORT], False),
    "simulate-random": (["simulate", OBSERVABLE, OBSERVABLE_REPORT, "--input", "random",
                         "--seed", "5", "--out", "trace.csv"], True),
    "simulate-zero": (["simulate", OBSERVABLE, OBSERVABLE_REPORT, "--input", "zero",
                       "--out", "trace.csv"], False),
    "batch": (["batch", OBSERVABLE, UNOBSERVABLE, "--seed", "5", "--out-dir", "reports"], True),
}


@pytest.mark.parametrize("command", sorted(NUMPY_COMMANDS))
def test_commands_load_no_numpy_ma_and_draw_free_ones_no_numpy_random(tmp_path, command):
    argv, draws = NUMPY_COMMANDS[command]
    loaded = modules_after(
        f"from piobs import cli\nassert cli.main({argv!r}) == 0", tmp_path,
        "numpy.ma", "numpy.random",
    )
    assert "numpy.ma" not in loaded
    if not draws:
        assert loaded == set()


def piobs_nodes():
    """(file name, node) for every AST node of the piobs sources."""
    for path in sorted(pathlib.Path(SRC, "piobs").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_no_piobs_module_imports_scipy():
    found = []
    for name, node in piobs_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "scipy" for module in modules):
            found.append(f"{name}:{node.lineno}")
    assert found == []


def test_no_piobs_module_builds_a_tuple_or_join_from_a_generator():
    """``tuple(...)`` and ``str.join(...)`` take sized lists in piobs, never generators.

    A generator has no length hint, so CPython grows the tuple (or, for a
    join, the list it first makes) by repeated reallocation, and the freed
    blocks fragment the heap: resident memory then climbed with every
    design. Over 5 000 designs of the n <= 16 benchmark plants, with report
    round trips (``tools/footprint.py --designs 5000``), ``RssAnon`` grew by
    2.67 MB with generators and by 0.16 MB with lists (CPython 3.11.7,
    numpy 2.4.6, OpenBLAS on one thread).
    """
    found = []
    for name, node in piobs_nodes():
        if not (isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.GeneratorExp)):
            continue
        func = node.func
        if ((isinstance(func, ast.Name) and func.id == "tuple")
                or (isinstance(func, ast.Attribute) and func.attr == "join")):
            found.append(f"{name}:{node.lineno}")
    assert found == []
