"""``tools/rank_stress.py`` on the first 60 cases of its stress set: it runs
against this checkout's API and prints its five lines."""

import importlib.util
import pathlib
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "rank_stress.py"


def test_first_cases_print_the_five_figures(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("rank_stress", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "CASES", 60)
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    tool.run(tool.ROOT, list_refused=False)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "cases", "loader-accepted", "completion", "phi-gate", "cond(C_P)/cond(C)"]
    assert lines[0] == f"cases 60 (seed {tool.SEED})"
    assert lines[1:3] == ["loader-accepted 57", "completion refusals 0"]
    assert 0 < int(lines[3].split()[-1]) <= 57
    words = lines[4].split()
    assert words[1::2] == ["median", "p99", "max"]
    median, p99, top = map(float, words[2::2])
    assert 0 < median <= p99 <= top < float("inf")
