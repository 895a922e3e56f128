"""``tools/outcome_digest.py``: ``--diff`` exits 1 when any plant's line changed,
else 0, and ``--summary`` counts the q mismatches per n."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

import piobs

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "outcome_digest.py"
#: Digest lines: ``<seed> <population> <plant> <outcome> <detail>``.
OLD = [
    "1 sweep0 sweep-n4-0 design 0f3a",
    "1 sweep0 sweep-n24-1 refused NumericalError: pole placement failed",
    "2 cli cli-main infeasible 9c1d",
]


def run_diff(tmp_path, new_lines):
    old, new = tmp_path / "old.digest", tmp_path / "new.digest"
    old.write_text("\n".join(OLD) + "\n")
    new.write_text("\n".join(new_lines) + "\n")
    return subprocess.run([sys.executable, str(TOOL), "--diff", str(old), str(new)],
                          capture_output=True, text=True, check=False)


def test_identical_digests_exit_0(tmp_path):
    result = run_diff(tmp_path, OLD)
    assert result.returncode == 0, result.stderr
    assert "->" not in result.stdout


@pytest.mark.parametrize("new_lines, listed", [
    ([OLD[0].replace("0f3a", "77aa")] + OLD[1:], "1 sweep0 sweep-n4-0 design -> design"),
    ([OLD[0], "1 sweep0 sweep-n24-1 design 1234", OLD[2]], "refused -> design: 1"),
    (OLD[:2], "2 cli cli-main infeasible -> absent"),
], ids=["report-bytes", "outcome", "missing-plant"])
def test_a_changed_plant_exits_1(tmp_path, new_lines, listed):
    result = run_diff(tmp_path, new_lines)
    assert result.returncode == 1, result.stderr
    assert listed in result.stdout


def test_summary_counts_q_mismatches_per_n(monkeypatch, capsys):
    # Seed 1 has q right on every feasible plant; an observable_dimension
    # that is off by one at n = 64 must show in that row only.
    spec = importlib.util.spec_from_file_location("outcome_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(sys, "path", list(sys.path))
    original = piobs.observable_dimension

    def off_at_64(A, C, *args):
        return original(A, C, *args) + (len(A) == 64)

    monkeypatch.setattr(piobs, "observable_dimension", off_at_64)
    tool.digest([1], summary=True)
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[1:] == ["refused/feasible", "q_mismatch/feasible", "misreported/designs"]
    columns = {int(row.split()[0]): row.split()[1:] for row in rows}
    assert set(columns) >= {4, 16, 64}
    for n, (refused, q_mismatch, _) in columns.items():
        feasible = refused.split("/")[1]
        assert q_mismatch == (f"{feasible}/{feasible}" if n == 64 else f"0/{feasible}")
