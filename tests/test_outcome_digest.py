"""``tools/outcome_digest.py --diff`` exits 1 when any plant's line changed, else 0."""

import pathlib
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "outcome_digest.py"
#: Digest lines: ``<seed> <population> <plant> <outcome> <detail>``.
OLD = [
    "1 sweep0 sweep-n4-0 design 0f3a",
    "1 sweep0 sweep-n24-1 refused NumericalError: observability decomposition is inconsistent",
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
