import csv
import json

import numpy as np
import pytest

from piobs import cli, design, reportio


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text('{"name": "worked-1d", "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]}')
    return str(path)


@pytest.fixture
def undetectable_file(tmp_path):
    path = tmp_path / "undetectable.json"
    path.write_text(
        '{"A": [[0.5, 0.0], [0.0, 2.0]], "B": [[1.0], [1.0]], "C": [[1.0, 0.0]]}'
    )
    return str(path)


def design_worked(tmp_path, worked_file, *extra):
    out = str(tmp_path / "report.json")
    status = cli.main(
        ["design", worked_file, "--pole", "0.2", "--phi-scalar", "0.3", "--out", out]
        + list(extra)
    )
    assert status == 0
    return out


class TestAnalyze:
    def test_reports_verdicts(self, worked_file, capsys):
        assert cli.main(["analyze", worked_file]) == 0
        out = capsys.readouterr().out
        assert "detectable: yes" in out
        assert "observable: yes" in out

    def test_undetectable_system_lists_witness(self, undetectable_file, capsys):
        assert cli.main(["analyze", undetectable_file]) == 0
        out = capsys.readouterr().out
        assert "detectable: no" in out
        assert "unstable unobservable eigenvalues: 2" in out

    def test_parse_error_exits_3(self, tmp_path, capsys):
        path = tmp_path / "ragged.json"
        path.write_text('{"A": [[1.0, 0.0], [0.5]], "B": [[1],[1]], "C": [[1.0, 0.0]]}')
        assert cli.main(["analyze", str(path)]) == 3
        assert "row 2" in capsys.readouterr().err


class TestDesign:
    def test_worked_design_gains(self, tmp_path, worked_file):
        out = design_worked(tmp_path, worked_file)
        doc = json.loads(open(out).read())
        assert doc["verdict"] == "feasible"
        assert doc["gains"]["L"][0][0] == pytest.approx(1.0)
        assert doc["gains"]["F"][0][0] == pytest.approx(0.56)

    def test_undetectable_exits_2_with_witness(self, tmp_path, undetectable_file, capsys):
        out = str(tmp_path / "rep.json")
        assert cli.main(["design", undetectable_file, "--out", out]) == 2
        assert "2" in capsys.readouterr().err
        assert json.loads(open(out).read())["verdict"] == "infeasible"

    def test_default_flags_are_deterministic(self, tmp_path, worked_file):
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            assert cli.main(["design", worked_file, "--seed", "0", "--out", out]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_verifies_each_design_once(self, tmp_path, worked_file, monkeypatch):
        calls = []
        original = design.verify_design

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(design, "verify_design", counting)
        out = design_worked(tmp_path, worked_file)
        assert len(calls) == 1
        # The bytes a second, separate verification of the same observer gives.
        observer = calls[0][0]
        expected = reportio.design_report_doc(observer, original(*calls[0]))
        assert open(out, "rb").read() == (reportio.dumps_doc(expected) + "\n").encode()

    def test_usage_error_exits_3(self, worked_file):
        with pytest.raises(SystemExit) as err:
            cli.main(["design", worked_file, "--no-such-flag"])
        assert err.value.code == 3

    def test_wrong_pole_count_exits_3(self, undetectable_file, tmp_path, capsys):
        path = tmp_path / "sys.json"
        path.write_text(
            '{"A": [[0.5, 1.0], [0.0, 0.3]], "B": [[1.0], [1.0]], "C": [[1.0, 0.0]]}'
        )
        assert cli.main(["design", str(path), "--pole", "0.1"]) == 3


class TestVerify:
    def test_round_trip_passes(self, tmp_path, worked_file, capsys):
        out = design_worked(tmp_path, worked_file)
        assert cli.main(["verify", worked_file, out]) == 0
        stdout = capsys.readouterr().out
        assert stdout.count("PASS") == 4

    def test_tampered_gain_fails_named_check(self, tmp_path, worked_file, capsys):
        out = design_worked(tmp_path, worked_file)
        doc = json.loads(open(out).read())
        doc["gains"]["F"][0][0] += 0.1
        with open(out, "w") as fh:
            fh.write(reportio.dumps_doc(doc))
        assert cli.main(["verify", worked_file, out]) == 4
        stdout = capsys.readouterr().out
        assert "FAIL spectrum-split" in stdout

    def test_accepts_what_design_wrote_for_a_defective_augmented_matrix(self, tmp_path,
                                                                       capsys):
        # Targets 0.3, 0.3 and phi 0.3 make the augmented matrix one 3x3
        # Jordan block, whose computed eigenvalues scatter by ~eps^(1/3):
        # the spectrum split misses its 1e-8 tolerance on exact gains.
        system = tmp_path / "defective.json"
        system.write_text(
            '{"A": [[0.5, 1.0], [0.0, 0.2]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}'
        )
        out = str(tmp_path / "report.json")
        assert cli.main(["design", str(system), "--pole", "0.3", "--pole", "0.3",
                         "--phi-scalar", "0.3", "--out", out]) == 0
        check = str(tmp_path / "check.json")
        assert cli.main(["verify", str(system), out, "--out", check]) == 0
        assert "FAIL spectrum-split" in capsys.readouterr().out
        doc = json.loads(open(check).read())
        assert doc["passed"] is True
        assert doc["spectra"]["ok"] is False
        assert doc["failed_checks"] == ["spectrum-split"]

    def test_infeasible_report_confirmed(self, tmp_path, undetectable_file, capsys):
        out = str(tmp_path / "rep.json")
        cli.main(["design", undetectable_file, "--out", out])
        assert cli.main(["verify", undetectable_file, out]) == 2

    def test_infeasible_report_rechecked_at_its_own_tolerance(self, tmp_path):
        # The mode at 2 is seen through C only at relative size ~5e-9: hidden
        # at --tol-rank 1e-7, visible at the default 1e-9.
        system = tmp_path / "faint.json"
        system.write_text(
            '{"A": [[0.5, 0.0], [0.0, 2.0]], "B": [[1.0], [1.0]], "C": [[1.0, 1e-8]]}'
        )
        out = str(tmp_path / "rep.json")
        assert cli.main(["design", str(system), "--tol-rank", "1e-7", "--out", out]) == 2
        assert json.loads(open(out).read())["tolerances"] == {"tol_rank": 1e-7}
        assert cli.main(["verify", str(system), out]) == 2

    def test_malformed_tolerance_exits_3(self, tmp_path, undetectable_file, capsys):
        out = tmp_path / "rep.json"
        cli.main(["design", undetectable_file, "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["tolerances"]["tol_rank"] = "tight"
        out.write_text(json.dumps(doc))
        assert cli.main(["verify", undetectable_file, str(out)]) == 3
        assert "tol_rank" in capsys.readouterr().err

    def test_report_against_wrong_system_exits_3(self, tmp_path, worked_file,
                                                 undetectable_file):
        out = design_worked(tmp_path, worked_file)
        assert cli.main(["verify", undetectable_file, out]) == 3


class TestSimulate:
    def test_trace_decays_below_tolerance(self, tmp_path, worked_file, capsys):
        report = design_worked(tmp_path, worked_file)
        trace_path = str(tmp_path / "trace.csv")
        status = cli.main([
            "simulate", worked_file, report, "--horizon", "100",
            "--x0", "1", "--xhat0", "0", "--out", trace_path,
        ])
        assert status == 0
        assert "converged_step=" in capsys.readouterr().out
        with open(trace_path) as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        header, data = rows[0], rows[1:]
        assert header == ["k", "x1", "xhat1", "v1", "err_inf", "v_inf"]
        assert len(data) == 101
        err = np.array([float(r[header.index("err_inf")]) for r in data])
        assert err[40] < 1e-6

    def test_matched_initial_conditions_give_zero_error_column(
        self, tmp_path, worked_file
    ):
        report = design_worked(tmp_path, worked_file)
        trace_path = str(tmp_path / "trace.csv")
        cli.main([
            "simulate", worked_file, report, "--horizon", "20",
            "--x0", "2", "--xhat0", "2", "--input", "random", "--out", trace_path,
        ])
        with open(trace_path) as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        err = [float(r[-2]) for r in rows[1:]]
        assert err == [0.0] * len(err)

    def test_error_column_is_input_independent(self, tmp_path, worked_file):
        report = design_worked(tmp_path, worked_file)
        errs = []
        for kind in ("zero", "random"):
            trace_path = str(tmp_path / f"trace_{kind}.csv")
            cli.main([
                "simulate", worked_file, report, "--horizon", "200",
                "--x0", "1", "--xhat0", "0", "--input", kind, "--out", trace_path,
            ])
            with open(trace_path) as fh:
                rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
            errs.append(np.array([float(r[-2]) for r in rows[1:]]))
        assert np.abs(errs[0] - errs[1]).max() <= 5e-9

    def test_dimension_mismatch_exits_3(self, tmp_path, worked_file, undetectable_file):
        report = design_worked(tmp_path, worked_file)
        assert cli.main(["simulate", undetectable_file, report]) == 3


class TestBatch:
    def test_mixed_batch_reports_worst_status(self, tmp_path, worked_file,
                                              undetectable_file, capsys):
        out_dir = tmp_path / "reports"
        status = cli.main([
            "batch", worked_file, undetectable_file, "--out-dir", str(out_dir),
        ])
        assert status == 2
        stdout = capsys.readouterr().out
        assert "[0]" in stdout and "[2]" in stdout
        assert (out_dir / "worked.report.json").exists()
        assert (out_dir / "undetectable.report.json").exists()
