import csv
import json
import pathlib

import numpy as np
import pytest

import gen_systems as gen
from piobs import cli, design, linalg, reportio

DATA = pathlib.Path(__file__).parent / "data"


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


@pytest.fixture
def faint_file(tmp_path):
    """Writer of a system whose C has sigma_2 / sigma_1 = 5e-11: full row rank at
    --tol-rank 1e-12, rank deficient at the default 1e-9. The third mode, at
    ``hidden``, is unobservable."""
    def write(hidden):
        path = tmp_path / "faint.json"
        path.write_text(json.dumps({"A": np.diag([0.5, 0.2, hidden]).tolist(),
                                    "B": [[1.0], [0.0], [0.0]],
                                    "C": [[1.0, 0.0, 0.0], [1.0, 1e-10, 0.0]]}))
        return str(path)
    return write


def design_worked(tmp_path, worked_file, *extra):
    out = str(tmp_path / "report.json")
    status = cli.main(
        ["design", worked_file, "--pole", "0.2", "--phi-scalar", "0.3", "--out", out]
        + list(extra)
    )
    assert status == 0
    return out


def tampered_report(tmp_path, worked_file, edit):
    """The worked design's report file after ``edit(doc)`` changed its document."""
    out = design_worked(tmp_path, worked_file)
    doc = json.loads(open(out).read())
    edit(doc)
    with open(out, "w") as fh:
        fh.write(json.dumps(doc))
    return out


#: Stability margins outside [0, 1): negative, non-finite, and at or above 1.
BAD_MARGINS = ["-0.5", "nan", "inf", "1", "1.5"]
#: Rank tolerances outside (0, 1) that pass a positivity test; each makes every rank 0.
BAD_TOL_RANKS = ["nan", "inf", "1", "1.5"]


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


    @pytest.mark.parametrize("stem", ["observable5", "unobservable4"])
    def test_out_file_matches_golden_bytes(self, tmp_path, stem):
        out = tmp_path / "analysis.json"
        assert cli.main(["analyze", str(DATA / f"{stem}.system.json"), "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"{stem}.analysis.json").read_bytes()


class TestMalformedSystems:
    @pytest.mark.parametrize("text, message", [
        ('{"A": [], "B": [[1.0]], "C": [[1.0]]}', "A: expected a non-empty array of rows"),
        ('{"A": [0.5], "B": [[1.0]], "C": [[1.0]]}',
         "A: row 1 must be a non-empty array of numbers"),
        ('[[0.5]]', "expected a JSON object at top level"),
        ('{"name": 3, "A": [[0.5]], "B": [[1.0]], "C": [[1.0]]}', "name must be a string, got 3"),
    ])
    def test_malformed_system_file_exits_3_naming_file_and_field(self, tmp_path, capsys,
                                                                 text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert cli.main(["analyze", str(path)]) == 3
        assert capsys.readouterr().err == f"piobs: error: {path}: {message}\n"

    def test_unreadable_system_file_exits_3_naming_it(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert cli.main(["design", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"piobs: error: cannot read {path}: ")


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

    @pytest.mark.parametrize("system, status", [("worked_file", 0), ("undetectable_file", 2)])
    def test_stdout_report_is_the_out_file(self, tmp_path, capsysbinary, request, system,
                                           status):
        path = request.getfixturevalue(system)
        out = tmp_path / "report.json"
        assert cli.main(["design", path, "--out", str(out)]) == status
        capsysbinary.readouterr()
        assert cli.main(["design", path]) == status
        assert capsysbinary.readouterr().out == out.read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["design", "sys.json", "--pole", "abc"], "not a number: 'abc'"),
        (["simulate", "sys.json", "rep.json", "--x0", "a,b"],
         "expected comma-separated numbers, got 'a,b'"),
    ])
    def test_unparsable_flag_value_exits_3(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 3
        assert message in capsys.readouterr().err

    def test_output_matrix_the_loader_accepts_never_exits_3(self, tmp_path, capsys):
        # A C with sigma_p / sigma_1 = 1.09e-9, full row rank at the default
        # tol_rank: the design is kept (0) or refused by verification (4).
        C = json.loads((DATA / "rank_stress_refused.json").read_text())["cases"][0]["C"]
        n = len(C[0])
        path = tmp_path / "faint.json"
        path.write_text(json.dumps({"A": (0.5 * np.eye(n)).tolist(),
                                    "B": [[0.0]] * n, "C": C}))
        status = cli.main(["design", str(path), "--out", str(tmp_path / "r.json")])
        assert status in (0, 4)
        assert "full row rank" not in capsys.readouterr().err

    def test_wrong_pole_count_exits_3(self, undetectable_file, tmp_path, capsys):
        path = tmp_path / "sys.json"
        path.write_text(
            '{"A": [[0.5, 1.0], [0.0, 0.3]], "B": [[1.0], [1.0]], "C": [[1.0, 0.0]]}'
        )
        assert cli.main(["design", str(path), "--pole", "0.1"]) == 3

    def test_negative_seed_exits_3(self, worked_file, capsys):
        assert cli.main(["design", worked_file, "--seed", "-1"]) == 3
        assert "seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("margin", BAD_MARGINS)
    def test_margin_outside_unit_interval_exits_3(self, tmp_path, worked_file, capsys, margin):
        # default phi and poles: no margin check of the config would catch it later
        out = tmp_path / "report.json"
        assert cli.main(["design", worked_file, f"--margin={margin}", "--out", str(out)]) == 3
        assert "margin must be in [0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol_rank", BAD_TOL_RANKS)
    def test_tol_rank_outside_unit_interval_exits_3(self, tmp_path, worked_file, capsys,
                                                     tol_rank):
        # the tolerance is named, not the rank deficiency of C it would cause
        out = tmp_path / "report.json"
        assert cli.main(["design", worked_file, f"--tol-rank={tol_rank}",
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "piobs: error:" in err and "tol_rank must be in (0, 1)" in err
        assert "full row rank" not in err
        assert not out.exists()

    def test_nan_pole_is_refused_by_the_magnitude_rule(self, tmp_path, worked_file, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["design", worked_file, "--pole", "nan", "--out", str(out)]) == 3
        assert "target poles must have magnitude below" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol_eig", ["nan", "inf", "-1e-8"])
    def test_bad_tol_eig_exits_3_and_writes_nothing(self, tmp_path, capsys, tol_eig):
        # a NaN would first fail in the report writer, after --out was opened
        out = tmp_path / "report.json"
        assert cli.main(["design", str(DATA / "observable5.system.json"),
                         f"--tol-eig={tol_eig}", "--out", str(out)]) == 3
        assert "piobs: error: tol_eig must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_phi_scalar_and_phi_file_together_exit_3(self, tmp_path, worked_file, capsys):
        phi = tmp_path / "phi.json"
        phi.write_text("[[0.3]]")
        with pytest.raises(SystemExit) as err:
            cli.main(["design", worked_file, "--phi-scalar", "0.3", "--phi-file", str(phi)])
        assert err.value.code == 3
        assert "not allowed with argument" in capsys.readouterr().err

    def test_phi_and_lambda_files_match_the_scalar_design(self, tmp_path, capsys):
        # acceptance criterion 9 through the CLI: the free block moves the
        # gains, not the augmented spectrum
        system = str(DATA / "observable5.system.json")
        phi = [[0.3, 0.0], [0.0, 0.3]]
        lam = [[0.5, -0.25], [0.125, 1.0], [-2.0, 0.75]]
        (tmp_path / "phi.json").write_text(json.dumps(phi))
        (tmp_path / "lambda.json").write_text(json.dumps(lam))
        files, scalar = str(tmp_path / "files.json"), str(tmp_path / "scalar.json")
        assert cli.main(["design", system, "--phi-file", str(tmp_path / "phi.json"),
                         "--lambda-file", str(tmp_path / "lambda.json"), "--out", files]) == 0
        assert cli.main(["design", system, "--phi-scalar", "0.3", "--out", scalar]) == 0
        a, b = (json.loads(open(path).read()) for path in (files, scalar))
        assert a["config"]["phi"] == phi and a["config"]["lambda"] == lam
        assert b["config"]["lambda"] == [[0, 0]] * 3
        assert a["gains"]["L"] != b["gains"]["L"]
        assert cli.main(["verify", system, files]) == 0
        out = capsys.readouterr().out
        for check in ("augmented-schur-stability", "similarity-identity", "phi-identity"):
            assert f"PASS {check}" in out
        spectra = [[complex(*z) for z in doc["spectra"]["augmented"]] for doc in (a, b)]
        assert linalg.pairing_distance(*spectra) <= 1e-6


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

    @pytest.mark.parametrize("margin", BAD_MARGINS)
    def test_margin_outside_unit_interval_exits_3(self, tmp_path, worked_file, capsys, margin):
        # A consistent report of an unstable observer: K = 0.7 puts A + KC at
        # 1.2, and L = X - K = 0, F = -(A - LC) X + X (-C X + I) = -0.14 keep
        # both identities, so only the margin decides.
        out = design_worked(tmp_path, worked_file)
        doc = json.loads(open(out).read())
        doc["intermediates"]["K"] = [[0.7]]
        doc["gains"]["L"], doc["gains"]["F"] = [[0.0]], [[-0.14]]
        with open(out, "w") as fh:
            fh.write(reportio.dumps_doc(doc))
        assert cli.main(["verify", worked_file, out]) == 4
        assert "FAIL augmented-schur-stability: spectral radius 1.2" in capsys.readouterr().out
        assert cli.main(["verify", worked_file, out, f"--margin={margin}"]) == 3
        captured = capsys.readouterr()
        assert "margin must be in [0, 1)" in captured.err
        assert "PASS" not in captured.out

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

    @pytest.mark.parametrize("hidden, status", [(0.1, 0), (2.0, 2)])
    def test_system_is_loaded_at_the_tol_rank_of_the_report(self, tmp_path, faint_file, hidden,
                                                            status):
        system = faint_file(hidden)
        out = str(tmp_path / "rep.json")
        assert cli.main(["design", system, "--tol-rank", "1e-12", "--out", out]) == status
        assert cli.main(["verify", system, out]) == status

    def test_malformed_tolerance_exits_3(self, tmp_path, undetectable_file, capsys):
        out = tmp_path / "rep.json"
        cli.main(["design", undetectable_file, "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["tolerances"]["tol_rank"] = "tight"
        out.write_text(json.dumps(doc))
        assert cli.main(["verify", undetectable_file, str(out)]) == 3
        assert "tol_rank" in capsys.readouterr().err

    def test_nan_tol_rank_of_an_infeasible_report_exits_3(self, tmp_path, capsys):
        # an observable plant: a NaN tolerance would make every PBH rank 0 and
        # "confirm" the infeasible verdict
        system = tmp_path / "observable.json"
        system.write_text('{"A": [[1.2, 0.0], [0.0, 0.5]], "B": [[1.0], [1.0]], '
                          '"C": [[1.0, 1.0]]}')
        report = tmp_path / "rep.json"
        report.write_text(json.dumps({
            "format": reportio.REPORT_FORMAT, "version": 1,
            "system": {"name": "", "n": 2, "m": 1, "p": 1}, "verdict": "infeasible",
            "witnesses": [[1.2, 0.0]], "tolerances": {"tol_rank": float("nan")},
        }))
        assert cli.main(["verify", str(system), str(report)]) == 3
        captured = capsys.readouterr()
        assert "piobs: error: tol_rank must be in (0, 1), got nan" in captured.err
        assert "confirmed" not in captured.out

    def test_infeasible_report_of_a_detectable_system_exits_4(self, tmp_path, worked_file,
                                                              undetectable_file, capsys):
        out = str(tmp_path / "rep.json")
        assert cli.main(["design", undetectable_file, "--out", out]) == 2
        capsys.readouterr()
        assert cli.main(["verify", worked_file, out]) == 4
        captured = capsys.readouterr()
        assert captured.err == "report claims infeasible but the system is detectable\n"
        assert "confirmed" not in captured.out

    def test_report_against_wrong_system_exits_3(self, tmp_path, worked_file,
                                                 undetectable_file):
        out = design_worked(tmp_path, worked_file)
        assert cli.main(["verify", undetectable_file, out]) == 3


class TestMalformedReports:
    # cli.main returns an exit code only for typed errors; any other exception
    # propagates out of it, so exit 3 here also means no traceback.

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize("key, value", [
        ("margin", "abc"), ("seed", "x"), ("seed", 1.5), ("tol_eig", [1]), ("tol_rank", None),
    ])
    def test_bad_config_value_exits_3(self, tmp_path, worked_file, capsys, command, key, value):
        report = tampered_report(tmp_path, worked_file,
                                 lambda doc: doc["config"].update({key: value}))
        out = tmp_path / "out"
        assert cli.main([command, worked_file, report, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"piobs: error: {key} must be") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_system_header_that_is_not_an_object_exits_3(self, tmp_path, worked_file, capsys,
                                                         command):
        report = tampered_report(tmp_path, worked_file, lambda doc: doc.update(system="abc"))
        assert cli.main([command, worked_file, report]) == 3
        assert ("piobs: error: report field 'system' must be an object, got str"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_pole_list_that_is_not_an_array_exits_3(self, tmp_path, worked_file, capsys,
                                                    command):
        report = tampered_report(tmp_path, worked_file,
                                 lambda doc: doc.update(poles={"assigned": 5}))
        assert cli.main([command, worked_file, report]) == 3
        assert ("piobs: error: poles.assigned: expected an array of pairs, got int"
                in capsys.readouterr().err)


    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize("entry, message", [
        ([0.2], "poles.assigned: expected a [re, im] pair, got [0.2]"),
        (["0.2", 0.0], "poles.assigned: expected numeric [re, im] pair, got ['0.2', 0.0]"),
    ])
    def test_pole_entry_that_is_not_a_numeric_pair_exits_3(self, tmp_path, worked_file, capsys,
                                                           command, entry, message):
        report = tampered_report(tmp_path, worked_file,
                                 lambda doc: doc["poles"].update(assigned=[entry]))
        assert cli.main([command, worked_file, report]) == 3
        assert capsys.readouterr().err == f"piobs: error: {message}\n"

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    @pytest.mark.parametrize("edit, message", [
        ({"format": "pi-observer-analysis"}, "not a design report document"),
        ({"verdict": "maybe"}, "missing or invalid 'verdict'"),
    ])
    def test_file_that_is_not_a_design_report_exits_3_naming_it(
            self, tmp_path, worked_file, capsys, command, edit, message):
        report = tampered_report(tmp_path, worked_file, lambda doc: doc.update(edit))
        assert cli.main([command, worked_file, report]) == 3
        assert capsys.readouterr().err == f"piobs: error: {report}: {message}\n"

    def test_simulate_of_an_infeasible_report_exits_3(self, tmp_path, undetectable_file,
                                                      capsys):
        out = str(tmp_path / "rep.json")
        assert cli.main(["design", undetectable_file, "--out", out]) == 2
        capsys.readouterr()
        assert cli.main(["simulate", undetectable_file, out]) == 3
        assert capsys.readouterr().err == (
            "piobs: error: report is infeasible; it carries no gains to rebuild\n")


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
        for kind in ("zero", "random", "constant", "step"):
            trace_path = str(tmp_path / f"trace_{kind}.csv")
            assert cli.main([
                "simulate", worked_file, report, "--horizon", "200", "--x0", "1",
                "--xhat0", "0", "--v0", "0.25", "--tol", "1e-9", "--input", kind,
                "--out", trace_path,
            ]) == 0
            with open(trace_path) as fh:
                rows = list(csv.reader(fh))
            assert rows[0][0].endswith(" tol=1e-09")
            assert float(rows[2][3]) == 0.25  # v1 at k = 0
            errs.append(np.array([float(r[-2]) for r in rows[2:]]))
        for err in errs[1:]:
            assert np.abs(err - errs[0]).max() <= 5e-9

    def test_system_is_loaded_at_the_tol_rank_of_the_report(self, tmp_path, faint_file):
        system = faint_file(0.1)
        report, trace = str(tmp_path / "rep.json"), tmp_path / "trace.csv"
        assert cli.main(["design", system, "--tol-rank", "1e-12", "--out", report]) == 0
        assert cli.main(["simulate", system, report, "--horizon", "5", "--out", str(trace)]) == 0
        assert len(trace.read_text().splitlines()) == 2 + 6

    @pytest.mark.parametrize("x0, message", [
        ("1,2", "x0: expected length 1, got 2"), ("nan", "x0: contains non-finite entries"),
    ])
    def test_bad_initial_state_exits_3_and_writes_nothing(self, tmp_path, worked_file, capsys,
                                                          x0, message):
        report = design_worked(tmp_path, worked_file)
        capsys.readouterr()
        out = tmp_path / "trace.csv"
        assert cli.main(["simulate", worked_file, report, f"--x0={x0}", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"piobs: error: {message}\n"
        assert not out.exists()

    def test_dimension_mismatch_exits_3(self, tmp_path, worked_file, undetectable_file):
        report = design_worked(tmp_path, worked_file)
        assert cli.main(["simulate", undetectable_file, report]) == 3

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_3(self, tmp_path, worked_file, capsys, tol):
        # nan would never converge and inf would converge at step 0
        report = design_worked(tmp_path, worked_file)
        out = tmp_path / "trace.csv"
        assert cli.main(["simulate", worked_file, report, f"--tol={tol}",
                         "--out", str(out)]) == 3
        assert ("piobs: error: convergence tolerance must be positive and finite"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_non_finite_state_exits_4_and_writes_nothing(self, tmp_path, capsys):
        # L C overflows to inf and inf * 0 makes xhat NaN at step 1, which no
        # test against the overflow limit catches
        system = tmp_path / "sys.json"
        system.write_text('{"A": [[0.5]], "B": [[1.0]], "C": [[2.0]]}')
        report = tmp_path / "report.json"
        assert cli.main(["design", str(system), "--pole", "0.2", "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        doc["gains"]["L"] = [[1e308]]
        report.write_text(json.dumps(doc))
        out = tmp_path / "trace.csv"
        assert cli.main(["simulate", str(system), str(report), "--out", str(out)]) == 4
        assert "piobs: error: simulation aborted at step 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_random_input_seed_exits_3(self, tmp_path, worked_file, capsys):
        report = design_worked(tmp_path, worked_file)
        assert cli.main(["simulate", worked_file, report, "--input", "random",
                         "--seed", "-1"]) == 3
        assert "seed must be nonnegative" in capsys.readouterr().err


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

    def test_failing_member_prints_its_error_and_batch_exits_with_the_worst_status(
            self, tmp_path, worked_file, undetectable_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"A": [[0.5]], "B": [[1.0]]}')
        argv = ["batch", worked_file, str(bad), undetectable_file, "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 3
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("[")] == [
            f"[0] {worked_file}: feasible",
            f"[3] {bad}: error: {bad}: missing required field 'C'",
            f"[2] {undetectable_file}: infeasible",
        ]

    def test_two_systems_with_one_report_name_exit_3_before_any_design(
            self, tmp_path, worked_file, undetectable_file, capsys):
        for name, source in (("a", worked_file), ("b", undetectable_file)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "sys.json").write_text(open(source).read())
        first, second = str(tmp_path / "a" / "sys.json"), str(tmp_path / "b" / "sys.json")
        out_dir = tmp_path / "reports"
        assert cli.main(["batch", first, second, "--out-dir", str(out_dir)]) == 3
        captured = capsys.readouterr()
        assert f"{first} and {second} would both write" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    def test_negative_seed_exits_3(self, tmp_path, worked_file, capsys):
        out_dir = tmp_path / "reports"
        assert cli.main(["batch", worked_file, "--seed", "-1",
                         "--out-dir", str(out_dir)]) == 3
        captured = capsys.readouterr()
        assert captured.err.count("seed must be nonnegative") == 1
        assert "[3]" not in captured.out
        assert not out_dir.exists()

    def test_bad_tol_rank_is_refused_once_before_any_design(self, tmp_path, worked_file,
                                                            undetectable_file, capsys):
        # the CLI checks the flag once, by the rule numerical_rank applies per file
        out_dir = tmp_path / "r"
        assert cli.main(["batch", worked_file, undetectable_file, "--tol-rank", "nan",
                         "--out-dir", str(out_dir)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "piobs: error: tol_rank must be in (0, 1), got nan\n"
        assert captured.out == ""
        assert not out_dir.exists()

    def test_bad_flag_is_refused_once_before_any_design(self, tmp_path, worked_file,
                                                        undetectable_file, capsys):
        out_dir = tmp_path / "r"
        assert cli.main(["batch", worked_file, undetectable_file, "--margin", "nan",
                         "--out-dir", str(out_dir)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "piobs: error: margin must be in [0, 1), got nan\n"
        assert captured.out == ""
        assert not out_dir.exists()


class TestUnwritableOutput:
    """An output path that cannot be written is an input error naming it: exit 3
    with one error line, no traceback, and no file left behind."""

    @pytest.mark.parametrize("command", ["analyze", "design", "verify", "simulate", "batch"])
    def test_exits_3_naming_the_path(self, tmp_path, worked_file, capsys, command):
        report = design_worked(tmp_path, worked_file)
        blocker = tmp_path / "regular-file"
        blocker.write_text("")
        out = tmp_path / "missing" / "out"
        argv = {"analyze": ["analyze", worked_file, "--out", str(out)],
                "design": ["design", worked_file, "--out", str(out)],
                "verify": ["verify", worked_file, report, "--out", str(out)],
                "simulate": ["simulate", worked_file, report, "--out", str(out)],
                "batch": ["batch", worked_file, "--out-dir", str(blocker / "reports")]}[command]
        target = blocker / "reports" if command == "batch" else out
        capsys.readouterr()
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"piobs: error: cannot write {target}: ")
        assert err.count("\n") == 1
        assert not out.parent.exists() and blocker.read_text() == ""

    def test_batch_reports_3_for_a_report_it_cannot_write_and_goes_on(
            self, tmp_path, worked_file, undetectable_file, capsys):
        out_dir = tmp_path / "reports"
        (out_dir / "worked.report.json").mkdir(parents=True)
        argv = ["batch", worked_file, undetectable_file, "--out-dir", str(out_dir)]
        assert cli.main(argv) == 3
        out = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
        assert out[0].startswith(
            f"[3] {worked_file}: error: cannot write {out_dir / 'worked.report.json'}: ")
        assert out[1] == f"[2] {undetectable_file}: infeasible"
        assert (out_dir / "undetectable.report.json").exists()


class TestTolRankBelowMachineEpsilon:
    """C = [[1, 0, 0], [1, 1e-200, 0]] has full row rank only at a tol_rank
    below 5e-201, where rounding noise counts as rank; a design there had
    gains near 5e199. Every command refuses such a tol_rank before any file."""

    @pytest.fixture
    def tiny_file(self, tmp_path):
        return self.write(tmp_path / "tiny.json", 1e-200)

    @staticmethod
    def write(path, c22):
        path.write_text(json.dumps({"A": np.diag([0.5, 0.2, 0.1]).tolist(),
                                    "B": [[1.0], [0.0], [0.0]],
                                    "C": [[1.0, 0.0, 0.0], [1.0, c22, 0.0]]}))
        return str(path)

    def test_design_exits_3(self, tmp_path, tiny_file, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["design", tiny_file, "--tol-rank", "1e-300", "--out", str(out)]) == 3
        assert "tol_rank must be at least machine epsilon" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_exits_3(self, tmp_path, tiny_file, capsys):
        out_dir = tmp_path / "reports"
        assert cli.main(["batch", tiny_file, "--tol-rank", "1e-300",
                         "--out-dir", str(out_dir)]) == 3
        assert "tol_rank must be at least machine epsilon" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_verify_of_a_report_at_that_tol_rank_exits_3(self, tmp_path, tiny_file, capsys):
        # a design of the well-conditioned sibling, its tol_rank edited
        report = tmp_path / "report.json"
        sibling = self.write(tmp_path / "sibling.json", 1.0)
        assert cli.main(["design", sibling, "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        doc["config"]["tol_rank"] = 1e-300
        report.write_text(json.dumps(doc))
        out = tmp_path / "verification.json"
        assert cli.main(["verify", tiny_file, str(report), "--out", str(out)]) == 3
        assert "tol_rank must be at least machine epsilon" in capsys.readouterr().err
        assert not out.exists()


class TestFileThatIsNotUtf8:
    """Bytes that are not UTF-8 are a bad file like any other: exit 3 with one
    error line naming the file, not a UnicodeDecodeError traceback."""

    @pytest.mark.parametrize("role", ["system", "report", "phi-file"])
    def test_exits_3_naming_the_file(self, tmp_path, worked_file, capsys, role):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        argv = {"system": ["analyze", str(bad)],
                "report": ["verify", worked_file, str(bad)],
                "phi-file": ["design", worked_file, "--phi-file", str(bad)]}[role]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"piobs: error: {bad}: ")
        assert err.count("\n") == 1


class TestAmbiguousPair:
    """``gen.weakly_observed_hidden_block``: PBH calls the pair observable while
    the staircase gives q = 2 of 4. ``analyze`` refuses it
    as ``design`` does rather than print both verdicts."""

    @pytest.fixture
    def ambiguous_file(self, tmp_path):
        A, C = gen.weakly_observed_hidden_block()
        path = tmp_path / "ambiguous.json"
        path.write_text(json.dumps({"A": A.tolist(), "B": [[1.0]] * 4, "C": C.tolist()}))
        return str(path)

    @pytest.mark.parametrize("command", ["analyze", "design"])
    def test_exits_4_and_writes_nothing(self, tmp_path, ambiguous_file, capsys, command):
        out = tmp_path / "out.json"
        assert cli.main([command, ambiguous_file, "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("piobs: error: observability is numerically ambiguous")
        assert "observable: no" not in captured.out
        assert not out.exists()


class TestTolRankAtTheStaircaseBound:
    """From tol_rank = 0.01 on, the staircase's first cut, 100 tol_rank, reaches
    the unit norm of the scaled C, so no design could succeed. Every command
    refuses such a tol_rank as an input error naming the bound."""

    MESSAGE = "tol_rank must be below 0.01"

    @pytest.fixture
    def pair_file(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text('{"A": [[0.5, 1.0], [0.0, 0.2]], "B": [[0.0], [1.0]], '
                        '"C": [[1.0, 0.0]]}')
        return str(path)

    @pytest.mark.parametrize("command", ["analyze", "design"])
    def test_exits_3(self, tmp_path, pair_file, capsys, command):
        out = tmp_path / "out.json"
        assert cli.main([command, pair_file, "--tol-rank", "0.05", "--out", str(out)]) == 3
        assert self.MESSAGE in capsys.readouterr().err
        assert not out.exists()

    def test_batch_refuses_once_before_any_design(self, tmp_path, pair_file, worked_file,
                                                  capsys):
        out_dir = tmp_path / "reports"
        assert cli.main(["batch", pair_file, worked_file, "--tol-rank", "0.05",
                         "--out-dir", str(out_dir)]) == 3
        captured = capsys.readouterr()
        assert captured.err.count(self.MESSAGE) == 1 and captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_report_at_that_tol_rank_exits_3(self, tmp_path, pair_file, capsys, command):
        report = tmp_path / "report.json"
        assert cli.main(["design", pair_file, "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        doc["config"]["tol_rank"] = 0.05
        report.write_text(json.dumps(doc))
        assert cli.main([command, pair_file, str(report)]) == 3
        assert self.MESSAGE in capsys.readouterr().err
