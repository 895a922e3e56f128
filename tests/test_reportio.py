import io
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

import gen_systems as gen
from piobs import (
    DesignConfig,
    RandomInput,
    SimulationConfig,
    SystemRealization,
    cli,
    design_pi_observer,
    reportio,
    run_simulation,
    verify_design,
)
from piobs.errors import DimensionError, InputError, RankDeficiencyError

#: A detectable but unobservable 4-state plant and an observable 5-state
#: plant, with the files ``piobs design <stem>.system.json --seed 5 --out``
#: and ``piobs analyze <stem>.system.json --out`` wrote for them, and the
#: traces ``piobs simulate`` wrote from that design (``GOLDEN_TRACES``).
#: Later versions must reproduce those files byte for byte.
DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_STEMS = ("unobservable4", "observable5")
#: ``--horizon`` of each golden trace; the observable plant is unstable and
#: its state passes the overflow limit soon after 200 steps.
GOLDEN_TRACES = {"unobservable4": 300, "observable5": 200}


class TestJsonEmission:
    def test_floats_carry_17_significant_digits(self):
        text = reportio.dumps_doc({"a": 0.1, "b": 1.0, "c": -2.5e-17})
        assert '"a": 0.10000000000000001' in text
        assert '"b": 1' in text
        assert '"c": -2.4999999999999999e-17' in text

    def test_round_trip_is_lossless(self, rng):
        values = list(rng.standard_normal(200)) + [1e-300, 1e300, 0.0]
        doc = {"values": values}
        back = json.loads(reportio.dumps_doc(doc))
        assert back["values"] == values

    def test_nested_structure_and_determinism(self):
        doc = {"m": [[1.0, 2.0], [3.0, 4.0]], "flag": True, "none": None}
        assert reportio.dumps_doc(doc) == reportio.dumps_doc(doc)
        assert json.loads(reportio.dumps_doc(doc)) == doc


class TestSystemFiles:
    def test_round_trip(self, tmp_path, rng):
        system = gen.random_detectable_system(rng, n=4, p=2, m=3)
        path = tmp_path / "sys.json"
        reportio.save_system(system, path)
        back = reportio.load_system(path)
        assert np.array_equal(back.A, system.A)
        assert np.array_equal(back.B, system.B)
        assert np.array_equal(back.C, system.C)

    def test_ragged_row_names_the_row(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": [[1.0, 0.0], [0.5]], "B": [[1.0],[1.0]], "C": [[1.0, 0.0]]}')
        with pytest.raises(InputError, match="row 2"):
            reportio.load_system(path)

    def test_non_numeric_entry_is_located(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": [[1.0, "x"]], "B": [[1.0]], "C": [[1.0]]}')
        with pytest.raises(InputError, match="column 2"):
            reportio.load_system(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": [[0.5]], "C": [[1.0]]}')
        with pytest.raises(InputError, match="'B'"):
            reportio.load_system(path)

    def test_zero_output_row_rejected_as_rank_deficient(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"A": [[0.5, 0.0], [0.0, 0.2]], "B": [[1.0], [1.0]],'
            ' "C": [[0.0, 0.0]]}'
        )
        with pytest.raises(RankDeficiencyError):
            reportio.load_system(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="JSON"):
            reportio.load_system(path)


class TestDesignReports:
    def test_report_round_trip_reverifies(self, tmp_path, rng):
        system = gen.random_detectable_system(rng, n=5, p=2, m=2)
        observer = design_pi_observer(system)
        verification = verify_design(observer)
        doc = reportio.design_report_doc(observer, verification)
        path = tmp_path / "report.json"
        reportio.write_doc(doc, path)
        back = reportio.load_report(path)
        rebuilt = reportio.observer_from_report(system, back)
        assert np.array_equal(rebuilt.L, observer.L)
        assert np.array_equal(rebuilt.F, observer.F)
        assert verify_design(rebuilt).passed
        assert verify_design(rebuilt) == verification

    def test_report_for_wrong_system_is_rejected(self, tmp_path, rng):
        system = gen.random_detectable_system(rng, n=3, p=1, m=1)
        other = gen.random_detectable_system(rng, n=4, p=2, m=1)
        observer = design_pi_observer(system)
        doc = reportio.design_report_doc(observer, verify_design(observer))
        with pytest.raises(DimensionError):
            reportio.observer_from_report(other, doc)

    def test_infeasible_report_shape(self):
        system = SystemRealization(A=np.diag([0.5, 2.0]), B=np.eye(2), C=[[1.0, 0.0]])
        doc = reportio.infeasible_report_doc(system, [2.0 + 0.0j])
        assert doc["verdict"] == "infeasible"
        assert doc["witnesses"] == [[2.0, 0.0]]

    def test_identical_inputs_give_identical_bytes(self, rng):
        system = gen.random_detectable_system(rng, n=4, p=2, m=1)
        docs = []
        for _ in range(2):
            observer = design_pi_observer(system, DesignConfig(seed=5))
            docs.append(
                reportio.dumps_doc(
                    reportio.design_report_doc(observer, verify_design(observer))
                )
            )
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("stem", GOLDEN_STEMS)
    def test_matches_golden_bytes(self, stem):
        system = reportio.load_system(DATA / f"{stem}.system.json")
        observer = design_pi_observer(system, DesignConfig(seed=5))
        doc = reportio.design_report_doc(observer, observer.verification)
        golden = (DATA / f"{stem}.design-seed5.json").read_text(encoding="utf-8")
        assert reportio.dumps_doc(doc) + "\n" == golden


class TestAnalysisDoc:
    def test_unobservable_system_gets_decomposition_summary(self):
        system = SystemRealization(
            A=np.diag([2.0, 0.3]), B=[[1.0], [1.0]], C=[[1.0, 0.0]]
        )
        doc = reportio.analysis_report_doc(system)
        assert doc["detectable"] is True
        assert doc["observable"] is False
        assert doc["observable_dimension"] == 1
        assert doc["decomposition"]["a22_schur_stable"] is True

    def test_witnesses_listed_for_undetectable_system(self):
        system = SystemRealization(
            A=np.diag([0.5, 2.0]), B=np.eye(2), C=[[1.0, 0.0]]
        )
        doc = reportio.analysis_report_doc(system)
        assert doc["detectable"] is False
        assert doc["witnesses"] == [[2.0, 0.0]]

    @pytest.mark.parametrize("stem", GOLDEN_STEMS)
    def test_matches_golden_bytes(self, stem):
        system = reportio.load_system(DATA / f"{stem}.system.json")
        doc = reportio.analysis_report_doc(system)
        golden = (DATA / f"{stem}.analysis.json").read_text(encoding="utf-8")
        assert reportio.dumps_doc(doc) + "\n" == golden


class TestTraceCsv:
    def test_layout_and_counts(self, tmp_path, worked_system, worked_observer):
        trace = run_simulation(
            worked_system, worked_observer,
            SimulationConfig(horizon=10, input_signal=RandomInput(seed=1)),
        )
        path = tmp_path / "trace.csv"
        reportio.write_trace_csv(trace, path, comments=["summary line"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# summary line"
        assert lines[1] == "k,x1,xhat1,v1,err_inf,v_inf"
        assert len(lines) == 2 + 11
        first = lines[2].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 1.0

    @pytest.mark.parametrize("stem", GOLDEN_STEMS)
    def test_matches_golden_bytes(self, stem, tmp_path):
        path = tmp_path / "trace.csv"
        argv = ["simulate", str(DATA / f"{stem}.system.json"),
                str(DATA / f"{stem}.design-seed5.json"), "--horizon",
                str(GOLDEN_TRACES[stem]), "--input", "random", "--seed", "5",
                "--out", str(path)]
        assert cli.main(argv) == 0
        golden = DATA / f"{stem}.trace-seed5.csv"
        assert path.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("stem", GOLDEN_STEMS)
    def test_stdout_matches_golden_bytes(self, stem, capsysbinary):
        argv = ["simulate", str(DATA / f"{stem}.system.json"),
                str(DATA / f"{stem}.design-seed5.json"), "--horizon",
                str(GOLDEN_TRACES[stem]), "--input", "random", "--seed", "5"]
        assert cli.main(argv) == 0
        golden = DATA / f"{stem}.trace-seed5.csv"
        assert capsysbinary.readouterr().out == golden.read_bytes()

    def test_stream_and_text_agree(self, worked_system, worked_observer):
        trace = run_simulation(
            worked_system, worked_observer,
            SimulationConfig(horizon=600, input_signal=RandomInput(seed=1)),
        )
        out = io.StringIO()
        assert reportio.trace_csv_text(trace, ["c"], out=out) is None
        text = reportio.trace_csv_text(trace, ["c"])
        assert out.getvalue() == text
        assert text.splitlines()[-1].startswith("600,")

    def test_streamed_file_peak_is_below_a_quarter_of_its_size(self, rng, tmp_path):
        system = gen.random_detectable_system(
            rng, n=4, p=1, m=1, unstable_prob=0.0, force_unobservable=True
        )
        trace = run_simulation(
            system, design_pi_observer(system),
            SimulationConfig(horizon=5000, input_signal=RandomInput(seed=5)),
        )
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            reportio.write_trace_csv(trace, path, comments=["summary line"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(path.read_text().splitlines()) == 2 + 5001
        assert peak < path.stat().st_size / 4

    def test_non_finite_entry_raises(self, tmp_path, worked_system, worked_observer):
        trace = run_simulation(worked_system, worked_observer, SimulationConfig(horizon=5))
        trace.xhat[3, 0] = np.inf
        # a later row and an earlier column: the first entry in CSV order is named
        trace.x[4, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite number inf"):
            reportio.trace_csv_text(trace)
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match="non-finite number inf"):
            reportio.write_trace_csv(trace, path, comments=["summary line"])
        assert path.read_text() == ""
