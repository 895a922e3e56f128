"""The functions whose spans the benchmark reads stay public functions.

``perfbench/tracer.py`` wraps every public function of the piobs modules and
names its span ``<layer>.<function>``; ``perfbench/workloads.py:span_metrics``
and the cli-session metrics then read the spans below by name. A function
that is renamed, made private or folded into another leaves its metric
reading 0, and a traced cli-session run divides by the
``reportio.trace_csv_text`` span's time, so it breaks outright.
"""

import importlib
import inspect
import pathlib

import pytest

from piobs import cli, reportio

#: (module, function) of every span the benchmark reads.
SPAN_FUNCTIONS = [
    ("design", "design_pi_observer"),
    ("design", "place_poles"),
    ("design", "verify_design"),
    ("analysis", "pbh_rank_at"),
    ("analysis", "observability_matrix"),
    ("linalg", "numerical_rank"),
    ("_kernels", "simulate"),
    ("sim", "build_input"),
    ("sim", "fit_decay_rate"),
    ("reportio", "trace_csv_text"),
    ("reportio", "dumps_doc"),
    ("reportio", "design_report_doc"),
    ("reportio", "load_report"),
    ("reportio", "observer_from_report"),
]

DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("module, name", SPAN_FUNCTIONS,
                         ids=[f"{m}.{f}" for m, f in SPAN_FUNCTIONS])
def test_span_function_is_a_public_function_of_its_module(module, name):
    # the tracer's criterion: a function defined in that module, no leading underscore
    mod = importlib.import_module(f"piobs.{module}")
    fn = getattr(mod, name, None)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__
    assert not name.startswith("_")


def test_simulate_to_a_file_goes_through_trace_csv_text(tmp_path, monkeypatch):
    calls = []
    original = reportio.trace_csv_text

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(reportio, "trace_csv_text", recording)
    out = tmp_path / "trace.csv"
    argv = ["simulate", str(DATA / "observable5.system.json"),
            str(DATA / "observable5.design-seed5.json"), "--horizon", "20", "--out", str(out)]
    assert cli.main(argv) == 0
    assert len(calls) == 1
    assert len(out.read_text().splitlines()) == 2 + 21
