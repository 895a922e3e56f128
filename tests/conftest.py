import importlib.util
import pathlib

import numpy as np
import pytest

from piobs import DesignConfig, SystemRealization, design_pi_observer


BENCH_PLANTS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "plants.py"


@pytest.fixture(scope="session")
def bench_plants():
    """The benchmark's seeded plant generator, imported read-only."""
    spec = importlib.util.spec_from_file_location("bench_plants", BENCH_PLANTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def worked_system():
    """The fully hand-computable scalar plant used throughout the docs."""
    return SystemRealization(A=[[0.5]], B=[[1.0]], C=[[1.0]], name="worked-1d")


@pytest.fixture
def worked_observer(worked_system):
    """Its observer: pole 0.2, phi 0.3 => K=-0.3, X=0.7, L=1.0, F=0.56."""
    return design_pi_observer(
        worked_system, DesignConfig(target_poles=(0.2,), phi=0.3)
    )
