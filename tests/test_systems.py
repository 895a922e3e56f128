import numpy as np
import pytest

from piobs import SystemRealization
from piobs.errors import DimensionError, InputError, RankDeficiencyError


class TestConstruction:
    def test_dimensions_are_exposed(self, rng):
        system = SystemRealization(
            A=rng.standard_normal((4, 4)),
            B=rng.standard_normal((4, 2)),
            C=rng.standard_normal((3, 4)),
        )
        assert (system.n, system.m, system.p) == (4, 2, 3)

    def test_arrays_are_read_only(self):
        system = SystemRealization(A=[[0.5]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(ValueError):
            system.A[0, 0] = 1.0

    def test_non_square_a_rejected(self):
        with pytest.raises(DimensionError):
            SystemRealization(A=np.ones((2, 3)), B=np.ones((2, 1)), C=np.ones((1, 3)))

    def test_b_row_count_must_match(self):
        with pytest.raises(DimensionError):
            SystemRealization(A=np.eye(2), B=np.ones((3, 1)), C=np.ones((1, 2)))

    def test_c_column_count_must_match(self):
        with pytest.raises(DimensionError):
            SystemRealization(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 3)))

    def test_wide_c_rejected(self):
        with pytest.raises(DimensionError):
            SystemRealization(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((3, 2)))

    def test_rank_deficient_c_rejected(self):
        with pytest.raises(RankDeficiencyError):
            SystemRealization(
                A=np.eye(2), B=np.ones((2, 1)), C=[[1.0, 2.0], [2.0, 4.0]]
            )

    def test_non_finite_entries_rejected(self):
        with pytest.raises(InputError):
            SystemRealization(A=[[np.inf]], B=[[1.0]], C=[[1.0]])

    @pytest.mark.parametrize("name", [3, 0, ["plant"], b"plant"])
    def test_name_must_be_a_string(self, name):
        # the check load_system made alone; SystemRealization(name=3) wrote "name": 3
        with pytest.raises(InputError, match="name must be a string"):
            SystemRealization(A=[[0.5]], B=[[1.0]], C=[[1.0]], name=name)

    @pytest.mark.parametrize("name", ["plant", "", None])
    def test_string_or_null_name_is_kept(self, name):
        assert SystemRealization(A=[[0.5]], B=[[1.0]], C=[[1.0]], name=name).name == name
