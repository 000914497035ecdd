"""Tests for utility helpers (validation, timers, rng)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import ReproError
from repro.util import (
    StageTimes,
    as_tuple,
    check_array,
    check_same_shape,
    make_rng,
)


class TestValidation:
    def test_check_array_rank(self):
        with pytest.raises(ReproError):
            check_array("a", np.zeros((2, 2)), ndim=3)

    def test_check_array_dtype_kind(self):
        with pytest.raises(ReproError):
            check_array("a", np.zeros(3, dtype=np.int32), dtype_kind="f")

    def test_check_array_empty(self):
        with pytest.raises(ReproError):
            check_array("a", np.zeros(0))
        check_array("a", np.zeros(0), allow_empty=True)

    def test_check_same_shape(self):
        with pytest.raises(ReproError):
            check_same_shape("a", np.zeros(2), "b", np.zeros(3))

    def test_as_tuple_scalar_broadcast(self):
        assert as_tuple(2, 3) == (2, 2, 2)

    def test_as_tuple_sequence(self):
        assert as_tuple((1, 2), 2) == (1, 2)
        with pytest.raises(ReproError):
            as_tuple((1, 2), 3)


class TestTimers:
    def test_stage_times_accumulate(self):
        st = StageTimes()
        st.add("a", 1.0)
        st.add("a", 0.5)
        st.add("b", 2.0)
        assert st.stages["a"] == pytest.approx(1.5)

    def test_measure_context(self):
        st = StageTimes()
        with st.measure("x"):
            time.sleep(0.005)
        assert st.stages["x"] >= 0.004


class TestRng:
    def test_int_seed_deterministic(self):
        assert make_rng(7).normal() == make_rng(7).normal()

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert make_rng(g) is g

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)
