"""Parallel determinism: ``compress_hierarchy``'s container is a pure
function of its inputs.

Paper §3.3: patches are independent, so per-patch (de)compression is an
order-preserving map. Whatever pool runs the map (serial, one thread lane,
processes), the bytes written and the arrays read back must be the serial
ones: for one-patch and multi-field levels, with ``exclude_covered``, and
for a level of grouped runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr import flatten_to_uniform
from repro.compression.amr_codec import (
    compress_hierarchy,
    decompress_hierarchy,
    decompress_selection,
)
from repro.parallel import EXECUTION_MODES, WorkerPool

from tests.strategies import tiled_hierarchy

MODES = list(EXECUTION_MODES)


@pytest.fixture(scope="module")
def hierarchy():
    return tiled_hierarchy()


@pytest.fixture(scope="module")
def grouped(hierarchy):
    return compress_hierarchy(hierarchy, "sz-lr", 1e-3, fields=["density"])


class TestCompressDeterminism:
    @pytest.mark.parametrize("codec", ["sz-lr", "sz-interp"])
    def test_byte_identical_across_modes(self, sphere_hierarchy, codec):
        reference = compress_hierarchy(sphere_hierarchy, codec, 1e-3).tobytes()
        for mode in MODES:
            with WorkerPool(mode, workers=3) as pool:
                raw = compress_hierarchy(sphere_hierarchy, codec, 1e-3, pool=pool).tobytes()
            assert raw == reference, f"{mode} container differs from serial"

    def test_multi_patch_multi_field(self, multi_field_hierarchy):
        blobs = {}
        for mode in MODES:
            with WorkerPool(mode, workers=2) as pool:
                blobs[mode] = compress_hierarchy(
                    multi_field_hierarchy, "sz-lr", 1e-3, pool=pool
                ).tobytes()
        assert blobs["serial"] == blobs["thread"] == blobs["process"]

    def test_exclude_covered_mode_independent(self, sphere_hierarchy):
        reference = compress_hierarchy(
            sphere_hierarchy, "sz-lr", 1e-3, exclude_covered=True
        ).tobytes()
        for mode in ("thread", "process"):
            with WorkerPool(mode, workers=2) as pool:
                raw = compress_hierarchy(
                    sphere_hierarchy, "sz-lr", 1e-3, exclude_covered=True, pool=pool,
                ).tobytes()
            assert raw == reference


class TestBatchedDeterminism:
    def test_byte_identical_across_modes(self, hierarchy):
        """Serial, thread, and process execution produce identical grouped
        container bytes (acceptance criterion)."""
        blobs = {}
        for mode in ("serial", "thread", "process"):
            with WorkerPool(mode, workers=3) as pool:
                blobs[mode] = compress_hierarchy(
                    hierarchy, "sz-lr", 1e-3, fields=["density"], pool=pool,
                ).tobytes()
        assert blobs["serial"] == blobs["thread"] == blobs["process"]

    def test_select_identical_across_modes(self, grouped):
        base = grouped.select()
        for mode in ("thread", "process"):
            with WorkerPool(mode, workers=3) as pool:
                other = grouped.select(pool=pool)
            assert set(base) == set(other)
            for key in base:
                assert np.array_equal(base[key], other[key])


class TestDecompressDeterminism:
    def test_roundtrip_mode_independent(self, sphere_hierarchy):
        container = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-3)
        reference = flatten_to_uniform(
            decompress_hierarchy(container, sphere_hierarchy), "f"
        )
        for mode in MODES:
            with WorkerPool(mode, workers=3) as pool:
                out = decompress_hierarchy(container, sphere_hierarchy, pool=pool)
            assert np.array_equal(flatten_to_uniform(out, "f"), reference)

    def test_cross_mode_roundtrip(self, sphere_hierarchy):
        # decompress(compress(h)) must not care which mode did which half.
        with WorkerPool("thread") as pool:
            thread_c = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-3, pool=pool)
        with WorkerPool("process", workers=2) as pool:
            out = decompress_hierarchy(thread_c, sphere_hierarchy, pool=pool)
        serial_c = compress_hierarchy(sphere_hierarchy, "sz-lr", 1e-3)
        ref = decompress_hierarchy(serial_c, sphere_hierarchy)
        assert np.array_equal(
            flatten_to_uniform(out, "f"), flatten_to_uniform(ref, "f")
        )

    def test_selection_mode_independent(self, multi_field_hierarchy):
        raw = compress_hierarchy(multi_field_hierarchy, "sz-lr", 1e-3).tobytes()
        reference = decompress_selection(raw, levels=1, fields="a")
        for mode in MODES:
            with WorkerPool(mode, workers=2) as pool:
                got = decompress_selection(raw, levels=1, fields="a", pool=pool)
            assert got.keys() == reference.keys()
            for key in reference:
                assert np.array_equal(got[key], reference[key])
