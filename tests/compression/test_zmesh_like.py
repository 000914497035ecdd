"""Tests for the zMesh-style 1-D reordering baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.amr_codec import compress_hierarchy
from repro.compression.zmesh_like import ZMeshLike, morton_order, serialize_hierarchy_1d
from repro.errors import CompressionError

from tests.strategies import make_sphere_hierarchy


class TestMortonOrder:
    def test_is_permutation(self):
        for shape in ((4, 4), (3, 5), (2, 3, 4), (7,)):
            order = morton_order(shape)
            assert sorted(order) == list(range(int(np.prod(shape))))

    def test_2x2_z_pattern(self):
        order = morton_order((2, 2))
        # Z-order visits (0,0), (1,0), (0,1), (1,1) with our bit layout.
        coords = [np.unravel_index(i, (2, 2)) for i in order]
        assert coords[0] == (0, 0)
        assert set(coords) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_locality_better_than_raster(self):
        # Mean index-space distance between consecutive visits should be
        # lower than C-order's worst-case row jumps for square arrays.
        shape = (16, 16)
        order = morton_order(shape)
        ij = np.stack(np.unravel_index(order, shape), axis=1).astype(float)
        steps = np.abs(np.diff(ij, axis=0)).sum(axis=1)
        assert steps.mean() < 2.0

    def test_bad_shape_rejected(self):
        with pytest.raises(CompressionError):
            morton_order((0, 4))


class TestSerialize:
    def test_total_length(self):
        h = make_sphere_hierarchy(8)
        flat, layout = serialize_hierarchy_1d(h, "f")
        assert flat.size == h.stored_cells()
        assert len(layout) == sum(len(lev.boxes) for lev in h)


class TestCodec:
    @pytest.fixture(scope="class")
    def hierarchy(self):
        return make_sphere_hierarchy(16)

    @pytest.mark.parametrize("backend", ["sz-lr", "sz-interp"])
    def test_error_bound(self, hierarchy, backend):
        z = ZMeshLike(backend)
        blob = z.compress_hierarchy(hierarchy, "f", 1e-3, mode="rel")
        out = z.decompress_hierarchy(blob, hierarchy, "f")
        flat, _ = serialize_hierarchy_1d(hierarchy, "f")
        eb = 1e-3 * (flat.max() - flat.min())
        for lev_o, lev_r in zip(hierarchy, out):
            for p, q in zip(lev_o.patches("f"), lev_r.patches("f")):
                assert np.abs(p.data - q.data).max() <= eb * (1 + 1e-9)

    def test_template_not_mutated(self, hierarchy):
        z = ZMeshLike()
        before = hierarchy[0].patches("f")[0].data.copy()
        blob = z.compress_hierarchy(hierarchy, "f", 1e-2)
        z.decompress_hierarchy(blob, hierarchy, "f")
        assert np.array_equal(hierarchy[0].patches("f")[0].data, before)

    def test_3d_per_patch_beats_1d_reorder(self, hierarchy):
        """The paper's premise for citing TAC over zMesh (§1)."""
        z = ZMeshLike("sz-lr")
        blob_1d = z.compress_hierarchy(hierarchy, "f", 1e-3, mode="rel")
        c3d = compress_hierarchy(hierarchy, "sz-lr", 1e-3, fields=["f"])
        cr_1d = hierarchy.nbytes("f") / len(blob_1d)
        assert c3d.ratio > cr_1d
