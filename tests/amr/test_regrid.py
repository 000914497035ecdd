"""Tests for Berger-Rigoutsos clustering (repro.amr.regrid)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.amr import Box, cluster_tags
from repro.errors import ReproError


def _covers(boxes, tags: np.ndarray) -> bool:
    window = Box.from_shape(tags.shape)
    if len(boxes) == 0:
        return not tags.any()
    return bool((boxes.mask(window) | ~tags).all())


class TestClusterBasics:
    def test_empty_tags_empty_boxes(self):
        assert len(cluster_tags(np.zeros((8, 8), dtype=bool))) == 0

    def test_single_cell(self):
        tags = np.zeros((8, 8), dtype=bool)
        tags[3, 5] = True
        boxes = cluster_tags(tags)
        assert len(boxes) == 1
        assert boxes[0] == Box((3, 5), (3, 5))

    def test_full_domain(self):
        tags = np.ones((6, 6, 6), dtype=bool)
        boxes = cluster_tags(tags)
        assert _covers(boxes, tags)
        assert boxes.cell_count() == tags.size

    def test_rectangle_exact(self):
        tags = np.zeros((16, 16), dtype=bool)
        tags[2:9, 4:12] = True
        boxes = cluster_tags(tags, efficiency=0.9)
        assert _covers(boxes, tags)
        assert boxes.cell_count() == 7 * 8  # one tight box

    def test_two_separated_clusters_split_at_hole(self):
        tags = np.zeros((20, 8), dtype=bool)
        tags[1:5, 2:6] = True
        tags[14:19, 1:4] = True
        boxes = cluster_tags(tags, efficiency=0.8)
        assert _covers(boxes, tags)
        assert len(boxes) == 2

    def test_efficiency_reached(self):
        rng = np.random.default_rng(3)
        tags = rng.random((24, 24)) > 0.85
        boxes = cluster_tags(tags, efficiency=0.5)
        assert _covers(boxes, tags)
        window = Box.from_shape(tags.shape)
        covered = boxes.mask(window).sum()
        assert tags.sum() / covered >= 0.3  # overall efficiency reasonable

    def test_disjoint(self):
        rng = np.random.default_rng(4)
        tags = rng.random((16, 16, 16)) > 0.7
        boxes = cluster_tags(tags)
        assert boxes.is_disjoint()

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ReproError):
            cluster_tags(np.ones((4, 4), dtype=bool), efficiency=0.0)


class TestBlocking:
    def test_blocking_factor_alignment(self):
        tags = np.zeros((16, 16), dtype=bool)
        tags[3:6, 5:7] = True
        boxes = cluster_tags(tags, blocking_factor=4)
        assert _covers(boxes, tags)
        for b in boxes:
            for lo, s, n in zip(b.lo, b.shape, (16, 16)):
                assert lo % 4 == 0
                # Boxes at the domain edge may be clipped below the factor.
                assert s % 4 == 0 or lo + s == n

    def test_blocking_stays_disjoint(self):
        rng = np.random.default_rng(5)
        tags = rng.random((32, 32)) > 0.75
        boxes = cluster_tags(tags, blocking_factor=8)
        assert boxes.is_disjoint()
        assert _covers(boxes, tags)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**20 - 1), st.integers(1, 4))
    def test_cover_and_disjoint_random_masks(self, bits: int, blocking: int):
        tags = np.array([(bits >> i) & 1 for i in range(20)], dtype=bool).reshape(4, 5)
        # Lift to 3-D for a stricter exercise.
        tags3 = np.broadcast_to(tags[..., None], (4, 5, 3)).copy()
        boxes = cluster_tags(tags3, blocking_factor=blocking)
        assert _covers(boxes, tags3)
        assert boxes.is_disjoint()


class TestArgumentContract:
    """Every argument is checked, by name, before any clustering is done."""

    TAGS = np.eye(16, dtype=bool)

    @pytest.mark.parametrize("value", [2.5, "4", True, 0, -4, None])
    def test_blocking_factor(self, value):
        with pytest.raises(ReproError, match="blocking_factor"):
            cluster_tags(self.TAGS, blocking_factor=value)

    @pytest.mark.parametrize("value", [None, 1.5, "2", False, -1])
    def test_min_width(self, value):
        with pytest.raises(ReproError, match="min_width"):
            cluster_tags(self.TAGS, min_width=value)

    @pytest.mark.parametrize("value", ["0.7", None, True, float("nan"), 1.5])
    def test_efficiency(self, value):
        with pytest.raises(ReproError, match="efficiency"):
            cluster_tags(self.TAGS, efficiency=value)

    @pytest.mark.parametrize("value", [1.5, 0, -1, True, "8"])
    def test_max_boxes(self, value):
        with pytest.raises(ReproError, match="max_boxes"):
            cluster_tags(self.TAGS, max_boxes=value)

    def test_numpy_integers_and_zero_min_width_accepted(self):
        boxes = cluster_tags(self.TAGS, blocking_factor=np.int64(4), max_boxes=np.int32(8),
                             min_width=0, efficiency=np.float32(0.5))
        assert _covers(boxes, self.TAGS)
        assert all(lo % 4 == 0 for b in boxes for lo in b.lo)


class TestTagTypes:
    def test_nan_is_not_a_tag(self):
        with pytest.raises(ReproError, match="tags must be boolean or integer"):
            cluster_tags(np.array([[0.0, 0.5], [2.0, np.nan]]))

    @pytest.mark.parametrize("tags", [
        np.zeros((4, 4)),
        np.array([[True, None], [False, True]], dtype=object),
        np.array(["a", ""]),
    ])
    def test_float_object_and_string_tags_rejected(self, tags):
        with pytest.raises(ReproError, match="tags must be boolean or integer"):
            cluster_tags(tags)

    def test_zero_d_tags_rejected(self):
        with pytest.raises(ReproError, match="at least one dimension"):
            cluster_tags(np.array(True))

    def test_integer_tags_are_nonzero_cells(self):
        tags = np.zeros((6, 6), dtype=np.int16)
        tags[2:4, 1:5] = 7
        assert list(cluster_tags(tags)) == [Box((2, 1), (3, 4))]
