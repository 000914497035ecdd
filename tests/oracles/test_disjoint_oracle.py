"""``BoxArray.is_disjoint`` against the pairwise loop it replaced.

The array scan tests box ``i`` against every later box at once and stops at
the first overlap; the loop asked ``Box.intersects`` of every pair. Boxes
are drawn on a small lattice so that touching boxes (``hi + 1 == lo``),
one-cell overlaps and repeats are common.
"""

from __future__ import annotations

from hypothesis import example, given, settings

from repro.amr import Box, BoxArray

from tests.strategies import box_lists


def _loop_is_disjoint(boxes: list[Box]) -> bool:
    return not any(boxes[i].intersects(boxes[j])
                   for i in range(len(boxes)) for j in range(i + 1, len(boxes)))


@settings(max_examples=400, deadline=None)
@given(box_lists())
@example([])
@example([Box((0, 0), (3, 3))])
@example([Box((0, 0), (3, 3)), Box((4, 0), (7, 3))])           # touching: hi + 1 == lo
@example([Box((0, 0), (3, 3)), Box((3, 3), (7, 7))])           # one shared cell
@example([Box((0, 0), (3, 3)), Box((4, 4), (7, 7)), Box((3, 0), (3, 0))])  # last pair only
@example([Box((0, 0, 0), (1, 1, 1)), Box((2, 0, 0), (3, 1, 1)), Box((0, 2, 0), (1, 3, 1))])
def test_matches_the_pairwise_loop(boxes):
    assert BoxArray(boxes).is_disjoint() == _loop_is_disjoint(boxes)
