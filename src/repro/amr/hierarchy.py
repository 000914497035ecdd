"""Multi-level patch-based AMR datasets.

:class:`AMRHierarchy` is the central data structure of the reproduction: the
simulation generators produce one, the compressors consume and rebuild one,
and both visualization pipelines traverse one. It mirrors the AMReX layout
sketched in Figure 3 of the paper — per-level groups of patches, with the
coarse level retaining data under refined regions ("redundant" coarse data).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.level import AMRLevel
from repro.errors import HierarchyError
from repro.util.validation import as_tuple

__all__ = ["AMRHierarchy"]


class AMRHierarchy:
    """A patch-based AMR dataset (AMReX-style).

    Parameters
    ----------
    domain:
        Problem domain as a box in *level-0* index space.
    levels:
        Levels ordered coarse to fine; level 0 must tile ``domain``.
    ref_ratios:
        Refinement ratio between level ``i`` and ``i+1`` (one per gap).
        Scalars broadcast across dimensions.

    Invariants (checked at construction):

    * level 0 covers the domain exactly;
    * every finer-level box, coarsened by the refinement ratio, lies inside
      the union of the next coarser level's boxes (patch-based nesting);
    * all levels carry the same field names.
    """

    def __init__(
        self,
        domain: Box,
        levels: Sequence[AMRLevel],
        ref_ratios: Sequence[int | tuple[int, ...]] | int = 2,
    ):
        if not levels:
            raise HierarchyError("hierarchy needs at least one level")
        self.domain = domain
        self.levels = list(levels)
        ndim = domain.ndim
        n_gaps = len(self.levels) - 1
        if np.isscalar(ref_ratios):
            ratios = [as_tuple(ref_ratios, ndim, "ref_ratio")] * n_gaps
        else:
            seq = list(ref_ratios)  # type: ignore[arg-type]
            if len(seq) != n_gaps:
                raise HierarchyError(f"need {n_gaps} ref ratios, got {len(seq)}")
            ratios = [as_tuple(r, ndim, "ref_ratio") for r in seq]
        self.ref_ratios: tuple[tuple[int, ...], ...] = tuple(ratios)
        self._validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        base = self.levels[0]
        if base.index != 0:
            raise HierarchyError("first level must have index 0")
        if base.cell_count() != self.domain.size:
            raise HierarchyError(
                f"level 0 covers {base.cell_count()} cells but domain has {self.domain.size}"
            )
        if not base.boxes.bounding_box() == self.domain and not self.domain.contains_box(
            base.boxes.bounding_box()
        ):
            raise HierarchyError("level 0 boxes exceed domain")
        names = set(base.field_names)
        for lev_idx, (coarse, fine) in enumerate(zip(self.levels, self.levels[1:])):
            if fine.index != coarse.index + 1:
                raise HierarchyError("level indices must be consecutive")
            if set(fine.field_names) != names:
                raise HierarchyError(
                    f"level {fine.index} fields {fine.field_names} != level 0 fields {tuple(names)}"
                )
            ratio = self.ref_ratios[lev_idx]
            for fbox in fine.boxes:
                cbox = fbox.coarsen(ratio)
                covered = coarse.boxes.mask(cbox)
                if not covered.all():
                    raise HierarchyError(
                        f"fine box {fbox} (level {fine.index}) not nested in level {coarse.index}"
                    )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        """Number of refinement levels."""
        return len(self.levels)

    @property
    def ndim(self) -> int:
        """Spatial dimensionality."""
        return self.domain.ndim

    @property
    def field_names(self) -> tuple[str, ...]:
        """Field names (identical across levels)."""
        return self.levels[0].field_names

    def __iter__(self) -> Iterator[AMRLevel]:
        return iter(self.levels)

    def __getitem__(self, i: int) -> AMRLevel:
        return self.levels[i]

    def cumulative_ratio(self, level: int) -> tuple[int, ...]:
        """Refinement ratio from level 0 up to ``level`` (per dimension)."""
        out = (1,) * self.ndim
        for r in self.ref_ratios[:level]:
            out = tuple(a * b for a, b in zip(out, r))
        return out

    def domain_at(self, level: int) -> Box:
        """The problem domain expressed in ``level``'s index space."""
        return self.domain.refine(self.cumulative_ratio(level))

    def grid_shape(self, level: int) -> tuple[int, ...]:
        """Full-domain grid shape at ``level``'s resolution (Table 1 col 3)."""
        return self.domain_at(level).shape

    # ------------------------------------------------------------------
    # Coverage / density (Table 1)
    # ------------------------------------------------------------------
    def covered_mask(self, level: int) -> np.ndarray:
        """Mask over level ``level``'s domain: True where a finer level
        exists (the "redundant" coarse region of Figure 3)."""
        dom = self.domain_at(level)
        if level + 1 >= self.n_levels:
            return np.zeros(dom.shape, dtype=bool)
        fine = self.levels[level + 1]
        coarse_boxes = fine.boxes.coarsen(self.ref_ratios[level])
        return coarse_boxes.mask(dom)

    def level_fraction(self, level: int) -> float:
        """Fraction of the physical domain whose *finest available* data
        lives on ``level`` — the per-level "density" of Table 1."""
        dom = self.domain_at(level)
        lev_mask = self.levels[level].boxes.mask(dom)
        exposed = lev_mask & ~self.covered_mask(level)
        return float(exposed.sum()) / float(dom.size)

    def densities(self) -> tuple[float, ...]:
        """Per-level densities, coarse to fine (sums to 1 for full nesting)."""
        return tuple(self.level_fraction(l) for l in range(self.n_levels))

    def stored_cells(self) -> int:
        """Total cells stored across all levels for one field."""
        return sum(lev.cell_count() for lev in self.levels)

    def nbytes(self, field: str | None = None) -> int:
        """Raw byte size of one field (or all fields with ``None``)."""
        names = [field] if field is not None else list(self.field_names)
        total = 0
        for lev in self.levels:
            for name in names:
                total += sum(p.nbytes for p in lev.patches(name))
        return total

    # ------------------------------------------------------------------
    # Derived hierarchies
    # ------------------------------------------------------------------
    # kept: the one non-aliasing way to derive a hierarchy's fields (ZMeshLike's decode, multi-step test campaigns)
    def map_fields(self, fn, fields: Sequence[str] | None = None) -> "AMRHierarchy":
        """New hierarchy with ``fn(level_index, field, data) -> data`` applied
        to every patch of the selected fields (all by default)."""
        names = list(fields) if fields is not None else list(self.field_names)
        new_levels = []
        for lev in self.levels:
            new = AMRLevel(lev.index, lev.boxes, lev.dx)
            for name in self.field_names:
                patches = lev.patches(name)
                if name in names:
                    # Copy unconditionally: fn may return its input array,
                    # and mapped hierarchies must never alias the source.
                    patches = [
                        type(p)(p.box, np.array(fn(lev.index, name, p.data), dtype=np.float64))
                        for p in patches
                    ]
                else:
                    patches = [p.copy() for p in patches]
                new.add_field(name, patches)
            new_levels.append(new)
        return AMRHierarchy(self.domain, new_levels, self.ref_ratios)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shapes = " + ".join("x".join(map(str, self.grid_shape(l))) for l in range(self.n_levels))
        return f"AMRHierarchy({self.n_levels} levels, {shapes}, fields={list(self.field_names)})"
