"""zMesh-style 1-D reordering baseline (related work, paper §1).

Luo et al.'s zMesh rearranges AMR data from different refinement levels
into a single 1-D array (exploiting cross-level redundancy) and compresses
that; the paper points out the cost: *"compressing data into a 1D array
restricts the use of higher-dimension compression, leading to a loss of
spatial information"*. Wang et al.'s TAC/AMRIC responded with adaptive 3-D
compression — which is what :mod:`repro.compression.amr_codec` does.

This module implements the zMesh-style alternative so the trade-off is
measurable: patch values are serialized along a locality-preserving Morton
(Z-order) curve, levels are concatenated (coarse first, so co-located
coarse/fine values land near each other for the entropy stage), and the
resulting 1-D stream is compressed with a 1-D SZ codec. The
``ablation_zmesh`` registry experiment compares it against per-patch 3-D
compression and reproduces the paper's premise that 3-D wins.
"""

from __future__ import annotations

import numpy as np

from repro.amr.hierarchy import AMRHierarchy
from repro.compression.base import Compressor
from repro.compression.registry import make_codec
from repro.errors import CompressionError

__all__ = ["morton_order", "serialize_hierarchy_1d", "ZMeshLike"]


def morton_order(shape: tuple[int, ...]) -> np.ndarray:
    """Flat indices of ``shape`` visited along a Morton (Z-order) curve.

    Bits of each coordinate are interleaved; works for any (non-power-of-
    two) shape by generating the enclosing power-of-two curve and masking.
    """
    if len(shape) == 0 or any(s <= 0 for s in shape):
        raise CompressionError(f"invalid shape {shape}")
    ndim = len(shape)
    nbits = max(int(np.ceil(np.log2(max(shape)))), 1)
    coords = np.meshgrid(*[np.arange(s, dtype=np.uint64) for s in shape], indexing="ij")
    key = np.zeros(shape, dtype=np.uint64)
    for bit in range(nbits):
        for d, c in enumerate(coords):
            key |= ((c >> np.uint64(bit)) & np.uint64(1)) << np.uint64(bit * ndim + d)
    return np.argsort(key.ravel(), kind="stable")


def serialize_hierarchy_1d(
    hierarchy: AMRHierarchy, field: str
) -> tuple[np.ndarray, list[tuple[int, int, np.ndarray]]]:
    """Serialize one field of a hierarchy into a Morton-ordered 1-D array.

    Returns ``(flat, layout)`` where ``layout`` records, per patch,
    ``(level, patch_index, morton_permutation)`` so
    :func:`deserialize <ZMeshLike.decompress_hierarchy>` can undo it.
    """
    chunks = []
    layout = []
    for lev in hierarchy:
        for p_idx, patch in enumerate(lev.patches(field)):
            order = morton_order(patch.box.shape)
            chunks.append(patch.data.ravel()[order])
            layout.append((lev.index, p_idx, order))
    return np.concatenate(chunks), layout


class ZMeshLike:
    """1-D reordering AMR compressor (zMesh-style baseline).

    Parameters
    ----------
    codec:
        The 1-D backend codec name (``"sz-lr"`` degrades to 1-D blocks;
        ``"sz-interp"`` does 1-D interpolation).
    """

    name = "zmesh-like"

    def __init__(self, codec: str = "sz-lr"):
        self._backend = make_codec(codec)

    def compress_hierarchy(
        self, hierarchy: AMRHierarchy, field: str, error_bound: float, mode: str = "rel"
    ) -> bytes:
        """Compress ``field`` of the whole hierarchy as one 1-D stream."""
        flat, _ = serialize_hierarchy_1d(hierarchy, field)
        eb_abs = Compressor.resolve_error_bound(flat, error_bound, mode)
        return self._backend.compress(flat, eb_abs, mode="abs")

    # kept: the inverse that makes ablation_zmesh's reordering a codec, not a one-way transform
    def decompress_hierarchy(
        self, blob: bytes, template: AMRHierarchy, field: str
    ) -> AMRHierarchy:
        """Rebuild a hierarchy (all other fields copied from the template)."""
        flat = self._backend.decompress(blob)
        out = template.map_fields(lambda lev, name, d: d)  # deep copy
        pos = 0
        for lev in out:
            for patch in lev.patches(field):
                order = morton_order(patch.box.shape)
                n = patch.data.size
                chunk = flat[pos : pos + n]
                pos += n
                restored = np.empty(n, dtype=np.float64)
                restored[order] = chunk
                patch.data[...] = restored.reshape(patch.box.shape)
        if pos != flat.size:
            raise CompressionError("1-D stream length does not match hierarchy")
        return out
