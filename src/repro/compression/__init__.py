"""Error-bounded lossy compression substrate (SZ-style codecs).

Public entry points:

* :class:`repro.compression.sz_lr.SZLR` — block-based Lorenzo/regression
  codec (the paper's SZ-L/R),
* :class:`repro.compression.sz_interp.SZInterp` — global spline
  interpolation codec (the paper's SZ-Interp),
* :class:`repro.compression.zfp_like.ZFPLike` — transform-based baseline,
* :func:`repro.compression.amr_codec.compress_hierarchy` /
  :func:`~repro.compression.amr_codec.decompress_hierarchy` — AMR-aware
  per-patch compression with optional redundant-coarse-data exclusion,
* :func:`repro.compression.amr_codec.decompress_selection` /
  :class:`repro.compression.container.ContainerReader` — random access to
  individual patches of a seekable ``RPH2`` container
  (``docs/container_format.md``).
"""

from repro.compression.base import Compressor, CompressionStats, StreamReader, StreamWriter
from repro.compression.sz_lr import SZLR
from repro.compression.sz_interp import SZInterp
from repro.compression.zfp_like import ZFPLike
from repro.compression.registry import (
    available_codecs,
    codec_accepts,
    make_codec,
    register_codec,
    decompress_any,
)
from repro.compression.zmesh_like import ZMeshLike, morton_order, serialize_hierarchy_1d
from repro.compression.container import (
    ContainerReader,
    GroupHandle,
    GroupIndexEntry,
    PatchIndexEntry,
    pack_container,
    pack_group,
    pack_header,
    pack_footer,
    build_index_bytes,
)
from repro.compression.amr_codec import (
    CompressedHierarchy,
    SegmentWriter,
    compress_hierarchy,
    decompress_hierarchy,
    decompress_selection,
    resolve_patch_codec,
    average_down,
)

__all__ = [
    "Compressor",
    "CompressionStats",
    "StreamReader",
    "StreamWriter",
    "SZLR",
    "SZInterp",
    "ZFPLike",
    "available_codecs",
    "codec_accepts",
    "make_codec",
    "register_codec",
    "decompress_any",
    "CompressedHierarchy",
    "ContainerReader",
    "GroupHandle",
    "GroupIndexEntry",
    "PatchIndexEntry",
    "pack_container",
    "pack_group",
    "pack_header",
    "pack_footer",
    "build_index_bytes",
    "SegmentWriter",
    "compress_hierarchy",
    "decompress_hierarchy",
    "decompress_selection",
    "resolve_patch_codec",
    "average_down",
    "ZMeshLike",
    "morton_order",
    "serialize_hierarchy_1d",
]
