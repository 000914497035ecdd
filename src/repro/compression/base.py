"""Compressor interface and self-describing stream container.

Every codec in :mod:`repro.compression` produces a byte stream with a small
framed header (magic, codec name, dtype, shape, parameter JSON) followed by
named binary sections. The container is what makes streams self-describing:
:func:`repro.compression.registry.decompress_any` can route any blob to the
right codec without out-of-band metadata.

This module also hosts the **shared entropy stage** every SZ-style codec
threads its quantization codes through: canonical Huffman in the K-way
interleaved ``HUF2`` layout (see :mod:`repro.compression.huffman`), with
the DEFLATE fallback for oversized alphabets. The interleave width is
``"auto"`` (it scales with the input), and codecs record that in the
stream params; blobs self-describe their K, so a stream of any K
decodes.

Streams are plain buffers end to end: :class:`StreamReader` accepts
``bytes`` *or* a ``memoryview`` (the zero-copy mmap container path) and
hands out section views without copying.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple

import numpy as np

from repro.compression import huffman
from repro.compression.lossless import (
    compress_bytes,
    decompress_bytes,
    pack_ints,
    unpack_ints,
)
from repro.errors import CompressionError, DecompressionError, FormatError

__all__ = [
    "Compressor",
    "StreamWriter",
    "StreamReader",
    "CompressionStats",
    "STREAM_MAGIC",
    "ENTROPY_STAGES",
    "GROUPED_STAGE",
    "BatchResult",
    "SharedEntropy",
    "check_entropy_params",
    "encode_codes",
    "encode_codes_batch",
    "decode_codes",
]

#: Entropy stages a codec may select for its quantization codes.
ENTROPY_STAGES = ("huffman", "deflate")

#: Recorded stage name of a grouped (shared-codebook) codes section; never
#: selected directly — :func:`encode_codes_batch` emits it.
GROUPED_STAGE = "huffman-grouped"

#: Default DEFLATE level for self-contained ``HUF2`` codes sections.
#: Measured on 16^3-patch SZ-L/R codes: a HUF2 blob deflates to 0.81x at
#: level 1 and 0.81x at level 6 (the win is the compressible alphabet +
#: lengths header and the stream zero padding, and level 1 already
#: captures it), while level 6 costs 10-60% more time — so the historical
#: level-6 default was pure waste here. Raw (non-Huffman) sections keep
#: zlib's default 6, where DEFLATE *is* the entropy coder.
HUFFMAN_SECTION_LEVEL = 1

#: Default DEFLATE level for sections the backend itself entropy-codes.
RAW_SECTION_LEVEL = 6

class BatchResult(NamedTuple):
    """Output of a codec's ``compress_batch`` over one run of patches.

    ``codebook`` is the serialized shared Huffman codebook (``HUFB``), or
    ``None`` when the run has none (a run of one member,
    ``entropy="deflate"``, or a pooled alphabet too large to Huffman-code)
    — then ``payloads`` is empty and every stream is self-contained. Otherwise
    ``payloads[i]`` is member ``i``'s entropy payload (backend-compressed
    ``HUFS``) and ``streams[i]`` its codec stream *without* a codes
    section (params record :data:`GROUPED_STAGE` and ``group_member``).
    """

    codebook: bytes | None
    payloads: list
    streams: list


class SharedEntropy(NamedTuple):
    """What a grouped stream needs besides its own bytes to decode.

    ``codebook`` is the group's :class:`repro.compression.huffman.
    SharedCodebook` (cached decode tables amortize across members) or the
    raw ``HUFB`` bytes (picklable for process-mode workers; parsed once per
    decode call); ``payload`` is this member's backend-compressed ``HUFS``
    blob.
    """

    codebook: Any
    payload: Any


def check_entropy_params(entropy: str) -> None:
    """Validate a codec's ``entropy`` constructor parameter.

    Construction-time misuse is a :class:`CompressionError` (nothing is
    being decoded yet), shared here so every codec rejects a bad
    ``entropy`` identically.
    """
    if entropy not in ENTROPY_STAGES:
        raise CompressionError(
            f"entropy must be one of {ENTROPY_STAGES}, got {entropy!r}"
        )


def _encode_members(members, entropy) -> tuple[list, list]:
    """``(blobs, stages)``: one self-contained codes section per member of
    a run. The Huffman stage packs the whole run in one pass; a member
    whose alphabet is too large falls back to DEFLATE alone."""
    coded = [None] * len(members)
    if entropy == "huffman":
        coded = huffman.encode_many(members)
    blobs = [
        pack_ints(np.ascontiguousarray(codes), level=RAW_SECTION_LEVEL) if blob is None
        else compress_bytes(blob, level=HUFFMAN_SECTION_LEVEL)
        for codes, blob in zip(members, coded)
    ]
    return blobs, ["deflate" if blob is None else "huffman" for blob in coded]


def encode_codes(codes: np.ndarray, entropy: str) -> tuple[bytes, str]:
    """Entropy-encode a quantization-code array into a section blob.

    ``"huffman"`` runs the K-way interleaved canonical Huffman stage then
    DEFLATE at :data:`HUFFMAN_SECTION_LEVEL` (the SZ pipeline; the output
    is already near-entropy); alphabets too large to Huffman-code fall
    back to ``"deflate"`` at :data:`RAW_SECTION_LEVEL`, where DEFLATE *is*
    the entropy coder. Returns ``(blob, stage)`` where ``stage`` names the
    encoding actually used — codecs record it in their stream params so
    :func:`decode_codes` can invert it. What :func:`encode_codes_batch`
    writes per member when its run has no shared codebook.
    """
    blobs, stages = _encode_members([codes], entropy)
    return blobs[0], stages[0]


def encode_codes_batch(codes, entropy: str) -> tuple[bytes | None, list, list]:
    """Entropy-encode the code arrays of a run of patches (``codes``, one
    array of any size per member). Returns ``(codebook_bytes, payloads,
    stages)``: one payload and one recorded stage name per member, and the
    run's shared codebook if it has one.

    The Huffman path builds **one** shared codebook from the run's pooled
    frequencies and packs every member in a single pass
    (:func:`repro.compression.huffman.encode_batch`); per-member payloads
    are wrapped individually (:func:`_wrap_grouped`) so random access
    stays per-member. When the pooled alphabet is too large to
    Huffman-code (or ``entropy="deflate"``) every member gets the
    self-contained section :func:`encode_codes` would write for it, with
    ``codebook=None``.
    """
    members = [np.ascontiguousarray(c, dtype=np.int64).ravel() for c in codes]
    pooled = np.concatenate(members) if members else np.zeros(0, np.int64)
    if entropy == "huffman" and pooled.size:
        try:
            codebook, inverse = huffman.SharedCodebook.from_symbols_with_inverse(pooled)
        except huffman.HuffmanAlphabetError:
            pass
        else:
            inverse = np.split(inverse, np.cumsum([m.size for m in members])[:-1])
            blobs = huffman.encode_batch(members, codebook, inverse=inverse)
            payloads = _wrap_grouped(blobs, codebook)
            return codebook.tobytes(), payloads, [GROUPED_STAGE] * len(payloads)
    return (None, *_encode_members(members, entropy))


def _wrap_grouped(blobs: list, codebook: huffman.SharedCodebook) -> list:
    """The lossless wrappers of a group's ``HUFS`` payloads.

    A payload is *stored* (the 1-byte ``"none"`` tag), unless the codebook
    has a 1-bit code: Huffman spends at least one bit per symbol, so only a
    symbol that dominates its group leaves runs for DEFLATE to find. Then
    DEFLATE at :data:`HUFFMAN_SECTION_LEVEL` is tried per payload and kept
    where it is smaller.
    """
    stored = [compress_bytes(blob, "none") for blob in blobs]
    if codebook.lengths.min() > 1:
        return stored
    deflated = [compress_bytes(blob, level=HUFFMAN_SECTION_LEVEL) for blob in blobs]
    return [d if len(d) < len(s) else s for d, s in zip(deflated, stored)]


def decode_codes(sections, stages, shareds, counts) -> list:
    """Invert :func:`encode_codes` / :func:`encode_codes_batch` for a run of
    members in one pass: ``sections[i]`` decodes by its recorded stage name
    ``stages[i]``, every Huffman-coded member — self-contained or grouped —
    in one lockstep (:func:`huffman.decode_many`). A grouped stream
    (:data:`GROUPED_STAGE`) has no codes section (``sections[i]`` is
    ``None``): its symbols are ``shareds[i].payload``, decoded against
    ``shareds[i].codebook`` (``docs/container_format.md``). A
    self-contained stream given a :class:`SharedEntropy` (a grouped index
    row over it: a malformed index) is refused. ``counts[i]``, the most
    codes member ``i``'s header allows, bounds its inflate.
    """
    out: list = [None] * len(sections)
    slots, blobs, books = [], [], []
    parsed: dict[bytes, huffman.SharedCodebook] = {}  # raw HUFB bytes, once per call
    for i, (section, stage, shared, count) in enumerate(zip(sections, stages, shareds, counts)):
        book = None
        if shared is not None and stage != GROUPED_STAGE:
            raise DecompressionError(
                f"stream is self-contained (entropy stage {stage!r}) but its index "
                "row places it in a shared-codebook group"
            )
        if stage == "deflate":
            out[i] = unpack_ints(section, count)
            continue
        if stage == GROUPED_STAGE:
            if shared is None:
                raise DecompressionError(
                    "stream was grouped under a shared Huffman codebook; decode "
                    "it through its container (which supplies the group section) "
                    "— the stream alone carries no entropy payload"
                )
            section, book = shared.payload, shared.codebook
            if not isinstance(book, huffman.SharedCodebook):
                key = bytes(book)
                if key not in parsed:
                    parsed[key] = huffman.SharedCodebook.frombytes(key)
                book = parsed[key]
        elif stage != "huffman":
            raise DecompressionError(f"stream records unknown entropy stage {stage!r}")
        slots.append(i)
        blobs.append(decompress_bytes(section, huffman.blob_bound(count)))
        books.append(book)
    for i, codes in zip(slots, huffman.decode_many(blobs, books)):
        out[i] = codes
    return out


NONFINITE_INPUT = "input contains NaN/Inf; mask before compressing"
#: Refused, not floored: a floor would grant a looser bound than was asked for.
REL_UNDERFLOW = ("relative error bound {} of the data's value range {} underflows to 0; "
                 "increase the error bound or pass an absolute one")

#: Magic prefix of every framed codec stream.
STREAM_MAGIC = b"RPRC"
_MAGIC = STREAM_MAGIC
_VERSION = 1


@dataclass(frozen=True)
class CompressionStats:
    """Summary of one compression run."""

    codec: str
    original_bytes: int
    compressed_bytes: int
    error_bound: float
    stage_seconds: Mapping[str, float]

    # kept: operator need: the compression ratio of one stream (paper Table 1)
    @property
    def ratio(self) -> float:
        """Compression ratio (original / compressed)."""
        if self.compressed_bytes == 0:
            raise CompressionError("compressed size is zero")
        return self.original_bytes / self.compressed_bytes


class StreamWriter:
    """Builds a framed codec stream: header JSON + named binary sections."""

    def __init__(self, codec: str, shape: tuple[int, ...], dtype: np.dtype, params: dict[str, Any]):
        self._meta: dict[str, Any] = {
            "codec": codec,
            "shape": list(int(s) for s in shape),
            "dtype": np.dtype(dtype).str,
            "params": params,
            "sections": [],
        }
        self._blobs: list[bytes] = []

    def add_section(self, name: str, blob: bytes) -> None:
        """Append a named binary section."""
        self._meta["sections"].append({"name": name, "length": len(blob)})
        self._blobs.append(blob)

    def tobytes(self) -> bytes:
        """Serialize header + sections."""
        header = json.dumps(self._meta, separators=(",", ":")).encode()
        out = bytearray()
        out += _MAGIC
        out += struct.pack("<BI", _VERSION, len(header))
        out += header
        for blob in self._blobs:
            out += blob
        return bytes(out)


class StreamReader:
    """Parses a framed codec stream produced by :class:`StreamWriter`.

    Accepts any byte buffer — ``bytes`` or a ``memoryview`` (e.g. a
    zero-copy patch-stream slice from an mmap-opened container). Sections
    are sliced, not copied, so a ``memoryview`` input stays zero-copy all
    the way into the codec.
    """

    def __init__(self, blob):
        if len(blob) < 9 or bytes(blob[:4]) != _MAGIC:
            raise FormatError("not a repro compressed stream (bad magic)")
        version, header_len = struct.unpack_from("<BI", blob, 4)
        if version != _VERSION:
            raise FormatError(f"unsupported stream version {version}")
        start = 9
        try:
            self._meta = json.loads(bytes(blob[start : start + header_len]).decode())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"corrupt stream header: {exc}") from exc
        if not isinstance(self._meta, dict) or not isinstance(self._meta.get("sections"), list):
            raise FormatError("corrupt stream header: not an object with a sections list")
        self._sections: dict[str, Any] = {}
        offset = start + header_len
        for sec in self._meta["sections"]:
            # type(...) is int: a bool or a float is no length
            if not (isinstance(sec, dict) and isinstance(sec.get("name"), str)
                    and type(sec.get("length")) is int and sec["length"] >= 0):
                raise FormatError(f"corrupt stream header: malformed section {sec!r}")
            end = offset + sec["length"]
            if end > len(blob):
                raise FormatError(f"stream truncated in section {sec['name']!r}")
            self._sections[sec["name"]] = blob[offset:end]
            offset = end

    @property
    def codec(self) -> str:
        """Codec name recorded in the header."""
        return str(self._meta["codec"])

    @property
    def shape(self) -> tuple[int, ...]:
        """Original array shape."""
        return tuple(self._meta["shape"])

    @property
    def dtype(self) -> np.dtype:
        """Original array dtype."""
        return np.dtype(self._meta["dtype"])

    @property
    def params(self) -> dict[str, Any]:
        """Codec parameters recorded at compression time."""
        return dict(self._meta["params"])

    def section(self, name: str):
        """Fetch a named binary section (``bytes`` or a zero-copy view,
        matching the buffer the reader was constructed over)."""
        try:
            return self._sections[name]
        except KeyError:
            raise FormatError(f"stream has no section {name!r}") from None


class Compressor:
    """Error-bounded lossy compressor interface.

    A codec implements two hooks over a *run* of members: ``_compress_run``
    (validated float64 arrays and absolute bounds to a :class:`BatchResult`,
    under one shared Huffman codebook when ``grouped``) and
    ``_reconstruct_batch`` (parsed streams and their decoded codes back to
    arrays). :meth:`compress` / :meth:`decompress` are the runs of one
    member. Every codec must guarantee ``max|x - x'| <= eb`` for the
    resolved absolute error bound.
    """

    #: registry name; subclasses override.
    name: str = "abstract"

    def compress(self, data: np.ndarray, error_bound: float, mode: str = "abs") -> bytes:
        """Compress ``data`` under an error bound into a self-contained
        stream: the run of one member (``_compress_run``).

        Parameters
        ----------
        data:
            1-3 D floating array.
        error_bound:
            Bound value; interpretation depends on ``mode``.
        mode:
            ``"abs"`` — absolute bound; ``"rel"`` — value-range-relative
            bound (``eb_abs = error_bound * (max - min)``), as used
            throughout the paper's evaluation.
        """
        arr = self._validate_input(data)
        eb = self.resolve_error_bound(arr, error_bound, mode)
        return self._compress_run([arr], [np.asarray(data).dtype], [eb], grouped=False).streams[0]

    def decompress(self, blob: bytes, shared: SharedEntropy | None = None) -> np.ndarray:
        """Reconstruct one stream — :meth:`decompress_batch` of one member (a
        grouped one needs its :class:`SharedEntropy`, from its container)."""
        return self.decompress_batch([blob], [shared])[0]

    def decompress_batch(self, blobs, shareds=None) -> list:
        """Reconstruct a run of this codec's streams — ``out[i]`` is bit for
        bit ``decompress(blobs[i])``: parse every header, decode all
        members' codes in **one** entropy pass (:func:`decode_codes`), then
        rebuild the arrays (``_reconstruct_batch``). ``shareds[i]`` is
        member ``i``'s :class:`SharedEntropy` when its stream is grouped,
        else ``None``."""
        readers = [StreamReader(blob) for blob in blobs]
        codes, cells = self._decode_codes(readers, shareds or [None] * len(readers))
        return self._reconstruct_batch(readers, codes, cells)

    def _decode_codes(self, readers: list, shareds: list) -> tuple[list, list]:
        """``(codes, cells)`` of parsed streams of this codec: each member's
        quantization codes and its :meth:`_cells`."""
        for reader in readers:
            if reader.codec != self.name:
                raise DecompressionError(
                    f"stream was produced by codec {reader.codec!r}, not {self.name!r}"
                )
        stages = [reader.params["entropy"] for reader in readers]
        sections = [
            None if stage == GROUPED_STAGE else reader.section("codes")
            for reader, stage in zip(readers, stages)
        ]
        cells = [self._cells(r) for r in readers]
        return decode_codes(sections, stages, shareds, cells), cells

    def _cells(self, reader: "StreamReader") -> int:
        """The cell count of a parsed stream after edge padding: no section
        holds more, which bounds every inflate. Derived from the header's
        shape and block edge (none: no padding); a ``padded_shape`` that
        disagrees is refused."""
        params = reader.params
        bs = params.get("block_size")
        edge = 1 if bs is None else bs
        try:
            padded = [s + (-s) % edge for s in reader.shape]
        except (TypeError, ZeroDivisionError):  # a field that is not a number, or not a list
            padded = []
        ints = all(type(v) is int and v > 0 for v in (*padded, edge))
        if padded and ints and (bs is None or (bs >= 2 and params.get("padded_shape") == padded)):
            return math.prod(padded)
        raise DecompressionError("stream header records an inconsistent shape, block size or padding")

    def compress_batch(self, data, error_bound, mode: str = "abs") -> BatchResult:
        """Compress a run of patches in one call.

        ``data`` is any sequence of arrays of any shapes (a ``(n, *shape)``
        stack is the sequence of its ``n`` members), ``error_bound`` one
        spec or one per member, and ``streams[i]`` decodes bit for bit to
        what ``compress(data[i], error_bound[i], mode)`` decodes to. The
        members run through the codec's ``_compress_run``, under one
        shared codebook when there are two or more.
        """
        specs = self._member_specs(data, error_bound)
        dtypes = [np.asarray(a).dtype for a in data]
        arrs = [self._validate_input(a) for a in data]
        ebs = [self.resolve_error_bound(a, eb, mode) for a, eb in zip(arrs, specs)]
        # A lone member shares its codebook with no one: it keeps the
        # self-contained stream, without a group section's framing.
        return self._compress_run(arrs, dtypes, ebs, grouped=len(arrs) > 1)

    def _encode_run(self, codes: list, grouped: bool) -> tuple[bytes | None, list, list]:
        """``(codebook, blobs, stages)`` of a run's code arrays under this
        codec's ``entropy``: the run's shared codebook when ``grouped``
        (:func:`encode_codes_batch`), else the one member's self-contained
        section (:func:`encode_codes`)."""
        if grouped:
            return encode_codes_batch(codes, self.entropy)
        blob, stage = encode_codes(codes[0], self.entropy)
        return None, [blob], [stage]

    @staticmethod
    def _member_specs(members, error_bound) -> list:
        """One error-bound spec per member from a scalar or a sequence."""
        specs = list(error_bound) if np.ndim(error_bound) else [error_bound] * len(members)
        if len(specs) != len(members):
            raise CompressionError(f"{len(specs)} error bounds for {len(members)} members")
        return specs

    def resolve_member_bound(self, data, error_bound: float, mode: str) -> float:
        """Validate ``data`` as :meth:`compress` would and return its
        absolute bound — for callers that defer the encode (the streaming
        writer's run buffer) but must fail at hand-over. The min/max a
        ``"rel"`` bound needs double as the NaN/Inf check."""
        arr = self._validate_input(data, finite=False)
        lo, hi = float(arr.min()), float(arr.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise CompressionError(NONFINITE_INPUT)
        return self.resolve_error_bound(arr, error_bound, mode, value_range=hi - lo)

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _validate_input(data, finite: bool = True) -> np.ndarray:
        """``data`` as a C-contiguous float64 array after the checks every
        codec makes: a 1-3 D float array, non-empty and (unless the caller
        checks that itself, ``finite=False``) free of NaN/Inf."""
        arr = np.ascontiguousarray(data)
        if arr.dtype.kind != "f":
            raise CompressionError(f"only float arrays are supported, got {arr.dtype}")
        if arr.ndim not in (1, 2, 3):
            raise CompressionError(f"only 1-3 D arrays supported, got {arr.ndim}-D")
        if arr.size == 0:
            raise CompressionError("cannot compress an empty array")
        if finite and not np.isfinite(arr).all():
            raise CompressionError(NONFINITE_INPUT)
        return arr.astype(np.float64, copy=False)

    @staticmethod
    def resolve_error_bound(data, error_bound: float, mode: str, value_range=None) -> float:
        """Convert a (value, mode) pair to an absolute bound
        (``value_range``: ``max - min`` of ``data`` when already known).

        The bound must be finite and positive, and so must a ``"rel"``
        bound scaled by the value range: an infinite or NaN bound would
        write a stream that no reader accepts, or one that decodes to NaN.
        """
        if not 0 < error_bound < math.inf:
            raise CompressionError(f"error bound must be finite and > 0, got {error_bound}")
        if mode == "abs":
            return float(error_bound)
        if mode == "rel":
            if value_range is None:
                value_range = float(np.max(data) - np.min(data))
            if value_range == 0.0:
                # Constant field: any positive bound works; pick the value.
                return float(error_bound)
            eb = float(error_bound) * value_range
            if eb == 0.0:
                raise CompressionError(REL_UNDERFLOW.format(error_bound, value_range))
            if not eb < math.inf:  # the range overflowed, or the data holds NaN/Inf
                raise CompressionError(
                    f"relative error bound {error_bound} of the data's value range "
                    f"{value_range} is not finite; pass an absolute bound"
                )
            return eb
        raise CompressionError(f"unknown error-bound mode {mode!r} (use 'abs' or 'rel')")
