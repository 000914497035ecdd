"""SZ-L/R: block-based codec with Lorenzo + linear-regression predictors.

This is the paper's first compressor (§3.3): the input is partitioned into
6x6x6 blocks and each block independently picks the better of

* an (integer, dual-quant) **Lorenzo** predictor — good at rough, irregular
  data because it adapts per cell, and
* a **linear regression** plane fit — good at locally smooth data.

Blocks never read across their boundary, which is what yields both the
random-access property the paper highlights and the *block-wise artifacts*
it analyzes in Figures 9/11. Streams: per-block mode bits, per-block DC /
coefficients, and one Huffman+DEFLATE-coded quantization-code array.

The unit the kernel chain sees is the *block*, not the patch: every array
blockifies to an ``(n_blocks, bs**ndim)`` matrix whatever its shape, so
one body (:meth:`SZLR._kernel`) serves a single array
(:meth:`SZLR.compress`, a self-contained stream) and a run of ragged
patches (``compress_batch``), whose codes pool under one shared canonical
Huffman codebook (see ``docs/architecture.md``), built and bit-packed once
per run.

The decode side mirrors it: ``decompress_batch`` entropy-decodes a run of
streams in one lockstep, then :meth:`SZLR._reconstruct_batch` stacks the
members' blocks into one matrix per ``(block_size, ndim)`` and runs the
inverse chain over it once; ``decompress`` is the one-member case.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import (
    RAW_SECTION_LEVEL,
    BatchResult,
    Compressor,
    SharedEntropy,
    StreamReader,
    StreamWriter,
    check_entropy_params,
)
from repro.compression.lorenzo import lorenzo_forward, lorenzo_inverse
from repro.compression.lossless import compress_bytes, decompress_bytes, pack_ints, unpack_ints
from repro.compression.quantizer import prequantize, quantize_residuals
from repro.compression import regression as reg
from repro.errors import CompressionError, DecompressionError
from repro.util.timer import StageTimes

__all__ = ["SZLR", "MODE_LORENZO", "MODE_REGRESSION"]

MODE_LORENZO = 0
MODE_REGRESSION = 1


class SZLR(Compressor):
    """Block-based SZ with per-block Lorenzo/regression selection.

    Parameters
    ----------
    block_size:
        Edge length of the cubic blocks (paper uses 6).
    entropy:
        ``"huffman"`` (canonical Huffman then DEFLATE, the SZ pipeline) or
        ``"deflate"`` (skip Huffman; ablation baseline).
    predictor:
        ``"auto"`` (per-block selection), ``"lorenzo"`` or ``"regression"``
        to force one path (ablation).

    Every section is DEFLATEd: Huffman-coded codes sections at the cheap
    :data:`~repro.compression.base.HUFFMAN_SECTION_LEVEL`, the others at
    :data:`~repro.compression.base.RAW_SECTION_LEVEL`.
    """

    name = "sz-lr"

    def __init__(
        self,
        block_size: int | str = 6,
        entropy: str = "huffman",
        predictor: str = "auto",
    ):
        if block_size == "auto":
            pass  # resolved per array at compression time
        elif not isinstance(block_size, int) or block_size < 2:
            raise CompressionError(f"block_size must be >= 2 or 'auto', got {block_size}")
        check_entropy_params(entropy)
        if predictor not in ("auto", "lorenzo", "regression"):
            raise CompressionError(f"unknown predictor {predictor!r}")
        self.block_size = block_size if block_size == "auto" else int(block_size)
        self.entropy = entropy
        self.predictor = predictor
        self.last_stage_times: StageTimes = StageTimes()

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------
    #: In this class's namespace too, where tools that rebind entry points look.
    compress = Compressor.compress
    compress_batch = Compressor.compress_batch

    def _compress_run(self, arrs: list, dtypes: list, ebs: list, grouped: bool) -> BatchResult:
        """The streams of validated float64 members under absolute bounds:
        the body of :meth:`compress` (one self-contained member) and of
        :meth:`compress_batch` (a run under one shared codebook when
        ``grouped``). Members agreeing on ``(bs, ndim)`` run the
        kernel chain as one block matrix, all members' codes go through
        one Huffman pass, and only the sections are written per member."""
        times = StageTimes()
        geometries: dict[tuple[int, int], list[int]] = {}
        for i, arr in enumerate(arrs):
            geometries.setdefault((self._resolve_block_size(arr.shape), arr.ndim), []).append(i)
        plan: list = [None] * len(arrs)  # member -> ((bs, padded shape), its rows, its kernel output)
        for (bs, ndim), members in geometries.items():
            with times.measure("blockify"):
                parts = [reg.blockify(arrs[i], bs) for i in members]
                blocks = np.concatenate([p[0] for p in parts]) if len(parts) > 1 else parts[0][0]
            ends = np.cumsum([p[0].shape[0] for p in parts]).tolist()
            rows = [slice(a, b) for a, b in zip([0] + ends, ends)]
            eb_blocks = np.repeat([ebs[i] for i in members], np.diff([0] + ends))
            out = self._kernel(blocks, eb_blocks, bs, ndim, times, rows)
            for i, p, r in zip(members, parts, rows):
                plan[i] = ((bs, p[1]), r, out)
        with times.measure("entropy"):
            codes = [out[3][r].ravel() for _, r, out in plan]
            codebook, blobs, stages = self._encode_run(codes, grouped)
        with times.measure("pack"):
            shared = codebook is not None  # False too when the pooled alphabet did not fit
            streams = [
                self._pack_member(
                    arrs[i].shape, dtypes[i], ebs[i], geometry, stages[i], r, out,
                    None if shared else blobs[i], i if shared else None,
                )
                for i, (geometry, r, out) in enumerate(plan)
            ]
        self.last_stage_times = times
        return BatchResult(codebook, blobs if shared else [], streams)

    def _kernel(self, blocks, eb_blocks, bs: int, ndim: int, times: StageTimes, fits):
        """The SZ-L/R kernel chain over a block matrix under per-block
        bounds — prequantize, Lorenzo, regression fit/quantize/predict,
        predictor selection. Returns ``(modes, dc, qcoefs, codes)``.

        Every step is element- or block-wise, so stacking blocks changes
        no value — except the two regression matmuls: BLAS picks its
        kernel by row count and they round differently (OpenBLAS/Haswell:
        1, 2-300 and >= 500 rows give three different last bits). ``fits``
        are the row slices the matmuls run over: a member's fit sees the
        rows it would see alone, so its codes stay what they are alone.
        """
        n_blocks, block_cells = blocks.shape
        with times.measure("lorenzo"):
            q = prequantize(
                blocks.reshape((n_blocks,) + (bs,) * ndim),
                eb_blocks.reshape((n_blocks,) + (1,) * ndim),
            )
            lor = lorenzo_forward(q, axes=tuple(range(1, ndim + 1)), overwrite=True)
            lor = lor.reshape(n_blocks, block_cells)
            dc_all = lor[:, 0].copy()
            lor[:, 0] = 0

        with times.measure("regression"):
            coefs = np.empty((n_blocks, 1 + ndim))
            for rows in fits:
                coefs[rows] = reg.fit_blocks(blocks[rows], bs, ndim)
            qcoefs = reg.quantize_coefficients(coefs, eb_blocks, bs, ndim)
            dqcoefs = reg.dequantize_coefficients(qcoefs, eb_blocks, bs, ndim)
            preds = np.empty((n_blocks, block_cells))
            for rows in fits:
                preds[rows] = reg.predict_blocks(dqcoefs[rows], bs, ndim)
            res = quantize_residuals(blocks, preds, eb_blocks[:, None])

        with times.measure("select"):
            modes = self._select_modes(lor, res)
            codes = np.where((modes == MODE_LORENZO)[:, None], lor, res)
        return modes, dc_all, qcoefs, codes

    def _pack_member(
        self, shape, dtype, eb: float, geometry, entropy_used: str, rows: slice,
        kernel_out, code_blob=None, group_member=None,
    ) -> bytes:
        """One member's framed stream from its rows of the kernel output."""
        bs, padded_shape = geometry
        params = {
            "eb": eb,
            "block_size": bs,
            "padded_shape": list(padded_shape),
            "entropy": entropy_used,
            "k_streams": "auto",
            "predictor": self.predictor,
        }
        if group_member is not None:
            params["group_member"] = group_member
        writer = StreamWriter(self.name, shape, dtype, params)
        lvl = RAW_SECTION_LEVEL
        modes, dc, qcoefs = (a[rows] for a in kernel_out[:3])
        lor_sel = modes == MODE_LORENZO
        writer.add_section("modes", compress_bytes(modes.astype(np.uint8).tobytes(), level=lvl))
        writer.add_section("dc", pack_ints(dc[lor_sel], level=lvl))
        writer.add_section("coefs", pack_ints(qcoefs[~lor_sel].ravel(), level=lvl))
        if code_blob is not None:
            writer.add_section("codes", code_blob)
        return writer.tobytes()

    def _resolve_block_size(self, shape: tuple[int, ...]) -> int:
        """Concrete block edge for this array.

        ``"auto"`` picks the candidate that minimizes edge-padding waste
        (AMR patches are typically multiples of the blocking factor 4/8,
        where a fixed 6-cube pads by up to 2x; reference SZ codes partial
        edge blocks natively, and this emulates that efficiency). Ties go
        to the larger block, which amortizes per-block overhead.
        """
        if self.block_size != "auto":
            return int(self.block_size)
        best_bs = 6
        best_cost = None
        for bs in (4, 5, 6, 8):
            padded = 1
            for s in shape:
                padded *= ((s + bs - 1) // bs) * bs
            cost = (padded, -bs)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_bs = bs
        return best_bs

    def _select_modes(self, lor_codes: np.ndarray, reg_codes: np.ndarray) -> np.ndarray:
        """Per-block predictor choice by estimated coded size."""
        if self.predictor == "lorenzo":
            return np.full(lor_codes.shape[0], MODE_LORENZO, dtype=np.uint8)
        if self.predictor == "regression":
            return np.full(lor_codes.shape[0], MODE_REGRESSION, dtype=np.uint8)
        # log2(1+|code|) approximates the Huffman cost of each code; the
        # regression path also pays for its 1+ndim coefficients.
        lor_cost = np.log2(1.0 + np.abs(lor_codes)).sum(axis=1)
        reg_cost = np.log2(1.0 + np.abs(reg_codes)).sum(axis=1) + 8.0
        return np.where(lor_cost <= reg_cost, MODE_LORENZO, MODE_REGRESSION).astype(np.uint8)

    # ------------------------------------------------------------------
    # Decompression
    # ------------------------------------------------------------------
    #: In this class's namespace too, where tools that rebind entry points look.
    decompress = Compressor.decompress

    def _reconstruct_batch(self, readers: list, codes: list, cells: list) -> list:
        """The inverse kernel chain over a run's block matrix — the decode
        side's :meth:`_kernel`. Each member's header and sections are read
        and checked once (:meth:`_sections`); members agreeing on ``(bs,
        ndim)`` then run one inverse Lorenzo, one scale, one coefficient
        dequantization and one residual add over their stacked blocks, and
        only the regression prediction (``fits``: BLAS rounds by row count)
        and the unblockify run per member."""
        parsed = [self._sections(*member) for member in zip(readers, codes, cells)]
        classes: dict[tuple[int, int], list[int]] = {}
        for i, (_, bs, ndim, *_) in enumerate(parsed):
            classes.setdefault((bs, ndim), []).append(i)
        out: list = [None] * len(readers)
        for (bs, ndim), members in classes.items():
            ebs, _, _, modes, dcs, qcoefs = zip(*(parsed[i] for i in members))
            block_cells = bs**ndim
            ends = np.cumsum([m.size for m in modes]).tolist()
            eb_blocks = np.repeat(ebs, np.diff([0] + ends))
            blocks = np.concatenate([codes[i] for i in members]).reshape(-1, block_cells)
            lor_sel = np.concatenate(modes) == MODE_LORENZO
            n_lor = int(np.count_nonzero(lor_sel))
            # Each predictor's rows (a copy, unless it has them all) are
            # rebuilt in place, float64 values over their own int64 codes,
            # and land in the matrix's memory: a run allocates its code
            # matrix and, when both predictors occur, one copy of it.
            mixed = 0 < n_lor < lor_sel.size
            lor = blocks[lor_sel] if mixed else blocks
            res = blocks[~lor_sel] if mixed else blocks
            if n_lor:
                lor[:, 0] = np.concatenate(dcs)
                stack = lor.reshape((-1,) + (bs,) * ndim)  # a view: summed in place
                lorenzo_inverse(stack, axes=tuple(range(1, ndim + 1)), overwrite=True)
                lor = np.multiply(lor, 2.0 * eb_blocks[lor_sel, None], out=lor.view(np.float64))
            if n_lor < lor_sel.size:
                res = np.multiply(res, 2.0 * eb_blocks[~lor_sel, None], out=res.view(np.float64))
                dqcoefs = reg.dequantize_coefficients(np.concatenate(qcoefs), eb_blocks[~lor_sel], bs, ndim)
                cuts = np.cumsum([c.shape[0] for c in qcoefs]).tolist()
                for a, b in zip([0] + cuts, cuts):
                    if b > a:
                        res[a:b] += reg.predict_blocks(dqcoefs[a:b], bs, ndim)
            out_blocks = blocks.view(np.float64)
            if mixed:
                out_blocks[lor_sel] = lor
                out_blocks[~lor_sel] = res
            for i, a, b in zip(members, [0] + ends, ends):
                reader = readers[i]
                arr = reg.unblockify(out_blocks[a:b], bs, tuple(reader.params["padded_shape"]), reader.shape)
                out[i] = arr.astype(reader.dtype, copy=False)
        return out

    def _sections(self, reader: StreamReader, codes: np.ndarray, cells: int) -> tuple:
        """One member's ``(eb, bs, ndim, modes, dc, qcoefs)``, every count
        checked against its header and against each other: a mode per
        block, each 0 or 1; a DC per Lorenzo block; ``1 + ndim``
        coefficients per regression block; a code per padded cell; and a
        finite, positive bound. Disagreeing sections are a
        :class:`~repro.errors.DecompressionError`, never a wrong array."""
        params = reader.params
        eb = params.get("eb")
        if type(eb) is not float or not 0.0 < eb < np.inf:
            raise DecompressionError(f"stream header records an invalid error bound {eb!r}")
        bs = params["block_size"]
        ndim = len(reader.shape)
        n_blocks = cells // bs**ndim
        modes = np.frombuffer(decompress_bytes(reader.section("modes"), cells), dtype=np.uint8)
        if modes.size != n_blocks:
            raise DecompressionError(f"modes section has {modes.size} entries, expected {n_blocks}")
        if modes.max() > MODE_REGRESSION:
            raise DecompressionError(f"modes section holds mode {int(modes.max())}, not 0 or 1")
        n_lor = int(np.count_nonzero(modes == MODE_LORENZO))
        dc = unpack_ints(reader.section("dc"), cells)
        if dc.size != n_lor:
            raise DecompressionError(f"dc section has {dc.size} entries for {n_lor} Lorenzo block(s)")
        qcoefs = unpack_ints(reader.section("coefs"), cells)
        if qcoefs.size != (n_blocks - n_lor) * (1 + ndim):
            raise DecompressionError(
                f"coefs section has {qcoefs.size} entries for {n_blocks - n_lor} "
                f"regression block(s) of {1 + ndim}"
            )
        if codes.size != cells:
            raise DecompressionError(f"code stream has {codes.size} entries, expected {cells}")
        return eb, bs, ndim, modes, dc, qcoefs.reshape(-1, 1 + ndim)

    # ------------------------------------------------------------------
    # Random access (paper §3.3: no dependency between blocks)
    # ------------------------------------------------------------------
    def decompress_block(
        self, blob: bytes, block_index: int, shared: SharedEntropy | None = None
    ) -> np.ndarray:
        """Decode a single ``block_size``-cube without assembling the array.

        The entropy stream is decoded once per call; for bulk random access
        decode the full array instead. Demonstrates the independence the
        paper credits SZ-L/R with (partial visualization support).

        For a grouped stream this routes through the *owning patch's*
        payload extent only (``shared.payload``): the symbols decoded are
        one patch's codes, never the whole group's — the per-patch extents
        in the group section are what keep block random access O(patch).
        """
        reader = StreamReader(blob)
        (codes,), (cells,) = self._decode_codes([reader], [shared])
        eb, bs, ndim, modes, dc, qcoefs = self._sections(reader, codes, cells)
        if not 0 <= block_index < modes.size:
            raise DecompressionError(f"block index {block_index} out of range [0, {modes.size})")
        block_cells = bs**ndim
        block_codes = codes[block_index * block_cells : (block_index + 1) * block_cells].copy()
        rank = int(np.count_nonzero(modes[:block_index] == modes[block_index]))
        if modes[block_index] == MODE_LORENZO:
            block_codes[0] = dc[rank]
            q = lorenzo_inverse(block_codes.reshape((bs,) * ndim))
            return q.astype(np.float64) * (2.0 * eb)
        dq = reg.dequantize_coefficients(qcoefs[rank : rank + 1], eb, bs, ndim)
        pred = reg.predict_blocks(dq, bs, ndim)[0]
        return (pred + (2.0 * eb) * block_codes).reshape((bs,) * ndim)
