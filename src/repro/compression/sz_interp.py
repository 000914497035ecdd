"""SZ-Interp: global spline-interpolation codec (paper §3.3).

The second compressor evaluated by the paper. Unlike SZ-L/R it has no block
structure: a coarse anchor lattice is stored almost losslessly, then each
refinement level predicts the new lattice points by cubic interpolation
along one axis at a time (see :mod:`repro.compression.interpolation`) and
quantizes the corrections. Artifacts are therefore smooth and global rather
than block-wise — the property the paper's Figures 10/11 analyze.

:meth:`SZInterp.compress` is the one-member case of the run path
(``compress_batch``): members of one shape run the interpolation passes as
one stack, and a run's codes pool under one shared Huffman codebook.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compression.base import (
    GROUPED_STAGE,
    RAW_SECTION_LEVEL,
    BatchResult,
    Compressor,
    StreamWriter,
    check_entropy_params,
)
from repro.compression.interpolation import InterpPlan, predict_axis
from repro.compression.lossless import compress_bytes, decompress_bytes
from repro.compression.quantizer import quantize_residuals, reconstruct_from_codes
from repro.errors import DecompressionError
from repro.util.timer import StageTimes

__all__ = ["SZInterp"]


class SZInterp(Compressor):
    """Global interpolation-predicted SZ codec.

    Parameters
    ----------
    entropy:
        ``"huffman"`` (default SZ pipeline) or ``"deflate"``.

    Every section is DEFLATEd at the per-section levels of
    :mod:`repro.compression.base` (the cheap
    :data:`~repro.compression.base.HUFFMAN_SECTION_LEVEL` for
    Huffman-coded sections).
    """

    name = "sz-interp"

    def __init__(self, entropy: str = "huffman"):
        # Constructor misuse is a CompressionError (nothing is being
        # decoded here); this used to raise DecompressionError.
        check_entropy_params(entropy)
        self.entropy = entropy
        self.last_stage_times: StageTimes = StageTimes()

    # ------------------------------------------------------------------
    def _sub_lattice(
        self, recon: np.ndarray, plan: InterpPlan, stride: int, axis: int,
        batched: bool = False,
    ) -> np.ndarray:
        """Knot lattice for one interpolation pass: axes before ``axis`` at
        half spacing, axes after at full spacing, ``axis`` kept dense.
        With ``batched=True`` a leading patch axis passes through whole."""
        half = stride // 2
        grids = []
        for d, n in enumerate(plan.shape):
            if d == axis:
                grids.append(np.arange(n))
            elif d < axis:
                grids.append(np.arange(0, n, half))
            else:
                grids.append(np.arange(0, n, stride))
        if batched:
            return recon[(slice(None),) + np.ix_(*grids)]
        return recon[np.ix_(*grids)]

    def _interp_pass(self, stack: np.ndarray, eb, times: StageTimes):
        """The stride x axis interpolation loop over a ``(n, *shape)`` stack
        (``eb`` a scalar or one bound per member, broadcastable): every step
        is element-wise, so a member's codes do not depend on its
        neighbours. Returns ``(plan, anchors, codes)``, codes ``(n, total)``.
        """
        n, shape = stack.shape[0], stack.shape[1:]
        plan = InterpPlan(shape)
        lead = (slice(None),)
        recon = np.zeros(stack.shape, dtype=np.float64)
        anchors = stack[lead + plan.anchor_slices()]
        recon[lead + plan.anchor_slices()] = anchors
        chunks: list[np.ndarray] = []
        with times.measure("interp"):
            for stride, half in plan.levels():
                for axis in range(len(shape)):
                    grid = plan.target_grid(stride, axis)
                    targets = np.arange(half, shape[axis], stride)
                    if targets.size == 0:
                        continue
                    knots = self._sub_lattice(recon, plan, stride, axis, batched=True)
                    pred = predict_axis(knots, axis + 1, targets, half)
                    codes = quantize_residuals(stack[lead + grid], pred, eb)
                    recon[lead + grid] = reconstruct_from_codes(pred, codes, eb)
                    chunks.append(codes.reshape(n, -1))
        codes = (
            np.concatenate(chunks, axis=1) if chunks else np.empty((n, 0), dtype=np.int64)
        )
        return plan, anchors, codes

    def _pack_member(self, shape, dtype, eb, stride, entropy_used, anchors, code_blob,
                     member: int = 0) -> bytes:
        """One member's stream: params, anchors section and — unless the
        codes live in a group's shared payload — its codes section."""
        params = {"eb": eb, "stride": stride, "entropy": entropy_used, "k_streams": "auto"}
        if entropy_used == GROUPED_STAGE:
            params["group_member"] = member
        writer = StreamWriter(self.name, shape, dtype, params)
        writer.add_section(
            "anchors",
            compress_bytes(np.ascontiguousarray(anchors).tobytes(), level=RAW_SECTION_LEVEL),
        )
        if entropy_used != GROUPED_STAGE:
            writer.add_section("codes", code_blob)
        return writer.tobytes()

    def _compress_run(self, arrs: list, dtypes: list, ebs: list, grouped: bool) -> BatchResult:
        """The streams of validated float64 members under absolute bounds:
        the body of :meth:`compress` (one self-contained member) and of
        :meth:`compress_batch` (a run under one shared codebook when
        ``grouped``). Members of one shape run one :meth:`_interp_pass` as
        a stack (the passes depend on the shape, not on the values), all
        members' codes go through one entropy pass, and only the sections
        are written per member."""
        times = StageTimes()
        shapes: dict[tuple[int, ...], list[int]] = {}
        for i, arr in enumerate(arrs):
            shapes.setdefault(arr.shape, []).append(i)
        plan: list = [None] * len(arrs)  # member -> (stride, anchors, codes)
        for shape, members in shapes.items():
            stack = (np.stack([arrs[i] for i in members]) if len(members) > 1
                     else arrs[members[0]][None])
            eb = np.reshape([ebs[i] for i in members], (-1,) + (1,) * len(shape))
            interp, anchors, codes = self._interp_pass(stack, eb, times)
            for row, i in enumerate(members):
                plan[i] = (interp.stride, anchors[row], codes[row])
        with times.measure("entropy"):
            codebook, blobs, stages = self._encode_run([c for *_, c in plan], grouped)
        with times.measure("pack"):
            shared = codebook is not None  # False too when the pooled alphabet did not fit
            streams = [
                self._pack_member(
                    arrs[i].shape, dtypes[i], ebs[i], stride, stages[i], member_anchors,
                    None if shared else blobs[i], member=i,
                )
                for i, (stride, member_anchors, _) in enumerate(plan)
            ]
        self.last_stage_times = times
        return BatchResult(codebook, blobs if shared else [], streams)

    def _reconstruct_batch(self, readers: list, codes: list, cells: list) -> list:
        """Rebuild a run of parsed streams from their decoded codes, one
        member at a time: the inverse of each member's interpolation
        passes (``cells`` goes unused; SZ-Interp pads nothing)."""
        out = []
        for reader, all_codes in zip(readers, codes):
            eb = reader.params.get("eb")
            if type(eb) is not float or not 0.0 < eb < np.inf:
                raise DecompressionError(f"stream header records an invalid error bound {eb!r}")
            shape = reader.shape
            plan = InterpPlan(shape)
            # Every lattice point but the anchors carries one code, and every
            # anchor eight bytes: sections that disagree with the header shape
            # are refused before the shape sizes any allocation.
            lattice = tuple(len(range(0, n, plan.stride)) for n in shape)
            expected = math.prod(shape) - math.prod(lattice)
            if all_codes.size != expected:
                raise DecompressionError(
                    f"interpolation code stream has {all_codes.size} codes, but the "
                    f"header shape {list(shape)} implies {expected}"
                )
            anchor_raw = decompress_bytes(reader.section("anchors"), 8 * math.prod(lattice))
            if len(anchor_raw) != 8 * math.prod(lattice):
                raise DecompressionError(
                    f"anchors section has {len(anchor_raw)} bytes for {math.prod(lattice)} anchor(s)"
                )
            recon = np.zeros(shape, dtype=np.float64)
            recon[plan.anchor_slices()] = np.frombuffer(anchor_raw, dtype=np.float64).reshape(lattice)
            pos = 0
            for stride, half in plan.levels():
                for axis in range(len(shape)):
                    grid = plan.target_grid(stride, axis)
                    targets = np.arange(half, shape[axis], stride)
                    if targets.size == 0:
                        continue
                    knots = self._sub_lattice(recon, plan, stride, axis)
                    pred = predict_axis(knots, axis, targets, half)
                    chunk = all_codes[pos : pos + pred.size].reshape(pred.shape)
                    pos += pred.size
                    recon[grid] = reconstruct_from_codes(pred, chunk, eb)
            out.append(recon.astype(reader.dtype, copy=False))
        return out
