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

import numpy as np

from repro.compression.base import (
    GROUPED_STAGE,
    RAW_SECTION_LEVEL,
    BatchResult,
    Compressor,
    StreamReader,
    StreamWriter,
    check_backend_level,
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
    backend:
        Lossless byte backend for all sections.
    k_streams:
        Huffman interleave width: ``"auto"`` (scales with the input; the
        vectorized-decode default) or an explicit stream count.
    backend_level:
        Backend compression level for every section (0-9), or ``None``
        for the measured per-section defaults (cheap level for
        already-Huffman-coded sections; see
        :data:`~repro.compression.base.HUFFMAN_SECTION_LEVEL`).
    """

    name = "sz-interp"
    supports_batch = True

    def __init__(
        self,
        entropy: str = "huffman",
        backend: str = "deflate",
        k_streams: int | str = "auto",
        backend_level: int | None = None,
    ):
        # Constructor misuse is a CompressionError (nothing is being
        # decoded here); this used to raise DecompressionError.
        check_entropy_params(entropy, k_streams)
        check_backend_level(backend_level)
        self.entropy = entropy
        self.backend = backend
        self.k_streams = k_streams if k_streams == "auto" else int(k_streams)
        self.backend_level = backend_level
        self.last_stage_times: StageTimes = StageTimes()

    def _raw_level(self) -> int:
        """Backend level for non-entropy sections."""
        return RAW_SECTION_LEVEL if self.backend_level is None else self.backend_level

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
        params = {"eb": eb, "stride": stride, "entropy": entropy_used,
                  "k_streams": self.k_streams}
        if entropy_used == GROUPED_STAGE:
            params["group_member"] = member
        writer = StreamWriter(self.name, shape, dtype, params)
        writer.add_section(
            "anchors",
            compress_bytes(
                np.ascontiguousarray(anchors).tobytes(), self.backend, self._raw_level()
            ),
        )
        if entropy_used != GROUPED_STAGE:
            writer.add_section("codes", code_blob)
        return writer.tobytes()

    def compress(self, data: np.ndarray, error_bound: float, mode: str = "abs") -> bytes:
        """A self-contained stream: the run of one member (:meth:`_compress_run`)."""
        return self._compress_one(data, error_bound, mode)

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

    def _reconstruct(self, reader: StreamReader, all_codes: np.ndarray) -> np.ndarray:
        eb = float(reader.params["eb"])
        shape = reader.shape
        plan = InterpPlan(shape)
        recon = np.zeros(shape, dtype=np.float64)
        anchor_raw = decompress_bytes(reader.section("anchors"), 8 * self._cells(reader))
        anchor_view = recon[plan.anchor_slices()]
        anchors = np.frombuffer(anchor_raw, dtype=np.float64).reshape(anchor_view.shape)
        recon[plan.anchor_slices()] = anchors
        pos = 0
        for stride, half in plan.levels():
            for axis in range(len(shape)):
                grid = plan.target_grid(stride, axis)
                targets = np.arange(half, shape[axis], stride)
                if targets.size == 0:
                    continue
                knots = self._sub_lattice(recon, plan, stride, axis)
                pred = predict_axis(knots, axis, targets, half)
                count = pred.size
                if pos + count > all_codes.size:
                    raise DecompressionError("interpolation code stream truncated")
                codes = all_codes[pos : pos + count].reshape(pred.shape)
                pos += count
                recon[grid] = reconstruct_from_codes(pred, codes, eb)
        if pos != all_codes.size:
            raise DecompressionError(
                f"interpolation code stream has {all_codes.size - pos} unused codes"
            )
        return recon.astype(reader.dtype, copy=False)
