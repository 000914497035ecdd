"""Block-stacked per-patch encode: fewer kernel passes, the same values.

A run of patches goes through the SZ-L/R kernel chain as one block matrix
(``SZLR.compress_batch``) and through the Huffman stage under one shared
codebook. ``compress``
still writes each array's self-contained stream byte for byte as the repo
wrote it before runs were stacked — ``DIGESTS[case]`` holds sha256
digests taken from that one-at-a-time encoder over the same seeded inputs
— and a run's grouped streams decode bit for bit to what those streams
decode to. ``DIGESTS["run:<case>"]`` and the file digests pin the grouped
bytes themselves. ``TestOnePassBytes.DIGEST`` pins ``SZInterp.compress`` and
``SZInterp.compress_batch`` the same way.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.amr.io import write_series, write_sharded_series
from repro.compression import amr_codec, huffman, sz_lr
from repro.compression.amr_codec import compress_hierarchy
from repro.compression.base import GROUPED_STAGE, SharedEntropy, StreamReader
from repro.compression.registry import make_codec
from repro.compression.sz_interp import SZInterp
from repro.compression.sz_lr import SZLR
from repro.errors import CompressionError
from repro.insitu import StreamingWriter
from repro.parallel import WorkerPool

from tests.strategies import FILE_CASES, make_field, many_patch_hierarchy


RAGGED_3D = [(8, 8, 8), (8, 8, 8), (16, 8, 8), (8, 64, 8), (8, 8, 8), (16, 16, 16),
             (8, 8, 16), (12, 8, 8), (5, 7, 9), (8, 8, 8)]


def _run(name: str) -> list[np.ndarray]:
    """The seeded members of one matrix case."""
    rng = np.random.default_rng(sum(name.encode()))
    if name == "1d":
        return [make_field(rng, (n,)) for n in (16, 64, 100, 512, 64)]
    if name == "2d":
        return [make_field(rng, s) for s in ((8, 8), (16, 24), (30, 8), (8, 8))]
    if name == "mixed_ndim":
        return [make_field(rng, s) for s in ((8, 8, 8), (64,), (16, 8), (8, 8, 8), (64,))]
    if name == "float32":
        return [make_field(rng, s).astype(np.float32) for s in RAGGED_3D[:6]]
    if name == "constant":
        kinds = ("rough", "const", "rough", "const", "smooth")
        return [make_field(rng, s, k) for s, k in zip(RAGGED_3D, kinds)]
    if name == "lattice":
        return [make_field(rng, s, "lattice") for s in RAGGED_3D]
    if name == "one_symbol":  # a smooth ramp under a loose bound: every code is 0
        return [make_field(rng, (8, 8, 8), "smooth") * 1e-6 for _ in range(3)]
    if name == "deflate_mid_run":
        return [make_field(rng, (8, 8, 8)), make_field(rng, (48, 48, 48), "wild"),
                make_field(rng, (16, 8, 8))]
    return [make_field(rng, s) for s in RAGGED_3D]


#: case -> (run, codec kwargs, error bound, mode)
CASES = {
    "ragged3d": ("ragged3d", {"block_size": "auto"}, 1e-3, "rel"),
    "ragged3d_abs": ("ragged3d", {"block_size": "auto"}, 1e-2, "abs"),
    "fixed_bs6": ("ragged3d", {}, 1e-3, "rel"),
    "1d": ("1d", {"block_size": "auto"}, 1e-3, "rel"),
    "2d": ("2d", {"block_size": "auto"}, 1e-3, "rel"),
    "mixed_ndim": ("mixed_ndim", {"block_size": "auto"}, 1e-3, "rel"),
    "float32": ("float32", {"block_size": "auto"}, 1e-3, "rel"),
    "constant": ("constant", {"block_size": "auto"}, 1e-3, "rel"),
    "lattice": ("lattice", {"block_size": "auto"}, 0.25, "abs"),
    "one_symbol": ("one_symbol", {"block_size": "auto", "predictor": "lorenzo"}, 1.0, "abs"),
    "deflate_mid_run": ("deflate_mid_run", {"block_size": "auto"}, 1e-9, "rel"),
    "entropy_deflate": ("ragged3d", {"block_size": "auto", "entropy": "deflate"}, 1e-3, "rel"),
    "lorenzo": ("ragged3d", {"block_size": "auto", "predictor": "lorenzo"}, 1e-3, "rel"),
    "regression": ("ragged3d", {"block_size": "auto", "predictor": "regression"}, 1e-3, "rel"),
}

#: sha256 digests. ``<case>``: the case's ``[codec.compress(a, eb, mode) for a
#: in run]`` streams at the commit before runs were stacked (``compress``
#: still writes them). ``run:<case>``: the ``compress_batch``
#: codebook, payloads and streams of the case. The file digests: the
#: containers, series and campaign of :class:`TestFilesIdentical`.
DIGESTS = {
    "1d": "80fff8ccc21fec7970c609ab490e8e94c17f963bada13667c6fd27e2b9218a6d",
    "2d": "b77c14fa49e60c0bd80ceb6fd78df2550c5bcef46b6a93b8493ff85fae50986c",
    "constant": "018626d70a8643e75c9633d648995db530ab199c72d366775bb36414691ff52c",
    "deflate_mid_run": "31ef76480529f1b77bfd0e91ccb2bd6009ea2f86b4ebb2b02de54f57af2c0c00",
    "entropy_deflate": "3073594982c2a75117c1839d25ba5083f5f4adb0932a5b084804a14863043040",
    "fixed_bs6": "b864bce7967fafbab30a9e68a78b049ec9266934f87b7cae2c6ddb93cd292fc6",
    "float32": "dcd0134e3e3e802b14fe7a9e72862d2e1bca4790d5f032dc01234ffc4e75dbe6",
    "lattice": "12f15b6a80880323215dd01e01bb5d157f89d60a936e08ee51a931cf4155dfe4",
    "lorenzo": "ee85a853c0ab063694097a78659d5bd7e8254d3e29c8564c48a5c0e9f314ca58",
    "mixed_ndim": "29941600f0247a8d7f5cfe4dfc7add9753483d7f5c7dbacfbd2fcc3aa348d443",
    "one_symbol": "2a4aafb14d86844b1a502e697ba6c3c859a65460a7a338979a9a08a3d6b4420f",
    "ragged3d": "2159de7382848e4a2685f5b23a3e1fa9b99a6f96cb0f51fcaadfcadf960a3166",
    "ragged3d_abs": "dd7b9d9b5f48009da72d8f011b0ebaef26aab0534c5fc490398b667bbc87073f",
    "regression": "fc263941cb4d07a28e83c587925e20a43392d1d11c1a47e3d233305c7e3e2b8f",
    "sharded": "256bfd37e756f6b4a58e39714e4736b2a3807dcb05a6a71e0216c87b1a872c8a",
    "run:1d": "565a723dea37ae1ed68c8ed81120cd4e7bac1aa913f1445631a4c6b03a9a6046",
    "run:2d": "d53ffaeabc049b33d2f5e1785aee441081e62e182dd643c365bd8d8daa791789",
    "run:constant": "4c3a5c0a12fb8d83447cd034fbbf02afa42c325d5da7f594b4c0694a3a61f017",
    "run:deflate_mid_run": "7d8015fc16137d830a301b5b70d458ef25456d78b8c5ee5dc0e4b7ac87a6d717",
    "run:entropy_deflate": "783e213f58e09ea691b16e99871c16df531ea9ea1a5604fbf62354ea90ea8779",
    "run:fixed_bs6": "ca8d31c912a1ec589e7790441bd2362c533dd3f9c3804f0e07ee4a5407201728",
    "run:float32": "753f3f281f28cf9968106e76e30af5abd31c0e7aebc667d758df4c97db266a84",
    "run:lattice": "f36c40c32c6924e71a2077cf952c716673ebae0a09854eb4d6db2079865da0ea",
    "run:lorenzo": "39c425b3ae22954100eef29ef1b0547a60d355a9945febba78d1615d3908217a",
    "run:mixed_ndim": "8d6dbc8b5029c8b5a3bc0d206307357b4ef9cea226fc14aa4269c3eb191b4c38",
    "run:one_symbol": "0db3eebfb4da961bffc0005075311679639f72e002bbbd6d4c75b107a871e453",
    "run:ragged3d": "28e804a6f9df0ff9e4bb78d12800ec93e802a0752e5cb52070033956ae458f41",
    "run:ragged3d_abs": "7531e86aefe222ed382e95f782196cf3d988e43b0bbd475542ac829a585c3ce1",
    "run:regression": "0c13b17fceb5a2bd13b5e0fd5d43302e86f18e0b3e5d47ab26127a4b96fe6d23",
    "container:exclude_covered": "81c68a79539c62fc6495fc0eb7c449221d4dbb3a929362ea34c290af254a7814",
    "container:field_bounds": "561485f887bad4f6edf51b65a4314453b449e00a4fab7ebddd6c393cc01ab40c",
    "container:plain": "7ae86f0f8b3677fa51b364d9097f171360bb4eca04c3bc11efaab85a2219061e",
    "series:exclude_covered": "34a820b2c79abe07e9564690126021c45cfe605c936d3c079eb6fc3e29451271",
    "series:plain": "118cb1e90677a29fb70195c6b2c28ac32c3289e7d6c61622e15db8a9f6936a6d",
    "sharded": "11022ece5d92d8291cab1e04a252cb8d2e696bb0e30ed57d77b2f7b9844aa43c",
}


def _digest(blobs) -> str:
    sha = hashlib.sha256()
    for blob in blobs:
        sha.update(len(blob).to_bytes(8, "little"))
        sha.update(blob)
    return sha.hexdigest()


def _one_at_a_time(case: str) -> list[bytes]:
    run, kwargs, eb, mode = CASES[case]
    codec = SZLR(**kwargs)
    return [codec.compress(a, eb, mode) for a in _run(run)]


def _decode(codec, result) -> list[np.ndarray]:
    """A ``compress_batch`` result's arrays, grouped or self-contained."""
    if result.codebook is None:
        return codec.decompress_batch(result.streams)
    book = huffman.SharedCodebook.frombytes(result.codebook)
    return codec.decompress_batch(result.streams, [SharedEntropy(book, p) for p in result.payloads])


def _same_arrays(got, want) -> bool:
    return len(got) == len(want) and all(
        g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


class TestStackedRunIdentity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_decodes_as_one_at_a_time_equals_parent(self, case):
        run, kwargs, eb, mode = CASES[case]
        codec = SZLR(**kwargs)
        alone = _one_at_a_time(case)
        assert _digest(alone) == DIGESTS[case]
        result = codec.compress_batch(_run(run), eb, mode)
        assert _same_arrays(_decode(codec, result), [codec.decompress(s) for s in alone])
        pinned = [result.codebook or b"", *result.payloads, *result.streams]
        assert _digest(pinned) == DIGESTS[f"run:{case}"]

    def test_a_run_shares_one_codebook(self):
        result = SZLR(block_size="auto").compress_batch(_run("ragged3d"), 1e-3, "rel")
        assert result.codebook is not None and len(result.payloads) == len(result.streams)
        params = [StreamReader(s).params for s in result.streams]
        assert {p["entropy"] for p in params} == {GROUPED_STAGE}
        assert [p["group_member"] for p in params] == list(range(len(params)))

    def test_per_member_bounds(self):
        members = _run("ragged3d")
        codec = SZLR(block_size="auto")
        bounds = [codec.resolve_error_bound(a, 1e-3 * (1 + i % 3), "rel")
                  for i, a in enumerate(members)]
        stacked = codec.compress_batch(members, bounds, "abs")
        want = [codec.decompress(codec.compress(a, eb, "abs")) for a, eb in zip(members, bounds)]
        assert _same_arrays(_decode(codec, stacked), want)

    def test_auto_block_size_splits_the_run(self):
        streams = SZLR(block_size="auto").compress_batch(
            _run("ragged3d"), 1e-3, "rel").streams
        sizes = {StreamReader(s).params["block_size"] for s in streams}
        assert len(sizes) > 1, "members must resolve to different block sizes"

    def test_deflate_fallback_stays_with_its_member(self):
        streams = SZLR(block_size="auto").compress_batch(
            _run("deflate_mid_run"), 1e-9, "rel").streams
        stages = [StreamReader(s).params["entropy"] for s in streams]
        assert stages == ["huffman", "deflate", "huffman"]

    def test_one_symbol_alphabet(self):
        codec = SZLR(block_size="auto", predictor="lorenzo")
        result = codec.compress_batch(_run("one_symbol"), 1.0, "abs")
        for member, out in zip(_run("one_symbol"), _decode(codec, result)):
            assert np.abs(out - member).max() <= 1.0

    def test_rejects_bad_member_before_encoding(self):
        members = _run("ragged3d")
        members[3] = members[3].copy()
        members[3][0, 0, 0] = np.nan
        with pytest.raises(CompressionError, match="NaN/Inf"):
            SZLR().compress_batch(members, 1e-3, "rel")

    def test_sz_interp_run_decodes_as_one_at_a_time(self):
        """SZ-Interp's run shares one codebook and stacks same-shape members
        (two of the four here), and decodes as ``compress`` one at a time."""
        codec = make_codec("sz-interp")
        members = _run("ragged3d")[:4]
        for bounds, mode in ((1e-3, "rel"), ([0.01, 0.02, 0.03, 0.04], "abs")):
            result = codec.compress_batch(members, bounds, mode)
            assert result.codebook is not None
            specs = bounds if isinstance(bounds, list) else [bounds] * len(members)
            want = [codec.decompress(codec.compress(a, eb, mode)) for a, eb in zip(members, specs)]
            assert _same_arrays(_decode(codec, result), want)


# ----------------------------------------------------------------------
# Files: every writer, every execution mode, the parent's bytes
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def hierarchy():
    return many_patch_hierarchy()


class TestFilesIdentical:
    @pytest.mark.parametrize("case", sorted(FILE_CASES))
    def test_compress_hierarchy_patch_mode(self, hierarchy, case):
        blobs = {}
        for mode in ("serial", "thread", "process"):
            with WorkerPool(mode, workers=2) as pool:
                blobs[mode] = compress_hierarchy(hierarchy, "sz-lr", 1e-3, pool=pool,
                                                 **FILE_CASES[case]).tobytes()
        assert blobs["serial"] == blobs["thread"] == blobs["process"]
        assert _digest([blobs["serial"]]) == DIGESTS[f"container:{case}"]

    @pytest.mark.parametrize("case", ["plain", "exclude_covered"])
    def test_write_series(self, hierarchy, tmp_path, case):
        raws = []
        for mode in ("serial", "thread", "process"):
            with WorkerPool(mode, workers=2) as pool:
                path = write_series(tmp_path / f"{mode}.rph2s", [hierarchy, hierarchy],
                                    error_bound=1e-3, pool=pool, **FILE_CASES[case])
            raws.append(path.read_bytes())
        assert raws[0] == raws[1] == raws[2]
        assert _digest([raws[0]]) == DIGESTS[f"series:{case}"]

    def test_series_segment_is_the_batch_container(self, hierarchy, tmp_path):
        with WorkerPool("thread") as pool:
            path = write_series(tmp_path / "s.rph2s", [hierarchy], error_bound=1e-3, pool=pool)
        container = compress_hierarchy(hierarchy, "sz-lr", 1e-3).tobytes()
        assert container in path.read_bytes()

    @pytest.mark.parametrize("parallel", ["serial", "thread"])
    def test_write_sharded_series(self, hierarchy, tmp_path, parallel):
        manifest = write_sharded_series(
            tmp_path / "camp.rphm", [hierarchy] * 3, error_bound=1e-3, n_shards=2,
            parity=1, parallel=parallel)
        files = sorted(p for p in manifest.parent.iterdir())
        assert _digest([p.read_bytes() for p in files]) == DIGESTS["sharded"]


# ----------------------------------------------------------------------
# Count guard: a level is a handful of kernel passes, not one per patch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget", [None, 4096])
@pytest.mark.parametrize("pooled", [False, True])
def test_kernel_passes_per_field_are_bounded_by_the_cell_budget(
        hierarchy, tmp_path, monkeypatch, pooled, budget):
    if budget:
        monkeypatch.setattr(amr_codec, "RUN_CELL_BUDGET", budget)
    calls = []
    real = sz_lr.lorenzo_forward
    monkeypatch.setattr(sz_lr, "lorenzo_forward",
                        lambda q, **kw: calls.append(q.shape[0]) or real(q, **kw))
    fine = hierarchy[1]
    cells = sum(p.data.size for p in fine.patches("a"))
    with WorkerPool("thread", workers=2) as pool:
        with StreamingWriter.create(tmp_path / "s.rph2s", "sz-lr", 1e-3,
                                    pool=pool if pooled else None) as writer:
            writer.begin_step()
            for name in ("a", "b"):
                for patch in fine.patches(name):
                    writer.add_patch(1, name, patch.data)
            writer.end_step()
    assert len(fine.patches("a")) == 60
    per_field = math.ceil(cells / amr_codec.RUN_CELL_BUDGET) + 1
    assert len(calls) <= 2 * per_field
    # every block of every patch still went through exactly once
    assert sum(calls) == 2 * cells // 8 ** 3


class TestOnePassBytes:
    """``compress`` is the one-member case of the run path. ``DIGEST`` pins,
    over 96 cases (8 shapes x 2 dtypes x 3 bounds x 2 entropy stages),
    ``compress``'s streams — unchanged since they were two separate loops —
    and ``compress_batch``'s codebook, payloads and streams of a run of
    three same-shape members: one stacked pass under one shared codebook,
    its grouped payloads under the 1-bit DEFLATE rule
    (``repro.compression.base._wrap_grouped``)."""

    SHAPES = [(1, 1, 1), (2, 3, 4), (5,), (8, 8, 8), (9, 7, 5), (16, 16), (17, 1, 3),
              (33, 33)]
    DIGEST = "694855f50839dadf6d960bfbbf1b401f4c7ead8cc7482eab9878b0aec64618ba"

    def test_digest_battery(self):
        h = hashlib.sha256()
        rng = np.random.default_rng(20261001)
        for shape in self.SHAPES:
            base = rng.standard_normal((3, *shape)).cumsum(axis=-1)
            for dtype in (np.float32, np.float64):
                stack = base.astype(dtype)
                for eb in (1e-1, 1e-3, 1e-5):
                    for entropy in ("huffman", "deflate"):
                        codec = SZInterp(entropy=entropy)
                        alone = [codec.compress(member, eb, "rel") for member in stack]
                        for blob in alone:
                            h.update(blob)
                        res = codec.compress_batch(stack, eb, "rel")
                        h.update(res.codebook or b"")
                        for blob in (*res.payloads, *res.streams):
                            h.update(blob)
                        # ungrouped members are the stand-alone streams
                        if res.codebook is None:
                            assert res.streams == alone
        assert h.hexdigest() == self.DIGEST

    def test_one_member_batch_decodes_like_compress(self, smooth_field):
        codec = SZInterp(entropy="deflate")
        res = codec.compress_batch(smooth_field[None], 1e-3, "abs")
        assert res.streams == [codec.compress(smooth_field, 1e-3, "abs")]
