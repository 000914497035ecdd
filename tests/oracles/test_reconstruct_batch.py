"""Oracles for the read side's per-run setup.

``SZLR.decompress_batch`` rebuilds a run of streams as one block matrix
(``SZLR._reconstruct_batch``) after one lockstep entropy pass whose gather
table is built for all of the run's codebooks at once
(``huffman._decode_table``). The oracles are the paths those replaced, kept
here: the per-member inverse kernel ``reference_reconstruct`` and the
per-codebook table build ``reference_table``. New and old must agree byte
for byte — on hypothesis runs that mix dimensions, block sizes, dtypes,
bounds, predictors, grouped and self-contained streams and the BLAS row
classes of the regression matmul; on the pinned file fixtures; on a sharded
campaign and a grouped snapshot. Streams whose sections disagree with
their header or with each other are a typed ``DecompressionError`` on every
path — alone, inside a run, through ``decompress_block`` and through a
container run, which names the member.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.amr.io import write_sharded_series
from repro.compression import huffman, regression as reg
from repro.compression.amr_codec import compress_hierarchy
from repro.compression.base import StreamReader, StreamWriter
from repro.compression.container import ContainerReader, _decode_run
from repro.compression.lossless import compress_bytes, decompress_bytes, pack_ints, unpack_ints
from repro.compression.sz_lr import MODE_LORENZO, SZLR
from repro.errors import DecompressionError
from repro.insitu.series import SeriesReader

from tests.oracles.common import assert_same
from tests.strategies import FILE_CASES, codebook_runs, many_patch_hierarchy, mixed_runs


# ----------------------------------------------------------------------
# The oracles
# ----------------------------------------------------------------------
def reference_reconstruct(reader: StreamReader, codes: np.ndarray) -> np.ndarray:
    """One member's inverse kernel, as ``SZLR._reconstruct`` ran it before
    runs were stacked."""
    params = reader.params
    eb = float(params["eb"])
    bs = int(params["block_size"])
    shape = reader.shape
    padded_shape = tuple(params["padded_shape"])
    ndim = len(shape)
    block_cells = bs**ndim
    cells = SZLR()._cells(reader)
    modes = np.frombuffer(decompress_bytes(reader.section("modes"), cells), dtype=np.uint8)
    n_blocks = modes.size
    dc = unpack_ints(reader.section("dc"), cells)
    qcoefs = unpack_ints(reader.section("coefs"), cells).reshape(-1, 1 + ndim)
    assert codes.size == n_blocks * block_cells
    codes = codes.reshape(n_blocks, block_cells)
    out_blocks = np.empty((n_blocks, block_cells), dtype=np.float64)
    lor_sel = modes == MODE_LORENZO
    if lor_sel.any():
        lor_codes = codes[lor_sel].copy()
        lor_codes[:, 0] = dc
        q = lor_codes.reshape((-1,) + (bs,) * ndim)
        for axis in range(ndim, 0, -1):  # lorenzo_inverse as it was: a cumsum per axis
            np.cumsum(q, axis=axis, out=q)
        out_blocks[lor_sel] = q.reshape(-1, block_cells).astype(np.float64) * (2.0 * eb)
    if (~lor_sel).any():
        dqcoefs = reg.dequantize_coefficients(qcoefs, eb, bs, ndim)
        preds = reg.predict_blocks(dqcoefs, bs, ndim)
        out_blocks[~lor_sel] = preds + (2.0 * eb) * codes[~lor_sel]
    arr = reg.unblockify(out_blocks, bs, padded_shape, shape)
    return arr.astype(reader.dtype, copy=False)


def reference_decompress(blobs, shareds) -> list[np.ndarray]:
    """Every member decoded alone and rebuilt by the per-member kernel."""
    codec, out = SZLR(), []
    for blob, shared in zip(blobs, shareds):
        reader = StreamReader(blob)
        (codes,), _ = codec._decode_codes([reader], [shared])
        out.append(reference_reconstruct(reader, codes))
    return out


def reference_table(books) -> np.ndarray:
    """The lockstep's stacked table as it was built: each codebook's own
    flat table (an argsort and a repeat), concatenated, then every entry
    moved to its book's rows."""
    parts = []
    for book in books:
        lens = book.lengths.astype(np.int64)
        max_len = int(lens.max())
        order = np.argsort(lens, kind="stable")
        spans = np.int64(1) << (max_len - lens[order])
        assert int(spans.sum()) == 1 << max_len
        parts.append(np.repeat(((np.arange(lens.size) << 5) | lens)[order], spans))
    rows = np.cumsum([0] + [book.alphabet.size for book in books[:-1]])
    table = np.concatenate(parts)
    table += np.repeat(rows << 5, [part.size for part in parts])
    return table


# ----------------------------------------------------------------------
# One table per run == the per-codebook tables
# ----------------------------------------------------------------------


class TestOneTablePerRun:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(codebook_runs())
    def test_stacked_table_is_the_per_codebook_tables(self, books):
        table, max_lens = huffman._decode_table(books)
        want = reference_table(books)
        assert table.dtype == want.dtype and np.array_equal(table, want)
        assert max_lens.tolist() == [int(b.lengths.max()) for b in books]
        for book in books:
            sym, length, max_len = book.tables()
            lone = reference_table([book])
            assert max_len == int(book.lengths.max())
            assert np.array_equal(sym, book.alphabet[lone >> 5]) and np.array_equal(length, lone & 31)

    def test_a_bad_book_anywhere_in_the_run_is_refused(self):
        good = huffman.SharedCodebook.from_symbols(np.arange(9))
        zero = huffman.SharedCodebook(np.arange(3), np.array([1, 0, 1]))
        long = huffman.SharedCodebook(np.arange(3), np.array([1, 17, 17]))
        short = huffman.SharedCodebook(np.arange(3), np.array([1, 2, 3]))
        over = huffman.SharedCodebook(np.arange(3), np.array([1, 1, 1]))
        for bad, message in [(zero, "invalid Huffman code lengths$"), (long, "invalid Huffman code lengths$"),
                             (short, r"\(not full\)"), (over, r"\(not full\)")]:
            for run in ([bad], [good, bad], [bad, good], [good, bad, good]):
                with pytest.raises(DecompressionError, match=message):
                    huffman._decode_table(run)


# ----------------------------------------------------------------------
# The stacked inverse kernel == the per-member kernel
# ----------------------------------------------------------------------


class TestStackedKernelAgainstThePerMemberKernel:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mixed_runs())
    def test_any_mixed_run(self, run):
        blobs, shareds = run
        assert_same(SZLR().decompress_batch(blobs, shareds), reference_decompress(blobs, shareds))

    def test_every_blas_row_class_in_one_run(self, rng):
        """Members whose regression rows fall in different BLAS kernels
        (1, 2-300 and >= 500 rows) share one ``(bs, ndim)`` class: each must
        still be predicted over its own rows."""
        codec = SZLR(block_size=4, predictor="regression")
        blobs = [codec.compress(rng.normal(size=shape).cumsum(axis=0) * scale, 1e-3)
                 for shape in [(4, 4, 4), (32, 32, 32), (8, 8, 12), (3, 2, 4), (2200,), (40, 9)]
                 for scale in (1.0, 1e3)]
        shareds = [None] * len(blobs)
        assert_same(SZLR().decompress_batch(blobs, shareds), reference_decompress(blobs, shareds))

    @pytest.mark.parametrize("case", sorted(FILE_CASES))
    def test_pinned_containers(self, case):
        raw = compress_hierarchy(many_patch_hierarchy(), "sz-lr", 1e-3, **FILE_CASES[case]).tobytes()
        reader = ContainerReader(raw)
        blobs = [reader.read_stream(e) for e in reader.entries]
        shareds = [reader._entry_shared(e) for e in reader.entries]
        assert_same(SZLR().decompress_batch(blobs, shareds), reference_decompress(blobs, shareds))

    def test_sharded_campaign(self, tmp_path):
        manifest = write_sharded_series(
            tmp_path / "camp.rphm", [many_patch_hierarchy(s) for s in (3, 4)],
            error_bound=1e-3, n_shards=2, parity=1)
        with SeriesReader.open(manifest) as series:
            for step in series.steps:
                reader = series.open_step(step)
                blobs = [reader.read_stream(e) for e in reader.entries]
                shareds = [reader._entry_shared(e) for e in reader.entries]
                got = SZLR().decompress_batch(blobs, shareds)
                assert_same(got, reference_decompress(blobs, shareds))

    def test_level_batched_snapshot(self):
        raw = compress_hierarchy(many_patch_hierarchy(), "sz-lr", 1e-3, batch="level").tobytes()
        reader = ContainerReader(raw)
        assert len({e.group for e in reader.entries if e.group is not None}) >= 2
        blobs = [reader.read_stream(e) for e in reader.entries]
        shareds = [reader._entry_shared(e) for e in reader.entries]
        assert_same(SZLR().decompress_batch(blobs, shareds), reference_decompress(blobs, shareds))


# ----------------------------------------------------------------------
# Sections that disagree are a typed error on every path
# ----------------------------------------------------------------------
def _rewrite(blob, params=None, **sections) -> bytes:
    """``blob`` with its params and any named sections replaced."""
    reader = StreamReader(blob)
    meta = reader._meta
    writer = StreamWriter(meta["codec"], reader.shape, reader.dtype,
                          reader.params if params is None else params)
    for sec in meta["sections"]:
        writer.add_section(sec["name"], sections.get(sec["name"], bytes(reader.section(sec["name"]))))
    return writer.tobytes()


def _forgeries():
    """``(name, healthy stream, forged stream, a Lorenzo block, a regression
    block)`` over a 12^3 stream of both predictors."""
    rng = np.random.default_rng(12)
    data = rng.normal(size=(12, 12, 12)).cumsum(axis=0)
    blob = SZLR(block_size=4).compress(data, 1e-2)
    reader = StreamReader(blob)
    cells, params = 12**3, reader.params
    modes = np.frombuffer(decompress_bytes(reader.section("modes"), cells), dtype=np.uint8)
    dc = unpack_ints(reader.section("dc"), cells)
    coefs = unpack_ints(reader.section("coefs"), cells)
    lor, regr = int(np.flatnonzero(modes == 0)[0]), int(np.flatnonzero(modes == 1)[0])
    assert 0 < dc.size < modes.size and coefs.size
    as_mode = lambda m: compress_bytes(m.astype(np.uint8).tobytes())
    one_lorenzo_block_as_2 = modes.copy()
    one_lorenzo_block_as_2[lor] = 2
    forged = {
        "dc one short": _rewrite(blob, dc=pack_ints(dc[:-1])),
        "dc one long": _rewrite(blob, dc=pack_ints(np.append(dc, 7))),
        "coefs one row short": _rewrite(blob, coefs=pack_ints(coefs[:-4])),
        "coefs one entry long": _rewrite(blob, coefs=pack_ints(np.append(coefs, 7))),
        "modes one short": _rewrite(blob, modes=as_mode(modes[:-1])),
        "mode 2 on a Lorenzo block": _rewrite(blob, modes=as_mode(one_lorenzo_block_as_2)),
        "mode 2 on regression blocks": _rewrite(blob, modes=as_mode(np.where(modes == 1, 2, modes))),
        "eb missing": _rewrite(blob, params={k: v for k, v in params.items() if k != "eb"}),
        "eb text": _rewrite(blob, params={**params, "eb": "abc"}),
        "eb numeric text": _rewrite(blob, params={**params, "eb": "0.01"}),
        "eb NaN": _rewrite(blob, params={**params, "eb": float("nan")}),
        "eb inf": _rewrite(blob, params={**params, "eb": float("inf")}),
        "eb zero": _rewrite(blob, params={**params, "eb": 0.0}),
        "eb negative": _rewrite(blob, params={**params, "eb": -0.01}),
    }
    for name, forgery in forged.items():
        yield name, blob, forgery, lor, regr


FORGERIES = list(_forgeries())


@pytest.mark.parametrize("name, blob, forged, lor, regr", FORGERIES, ids=[f[0] for f in FORGERIES])
def test_sections_that_disagree_are_refused_on_every_path(name, blob, forged, lor, regr):
    codec = SZLR()
    with pytest.raises(DecompressionError) as alone:
        codec.decompress(forged)
    with pytest.raises(DecompressionError) as inside:
        codec.decompress_batch([blob, forged, blob])
    assert str(inside.value) == str(alone.value)
    for block in (lor, regr):
        with pytest.raises(DecompressionError):
            codec.decompress_block(forged, block)
    members = [((1, "f", i), "sz-lr", forged if i == 2 else blob, None) for i in range(4)]
    with pytest.raises(DecompressionError, match=r"\(level=1, field='f', patch=2\)"):
        _decode_run((members, None))


def test_corrupt_codes_section_inside_a_run_names_its_member(rng):
    """A lossless-stage failure in one member's codes section is named by
    the run like any ``FormatError`` is."""
    blob = SZLR().compress(rng.normal(size=(8, 8, 8)), 1e-3)
    forged = _rewrite(blob, codes=b"\x00corrupt deflate stream")
    members = [((0, "a", i), "sz-lr", forged if i == 1 else blob, None) for i in range(4)]
    with pytest.raises(DecompressionError, match=r"^patch stream \(level=0, field='a', patch=1\): lossless"):
        _decode_run((members, None))
