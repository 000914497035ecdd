"""Zero-copy (mmap / buffer) container and series read path.

The acceptance contract: ``decompress_selection`` on an mmap-opened
container hands the codecs ``memoryview`` slices of the mapping — no
intermediate ``bytes`` copy of any patch stream is allocated — with crc
verification running against the view, and byte-identical results to the
copying file mode. Also pins the constructor-validation error taxonomy:
misusing a codec *constructor* is a :class:`CompressionError`, never a
:class:`DecompressionError` (nothing is being decoded yet).
"""

from __future__ import annotations

import mmap

import numpy as np
import pytest

from repro.amr.io import write_series
from repro.compression import container as container_mod
from repro.compression.amr_codec import compress_hierarchy
from repro.compression.container import ContainerReader
from repro.compression.sz_interp import SZInterp
from repro.compression.sz_lr import SZLR
from repro.errors import CompressionError, DecompressionError, FormatError
from repro.insitu import SeriesReader
from repro.parallel import WorkerPool
from tests.strategies import make_sphere_hierarchy, scaled_steps


@pytest.fixture(scope="module")
def container_path(tmp_path_factory):
    hier = make_sphere_hierarchy(12)
    raw = compress_hierarchy(hier, "sz-lr", 1e-3).tobytes()
    path = tmp_path_factory.mktemp("zc") / "snap.rph2"
    path.write_bytes(raw)
    return path


@pytest.fixture(scope="module")
def series_path(tmp_path_factory):
    steps = scaled_steps(3)
    path = tmp_path_factory.mktemp("zc") / "run.rph2s"
    write_series(path, steps, codec="sz-lr", error_bound=1e-3)
    return path


def _assert_unpinned(path):
    """No mapping of a closed reader holds ``path``: it maps writable and
    can be unlinked (a platform that locks mapped files refuses both)."""
    with path.open("r+b") as f:
        mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_WRITE).close()
    raw = path.read_bytes()
    path.unlink()
    path.write_bytes(raw)  # the fixture is shared by the module


class TestContainerMmap:
    def test_mapped_flag(self, container_path):
        with ContainerReader.open(container_path) as r:
            assert not r.mapped
        with ContainerReader.open(container_path, mmap=True) as r:
            assert r.mapped

    def test_results_match_file_mode(self, container_path):
        with ContainerReader.open(container_path) as rf:
            via_file = rf.select()
        with ContainerReader.open(container_path, mmap=True) as rm:
            via_map = rm.select()
        assert via_file.keys() == via_map.keys()
        for key in via_file:
            assert np.array_equal(via_file[key], via_map[key])

    def test_read_stream_returns_view_of_mapping(self, container_path):
        with ContainerReader.open(container_path, mmap=True) as r:
            for entry in r.entries:
                blob = r.read_stream(entry)
                assert isinstance(blob, memoryview)
                assert isinstance(blob.obj, mmap.mmap)
                assert len(blob) == entry.length
                blob.release()  # views must not outlive the mapping

    def test_live_view_pins_mapping(self, container_path):
        """Closing while a handed-out view is alive raises BufferError —
        the zero-copy contract is explicit, not a silent copy."""
        r = ContainerReader.open(container_path, mmap=True)
        blob = r.read_stream(r.entries[0])
        with pytest.raises(BufferError):
            r.close()
        blob.release()
        r.close()

    def test_selection_passes_views_to_codecs(self, container_path, monkeypatch):
        """The acceptance check: no intermediate ``bytes`` copy of any
        patch stream between the mapping and the codec."""
        seen: list[tuple[type, bool]] = []
        real_task = container_mod._decode_run

        def spying_task(task):
            for _, _, blob, _ in task[0]:
                seen.append(
                    (type(blob), isinstance(blob, memoryview) and isinstance(blob.obj, mmap.mmap))
                )
            return real_task(task)

        monkeypatch.setattr(container_mod, "_decode_run", spying_task)
        with ContainerReader.open(container_path, mmap=True) as r:
            out = r.select()
        assert len(seen) == len(out) > 0
        for blob_type, is_mapping_view in seen:
            assert blob_type is memoryview, (
                f"codec got a {blob_type.__name__}: a bytes copy was made"
            )
            assert is_mapping_view

    def test_file_mode_still_passes_bytes(self, container_path, monkeypatch):
        seen: list[object] = []
        real_task = container_mod._decode_run

        def spying_task(task):
            seen.extend(member[2] for member in task[0])
            return real_task(task)

        monkeypatch.setattr(container_mod, "_decode_run", spying_task)
        with ContainerReader.open(container_path) as r:
            r.select()
        assert seen and all(isinstance(b, bytes) for b in seen)

    def test_crc_verified_against_view(self, container_path, tmp_path):
        """Payload corruption surfaces through the mmap path too."""
        raw = bytearray(container_path.read_bytes())
        with ContainerReader.open(container_path, mmap=True) as r:
            entry = r.entries[0]
        raw[entry.offset + entry.length // 2] ^= 0xFF
        bad = tmp_path / "corrupt.rph2"
        bad.write_bytes(bytes(raw))
        with ContainerReader.open(bad, mmap=True) as r:
            with pytest.raises(FormatError):
                r.read_stream(r.entries[0])

    def test_bytes_buffer_mode(self, container_path):
        raw = container_path.read_bytes()
        reader = ContainerReader(raw)
        assert reader.mapped
        with ContainerReader.open(container_path) as rf:
            expect = rf.select()
        got = reader.select()
        for key in expect:
            assert np.array_equal(expect[key], got[key])

    def test_thread_parallel_on_mapping(self, container_path):
        with ContainerReader.open(container_path, mmap=True) as r:
            serial = r.select()
            with WorkerPool("thread") as pool:
                threaded = r.select(pool=pool)
        for key in serial:
            assert np.array_equal(serial[key], threaded[key])

    def test_close_releases_mapping(self, container_path):
        r = ContainerReader.open(container_path, mmap=True)
        r.read_patch(*r.entries[0].key)
        r.close()
        assert not r.mapped
        _assert_unpinned(container_path)

    def test_invalid_source_rejected(self):
        with pytest.raises(CompressionError):
            ContainerReader(12345)


class TestSeriesMmap:
    def test_results_match_file_mode(self, series_path):
        with SeriesReader.open(series_path) as rf:
            assert not rf.mapped
            via_file = rf.select()
        with SeriesReader.open(series_path, mmap=True) as rm:
            assert rm.mapped
            via_map = rm.select()
        assert via_file.keys() == via_map.keys()
        for key in via_file:
            assert np.array_equal(via_file[key], via_map[key])

    def test_segments_inherit_zero_copy_mode(self, series_path):
        with SeriesReader.open(series_path, mmap=True) as r:
            seg = r.open_step(r.steps[0])
            assert seg.mapped
            blob = seg.read_stream(seg.entries[0])
            assert isinstance(blob, memoryview)
            blob.release()
            seg.close()

    def test_verify_step_on_mapping(self, series_path):
        with SeriesReader.open(series_path, mmap=True) as r:
            for step in r.steps:
                r.verify_step(step)

    def test_read_patch_roundtrip(self, series_path):
        with SeriesReader.open(series_path, mmap=True) as r:
            arr = r.read_patch(r.steps[-1], 0, "f", 0)
        assert arr.size > 0

    def test_close_releases_mapping(self, series_path):
        r = SeriesReader.open(series_path, mmap=True)
        r.verify_step(r.steps[0])
        r.close()
        assert not r.mapped
        _assert_unpinned(series_path)

    def test_invalid_source_rejected(self):
        with pytest.raises(CompressionError):
            SeriesReader(object())


class TestConstructorErrorTaxonomy:
    """Constructor misuse is CompressionError — audited across codecs
    (SZInterp used to raise DecompressionError for a bad ``entropy``)."""

    @pytest.mark.parametrize("codec_cls", [SZInterp, SZLR])
    def test_bad_entropy(self, codec_cls):
        with pytest.raises(CompressionError) as exc:
            codec_cls(entropy="rle")
        assert not isinstance(exc.value, DecompressionError)

    def test_backend_with_mmap_on_every_reader_open(self):
        """One mistake, one error type: each reader's ``open`` hands the
        arguments to the one ``ByteSource.open``."""
        from repro.integrity import ParityReader
        from repro.storage import MemoryBackend

        for reader_cls in (ContainerReader, SeriesReader, ParityReader):
            with pytest.raises(CompressionError, match="mutually exclusive") as exc:
                reader_cls.open("x", backend=MemoryBackend(), mmap=True)
            assert type(exc.value) is CompressionError

    @pytest.mark.parametrize("codec_cls", [SZInterp, SZLR])
    def test_k_streams_recorded_in_stream_params(self, codec_cls):
        from repro.compression.base import StreamReader

        data = np.linspace(0.0, 1.0, 4096).reshape(16, 16, 16)
        blob = codec_cls().compress(data, 1e-3)
        assert StreamReader(blob).params["k_streams"] == "auto"

    def test_explicit_k_decodes(self, monkeypatch):
        """Blobs self-describe their K: streams whose codes were packed
        at K = 16 and K = 2 both decode."""
        from repro.compression import huffman

        data = np.linspace(0.0, 1.0, 4096).reshape(16, 16, 16)
        resolve = huffman.resolve_k_streams
        blobs = []
        for k in (16, 2):
            monkeypatch.setattr(huffman, "resolve_k_streams", lambda _, n, k=k: resolve(k, n))
            blobs.append(SZLR().compress(data, 1e-3))
        monkeypatch.undo()
        assert blobs[0] != blobs[1]
        for blob in blobs:
            recon = SZLR().decompress(blob)
            assert np.abs(recon - data).max() <= 1e-3 * (1 + 1e-12)


class TestMmapOpenFailure:
    """A failing mmap open must surface the real FormatError — not a
    BufferError from closing a mapping the half-built reader still pins —
    and must not leak the mapping."""

    @pytest.fixture()
    def junk_path(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x81" * 80)
        return path

    def test_container_open_names_the_corruption(self, junk_path):
        with pytest.raises(FormatError, match="not an RPH2 container"):
            ContainerReader.open(junk_path, mmap=True)

    def test_series_open_names_the_corruption(self, junk_path):
        with pytest.raises(FormatError, match="not an RPH2S series"):
            SeriesReader.open(junk_path, mmap=True)

    def test_truncated_container_under_mmap(self, container_path, tmp_path):
        bad = tmp_path / "trunc.rph2"
        bad.write_bytes(container_path.read_bytes()[:-40])
        with pytest.raises(FormatError):
            ContainerReader.open(bad, mmap=True)


class TestBytesSourceZeroCopy:
    """decompress_selection on raw bytes routes through buffer mode: the
    codecs get memoryview slices of the caller's buffer, not BytesIO
    re-copies."""

    def test_bytes_source_passes_views(self, container_path, monkeypatch):
        from repro.compression.amr_codec import decompress_selection

        raw = container_path.read_bytes()
        seen: list[type] = []
        real_task = container_mod._decode_run

        def spying_task(task):
            seen.extend(type(member[2]) for member in task[0])
            return real_task(task)

        monkeypatch.setattr(container_mod, "_decode_run", spying_task)
        out = decompress_selection(raw)
        assert seen == [memoryview] * len(out)

    def test_frombytes_streams_are_owned_bytes(self, container_path):
        """A parsed hierarchy outlives the buffer it was parsed from:
        mutating or closing that buffer leaves ``select`` unchanged."""
        from repro.compression.amr_codec import CompressedHierarchy

        want = CompressedHierarchy.frombytes(container_path.read_bytes()).select()
        buf = bytearray(container_path.read_bytes())
        held = CompressedHierarchy.frombytes(buf)
        buf[:] = bytes(len(buf))
        with open(container_path, "rb") as fh:
            mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            mapped = CompressedHierarchy.frombytes(mapping)
            mapping.close()  # BufferError if the hierarchy still pinned it
        for ch in (held, mapped):
            got = ch.select()
            assert set(got) == set(want)
            for key, arr in want.items():
                assert np.array_equal(got[key], arr)
