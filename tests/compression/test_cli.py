"""Tests for the compression CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr import write_plotfile
from repro.compression.__main__ import main


@pytest.fixture
def npy_file(tmp_path, smooth_field):
    path = tmp_path / "field.npy"
    np.save(path, smooth_field, allow_pickle=False)
    return path


class TestArrayCommands:
    def test_compress_decompress_roundtrip(self, npy_file, tmp_path, capsys, smooth_field):
        blob = tmp_path / "field.rprc"
        assert main(["compress", str(npy_file), "-o", str(blob), "--eb", "1e-3"]) == 0
        assert "ratio" in capsys.readouterr().out
        out = tmp_path / "restored.npy"
        assert main(["decompress", str(blob), "-o", str(out)]) == 0
        restored = np.load(out)
        eb = 1e-3 * (smooth_field.max() - smooth_field.min())
        assert np.abs(restored - smooth_field).max() <= eb * (1 + 1e-9)

    def test_default_output_names(self, npy_file, capsys):
        assert main(["compress", str(npy_file)]) == 0
        rprc = npy_file.with_suffix(".rprc")
        assert rprc.is_file()
        assert main(["decompress", str(rprc)]) == 0

    def test_codec_selection(self, npy_file, tmp_path, capsys):
        blob = tmp_path / "x.rprc"
        assert main(["compress", str(npy_file), "-o", str(blob), "--codec", "sz-interp"]) == 0
        assert main(["info", str(blob)]) == 0
        out = capsys.readouterr().out
        assert "sz-interp" in out
        assert "section" in out

    def test_abs_mode(self, npy_file, tmp_path, smooth_field):
        blob = tmp_path / "a.rprc"
        main(["compress", str(npy_file), "-o", str(blob), "--mode", "abs", "--eb", "0.05"])
        out = tmp_path / "a.npy"
        main(["decompress", str(blob), "-o", str(out)])
        assert np.abs(np.load(out) - smooth_field).max() <= 0.05 * (1 + 1e-9)


class TestPlotfileCommands:
    def test_compress_and_info(self, sphere_hierarchy, tmp_path, capsys):
        plt = write_plotfile(tmp_path / "plt", sphere_hierarchy)
        out = tmp_path / "plt.rprh"
        assert main(["compress-plotfile", str(plt), "-o", str(out), "--fields", "f"]) == 0
        assert "ratio" in capsys.readouterr().out
        assert main(["info-plotfile", str(out)]) == 0
        info = capsys.readouterr().out
        assert "level 1" in info and "sz-lr" in info

    def test_repeated_field_exits_2_writing_nothing(self, sphere_hierarchy, tmp_path, capsys):
        plt = write_plotfile(tmp_path / "plt", sphere_hierarchy)
        out = tmp_path / "plt.rprh"
        assert main(["compress-plotfile", str(plt), "-o", str(out), "--fields", "f,f"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "field 'f' more than once" in err
        assert not out.exists()

    def test_exclude_covered_flag(self, sphere_hierarchy, tmp_path, capsys):
        plt = write_plotfile(tmp_path / "plt", sphere_hierarchy)
        out = tmp_path / "x.rprh"
        assert main([
            "compress-plotfile", str(plt), "-o", str(out), "--exclude-covered"
        ]) == 0

    def test_parallel_flag_same_bytes(self, sphere_hierarchy, tmp_path, capsys):
        plt = write_plotfile(tmp_path / "plt", sphere_hierarchy)
        serial, thread = tmp_path / "s.rprh", tmp_path / "t.rprh"
        assert main(["compress-plotfile", str(plt), "-o", str(serial)]) == 0
        assert main([
            "compress-plotfile", str(plt), "-o", str(thread),
            "--parallel", "thread", "--workers", "3",
        ]) == 0
        assert serial.read_bytes() == thread.read_bytes()


class TestContainerCommands:
    @pytest.fixture
    def container_file(self, sphere_hierarchy, tmp_path):
        plt = write_plotfile(tmp_path / "plt", sphere_hierarchy)
        out = tmp_path / "plt.rprh"
        assert main(["compress-plotfile", str(plt), "-o", str(out), "--fields", "f"]) == 0
        return out

    def test_inspect_lists_patch_index(self, container_file, capsys):
        capsys.readouterr()
        assert main(["inspect", str(container_file)]) == 0
        out = capsys.readouterr().out
        assert "patches:" in out
        assert "offset" in out and "crc32" in out
        assert "sz-lr" in out

    def test_extract_single_patch(self, container_file, tmp_path, sphere_hierarchy, capsys):
        out = tmp_path / "patch.npy"
        assert main([
            "extract", str(container_file), "-o", str(out),
            "--level", "1", "--field", "f", "--patch", "0",
        ]) == 0
        data = np.load(out)
        orig = sphere_hierarchy[1].patches("f")[0].data
        eb = 1e-3 * (orig.max() - orig.min())
        assert data.shape == orig.shape
        assert np.abs(data - orig).max() <= eb * (1 + 1e-9)

    def test_extract_level_to_npz(self, container_file, tmp_path, capsys):
        out = tmp_path / "level0.npz"
        assert main([
            "extract", str(container_file), "-o", str(out), "--level", "0", "--npz"
        ]) == 0
        with np.load(out) as bundle:
            assert any(name.startswith("level0_f_") for name in bundle.files)

    def test_extract_empty_selection_fails(self, container_file, tmp_path, capsys):
        assert main(["extract", str(container_file), "--level", "9"]) == 1
        assert "no patches" in capsys.readouterr().err


class TestSeriesCommands:
    @pytest.fixture
    def plotfile_steps(self, sphere_hierarchy, tmp_path):
        """Three plotfile directories, one per timestep."""
        dirs = []
        for i in range(3):
            h = sphere_hierarchy.map_fields(lambda lev, name, d, i=i: d * (1 + 0.5 * i))
            dirs.append(str(write_plotfile(tmp_path / f"plt_{i:04d}", h)))
        return dirs

    @pytest.fixture
    def series_file(self, plotfile_steps, tmp_path):
        out = tmp_path / "run.rph2s"
        assert main(["stream", *plotfile_steps, "-o", str(out), "--fields", "f"]) == 0
        return out

    def test_stream_reports_steps(self, plotfile_steps, tmp_path, capsys):
        out = tmp_path / "r.rph2s"
        assert main(["stream", *plotfile_steps, "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "step 0" in text and "step 2" in text and "3 steps written" in text

    def test_stream_rejects_ambiguous_source(self, plotfile_steps, tmp_path, capsys):
        out = tmp_path / "r.rph2s"
        assert main(["stream", "-o", str(out)]) == 2
        assert main(["stream", *plotfile_steps, "--sim", "nyx", "-o", str(out)]) == 2

    def test_inspect_series_walks_timestep_index(self, series_file, capsys):
        capsys.readouterr()
        assert main(["inspect", str(series_file)]) == 0
        out = capsys.readouterr().out
        assert "RPH2S time series" in out
        assert "steps:    3" in out
        assert "ratio" in out

    def test_extract_step_patch(self, series_file, tmp_path, sphere_hierarchy, capsys):
        out = tmp_path / "p.npy"
        assert main([
            "extract", str(series_file), "-o", str(out),
            "--step", "2", "--level", "1", "--field", "f", "--patch", "0",
        ]) == 0
        data = np.load(out)
        orig = 2.0 * sphere_hierarchy[1].patches("f")[0].data
        eb = 1e-3 * (orig.max() - orig.min())
        assert np.abs(data - orig).max() <= eb * (1 + 1e-9)

    def test_extract_steps_to_npz(self, series_file, tmp_path, capsys):
        out = tmp_path / "sel.npz"
        assert main([
            "extract", str(series_file), "-o", str(out), "--step", "0,1", "--level", "0"
        ]) == 0
        with np.load(out) as bundle:
            assert sorted(bundle.files) == [
                "step00000_level0_f_patch00000",
                "step00001_level0_f_patch00000",
            ]

    def test_inspect_empty_series(self, tmp_path, capsys):
        from repro.insitu import StreamingWriter

        out = tmp_path / "empty.rph2s"
        StreamingWriter.create(out, "sz-lr", 1e-3, fields=["f"]).close()
        assert main(["inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "steps:    0" in text and "nan" in text


class TestOneErrorPath:
    """Every subcommand x {junk, empty, missing, wrong kind}: one stderr
    line, exit 2, never a traceback. ``scrub`` reports such a target as a
    finding (exit 1), as it always has."""

    COMMANDS = (
        "compress", "decompress", "info", "compress-plotfile", "info-plotfile",
        "inspect", "extract", "stream", "serve", "recover", "scrub", "repair",
    )

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        from repro.amr.io import write_container, write_series
        from repro.compression import SZLR
        from repro.compression.amr_codec import compress_hierarchy
        from tests.conftest import make_sphere_hierarchy

        root = tmp_path_factory.mktemp("cli-errors")
        h = make_sphere_hierarchy(8)
        write_container(root / "snap.rprh", compress_hierarchy(h, "sz-lr", 1e-3))
        write_series(root / "run.rph2s", [h, h])
        write_plotfile(root / "plt", h)
        (root / "array.rprc").write_bytes(SZLR().compress(np.zeros((8, 8, 8)), 1e-3))
        (root / "junk.bin").write_bytes(b"junk")
        (root / "empty.bin").write_bytes(b"")
        return root

    @staticmethod
    def wrong_kind(command: str) -> str:
        """A healthy file of a kind the subcommand does not take."""
        if command in ("inspect", "extract", "serve", "scrub"):
            return "array.rprc"  # they take all three containers
        return {"info-plotfile": "run.rph2s", "repair": "run.rph2s"}.get(command, "snap.rprh")

    @pytest.mark.parametrize("case", ["junk", "empty", "missing", "wrong-kind"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_line_and_exit_2(self, inputs, tmp_path, capsys, command, case):
        name = self.wrong_kind(command) if case == "wrong-kind" else f"{case}.bin"
        argv = [command, str(inputs / name)]
        if command == "stream":
            argv += ["-o", str(tmp_path / "out.rph2s")]
        capsys.readouterr()
        code = main(argv)
        out, err = capsys.readouterr()
        assert "Traceback" not in err + out
        if command == "scrub":
            assert code == 1 and err == "" and "1 finding(s)" in out
            return
        assert code == 2, (argv, err)
        assert err.startswith(f"{command}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("spec", ["1,x", "x", "", "1.5", "1,,2"])
    @pytest.mark.parametrize("option", ["--level", "--patch", "--step"])
    def test_a_bad_selector_is_one_line_and_exit_2(self, inputs, capsys, option, spec):
        capsys.readouterr()
        code = main(["extract", str(inputs / "run.rph2s"), option, spec])
        out, err = capsys.readouterr()
        assert "Traceback" not in err + out
        assert code == 2, err
        assert err.startswith(f"extract: {option} ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", [
        "compress-plotfile {root}/plt -o {out} --parallel process",
        "extract {root}/run.rph2s -o {out} --parallel process",
        "stream --sim nyx --steps 1 -o {out} --parallel process",
    ], ids=lambda command: command.split()[0])
    def test_a_negative_worker_count_is_one_line_and_exit_2(self, inputs, tmp_path, capsys, command):
        out = tmp_path / "out.bin"
        argv = command.format(root=inputs, out=out).split() + ["--workers", "-1"]
        capsys.readouterr()
        code = main(argv)
        stdout, err = capsys.readouterr()
        assert "Traceback" not in err + stdout
        assert code == 2, err
        assert err == f"{argv[0]}: workers must be >= 0, got -1\n"
        assert not out.exists()

    def test_recover_names_the_snapshot_it_was_given(self, inputs, capsys):
        assert main(["recover", str(inputs / "snap.rprh")]) == 2
        assert "snap.rprh is an RPH2 snapshot container" in capsys.readouterr().err

    def test_repair_does_not_blame_parity_for_a_non_campaign(self, inputs, tmp_path, capsys):
        from repro.amr.io import write_sharded_series
        from tests.conftest import make_sphere_hierarchy

        assert main(["repair", str(inputs / "missing.bin")]) == 2
        assert "cannot open" in capsys.readouterr().err
        assert main(["repair", str(inputs / "junk.bin")]) == 2
        assert "not an RPHM manifest" in capsys.readouterr().err
        camp = write_sharded_series(
            tmp_path / "camp.rphm", [make_sphere_hierarchy(8)] * 2, n_shards=2,
            parallel="serial",
        )
        assert main(["repair", str(camp)]) == 2  # a real campaign without parity
        assert "no parity shards" in capsys.readouterr().err
