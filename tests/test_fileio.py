"""Format round trips and config parsing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqnreg.errors import ConfigError, FormatError
from sqnreg.fileio import (
    RunConfig,
    load_config,
    load_field,
    load_manifest,
    load_metrics_csv,
    load_pgm,
    load_stack,
    metrics_csv,
    parse_config,
    save_field,
    save_pgm,
)
from sqnreg.grids import DisplacementField, GridSpec, Image, zero_field
from sqnreg.optimize import IterRecord, LevelTrace, SolveReport

from conftest import rng_for


class TestPgm:
    def test_8bit_rescale(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img = load_pgm(p)
        assert img.grid.dims == (2, 2)
        expected = np.array([[0.0, 128 / 255], [1.0, 64 / 255]])
        assert np.array_equal(img.data, expected)

    def test_16bit_big_endian(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n65535\n" + b"\x01\x00\xff\xff\x00\x00\x00\x01")
        img = load_pgm(p)
        assert img.data[0, 0] == 256 / 65535
        assert img.data[0, 1] == 1.0
        assert img.data[1, 0] == 0.0
        assert img.data[1, 1] == 1 / 65535

    def test_header_comments_and_whitespace(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5 # comment\n# another line\n 2\t2 \n255\n" + bytes([7, 9, 0, 255]))
        img = load_pgm(p)
        assert np.array_equal(img.data, np.array([[7, 9], [0, 255]]) / 255)

    @pytest.mark.parametrize("maxval", [255, 65535])
    def test_save_load_byte_identical(self, tmp_path, maxval):
        rng = rng_for(3)
        grid = GridSpec(dims=(9, 7))
        img = Image(grid, rng.uniform(0.0, 1.0, size=grid.dims))
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.pgm"
        save_pgm(img, p1, maxval=maxval)
        save_pgm(load_pgm(p1), p2, maxval=maxval)
        assert p1.read_bytes() == p2.read_bytes()

    def test_16bit_lossless_for_quantized_data(self, tmp_path):
        rng = rng_for(4)
        raw = rng.integers(0, 65536, size=(6, 5))
        img = Image(GridSpec(dims=(6, 5)), raw / 65535)
        p = tmp_path / "a.pgm"
        save_pgm(img, p, maxval=65535)
        back = load_pgm(p)
        assert np.array_equal(np.rint(back.data * 65535).astype(int), raw)

    def test_save_rounds_half_to_even(self, tmp_path):
        # 0.5/255 and 1.5/255 both sit exactly between levels
        img = Image(
            GridSpec(dims=(2, 2)), np.array([[0.5 / 255, 1.5 / 255], [0.0, 1.0]])
        )
        p = tmp_path / "a.pgm"
        save_pgm(img, p)
        assert list(p.read_bytes()[-4:]) == [0, 2, 0, 255]

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n2 2\n255\n" + bytes(4))
        with pytest.raises(FormatError, match="not a binary PGM"):
            load_pgm(p)

    def test_rejects_unsupported_maxval(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n1023\n" + bytes(8))
        with pytest.raises(FormatError, match="unsupported maxval"):
            load_pgm(p)

    def test_truncated_payload_reports_byte_offset(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
        with pytest.raises(FormatError, match="truncated PGM payload at byte 14"):
            load_pgm(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n1 1\n255\n" + bytes(1) + b"junk")
        with pytest.raises(FormatError, match="trailing data"):
            load_pgm(p)

    def test_bad_integer_in_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\nxx 2\n255\n" + bytes(4))
        with pytest.raises(FormatError, match="bad width b'xx' at byte 3"):
            load_pgm(p)

    def test_save_quantization_matches_rint(self, tmp_path):
        rng = rng_for(5)
        data = rng.uniform(0.0, 1.0, size=(4, 4))
        img = Image(GridSpec(dims=(4, 4)), data)
        for maxval in (255, 65535):
            p = tmp_path / f"m{maxval}.pgm"
            save_pgm(img, p, maxval=maxval)
            back = load_pgm(p)
            assert np.array_equal(back.data, np.rint(data * maxval) / maxval)


class TestSqnfield:
    def test_zero_field_payload(self, tmp_path):
        p = tmp_path / "f.sqnfield"
        save_field(zero_field(GridSpec(dims=(4, 4))), p)
        buf = p.read_bytes()
        header, _, payload = buf.partition(b"\n")
        assert header.startswith(b"SQNFIELD v1 4 4 ")
        assert payload == bytes(4 * 4 * 2 * 8)

    def test_round_trip_bit_identical(self, tmp_path):
        rng = rng_for(6)
        grid = GridSpec(dims=(5, 8), origin=(-0.25, 1.5), spacing=(0.125, 0.0625))
        u = rng.standard_normal((5, 8, 2))
        u[0, 0, 0] = 5e-324  # smallest denormal
        u[0, 1, 1] = -1.7e308
        u[1, 0, 0] = math.pi
        field = DisplacementField(grid, u)
        p = tmp_path / "f.sqnfield"
        save_field(field, p)
        back = load_field(p)
        assert back.grid == grid
        assert np.array_equal(back.u, u)

    def test_constructed_fixture(self, tmp_path):
        planes = np.arange(32, dtype="<f8")
        p = tmp_path / "f.sqnfield"
        p.write_bytes(b"SQNFIELD v1 4 4 1 1 0 0\n" + planes.tobytes())
        field = load_field(p)
        assert field.grid == GridSpec(dims=(4, 4), origin=(0.0, 0.0), spacing=(1.0, 1.0))
        assert np.array_equal(field.u[..., 0].ravel(), planes[:16])
        assert np.array_equal(field.u[..., 1].ravel(), planes[16:])

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"NOTAFIELD v1 2 2 1 1 0 0\n" + bytes(64))
        with pytest.raises(FormatError, match="not a SQNFIELD file"):
            load_field(p)

    def test_rejects_wrong_version(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"SQNFIELD v2 2 2 1 1 0 0\n" + bytes(64))
        with pytest.raises(FormatError, match="unsupported SQNFIELD version"):
            load_field(p)

    @pytest.mark.parametrize("header, payload", [
        (b"SQNFIELD v1 -3 -3 1 1 0 0", 144),  # reshapes to (2, 3, 3) by bytes alone
        (b"SQNFIELD v1 1 4 1 1 0 0", 64),
        (b"SQNFIELD v1 2 2 nan 1 0 0", 64),
        (b"SQNFIELD v1 2 2 1 0 0 0", 64),
        (b"SQNFIELD v1 2 2 1 1 inf 0", 64),
    ])
    def test_rejects_header_values_no_grid_has(self, tmp_path, header, payload):
        # a library caller gets the format error that names the header, not
        # an error from the payload's reshape or from the grid
        p = tmp_path / "f.bin"
        p.write_bytes(header + b"\n" + bytes(payload))
        with pytest.raises(FormatError, match="bad SQNFIELD header values"):
            load_field(p)

    def test_rejects_size_mismatch(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"SQNFIELD v1 2 2 1 1 0 0\n" + bytes(63))
        with pytest.raises(FormatError, match="payload size mismatch"):
            load_field(p)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_round_trip_property(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        m1 = int(rng.integers(2, 7))
        m2 = int(rng.integers(2, 7))
        grid = GridSpec(
            dims=(m1, m2),
            origin=tuple(rng.uniform(-3, 3, 2)),
            spacing=tuple(rng.uniform(0.01, 2.0, 2)),
        )
        field = DisplacementField(grid, rng.standard_normal((m1, m2, 2)) * 10.0**rng.integers(-8, 8))
        p = tmp_path_factory.mktemp("rt") / "f.sqnfield"
        save_field(field, p)
        back = load_field(p)
        assert back.grid == grid
        assert np.array_equal(back.u, field.u)


class TestManifest:
    def make_images(self, tmp_path, n=3):
        rng = rng_for(8)
        names = []
        for i in range(n):
            img = Image(GridSpec(dims=(4, 4)), rng.uniform(0, 1, size=(4, 4)))
            name = f"img{i}.pgm"
            save_pgm(img, tmp_path / name)
            names.append(name)
        return names

    def test_load_manifest_with_labels_and_comments(self, tmp_path):
        names = self.make_images(tmp_path)
        text = f"# stack\n{names[0]} first slice\n\n{names[1]}\n{names[2]} last\n"
        mpath = tmp_path / "manifest.txt"
        mpath.write_text(text)
        manifest = load_manifest(mpath)
        assert [p.name for p in manifest.paths] == names
        assert manifest.labels == ("first slice", "", "last")
        stack = load_stack(manifest)
        assert stack.k == 3

    def test_missing_file_rejected(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("absent.pgm\nalso_absent.pgm\n")
        with pytest.raises(ConfigError, match="image file not found"):
            load_manifest(tmp_path / "manifest.txt")

    def test_single_image_rejected(self, tmp_path):
        names = self.make_images(tmp_path, n=1)
        (tmp_path / "manifest.txt").write_text(names[0] + "\n")
        with pytest.raises(ConfigError, match="need at least 2"):
            load_manifest(tmp_path / "manifest.txt")


class TestConfig:
    def test_defaults_from_empty(self):
        cfg = parse_config("")
        assert cfg == RunConfig()

    def test_full_parse(self, tmp_path):
        text = """
        # solve setup
        manifest = stack/manifest.txt
        mode = sequential
        measure = ssd
        q = inf
        feature = intensity
        eta = 0.05
        eta_pt = 0.02
        jitter = 1e-9
        reg = elastic
        alpha = 0.5
        mu = 2.0
        lam = 0.25
        constraint = fix_first
        levels = 2
        maxiter = 13
        gtol = 1e-7
        sweeps = 3
        max_fevals = 900
        seed = 42
        out = results
        """
        cfg = parse_config(text, base_dir=tmp_path)
        assert cfg.manifest == str((tmp_path / "stack/manifest.txt").resolve())
        assert cfg.mode == "sequential"
        assert cfg.measure == "ssd"
        assert cfg.q == math.inf
        assert cfg.feature == "intensity"
        assert (cfg.eta, cfg.eta_pt, cfg.jitter) == (0.05, 0.02, 1e-9)
        assert cfg.reg == "elastic"
        assert (cfg.alpha, cfg.mu, cfg.lam) == (0.5, 2.0, 0.25)
        assert cfg.constraint == "fix_first"
        assert (cfg.levels, cfg.maxiter, cfg.sweeps) == (2, 13, 3)
        assert cfg.gtol == 1e-7
        assert cfg.max_fevals == 900
        assert cfg.seed == 42
        assert cfg.out == "results"
        # ``q`` is parsed by ``float``, which takes every spelling of infinity
        for spelling in ("Infinity", "INF"):
            assert parse_config(f"q = {spelling}").q == math.inf

    def test_unknown_key_fails_fast(self):
        with pytest.raises(ConfigError, match="unknown config key 'alpa'"):
            parse_config("alpa = 0.1")

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_removed_deterministic_key_named(self, value):
        with pytest.raises(ConfigError, match="line 2: unknown config key 'deterministic'"):
            parse_config(f"alpha = 0.1\ndeterministic = {value}")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate config key"):
            parse_config("alpha = 0.1\nalpha = 0.2")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: bad value for levels"):
            parse_config("alpha = 0.1\nlevels = two")

    def test_bad_choice_listed(self):
        with pytest.raises(ConfigError, match="expected one of"):
            parse_config("measure = mutual_information")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("just some words")

    def test_load_config_resolves_manifest(self, tmp_path):
        (tmp_path / "cfg.txt").write_text("manifest = m.txt\n")
        cfg = load_config(tmp_path / "cfg.txt")
        assert cfg.manifest == str((tmp_path / "m.txt").resolve())


class TestMetricsCsv:
    def make_report(self):
        records = [
            IterRecord(0, -1, 0, 0.1 + 0.2, math.pi, 0.0, True, 1, 1, 0.0123),
            IterRecord(0, -1, 1, -1.5e-17, 2.0 / 3.0, 1.0, True, 3, 3, 0.5),
            IterRecord(1, 2, 0, 1e308, 5e-324, 0.25, False, 9, 9, 1.75),
        ]
        trace0 = LevelTrace(0, records=records[:2])
        trace1 = LevelTrace(1, records=records[2:])
        return SolveReport(
            traces=[trace0, trace1],
            fields=[],
            fevals=9,
            gevals=9,
            elapsed=1.75,
            line_search_failures=0,
        )

    def test_round_trip_exact(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "metrics.csv"
        metrics_csv(report, path)
        back = load_metrics_csv(path)
        assert back == list(report.all_records())

    @pytest.mark.parametrize(
        "text",
        [
            "a,b,c\n1,2,3\n",
            # the header before the subgradient column was dropped
            "level,component,iteration,value,grad_norm,step,wolfe_ok,subgradient,fevals,gevals,"
            "elapsed\n0,-1,0,1.0,1.0,0.0,1,0,1,1,0.5\n",
        ],
        ids=["foreign", "old"],
    )
    def test_header_checked(self, tmp_path, text):
        path = tmp_path / "metrics.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match="unexpected metrics CSV header"):
            load_metrics_csv(path)

    GOLDEN = (
        "level,component,iteration,value,grad_norm,step,wolfe_ok,fevals,gevals,elapsed\r\n"
        "0,-1,0,0.30000000000000004,3.141592653589793,0.0,1,1,1,0.0123\r\n"
        "0,-1,1,-1.5e-17,0.6666666666666666,1.0,1,3,3,0.5\r\n"
        "1,2,0,1e+308,5e-324,0.25,0,9,9,1.75\r\n"
    )

    def test_golden_bytes(self, tmp_path):
        report = self.make_report()
        written = tmp_path / "metrics.csv"
        metrics_csv(report, written)
        assert written.read_bytes() == self.GOLDEN.encode()
        golden = tmp_path / "golden.csv"
        golden.write_bytes(self.GOLDEN.encode())
        assert load_metrics_csv(golden) == list(report.all_records())

    def test_row_length_checked(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text(self.GOLDEN.splitlines()[0] + "\n0,-1,0,1.0\n")
        with pytest.raises(FormatError, match="metrics CSV row has 4 fields"):
            load_metrics_csv(path)

    @pytest.mark.parametrize(
        "row,column",
        [
            ("x,-1,0,1.0,1.0,0.0,1,1,1,0.5", "level"),
            ("0,-1,0,one,1.0,0.0,1,1,1,0.5", "value"),
            ("0,-1,0,1.0,1.0,0.0,7,1,1,0.5", "wolfe_ok"),
            ("0,-1,0,1.0,1.0,0.0,true,1,1,0.5", "wolfe_ok"),
            ("0,-1,0,1.0,1.0,0.0,1,1,1.5,0.5", "gevals"),
        ],
    )
    def test_bad_cell_named(self, tmp_path, row, column):
        # a cell that does not parse used to raise a bare ValueError, and
        # any integer in a bool column loaded, 7 as True
        path = tmp_path / "metrics.csv"
        path.write_text(self.GOLDEN.splitlines()[0] + "\n" + row + "\n")
        with pytest.raises(FormatError, match=f"metrics CSV line 2, column {column}: bad value"):
            load_metrics_csv(path)
