"""End-to-end command-line checks (driving main() in-process)."""

import numpy as np
import pytest

from sqnreg import cli
from sqnreg.cli import main
from sqnreg.fileio import (
    RunConfig,
    load_config,
    load_field,
    load_manifest,
    load_metrics_csv,
    load_pgm,
    load_stack,
)
from sqnreg.optimize import multilevel_solve, objective


def run_synth(tmp_path, extra=()):
    out = tmp_path / "data"
    code = main(
        [
            "synth",
            "--out",
            str(out),
            "--seed",
            "3",
            "--kind",
            "shifted_disks",
            "--k",
            "3",
            "--dims",
            "16x16",
            "--magnitude",
            "1.5,0.5",
            *extra,
        ]
    )
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_stack_and_truth(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        for i in range(3):
            img = load_pgm(out / f"image_{i:03d}.pgm")
            assert img.grid.dims == (16, 16)
            field = load_field(out / f"truth_{i:03d}.sqnfield")
            assert field.u[0, 0, 0] == pytest.approx(i * 1.5)
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest == [f"image_{i:03d}.pgm" for i in range(3)]
        assert "wrote 3 shifted_disks images" in capsys.readouterr().out

    def test_rerun_is_bit_identical(self, tmp_path):
        out1 = run_synth(tmp_path / "a")
        out2 = run_synth(tmp_path / "b")
        for i in range(3):
            name = f"image_{i:03d}.pgm"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("args", [
        ["--kind", "nonsense"],
        ["--dims", "6ax64"],
        ["--magnitude", "1,b"],
        # the default magnitude "3,0" is a pair, which only shifts take
        ["--kind", "rotated_shepp_like"],
        ["--kind", "intensity_perturbed"],
    ], ids=["kind", "dims", "magnitude", "rotated_pair", "intensity_pair"])
    def test_unknown_kind_fails_with_category(self, tmp_path, capsys, args):
        code = main(["synth", "--out", str(tmp_path / "x"), *args])
        assert code == 2
        assert "error[config]" in capsys.readouterr().err


class TestRegisterCommand:
    def write_config(self, tmp_path, data_dir, **overrides):
        values = {
            "manifest": str(data_dir / "manifest.txt"),
            "measure": "sqn",
            "q": "4.0",
            "feature": "intensity",
            "reg": "diffusion",
            "alpha": "0.01",
            "levels": "1",
            "maxiter": "8",
            "gtol": "1e-6",
            "out": str(tmp_path / "results"),
        }
        values.update(overrides)
        cfg = tmp_path / "run.txt"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        return cfg

    def test_full_run_outputs(self, tmp_path, capsys, monkeypatch):
        reports = []

        def solve(*args, **kwargs):
            reports.append(multilevel_solve(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "multilevel_solve", solve)
        data = run_synth(tmp_path)
        cfg = self.write_config(tmp_path, data)
        code = main(["register", "--config", str(cfg)])
        assert code == 0
        results = tmp_path / "results"
        records = load_metrics_csv(results / "metrics.csv")
        assert len(records) >= 2
        assert records[-1].value < records[0].value
        for i in range(3):
            field = load_field(results / f"field_{i:03d}.sqnfield")
            assert field.grid.dims == (16, 16)
            load_pgm(results / f"warped_{i:03d}.pgm")
        load_pgm(results / "cut_initial.pgm")
        load_pgm(results / "cut_final.pgm")
        summary = capsys.readouterr().out
        assert "registered 3 images" in summary
        (report,) = reports
        # a groupwise solve's last record is J at the written fields
        assert f" J={report.final_value!r} " in summary
        # every count, in this order, between J and the elapsed time
        counts = " ".join(
            f"{key}={getattr(report, key)}"
            for key in ("fevals", "gevals", "line_search_failures", "rejected_trials",
                        "metric_solves", "metric_solves_capped", "metric_iterations")
        )
        assert f" J={report.final_value!r} {counts} elapsed=" in summary

    def test_sequential_run(self, tmp_path):
        data = run_synth(tmp_path)
        cfg = self.write_config(
            tmp_path, data, measure="ssd", mode="sequential", maxiter="6", sweeps="1"
        )
        assert main(["register", "--config", str(cfg)]) == 0
        field0 = load_field(tmp_path / "results" / "field_000.sqnfield")
        assert np.all(field0.u == 0.0)

    def test_sequential_run_reports_stack_objective(self, tmp_path, capsys):
        # the last record of a sequential solve is a one-field objective; the
        # summary reports J of the whole chain at the written fields
        data = run_synth(tmp_path)
        cfg = self.write_config(
            tmp_path, data, measure="ssd", mode="sequential", maxiter="6", sweeps="1"
        )
        assert main(["register", "--config", str(cfg)]) == 0
        summary = capsys.readouterr().out
        printed = float(summary.split(" J=")[1].split()[0])
        run = load_config(cfg)
        stack = load_stack(load_manifest(run.manifest))
        results = tmp_path / "results"
        fields = [load_field(results / f"field_{i:03d}.sqnfield") for i in range(stack.k)]
        assert printed == objective(cli.build_spec(run), stack, fields)[0]

    def test_missing_config_flag(self, capsys):
        assert main(["register"]) == 2
        assert "error[config]" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("regularizer = diffusion\n")
        assert main(["register", "--config", str(cfg)]) == 2
        assert "error[config]: line 1: unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value", [("max_fevals", "0"), ("max_fevals", "-3"), ("gtol", "nan"), ("gtol", "-1")]
    )
    def test_solver_setting_out_of_range(self, tmp_path, capsys, key, value):
        data = run_synth(tmp_path)
        cfg = self.write_config(tmp_path, data, **{key: value})
        assert main(["register", "--config", str(cfg)]) == 2
        assert f"error[config]: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_missing_image_file(self, tmp_path, capsys):
        (tmp_path / "manifest.txt").write_text("a.pgm\nb.pgm\n")
        cfg = self.write_config(tmp_path, tmp_path)
        assert main(["register", "--config", str(cfg)]) == 2
        assert "error[config]: image file not found" in capsys.readouterr().err

    def test_corrupt_pgm_reports_format_error(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        (data / "image_001.pgm").write_bytes(b"P5\n5 5\n255\nshort")
        cfg = self.write_config(tmp_path, data)
        assert main(["register", "--config", str(cfg)]) == 2
        assert "error[format]: truncated PGM payload" in capsys.readouterr().err

    def test_out_flag_overrides_config(self, tmp_path):
        data = run_synth(tmp_path)
        cfg = self.write_config(tmp_path, data, maxiter="2")
        override = tmp_path / "elsewhere"
        assert main(["register", "--config", str(cfg), "--out", str(override)]) == 0
        assert (override / "metrics.csv").is_file()


@pytest.mark.slow
class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        assert main(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck OK" in out

    def test_pairwise_measure(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("measure = ssd\nreg = elastic\n")
        assert main(["gradcheck", "--config", str(cfg), "--seed", "2"]) == 0
        assert "measure=ssd" in capsys.readouterr().out

    def test_corr_dev_with_default_exponent(self, tmp_path, capsys):
        # the default q = 4 belongs to sqn; corr_dev has no exponent to read
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("measure = corr_dev\n")
        assert main(["gradcheck", "--config", str(cfg), "--seed", "3"]) == 0
        assert "gradcheck OK: measure=corr_dev" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text,line", [("measure = corr_dev\nq = 3\n", 2), ("q = 3\nmeasure = corr_dev\n", 1)]
)
def test_exponent_with_corr_dev_is_a_config_error(tmp_path, capsys, text, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    assert main(["gradcheck", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error[config]: line {line}: config key 'q' does not apply to measure = corr_dev" in err


class TestViewCommand:
    def test_writes_cut(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        out = tmp_path / "cut.pgm"
        code = main(
            ["view", "--manifest", str(data / "manifest.txt"), "--out", str(out)]
        )
        assert code == 0
        cut = load_pgm(out)
        assert cut.grid.dims == (3, 16)

    def test_position_out_of_range(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        code = main(
            [
                "view",
                "--manifest",
                str(data / "manifest.txt"),
                "--axis",
                "2",
                "--position",
                "99",
            ]
        )
        assert code == 2
        assert "error[format]" in capsys.readouterr().err


class TestUnreadFlagsRejected:
    """Each subcommand accepts only the flags it reads; argparse exits with 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["register", "--config", "run.cfg", "--seed", "1"],
            ["register", "--config", "run.cfg", "--deterministic"],
            ["synth", "--config", "run.cfg"],
            ["synth", "--deterministic"],
            ["gradcheck", "--out", "x"],
            ["gradcheck", "--deterministic"],
            ["view", "--manifest", "m.txt", "--config", "x"],
            ["view", "--manifest", "m.txt", "--seed", "1"],
        ],
    )
    def test_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("jitter", ["auto", 1e-6])
def test_logdet_config_passes_its_jitter_through(jitter):
    measure = cli.build_measure(RunConfig(measure="logdet", jitter=jitter))
    assert measure.jitter == jitter
