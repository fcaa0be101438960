"""CLI behaviour: exit codes, report emission, determinism."""

import json
import re

import pytest

from fockgraph.cli import main


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def normalize_runtime(text):
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', text)


class TestSingleExperiments:
    def test_gs_passes_at_machine_precision(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"experiment": "gs", "cutoff": 8, "radial_order": 9, "angular_order": 18},
        )
        out = tmp_path / "report.json"
        code = main(["--config", str(config), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["max_abs_deviation"] <= 1e-12
        assert "gs: PASS" in capsys.readouterr().out

    def test_anticlique_self_compression(self, tmp_path):
        # Generator parameters equal to the anticlique parameters compress
        # to scalar 1; cutoff 28 puts the ladder-edge loss below 1e-8.
        config = write_config(
            tmp_path,
            {
                "experiment": "anticlique",
                "cutoff": 28,
                "generator_params": [{"R": [0.2], "Theta": [0.9]}],
                "anticlique_params": {"X": [0.2], "Gamma": [0.9]},
            },
        )
        out = tmp_path / "report.json"
        code = main(["--config", str(config), "--out", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["scalar_measured"] == pytest.approx(1.0, abs=1e-8)
        assert report["pass"] is True

    # At n=3 the default trusted block is cutoff // 3; cutoff // 2 would
    # reach the truncation edge (deviations near 1e-1).
    @pytest.mark.parametrize("experiment, cutoff, block", [("projection", 8, 2), ("resolution", 4, 1)])
    def test_three_mode_default_trusted_block(self, tmp_path, experiment, cutoff, block):
        config = write_config(tmp_path, {"experiment": experiment, "n": 3, "cutoff": cutoff})
        out = tmp_path / "report.json"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
        assert report["trusted_block"] == block
        assert report["max_abs_deviation"] <= 1e-13
        assert report["frobenius_deviation"] <= 1e-13

    def test_convergence_ladder_csv(self, tmp_path):
        config = write_config(
            tmp_path,
            {"experiment": "convergence", "cutoff_ladder": [12, 16, 20]},
        )
        out = tmp_path / "ladder.csv"
        code = main(["--config", str(config), "--out", str(out), "--format", "csv", "--quiet"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        devs = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))

    def test_convergence_json_passes(self, tmp_path):
        config = write_config(tmp_path, {"experiment": "convergence"})
        out = tmp_path / "ladder.json"
        code = main(["--config", str(config), "--out", str(out), "--quiet"])
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True


class TestExitCodes:
    def test_verification_failure_exits_one(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"experiment": "gs", "cutoff": 8, "tolerance": 1e-300},
        )
        out = tmp_path / "report.json"
        assert main(["--config", str(config), "--out", str(out)]) == 1
        assert json.loads(out.read_text())["pass"] is False
        assert "FAIL" in capsys.readouterr().out

    def test_config_error_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"cutoff": 8})
        assert main(["--config", str(path)]) == 2
        assert "experiment" in capsys.readouterr().err

    def test_non_unitary_phi_exits_two(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"experiment": "projection", "phi": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        )
        assert main(["--config", str(path)]) == 2
        assert "phi not unitary" in capsys.readouterr().err

    # 1e400 parses to infinity: in phi it makes the unitarity deviation NaN.
    @pytest.mark.parametrize(
        "text, argv, reason",
        [
            ('{"experiment": "gs", "tolerance": Infinity}', [], "non-finite number Infinity"),
            ('{"experiment": "projection", "phi": [[1e400, 0], [0, 0], [0, 0], [1, 0]]}', [], "phi not unitary"),
            ('{"experiment": "anticlique", "generator_params": [{"R": [1e400], "Theta": [0]}]}', [], "finite"),
            (None, ["--experiment", "gs", "--cutoff", "64"], "radial_order must be <= 64"),
        ],
        ids=["infinite-tolerance", "nan-phi-deviation", "infinite-radius", "radial-order-65"],
    )
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_malformed_numbers_exit_two(self, tmp_path, capsys, text, argv, reason):
        if text is not None:
            path = tmp_path / "config.json"
            path.write_text(text)
            argv = ["--config", str(path)]
        assert main([*argv, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert reason in err

    def test_unwritable_output_exits_three(self, tmp_path, capsys):
        config = write_config(tmp_path, {"experiment": "gs", "cutoff": 8})
        missing = tmp_path / "no_such_dir" / "report.json"
        assert main(["--config", str(config), "--out", str(missing)]) == 3
        assert "internal error" in capsys.readouterr().err


class TestFlags:
    def test_experiment_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path, {"experiment": "gs", "cutoff": 8})
        out = tmp_path / "report.json"
        code = main(
            ["--config", str(config), "--experiment", "projection", "--out", str(out), "--quiet"]
        )
        assert code == 0
        assert json.loads(out.read_text())["experiment"] == "projection"

    def test_cutoff_and_seed_flags(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["--experiment", "gs", "--cutoff", "12", "--seed", "7", "--out", str(out), "--quiet"]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["parameters"]["cutoff"] == 12
        assert report["parameters"]["radial_order"] == 13
        assert report["parameters"]["seed"] == 7

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        config = write_config(tmp_path, {"experiment": "gs", "cutoff": 8})
        main(["--config", str(config), "--quiet"])
        assert capsys.readouterr().out == ""

    def test_reports_print_to_stdout_without_out(self, tmp_path, capsys):
        config = write_config(tmp_path, {"experiment": "gs", "cutoff": 8})
        assert main(["--config", str(config)]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{") :]
        assert json.loads(payload)["experiment"] == "gs"


class TestDefaultSuite:
    def test_runs_five_experiments_and_passes(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        code = main(["--out", str(out), "--quiet"])
        assert code == 0
        names = ["gs", "covariant_gs", "projection", "resolution", "anticlique"]
        for name in names:
            report = json.loads((tmp_path / f"suite_{name}.json").read_text())
            assert report["pass"] is True, name
            assert report["parameters"]["seed"] == 42

    def test_deterministic_modulo_runtime(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["--experiment", "anticlique", "--out", str(first), "--quiet"]) == 0
        assert main(["--experiment", "anticlique", "--out", str(second), "--quiet"]) == 0
        assert normalize_runtime(first.read_text()) == normalize_runtime(second.read_text())
