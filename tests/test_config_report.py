"""Config parsing, validation diagnostics, and report serialization."""

import json
import math

import numpy as np
import pytest

from fockgraph import ConfigError, VerificationReport, parse_config, render_csv, render_json
from fockgraph.config import config_from_dict, default_config, default_suite, dft_matrix
from fockgraph.report import emit_report


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def minimal_config(**overrides):
    data = {"experiment": "gs"}
    data.update(overrides)
    return data


class TestParseConfig:
    def test_bundled_default_config_parses(self):
        cfg = parse_config("configs/default.json")
        assert cfg.experiment == "gs"
        assert cfg.n == 2
        assert cfg.cutoff == 16
        assert np.abs(cfg.phi - dft_matrix(2)).max() < 1e-12

    def test_dft_matrix_is_bitwise_the_meshgrid_form(self):
        # The broadcast index grids take the same elementwise steps as the meshgrid form they replace.
        for n in range(1, 91):
            j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
            assert dft_matrix(n).tobytes() == (np.exp(-2j * math.pi * j * k / n) / math.sqrt(n)).tobytes()

    def test_missing_experiment_field(self, tmp_path):
        path = write_config(tmp_path, {"cutoff": 8})
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(path)

    def test_non_unitary_phi(self, tmp_path):
        data = minimal_config(phi=[[1, 0], [0, 0], [0, 0], [0, 0]])
        with pytest.raises(ConfigError, match="phi not unitary"):
            parse_config(write_config(tmp_path, data))

    def test_malformed_complex_entry(self, tmp_path):
        data = minimal_config(phi=[[1, 0], [0, 0], [0, 0], "one"])
        with pytest.raises(ConfigError, match="malformed complex entry"):
            parse_config(write_config(tmp_path, data))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.json")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            config_from_dict({"experiment": "teleport"})

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            config_from_dict(minimal_config(radial="yes"))

    def test_cutoff_floor(self):
        with pytest.raises(ConfigError, match="cutoff"):
            config_from_dict(minimal_config(cutoff=3))

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ConfigError, match="tolerance"):
            config_from_dict(minimal_config(tolerance=0.0))

    def test_trusted_block_bounded_by_cutoff(self):
        with pytest.raises(ConfigError, match="trusted_block"):
            config_from_dict(minimal_config(cutoff=8, trusted_block=9))

    def test_generator_params_schema(self):
        cfg = config_from_dict(
            minimal_config(
                experiment="anticlique",
                generator_params=[{"R": [0.5], "Theta": [1.0]}],
                anticlique_params={"X": [0.4], "Gamma": [0.2]},
            )
        )
        assert len(cfg.generator_params) == 1
        assert cfg.anticlique_params.radii[0] == 0.4
        with pytest.raises(ConfigError, match="generator_params"):
            config_from_dict(minimal_config(generator_params=[{"R": [0.5]}]))
        with pytest.raises(ConfigError, match="anticlique_params"):
            config_from_dict(minimal_config(anticlique_params={"X": [0.4]}))

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            config_from_dict(minimal_config(anticlique_params={"X": [-0.4], "Gamma": [0.2]}))

    def test_defaults_fill_in(self):
        cfg = config_from_dict({"experiment": "resolution"})
        assert cfg.n == 2
        assert cfg.cutoff == 16
        assert cfg.radial_order == 9
        assert cfg.angular_order == 17
        assert cfg.seed == 42
        assert cfg.trusted_block == 8
        assert cfg.cutoff_ladder is None

    def test_convergence_gets_ladder(self):
        cfg = config_from_dict({"experiment": "convergence"})
        assert cfg.cutoff_ladder == (12, 16, 20)
        with pytest.raises(ConfigError, match="cutoff_ladder"):
            config_from_dict({"experiment": "convergence", "cutoff_ladder": []})

    @pytest.mark.parametrize(
        "data, block",
        [
            ({}, 6),
            ({"cutoff_ladder": [4, 12]}, 2),
            ({"cutoff_ladder": [4]}, 2),
            ({"cutoff_ladder": [8, 16, 32, 64]}, 4),
            ({"cutoff_ladder": [20, 40]}, 8),
            ({"cutoff": 4, "cutoff_ladder": [16, 20]}, 8),
            ({"cutoff": 4, "trusted_block": 6, "cutoff_ladder": [8, 12]}, 6),
        ],
    )
    def test_convergence_block_follows_the_ladder(self, data, block):
        # convergence runs at its ladder's cutoffs, never at `cutoff`: the first, the smallest, bounds its block.
        assert config_from_dict({"experiment": "convergence", **data}).trusted_block == block

    @pytest.mark.parametrize(
        "data, rule",
        [
            ({}, (14, 27)),
            ({"cutoff": 4, "cutoff_ladder": [16, 20]}, (15, 29)),
            ({"cutoff_ladder": [4, 12]}, (8, 15)),
            ({"cutoff": 40, "cutoff_ladder": [8, 16]}, (11, 21)),
            ({"cutoff_ladder": [8, 63]}, (34, 68)),
            ({"cutoff_ladder": [8, 16, 32, 64]}, (35, 69)),
            ({"cutoff": 200000, "radial_order": 8}, (8, 27)),
            ({"cutoff_ladder": [16, 20], "radial_order": 9, "angular_order": 7}, (9, 7)),
        ],
    )
    def test_convergence_rule_follows_the_ladder(self, data, rule):
        # The default rule is exact_rule(t + the ladder's last entry): the seed, kept up to the largest cutoff
        # convergence runs at, displaces into the trusted rows 0..t.
        cfg = config_from_dict({"experiment": "convergence", **data})
        assert (cfg.radial_order, cfg.angular_order) == rule

    def test_overrides_apply_before_defaults(self, tmp_path):
        path = write_config(tmp_path, minimal_config(cutoff=8))
        cfg = parse_config(path, overrides={"cutoff": 12, "seed": 7})
        assert cfg.cutoff == 12
        assert cfg.radial_order == 7
        assert cfg.seed == 7

    def test_default_suite_composition(self):
        suite = default_suite()
        assert [cfg.experiment for cfg in suite] == [
            "gs",
            "covariant_gs",
            "projection",
            "resolution",
            "anticlique",
        ]

    def test_echo_round_trips_schema(self):
        cfg = default_config("projection")
        echo = cfg.echo()
        rebuilt = config_from_dict({k: v for k, v in echo.items() if v is not None})
        assert rebuilt.echo() == echo


def sample_report(**overrides):
    values = dict(
        experiment="gs",
        parameters={"cutoff": 8, "seed": 42},
        max_abs_deviation=1.2345678901234e-13,
        frobenius_deviation=4.5e-14,
        scalar_measured=None,
        scalar_predicted=None,
        trusted_block=8,
        passed=True,
        tolerance=1e-12,
        runtime_ms=17,
    )
    values.update(overrides)
    return VerificationReport(**values)


class TestReportSerialization:
    def test_json_key_order(self):
        text = render_json(sample_report())
        data = json.loads(text)
        assert list(data.keys()) == [
            "experiment",
            "parameters",
            "max_abs_deviation",
            "frobenius_deviation",
            "scalar_measured",
            "scalar_predicted",
            "trusted_block",
            "pass",
            "tolerance",
            "runtime_ms",
            "tool_version",
        ]

    def test_json_round_trip_is_lossless(self):
        report = sample_report()
        data = json.loads(render_json(report))
        assert data["max_abs_deviation"] == report.max_abs_deviation
        assert data["frobenius_deviation"] == report.frobenius_deviation
        assert data["tolerance"] == report.tolerance
        assert data["pass"] is True

    def test_rejects_non_finite_deviations(self):
        with pytest.raises(ValueError, match="not finite"):
            sample_report(max_abs_deviation=math.nan)

    def test_csv_ladder_has_header_plus_rows(self):
        ladder = [
            {"cutoff": c, "max_abs_deviation": d, "frobenius_deviation": d / 2, "pass": True}
            for c, d in ((12, 1e-6), (16, 1e-8), (20, 1e-10))
        ]
        report = sample_report(experiment="convergence", ladder=ladder)
        lines = render_csv(report).strip().split("\n")
        assert len(lines) == 4
        assert lines[0] == "cutoff,max_abs_deviation,frobenius_deviation,pass"
        assert lines[1] == "12,1.000000000000e-06,5.000000000000e-07,true"

    def test_csv_scientific_notation_has_13_significant_digits(self):
        report = sample_report()
        row = render_csv(report).strip().split("\n")[1]
        mantissa = row.split(",")[1].split("e")[0]
        assert len(mantissa.replace(".", "").replace("-", "")) == 13

    def test_emit_json_and_csv(self, tmp_path):
        report = sample_report()
        json_path = tmp_path / "report.json"
        emit_report(report, json_path, "json")
        assert json.loads(json_path.read_text())["experiment"] == "gs"
        csv_path = tmp_path / "report.csv"
        emit_report(report, csv_path, "csv")
        assert csv_path.read_text().startswith("cutoff,")

    def test_emit_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_report(sample_report(), tmp_path / "r.xml", "xml")

    def test_emit_reports_io_failure(self, tmp_path):
        with pytest.raises(OSError, match="cannot write"):
            emit_report(sample_report(), tmp_path / "absent" / "r.json", "json")
