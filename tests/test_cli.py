"""CLI behaviour: exit codes, report emission, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import fockgraph
from fockgraph.cli import main
from fockgraph.config import EXPERIMENTS, MAX_DIM, config_from_dict


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def normalize_runtime(text):
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', text)


def package_env():
    """The environment with this checkout's package first on PYTHONPATH, for subprocesses."""
    package_root = str(Path(fockgraph.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


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

    # gs compares the leading trusted_block + 1 rows of its rule operator.  The 5 x 34 rule
    # is exact up to occupation 9, so the block at 3 passes while the whole 17 x 17 operator,
    # the default block, fails.
    @pytest.mark.parametrize("block, code, deviation", [(3, 0, 0.0), (16, 1, 0.5183115874150104)])
    def test_gs_compares_its_trusted_block(self, tmp_path, block, code, deviation):
        data = {"experiment": "gs", "cutoff": 16, "radial_order": 5, "angular_order": 34, "trusted_block": block}
        out = tmp_path / "report.json"
        assert main(["--config", str(write_config(tmp_path, data)), "--out", str(out), "--quiet"]) == code
        report = json.loads(out.read_text())
        assert report["trusted_block"] == block
        assert abs(report["max_abs_deviation"] - deviation) <= 1e-14

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

    def test_anticlique_dim_4913_runs_in_bounded_memory(self, tmp_path):
        # The dense P A P at dim 4913 would hold 386 MB per matrix; the
        # ladder-Gram check keeps every array within max(CHUNK_ENTRIES,
        # dim * (cutoff+1)) entries (1.3 MB here).
        config = write_config(tmp_path, {"experiment": "anticlique", "n": 3, "cutoff": 16})
        out = tmp_path / "report.json"
        tracemalloc.start()
        try:
            code = main(["--config", str(config), "--out", str(out), "--quiet"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True
        assert peak < 64 * 2**20

    def test_covariant_gs_at_max_nodes_folds_to_one_node(self, tmp_path):
        # One radius and 2**20 angles, MAX_NODES: the fold evaluates one node
        # with 25 residue columns and builds nothing for the other angles, so
        # the run takes milliseconds.
        data = {"experiment": "covariant_gs", "radial_order": 1, "angular_order": 2**20}
        config = write_config(tmp_path, data)
        out = tmp_path / "report.json"
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(["--config", str(config), "--out", str(out), "--quiet"])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = json.loads(out.read_text())
        # One radius cannot resolve the integrand: a FAIL, not an error.
        assert code == 1 and report["pass"] is False
        assert report["experiment"] == "covariant_gs" and report["parameters"]["angular_order"] == 2**20
        assert math.isfinite(report["max_abs_deviation"]) and math.isfinite(report["frobenius_deviation"])
        assert elapsed < 1.0
        assert peak < 2**20

    # At n=3 the default trusted block is cutoff // 3; cutoff // 2 would
    # reach the truncation edge (deviations near 1e-1).  The n=4 cases run at
    # cutoff 4 (block 1), and n=5 at cutoff 5 (block 1), where the product
    # grid of four 6 x 12 rules once exceeded MAX_NODES; resolution reads one
    # rule operator per pair and builds only the trusted block.
    @pytest.mark.parametrize(
        "experiment, n, cutoff, block",
        [
            ("projection", 3, 8, 2),
            ("resolution", 3, 4, 1),
            ("projection", 4, 4, 1),
            ("resolution", 4, 4, 1),
            ("resolution", 5, 5, 1),
        ],
        ids=["projection-8-2", "resolution-4-1", "projection-n4-4-1", "resolution-n4-4-1", "resolution-n5-5-1"],
    )
    def test_three_mode_default_trusted_block(self, tmp_path, experiment, n, cutoff, block):
        config = write_config(tmp_path, {"experiment": experiment, "n": n, "cutoff": cutoff})
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

    def test_convergence_rule_is_exact_at_a_ladder_above_cutoff(self, tmp_path):
        # The default rule is exact at block 8 plus the ladder's last entry, 15 x 29, not at cutoff 4, whose
        # old default 5 x 10 FAILed the integral at cutoffs 16 and 20 at 0.1188.
        data = {"experiment": "convergence", "cutoff": 4, "cutoff_ladder": [16, 20]}
        out = tmp_path / "ladder.json"
        assert main(["--config", str(write_config(tmp_path, data)), "--out", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
        assert (report["parameters"]["radial_order"], report["parameters"]["angular_order"]) == (15, 29)
        assert report["max_abs_deviation"] <= 1e-14


class TestAliasingPins:
    """Under-resolved angular rules keep the deviations of the full node grid.

    Each angular count here is at or below a charge difference the verdict
    reads, so the equispaced rule aliases; the values are those of the
    node-by-node sum over every product node, to 1e-12.  The last three
    projection boxes reach past the grades instead: rows of total above the
    cutoff, where the integral has mass and P has none, decide the FAIL.
    """

    @pytest.mark.parametrize(
        "data, deviation",
        [
            ({"experiment": "gs", "cutoff": 16, "angular_order": 10}, 0.3252218177939952),
            ({"experiment": "resolution", "n": 2, "cutoff": 16, "angular_order": 12}, 0.06542968749999978),
            (
                {"experiment": "resolution", "n": 2, "cutoff": 16, "radial_order": 4, "angular_order": 6},
                0.33344029017857074,
            ),
            ({"experiment": "projection", "n": 2, "cutoff": 16, "radial_order": 17, "angular_order": 9}, 0.09765107460736858),
            ({"experiment": "projection", "n": 2, "cutoff": 16, "trusted_block": 9}, 0.18547058105468733),
            ({"experiment": "projection", "n": 2, "cutoff": 16, "trusted_block": 16}, 0.18547058105468733),
            ({"experiment": "projection", "n": 3, "cutoff": 8, "trusted_block": 3}, 0.08535284255448858),
        ],
    )
    def test_aliased_rule_fails_at_pinned_deviation(self, tmp_path, data, deviation):
        out = tmp_path / "report.json"
        assert main(["--config", str(write_config(tmp_path, data)), "--out", str(out), "--quiet"]) == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert abs(report["max_abs_deviation"] - deviation) <= 1e-12


class TestExitCodes:
    def test_large_trusted_block_reaches_a_verdict(self, tmp_path):
        # At cutoff 1200, L_n^(k)(1) passes the float range near n = k = 600
        # while sqrt(n!/(n+k)!) underflows; the kernel keeps every entry
        # finite, so the four-node rule ends in a FAIL, not an internal error.
        config = write_config(
            tmp_path,
            {"experiment": "covariant_gs", "cutoff": 1200, "radial_order": 1, "angular_order": 4, "trusted_block": 600},
        )
        out = tmp_path / "report.json"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert math.isfinite(report["max_abs_deviation"])
        assert math.isfinite(report["frobenius_deviation"])

    def test_anticlique_past_the_radial_bound_reaches_a_verdict(self, tmp_path):
        # anticlique reads no quadrature: its default radial_order stops at 64, where cutoff + 1 would not.
        out = tmp_path / "report.json"
        assert main(["--experiment", "anticlique", "--cutoff", "64", "--out", str(out), "--quiet"]) in (0, 1)
        report = json.loads(out.read_text())
        assert report["parameters"]["radial_order"] == 64
        assert math.isfinite(report["max_abs_deviation"])

    # Every finite radius reaches the check, where a point's Gaussian rounds to 0 and its factors are zero, and
    # no RuntimeWarning is printed on the way.  A generator there adds nothing: M = 0 and c = 0 against a
    # predicted 0, a PASS.  That is the outcome the check gave at 1.66e13 (the comparison set's far generator)
    # before these radii reached it; ROADMAP item 1 decides whether a generator the ladders cannot see should
    # pass.  An anticlique there leaves no ladder to measure against: a config error.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("radius", [1e20, 1e154, 1e155, 1e200, 1.7e308])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("point", ["generator", "anticlique"])
    def test_far_point_takes_the_outcome_of_its_zero_gaussian(self, tmp_path, capsys, point, n, radius):
        radii, phases = [radius] + [0.0] * (n - 2), [0.3] * (n - 1)
        data = {"experiment": "anticlique", "n": n, "cutoff": 8}
        if point == "generator":
            data["generator_params"] = [{"R": radii, "Theta": phases}]
        else:
            data["anticlique_params"] = {"X": radii, "Gamma": phases}
        out = tmp_path / "report.json"
        code = main(["--config", str(write_config(tmp_path, data)), "--out", str(out), "--quiet"])
        err = capsys.readouterr().err
        if point == "generator":
            assert (code, err) == (0, "")
            report = json.loads(out.read_text())
            fields = ("scalar_measured", "scalar_predicted", "max_abs_deviation", "frobenius_deviation")
            assert [report[key] for key in fields] == [0.0] * 4
        else:
            assert code == 2 and not out.exists()
            assert err.startswith(f"config error: anticlique at n {n}") and err.count("\n") == 1
            assert "cannot be checked" in err and f"radius {radius:.6g} underflows" in err

    @pytest.mark.parametrize("n, radii", [(2, [30.0]), (3, [25.0, 3.0])], ids=["n2-X30", "n3-X25-3"])
    def test_anticlique_ladder_underflow_cannot_be_checked(self, tmp_path, capsys, n, radii):
        # Far out, exp(-|h|^2/2) underflows the trusted rows of the anticlique ladder at cutoff 8:
        # there is nothing to compare, so it is a config error, neither a PASS nor a FAIL.
        point = {"X": radii, "Gamma": [0.3] * (n - 1)}
        config = write_config(tmp_path, {"experiment": "anticlique", "n": n, "cutoff": 8, "anticlique_params": point})
        out = tmp_path / "report.json"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: anticlique at n") and "cannot be checked" in err
        assert f"radius {math.hypot(*radii):.6g}" in err
        assert not out.exists()

    @pytest.mark.parametrize("radius", [1e3, 1e6])
    @pytest.mark.parametrize("n, cutoff", [(3, 8), (4, 6)])
    def test_anticlique_past_its_gaussian_cannot_be_checked(self, tmp_path, capsys, n, cutoff, radius):
        # exp(-|h|^2/2) rounds to 0, so the per-mode factors of the point are zero, not the kernel's
        # inf * 0 = NaN past a per-mode amplitude of about 40: the ladder underflows, a config error.
        point = {"X": [radius] + [0.0] * (n - 2), "Gamma": [0.3] * (n - 1)}
        config = write_config(tmp_path, {"experiment": "anticlique", "n": n, "cutoff": cutoff, "anticlique_params": point})
        out = tmp_path / "report.json"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: anticlique at n {n}") and "cannot be checked" in err
        assert not out.exists()

    @pytest.mark.parametrize("n, cutoff", [(3, 8), (4, 6)])
    def test_generator_past_its_gaussian_adds_nothing(self, tmp_path, n, cutoff):
        # Its Gram is exactly 0: M = 0 and c = 0 against a predicted 0.
        point = {"R": [1e3] + [0.0] * (n - 2), "Theta": [0.3] * (n - 1)}
        config = write_config(tmp_path, {"experiment": "anticlique", "n": n, "cutoff": cutoff, "generator_params": [point]})
        out = tmp_path / "report.json"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
        fields = ("max_abs_deviation", "frobenius_deviation", "scalar_measured", "scalar_predicted")
        assert report["pass"] is True and [report[key] for key in fields] == [0.0] * 4

    def test_anticlique_far_but_representable_keeps_its_fail(self, tmp_path):
        # At radius 20 the ladder is tiny but still has a scale: the verdict stays a finite FAIL.
        point = {"X": [20.0], "Gamma": [0.3]}
        config = write_config(tmp_path, {"experiment": "anticlique", "n": 2, "cutoff": 8, "anticlique_params": point})
        out = tmp_path / "report.json"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert all(math.isfinite(report[key]) for key in ("max_abs_deviation", "frobenius_deviation", "scalar_measured"))

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

    # An entry of 1e200 overflows phi^dag phi to inf and NaN: the deviation is not finite, a config error, and
    # no RuntimeWarning is printed on the way.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "data",
        [
            {"experiment": "projection", "phi": [[1, 0], [0, 0], [0, 0], [0, 0]]},
            {"experiment": "anticlique", "n": 2, "phi": [[1e200, 0], [0, 0], [0, 0], [1, 0]]},
        ],
        ids=["rank-one", "entry-1e200"],
    )
    def test_non_unitary_phi_exits_two(self, tmp_path, capsys, data):
        path = write_config(tmp_path, data)
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "phi not unitary" in err
        assert err.startswith("config error:") and err.count("\n") == 1

    # 1e400 parses to infinity: in phi it makes the unitarity deviation NaN.
    @pytest.mark.parametrize(
        "text, argv, reason",
        [
            ('{"experiment": "gs", "tolerance": Infinity}', [], "non-finite number Infinity"),
            ('{"experiment": "projection", "phi": [[1e400, 0], [0, 0], [0, 0], [1, 0]]}', [], "phi not unitary"),
            ('{"experiment": "anticlique", "generator_params": [{"R": [1e400], "Theta": [0]}]}', [], "finite"),
            (None, ["--experiment", "gs", "--cutoff", "128"], "needs radial_order 65"),
            ('{"experiment": "anticlique", "cutoff": 64, "radial_order": 65}', [], "radial_order must be <= 64"),
        ],
        ids=[
            "infinite-tolerance",
            "nan-phi-deviation",
            "infinite-radius",
            "radial-order-65",
            "anticlique-radial-order-65",
        ],
    )
    def test_malformed_numbers_exit_two(self, tmp_path, capsys, text, argv, reason):
        if text is not None:
            path = tmp_path / "config.json"
            path.write_text(text)
            argv = ["--config", str(path)]
        assert main([*argv, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert reason in err

    @pytest.mark.parametrize("ladder", [[20, 16, 12], [16, 12], [12, 16, 16]])
    def test_cutoff_ladder_must_increase_strictly(self, tmp_path, capsys, ladder):
        # Out of order, the non-increasing deviation check would FAIL a sound integral: a config error instead.
        path = write_config(tmp_path, {"experiment": "convergence", "cutoff_ladder": ladder})
        assert main(["--config", str(path), "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: cutoff_ladder {ladder} must be strictly increasing\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1]", "config {path} must be a JSON object"),
            ('{"experiment": "projection", "n": 1}', "experiment 'projection' needs n >= 2, got 1"),
        ],
        ids=["not-an-object", "projection-one-mode"],
    )
    def test_config_input_checks(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["--config", str(path), "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"

    @pytest.mark.parametrize(
        "data, entry, block",
        [
            ({"trusted_block": 8, "cutoff_ladder": [4, 12]}, 4, 8),
            ({"cutoff": 20, "trusted_block": 10, "cutoff_ladder": [8, 9, 16]}, 8, 10),
        ],
    )
    def test_cutoff_ladder_below_the_trusted_block_names_both(self, tmp_path, capsys, data, entry, block):
        path = write_config(tmp_path, {"experiment": "convergence", **data})
        assert main(["--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: cutoff_ladder entry {entry} is below trusted_block = {block}\n"

    # The default rule is exact_rule(span), which passes MAX_RADIAL_ORDER = 64 only from span 128 on; the message
    # names that span, where the config never set radial_order.
    @pytest.mark.parametrize(
        "data",
        [
            {"experiment": "gs", "cutoff": 128},
            {"experiment": "projection", "cutoff": 64, "trusted_block": 64},
            {"experiment": "resolution", "cutoff": 64, "trusted_block": 64},
            {"experiment": "covariant_gs", "cutoff": 120},
            {"experiment": "convergence", "cutoff_ladder": [8, 124]},
        ],
        ids=["gs", "projection", "resolution", "covariant_gs", "convergence"],
    )
    def test_derived_rule_names_its_span(self, tmp_path, capsys, data):
        out = tmp_path / "report.json"
        assert main(["--config", str(write_config(tmp_path, data)), "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "config error: the default rule exact at span 128 needs radial_order 65, past MAX_RADIAL_ORDER = 64\n"
        )
        assert not out.exists()
        path = write_config(tmp_path, {**data, "radial_order": 65})
        assert main(["--config", str(path), "--quiet"]) == 2
        assert capsys.readouterr().err == "config error: radial_order must be <= 64, got 65\n"

    # One span fewer, and at cutoff 64 or a ladder up to 64, where cutoff + 1 used to pass the bound, the
    # default rule fits.
    @pytest.mark.parametrize(
        "data, rule",
        [
            ({"experiment": "gs", "cutoff": 127}, (64, 128)),
            ({"experiment": "gs", "cutoff": 64}, (33, 65)),
            ({"experiment": "projection", "cutoff": 64}, (33, 65)),
            ({"experiment": "resolution", "cutoff": 64}, (33, 65)),
            ({"experiment": "covariant_gs", "cutoff": 64}, (37, 73)),
            ({"experiment": "convergence", "cutoff_ladder": [8, 16, 32, 64]}, (35, 69)),
            ({"experiment": "convergence", "cutoff_ladder": [8, 123]}, (64, 128)),
        ],
    )
    def test_derived_rule_fits_below_span_128(self, data, rule):
        cfg = config_from_dict(data)
        assert (cfg.radial_order, cfg.angular_order) == rule

    # Each of these asks for more than MAX_DIM = 8192 rows or MAX_NODES =
    # 1048576 quadrature nodes; the guard rejects them before any array or
    # scheme is built, n = 10**9 and angular_order = 10**18 included.
    @pytest.mark.parametrize(
        "data, reason, limit",
        [
            ({"experiment": "projection", "n": 4}, "4-mode space at cutoff 16", "MAX_DIM = 8192"),
            ({"experiment": "gs", "cutoff": 9000, "radial_order": 8}, "space at cutoff 9000", "MAX_DIM = 8192"),
            ({"experiment": "gs", "cutoff": 8192, "radial_order": 8}, "space at cutoff 8192", "MAX_DIM = 8192"),
            (
                {"experiment": "convergence", "cutoff_ladder": [12, 9000]},
                "cutoff_ladder entry 9000",
                "MAX_DIM = 8192",
            ),
            ({"experiment": "gs", "n": 10**9}, "phi", "MAX_DIM = 8192"),
            ({"experiment": "gs", "n": 8192}, "phi needs more than MAX_DIM = 8192 entries", "MAX_DIM = 8192"),
            ({"experiment": "convergence", "n": 91}, "phi needs more than MAX_DIM = 8192 entries", "MAX_DIM = 8192"),
            (
                {"experiment": "convergence", "radial_order": 8, "angular_order": 400002},
                "angular_order 400002",
                "MAX_NODES = 1048576",
            ),
            (
                {"experiment": "gs", "cutoff": 16, "angular_order": 3000000},
                "angular_order 3000000",
                "MAX_NODES = 1048576",
            ),
            ({"experiment": "gs", "angular_order": 10**18}, "gs quadrature", "MAX_NODES = 1048576"),
            (
                {"experiment": "resolution", "n": 3, "cutoff": 6, "angular_order": 2**20},
                "resolution quadrature at radial_order 4 x angular_order 1048576",
                "MAX_NODES = 1048576",
            ),
            (
                {"experiment": "anticlique", "generator_params": [{"R": [0.1], "Theta": [0.0]}] * (MAX_DIM + 1)},
                "generator_params needs more than MAX_DIM = 8192 entries",
                "MAX_DIM = 8192",
            ),
            # alpha^cutoff overflows at the rule's outermost radial node.
            (
                {"experiment": "covariant_gs", "cutoff": 280, "radial_order": 64, "angular_order": 16},
                "cutoff 280",
                "exceeds 260",
            ),
            (
                {"experiment": "covariant_gs", "cutoff": 480, "radial_order": 8, "angular_order": 16},
                "cutoff 480",
                "exceeds 453",
            ),
            ({"experiment": "convergence", "cutoff_ladder": [700], "radial_order": 17}, "cutoff 700", "exceeds 353"),
        ],
        ids=[
            "projection-n4",
            "gs-cutoff-9000",
            "gs-cutoff-8192",
            "convergence-ladder-9000",
            "gs-n-1e9",
            "gs-n-8192",
            "convergence-n-91",
            "convergence-angular-400002",
            "gs-angular-3e6",
            "gs-angular-1e18",
            "resolution-n3-angular-2e20",
            "anticlique-generators-8193",
            "covariant-cutoff-280-radial-64",
            "covariant-cutoff-480-radial-8",
            "convergence-ladder-700",
        ],
    )
    def test_oversized_config_exits_two(self, tmp_path, capsys, data, reason, limit):
        path = write_config(tmp_path, data)
        assert main(["--config", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert reason in err
        assert limit in err

    # Budget edges, parsed only: the gs case would build a 1 GiB matrix and
    # the resolution case works on 4913 rows.  The anticlique
    # n=3 case also runs, in bounded memory, in TestSingleExperiments.
    @pytest.mark.parametrize(
        "data",
        [
            {"experiment": "anticlique", "n": 3, "cutoff": 16},
            {"experiment": "gs", "cutoff": 8191, "radial_order": 8},
            {"experiment": "resolution", "n": 3, "cutoff": 16},
            {"experiment": "covariant_gs", "n": 90, "cutoff": 16},
            {"experiment": "anticlique", "cutoff": 16, "generator_params": [{"R": [0.1], "Theta": [0.0]}] * MAX_DIM},
        ],
        ids=[
            "anticlique-n3-dim-4913",
            "gs-dim-8192",
            "resolution-n3-dim-4913",
            "covariant-phi-8100",
            "anticlique-generators-8192",
        ],
    )
    def test_config_within_budget_parses(self, data):
        assert config_from_dict(data).cutoff == data["cutoff"]

    def test_unwritable_output_exits_three(self, tmp_path, capsys):
        config = write_config(tmp_path, {"experiment": "gs", "cutoff": 8})
        missing = tmp_path / "no_such_dir" / "report.json"
        assert main(["--config", str(config), "--out", str(missing)]) == 3
        assert "internal error" in capsys.readouterr().err


class TestDefaultsEveryN:
    # Every experiment at its defaults for n = 2..6 passes or is refused as a config error naming the limit it
    # hit (today MAX_DIM, for the graph experiments from n=4) or the span past it; never a FAIL and never an
    # internal error.  One that runs has a rule exact on its span, the highest grade of the rule operator its
    # verdict reads: 2Q - 1 >= span (the Gauss-Laguerre degree) and M > span (no aliased difference).
    @staticmethod
    def span(cfg):
        if cfg.experiment == "gs":
            return cfg.trusted_block
        if cfg.experiment in ("projection", "resolution"):
            return cfg.n * cfg.trusted_block
        return cfg.trusted_block + (cfg.cutoff if cfg.cutoff_ladder is None else max(cfg.cutoff_ladder))

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_defaults_pass_or_name_their_limit(self, tmp_path, capsys, n, experiment):
        data = {"experiment": experiment, "n": n}
        code = main(["--config", str(write_config(tmp_path, data)), "--quiet"])
        err = capsys.readouterr().err
        assert code in (0, 2)
        if code == 2:
            assert re.fullmatch(r"config error: .*(\b[A-Z][A-Z_]* = \d+|\bspan \d+).*\n", err)
        elif experiment != "anticlique":  # anticlique reads no rule
            cfg = config_from_dict(data)
            span = self.span(cfg)
            assert 2 * cfg.radial_order - 1 >= span and cfg.angular_order > span


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
        assert report["parameters"]["radial_order"] == 7
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


class TestClosedStdout:
    # The read end of the pipe is closed before the process starts, so its
    # first write to stdout fails with EPIPE, as under `verify | head -1`.
    @pytest.mark.parametrize(
        "argv, code",
        [(["--experiment", "gs"], 0), (["--experiment", "anticlique", "--seed", "3243419750"], 1)],
        ids=["gs-pass", "anticlique-fail"],
    )
    def test_keeps_verdict_exit_code(self, argv, code):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "fockgraph", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=package_env(),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.returncode == code
        assert result.stderr == ""


class TestWithoutScipy:
    # scipy is a test-only dependency: the package imports none of it.
    def test_import_loads_no_scipy(self):
        code = "import sys, fockgraph.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=package_env(), timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_default_suite_runs_with_scipy_blocked(self, tmp_path):
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from fockgraph.cli import main\n"
            "raise SystemExit(main(sys.argv[1:]))"
        )
        blocked = tmp_path / "blocked.json"
        result = subprocess.run(
            [sys.executable, "-c", code, "--out", str(blocked), "--quiet"],
            capture_output=True,
            text=True,
            env=package_env(),
            timeout=120,
        )
        assert result.returncode in (0, 1), result.stderr
        assert main(["--out", str(tmp_path / "here.json"), "--quiet"]) == result.returncode
        for name in ("gs", "covariant_gs", "projection", "resolution", "anticlique"):
            got = (tmp_path / f"blocked_{name}.json").read_text()
            assert normalize_runtime(got) == normalize_runtime((tmp_path / f"here_{name}.json").read_text())
