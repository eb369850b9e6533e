import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rdnet import cli, presets
from rdnet.geometry import Grid
from rdnet.model import Activation, SwitchedNetwork
from rdnet.schema import (SCHEMA_VERSION, SystemFileError, dump_system,
                          load_system, write_field_csv, write_report,
                          write_trajectory_csv)
from rdnet.simulator import Trajectory


def _write_benchmark(path, case=1, counts=(15, 15)):
    net = presets.switched_benchmark(case)
    grid = Grid(net.modes[0].domain, counts)
    path.write_text(json.dumps(dump_system(net, grid)))
    return net, grid


class TestSchema:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "sys.json"
        net, grid = _write_benchmark(f)
        loaded, loaded_grid = load_system(f)
        assert loaded_grid == grid
        assert loaded.N == net.N
        assert loaded.tau_max == net.tau_max
        for a, b in zip(loaded.modes, net.modes):
            np.testing.assert_array_equal(a.D, b.D)
            np.testing.assert_array_equal(a.A, b.A)
            np.testing.assert_array_equal(a.J, b.J)
        np.testing.assert_array_equal(loaded.Psi, net.Psi)
        assert loaded.activation.lipschitz == net.activation.lipschitz

    def test_mixed_activation_not_dumped(self):
        net = presets.switched_benchmark(1)
        mixed = Activation.per_neuron([("affine", {"a": 1.0, "b": 0.0}, 1.0),
                                       ("saturation", {}, 1.0)])
        net = SwitchedNetwork(net.modes, mixed, net.tau_max, net.Psi, net.q, net.gamma)
        with pytest.raises(ValueError, match="activation"):
            dump_system(net, Grid(net.modes[0].domain, (15, 15)))

    def test_malformed_json_reports_line(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{\n  broken\n}")
        with pytest.raises(SystemFileError, match=r"bad\.json:2"):
            load_system(f)

    def test_missing_schema_version(self, tmp_path):
        f = tmp_path / "nover.json"
        f.write_text("{}")
        with pytest.raises(SystemFileError, match="schema_version"):
            load_system(f)

    def test_unsupported_version(self, tmp_path):
        f = tmp_path / "v99.json"
        doc = dump_system(*(_write_benchmark(tmp_path / "ok.json")))
        doc["schema_version"] = SCHEMA_VERSION + 1
        f.write_text(json.dumps(doc))
        with pytest.raises(SystemFileError, match="unsupported"):
            load_system(f)

    def test_bad_matrix_dimensions(self, tmp_path):
        net, grid = _write_benchmark(tmp_path / "ok.json")
        doc = dump_system(net, grid)
        doc["modes"][0]["C"] = [[1.0]]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(SystemFileError):
            load_system(f)

    def test_report_serializes_numpy(self, tmp_path):
        out = tmp_path / "r.json"
        write_report(out, {"m": np.eye(2), "x": np.float64(1.5),
                           "nan": float("nan")})
        doc = json.loads(out.read_text())
        assert doc["m"] == [[1.0, 0.0], [0.0, 1.0]]
        assert doc["x"] == 1.5
        assert doc["nan"] is None

    def test_trajectory_csv_columns(self, tmp_path):
        traj = Trajectory(np.array([0.0, 0.1, 0.2]), np.array([4.0, 1.0, 0.25]),
                          np.array([0, 1, 1]), 1)
        out = tmp_path / "t.csv"
        write_trajectory_csv(out, traj)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,V,sqrtV,mode,switches_so_far"
        assert lines[1].split(",") == ["0", "4", "2", "0", "0"]
        assert lines[2].split(",")[3:] == ["1", "1"]

    def test_field_csv_1d(self, tmp_path):
        grid = Grid(presets.boundary_layer_mode().domain, (3,))
        out = tmp_path / "f.csv"
        write_field_csv(out, grid, np.array([[1.0, 2.0, 3.0]]))
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,component,value"
        assert lines[1] == "0.25,0,1"

    def test_field_csv_2d_bytes(self, tmp_path):
        grid = Grid(presets.switched_benchmark(1).modes[0].domain, (4, 5))
        field = np.random.default_rng(5).standard_normal((2, 4, 5))
        field[0, 1, 2] = -0.0
        field[1, 3, 4] = 1e-300
        out = tmp_path / "f.csv"
        write_field_csv(out, grid, field)
        axes = grid.axes()
        expected = "x,y,component,value\n"
        for comp in range(2):
            for i in range(4):
                for k in range(5):
                    expected += (f"{float(axes[0][i]):.17g},{float(axes[1][k]):.17g},"
                                 f"{comp},{float(field[comp, i, k]):.17g}\n")
        assert out.read_bytes() == expected.encode()

    def test_csv_bitwise_deterministic(self, tmp_path):
        net, grid = _write_benchmark(tmp_path / "s.json", counts=(9, 9))
        from rdnet.simulator import SimConfig, simulate
        phi = presets.switched_benchmark_initial(grid)
        config = SimConfig(dt=0.05, horizon=0.5, switching=True)
        for name in ("a.csv", "b.csv"):
            write_trajectory_csv(tmp_path / name, simulate(net, grid, config, phi))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestCliExitCodes:
    def test_certify_feasible_exit_0(self, tmp_path):
        f = tmp_path / "sys.json"
        _write_benchmark(f)
        code = cli.main(["--out", str(tmp_path), "certify", str(f),
                         "--beta", "0.5676", "0.3633", "0.0691",
                         "--gamma", "0.38"])
        assert code == 0
        report = json.loads((tmp_path / "certify_report.json").read_text())
        assert report["certificate"]["feasible"] is True
        assert report["system"]["schema_version"] == SCHEMA_VERSION

    def test_certify_infeasible_exit_1(self, tmp_path):
        f = tmp_path / "sys.json"
        _write_benchmark(f)
        code = cli.main(["--out", str(tmp_path), "certify", str(f),
                         "--gamma", "5.0"])
        assert code == 1

    def test_certify_search_exit_0(self, tmp_path):
        f = tmp_path / "sys.json"
        _write_benchmark(f)
        code = cli.main(["--out", str(tmp_path), "certify", str(f),
                         "--search", "--no-honor-theorem"])
        assert code == 0
        cert = json.loads((tmp_path / "certify_report.json").read_text())["certificate"]
        assert cert["feasible"] is True
        assert cert["gamma"] >= 0.6111047 - 1e-6

    def test_certify_parse_error_exit_2(self, tmp_path):
        f = tmp_path / "garbage.json"
        f.write_text("not json")
        assert cli.main(["--out", str(tmp_path), "certify", str(f)]) == 2

    def test_certify_empty_modes_exit_2(self, tmp_path, capsys):
        net, grid = _write_benchmark(tmp_path / "ok.json")
        doc = dump_system(net, grid)
        doc["modes"] = []
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "certify", str(f)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"error: {f}: 'modes' must be a non-empty list"]
        assert not out.exists()

    def test_simulate_writes_trajectory(self, tmp_path):
        f = tmp_path / "sys.json"
        _write_benchmark(f, counts=(9, 9))
        code = cli.main(["--out", str(tmp_path), "simulate", str(f),
                         "--T", "1.0", "--dt", "0.05"])
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
        assert len(lines) == 22   # header + 21 steps
        report = json.loads((tmp_path / "simulate_report.json").read_text())
        assert report["dt"] == 0.05

    def test_stationary_scalar_system(self, tmp_path):
        problem = presets.boundary_layer_problem(101)
        net = SwitchedNetwork((problem.mode,), problem.activation, 1.0,
                              0.01 * np.eye(1))
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(dump_system(net, problem.grid)))
        code = cli.main(["--out", str(tmp_path), "stationary", str(f)])
        assert code == 0
        assert (tmp_path / "stationary_0.csv").exists()
        report = json.loads((tmp_path / "stationary_report.json").read_text())
        assert 0.0 <= report["error_bound"] <= 1e-8

    def test_stationary_multiplicity_writes_each_solution(self, tmp_path):
        problem = presets.multiplicity_problem(101)
        net = SwitchedNetwork((problem.mode,), problem.activation, 1.0,
                              0.01 * np.eye(1))
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(dump_system(net, problem.grid)))
        code = cli.main(["--out", str(tmp_path), "stationary", str(f), "--inits", "3"])
        assert code == 0
        assert len(list(tmp_path.glob("stationary_*.csv"))) == 3
        report = json.loads((tmp_path / "stationary_report.json").read_text())
        assert report["distinct_solutions"] == 3
        assert max(report["residuals"]) <= 1e-10

    def test_reproduce_tables_exit_0(self, tmp_path):
        assert cli.main(["--out", str(tmp_path), "reproduce", "tables"]) == 0
        report = json.loads((tmp_path / "reproduce_tables.json").read_text())
        assert all(r["pass"] for r in report["rows"])

    @pytest.mark.parametrize("argv", [
        ["simulate", "--T", "-1"],
        ["simulate", "--dt", "10"],   # 2 samples at the default T = 10: under 10 to fit
        ["simulate", "--T", "1", "--dt", "0.05", "--snapshots", "-1"],
        ["stationary", "--tol", "-1"],
        ["stationary", "--tol", "-1", "--inits", "3"],
        ["certify", "--gamma", "-1"],
        ["simulate", "--T", "0.7", "--dt", "0.05"],   # under 10 samples to fit
        ["stationary", "--inits", "0"],
        ["stationary", "--inits", "-3"],
        ["simulate", "--T", "200", "--dt", "10"],   # 21 samples, dt above the delay bound 3.5
        ["certify", "--search", "--q", "0"],
    ], ids=["T", "dt", "snapshots", "tol", "tol-inits", "gamma", "T-fit-window",
            "inits-0", "inits-negative", "dt-above-delay", "q-search"])
    def test_out_of_range_argument_exit_2(self, tmp_path, capsys, argv):
        f = tmp_path / "sys.json"
        _write_benchmark(f, counts=(9, 9))
        out = tmp_path / "out"
        code = cli.main(["--out", str(out), argv[0], str(f)] + argv[1:])
        assert code == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_simulate_rejects_short_fit_window_before_simulating(
            self, tmp_path, monkeypatch):
        f = tmp_path / "sys.json"
        _write_benchmark(f, counts=(9, 9))
        ran = []
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: ran.append(a))
        out = tmp_path / "out"
        code = cli.main(["--out", str(out), "simulate", str(f),
                         "--T", "0.7", "--dt", "0.05"])
        assert code == 2
        assert ran == [] and not out.exists()

    def test_import_leaves_mpmath_unloaded(self):
        probe = "import sys, rdnet.cli; print('mpmath' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"


class TestReproduceRows:
    def test_tables_rates(self):
        rows = {r["check"]: r for r in cli.reproduce_tables()}
        assert rows["case1_rate"]["computed"] == pytest.approx(0.19)
        assert rows["case2_rate"]["computed"] == pytest.approx(0.22)
        assert rows["case3_rate"]["computed"] == pytest.approx(0.29)
        assert all(r["pass"] for r in rows.values())

    def test_statement1_rows(self):
        # the sharp boundary layers need the full default resolution
        rows = cli.reproduce_statement1()
        assert all(r["pass"] for r in rows)

    def test_example41_decay_rate_pinned(self):
        rows, traj = cli.reproduce_example41(1, grid_nodes=61)
        rows = {r["check"]: r for r in rows}
        assert all(r["pass"] for r in rows.values())
        assert rows["fitted_decay_rate"]["computed"] == pytest.approx(
            0.39383303767978034, abs=1e-12)
        assert len(traj.times) == 344 and traj.switch_count == 0

    def test_example35_rows(self):
        rows = cli.reproduce_example35(nodes=201)
        assert all(r["pass"] for r in rows)
