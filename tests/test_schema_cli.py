import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rdnet import cli, presets
from rdnet.geometry import Grid, RectDomain
from rdnet.model import Activation, Mode, SwitchedNetwork, check_A1_sampled
from rdnet.schema import (SCHEMA_VERSION, SystemFileError, dump_system,
                          load_system, write_field_csv, write_report,
                          write_trajectory_csv)
from rdnet.simulator import Trajectory


def _write_benchmark(path, case=1, counts=(15, 15)):
    net = presets.switched_benchmark(case)
    grid = Grid(net.modes[0].domain, counts)
    path.write_text(json.dumps(dump_system(net, grid)))
    return net, grid


def _write_multiplicity(path, nodes=101):
    problem = presets.multiplicity_problem(nodes)
    net = SwitchedNetwork((problem.mode,), problem.activation, 1.0,
                          0.01 * np.eye(1))
    path.write_text(json.dumps(dump_system(net, problem.grid)))


def _run_cli(argv, prelude="", **env):
    """rdnet.cli.main(argv) in a fresh interpreter that first runs prelude."""
    probe = f"{prelude}import sys, rdnet.cli; sys.exit(rdnet.cli.main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, "-c", probe, *map(str, argv)],
                          capture_output=True, text=True, env=env)


def _blas_threads(count):
    """The environment that sets every BLAS pool to count threads."""
    return {name: str(count) for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _strict_json(text):
    """json.loads that rejects NaN and Infinity."""
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def _skip_if_numpy_loads_random():
    probe = "import sys, numpy; print('numpy.random' in sys.modules)"
    loads = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                           text=True, check=True)
    if loads.stdout.strip() == "True":
        pytest.skip("this numpy imports numpy.random with numpy")


def _sha1s(directory, pattern="*"):
    return {p.name: hashlib.sha1(p.read_bytes()).hexdigest()
            for p in directory.glob(pattern)}


def _reference_field_csv(grid: Grid, field: np.ndarray) -> bytes:
    """The reference writer: one f-string per row, nodes in C order.
    write_field_csv must produce these bytes exactly."""
    field = np.asarray(field, float)
    if field.ndim == grid.domain.dims:
        field = field[None]
    axes = grid.axes()
    header = "x,y" if grid.domain.dims == 2 else "x"
    rows = [f"{header},component,value\n"]
    for comp in range(field.shape[0]):
        for idx in np.ndindex(*grid.shape):
            coord = ",".join(f"{float(axes[a][i]):.17g}" for a, i in enumerate(idx))
            rows.append(f"{coord},{comp},{float(field[(comp,) + idx]):.17g}\n")
    return "".join(rows).encode()


# values whose %.17g spelling is easy to get wrong: signed zero, the
# smallest subnormal, huge and tiny normals, the infinities and nan
_SPECIAL = [-0.0, 5e-324, 1e-300, 1e17, float("inf"), -float("inf"), float("nan")]


class TestFieldCsvMatchesRowFormatting:
    @pytest.mark.parametrize("counts, components", [
        ((71, 53), 1), ((71, 53), 3), ((2000,), 1), ((2000,), 3), ((3,), 3)])
    def test_bytes_equal(self, tmp_path, counts, components):
        grid = Grid(RectDomain((1.0, 2.5)[:len(counts)]), counts)
        rng = np.random.default_rng(len(counts) + components)
        shape = (components,) + counts
        field = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        flat = field.reshape(components, -1)
        for comp in range(components):
            flat[comp, comp:comp + len(_SPECIAL)] = _SPECIAL[:grid.size - comp]
        out = tmp_path / "f.csv"
        write_field_csv(out, grid, field)
        assert out.read_bytes() == _reference_field_csv(grid, field)

    def test_unbatched_field(self, tmp_path):
        grid = Grid(RectDomain((1.0, 2.5)), (5, 4))
        field = np.arange(20.0).reshape(5, 4) / 3.0
        out = tmp_path / "f.csv"
        write_field_csv(out, grid, field)
        assert out.read_bytes() == _reference_field_csv(grid, field)


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

    def test_distinct_lipschitz_constants(self, tmp_path):
        net, grid = _write_benchmark(tmp_path / "ok.json")
        doc = dump_system(net, grid)
        doc["activation"] = {"name": "identity", "lipschitz": [1.0, 0.5]}
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(doc))
        act = load_system(f)[0].activation
        np.testing.assert_array_equal(act.G, np.diag([1.0, 0.5]))
        verdict = check_A1_sampled(act, samples=2000)
        assert not verdict.holds
        assert verdict.worst_ratio == pytest.approx(2.0, abs=1e-9)

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
        inf = float("inf")
        write_report(out, {"m": np.eye(2), "x": np.float64(1.5), "k": np.int64(3),
                           "nan": float("nan"), "np_nan": np.float64("nan"),
                           "inf": inf, "np_ninf": np.float64(-inf),
                           "array": np.array([[1.0, np.nan], [-inf, inf]]),
                           "nested": [(inf, 2.5), {"v": -inf}]})
        doc = _strict_json(out.read_text())
        assert doc["m"] == [[1.0, 0.0], [0.0, 1.0]]
        assert doc["x"] == 1.5 and doc["k"] == 3
        assert [doc[k] for k in ("nan", "np_nan", "inf", "np_ninf")] == [None] * 4
        assert doc["array"] == [[1.0, None], [None, None]]
        assert doc["nested"] == [[None, 2.5], {"v": None}]

    def test_readme_system_file_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example, = re.findall(r"```json\n(.*?)```", readme, re.S)
        f = tmp_path / "readme.json"
        f.write_text(example)
        net, grid = load_system(f)
        assert net.tau_max == 1.0 and grid.counts == (15, 15)

    @pytest.mark.parametrize("place, key", [
        ([], "tau_max"), (["modes", 0], "E"), (["activation"], "param"),
        (["delay"], "tau")], ids=["top-level-tau_max", "mode", "activation", "delay"])
    def test_unknown_key_exit_2(self, tmp_path, capsys, place, key):
        net, grid = _write_benchmark(tmp_path / "ok.json", counts=(9, 9))
        doc = dump_system(net, grid)
        where = doc
        for step in place:
            where = where[step]
        where[key] = 1.0
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "simulate", str(f), "--T", "1.0"]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith(f"error: {f}: unknown keys ['{key}'] in ")
        assert not out.exists()

    @pytest.mark.parametrize("place, key, value, name", [
        (["delay"], "tau_max", float("inf"), "Infinity"),
        (["delay"], "tau_max", float("nan"), "NaN"),
        ([], "gamma", float("nan"), "NaN"),
        (["modes", 0, "J"], 0, -float("inf"), "-Infinity"),
    ], ids=["tau_max-inf", "tau_max-nan", "gamma-nan", "J-minus-inf"])
    def test_non_json_constant_exit_2(self, tmp_path, capsys, place, key, value, name):
        net, grid = _write_benchmark(tmp_path / "ok.json", counts=(9, 9))
        doc = dump_system(net, grid)
        where = doc
        for step in place:
            where = where[step]
        where[key] = value
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(doc))   # json.dumps spells them NaN, Infinity
        assert name in f.read_text()
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "certify", str(f)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"error: {f}: {name} is not a JSON number"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [["certify"], ["simulate", "--T", "1.0"]],
                             ids=["certify", "simulate"])
    @pytest.mark.parametrize("place, key, raw, message", [
        ([], "gamma", "1e999", "1e999 overflows a float"),
        (["modes", 0, "D", 0], 0, "1e999", "1e999 overflows a float"),
        ([], "gamma", "9" * 401, "int too large to convert to float"),
        (["delay"], "tau_max", "9" * 401, "int too large to convert to float"),
        ([], "grid", "[9.7, 9]", "grid counts must be integers, got [9.7, 9]"),
    ], ids=["gamma-1e999", "D-1e999", "gamma-401-digits", "tau_max-401-digits",
            "grid-9.7"])
    def test_overflowing_or_fractional_number_exit_2(self, tmp_path, capsys, command,
                                                     place, key, raw, message):
        net, grid = _write_benchmark(tmp_path / "ok.json", counts=(9, 9))
        doc = dump_system(net, grid)
        where = doc
        for step in place:
            where = where[step]
        where[key] = "@"
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(doc).replace('"@"', raw))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), command[0], str(f), *command[1:]]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"error: {f}: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [["certify"], ["simulate", "--T", "1.0"]],
                             ids=["certify", "simulate"])
    @pytest.mark.parametrize("place, key, value, message", [
        ([], "gamma", "nan", 'gamma is "nan", not a number'),
        (["modes", 0, "A", 0], 0, "inf", 'modes[0].A[0][0] is "inf", not a number'),
        (["activation", "params"], "a", "inf",
         'activation.params.a is "inf", not a number'),
        (["activation", "lipschitz"], 0, "nan",
         'activation.lipschitz[0] is "nan", not a number'),
        (["activation"], "lipschitz", True, "activation.lipschitz is true, not a number"),
        ([], "q", "1.5", 'q is "1.5", not a number'),
        ([], "schema_version", True, "schema_version is true, not a number"),
    ], ids=["gamma-string-nan", "A-string-inf", "param-string-inf",
            "lipschitz-string-nan", "lipschitz-true", "q-string", "version-true"])
    def test_string_or_boolean_number_exit_2(self, tmp_path, capsys, command,
                                             place, key, value, message):
        # float() and numpy would read "nan", "inf" and "1.5" as numbers and
        # true as 1, so the file is checked before anything converts it
        net, grid = _write_benchmark(tmp_path / "ok.json", counts=(9, 9))
        doc = dump_system(net, grid)
        where = doc
        for step in place:
            where = where[step]
        where[key] = value
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), command[0], str(f), *command[1:]]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"error: {f}: {message}"]
        assert not out.exists()

    def test_trajectory_csv_columns(self, tmp_path):
        traj = Trajectory(np.array([0.0, 0.1, 0.2]), np.array([4.0, 1.0, 0.25]),
                          np.array([0, 1, 1]))
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


class TestBitwiseSimulateOutputs:
    """SHA-1 of every CSV that `rdnet --seed 3 simulate` writes for case 1
    on 31x31 (horizon 12, switching on, every 50th step): the snapshot
    writer, the trajectory writer and the run behind them are pinned byte
    for byte."""

    PINS = {
        "snapshot_0000.csv": "a21e1a796da892d4e835d33f86033b81be333466",
        "snapshot_0001.csv": "72f827a7cce157d4c0cfc894cc639349fcf8889a",
        "snapshot_0002.csv": "70e7e708b659a5403a50967900fbd77b3273c97f",
        "snapshot_0003.csv": "20ca69f51356053371ebfeccec693acec732c99c",
        "snapshot_0004.csv": "356fd39ff065cc1d2597c9a00723290aad237fb6",
        "snapshot_0005.csv": "0360a3e2cd7c5f305c936951a033513544a9a5ba",
        "snapshot_0006.csv": "5a87e5779ce60a55598ab113b2a0d4ca3b73d010",
        "trajectory.csv": "d48049590f167e3cc33e54f533a460dfa5e3671b",
    }

    def test_case1_31(self, tmp_path):
        f = tmp_path / "sys.json"
        _write_benchmark(f, counts=(31, 31))
        out = tmp_path / "out"
        assert cli.main(["--seed", "3", "--out", str(out), "simulate", str(f),
                         "--T", "12", "--switching", "--snapshots", "50"]) == 0
        assert _sha1s(out, "*.csv") == self.PINS


class TestBitwiseStationaryOutputs:
    """SHA-1 of every file that `rdnet stationary <system> --inits k` writes:
    k = 3 on the 101-node multiplicity system and k = 4 on case 1 at 31x31.
    Deflated Newton, its GMRES steps, the sort and the writers behind them are
    pinned byte for byte. Each run is a subprocess, on one and on two BLAS
    threads, and both give these bytes."""

    PINS = {
        "stationary_0.csv": "d10d0236f775742dc41a1348b2133d424c14ad6e",
        "stationary_1.csv": "f8f11cbe6422935bf0e0bdeb75865ded5261c035",
        "stationary_2.csv": "d96ebc8c7ef0371693d6f08201b0f7bfb42ad987",
        "stationary_report.json": "1e99a21aa30bd085e8143dd6ab62938266014831",
    }
    CASE1_31_PINS = {
        "stationary_0.csv": "83d4c9bd38b815cc7ca7f36f9fd9dcb0b26348bf",
        "stationary_report.json": "5acf50bddd2f0a4b052a4defc11a68bb6c78e106",
    }

    @pytest.mark.parametrize("threads", [1, 2])
    def test_multiplicity_101_inits_3(self, tmp_path, threads):
        f = tmp_path / "sys.json"
        _write_multiplicity(f)
        out = tmp_path / "out"
        run = _run_cli(["--out", out, "stationary", f, "--inits", "3"],
                       **_blas_threads(threads))
        assert run.returncode == 0, run.stderr
        assert _sha1s(out) == self.PINS

    @pytest.mark.parametrize("threads", [1, 2])
    def test_case1_31_inits_4(self, tmp_path, threads):
        f = tmp_path / "sys.json"
        _write_benchmark(f, counts=(31, 31))
        out = tmp_path / "out"
        run = _run_cli(["--out", out, "stationary", f, "--inits", "4"],
                       **_blas_threads(threads))
        assert run.returncode == 0, run.stderr
        assert _sha1s(out) == self.CASE1_31_PINS


class TestBitwiseCommandOutputs:
    """SHA-1 of every file that the five reproduce targets (example4_1 on
    31x31), certify --search with and without the theorem constraint, and
    `rdnet --seed 3 simulate --T 4 --switching --snapshots 50` write for
    case 1 on 31x31. These bytes were the same on one and two BLAS threads.
    A change that means to move an output changes its digest here and says
    why."""

    PINS = {
        "r/reproduce_statement1.json": "b75fa1a1865cb853782fcab7589b5cb7a589784d",
        "r/reproduce_example3_5.json": "d1462c579b6fe986fcb022e75217a856cf217a00",
        "r/reproduce_example4_1.json": "1446d3f620d27e75d82cc188b17381a10c2a64fd",
        "r/example4_1_case1_trajectory.csv": "cfaaafa365ce760315d3c3588c5c12f6b1f2ae0d",
        "r/reproduce_statement2.json": "2fac4beebfeb9d7177d8b544861343900538ae08",
        "r/reproduce_tables.json": "ccfa0a7f3a8bb5c01051982b15e466cbc2bdb93d",
        "honor/certify_report.json": "ca389695a60bca0d355152daed4386f33c466ea6",
        "free/certify_report.json": "f6b5a317b205cb7043fb3df70f4b2453e1c8fcac",
        "s/simulate_report.json": "2c0c8d33a3b60e0fc260bb0c1a16bc5bf3e45409",
        "s/trajectory.csv": "758abfd4528a2c97772023f710ebab08c4b3d1a0",
        "s/snapshot_0000.csv": "a21e1a796da892d4e835d33f86033b81be333466",
        "s/snapshot_0001.csv": "72f827a7cce157d4c0cfc894cc639349fcf8889a",
        "s/snapshot_0002.csv": "70e7e708b659a5403a50967900fbd77b3273c97f",
    }

    def test_commands(self, tmp_path):
        f = tmp_path / "case1_31.json"
        _write_benchmark(f, counts=(31, 31))
        out = tmp_path / "out"
        runs = [["--out", out / "r", "reproduce", *target] for target in (
            ["statement1"], ["example3_5"], ["example4_1", "--case", "1", "--grid", "31"],
            ["statement2"], ["tables"])]
        runs += [["--out", out / "honor", "certify", f, "--search", "--honor-theorem"],
                 ["--out", out / "free", "certify", f, "--search", "--no-honor-theorem"],
                 ["--seed", "3", "--out", out / "s", "simulate", f, "--T", "4",
                  "--switching", "--snapshots", "50"]]
        assert [cli.main(list(map(str, argv))) for argv in runs] == [0] * len(runs)
        written = {p.relative_to(out).as_posix(): hashlib.sha1(p.read_bytes()).hexdigest()
                   for p in out.rglob("*") if p.is_file()}
        assert written == self.PINS


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

    @pytest.mark.parametrize("argv, message", [
        (["--search", "--beta", "0.2", "0.3", "0.5"], "--search finds beta and gamma"),
        (["--search", "--gamma", "5"], "--search finds beta and gamma"),
        (["--search", "--gamma-cap", "0.001"], "--gamma-cap bounds only"),
        (["--search", "--honor-theorem", "--gamma-cap", "2"], "--gamma-cap bounds only"),
        (["--gamma-cap", "2"], "--gamma-cap bounds only"),
        (["--no-honor-theorem", "--gamma-cap", "2"], "--gamma-cap bounds only"),
    ], ids=["search-beta", "search-gamma", "search-honor-cap",
            "search-explicit-honor-cap", "cap-without-search", "cap-check"])
    def test_certify_ignored_option_exit_2(self, tmp_path, capsys, monkeypatch, argv,
                                           message):
        # each option would change nothing in the run, so the run is refused
        f = tmp_path / "sys.json"
        _write_benchmark(f, counts=(9, 9))
        loaded = []
        monkeypatch.setattr(cli, "load_system", lambda *a: loaded.append(a))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "certify", str(f), *argv]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert captured.out == "" and loaded == [] and not out.exists()

    def test_certify_gamma_cap_bounds_free_search(self, tmp_path):
        f = tmp_path / "sys.json"
        _write_benchmark(f, counts=(9, 9))
        code = cli.main(["--out", str(tmp_path), "certify", str(f), "--search",
                         "--no-honor-theorem", "--gamma-cap", "0.3"])
        assert code == 0
        cert = json.loads((tmp_path / "certify_report.json").read_text())["certificate"]
        assert cert["feasible"] is True and cert["gamma"] <= 0.3

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

    @pytest.mark.parametrize("params", [{}, [1, 2]], ids=["missing", "not-object"])
    def test_bad_activation_params_rejected_on_load(self, tmp_path, capsys, params):
        net, grid = _write_benchmark(tmp_path / "ok.json", counts=(9, 9))
        doc = dump_system(net, grid)
        doc["activation"]["params"] = params
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "simulate", str(f), "--T", "1.0"]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith(f"error: {f}: ")
        assert not out.exists()

    def test_unknown_activation_param_rejected_on_load(self, tmp_path, capsys):
        net, grid = _write_benchmark(tmp_path / "ok.json", counts=(9, 9))
        doc = dump_system(net, grid)
        doc["activation"]["params"]["d"] = 1.0    # scaled_sine takes a, b, c
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "simulate", str(f), "--T", "1.0"]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"error: {f}: unknown activation params ['d'], "
                       "expected ['a', 'b', 'c']"]
        assert not out.exists()

    def test_simulate_blow_up_keeps_written_snapshots(self, tmp_path, capsys):
        # strong positive feedback: V passes the 1e6 guard near t = 0.7, so
        # the snapshots of t = 0, 0.1, ..., 0.6 are on disk by then
        mode = Mode([[0.01]], [[0.1]], [[10.0]], [[0.0]], [0.0], RectDomain((1.0,)))
        net = SwitchedNetwork((mode,), Activation.uniform("identity", {}, 1.0, 1),
                              tau_max=0.0, Psi=np.eye(1))
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(dump_system(net, Grid(mode.domain, (31,)))))
        out = tmp_path / "out"
        code = cli.main(["--out", str(out), "simulate", str(f), "--T", "50",
                         "--dt", "0.01", "--snapshots", "10"])
        assert code == 1
        assert "norm blew up" in capsys.readouterr().err
        snaps = sorted(p.name for p in out.glob("snapshot_*.csv"))
        assert len(snaps) >= 7
        assert snaps == [f"snapshot_{i:04d}.csv" for i in range(len(snaps))]
        assert sorted(p.name for p in out.iterdir()) == snaps   # no report, no trajectory
        for name in snaps:
            lines = (out / name).read_text().split("\n")
            assert lines[0] == "x,component,value" and len(lines) == 33

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

    def test_simulate_report_echoes_resolved_run(self, tmp_path):
        f = tmp_path / "sys.json"
        net, _ = _write_benchmark(f, counts=(9, 9))
        assert cli.main(["--out", str(tmp_path), "simulate", str(f), "--T", "1.0"]) == 0
        report = json.loads((tmp_path / "simulate_report.json").read_text())
        dt = net.tau_max / 100.0   # the default step
        assert report["dt"] == dt
        assert not {"switching_form", "hysteresis"} & report.keys()
        # round(T / dt) = 29 steps of 0.035 end past --T 1.0
        assert report["horizon"] == 1.0
        assert report["end_time"] == 29 * dt

    def test_simulate_tau_sets_the_delay(self, tmp_path):
        f = tmp_path / "sys.json"
        _write_benchmark(f)
        assert cli.main(["--out", str(tmp_path), "simulate", str(f), "--tau", "1.0"]) == 0
        report = json.loads((tmp_path / "simulate_report.json").read_text())
        assert report["system"]["delay"] == {"tau_max": 1.0}
        assert report["dt"] == 0.01   # the default step, tau_max / 100

    # case 1's gamma 0.38 at tau_max 2000: gamma*tau = 760 and e^(gamma tau)
    # overflows a float
    @pytest.mark.parametrize("argv", [["certify"],
                                      ["simulate", "--tau", "2000", "--T", "400",
                                       "--switching"]])
    def test_overflowing_delay_factor_exit_2(self, tmp_path, capsys, argv):
        f = tmp_path / "sys.json"
        net, grid = _write_benchmark(f, counts=(9, 9))
        f.write_text(json.dumps(dump_system(dataclasses.replace(net, tau_max=2000.0), grid)))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), argv[0], str(f), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "gamma*tau = 760" in err
        assert not out.exists()

    # e^(gamma tau) = e^709.5 is a float, but e^(gamma tau) q G^2 with
    # Lipschitz constants 2 is not
    @pytest.mark.parametrize("argv", [["certify"],
                                      ["simulate", "--T", "30", "--dt", "1", "--switching"]])
    def test_overflowing_delay_term_exit_2(self, tmp_path, capsys, argv):
        f = tmp_path / "sys.json"
        net, grid = _write_benchmark(f, counts=(9, 9))
        doc = dump_system(dataclasses.replace(net, tau_max=709.5 / 0.38), grid)
        doc["activation"]["lipschitz"] = [2, 2]
        f.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), argv[0], str(f), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "gamma*tau = 709.5" in err
        assert not out.exists()

    # a domain of 1e300 has grid spacings whose h^2 overflows a float, and a
    # diffusion entry of 1e-320 makes 1/(dt D_i) overflow at the default dt
    @pytest.mark.parametrize("entry, value, argv", [
        ("domain", [1e300, 1e300], ["stationary", "--inits", "2"]),
        ("domain", [1e300, 1e300], ["stationary"]),
        ("domain", [1e300, 1e300], ["simulate", "--switching"]),
        ("D", [[1e-320, 0.0], [0.0, 0.055]], ["simulate", "--switching"]),
    ], ids=["huge-domain-inits", "huge-domain-stationary", "huge-domain-simulate",
            "tiny-D-simulate"])
    def test_out_of_range_system_fails_up_front(self, tmp_path, capsys, entry, value, argv):
        f = tmp_path / "sys.json"
        _write_benchmark(f, counts=(31, 31))
        doc = json.loads(f.read_text())
        doc["modes"][0][entry] = value
        f.write_text(json.dumps(doc))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["--out", str(out), argv[0], str(f), *argv[1:]])
        assert code == 2 and caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_simulate_without_switching_needs_no_delay_factor(self, tmp_path):
        f = tmp_path / "sys.json"
        _write_benchmark(f, counts=(9, 9))
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "simulate", str(f), "--tau", "2000",
                         "--T", "400"]) == 0
        report = _strict_json((out / "simulate_report.json").read_text())
        assert report["end_time"] == 400.0 and report["switch_count"] == 0

    def test_simulate_infinite_rate_is_null(self, tmp_path):
        # strong decay drives V to 0.0 within the fit window, whose rate is
        # the +inf sentinel
        mode = Mode([[0.1]], [[50.0]], [[0.0]], [[0.0]], [0.0], RectDomain((1.0,)))
        net = SwitchedNetwork((mode,), Activation.uniform("identity", {}, 1.0, 1),
                              tau_max=0.0, Psi=np.eye(1))
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(dump_system(net, Grid(mode.domain, (31,)))))
        assert cli.main(["--out", str(tmp_path), "simulate", str(f), "--T", "40",
                         "--dt", "0.01"]) == 0
        report = _strict_json((tmp_path / "simulate_report.json").read_text())
        assert report["decay"]["rate"] is None

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
        f = tmp_path / "sys.json"
        _write_multiplicity(f)
        code = cli.main(["--out", str(tmp_path), "stationary", str(f), "--inits", "3"])
        assert code == 0
        assert len(list(tmp_path.glob("stationary_*.csv"))) == 3
        report = json.loads((tmp_path / "stationary_report.json").read_text())
        assert report["distinct_solutions"] == 3
        assert max(report["residuals"]) <= 1e-10

    def test_reproduce_failure_leaves_no_out_dir(self, tmp_path, capsys):
        # a 2-node grid has no interior node, so the target fails up front
        out = tmp_path / "out"
        code = cli.main(["--out", str(out), "reproduce", "example4_1", "--grid", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

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

    @pytest.mark.parametrize("argv", [
        ["simulate", "{f}"],
        ["stationary", "{f}", "--inits", "1"],
        ["stationary", "{f}", "--inits", "3"],
        ["certify", "{f}"],
        ["reproduce", "tables"],
    ], ids=["simulate", "stationary", "stationary-inits", "certify", "reproduce"])
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_rejected_at_parse_time(self, tmp_path, capsys, argv, seed):
        f = tmp_path / "sys.json"
        _write_benchmark(f, counts=(9, 9))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--out", str(out), "--seed", seed]
                     + [a.format(f=f) for a in argv])
        assert exit_.value.code == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err[-1] == ("rdnet: error: argument --seed: must be a "
                           f"non-negative integer, got '{seed}'")
        assert not out.exists()

    @pytest.mark.parametrize("argv, option, value", [
        (["simulate", "--T", "inf"], "--T", "inf"),
        (["simulate", "--T", "nan"], "--T", "nan"),
        (["simulate", "--dt", "nan"], "--dt", "nan"),
        (["simulate", "--tau", "nan"], "--tau", "nan"),
        (["simulate", "--tau=-inf"], "--tau", "-inf"),   # "--tau -inf" reads as an option
        (["stationary", "--tol", "nan"], "--tol", "nan"),
        (["stationary", "--tol", "nan", "--inits", "3"], "--tol", "nan"),
        (["certify", "--gamma", "nan"], "--gamma", "nan"),
        (["certify", "--beta", "0.5", "inf", "0.1"], "--beta", "inf"),
        (["certify", "--q=-inf"], "--q", "-inf"),
        (["certify", "--search", "--gamma-cap", "inf"], "--gamma-cap", "inf"),
    ], ids=["T-inf", "T-nan", "dt-nan", "tau-nan", "tau-minus-inf", "tol-nan",
            "tol-nan-inits", "gamma-nan", "beta-inf", "q-minus-inf", "gamma-cap-inf"])
    def test_non_finite_float_rejected_at_parse_time(self, tmp_path, capsys, argv,
                                                     option, value):
        f = tmp_path / "sys.json"
        _write_benchmark(f, counts=(9, 9))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--out", str(out), argv[0], str(f)] + argv[1:])
        assert exit_.value.code == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err[-1] == (f"rdnet {argv[0]}: error: argument {option}: must be a "
                           f"finite number, got '{value}'")
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

    def test_switched_benchmark_runs_without_mpmath(self, tmp_path):
        # a None entry makes any import of mpmath raise
        out = _run_cli(["--out", tmp_path, "reproduce", "example4_1", "--case", "1",
                        "--grid", "31"], "import sys; sys.modules['mpmath'] = None; ")
        assert out.returncode == 0, out.stderr

    def test_seeded_runs_without_numpy_random(self, tmp_path):
        # the start amplitudes and statement2's Lipschitz probes come from
        # rdnet's own PCG64 stream, so with any import of numpy.random made
        # to raise, the seeded commands still write their pinned bytes
        _skip_if_numpy_loads_random()
        block = "import sys; sys.modules['numpy.random'] = None; "
        f = tmp_path / "case1_31.json"
        _write_benchmark(f, counts=(31, 31))
        sim = _run_cli(["--seed", "3", "--out", tmp_path / "s", "simulate", f,
                        "--T", "12", "--switching", "--snapshots", "50"], block)
        assert sim.returncode == 0, sim.stderr
        assert _sha1s(tmp_path / "s", "*.csv") == TestBitwiseSimulateOutputs.PINS
        m = tmp_path / "multiplicity_101.json"
        _write_multiplicity(m)
        sta = _run_cli(["--out", tmp_path / "m", "stationary", m, "--inits", "3"], block)
        assert sta.returncode == 0, sta.stderr
        assert _sha1s(tmp_path / "m") == TestBitwiseStationaryOutputs.PINS
        st2 = _run_cli(["--out", tmp_path / "r", "reproduce", "statement2"], block)
        assert st2.returncode == 0, st2.stderr
        assert (_sha1s(tmp_path / "r")["reproduce_statement2.json"]
                == TestBitwiseCommandOutputs.PINS["r/reproduce_statement2.json"])

    def test_import_leaves_scipy_unloaded(self):
        probe = "import sys, rdnet.cli; print('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"

    def test_runs_leave_scipy_and_mpmath_unloaded(self, tmp_path):
        # both stay off the runtime path: importing the CLI and running a
        # 1-D and a 2-D target loads neither
        probe = ("import sys, rdnet.cli; "
                 "codes = [rdnet.cli.main(['--out', sys.argv[1], 'reproduce', *t]) for t in "
                 "(['statement1'], ['example4_1', '--grid', '15'])]; "
                 "print(codes, sorted({'scipy', 'mpmath'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                             capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip().split("\n")[-1] == "[0, 0] []"

    def test_reproduce_targets_leave_numpy_random_unloaded(self, tmp_path):
        _skip_if_numpy_loads_random()
        probe = ("import sys, rdnet.cli; "
                 "codes = [rdnet.cli.main(['--out', sys.argv[1], 'reproduce', *t]) for t in "
                 "(['tables'], ['statement1'], ['example3_5'], ['statement2'], "
                 "['example4_1', '--grid', '15'])]; "
                 "print(codes, 'numpy.random' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                             capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip().split("\n")[-1] == "[0, 0, 0, 0, 0] False"

    def test_stationary_inits_on_61_squared_solves(self, tmp_path):
        # 61^2 nodes x 2 components: 7,442 unknowns, which exited 2 while
        # Newton's Jacobian was dense
        f = tmp_path / "sys.json"
        _write_benchmark(f, counts=(61, 61))
        out = tmp_path / "o"
        code = cli.main(["--out", str(out), "stationary", str(f), "--inits", "3",
                         "--tol", "1e-8"])
        assert code == 0
        assert sorted(p.name for p in out.glob("*.csv")) == ["stationary_0.csv"]
        report = json.loads((out / "stationary_report.json").read_text())
        assert report["distinct_solutions"] == 1
        assert report["residuals"][0] <= 1e-8


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
        rows = cli.reproduce_example35()
        assert all(r["pass"] for r in rows)
