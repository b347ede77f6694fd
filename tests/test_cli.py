import csv
import os
import pathlib
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import ltbf.cli as cli
import ltbf.evaluation as evaluation
from ltbf.beamspace import (BeamspaceOperator, build_operator, from_beamspace,
                            to_beamspace)
from ltbf.cg import CGConfig, NumericalBreakdownError, cg_inverse
from ltbf.evaluation import (build_projectors, capacity, check_sinr_bound,
                             inverse_error)
from ltbf.scenario import (ConfigError, assemble_q, generate_scenario,
                           load_matrix, load_scenario)
from oracles import direct_inverse_oracle, full_evd_oracle


def run_capture(capsys, argv):
    rc = cli.run(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def stdout_fields(out):
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


def write_config(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def quiet_scenario(tmp_path_factory):
    # vanishing transmit power, so the system matrix is the identity up
    # to rounding and the solver should finish in one iteration
    root = tmp_path_factory.mktemp("quiet")
    cfg = write_config(root / "quiet.cfg",
                       "side = 4\nsnr_db_low = -300\nsnr_db_high = -300\n"
                       "subcarriers = 16\nseed = 2\n")
    out = str(root / "quiet.bslv")
    assert cli.run(["gen", cfg, out]) == 0
    return out


@pytest.fixture(scope="module")
def mid_scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("mid")
    cfg = write_config(root / "mid.cfg",
                       "side = 8\nsubcarriers = 64\nseed = 3351\n")
    out = str(root / "mid.bslv")
    assert cli.run(["gen", cfg, out]) == 0
    return out


@pytest.fixture(scope="module")
def single_path_scenario(tmp_path_factory):
    # one user on one path: the loading Q - I has rank 1, below the
    # default sketch rank 8
    root = tmp_path_factory.mktemp("single")
    cfg = write_config(root / "single.cfg",
                       "side = 4\nn_ue = 1\npaths_per_user = 1\n"
                       "subcarriers = 16\nseed = 3353\n")
    out = str(root / "single.bslv")
    assert cli.run(["gen", cfg, out]) == 0
    return out


@pytest.fixture(scope="module")
def default_run_dir(tmp_path_factory, mid_scenario):
    out_dir = str(tmp_path_factory.mktemp("sweep") / "run")
    assert cli.run(["sweep", mid_scenario, "--iters", "2,4",
                    "--out-dir", out_dir]) == 0
    return out_dir


class TestParser:
    def test_help_exits_clean(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--help"])
        assert exc.value.code == 0

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run([])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["solve"])
        assert exc.value.code == 2
        capsys.readouterr()


@st.composite
def _sweep_setups(draw):
    names = draw(st.lists(st.text(string.ascii_letters + string.digits + "_.-",
                                  min_size=1), min_size=1, max_size=5,
                          unique=True))
    setups = []
    for name in names:
        fields = draw(st.fixed_dictionaries({}, optional={
            "domain": st.sampled_from(["antenna", "beamspace"]),
            "precond": st.sampled_from(["none", "lowrank"]),
            "q": st.integers(-10 ** 6, 10 ** 6),
            "p": st.integers(-10 ** 6, 10 ** 6)}))
        setups.append(cli.SolverSetup(name, **fields))
    return setups


def _sweep_lines(setups):
    # a setup without a width gets no q token, never q=None
    return "".join("%s domain=%s precond=%s%s p=%d\n"
                   % (s.name, s.domain, s.precond,
                      "" if s.q is None else " q=%d" % s.q, s.p)
                   for s in setups)


class TestSweepConfigFile:
    @settings(max_examples=100, deadline=None)
    @given(setups=_sweep_setups())
    def test_valid_setups_come_back_equal(self, setups):
        parsed = helpers.parse_file(cli.read_sweep_configs, _sweep_lines(setups))
        assert [vars(s) for s in parsed] == [vars(s) for s in setups]

    @settings(max_examples=200, deadline=None)
    @given(data=helpers.config_text())
    def test_arbitrary_text_is_parsed_or_config_error(self, data):
        try:
            setups = helpers.parse_file(cli.read_sweep_configs, data)
        except ConfigError:
            return
        assert setups and all(isinstance(s, cli.SolverSetup) for s in setups)


class TestGen:
    def test_writes_loadable_scenario_and_key_value_lines(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "s.cfg",
                           "side = 4\nn_ue = 2\nsubcarriers = 16\nseed = 11\n")
        out = str(tmp_path / "s.bslv")
        rc, stdout, _ = run_capture(capsys, ["gen", cfg, out])
        assert rc == 0
        fields = stdout_fields(stdout)
        assert fields["N"] == "16" and fields["N_UE"] == "2"
        assert fields["seed"] == "11"
        assert float(fields["kappa"]) > 1.0
        loaded_cfg, stats, channels = load_scenario(out)
        assert loaded_cfg.side == 4 and len(stats) == 2
        assert channels[0].h.shape == (16, 16, 1)

    def test_seed_flag_overrides_and_reproduces_bytes(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "s.cfg", "side = 4\nsubcarriers = 16\n")
        a, b, c = (str(tmp_path / name) for name in ("a.bslv", "b.bslv", "c.bslv"))
        rc, stdout, _ = run_capture(capsys, ["gen", cfg, a, "--seed", "77"])
        assert rc == 0 and stdout_fields(stdout)["seed"] == "77"
        run_capture(capsys, ["gen", cfg, b, "--seed", "77"])
        run_capture(capsys, ["gen", cfg, c, "--seed", "78"])
        blob = open(a, "rb").read()
        assert blob == open(b, "rb").read()
        assert blob != open(c, "rb").read()

    def test_reported_conditioning_matches_dense_eigensolve(self, capsys,
                                                            tmp_path):
        cfg = write_config(tmp_path / "s.cfg",
                           "side = 4\nsubcarriers = 16\nseed = 5\n")
        out = str(tmp_path / "s.bslv")
        rc, stdout, _ = run_capture(capsys, ["gen", cfg, out])
        assert rc == 0
        kappa = float(stdout_fields(stdout)["kappa"])
        _, stats, _ = load_scenario(out)
        vals, _ = full_evd_oracle(assemble_q(stats).matrix)
        assert abs(kappa - vals[0] / vals[-1]) <= 1e-9 * kappa

    def test_unknown_key_reports_name_and_line(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "bad.cfg", "side = 4\nantennas = 9\n")
        rc, _, stderr = run_capture(capsys, ["gen", cfg,
                                             str(tmp_path / "x.bslv")])
        assert rc == 2
        assert "antennas" in stderr and ":2" in stderr

    def test_missing_config_file_is_io_error(self, capsys, tmp_path):
        rc, _, _ = run_capture(capsys, ["gen", str(tmp_path / "absent.cfg"),
                                        str(tmp_path / "x.bslv")])
        assert rc == 4


class TestInvert:
    def test_identity_like_system_takes_one_iteration(self, capsys,
                                                      quiet_scenario):
        rc, stdout, _ = run_capture(capsys, ["invert", quiet_scenario,
                                             "--precond", "none",
                                             "--eps", "1e-3"])
        assert rc == 0
        fields = stdout_fields(stdout)
        assert fields["iterations"] == "1"
        assert float(fields["residual"]) <= 1e-3
        # default output path sits next to the scenario
        assert fields["out"] == quiet_scenario + ".inv"
        x = load_matrix(fields["out"])
        assert np.linalg.norm(x - np.eye(16)) <= 1e-6

    def test_trace_has_header_plus_one_row_per_iteration(self, capsys, tmp_path,
                                                         mid_scenario):
        trace = str(tmp_path / "trace.csv")
        rc, stdout, _ = run_capture(capsys, ["invert", mid_scenario,
                                             "--precond", "none",
                                             "--eps", "1e-6",
                                             "--trace", trace,
                                             "--out", str(tmp_path / "x.inv")])
        assert rc == 0
        iterations = int(stdout_fields(stdout)["iterations"])
        lines = open(trace).read().splitlines()
        assert lines[0] == "iter,residual,config_id"
        assert len(lines) == 1 + iterations
        # each row carries the solver's recorded residual at full precision
        state = cg_inverse(assemble_q(load_scenario(mid_scenario)[1]),
                           config=CGConfig(max_iters=640, epsilon=1e-6))
        assert lines[1:] == ["%d,%r,antenna_none" % (k, res) for k, res
                             in enumerate(state.residual_history, start=1)]

    @pytest.mark.parametrize("domain", ["antenna", "beamspace"])
    def test_reaches_eps_at_a_loose_and_a_tight_tolerance(self, capsys, tmp_path,
                                                           mid_scenario, domain):
        # the true residual of the written inverse is below eps at both
        for eps in (1e-10, 1e-6):
            out = str(tmp_path / "x.inv")
            rc, stdout, _ = run_capture(capsys, ["invert", mid_scenario,
                                                 "--domain", domain,
                                                 "--eps", repr(eps),
                                                 "--out", out])
            assert rc == 0
            fields = stdout_fields(stdout)
            assert float(fields["residual"]) < eps and "warning" not in fields
            _, stats, _ = load_scenario(mid_scenario)
            q = assemble_q(stats).matrix
            resid = np.eye(64) - q @ load_matrix(out)
            assert np.linalg.norm(resid) / 8.0 < eps

    def test_joint_pipeline_needs_fewest_iterations(self, capsys, tmp_path,
                                                    mid_scenario):
        counts = {}
        for domain in ("antenna", "beamspace"):
            for precond in ("none", "lowrank"):
                rc, stdout, _ = run_capture(
                    capsys, ["invert", mid_scenario, "--domain", domain,
                             "--precond", precond, "--eps", "1e-3",
                             "--out", str(tmp_path / "x.inv")])
                assert rc == 0
                counts[(domain, precond)] = int(stdout_fields(stdout)["iterations"])
        joint = counts[("beamspace", "lowrank")]
        assert all(joint <= c for c in counts.values())
        assert joint < counts[("antenna", "none")]

    def test_stored_inverse_satisfies_target(self, capsys, tmp_path,
                                             mid_scenario):
        out = str(tmp_path / "x.inv")
        rc, stdout, _ = run_capture(capsys, ["invert", mid_scenario,
                                             "--eps", "1e-6", "--out", out])
        assert rc == 0
        _, stats, _ = load_scenario(mid_scenario)
        system = assemble_q(stats)
        x = load_matrix(out)
        n = system.matrix.shape[0]
        resid = np.linalg.norm(system.matrix @ x - np.eye(n)) / np.sqrt(n)
        assert resid <= 1e-6

    def test_rank_one_loading_inverts(self, capsys, tmp_path,
                                      single_path_scenario):
        out = str(tmp_path / "x.inv")
        rc, stdout, _ = run_capture(capsys, ["invert", single_path_scenario,
                                             "--domain", "beamspace",
                                             "--out", out])
        assert rc == 0
        _, stats, _ = load_scenario(single_path_scenario)
        system = assemble_q(stats)
        resid = np.linalg.norm(system.matrix @ load_matrix(out) - np.eye(16))
        assert resid / 4.0 < 1e-6

    def test_zero_budget_reports_true_residual_of_zero_iterate(
            self, capsys, tmp_path, quiet_scenario):
        trace = str(tmp_path / "trace.csv")
        out = str(tmp_path / "x.inv")
        rc, stdout, _ = run_capture(capsys, ["invert", quiet_scenario,
                                             "--max-iters", "0",
                                             "--trace", trace, "--out", out])
        assert rc == 0
        fields = stdout_fields(stdout)
        assert fields["iterations"] == "0"
        # X = 0 leaves the residual I, of scaled norm exactly 1
        assert float(fields["residual"]) == 1.0
        assert fields["warning"] == "target 1e-06 not reached in 0 iterations (budget)"
        assert not np.any(load_matrix(out))
        assert open(trace).read() == "iter,residual,config_id\n"

    def test_unreachable_eps_stops_at_attained_accuracy(self, capsys, tmp_path,
                                                        single_path_scenario):
        # run to the 10 N cap, plain CG at eps 1e-20 ends this scenario at
        # residual 6.1, worse than the zero inverse; it stops where its
        # true residual stagnates instead and says why it missed eps
        n = 16
        rc, stdout, _ = run_capture(capsys, ["invert", single_path_scenario,
                                             "--precond", "none",
                                             "--eps", "1e-20",
                                             "--out", str(tmp_path / "x.inv")])
        assert rc == 0
        fields = stdout_fields(stdout)
        iterations = int(fields["iterations"])
        assert iterations < 10 * n
        assert float(fields["residual"]) < 1e-14
        assert fields["warning"] == ("target 1e-20 not reached in %d "
                                     "iterations (stagnated)" % iterations)

    def test_sketch_wider_than_64(self, capsys, tmp_path):
        # the width is bounded by N alone since the small EVD runs on LAPACK
        cfg = write_config(tmp_path / "wide.cfg", "side = 16\nseed = 101\n")
        scen = str(tmp_path / "wide.bslv")
        assert cli.run(["gen", cfg, scen]) == 0
        rc, stdout, _ = run_capture(capsys, ["invert", scen, "--domain",
                                             "beamspace", "--q", "96",
                                             "--p", "2",
                                             "--out", str(tmp_path / "x.inv")])
        assert rc == 0
        fields = stdout_fields(stdout)
        assert float(fields["residual"]) < 1e-6
        assert "warning" not in fields

    @pytest.mark.parametrize("flags", [["--q", "0"], ["--q", "65"],
                                       ["--p", "0"]])
    def test_sketch_parameters_validated(self, capsys, mid_scenario, flags):
        rc, _, stderr = run_capture(capsys, ["invert", mid_scenario] + flags)
        assert rc == 2 and stderr

    def test_corrupt_scenario_is_io_error(self, capsys, tmp_path,
                                          quiet_scenario):
        blob = bytearray(open(quiet_scenario, "rb").read())
        blob[40] ^= 0xFF
        bad = tmp_path / "bad.bslv"
        bad.write_bytes(bytes(blob))
        rc, _, stderr = run_capture(capsys, ["invert", str(bad)])
        assert rc == 4 and stderr

    def test_solver_breakdown_maps_to_numerical_exit(self, capsys, monkeypatch,
                                                     quiet_scenario, tmp_path):
        def explode(*args, **kwargs):
            raise NumericalBreakdownError(3, "(surrogate failure)")
        monkeypatch.setattr(cli, "cg_inverse", explode)
        rc, _, stderr = run_capture(capsys, ["invert", quiet_scenario,
                                             "--out", str(tmp_path / "x.inv")])
        assert rc == 3
        assert "iteration 3" in stderr


class TestDefaultSketchWidth:
    """The sketch width defaults to min(32, N), resolved where N is known."""

    @settings(max_examples=12, deadline=None)
    @given(side=st.integers(1, 5), seed=st.integers(0, 2 ** 16))
    def test_default_fits_every_array_and_an_explicit_excess_does_not(
            self, side, seed):
        n = side * side
        with tempfile.TemporaryDirectory() as root:
            root = pathlib.Path(root)
            cfg = write_config(root / "s.cfg",
                               "side = %d\nn_ue = 1\npaths_per_user = 1\n"
                               "subcarriers = 16\nseed = %d\n" % (side, seed))
            scen = str(root / "s.bslv")
            assert cli.run(["gen", cfg, scen]) == 0
            invert = ["invert", scen, "--out", str(root / "x.inv")]
            sweep = ["sweep", scen, "--iters", "1", "--eval-rank", "1",
                     "--out-dir", str(root / "run")]
            assert cli.run(invert) == 0
            assert cli.run(sweep) == 0
            with open(root / "run" / "run_meta.csv") as fh:
                assert {row["q"] for row in csv.DictReader(fh)} == {str(n)}
            assert cli.run(invert + ["--q", str(n + 1)]) == 2
            wide = write_config(root / "wide.sweep",
                                "a precond=lowrank q=%d\n" % (n + 1))
            assert cli.run(sweep + ["--configs", wide]) == 2

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_beamspace_default_converges_in_two_iterations(self, capsys,
                                                           tmp_path, seed):
        # side 16, default loading: the width-32 sketch holds all of the
        # loading, so the surrogate is Q itself up to the sketch's accuracy
        cfg = write_config(tmp_path / "s.cfg", "side = 16\nseed = %d\n" % seed)
        scen = str(tmp_path / "s.bslv")
        assert cli.run(["gen", cfg, scen]) == 0
        rc, stdout, _ = run_capture(capsys, ["invert", scen, "--domain",
                                             "beamspace",
                                             "--out", str(tmp_path / "x.inv")])
        assert rc == 0
        fields = stdout_fields(stdout)
        assert int(fields["iterations"]) <= 2
        assert float(fields["residual"]) < 1e-6 and "warning" not in fields


class TestSweep:
    def test_empty_budget_list_leaves_empty_tables(self, capsys, tmp_path,
                                                   mid_scenario):
        out_dir = str(tmp_path / "empty_run")
        rc, stdout, _ = run_capture(capsys, ["sweep", mid_scenario,
                                             "--iters", "", "--out-dir", out_dir])
        assert rc == 0
        assert "budgets=\n" in stdout
        for name in ("capacity.csv", "cdf.csv", "bound.csv", "run_meta.csv",
                     "sparsity.csv"):
            lines = open(os.path.join(out_dir, name)).read().splitlines()
            assert len(lines) == 1  # header only

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_iters_to_eps_equals_the_invert_iterations(self, capsys, tmp_path,
                                                      seed):
        # the sweep's eps iterate is the one where invert's run at eps
        # stops, on each of the four default setups
        cfg = write_config(tmp_path / "s.cfg",
                           "side = 8\nn_ue = 8\npaths_per_user = 8\n"
                           "snr_db_low = -6\nsnr_db_high = 14\n"
                           "subcarriers = 64\nseed = %d\n" % seed)
        scenario = str(tmp_path / "s.bslv")
        assert cli.run(["gen", cfg, scenario]) == 0
        out_dir = str(tmp_path / "run")
        rc, _, _ = run_capture(capsys, ["sweep", scenario, "--iters", "2",
                                        "--eps", "1e-6", "--out-dir", out_dir])
        assert rc == 0
        with open(os.path.join(out_dir, "run_meta.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            rc, stdout, _ = run_capture(capsys, [
                "invert", scenario, "--domain", row["domain"],
                "--precond", row["precond"], "--eps", "1e-6",
                "--out", str(tmp_path / "x.inv")])
            assert rc == 0
            assert stdout_fields(stdout)["iterations"] == row["iters_to_eps"], row

    def test_tables_cover_all_configs_and_budgets(self, default_run_dir):
        with open(os.path.join(default_run_dir, "capacity.csv")) as fh:
            cap = list(csv.DictReader(fh))
        names = {r["config_id"] for r in cap}
        assert names == {"antenna_plain", "antenna_precond",
                         "beamspace_plain", "beamspace_precond"}
        assert len(cap) == 4 * 2
        with open(os.path.join(default_run_dir, "cdf.csv")) as fh:
            cdf = list(csv.DictReader(fh))
        assert "exact" in {r["config_id"] for r in cdf}
        with open(os.path.join(default_run_dir, "run_meta.csv")) as fh:
            meta = list(csv.DictReader(fh))
        assert len(meta) == 4
        assert all(float(r["residual_fro"]) <= 1e-6 for r in meta)

    def test_rank_one_loading_sweeps(self, capsys, tmp_path,
                                     single_path_scenario):
        out_dir = str(tmp_path / "run")
        rc, _, _ = run_capture(capsys, ["sweep", single_path_scenario,
                                        "--out-dir", out_dir])
        assert rc == 0
        with open(os.path.join(out_dir, "run_meta.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(float(row["residual_fro"]) < 1e-6 for row in rows)

    def test_unreachable_eps_stops_at_attained_accuracy(self, capsys, tmp_path,
                                                        single_path_scenario):
        # run to the 10 N cap, an eps of 1e-20 drives these setups far past
        # their floor (plain antenna to residual 6.1, low-rank beamspace to
        # 1.6e-14); each one stops where it attains its accuracy instead and
        # says that it missed eps
        n = 16
        out_dir = str(tmp_path / "run")
        rc, stdout, _ = run_capture(capsys, ["sweep", single_path_scenario,
                                             "--eps", "1e-20",
                                             "--out-dir", out_dir])
        assert rc == 0
        with open(os.path.join(out_dir, "run_meta.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            assert int(row["iters_to_eps"]) < 10 * n / 4, row
            assert float(row["residual_fro"]) < 1e-14, row
        warnings = [line for line in stdout.splitlines()
                    if line.startswith("warning=")]
        assert warnings == [
            "warning=%s target 1e-20 not reached in %s iterations"
            % (row["config_id"], row["iters_to_eps"]) for row in rows]
        rc, stdout, _ = run_capture(capsys, ["sweep", single_path_scenario,
                                             "--out-dir", out_dir])
        assert rc == 0
        assert "warning" not in stdout

    def test_stop_iterations_stated_in_readme(self, capsys, tmp_path):
        # side 16, seed 101: the budget runs stop after 20, 3, 20 and 3
        # iterations and the runs at an unreachable eps after 23, 6, 23
        # and 6
        cfg_path = write_config(tmp_path / "s.cfg", "side = 16\nseed = 101\n")
        scen = str(tmp_path / "s.bslv")
        out_dir = str(tmp_path / "run")
        assert cli.run(["gen", cfg_path, scen]) == 0
        assert cli.run(["sweep", scen, "--eps", "1e-20",
                        "--out-dir", out_dir]) == 0
        capsys.readouterr()
        with open(os.path.join(out_dir, "capacity.csv")) as fh:
            stops = {}
            for row in csv.DictReader(fh):
                stops[row["config_id"]] = max(stops.get(row["config_id"], 0),
                                              int(row["iters"]))
        with open(os.path.join(out_dir, "run_meta.csv")) as fh:
            meta = list(csv.DictReader(fh))
        names = [row["config_id"] for row in meta]
        assert [stops[name] for name in names] == [20, 3, 20, 3]
        assert [int(row["iters_to_eps"]) for row in meta] == [23, 6, 23, 6]

    def test_longer_power_iteration_never_hurts_capacity(self, capsys, tmp_path,
                                                         mid_scenario):
        grid = write_config(tmp_path / "grid.cfg", "".join(
            "lr_q%d_p%d domain=antenna precond=lowrank q=%d p=%d\n"
            % (q, p, q, p) for q in (4, 8) for p in (1, 2, 4, 8)))
        out_dir = str(tmp_path / "grid_run")
        rc, _, _ = run_capture(capsys, ["sweep", mid_scenario,
                                        "--configs", grid,
                                        "--iters", "1,2,3,4",
                                        "--out-dir", out_dir])
        assert rc == 0
        with open(os.path.join(out_dir, "capacity.csv")) as fh:
            rows = list(csv.DictReader(fh))
        cap = {(r["config_id"], int(r["iters"])): float(r["capacity"])
               for r in rows}
        assert len(cap) == 8 * 4
        for budget in (1, 2, 3, 4):
            assert cap[("lr_q8_p8", budget)] >= cap[("lr_q8_p1", budget)]

    def test_rerun_is_byte_identical(self, capsys, tmp_path, mid_scenario,
                                     default_run_dir):
        again = str(tmp_path / "again")
        rc, _, _ = run_capture(capsys, ["sweep", mid_scenario,
                                        "--iters", "2,4", "--out-dir", again])
        assert rc == 0
        for name in sorted(os.listdir(default_run_dir)):
            first = open(os.path.join(default_run_dir, name), "rb").read()
            second = open(os.path.join(again, name), "rb").read()
            assert first == second, name

    def test_tables_match_einsum_oracle_to_rounding(self, capsys, tmp_path,
                                                    monkeypatch):
        # the batched scenario_gammas changed the low bits of the tables:
        # every non-float cell stays byte-identical to the einsum route and
        # every float cell agrees to 1e-12 relative
        cfg = write_config(tmp_path / "small.cfg",
                           "side = 4\nsubcarriers = 32\nseed = 3352\n")
        scen = str(tmp_path / "small.bslv")
        assert cli.run(["gen", cfg, scen]) == 0
        batched, oracle = str(tmp_path / "batched"), str(tmp_path / "oracle")
        assert cli.run(["sweep", scen, "--out-dir", batched]) == 0
        monkeypatch.setattr(cli, "scenario_gammas", helpers.einsum_gammas_oracle)
        monkeypatch.setattr(evaluation, "scenario_gammas",
                            helpers.einsum_gammas_oracle)
        assert cli.run(["sweep", scen, "--out-dir", oracle]) == 0
        capsys.readouterr()
        helpers.assert_sweep_tables_close(batched, oracle, rtol=1e-12)

    def test_tables_within_sinr_bound_of_direct_inverse(self, capsys, tmp_path):
        # every score of an iterate stays inside the SINR bound of its
        # spectral residual eps around the direct inverse's score, taken
        # both ways: gamma0 * L(eps) <= gamma <= gamma0 * (2 - L(eps))
        cfg_path = write_config(tmp_path / "small.cfg",
                                "side = 4\nsubcarriers = 32\nseed = 3352\n")
        scen = str(tmp_path / "small.bslv")
        out_dir = str(tmp_path / "run")
        assert cli.run(["gen", cfg_path, scen]) == 0
        assert cli.run(["sweep", scen, "--out-dir", out_dir]) == 0
        capsys.readouterr()
        cfg, stats, channels = load_scenario(scen)
        system_ant = assemble_q(stats)
        operator = build_operator(cfg.side)
        projectors = build_projectors(stats, 4)

        def gammas(x):
            return helpers.einsum_gammas_oracle(stats, channels, x, cfg.noise_psd,
                                                projectors=projectors)

        g0 = gammas(direct_inverse_oracle(system_ant.matrix))

        def interval(eps):
            low = check_sinr_bound(g0, g0, eps).rhs
            return low, 2.0 * g0 - low

        tables = {}
        for name in ("capacity.csv", "cdf.csv", "bound.csv", "run_meta.csv"):
            with open(os.path.join(out_dir, name)) as fh:
                tables[name] = list(csv.DictReader(fh))
        setups = {setup.name: setup for setup in cli._DEFAULT_SETUPS}
        for row in tables["capacity.csv"]:
            setup = setups[row["config_id"]]
            system = system_ant
            if setup.domain == "beamspace":
                system = to_beamspace(operator, system_ant)
            precond = cli._setup_preconditioner(system, setup, cfg.seed)
            state = cg_inverse(system, preconditioner=precond,
                               config=CGConfig(max_iters=int(row["iters"]),
                                               epsilon=1e-16))
            x = state.x
            if setup.domain == "beamspace":
                x = from_beamspace(operator, x, method="fft")
            gam = gammas(x)
            assert float(row["capacity"]) == pytest.approx(capacity(gam),
                                                           rel=1e-12)
            eps = inverse_error(system_ant, x)[1]
            if eps < 1.0:
                low, high = interval(eps)
                assert np.all((low <= gam) & (gam <= high)), row
        exact_db = np.sort(10.0 * np.log10(g0.reshape(-1)))
        # the sweep scores its exact reference with a LAPACK inverse; its
        # cdf.csv rows and every bound_rhs match the loop oracle's scores
        swept_exact = np.array([float(r["gamma_db"]) for r in tables["cdf.csv"]
                                if r["config_id"] == "exact"])
        np.testing.assert_allclose(10.0 ** (swept_exact / 10.0),
                                   np.sort(g0.reshape(-1)), rtol=1e-12, atol=0.0)
        bound_rows = tables["bound.csv"]
        assert bound_rows and len(bound_rows) % g0.size == 0
        for start in range(0, len(bound_rows), g0.size):
            probe = bound_rows[start:start + g0.size]
            assert len({r["epsilon"] for r in probe}) == 1
            rhs = check_sinr_bound(g0, g0, float(probe[0]["epsilon"])).rhs
            # rows run user by user over each user's flattened elements
            np.testing.assert_allclose([float(r["bound_rhs"]) for r in probe],
                                       rhs.reshape(-1), rtol=1e-12, atol=0.0)
        for row in tables["run_meta.csv"]:
            fro = float(row["residual_fro"])
            eps = float(row["residual_spectral"])
            assert 0.0 < fro < 1e-6
            assert eps <= np.sqrt(system_ant.matrix.shape[0]) * fro
            low, high = interval(eps)
            assert capacity(low) <= float(row["capacity"]) <= capacity(high)
            cdf_db = np.array([float(r["gamma_db"]) for r in tables["cdf.csv"]
                               if r["config_id"] == row["config_id"]])
            assert cdf_db.shape == exact_db.shape
            spread = np.max(1.0 - low / g0)
            # sorting keeps a per-stream relative band
            assert np.all(np.abs(10.0 ** ((cdf_db - exact_db) / 10.0) - 1.0)
                          <= spread), row["config_id"]
        for row in tables["bound.csv"]:
            assert float(row["margin"]) >= 0.0, row

    def test_bound_probe_tests_two_distinct_tolerances(self, capsys, tmp_path):
        # a preconditioned probe can meet both 0.1 and 0.01 at its first
        # iterate and write every bound row twice at one tiny eps
        cfg = write_config(tmp_path / "probe.cfg",
                           "side = 8\nsubcarriers = 64\nseed = 3301\n")
        scen = str(tmp_path / "probe.bslv")
        out_dir = str(tmp_path / "run")
        assert cli.run(["gen", cfg, scen]) == 0
        assert cli.run(["sweep", scen, "--out-dir", out_dir]) == 0
        capsys.readouterr()
        with open(os.path.join(out_dir, "bound.csv")) as fh:
            eps = {float(r["epsilon"]) for r in csv.DictReader(fh)}
        assert len(eps) == 2
        assert min(eps) >= 1e-3

    def test_bound_probe_iterates_equal_separate_runs(self):
        # one target sits where the recursive estimate lags the true
        # residual, so the first true residual below it is too early
        cfg = helpers.small_scenario_config()
        stats, channels = generate_scenario(cfg)
        system = assemble_q(stats)
        n = system.matrix.shape[0]
        _, eps = helpers.lagging_estimate_case(system)
        targets = (0.1, eps)
        _, probes = evaluation.capacity_vs_iterations(system, None, [],
                                                      targets)
        assert len(probes) == len(targets)
        for target, probe in zip(targets, probes):
            alone = cg_inverse(system, config=CGConfig(max_iters=10 * n,
                                                       epsilon=target))
            assert np.array_equal(probe["x"], alone.x), target

    def test_sketch_wider_than_the_array_is_config_error(self, capsys,
                                                         tmp_path):
        # at N = 4 a config line that asks for width 5 is rejected by name
        cfg = write_config(tmp_path / "tiny.cfg", "side = 2\nsubcarriers = 16\n")
        scen = str(tmp_path / "tiny.bslv")
        assert cli.run(["gen", cfg, scen]) == 0
        argv = ["sweep", scen, "--iters", "2", "--out-dir", str(tmp_path / "r")]
        configs = write_config(tmp_path / "plain.cfg", "a precond=none q=4\n")
        rc, _, _ = run_capture(capsys, argv + ["--configs", configs])
        assert rc == 0
        configs = write_config(tmp_path / "wide.cfg", "a precond=lowrank q=5\n")
        rc, _, stderr = run_capture(capsys, argv + ["--configs", configs])
        assert rc == 2 and "config a:" in stderr and "[1, 4]" in stderr

    def test_bad_config_entries_rejected(self, capsys, tmp_path, mid_scenario):
        bad_domain = write_config(tmp_path / "bad1.cfg", "a domain=fourier\n")
        rc, _, stderr = run_capture(capsys, ["sweep", mid_scenario,
                                             "--configs", bad_domain,
                                             "--iters", "2",
                                             "--out-dir", str(tmp_path / "r1")])
        assert rc == 2 and "fourier" in stderr
        duped = write_config(tmp_path / "bad2.cfg",
                             "a domain=antenna\na precond=none\n")
        rc, _, stderr = run_capture(capsys, ["sweep", mid_scenario,
                                             "--configs", duped,
                                             "--iters", "2",
                                             "--out-dir", str(tmp_path / "r2")])
        assert rc == 2 and "duplicate" in stderr


class TestReport:
    def test_summary_content(self, capsys, default_run_dir):
        rc, stdout, _ = run_capture(capsys, ["report", default_run_dir])
        assert rc == 0
        assert "solver configurations: 4" in stdout
        assert "saves" in stdout
        assert "capacity delta" in stdout
        assert "violations 0" in stdout
        ratios = {}
        for line in stdout.splitlines():
            if line.startswith("sparsity ratio"):
                domain = line.split("(")[1].split(",")[0]
                ratios[domain] = float(line.rsplit(":", 1)[1])
        assert ratios["beamspace"] > ratios["antenna"]

    def test_out_flag_writes_file(self, capsys, tmp_path, default_run_dir):
        out = str(tmp_path / "summary.txt")
        rc, stdout, _ = run_capture(capsys, ["report", default_run_dir,
                                             "--out", out])
        assert rc == 0
        assert stdout_fields(stdout)["out"] == out
        assert "solver configurations" in open(out).read()

    def test_empty_directory_is_not_an_error(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc, stdout, _ = run_capture(capsys, ["report", str(empty)])
        assert rc == 0
        assert "no runs found" in stdout

    def test_missing_directory_is_io_error(self, capsys, tmp_path):
        rc, _, stderr = run_capture(capsys, ["report",
                                             str(tmp_path / "nowhere")])
        assert rc == 4 and stderr

    def test_partial_run_directory_is_io_error(self, capsys, tmp_path,
                                               default_run_dir):
        partial = tmp_path / "partial"
        partial.mkdir()
        meta = open(os.path.join(default_run_dir, "run_meta.csv")).read()
        (partial / "run_meta.csv").write_text(meta)
        rc, _, stderr = run_capture(capsys, ["report", str(partial)])
        assert rc == 4 and stderr


# The README's exit-code contract: 0 success, 2 configuration problem
# (argparse usage errors included, and CRC-valid scenario files whose
# statistics are invalid), 3 numerical failure, 4 file I/O problem.
# {quiet} is a side-4 (N = 16) scenario, {tmp} a fresh directory holding
# one {name}.bslv copy of it per edit in helpers.INVALID_STATISTICS.
# the header-only tables of an empty sweep, and edits that report
# cannot read: (table, its bytes)
_SWEEP_HEADERS = {
    "run_meta.csv": b"config_id,domain,precond,q,p,iters_to_eps,residual_fro,"
                    b"residual_spectral,capacity\n",
    "capacity.csv": b"config_id,iters,capacity\n",
    "bound.csv": b"user,epsilon,gamma,bound_rhs,margin\n",
    "sparsity.csv": b"domain,threshold,sparsity_ratio\n",
}
_BAD_TABLES = {
    "missing-column": ("run_meta.csv",
                       b"config_id,domain,precond\na,antenna,none\n"),
    "not-a-number": ("capacity.csv", b"config_id,iters,capacity\na,2,x\n"),
    "not-utf8": ("bound.csv", b"user,epsilon,gamma,bound_rhs,margin\n"
                              b"\xff,0.1,1.0,1.0,0.0\n"),
}

_EXIT_CASES = [
    ("gen", ["gen", "{tmp}/ok.cfg", "{tmp}/g.bslv"], 0),
    ("invert", ["invert", "{quiet}", "--out", "{tmp}/x.inv"], 0),
    ("sweep", ["sweep", "{quiet}", "--iters", "0,1", "--out-dir", "{tmp}/r"], 0),
    ("report-empty", ["report", "{tmp}"], 0),
    ("report-header-only", ["report", "{tmp}/headers"], 0),
    ("no-subcommand", [], 2),
    ("eps-not-a-number", ["invert", "{quiet}", "--eps", "abc"], 2),
    ("gen-unknown-key", ["gen", "{tmp}/bad.cfg", "{tmp}/g.bslv"], 2),
    ("gen-not-utf8", ["gen", "{tmp}/latin1.cfg", "{tmp}/g.bslv"], 2),
    ("gen-degenerate-geometry", ["gen", "{tmp}/colinear.cfg", "{tmp}/g.bslv"],
     2),
    # the header stores the seed as u64 and the counts as u32
    ("gen-seed-2^64", ["gen", "{tmp}/ok.cfg", "{tmp}/g.bslv",
                       "--seed", "18446744073709551616"], 2),
    ("gen-count-2^32", ["gen", "{tmp}/wide.cfg", "{tmp}/g.bslv"], 2),
    # 10^310 overflows a float
    ("gen-snr-high-3100", ["gen", "{tmp}/loud.cfg", "{tmp}/g.bslv"], 2),
    # 10^-400 rounds to zero: the first user gets alpha 0, which assemble_q
    # rejects
    ("gen-snr-low-minus-4000", ["gen", "{tmp}/silent.cfg", "{tmp}/g.bslv"], 2),
    ("invert-q-0", ["invert", "{quiet}", "--q", "0"], 2),
    ("invert-eps-2", ["invert", "{quiet}", "--eps", "2"], 2),
    ("invert-eps-0", ["invert", "{quiet}", "--eps", "0"], 2),
    ("invert-max-iters-neg", ["invert", "{quiet}", "--max-iters", "-1"], 2),
    ("invert-max-iters-over-10n", ["invert", "{quiet}", "--max-iters", "161"], 2),
    ("sweep-iters-not-int", ["sweep", "{quiet}", "--iters", "2,x",
                             "--out-dir", "{tmp}/r"], 2),
    ("sweep-iters-over-10n", ["sweep", "{quiet}", "--iters", "999",
                              "--out-dir", "{tmp}/r"], 2),
    ("sweep-iters-neg", ["sweep", "{quiet}", "--iters", "2,-1",
                         "--out-dir", "{tmp}/r"], 2),
    ("sweep-eval-rank-99", ["sweep", "{quiet}", "--eval-rank", "99",
                            "--out-dir", "{tmp}/r"], 2),
    ("sweep-eval-rank-0", ["sweep", "{quiet}", "--eval-rank", "0",
                           "--out-dir", "{tmp}/r"], 2),
    ("sweep-eps-2", ["sweep", "{quiet}", "--eps", "2", "--out-dir", "{tmp}/r"], 2),
    ("sweep-config-q-0", ["sweep", "{quiet}", "--configs", "{tmp}/q0.sweep",
                          "--out-dir", "{tmp}/r"], 2),
    ("sweep-config-q-17", ["sweep", "{quiet}", "--configs", "{tmp}/q17.sweep",
                           "--out-dir", "{tmp}/r"], 2),
    ("sweep-config-q-65", ["sweep", "{quiet}", "--configs", "{tmp}/q65.sweep",
                           "--out-dir", "{tmp}/r"], 2),
    ("sweep-config-p-0", ["sweep", "{quiet}", "--configs", "{tmp}/p0.sweep",
                          "--out-dir", "{tmp}/r"], 2),
    ("sweep-configs-not-utf8", ["sweep", "{quiet}", "--configs",
                                "{tmp}/latin1.sweep", "--out-dir", "{tmp}/r"],
     2),
    ("sweep-config-unknown-precond", ["sweep", "{quiet}", "--configs",
                                      "{tmp}/jacobi.sweep",
                                      "--out-dir", "{tmp}/r"], 2),
] + [
    ("%s-%s" % (command, name), [command, "{tmp}/%s.bslv" % name] + extra, 2)
    for name in helpers.INVALID_STATISTICS
    for command, extra in (("invert", []), ("sweep", ["--out-dir", "{tmp}/r"]))
] + [
    ("invert-breakdown", ["invert", "{quiet}", "--out", "{tmp}/x.inv"], 3),
    ("sweep-breakdown", ["sweep", "{quiet}", "--iters", "1",
                         "--out-dir", "{tmp}/r"], 3),
    ("gen-missing-config", ["gen", "{tmp}/absent.cfg", "{tmp}/g.bslv"], 4),
    ("invert-missing-scenario", ["invert", "{tmp}/absent.bslv"], 4),
    ("invert-corrupt-scenario", ["invert", "{tmp}/corrupt.bslv"], 4),
    ("invert-oversized-path-block", ["invert", "{tmp}/oversized.bslv"], 4),
    ("sweep-oversized-path-block", ["sweep", "{tmp}/oversized.bslv",
                                    "--out-dir", "{tmp}/r"], 4),
    ("report-missing-dir", ["report", "{tmp}/nowhere"], 4),
] + [
    ("report-%s" % name, ["report", "{tmp}/%s" % name], 4)
    for name in _BAD_TABLES
]


@pytest.mark.parametrize("argv, code", [case[1:] for case in _EXIT_CASES],
                         ids=[case[0] for case in _EXIT_CASES])
def test_exit_code_contract(capsys, monkeypatch, tmp_path, quiet_scenario,
                            argv, code):
    (tmp_path / "ok.cfg").write_text("side = 4\nsubcarriers = 16\n")
    (tmp_path / "bad.cfg").write_text("side = 4\nantennas = 9\n")
    (tmp_path / "colinear.cfg").write_text(
        "side = 1\npaths_per_user = 2\nsubcarriers = 16\n")
    (tmp_path / "wide.cfg").write_text("side = 2\nsubcarriers = 4294967296\n")
    (tmp_path / "loud.cfg").write_text(
        "side = 2\nsubcarriers = 16\nsnr_db_high = 3100\n")
    (tmp_path / "silent.cfg").write_text(
        "side = 2\nsubcarriers = 16\nsnr_db_low = -4000\n")
    (tmp_path / "latin1.cfg").write_bytes(b"side = 4 # r\xe9seau\n")
    (tmp_path / "latin1.sweep").write_bytes(b"a precond=none # r\xe9seau\n")
    (tmp_path / "jacobi.sweep").write_text("a precond=jacobi\n")
    (tmp_path / "headers").mkdir()
    for table, header in _SWEEP_HEADERS.items():
        (tmp_path / "headers" / table).write_bytes(header)
    for name, (bad_table, text) in _BAD_TABLES.items():
        (tmp_path / name).mkdir()
        for table, header in _SWEEP_HEADERS.items():
            (tmp_path / name / table).write_bytes(
                text if table == bad_table else header)
    for name, sketch in (("q0", "q=0"), ("q17", "q=17"), ("q65", "q=65"),
                         ("p0", "p=0")):
        (tmp_path / ("%s.sweep" % name)).write_text(
            "lr domain=antenna precond=lowrank %s\n" % sketch)
    blob = bytearray(open(quiet_scenario, "rb").read())
    blob[40] ^= 0xFF
    (tmp_path / "corrupt.bslv").write_bytes(bytes(blob))
    (tmp_path / "oversized.bslv").write_bytes(helpers.oversized_path_block_bytes())
    loaded = load_scenario(quiet_scenario)
    for name in helpers.INVALID_STATISTICS:
        (tmp_path / ("%s.bslv" % name)).write_bytes(
            helpers.invalid_statistics_bytes(name, *loaded))
    if code == 3:
        def explode(*args, **kwargs):
            raise NumericalBreakdownError(3, "(surrogate failure)")
        monkeypatch.setattr(cli, "cg_inverse", explode)
        monkeypatch.setattr(evaluation, "cg_inverse", explode)
    argv = [arg.format(tmp=tmp_path, quiet=quiet_scenario) for arg in argv]
    try:
        rc = cli.run(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    assert rc == code
    if code:
        assert capsys.readouterr().err
        if argv and argv[0] == "gen":
            assert not os.path.exists(argv[2])


def test_unallocatable_config_is_a_config_error(capsys, monkeypatch, tmp_path):
    # stands in for a valid config whose arrays do not fit in memory
    def exhaust(cfg):
        raise MemoryError("Unable to allocate 596. GiB")
    monkeypatch.setattr(cli, "generate_scenario", exhaust)
    (tmp_path / "ok.cfg").write_text("side = 4\nsubcarriers = 16\n")
    out = tmp_path / "g.bslv"
    rc, _, err = run_capture(capsys, ["gen", str(tmp_path / "ok.cfg"), str(out)])
    assert rc == 2
    assert err.startswith("config error:") and "596. GiB" in err
    assert not out.exists()


def test_beamspace_overflow_is_a_numerical_failure(capsys, tmp_path,
                                                   quiet_scenario):
    # valid statistics and a finite Q, but its beamspace transform
    # overflows; SystemMatrix rejects the result
    cfg, stats, channels = load_scenario(quiet_scenario)
    stats[0].alpha = 1e307
    path = tmp_path / "loud.bslv"
    path.write_bytes(helpers.scenario_bytes(cfg, stats, channels))
    rc, _, err = run_capture(capsys, ["invert", str(path), "--domain",
                                      "beamspace", "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "non-finite" in err


def test_pipeline_reaches_no_oracle(capsys, monkeypatch, tmp_path):
    # the package holds no loop oracle (tests/test_package.py); the dense
    # DFT matrix it can still build must never be built by a run
    def forbidden(*args, **kwargs):
        raise AssertionError("the pipeline built the dense DFT matrix")
    monkeypatch.setattr(BeamspaceOperator, "f", property(forbidden))
    cfg = write_config(tmp_path / "small.cfg",
                       "side = 4\nsubcarriers = 32\nseed = 3352\n")
    scen = str(tmp_path / "small.bslv")
    assert cli.run(["gen", cfg, scen]) == 0
    for domain in ("antenna", "beamspace"):
        assert cli.run(["invert", scen, "--domain", domain,
                        "--out", str(tmp_path / "x.inv")]) == 0
    assert cli.run(["sweep", scen, "--out-dir", str(tmp_path / "run")]) == 0
    capsys.readouterr()
