"""Command-line interface: subcommands, exit codes, CSV determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ariscf import channel, cli, scenario
from ariscf.cli import main
from ariscf.sac.agent import SacConfig

from _instances import count_calls
from _reference import UnstackedSac, save_unstacked_checkpoint

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def run_cli(*argv):
    return main(list(argv))


def run_module(*argv):
    """`python -m ariscf.cli` in a subprocess, which shows the real stderr."""
    # the subprocess does not see pytest's pythonpath setting
    pythonpath = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ariscf.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": pythonpath})


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(
        "M: 2\nK: 2\nN_H: 2\nN_V: 2\nradius: 100.0\ntau_p: 2\n"
        "rho_dbm: 40.0\nrho_u_dbm: 20.0\na_max: 1.0e6\n")
    return str(path)


@pytest.fixture
def zero_rho_config(tmp_path):
    path = tmp_path / "zero_rho.yaml"
    path.write_text("M: 2\nK: 2\nN_H: 2\nN_V: 2\nradius: 150.0\ntau_p: 1\nrho: 0\n")
    return str(path)


@pytest.fixture
def train_config(tmp_path):
    path = tmp_path / "train.yaml"
    path.write_text(
        "M: 2\nK: 2\nN_H: 2\nN_V: 2\nradius: 150.0\ntau_p: 1\na_max: 1.0e6\n")
    return str(path)


class TestValidate:
    def test_default_small_config_passes(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli("validate", "--trials", "100000", "--seed", "1", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert "identity,empirical,analytic" in text
        assert ",FAIL" not in text
        assert "# config_sha256=" in text and "# master_seed=1" in text

    def test_underpowered_run_flagged_nonzero(self, tmp_path, small_config):
        out = tmp_path / "report.csv"
        code = run_cli("validate", "--config", small_config, "--trials", "10",
                       "--seed", "0", "--out", str(out))
        assert code == 1
        assert "authoritative=0" in out.read_text()

    def test_single_trial_gives_no_verdict(self, tmp_path, capsys):
        # one trial is one jackknife group: no row has an error bar or a verdict
        out = tmp_path / "report.csv"
        assert run_cli("validate", "--trials", "1", "--seed", "0", "--out", str(out)) == 1
        header, *rows = csv.reader(line for line in out.read_text().splitlines()
                                   if not line.startswith("#"))
        assert rows and {(r[header.index("stderr_rel")], r[header.index("status")])
                         for r in rows} == {("inf", "underpowered")}
        assert "FAIL" not in capsys.readouterr().err

    def test_corrupt_config_usage_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("M: 2\nnot_a_field: 3\n")
        out = tmp_path / "report.csv"
        code = run_cli("validate", "--config", str(bad), "--out", str(out))
        assert code == 2
        assert not out.exists()

    def test_unparseable_config_usage_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("{{{{")
        assert run_cli("validate", "--config", str(bad)) == 2


class TestSweep:
    def test_rows_sorted_and_complete(self, tmp_path, small_config):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--config", small_config, "--param", "rho",
                       "--values", "0.2,0.1", "--seeds", "2,1", "--out", str(out))
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "param_value,seed,sum_se,nmse_mean,a,ee,feasible"
        keys = [(float(l.split(",")[0]), int(l.split(",")[1])) for l in lines[1:]]
        assert keys == sorted(keys)
        assert len(keys) == 4

    def test_byte_identical_rerun_and_parallel(self, tmp_path, small_config):
        # an N_H sweep has one group per point; a rho_u sweep shares each
        # seed's group (and its traces) across the values
        for param, values, phases in (("N_H", "1,2,3", "equal"),
                                      ("rho_u", "0.01,0.1,1.0", "random")):
            outs = []
            for name, jobs in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
                out = tmp_path / f"{param}-{name}"
                code = run_cli("sweep", "--config", small_config, "--param", param,
                               "--values", values, "--seeds", "0,1", "--phases", phases,
                               "--jobs", jobs, "--out", str(out))
                assert code == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1] == outs[2]

    def test_pool_no_larger_than_the_groups(self, tmp_path, small_config, monkeypatch):
        # a process pool forks all its workers at its first submit: --jobs 64 over two
        # (geometry, seed) groups asks for two workers, and one group runs serially
        made = []

        class InProcessPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        outs = {}
        for jobs, seeds in (("1", "0,1"), ("64", "0,1"), ("64", "0")):
            out = tmp_path / f"{jobs}-{seeds}.csv"
            assert run_cli("sweep", "--config", small_config, "--param", "rho_u",
                           "--values", "0.01,0.1", "--seeds", seeds, "--jobs", jobs,
                           "--out", str(out)) == 0
            outs[jobs, seeds] = out.read_bytes()
        assert made == [2]
        assert outs["64", "0,1"] == outs["1", "0,1"]

    def test_zero_reflected_load_runs_at_a_max(self, tmp_path):
        # rho_u = sigma2_bar = 0: nothing is reflected, so the budget limits no gain;
        # with no circuit or backhaul power either, the total power is 0 as well,
        # which once ended the sweep in a ZeroDivisionError
        for extra in ("", "P0: 0\nP_c: 0\nP_dc: 0\n"):
            config = tmp_path / "zero_load.yaml"
            config.write_text("M: 2\nK: 2\nN_H: 2\nN_V: 2\nradius: 100.0\ntau_p: 2\n"
                              "rho_u: 0\nsigma2_bar: 0\na_max: 1.0e6\n" + extra)
            out = tmp_path / "sweep.csv"
            assert run_cli("sweep", "--config", str(config), "--param", "N_H", "--values", "2,3",
                           "--out", str(out)) == 0
            header, *rows = csv.reader(line for line in out.read_text().splitlines()
                                       if not line.startswith("#"))
            assert len(rows) == 2
            assert {float(r[header.index("a")]) for r in rows} == {1.0e6}
            assert {float(r[header.index("ee")]) for r in rows} == {0.0}

    def test_repeated_values_and_seeds_keep_their_rows(self, tmp_path, small_config):
        # four points of one (geometry, seed) group give four equal rows
        rows = {}
        for values, seeds in (("0.1", "0"), ("0.1,0.1", "0,0")):
            out = tmp_path / f"{values}-{seeds}.csv"
            assert run_cli("sweep", "--config", small_config, "--param", "rho_u",
                           "--values", values, "--seeds", seeds, "--phases", "random",
                           "--out", str(out)) == 0
            rows[values] = [l for l in out.read_text().splitlines()
                            if not l.startswith(("#", "param_value"))]
        assert len(rows["0.1"]) == 1
        assert rows["0.1,0.1"] == rows["0.1"] * 4

    def test_infeasible_value_flagged(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        # budget below per-element circuit power once N is large
        cfg.write_text("M: 2\nK: 2\nN_H: 2\nN_V: 2\nP_aris: 0.001\ntau_p: 2\n")
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--config", str(cfg), "--param", "N_H",
                       "--values", "1,32", "--seeds", "0", "--out", str(out))
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith(("#", "param"))]
        flags = {int(r[0]): r[6] for r in rows}
        amps = {int(r[0]): float(r[4]) for r in rows}
        assert flags[32] == "0" and amps[32] == 0.0
        assert flags[1] == "1"

    def test_unknown_param_usage_error(self, small_config):
        assert run_cli("sweep", "--config", small_config, "--param", "nope",
                       "--values", "1") == 2

    def test_integral_float_for_integer_field(self, tmp_path):
        # a config takes N_H: 2.0, so the sweep does; it once exited 2
        config = os.path.join(CONFIG_DIR, "small.yaml")
        outs = []
        for values in ("2", "2.0"):
            out = tmp_path / f"{values}.csv"
            assert run_cli("sweep", "--config", config, "--param", "N_H", "--values", values,
                           "--seeds", "0,1", "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def _rows(self, path):
        return [l.split(",") for l in Path(path).read_text().splitlines()
                if not l.startswith(("#", "param_value"))]

    def test_dbm_param_matches_watts(self, tmp_path):
        # 10 and 30 dBm are 0.01 and 1.0 W exactly, so only the labels differ
        assert (scenario.dbm_to_watt(10.0), scenario.dbm_to_watt(30.0)) == (0.01, 1.0)
        config = os.path.join(CONFIG_DIR, "default.yaml")
        rows = {}
        for param, values in (("rho_u_dbm", "10,30"), ("rho_u", "0.01,1.0")):
            out = tmp_path / f"{param}.csv"
            assert run_cli("sweep", "--config", config, "--param", param, "--values", values,
                           "--seeds", "0,1", "--out", str(out)) == 0
            rows[param] = self._rows(out)
        assert [r[0] for r in rows["rho_u_dbm"]] == ["10.0", "10.0", "30.0", "30.0"]
        assert [r[1:] for r in rows["rho_u_dbm"]] == [r[1:] for r in rows["rho_u"]]

    def test_carrier_frequency_param(self, tmp_path, small_config):
        # carrier_frequency sets the wavelength, as in a config
        rows = {}
        for param, value in (("carrier_frequency", "3.5e9"),
                             ("wavelength", repr(scenario.SPEED_OF_LIGHT / 3.5e9))):
            out = tmp_path / f"{param}.csv"
            assert run_cli("sweep", "--config", small_config, "--param", param,
                           "--values", value, "--seeds", "0,1", "--out", str(out)) == 0
            rows[param] = self._rows(out)
        assert [r[0] for r in rows["carrier_frequency"]] == ["3500000000.0"] * 2
        assert [r[1:] for r in rows["carrier_frequency"]] == [r[1:] for r in rows["wavelength"]]

    # (key, text, accepted): entries of a config and of `sweep --param key --values text`
    CONFIG_ENTRIES = [
        ("N_H", "3", True), ("N_H", "3.0", True), ("N_H", "3e0", True), ("N_H", "2.5", False),
        ("N_H", "0", False), ("N_H", "x", False), ("tau_p", "20", True),
        ("tau_p", "500", False), ("rho_u", "0.01", True), ("rho_u", "nan", False),
        ("rho_u", "true", False), ("rho", "0", False), ("rho_u_dbm", "10", True),
        ("sigma2_bar_dbm", "-90.5", True), ("rho_u_dbm", "inf", False),
        ("N_H_dbm", "10", False), ("carrier_frequency", "3.5e9", True),
        ("carrier_frequency", "0", False), ("carrier_frequency", "-1e9", False),
        ("d_H", "0.05", True), ("xi", "1.5", False), ("Pbt", "-1e-3", False),
        ("nope", "1", False),
    ]

    @pytest.mark.parametrize("key,text,accepted", CONFIG_ENTRIES)
    def test_sweep_takes_what_a_config_takes(self, key, text, accepted, tmp_path, capsys):
        try:
            scenario.scenario_from_dict({key: text})
            loads = True
        except ValueError:
            loads = False
        assert loads == accepted
        out = tmp_path / "out.csv"
        code = run_cli("sweep", "--param", key, f"--values={text}", "--out", str(out))
        err = capsys.readouterr().err.splitlines()
        if accepted:
            assert code == 0 and len(self._rows(out)) == 1
        else:
            assert code == 2 and not out.exists()
            assert len(err) == 1 and err[0].startswith(f"error: --param {key} "), err

    @pytest.mark.parametrize("value", ["row_major", "paper", "1.0"])
    def test_grid_indexing_not_swept(self, value, tmp_path, small_config, capsys):
        # a row is labelled by its number, and grid_indexing is a name
        out = tmp_path / "out.csv"
        code = run_cli("sweep", "--config", small_config, "--param", "grid_indexing",
                       "--values", value, "--out", str(out))
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and not out.exists()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_trained_phases_require_matching_size(self, tmp_path, train_config):
        ckpt = tmp_path / "ckpt.npz"
        out = tmp_path / "curve.csv"
        assert run_cli("train", "--config", train_config, "--seed", "1",
                       "--episodes", "2", "--steps", "40", "--out", str(out),
                       "--checkpoint", str(ckpt)) == 0
        sweep_out = tmp_path / "s.csv"
        code = run_cli("sweep", "--config", train_config, "--param", "rho",
                       "--values", "0.1", "--seeds", "0",
                       "--phases", f"trained:{ckpt}", "--out", str(sweep_out))
        assert code == 0
        # mismatched N must be a usage error
        code = run_cli("sweep", "--config", train_config, "--param", "N_H",
                       "--values", "3", "--seeds", "0",
                       "--phases", f"trained:{ckpt}", "--out", str(sweep_out))
        assert code == 2

    def test_trained_checkpoint_loaded_once_per_sweep(self, monkeypatch, tmp_path, train_config):
        ckpt = tmp_path / "ckpt.npz"
        assert run_cli("train", "--config", train_config, "--episodes", "2", "--steps", "40",
                       "--out", str(tmp_path / "curve.csv"), "--checkpoint", str(ckpt)) == 0
        loads = count_calls(monkeypatch, cli, "load_checkpoint")
        assert run_cli("sweep", "--config", train_config, "--param", "rho",
                       "--values", "0.1,0.2", "--seeds", "0,1", "--phases", f"trained:{ckpt}",
                       "--out", str(tmp_path / "s.csv")) == 0
        assert len(loads) == 1

    def test_unstacked_checkpoint_drives_trained_sweep(self, tmp_path, train_config):
        # a version-1 checkpoint written from four separate networks gives the
        # same sweep rows as one that `train` writes with the same phases, and
        # so does one whose networks observed the phases plus the M*K estimate
        # variances (obs_dim N + M*K, as `train` wrote before obs_dim became N)
        new, old, wide = tmp_path / "new.npz", tmp_path / "old.npz", tmp_path / "wide.npz"
        assert run_cli("train", "--config", train_config, "--episodes", "2", "--steps", "40",
                       "--out", str(tmp_path / "curve.csv"), "--checkpoint", str(new)) == 0
        sc = scenario.load_scenario(train_config)
        with np.load(new) as ckpt:
            n = int(ckpt["act_dim"])
            assert int(ckpt["obs_dim"]) == n == sc.N
            ref = UnstackedSac(n, n, SacConfig(), seed=0)
            save_unstacked_checkpoint(str(old), ref, ckpt["best_phases"], 0.0, 0)
            ref = UnstackedSac(n + sc.M * sc.K, n, SacConfig(), seed=0)
            save_unstacked_checkpoint(str(wide), ref, ckpt["best_phases"], 0.0, 0)
        rows = []
        for path in (new, old, wide):
            out = tmp_path / f"{path.stem}.csv"
            assert run_cli("sweep", "--config", train_config, "--param", "rho", "--values",
                           "0.1,0.2", "--seeds", "0,1", "--phases", f"trained:{path}",
                           "--out", str(out)) == 0
            rows.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
        assert len(rows[0]) == 5 and rows[0] == rows[1] == rows[2]


class TestSweepTrends:
    def _column(self, path, name):
        lines = [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        idx = header.index(name)
        return [(float(l.split(",")[0]), int(l.split(",")[1]), float(l.split(",")[idx]))
                for l in lines[1:]]

    def test_random_phases_deterministic_per_seed(self, tmp_path, small_config):
        vals = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert run_cli("sweep", "--config", small_config, "--param", "rho",
                           "--values", "0.1", "--seeds", "3,4", "--phases", "random",
                           "--out", str(out)) == 0
            vals.append(out.read_bytes())
        assert vals[0] == vals[1]
        rows = self._column(str(tmp_path / "r1.csv"), "sum_se")
        assert rows[0][2] != rows[1][2]  # different seeds draw different phases

    def test_prelog_flag_scales_sum_se(self, tmp_path, small_config):
        outs = {}
        for flag in (False, True):
            out = tmp_path / f"p{flag}.csv"
            argv = ["sweep", "--config", small_config, "--param", "rho",
                    "--values", "0.1", "--seeds", "0", "--out", str(out)]
            if flag:
                argv.append("--prelog")
            assert run_cli(*argv) == 0
            outs[flag] = self._column(str(out), "sum_se")[0][2]
        # tau_p = 2, tau_c = 200 -> factor 0.99
        assert outs[True] == pytest.approx(outs[False] * (1 - 2 / 200), rel=1e-12)

    def test_rho_sweep_contaminated_nmse_floor(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("M: 2\nK: 4\nN_H: 2\nN_V: 2\nradius: 150.0\ntau_p: 2\na_max: 1.0e+6\n")
        out = tmp_path / "rho.csv"
        values = ",".join(repr(float(v)) for v in np.logspace(-4, 4, 9))
        assert run_cli("sweep", "--config", str(cfg), "--param", "rho",
                       "--values", values, "--seeds", "0", "--out", str(out)) == 0
        rows = sorted(self._column(str(out), "nmse_mean"))
        nmse = [r[2] for r in rows]
        assert all(a >= b for a, b in zip(nmse, nmse[1:]))
        # plateaus above zero: the shared pilots leave a contamination floor
        assert nmse[-1] > 0.05
        assert nmse[-2] - nmse[-1] < 0.01 * nmse[-1]

    def test_m_sweep_seed_average_increases(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("M: 2\nK: 4\nN_H: 2\nN_V: 2\nradius: 300.0\ntau_p: 2\na_max: 10.0\n")
        out = tmp_path / "m.csv"
        assert run_cli("sweep", "--config", str(cfg), "--param", "M",
                       "--values", "2,4,6,8,12,16,20", "--seeds", ",".join(map(str, range(8))),
                       "--out", str(out)) == 0
        rows = self._column(str(out), "sum_se")
        means = {}
        for value, seed, se in rows:
            means.setdefault(value, []).append(se)
        ordered = [np.mean(means[v]) for v in sorted(means)]
        assert all(a < b for a, b in zip(ordered, ordered[1:]))


class TestTrain:
    def test_zero_episodes_baseline_only(self, tmp_path, train_config):
        out = tmp_path / "curve.csv"
        code = run_cli("train", "--config", train_config, "--episodes", "0",
                       "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert "baseline_equal_sum_se=" in text
        assert text.strip().splitlines()[-1] == "episode,cumulative_reward"

    def test_zero_episodes_writes_no_checkpoint_and_says_so(self, tmp_path, train_config,
                                                           capsys):
        # no training ran, so there are no weights: a later `--phases trained:`
        # on the path would fail with "cannot load checkpoint"
        ckpt = tmp_path / "model.npz"
        for checkpoint, stderr in (([], []), (["--checkpoint", str(ckpt)],
                                              ["no checkpoint written: --episodes 0 "
                                               "runs no training"])):
            assert run_cli("train", "--config", train_config, "--episodes", "0",
                           "--out", str(tmp_path / "curve.csv"), *checkpoint) == 0
            captured = capsys.readouterr()
            assert captured.err.splitlines() == stderr
            assert captured.out.startswith("baseline equal-phase sum SE: ")
        assert not ckpt.exists()

    def test_learning_curve_byte_identical(self, tmp_path, train_config):
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            code = run_cli("train", "--config", train_config, "--seed", "9",
                           "--episodes", "2", "--steps", "40", "--out", str(out))
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_checkpoint_written_at_exact_path(self, tmp_path, train_config):
        # np.savez given a path adds ".npz": `--checkpoint ck/model` once wrote
        # ck/model.npz, and `--phases trained:ck/model` then exited 2
        ckpt = tmp_path / "ck" / "model"
        ckpt.parent.mkdir()
        assert run_cli("train", "--config", train_config, "--episodes", "2", "--steps", "40",
                       "--out", str(tmp_path / "curve.csv"), "--checkpoint", str(ckpt)) == 0
        assert [p.name for p in ckpt.parent.iterdir()] == ["model"]
        assert run_cli("sweep", "--config", train_config, "--param", "rho", "--values", "0.1",
                       "--phases", f"trained:{ckpt}", "--out", str(tmp_path / "s.csv")) == 0

    def test_run_without_update_says_so(self, tmp_path, train_config):
        # 10 steps never fill the default batch of 64, so the policy is never updated;
        # a run that reaches the batch prints nothing on stderr
        short = run_module("train", "--config", train_config, "--episodes", "1", "--steps", "10",
                           "--out", str(tmp_path / "short.csv"))
        assert short.returncode == 0
        assert short.stderr.splitlines() == [
            "no gradient update: 10 steps never reached the batch of 64"], short.stderr
        assert short.stdout.startswith("best sum SE found: ")
        full = run_module("train", "--config", train_config, "--episodes", "2", "--steps", "40",
                          "--out", str(tmp_path / "full.csv"))
        assert full.returncode == 0 and full.stderr == "", full.stderr

    def test_exhausted_budget_says_so(self, tmp_path, train_config):
        # circuit and DC power exceed the budget: a = 0, the RIS is off and
        # every phase vector gives one sum SE, so the reward is constant
        config = tmp_path / "exhausted.yaml"
        config.write_text(Path(train_config).read_text() + "P_aris: 0.001\n")
        out = tmp_path / "curve.csv"
        proc = run_module("train", "--config", str(config), "--episodes", "2", "--steps", "40",
                          "--out", str(out))
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            "active-RIS power budget exhausted (a = 0): every phase vector gives the "
            "same sum SE, so training sees a constant reward"], proc.stderr
        assert proc.stdout.startswith("best sum SE found: ")
        rewards = [l.split(",")[1] for l in out.read_text().splitlines()
                   if not l.startswith(("#", "episode"))]
        assert len(rewards) == 2 and rewards[0] == rewards[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, train_config):
        out = tmp_path / "curve.csv"
        code = run_cli("train", "--config", train_config, "--seed", "0",
                       "--episodes", "1", "--steps", "200", "--lr", "1e24",
                       "--out", str(out))
        assert code == 3
        diag = np.load(tmp_path / "curve.csv.diverged.npz")
        assert {"policy", "q1", "q2", "value"} <= set(diag.files)
        for net in ("policy", "q1", "q2", "value"):
            assert not np.isfinite(diag[f"losses_{net}"])


    def test_divergence_prints_one_stderr_line(self, tmp_path):
        # numpy's overflow warnings on the way to divergence stay off stderr
        proc = run_module("train", "--config", os.path.join(CONFIG_DIR, "train_small.yaml"),
                          "--episodes", "1", "--steps", "150", "--lr", "1e24",
                          "--out", str(tmp_path / "curve.csv"))
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("training diverged:"), proc.stderr


# Each command's output-path flag, with what the command needs to run.
OUTPUT_FLAGS = pytest.mark.parametrize("argv,flag", [
    (["validate", "--trials", "10"], "--out"),
    (["sweep", "--config", "{small}", "--param", "rho", "--values", "0.1"], "--out"),
    (["train", "--config", "{train}", "--episodes", "1", "--steps", "5"], "--out"),
    (["train", "--config", "{train}", "--episodes", "1", "--steps", "5",
      "--out", "{curve}"], "--checkpoint"),
], ids=["validate-out", "sweep-out", "train-out", "train-checkpoint"])


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--config", "{small}", "--param", "rho", "--values", "0.1", "--seeds", "x"],
        ["sweep", "--config", "{small}", "--param", "rho", "--values", "0.1",
         "--phases", "trained:{missing}"],
        ["validate", "--trials", "0"],
        ["validate", "--trials", "-5"],
        ["train", "--config", "{train}", "--steps", "0"],
        ["train", "--config", "{train}", "--episodes", "-1"],
        ["train", "--config", "{train}", "--lr", "-1"],
        ["sweep", "--config", "{default}", "--param", "N_H", "--values", "0", "--seeds", "0"],
        ["sweep", "--config", "{default}", "--param", "tau_p", "--values", "500"],
        ["sweep", "--config", "{small}", "--param", "N_H", "--values", "2,0", "--jobs", "2"],
        ["validate", "--seed", "-1"],
        ["train", "--config", "{train}", "--seed", "-1"],
        ["sweep", "--config", "{small}", "--param", "rho", "--values", "0.1", "--seeds", "-1"],
        ["sweep", "--config", "{small}", "--param", "rho", "--values", "0.1", "--jobs", "0"],
        ["sweep", "--config", "{small}", "--param", "rho", "--values", "0.1", "--jobs", "-2"],
        ["train", "--config", "{train}", "--episodes", "0", "--steps", "-5"],
        ["train", "--config", "{train}", "--episodes", "0", "--lr", "-1"],
        ["sweep", "--config", "{small}", "--param", "rho_u", "--values", "nan"],
        ["train", "--config", "{train}", "--episodes", "1", "--steps", "100", "--lr", "nan"],
        ["train", "--config", "{train}", "--episodes", "1", "--steps", "100", "--lr", "inf"],
        ["sweep", "--config", "{default}", "--param", "Pbt", "--values=-1e-3", "--seeds", "0"],
        ["sweep", "--config", "{shipped_small}", "--param", "rho", "--values", "0"],
        ["train", "--config", "{zero_rho}", "--episodes", "0"],
    ], ids=["seeds-x", "trained-missing", "trials-0", "trials-negative", "steps-0",
            "episodes-negative", "lr-negative", "n_h-0", "tau_p-above-tau_c",
            "bad-value-after-good", "validate-seed-negative", "train-seed-negative",
            "sweep-seed-negative", "jobs-0", "jobs-negative", "baseline-steps-negative",
            "baseline-lr-negative", "value-nan", "lr-nan", "lr-inf", "pbt-negative",
            "sweep-rho-0", "train-rho-0"])
    def test_bad_input_exits_usage(self, argv, tmp_path, small_config, train_config,
                                   zero_rho_config, capsys):
        # rho = 0 leaves LMMSE without pilot power: it once gave NaN SE with exit 0
        paths = {"small": small_config, "train": train_config, "zero_rho": zero_rho_config,
                 "default": os.path.join(CONFIG_DIR, "default.yaml"),
                 "shipped_small": os.path.join(CONFIG_DIR, "small.yaml"),
                 "missing": str(tmp_path / "missing.npz")}
        out = tmp_path / "out.csv"
        code = run_cli(*(arg.format(**paths) for arg in argv), "--out", str(out))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not out.exists()

    @OUTPUT_FLAGS
    def test_missing_output_directory_exits_usage(self, argv, flag, tmp_path, small_config,
                                                  train_config, capsys):
        # refused before any work, so no file is written
        paths = {"small": small_config, "train": train_config,
                 "curve": str(tmp_path / "curve.csv")}
        target = tmp_path / "missing" / "out"
        code = run_cli(*(arg.format(**paths) for arg in argv), flag, str(target))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: {flag} "), err
        assert not target.parent.exists() and not (tmp_path / "curve.csv").exists()

    @OUTPUT_FLAGS
    def test_output_path_is_directory_exits_usage(self, argv, flag, tmp_path, small_config,
                                                  train_config, capsys):
        # --out once ran all the work, then died in an IsADirectoryError traceback
        # with exit 1; --checkpoint silently wrote <dir>.npz with exit 0
        paths = {"small": small_config, "train": train_config,
                 "curve": str(tmp_path / "curve.csv")}
        target = tmp_path / "outdir"
        target.mkdir()
        code = run_cli(*(arg.format(**paths) for arg in argv), flag, str(target))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: {flag} "), err
        assert not any(target.iterdir()) and not (tmp_path / "curve.csv").exists()
        assert not (tmp_path / "outdir.npz").exists()

    @pytest.mark.parametrize("damage", ["truncated", "npy", "version-shape", "config-extra-key",
                                        "phases-2d", "phases-nan"])
    def test_unreadable_checkpoint_exits_usage(self, damage, tmp_path, train_config, capsys):
        # each once ended in a traceback with exit 1
        ckpt = tmp_path / "ckpt.npz"
        assert run_cli("train", "--config", train_config, "--episodes", "2", "--steps", "40",
                       "--out", str(tmp_path / "curve.csv"), "--checkpoint", str(ckpt)) == 0
        if damage == "truncated":
            ckpt.write_bytes(ckpt.read_bytes()[:3000])
        elif damage == "npy":
            with np.load(ckpt) as data:
                phases = data["best_phases"]
            with open(ckpt, "wb") as fh:
                np.save(fh, phases)
        else:
            with np.load(ckpt) as data:
                arrays = dict(data)
            if damage == "version-shape":
                arrays["version"] = np.array([arrays["version"]] * 2)
            elif damage == "config-extra-key":
                config = json.loads(str(arrays["config_json"]))
                arrays["config_json"] = np.array(json.dumps({**config, "bogus": 1}))
            elif damage == "phases-2d":
                arrays["best_phases"] = arrays["best_phases"].reshape(2, -1)  # size still N
            else:
                arrays["best_phases"] = np.full_like(arrays["best_phases"], np.nan)
            np.savez(ckpt, **arrays)
        capsys.readouterr()
        out = tmp_path / "out.csv"
        code = run_cli("sweep", "--config", train_config, "--param", "rho", "--values", "0.1",
                       "--phases", f"trained:{ckpt}", "--out", str(out))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["1", "true"])
    @pytest.mark.parametrize("command", [["validate", "--trials", "10"],
                                         ["sweep", "--param", "rho", "--values", "0.1"],
                                         ["train", "--episodes", "0"]],
                             ids=["validate", "sweep", "train"])
    def test_non_string_config_key_exits_usage(self, command, key, tmp_path, capsys):
        # YAML reads these keys as an int and a bool; each once ended in an
        # AttributeError traceback with exit 1
        config = tmp_path / "key.yaml"
        config.write_text(f"M: 2\n{key}: 2\n")
        out = tmp_path / "out.csv"
        code = run_cli(*command, "--config", str(config), "--out", str(out))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ") and "unknown config key" in err[0], err
        assert not out.exists()

    def test_negative_pbt_in_config_exits_usage(self, tmp_path, capsys):
        config = tmp_path / "neg_pbt.yaml"
        config.write_text("M: 2\nK: 2\nN_H: 2\nN_V: 2\nPbt: -1.0e-3\n")
        out = tmp_path / "out.csv"
        code = run_cli("sweep", "--config", str(config), "--param", "rho", "--values", "0.1",
                       "--seeds", "0", "--out", str(out))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ") and "Pbt must be >= 0" in err[0], err
        assert not out.exists()


class TestEvaluationCost:
    def test_sweep_point_computes_stats_once(self, monkeypatch, small_config):
        stats_calls = count_calls(monkeypatch, channel, "compute_stats")
        factor_calls = count_calls(monkeypatch, scenario, "psd_factor")
        assert run_cli("sweep", "--config", small_config, "--param", "rho",
                       "--values", "0.1,0.2", "--seeds", "0,1") == 0
        assert len(stats_calls) == 4
        assert factor_calls == []

    @pytest.mark.parametrize("param,values,traces", [
        ("rho", "0.1,0.2", 2),     # one (geometry, seed) group per seed
        ("N_H", "1,2", 4),         # one group per point
    ])
    def test_sweep_computes_traces_once_per_group(self, monkeypatch, small_config,
                                                  param, values, traces):
        # computations are the trace cache's misses; its lookups are not counted
        stats_calls = count_calls(monkeypatch, channel, "compute_stats")
        channel.phase_traces.cache_clear()
        assert run_cli("sweep", "--config", small_config, "--param", param,
                       "--values", values, "--seeds", "0,1", "--phases", "random") == 0
        assert channel.phase_traces.cache_info().misses == traces
        assert len(stats_calls) == 4

    def test_train_never_factors_r(self, monkeypatch, tmp_path, train_config):
        factor_calls = count_calls(monkeypatch, scenario, "psd_factor")
        assert run_cli("train", "--config", train_config, "--episodes", "1", "--steps", "5",
                       "--out", str(tmp_path / "curve.csv")) == 0
        assert factor_calls == []


class TestEntryPoint:
    def test_module_invocation(self, small_config):
        proc = run_module("sweep", "--config", small_config,
                          "--param", "rho", "--values", "0.1", "--seeds", "0")
        assert proc.returncode == 0
        assert "param_value,seed" in proc.stdout

    def test_usage_error_missing_subcommand_args(self):
        assert run_cli("sweep") == 2
