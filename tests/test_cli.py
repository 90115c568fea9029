import csv
import io
import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import blockgmm
from blockgmm import cli, inference, simstudy
from blockgmm.combine import _BLOCK_TABLE, load_bundle
from blockgmm.dataio import Dataset
from blockgmm.errors import SolverError

from conftest import make_ar1_design, near_unit_root_dataset, too_few_subjects


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    """Small long-format CSV written from a simulated dataset."""
    design = make_ar1_design(N=80, M=8, J=2, K=2, seed=55)
    path = tmp_path_factory.mktemp("data") / "panel.csv"
    write_panel_csv(simstudy.generate(design, 0), path)
    return path


def write_panel_csv(data, path):
    """Long-format CSV of a three-covariate dataset, round-trip precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["subject_id", "response_index", "y", "x_1", "x_2", "x_3"]
        )
        for i, sid in enumerate(data.subject_ids):
            for t in range(data.M):
                writer.writerow(
                    [sid, t + 1, "%.17g" % data.responses[i, t]]
                    + ["%.17g" % v for v in data.covariates[i, t]]
                )


def run(argv):
    return cli.main([str(a) for a in argv])


# every block of data_csv at J = K = 2 after one iteration towards tol 1e-16
UNCONVERGED = [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestFitCommand:
    def test_fit_writes_expected_outputs(self, data_csv, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["fit", "--input", data_csv, "--J", 2, "--K", 2,
             "--group-strategy", "contiguous", "--out", out]
        )
        assert code == 0
        for name in ("estimates.csv", "overid.txt", "bundle.zip", "config.txt"):
            assert (out / name).exists()
        with open(out / "estimates.csv") as fh:
            rows = list(csv.DictReader(fh))
        names = [r["name"] for r in rows]
        assert names[:3] == ["theta_1", "theta_2", "theta_3"]
        assert len(rows) == 3 + 2 * 2 * 2  # p + d_jk summed over 4 blocks
        assert all(float(r["ase"]) > 0 for r in rows)
        overid = (out / "overid.txt").read_text()
        assert "df = 9" in overid

    def test_reruns_are_byte_identical(self, data_csv, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(
                ["fit", "--input", data_csv, "--J", 2, "--K", 2,
                 "--group-strategy", "seeded-random", "--seed", 7, "--out", out]
            ) == 0
            outs.append(out)
        a, b = outs
        assert (a / "estimates.csv").read_bytes() == (b / "estimates.csv").read_bytes()
        assert (a / "overid.txt").read_bytes() == (b / "overid.txt").read_bytes()
        assert (a / "bundle.zip").read_bytes() == (b / "bundle.zip").read_bytes()

    def test_worker_counts_do_not_change_outputs(self, data_csv, tmp_path):
        outs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert run(
                ["fit", "--input", data_csv, "--J", 2, "--K", 2,
                 "--group-strategy", "contiguous", "--workers", workers,
                 "--out", out]
            ) == 0
            outs.append(out)
        a, b = outs
        assert (a / "estimates.csv").read_bytes() == (b / "estimates.csv").read_bytes()
        assert (a / "bundle.zip").read_bytes() == (b / "bundle.zip").read_bytes()

    def test_single_block_fit_equals_block_solution(self, data_csv, tmp_path):
        out = tmp_path / "single"
        assert run(
            ["fit", "--input", data_csv, "--J", 1, "--K", 1, "--out", out]
        ) == 0
        from blockgmm.dataio import load_long_csv
        from blockgmm.engines import fit_block
        from blockgmm.partition import make_plan, split

        data = load_long_csv(data_csv)
        plan = make_plan(data.M, data.N, 1, 1, strategy="seeded-random", seed=0)
        block = split(data, plan)[(0, 0)]
        direct = fit_block(block, "gee-ar1")
        with open(out / "estimates.csv") as fh:
            rows = {r["name"]: float(r["estimate"]) for r in csv.DictReader(fh)}
        np.testing.assert_allclose(
            [rows["theta_1"], rows["theta_2"], rows["theta_3"]],
            direct.theta_hat,
            atol=1e-8,
        )
        assert "p_value = n/a" in (out / "overid.txt").read_text()

    def test_missing_input_is_exit_1(self, tmp_path):
        assert run(["fit", "--out", tmp_path / "x"]) == 1
        assert run(
            ["fit", "--input", tmp_path / "nope.csv", "--out", tmp_path / "y"]
        ) == 1

    @pytest.mark.parametrize("strategy", ["contiguous", "seeded-random"])
    def test_negative_seed_is_exit_1(self, data_csv, tmp_path, capsys, strategy):
        assert run(
            ["fit", "--input", data_csv, "--J", 2, "--K", 2, "--group-strategy", strategy,
             "--seed", -1, "--out", tmp_path / "out"]
        ) == 1
        assert "fit: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_unconverged_block_is_exit_2(self, data_csv, tmp_path, capsys):
        cfg = tmp_path / "strict.cfg"
        cfg.write_text(f"input = {data_csv}\ntol = 1e-16\nmax_iter = 1\n")
        out = tmp_path / "strict-out"
        assert run(["fit", "--config", cfg, "--J", 2, "--K", 2, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"fit: blocks {UNCONVERGED} did not converge (pass allow_unconverged, "
            "or --allow-unconverged on the command line, to combine anyway)\n"
        )
        assert not out.exists()
        out2 = tmp_path / "strict-out2"
        assert run(
            ["fit", "--config", cfg, "--J", 2, "--K", 2, "--out", out2,
             "--allow-unconverged"]
        ) == 0

    def test_clamped_rho_is_exit_2(self, tmp_path):
        # the GEE AR(1) moment estimate of rho lands beyond the 0.999 clamp
        path = tmp_path / "unit-root.csv"
        write_panel_csv(near_unit_root_dataset(), path)
        args = ["fit", "--input", path, "--J", 1, "--K", 1, "--method", "gee",
                "--working", "ar1"]
        assert run(args + ["--out", tmp_path / "strict"]) == 2
        assert run(args + ["--out", tmp_path / "lax", "--allow-unconverged"]) == 0

    def test_config_file_with_flag_override(self, data_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {data_csv}\nJ = 2\nK = 1\ngroup_strategy = contiguous\n"
        )
        out = tmp_path / "cfg-out"
        # flag overrides config's K = 1
        assert run(["fit", "--config", cfg, "--K", 2, "--out", out]) == 0
        resolved = (out / "config.txt").read_text()
        assert "K = 2" in resolved and "J = 2" in resolved


class TestOverflowingResponses:
    """Finite responses on a scale whose scores or squares overflow."""

    @staticmethod
    def _fit(tmp_path, capsys, top, method):
        data = simstudy.generate(make_ar1_design(N=80, M=8, J=2, K=2, seed=55), 0)
        scale = top / np.abs(data.responses).max()
        path, out = tmp_path / "huge.csv", tmp_path / "out"
        write_panel_csv(Dataset(data.responses * scale, data.covariates, data.subject_ids), path)
        code = run(["fit", "--input", path, "--J", 2, "--K", 2, "--method", method,
                    "--allow-unconverged", "--out", out])
        assert not out.exists()
        return code, capsys.readouterr().err

    def test_overflowing_score_covariance_is_exit_1(self, tmp_path, capsys):
        # the scores' squares overflow in V_k; the sums of squares do not
        code, err = self._fit(tmp_path, capsys, 6.6e150, "gee")
        assert code == 1
        assert err == (
            "fit: group 0 score covariance is not finite (the block scores "
            "overflow); cannot form weights\n"
        )

    @pytest.mark.parametrize("top", [1e78, 1e100, 1e150])
    def test_overflowing_cl_jacobian_is_exit_1(self, tmp_path, capsys, top):
        # (2 sigma^2)^2 in the Newton Jacobian overflows before the start's sums
        code, err = self._fit(tmp_path, capsys, top, "cl")
        assert code == 1
        assert err == "fit: block (0, 0): the score Jacobian overflows; rescale the responses\n"

    @pytest.mark.parametrize("method", ["gee", "cl"])
    def test_overflowing_sums_of_squares_are_exit_1(self, tmp_path, capsys, method):
        # y'y overflows: an error of its own, not an exact linear fit
        code, err = self._fit(tmp_path, capsys, 1.4e156, method)
        assert code == 1
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(
            "fit: block (0, 0): the sums of squares of the responses overflow"
        )


class TestConfigValues:
    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("fit", "J = two", "config key J = 'two' is not an integer"),
            ("fit", "J = 1.5", "config key J = '1.5' is not an integer"),
            ("fit", "tol = abc", "config key tol = 'abc' is not a number"),
            ("simulate", "reps = 0x", "config key reps = '0x' is not an integer"),
            ("fit", "allow_unconverged = maybe",
             "config key allow_unconverged = 'maybe' is not one of 1/0/true/false/yes/no"),
            ("simulate", "theta0 = 0.3,x", "config key theta0 = '0.3,x' is not a comma-separated"),
            ("simulate", "M_list = 8,twelve", "config key M_list = '8,twelve' is not a comma-separated"),
            ("fit", "method = foo", "config key method = 'foo' is not one of gee/cl"),
            ("simulate", "working = bar",
             "config key working = 'bar' is not one of ar1/exchangeable/independence"),
            ("fit", "group_strategy = random",
             "config key group_strategy = 'random' is not one of contiguous/seeded-random"),
            ("simulate", "family = normal",
             "config key family = 'normal' is not one of kronecker-nested/global-ar1"),
            ("fit", "max_iters = 1", "unknown config key 'max_iters'"),
        ],
        ids=["J-word", "J-float", "tol-word", "reps-hex", "bool-maybe", "theta0", "M_list",
             "method-choice", "working-choice", "strategy-choice", "family-choice",
             "unknown-key"],
    )
    def test_bad_value_is_exit_1_naming_file_key_value(self, data_csv, tmp_path, capsys,
                                                       command, line, message):
        # keys of the other command (input for simulate; N, M, reps for fit) are accepted
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"input = {data_csv}\nN = 60\nM = 8\nJ = 2\nreps = 1\n{line}\n")
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert f"{command}: {cfg}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("raw, expected", [("YES", True), ("1", True), ("no", False),
                                               ("0", False), ("False", False)])
    def test_boolean_spellings(self, data_csv, tmp_path, raw, expected):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {data_csv}\nJ = 2\nK = 2\nallow_unconverged = {raw}\n")
        out = tmp_path / "out"
        assert run(["fit", "--config", cfg, "--out", out]) == 0
        assert f"allow_unconverged = {expected}" in (out / "config.txt").read_text()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--bogus"], "unrecognized arguments: --bogus"),
            (["fit", "--J", "two"], "argument --J: invalid int value: 'two'"),
            (["fit", "--method", "foo"], "argument --method: invalid choice: 'foo'"),
            (["frobnicate"], "invalid choice: 'frobnicate'"),
        ],
        ids=["unknown-flag", "bad-int", "bad-choice", "unknown-command"],
    )
    def test_usage_error_is_exit_1(self, capsys, argv, message):
        # exit 2 is kept for unconverged blocks
        assert run(argv) == 1
        assert message in capsys.readouterr().err

    def test_help_is_exit_0(self, capsys):
        assert run(["fit", "--help"]) == 0
        assert "--group-strategy" in capsys.readouterr().out

    def test_combine_without_bundles_is_exit_1(self, tmp_path, capsys):
        assert run(["combine", "--out", tmp_path / "out"]) == 1
        assert "combine: no bundle paths given" in capsys.readouterr().err

    def test_input_that_is_not_utf8_is_exit_1_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_bytes(
            b"subject_id,response_index,y,x_1\n1,1,1.0,1.0\n\xff\xfe,1,1.0,1.0\n"
        )
        assert run(["fit", "--input", path, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert f"fit: {path}:3: subject_id b'\\xff\\xfe' is not UTF-8 text" in err
        assert "Traceback" not in err

    def test_config_that_is_not_utf8_is_exit_1_naming_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"N = 60\n# \xff\xfe\nM = 8\n")
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert f"simulate: {cfg}:2: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_malformed_config_line_is_exit_1_naming_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("N = 60\n\n# comment\nthis line has no equals\nM = 8\n")
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert f"simulate: {cfg}:4: malformed config line 'this line has no equals'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestAlpha:
    @pytest.mark.parametrize("raw", ["nan", "0", "1", "1.5"])
    @pytest.mark.parametrize("source", ["fit-config", "fit-flag", "combine-flag",
                                        "simulate-flag"])
    def test_level_outside_unit_interval_is_exit_1(self, data_csv, fitted_bundle_zip,
                                                   tmp_path, capsys, source, raw):
        out = tmp_path / "out"
        if source == "fit-config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"input = {data_csv}\nJ = 2\nK = 2\nalpha = {raw}\n")
            argv = ["fit", "--config", cfg, "--out", out]
        elif source == "fit-flag":
            argv = ["fit", "--input", data_csv, "--J", 2, "--K", 2, "--alpha", raw, "--out", out]
        elif source == "combine-flag":
            argv = ["combine", fitted_bundle_zip, "--alpha", raw, "--out", out]
        else:
            argv = ["simulate", "--family", "global-ar1", "--N", 60, "--M", 8, "--J", 2,
                    "--K", 2, "--reps", 1, "--alpha", raw, "--out", out]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"alpha = {float(raw)!r} is not a level inside (0, 1)" in err
        assert "Traceback" not in err
        assert not (out / "estimates.csv").exists()
        assert not (out / "summary.csv").exists()

    def test_simulate_coverage_follows_alpha(self, tmp_path):
        args = ["simulate", "--family", "global-ar1", "--N", 60, "--M", 8, "--J", 2,
                "--K", 2, "--sigma", 2, "--rho", 0.5, "--reps", 6]
        coverage = {}
        for alpha in ("0.05", "0.5"):
            out = tmp_path / alpha
            assert run(args + ["--alpha", alpha, "--out", out]) == 0
            with open(out / "summary.csv") as fh:
                coverage[alpha] = [float(r["coverage"]) for r in csv.DictReader(fh)]
            assert f"alpha = {alpha}" in (out / "config.txt").read_text()
        # wider intervals cover at least as often, and here strictly more
        assert all(a >= b for a, b in zip(coverage["0.05"], coverage["0.5"]))
        assert coverage["0.05"] != coverage["0.5"]



class TestSolverSettings:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("tol = nan", "tol = nan is not a finite number > 0"),
            ("tol = -1", "tol = -1.0 is not a finite number > 0"),
            ("max_iter = 0", "max_iter = 0 is not an integer >= 1"),
            ("max_iter = -5", "max_iter = -5 is not an integer >= 1"),
        ],
        ids=["tol-nan", "tol-negative", "max_iter-0", "max_iter-negative"],
    )
    def test_bad_solver_option_is_exit_1(self, data_csv, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {data_csv}\nJ = 2\nK = 2\n{line}\n")
        out = tmp_path / "out"
        assert run(["fit", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"fit: {message}" in err
        assert "did not converge" not in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["fit-flag", "fit-config", "simulate-flag"])
    def test_zero_workers_is_exit_1(self, data_csv, tmp_path, capsys, source):
        out = tmp_path / "out"
        if source == "fit-flag":
            argv = ["fit", "--input", data_csv, "--J", 2, "--K", 2, "--workers", 0,
                    "--out", out]
        elif source == "fit-config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"input = {data_csv}\nJ = 2\nK = 2\nworkers = 0\n")
            argv = ["fit", "--config", cfg, "--out", out]
        else:
            argv = ["simulate", "--family", "global-ar1", "--N", 60, "--M", 8, "--J", 2,
                    "--K", 2, "--reps", 1, "--workers", 0, "--out", out]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"{argv[0]}: workers = 0 is not a count >= 1" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestSimulateCommand:
    def test_smoke_run_outputs(self, tmp_path):
        out = tmp_path / "sim"
        code = run(
            ["simulate", "--family", "global-ar1", "--N", 80, "--M", 8,
             "--J", 2, "--K", 2, "--sigma", 2, "--rho", 0.5,
             "--reps", 2, "--out", out]
        )
        assert code == 0
        with open(out / "reps.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["ok"] == "1" for r in rows)
        assert (out / "summary.csv").exists()
        assert (out / "timings.csv").exists()
        assert (out / "config.txt").exists()

    def test_deterministic_reps_csv(self, tmp_path):
        args = ["simulate", "--family", "global-ar1", "--N", 60, "--M", 8,
                "--J", 2, "--K", 2, "--sigma", 2, "--rho", 0.5, "--reps", 2]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b, "--workers", 2]) == 0
        assert (a / "reps.csv").read_bytes() == (b / "reps.csv").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_invalid_design_is_exit_1(self, tmp_path):
        assert run(
            ["simulate", "--family", "kronecker-nested", "--N", 40,
             "--M", 10, "--J", 3, "--reps", 1, "--out", tmp_path / "bad"]
        ) == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--J", 0, "simulate: J must be >= 1, got 0"),
        ("--sigma", "nan", "simulate: sigma must be finite and positive, got nan"),
    ], ids=["J-zero", "sigma-nan"])
    def test_bad_design_value_is_rejected_at_start(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "bad"
        assert run(
            ["simulate", "--family", "kronecker-nested", "--N", 40, "--M", 12, "--J", 3,
             "--reps", 1, flag, value, "--out", out]
        ) == 1
        err = capsys.readouterr().err
        assert err == message + "\n" and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_is_exit_1(self, tmp_path, capsys):
        assert run(
            ["simulate", "--family", "global-ar1", "--N", 60, "--M", 8, "--J", 2,
             "--K", 2, "--reps", 1, "--seed", -1, "--out", tmp_path / "bad"]
        ) == 1
        assert "simulate: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_plotdata_grid(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "family = global-ar1\nN = 60\nM = 8\nJ = 2\nK = 2\n"
            "sigma = 2\nrho = 0.5\nreps = 2\nM_list = 8,12\nK_list = 1,2\n"
        )
        out = tmp_path / "grid-out"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        with open(out / "plotdata.csv") as fh:
            rows = list(csv.DictReader(fh))
        cells = {(r["M"], r["K"]) for r in rows}
        assert cells == {("8", "1"), ("8", "2"), ("12", "1"), ("12", "2")}

    def test_plotdata_is_the_same_for_any_worker_count(self, tmp_path):
        args = ["simulate", "--family", "kronecker-nested", "--N", 120, "--M", 12, "--J", 3,
                "--K", 2, "--reps", 4, "--seed", 3, "--M-list", "6,12", "--K-list", "1,2,3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b, "--workers", 2]) == 0
        for name in ("reps.csv", "summary.csv", "plotdata.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_grid_cell_without_successes_is_exit_1_naming_it(
        self, tmp_path, capsys, monkeypatch
    ):
        # every fit at K = 2 fails, so that cell has no successful replication
        fit_dataset = simstudy.fit_dataset

        def fit_failing_at_k2(data, J, K, kind):
            if K == 2:
                raise SolverError("no fit at K = 2")
            return fit_dataset(data, J, K, kind)

        monkeypatch.setattr(simstudy, "fit_dataset", fit_failing_at_k2)
        out = tmp_path / "out"
        assert run(["simulate", "--family", "global-ar1", "--N", 40, "--M", 6, "--J", 2,
                    "--K", 1, "--reps", 2, "--M-list", 6, "--K-list", "1,2",
                    "--out", out]) == 1
        err = capsys.readouterr().err
        assert "simulate: grid cell M=6, K=2: no successful replications to summarize" in err
        assert not out.exists()


class TestReadmeLibraryExample:
    def test_runs_unchanged(self, data_csv, tmp_path, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        library = readme.split("\n## Library\n", 1)[1]
        code = library.split("```python\n", 1)[1].split("```", 1)[0]
        shutil.copy(data_csv, tmp_path / "panel.csv")
        monkeypatch.chdir(tmp_path)
        scope = {}
        exec(code, scope)
        assert scope["fit"].theta.shape == (3,)
        assert np.isfinite(scope["report"].ase).all()
        assert scope["df"] > 0 and 0.0 <= scope["p"] <= 1.0
        assert scope["again"] == scope["overid"]


class TestOneChain:
    """fit, combine and simulate take their results from inference.infer."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        infer = inference.infer
        monkeypatch.setattr(inference, "infer", lambda *a, **kw: calls.append(1) or infer(*a, **kw))
        return calls

    def test_fit_and_combine_call_infer_once(self, data_csv, tmp_path, calls):
        out = tmp_path / "fit"
        assert run(["fit", "--input", data_csv, "--J", 2, "--K", 2, "--out", out]) == 0
        assert len(calls) == 1
        assert run(["combine", out / "bundle.zip", "--out", tmp_path / "comb"]) == 0
        assert len(calls) == 2

    def test_simulate_calls_infer_once_per_replication_and_design(self, tmp_path, calls):
        # the main design (M=8, K=2) is also the grid cell (8, 2): 4 designs
        assert run(["simulate", "--family", "global-ar1", "--N", 60, "--M", 8, "--J", 2,
                    "--K", 2, "--reps", 3, "--M-list", "8,12", "--K-list", "1,2",
                    "--out", tmp_path / "sim"]) == 0
        assert len(calls) == 3 * 4


class TestEstimatesFile:
    @staticmethod
    def _csv_writer_bytes(report) -> bytes:
        """estimates.csv as csv.writer writes it: every float as %.17g."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "estimate", "ase", "z", "p_value", "ci_lower", "ci_upper"])
        for row in report.rows():
            writer.writerow([row[0]] + ["%.17g" % v for v in row[1:]])
        return buf.getvalue().encode()

    def test_bytes_equal_a_csv_writer_of_the_report(self, fitted_bundle, tmp_path):
        bundle, _ = fitted_bundle
        fit = blockgmm.combine(bundle)
        report = inference.godambe_cov(fit, inference.parameter_names(bundle))
        edges = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1])
        odd = inference.InferenceReport(
            names=tuple(f"theta_{a + 1}" for a in range(edges.size)),
            estimates=edges, ase=edges[::-1].copy(), z=-edges, p_values=edges * 0.5,
            ci_lower=edges - 1.0, ci_upper=np.roll(edges, 3), alpha=0.05,
        )
        for name, rep in (("real", report), ("odd", odd)):
            out = tmp_path / name
            out.mkdir()
            cli._write_inference_outputs(out, rep, (1.5, 3, 0.68))
            assert (out / "estimates.csv").read_bytes() == self._csv_writer_bytes(rep)


class TestCombineCommand:
    def test_split_bundles_recombine_identically(self, data_csv, tmp_path):
        out = tmp_path / "fit-out"
        assert run(
            ["fit", "--input", data_csv, "--J", 2, "--K", 2,
             "--group-strategy", "contiguous", "--out", out]
        ) == 0
        from blockgmm.combine import load_bundle, save_bundle, split_bundle

        bundle = load_bundle(out / "bundle.zip")
        paths = []
        for idx, part in enumerate(split_bundle(bundle)):
            path = tmp_path / f"part{idx}.zip"
            save_bundle(part, path)
            paths.append(path)

        whole, merged = tmp_path / "whole", tmp_path / "merged"
        assert run(["combine", out / "bundle.zip", "--out", whole]) == 0
        assert run(["combine", *paths, "--out", merged]) == 0
        for name in ("estimates.csv", "overid.txt"):
            assert (whole / name).read_bytes() == (merged / name).read_bytes()
            assert (out / name).read_bytes() == (merged / name).read_bytes()

    def test_combined_estimates_match_fit_command(self, data_csv, tmp_path):
        out = tmp_path / "fit-out"
        assert run(
            ["fit", "--input", data_csv, "--J", 2, "--K", 2,
             "--group-strategy", "contiguous", "--out", out]
        ) == 0
        re_out = tmp_path / "re-out"
        assert run(["combine", out / "bundle.zip", "--out", re_out]) == 0
        assert (out / "estimates.csv").read_bytes() == (
            re_out / "estimates.csv"
        ).read_bytes()

    def test_unconverged_bundle_is_exit_2_naming_every_block(self, data_csv, tmp_path,
                                                             capsys):
        fit_out = tmp_path / "fit-out"
        assert run(["fit", "--input", data_csv, "--J", 2, "--K", 2, "--tol", 1e-16,
                    "--max-iter", 1, "--allow-unconverged", "--out", fit_out]) == 0
        capsys.readouterr()
        out = tmp_path / "strict"
        assert run(["combine", fit_out / "bundle.zip", "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"combine: blocks {UNCONVERGED} did not converge (pass allow_unconverged, "
            "or --allow-unconverged on the command line, to combine anyway)\n"
        )
        assert not out.exists()
        lax = tmp_path / "lax"
        assert run(["combine", fit_out / "bundle.zip", "--allow-unconverged", "--out", lax]) == 0
        assert (lax / "estimates.csv").read_bytes() == (fit_out / "estimates.csv").read_bytes()

    def test_incompatible_bundles_exit_1(self, data_csv, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(
            ["fit", "--input", data_csv, "--J", 2, "--K", 2,
             "--group-strategy", "contiguous", "--out", out_a]
        ) == 0
        assert run(
            ["fit", "--input", data_csv, "--J", 2, "--K", 2,
             "--group-strategy", "seeded-random", "--seed", 3, "--out", out_b]
        ) == 0
        from blockgmm.combine import load_bundle, save_bundle, split_bundle

        part_a = tmp_path / "pa.zip"
        part_b = tmp_path / "pb.zip"
        save_bundle(split_bundle(load_bundle(out_a / "bundle.zip"))[0], part_a)
        save_bundle(split_bundle(load_bundle(out_b / "bundle.zip"))[1], part_b)
        assert run(["combine", part_a, part_b, "--out", tmp_path / "bad"]) == 1


    @pytest.mark.parametrize("flag, value", [("--J", 2), ("--K", 2), ("--seed", 1),
                                             ("--workers", 1), ("--method", "gee"),
                                             ("--working", "ar1")])
    def test_flags_of_a_fit_are_rejected(self, fitted_bundle_zip, tmp_path, capsys,
                                         flag, value):
        out = tmp_path / "out"
        assert run(["combine", fitted_bundle_zip, flag, value, "--out", out]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_bundle_path_with_a_comma_is_rejected(self, fitted_bundle_zip, tmp_path, capsys):
        path = tmp_path / "a,b.zip"
        path.write_bytes(fitted_bundle_zip.read_bytes())
        out = tmp_path / "out"
        assert run(["combine", path, "--out", out]) == 1
        assert f"bundle path {str(path)!r} holds a comma" in capsys.readouterr().err
        assert not out.exists()


def assert_same_outputs(a, b):
    """Every output of two runs is byte-identical; config.txt up to its out line."""
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        if name == "timings.csv":  # wall times
            continue
        left, right = (a / name).read_bytes(), (b / name).read_bytes()
        if name == "config.txt":
            left = left.replace(f"out = {a}\n".encode(), b"")
            right = right.replace(f"out = {b}\n".encode(), b"")
        assert left == right, name


class TestRerunFromConfig:
    def test_fit(self, data_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["fit", "--input", data_csv, "--J", 2, "--K", 2, "--group-strategy",
                    "contiguous", "--seed", 3, "--working", "exchangeable", "--alpha", 0.1,
                    "--tol", 1e-9, "--max-iter", 50, "--out", a]) == 0
        assert run(["fit", "--config", a / "config.txt", "--out", b]) == 0
        assert_same_outputs(a, b)

    def test_simulate_with_grid(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--family", "global-ar1", "--N", 60, "--M", 8, "--J", 2,
                    "--K", 2, "--sigma", 2, "--rho", 0.5, "--theta0", "0.1,0.2,0.3",
                    "--reps", 2, "--M-list", "8,12", "--K-list", "1,2", "--out", a]) == 0
        assert "M_list = 8,12" in (a / "config.txt").read_text()
        assert run(["simulate", "--config", a / "config.txt", "--out", b]) == 0
        assert (b / "plotdata.csv").exists()
        assert_same_outputs(a, b)

    def test_combine_of_split_bundles(self, fitted_bundle_zip, tmp_path):
        from blockgmm.combine import load_bundle, save_bundle, split_bundle

        paths = []
        for idx, part in enumerate(split_bundle(load_bundle(fitted_bundle_zip))):
            paths.append(tmp_path / f"part{idx}.zip")
            save_bundle(part, paths[-1])
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["combine", *paths, "--alpha", 0.2, "--out", a]) == 0
        assert run(["combine", "--config", a / "config.txt", "--out", b]) == 0
        assert_same_outputs(a, b)

    def test_combine_from_another_directory(self, fitted_bundle_zip, tmp_path, monkeypatch):
        from blockgmm.combine import load_bundle, save_bundle, split_bundle

        first, second = tmp_path / "first", tmp_path / "second"
        (first / "parts").mkdir(parents=True)
        second.mkdir()
        monkeypatch.chdir(first)
        paths = []
        for idx, part in enumerate(split_bundle(load_bundle(fitted_bundle_zip))):
            paths.append(os.path.join("parts", f"part{idx}.zip"))
            save_bundle(part, paths[-1])
        assert run(["combine", *paths, "--out", "a"]) == 0
        config = first / "a" / "config.txt"
        assert f"bundles = {','.join(str(first / p) for p in paths)}\n" in config.read_text()
        monkeypatch.chdir(second)
        assert run(["combine", "--config", config, "--out", "b"]) == 0
        assert (second / "b" / "estimates.csv").read_bytes() == (
            first / "a" / "estimates.csv"
        ).read_bytes()

    def test_fit_config_holds_an_absolute_input(self, data_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(data_csv.parent)
        assert run(["fit", "--input", data_csv.name, "--J", 2, "--K", 2,
                    "--out", tmp_path / "a"]) == 0
        assert f"input = {data_csv}\n" in (tmp_path / "a" / "config.txt").read_text()

    def test_config_of_another_command_is_rejected(self, data_csv, tmp_path, capsys):
        fitout = tmp_path / "fitout"
        assert run(["fit", "--input", data_csv, "--J", 2, "--K", 2, "--out", fitout]) == 0
        before = {name: (fitout / name).read_bytes() for name in os.listdir(fitout)}
        config = fitout / "config.txt"
        assert run(["simulate", "--config", config, "--family", "global-ar1", "--N", 60,
                    "--M", 8, "--reps", 1]) == 1
        err = capsys.readouterr().err
        assert f"simulate: {config}: config is of command 'fit', not 'simulate'" in err
        assert {name: (fitout / name).read_bytes() for name in os.listdir(fitout)} == before


@pytest.fixture(scope="module")
def fitted_bundle_zip(data_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit-out")
    assert run(
        ["fit", "--input", data_csv, "--J", 2, "--K", 2,
         "--group-strategy", "contiguous", "--out", out]
    ) == 0
    return out / "bundle.zip"


def rewrite_member(src, dst, name, edit):
    """Copy a bundle archive with member ``name`` replaced by ``edit(bytes)``."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w") as zout:
        for info in zin.infolist():
            payload = zin.read(info)
            zout.writestr(info, edit(payload) if info.filename == name else payload)


def edit_array(change, dtype):
    """An edit of a binary member of ``dtype`` records: ``change(array)``
    returns the new array."""
    def edit(payload):
        return change(np.frombuffer(payload, dtype).copy()).tobytes()

    return edit


def nan_number(numbers):
    numbers[31] = np.nan
    return numbers


def unknown_kind(table):
    table["kind"][2] = b"gee-ar2"
    return table


def replace_text(old, new):
    def edit(payload):
        text = payload.decode()
        assert old in text
        return text.replace(old, new, 1).encode()

    return edit


class TestTamperedBundles:
    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("numbers.bin", edit_array(nan_number, "<f8"),
             "member numbers.bin holds non-finite values"),
            ("plan.txt", replace_text("seed = 0", "seed = zero"),
             "plan.txt: plan field seed = 'zero' is not an integer"),
            ("blocks.bin", edit_array(unknown_kind, _BLOCK_TABLE),
             "blocks.bin names unknown solver kind 'gee-ar2'"),
            ("plan.txt", replace_text("strategy = contiguous", "strategy = alphabetical"),
             "plan.txt: unknown group strategy 'alphabetical'"),
            ("plan.txt", replace_text("block_sizes = 4,4", "block_sizes = 7,1"),
             "plan.txt: every block needs >= 2 responses, sizes=(7, 1)"),
            ("plan.txt", replace_text("group_sizes = 40,40", "group_sizes = 80,0"),
             "plan.txt: every group needs >= 1 subject, sizes=(80, 0)"),
            ("plan.txt", replace_text("block_sizes = 4,4", "block_sizes = 4,4.0"),
             "plan.txt: plan field block_sizes = '4,4.0' is not a list of integers"),
            ("blocks.bin", edit_array(lambda table: table[:-1], _BLOCK_TABLE),
             "blocks.bin does not list the J=2 blocks of each group it holds "
             "(of the plan's K=2) in (k, j) order"),
            ("numbers.bin", edit_array(lambda numbers: numbers[:-1], "<f8"),
             "numbers.bin holds 409 numbers, its blocks need 410"),
            ("meta.txt", replace_text("p = 3", "p = three"),
             "meta.txt has p = 'three', expected an integer >= 1"),
            ("meta.txt", replace_text("format = 4\n", ""), "meta.txt has no format field"),
            *(("meta.txt", replace_text("format = 4", f"format = {old}"),
               f"meta.txt has format = '{old}', this version reads format 4 only "
               "(refit with blockgmm fit to regenerate the bundle)") for old in (1, 2, 3)),
        ],
        ids=["nan-number", "non-integer-seed", "unknown-kind", "unknown-strategy",
             "block-size-1", "group-size-0", "non-integer-size", "short-block-table",
             "short-numbers", "non-integer-p", "no-format", "format-1", "format-2",
             "format-3"],
    )
    def test_combine_rejects_with_exit_1(self, fitted_bundle_zip, tmp_path, capsys,
                                         name, edit, message):
        bad = tmp_path / "bad.zip"
        rewrite_member(fitted_bundle_zip, bad, name, edit)
        assert run(["combine", bad, "--out", tmp_path / "out"]) == 1
        assert message in capsys.readouterr().err

    def test_format_2_archive_is_exit_1(self, fitted_bundle_zip, tmp_path, capsys):
        # a format-2 plan listed every response's block and subject's group
        labels = tmp_path / "labels.zip"
        rewrite_member(fitted_bundle_zip, labels, "plan.txt", lambda _: (
            "J = 2\nK = 2\nseed = 0\nstrategy = contiguous\n"
            f"block_of_response = {','.join(['0'] * 4 + ['1'] * 4)}\n"
            f"group_of_subject = {','.join(['0'] * 40 + ['1'] * 40)}\n"
        ).encode())
        bad = tmp_path / "bad.zip"
        rewrite_member(labels, bad, "meta.txt", replace_text("format = 4", "format = 2"))
        assert run(["combine", bad, "--out", tmp_path / "out"]) == 1
        assert "meta.txt has format = '2', this version reads format 4 only" in (
            capsys.readouterr().err
        )

    def test_non_archive_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.zip"
        bad.write_text("not a zip archive\n")
        assert run(["combine", bad, "--out", tmp_path / "out"]) == 1
        assert "not a bundle archive" in capsys.readouterr().err


class TestGroupSizeRule:
    """Each subject group needs more subjects than its weights have rows:
    n_k > dim_k = J (p + d), here 2 (3 + 2) = 10 for gee-ar1 blocks, with
    one message wherever a plan enters."""

    DIM = 10
    SIZES = pytest.mark.parametrize("n", [9, 10, 11], ids=["below", "equal", "above"])

    @SIZES
    def test_fit(self, tmp_path, capsys, n):
        # K = 2 groups of n subjects
        source = tmp_path / "panel.csv"
        write_panel_csv(simstudy.generate(make_ar1_design(N=2 * n, M=8, K=1, seed=21), 0), source)
        out = tmp_path / "out"
        code = run(["fit", "--input", source, "--J", 2, "--K", 2, "--out", out])
        if n > self.DIM:
            assert code == 0 and (out / "estimates.csv").exists()
            return
        assert code == 1
        assert capsys.readouterr().err == f"fit: {too_few_subjects(0, n, self.DIM)}\n"
        assert not out.exists()

    @SIZES
    def test_simulate(self, tmp_path, capsys, n):
        # rejected before any replication, not reported as failed replications
        out = tmp_path / "out"
        code = run(["simulate", "--family", "global-ar1", "--N", 2 * n, "--M", 8, "--J", 2,
                    "--K", 2, "--reps", 1, "--out", out])
        if n > self.DIM:
            assert code == 0
            with open(out / "reps.csv") as fh:
                assert [row["ok"] for row in csv.DictReader(fh)] == ["1"]
            return
        assert code == 1
        assert capsys.readouterr().err == f"simulate: {too_few_subjects(0, n, self.DIM)}\n"
        assert not out.exists()

    def test_simulate_grid_cell(self, tmp_path, capsys):
        # the main design has one group of 20; the K = 3 cell has 7, 7 and 6
        out = tmp_path / "out"
        assert run(["simulate", "--family", "global-ar1", "--N", 20, "--M", 6, "--J", 2,
                    "--K", 1, "--reps", 2, "--M-list", 6, "--K-list", "1,3",
                    "--out", out]) == 1
        assert capsys.readouterr().err == f"simulate: {too_few_subjects(2, 6, self.DIM)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--K", 1, "--M-list", 6, "--K-list", 50], "K=50 groups need 1 <= K <= N, got N=20"),
        (["--K", 50], "K=50 groups need 1 <= K <= N, got N=20"),
        (["--K", 1, "--M", 5, "--J", 3],
         "J=3 blocks of >= 2 responses need 1 <= J <= M/2, got M=5"),
    ], ids=["grid-cell", "design", "blocks"])
    def test_simulate_plan_rule(self, tmp_path, capsys, argv, message):
        # named up front as fit names it, before any replication
        out = tmp_path / "out"
        assert run(["simulate", "--family", "global-ar1", "--N", 20, "--M", 6, "--J", 2,
                    "--reps", 2, *argv, "--out", out]) == 1
        assert capsys.readouterr().err == f"simulate: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, config, message", [
        (["--K-list", 50], "", "K_list = 50 is given without M_list (--M-list)"),
        (["--M-list", "6,8"], "", "M_list = 6,8 is given without K_list (--K-list)"),
        ([], "K_list = 1,2\n", "K_list = 1,2 is given without M_list (--M-list)"),
        ([], "M_list = 6\n", "M_list = 6 is given without K_list (--K-list)"),
    ], ids=["K-flag", "M-flag", "K-config", "M-config"])
    def test_simulate_grid_needs_both_lists(self, tmp_path, capsys, flags, config, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("family = global-ar1\nN = 20\nM = 6\nJ = 2\nK = 1\nreps = 2\n" + config)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, *flags, "--out", out]) == 1
        assert capsys.readouterr().err == f"simulate: the (M, K) grid needs both lists: {message}\n"
        assert not out.exists()

    @SIZES
    def test_archive_with_lowered_group_size(self, fitted_bundle_zip, tmp_path, capsys, n):
        # the fitted plan holds two groups of 40; plan.txt is edited by hand
        bad = tmp_path / "bad.zip"
        rewrite_member(fitted_bundle_zip, bad, "plan.txt",
                       replace_text("group_sizes = 40,40", f"group_sizes = 40,{n}"))
        if n > self.DIM:
            assert [group.n for group in load_bundle(bad).groups.values()] == [40, n]
            return
        assert run(["combine", bad, "--out", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"combine: {too_few_subjects(1, n, self.DIM)}\n"
        assert not (tmp_path / "out").exists()


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "command, content, message",
        [
            ("fit", None, "No such file or directory"),
            ("fit", "subject_id,y\n1,2.0\n", "missing required column"),
            ("combine", None, "No such file or directory"),
            ("combine", "not a zip archive\n", "not a bundle archive"),
        ],
        ids=["fit-missing", "fit-malformed", "combine-missing", "combine-non-archive"],
    )
    def test_failed_read_leaves_no_out_dir(self, tmp_path, capsys, command, content, message):
        source = tmp_path / "input"
        if content is not None:
            source.write_text(content)
        out = tmp_path / "leftover"
        argv = (["fit", "--input", source] if command == "fit" else ["combine", source])
        assert run(argv + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize("command", ["fit", "combine", "simulate"])
    def test_out_that_is_a_file_is_rejected_before_reading(
        self, tmp_path, capsys, monkeypatch, command
    ):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        reads = []
        monkeypatch.setattr(cli, "load_long_csv", lambda *args: reads.append(args))
        monkeypatch.setattr(cli, "load_bundle", lambda *args: reads.append(args))
        monkeypatch.setattr(simstudy, "run_study", lambda *args, **kw: reads.append(args))
        source = tmp_path / "input"
        argv = {"fit": ["fit", "--input", source], "combine": ["combine", source],
                "simulate": ["simulate", "--reps", 1]}[command]
        assert run(argv + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert f"{command}: out = {str(out)!r} exists and is not a directory" in err
        assert reads == [] and "Traceback" not in err
        assert out.read_text() == "not a directory\n"
        assert sorted(os.listdir(tmp_path)) == ["taken"]


def test_one_shot_commands_leave_the_heap_policy_unset(monkeypatch, data_csv, tmp_path):
    # a warm heap pays only across a study's replications
    calls = []
    monkeypatch.setattr(simstudy, "_keep_heap", lambda: calls.append(1))
    assert run(["fit", "--input", data_csv, "--J", 2, "--K", 2, "--out", tmp_path / "fit"]) == 0
    assert run(["combine", tmp_path / "fit" / "bundle.zip", "--out", tmp_path / "comb"]) == 0
    design = make_ar1_design(N=60, M=6, J=2, K=2, reps=2)
    simstudy.fit_dataset(simstudy.generate(design), design.J, design.K, design.kind)
    assert calls == []
    assert run(["simulate", "--family", "global-ar1", "--N", 60, "--M", 6, "--J", 2, "--K", 2,
                "--reps", 2, "--out", tmp_path / "sim"]) == 0
    assert calls == [1, 1]


class TestImportFootprint:
    # the package runs on numpy and the standard library: importing scipy's
    # linalg and special took more than half of a cold start.  A fresh
    # interpreter is used because this test process imports scipy as an oracle.
    SCRIPT = """
import sys
import blockgmm, blockgmm.cli
data_csv, out = sys.argv[1:]
run = lambda *argv: blockgmm.cli.main([str(a) for a in argv])
assert run("fit", "--input", data_csv, "--J", 2, "--K", 2, "--out", out + "/fit") == 0
assert run("simulate", "--family", "global-ar1", "--N", 60, "--M", 8, "--J", 2, "--K", 2,
           "--reps", 1, "--out", out + "/sim") == 0
assert run("combine", out + "/fit/bundle.zip", "--out", out + "/comb") == 0
print(",".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

    def test_no_command_imports_scipy(self, data_csv, tmp_path):
        src = os.path.dirname(os.path.dirname(blockgmm.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(data_csv), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == ""
        assert (tmp_path / "comb" / "estimates.csv").exists()
