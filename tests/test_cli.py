import csv
import io
import zipfile

import numpy as np
import pytest

from blockgmm import cli, simstudy

from conftest import make_ar1_design, near_unit_root_dataset


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
        from blockgmm.engines import NuisanceSpec, fit_block
        from blockgmm.partition import make_plan, split

        data = load_long_csv(data_csv)
        plan = make_plan(data.M, data.N, 1, 1, strategy="seeded-random", seed=0)
        block = split(data, plan)[(0, 0)]
        direct = fit_block(block, NuisanceSpec("gee-ar1"))
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

    def test_unconverged_block_is_exit_2(self, data_csv, tmp_path):
        cfg = tmp_path / "strict.cfg"
        cfg.write_text(f"input = {data_csv}\ntol = 1e-16\nmax_iter = 1\n")
        out = tmp_path / "strict-out"
        assert run(["fit", "--config", cfg, "--J", 2, "--K", 2, "--out", out]) == 2
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
        ],
        ids=["J-word", "J-float", "tol-word", "reps-hex", "bool-maybe", "theta0", "M_list"],
    )
    def test_bad_value_is_exit_1_naming_file_key_value(self, data_csv, tmp_path, capsys,
                                                       command, line, message):
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
        assert (whole / "estimates.csv").read_bytes() == (
            merged / "estimates.csv"
        ).read_bytes()
        assert "skipped" in (merged / "overid.txt").read_text()

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


def nan_information(payload):
    info = np.load(io.BytesIO(payload))
    info[3, 1] = np.nan
    buf = io.BytesIO()
    np.save(buf, info)
    return buf.getvalue()


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
            ("group_0/information.npy", nan_information,
             "member group_0/information.npy holds non-finite values"),
            ("plan.txt", replace_text("J = 2", "J = two"),
             "plan.txt: plan field J = 'two' is not an integer"),
            ("meta.txt", replace_text("kind:gee-ar1", "kind: gee-ar1"),
             "meta.txt entry block_0_0 has malformed field 'gee-ar1'"),
            ("plan.txt", replace_text("block_of_response = 0,", "block_of_response = 2,"),
             "plan.txt: block_of_response holds 2 at position 0, outside 0..1"),
            ("plan.txt", replace_text("group_of_subject = 0,", "group_of_subject = 5,"),
             "plan.txt: group_of_subject holds 5 at position 0, outside 0..1"),
            ("meta.txt", replace_text("group_0 = n:40", "group_0 = n:41"),
             "meta.txt entry group_0 has n=41, plan says 40"),
            ("meta.txt", replace_text("format = 2\n", ""), "meta.txt has no format field"),
            ("meta.txt", replace_text("format = 2", "format = 1"),
             "meta.txt has format = '1', this version reads format 2 only"),
            ("meta.txt", replace_text("format = 2", "format = 3"),
             "meta.txt has format = '3', this version reads format 2 only"),
        ],
        ids=["nan-information", "non-integer-J", "split-meta-field", "block-index",
             "group-index", "group-size", "no-format", "format-1", "format-3"],
    )
    def test_combine_rejects_with_exit_1(self, fitted_bundle_zip, tmp_path, capsys,
                                         name, edit, message):
        bad = tmp_path / "bad.zip"
        rewrite_member(fitted_bundle_zip, bad, name, edit)
        assert run(["combine", bad, "--out", tmp_path / "out"]) == 1
        assert message in capsys.readouterr().err

    def test_non_archive_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.zip"
        bad.write_text("not a zip archive\n")
        assert run(["combine", bad, "--out", tmp_path / "out"]) == 1
        assert "not a bundle archive" in capsys.readouterr().err
