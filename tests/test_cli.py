import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from coupledforms import cli, qualitative, report
from coupledforms.cli import main


def write_config(path, data):
    path.write_text(json.dumps(data, indent=1))
    return str(path)


def base_simulate_config(out, **overrides):
    config = {
        "schema_version": 1,
        "seed": 0,
        "output": out,
        "model": {"name": "ephaptic", "pattern": {"kind": "difference", "diffusion": 2.0, "coupling": 0.5}},
        "grid": {"n_cells": 32, "length": 1.0},
        "evolution": {"scheme": "implicit-euler", "dt": 0.01, "t_end": 0.2, "record_every": 2},
        "initial": {"kind": "in_phase", "amplitude": 1.0},
        "projection": {},
    }
    config.update(overrides)
    return config


def read_rows(csv_path):
    lines = csv_path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestCertify:
    def test_passing_bundle_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "output": str(out),
                "constants": {"alpha": [[2, -1], [-1, 2]], "embedding_norm": 1.0},
            },
        )
        assert main(["certify", cfg]) == 0
        text = (out / "certify.txt").read_text()
        assert "[ellipticity] PASS alpha=1.0" in text
        assert "angle_rad=0.7853981633974483" in text
        captured = capsys.readouterr()
        assert "[gershgorin] PASS" in captured.out
        records = json.loads((out / "certify.json").read_text())
        assert records["schema_version"] == 1
        assert len(records["entries"]) == 6

    def test_failing_bundle_exit_one(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "output": str(tmp_path / "out"),
                "constants": {"alpha": [[1, -2], [-2, 1]]},
            },
        )
        assert main(["certify", cfg]) == 1
        text = (tmp_path / "out" / "certify.txt").read_text()
        assert "[ellipticity] FAIL" in text

    def test_malformed_file_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["certify", str(bad)]) == 2

    def test_missing_schema_version_exit_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"constants": {"alpha": [[1]]}})
        assert main(["certify", cfg]) == 2

    def test_unknown_criterion_exit_two(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"schema_version": 1, "constants": {"alpha": [[1]]}, "criteria": ["nope"]},
        )
        assert main(["certify", cfg]) == 2


    @pytest.mark.parametrize(
        "constants, message",
        [
            ({"alpha": [[2, -1], [-1, 2]], "embedding_norm": 1e200}, "non-finite constant 'bound' in 'continuity'"),
            # the Gershgorin margin -1e308 - 1e308 is not representable
            ({"alpha": [[-1e308, -1e308], [-1e308, -1e308]]}, "non-finite constant 'margin_0' in 'gershgorin'"),
        ],
        ids=["embedding-norm", "alpha"],
    )
    def test_overflow_exit_two_with_one_line(self, tmp_path, capsys, constants, message):
        cfg = write_config(tmp_path / "c.json", {"schema_version": 1, "constants": constants})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would print a second line
            assert main(["certify", cfg, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"validation error: {message}\n"
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_representable_symmetric_part_does_not_overflow(self, tmp_path):
        # (a + a.T)/2 overflowed to -inf here; a/2 + a.T/2 is exact
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", {"schema_version": 1, "constants": {"alpha": [[-1e308, 0], [0, 1]]}})
        assert main(["certify", cfg, "--quiet", "--out", str(out)]) == 1
        entries = {e["criterion"]: e for e in json.loads((out / "certify.json").read_text())["entries"]}
        assert entries["ellipticity"]["constants"]["alpha"] == -1e308
        assert entries["stability"]["constants"]["lambda_min"] == -1e308
        assert [entries[c]["status"] for c in ("gershgorin", "ellipticity", "stability")] == ["fail"] * 3


class TestSimulate:
    def test_in_phase_strip_column_stays_small(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", base_simulate_config(str(out)))
        assert main(["simulate", cfg, "--quiet"]) == 0
        header, rows = read_rows(out / "trajectory.csv")
        assert header == [
            "t",
            "h_norm",
            "comp_norm_1",
            "comp_norm_2",
            "strip_distance",
            "projection_norm",
            "min_value",
            "sup_norm",
        ]
        strip = [float(r[header.index("strip_distance")]) for r in rows]
        assert max(strip) <= 1e-8

    def test_zero_data_all_zero_columns(self, tmp_path):
        out = tmp_path / "out"
        config = base_simulate_config(str(out), initial={"kind": "zero"})
        cfg = write_config(tmp_path / "c.json", config)
        assert main(["simulate", cfg, "--quiet"]) == 0
        header, rows = read_rows(out / "trajectory.csv")
        for r in rows:
            assert float(r[header.index("h_norm")]) == 0.0
            assert float(r[header.index("sup_norm")]) == 0.0

    def test_missing_projection_gives_empty_fields(self, tmp_path):
        out = tmp_path / "out"
        config = base_simulate_config(str(out))
        del config["projection"]
        config["initial"] = {"kind": "random"}
        cfg = write_config(tmp_path / "c.json", config)
        assert main(["simulate", cfg, "--quiet"]) == 0
        header, rows = read_rows(out / "trajectory.csv")
        idx = header.index("strip_distance")
        assert all(r[idx] == "" and r[idx + 1] == "" for r in rows)

    def test_zero_dt_exit_two(self, tmp_path):
        config = base_simulate_config(str(tmp_path / "out"))
        config["evolution"]["dt"] = 0.0
        cfg = write_config(tmp_path / "c.json", config)
        assert main(["simulate", cfg, "--quiet"]) == 2

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"model": {"name": "damped_wave"}, "initial": {"kind": "random"}},
             "config error: a lifted projection requires all component spaces to be identical\n"),
            ({"projection": {"matrix": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}},
             "config error: projection matrix must be 2x2 for this model, got 3x3\n"),
        ],
        ids=["spaces-differ", "size"],
    )
    def test_unfit_projection_exit_two_before_any_step(self, tmp_path, capsys, monkeypatch, overrides, message):
        stepped = []
        monkeypatch.setattr(cli, "evolve", lambda *args, **kwargs: stepped.append(args))
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", base_simulate_config(str(out), **overrides))
        assert main(["simulate", cfg, "--quiet"]) == 2
        assert capsys.readouterr().err == message
        assert stepped == [] and not out.exists()

    def test_determinism_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        config = base_simulate_config("ignored", initial={"kind": "random"})
        cfg = write_config(tmp_path / "c.json", config)
        assert main(["simulate", cfg, "--quiet", "--out", str(out_a)]) == 0
        assert main(["simulate", cfg, "--quiet", "--out", str(out_b)]) == 0
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()

    def test_seed_flag_changes_random_run(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        config = base_simulate_config("ignored", initial={"kind": "random"})
        cfg = write_config(tmp_path / "c.json", config)
        assert main(["simulate", cfg, "--quiet", "--out", str(out_a), "--seed", "1"]) == 0
        assert main(["simulate", cfg, "--quiet", "--out", str(out_b), "--seed", "2"]) == 0
        assert (out_a / "trajectory.csv").read_bytes() != (out_b / "trajectory.csv").read_bytes()


class TestCheck:
    def test_dynamic_bc_suite(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "seed": 0,
                "output": str(out),
                "model": {"name": "dynamic_bc_heat"},
                "grid": {"n_cells": 32},
                "evolution": {"dt": 0.01, "t_end": 0.2},
                "checks": [
                    {"id": "positivity", "trials": 5},
                    {"id": "domination", "trials": 5},
                    {"id": "linf", "trials": 3},
                ],
            },
        )
        # the sup-norm ball is not invariant, so the run reports a failure
        assert main(["check", cfg, "--quiet"]) == 1
        text = (out / "checks.txt").read_text()
        assert "[positivity] PASS" in text
        assert "[domination] PASS" in text
        assert "[linf] FAIL" in text
        assert "witness_csv: witness_linf.csv" in text
        assert (out / "witness_linf.csv").exists()

    def test_repeated_check_ids_keep_their_own_witnesses(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "output": str(out),
                "model": {"name": "ephaptic", "coefficients": [[1.0]]},
                "grid": {"n_cells": 64},
                "evolution": {"scheme": "crank-nicolson", "dt": 0.01, "t_end": 0.2},
                "checks": [
                    {"id": "positivity", "trials": 3},
                    {"id": "positivity", "runtime": False},
                    {"id": "linf", "trials": 2},
                    {"id": "positivity", "trials": 2},
                ],
            },
        )
        assert main(["check", cfg, "--quiet"]) == 1
        records = json.loads((out / "checks.json").read_text())["checks"]
        assert [r["status"] for r in records] == ["fail", "pass", "fail", "fail"]
        names = ["witness_positivity.csv", None, "witness_linf.csv", "witness_positivity_2.csv"]
        assert [r["witness_csv"] for r in records] == names
        assert sorted(p.name for p in out.glob("witness_*.csv")) == sorted(filter(None, names))

    def test_balanced_ephaptic_all_pass(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "seed": 0,
                "output": str(out),
                "model": {
                    "name": "ephaptic",
                    "pattern": {"kind": "difference", "diffusion": 2.0, "coupling": 0.5},
                },
                "grid": {"n_cells": 32},
                "evolution": {"dt": 0.01, "t_end": 0.2},
                "checks": [
                    {"id": "row_sums"},
                    {"id": "subspace_C"},
                    {"id": "strip_runtime", "alpha_levels": [0.1, 1.0], "trials": 2},
                ],
            },
        )
        assert main(["check", cfg, "--quiet"]) == 0
        text = (out / "checks.txt").read_text()
        assert text.count("PASS") == 3
        # booleans load back as JSON true/false, not 1/0
        strip = json.loads((out / "checks.json").read_text())["checks"][2]["details"]
        assert strip["scaling_consistent"] is True
        assert [lv["passed"] for lv in strip["levels"]] == [True, True]

    def test_damped_wave_subspace_not_applicable_exit_zero(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "output": str(out),
                "model": {"name": "damped_wave", "alpha": 1.0},
                "grid": {"n_cells": 16},
                "evolution": {"dt": 0.01, "t_end": 0.1},
                "checks": [{"id": "subspace_C"}],
            },
        )
        assert main(["check", cfg, "--quiet"]) == 0
        assert "[subspace_C] NOT-APPLICABLE" in (out / "checks.txt").read_text()

    def test_damped_wave_parabola_and_mean_zero(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "output": str(out),
                "model": {"name": "damped_wave", "alpha": 1.0},
                "grid": {"n_cells": 16},
                "evolution": {"dt": 0.01, "t_end": 0.1},
                "checks": [
                    {"id": "parabola"},
                    {"id": "product_subspace"},
                ],
            },
        )
        assert main(["check", cfg, "--quiet"]) == 0

    def test_sector_check_on_coupled_diffusion(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "output": str(out),
                "model": {"name": "constant_coupled", "coupling": [[2.0, -1.0], [-1.0, 2.0]]},
                "grid": {"n_cells": 16},
                "evolution": {"dt": 0.01, "t_end": 0.1},
                "checks": [{"id": "sector"}],
            },
        )
        assert main(["check", cfg, "--quiet"]) == 0
        assert "[sector] PASS" in (out / "checks.txt").read_text()

    def test_invalid_check_model_combination_exit_two(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "output": str(tmp_path / "out"),
                "model": {"name": "damped_wave"},
                "grid": {"n_cells": 8},
                "evolution": {"dt": 0.01, "t_end": 0.1},
                "checks": [{"id": "row_sums"}],
            },
        )
        assert main(["check", cfg, "--quiet"]) == 2

    def test_unknown_check_exit_two(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "output": str(tmp_path / "out"),
                "model": {"name": "dynamic_bc_heat"},
                "grid": {"n_cells": 8},
                "evolution": {"dt": 0.01, "t_end": 0.1},
                "checks": [{"id": "mystery"}],
            },
        )
        assert main(["check", cfg, "--quiet"]) == 2

    def test_exit_code_matches_report_verdicts(self, tmp_path):
        # exit 0 exactly when the written report carries no FAIL line
        for perturb, expected in ((None, 0), ({"i": 0, "j": 0, "delta": 0.6}, 1)):
            out = tmp_path / f"out_{expected}"
            model = {
                "name": "ephaptic",
                "pattern": {"kind": "difference", "diffusion": 2.0, "coupling": 0.5},
            }
            if perturb:
                model["perturb"] = perturb
            cfg = write_config(
                tmp_path / f"c{expected}.json",
                {
                    "schema_version": 1,
                    "output": str(out),
                    "model": model,
                    "grid": {"n_cells": 16},
                    "evolution": {"dt": 0.01, "t_end": 0.1},
                    "checks": [{"id": "row_sums"}, {"id": "subspace_C"}],
                },
            )
            code = main(["check", cfg, "--quiet"])
            assert code == expected
            text = (out / "checks.txt").read_text()
            assert (" FAIL" in text) == (code == 1)

    @pytest.mark.parametrize("check_id, trials", [("positivity", 0), ("linf", 0), ("domination", -3)])
    def test_no_trials_exit_two_with_one_line(self, tmp_path, capsys, check_id, trials):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "output": str(out),
                "model": {"name": "dynamic_bc_heat"},
                "grid": {"n_cells": 8},
                "evolution": {"dt": 0.01, "t_end": 0.1},
                "checks": [{"id": check_id, "trials": trials}],
            },
        )
        assert main(["check", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == f"validation error: trials must be >= 1, got {trials}\n"
        assert not (out / "checks.json").exists()

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("check_id", ["sector", "parabola"])
    def test_no_samples_exit_two_with_one_line(self, tmp_path, capsys, check_id, count):
        # the range checks sample nothing, and "count" is an unknown key like any other
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "output": str(out),
                "model": {"name": "damped_wave", "alpha": 1.0},
                "grid": {"n_cells": 8},
                "checks": [{"id": check_id, "count": count}],
            },
        )
        assert main(["check", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: unknown key 'count' in checks entry\n"
        assert not (out / "checks.json").exists()

    def test_one_trial_runs(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "output": str(out),
                "model": {"name": "dynamic_bc_heat"},
                "grid": {"n_cells": 8},
                "evolution": {"dt": 0.01, "t_end": 0.1},
                "checks": [{"id": cid, "trials": 1} for cid in ("positivity", "domination", "linf")],
            },
        )
        assert main(["check", cfg, "--quiet"]) == 1
        checks = json.loads((out / "checks.json").read_text())["checks"]
        assert [c["status"] for c in checks] == ["pass", "pass", "fail"]
        assert checks[2]["details"]["accretive"] is False

    RING = [[3, -1, -1, 0], [-1, 3, 0, -1], [-1, 0, 3, -1], [0, -1, -1, 3]]

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize(
        "model, check_id",
        [
            ({"name": "damped_wave", "alpha": 1.0}, "sector"),
            ({"name": "constant_coupled", "coupling": RING}, "sector"),
            ({"name": "damped_wave", "alpha": 1.0}, "parabola"),
        ],
        ids=["wave-sector", "ring-sector", "wave-parabola"],
    )
    def test_range_check_details_are_the_library_call(self, tmp_path, model, check_id, seed):
        out = tmp_path / "out"
        config = {"schema_version": 1, "output": str(out), "model": model, "grid": {"n_cells": 16}}
        cfg = write_config(tmp_path / "c.json", {**config, "checks": [{"id": check_id}]})
        main(["check", cfg, "--quiet", "--seed", str(seed)])
        (got,) = json.loads((out / "checks.json").read_text())["checks"]
        form = cli._parse_model(config)
        want = getattr(qualitative, f"{check_id}_check")(form)
        assert (got["check_id"], got["status"], got["details"]) == (check_id, want.status, want.details)

    @pytest.mark.parametrize("shift", [1e308, -1e308])
    @pytest.mark.parametrize(
        "model",
        [{"name": "constant_coupled", "coupling": [[2, -1], [-1, 2]]}, {"name": "damped_wave", "alpha": [1, 0.5]}],
        ids=["coupled", "wave"],
    )
    def test_overflowing_sector_shift_exits_two_with_one_line(self, tmp_path, capsys, model, shift):
        # it used to exit 1 with exact_alpha NaN; the shift overflows only when sector runs, after the output
        # directory is made, so the directory exists but holds no report
        out = tmp_path / "out"
        config = {"schema_version": 1, "output": str(out), "model": model, "grid": {"n_cells": 8}}
        cfg = write_config(tmp_path / "c.json", {**config, "checks": [{"id": "sector", "shift": shift}]})
        assert main(["check", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: a spectral pencil ") and err.count("\n") == 1
        assert out.is_dir() and list(out.iterdir()) == []

    def test_parabola_without_constant_exit_two_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "output": str(out),
                "model": {"name": "dynamic_bc_heat"},
                "grid": {"n_cells": 8},
                "checks": [{"id": "parabola"}],
            },
        )
        assert main(["check", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == "validation error: parabola check needs 'm_tilde' or a model that reports one\n"
        assert list(out.glob("checks.*")) == []

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # the retired key, even with its one former value, is unknown like any typo
            ({"projection": {"kind": "averaging"}}, "config error: unknown key 'kind' in projection\n"),
            ({"projection": {"matrix": [[1, 0], [0, 0.5]]}}, "validation error: not an orthogonal projection: "),
            ({"projection": {"matrix": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}},
             "config error: projection matrix must be 2x2 for this model, got 3x3\n"),
            ({"checks": [{"id": "realness"}, {"id": "linf", "trails": 2}]}, "config error: unknown key 'trails' in checks entry\n"),
            ({"checks": [{"id": "realness"}, {"id": "mystery"}]}, "config error: unknown id 'mystery' in checks entry\n"),
        ],
        ids=["projection-kind", "projection-matrix", "projection-size", "key-typo", "id-typo"],
    )
    def test_bad_input_exits_two_before_any_check_runs(self, tmp_path, capsys, monkeypatch, overrides, message):
        ran = []
        run_check = cli._run_check
        monkeypatch.setattr(cli, "_run_check", lambda entry, *rest: ran.append(entry["id"]) or run_check(entry, *rest))
        out = tmp_path / "out"
        config = {
            "schema_version": 1,
            "output": str(out),
            "model": {"name": "ephaptic", "pattern": {"kind": "difference"}},
            "grid": {"n_cells": 8},
            "checks": [{"id": "realness"}],
            **overrides,
        }
        assert main(["check", write_config(tmp_path / "c.json", config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert ran == [] and not out.exists()
        # the same config with the bad part taken out runs its checks
        config.update(checks=[{"id": "realness"}], projection={})
        assert main(["check", write_config(tmp_path / "c.json", config), "--quiet"]) == 0
        assert ran == ["realness"]

    RUNTIME_FIRST = [{"id": "linf", "trials": 5}]

    @pytest.mark.parametrize(
        "model, later, message",
        [
            ({"name": "dynamic_bc_heat"}, {"id": "row_sums"},
             "config error: check 'row_sums' needs a coefficient-field model"),
            ({"name": "dynamic_bc_heat"}, {"id": "column_sums"},
             "config error: check 'column_sums' needs a coefficient-field model"),
            # the retired key, even with its one former value, is unknown like any typo
            ({"name": "dynamic_bc_heat"}, {"id": "product_subspace", "subspace": "mean_zero"},
             "config error: unknown key 'subspace' in checks entry"),
            ({"name": "dynamic_bc_heat"}, {"id": "domination", "trials": 0},
             "validation error: trials must be >= 1, got 0"),
            ({"name": "constant_coupled", "coupling": RING}, {"id": "subsystem", "m0": 0},
             "validation error: m0 must lie in [1, 3], got 0"),
            ({"name": "constant_coupled", "coupling": RING}, {"id": "subsystem", "m0": 4},
             "validation error: m0 must lie in [1, 3], got 4"),
            ({"name": "dynamic_bc_heat"}, {"id": "strip_runtime", "alpha_levels": []},
             "validation error: strip distances must be a non-empty list of values >= 0"),
            ({"name": "dynamic_bc_heat"}, {"id": "parabola"},
             "validation error: parabola check needs 'm_tilde' or a model that reports one"),
        ],
        ids=["row-sums", "column-sums", "subspace", "trials", "m0-low", "m0-high", "levels", "parabola"],
    )
    def test_check_inputs_judged_before_any_evolution(self, tmp_path, capsys, monkeypatch, model, later, message):
        # a later check's bad value used to exit 2 only after the earlier checks had stepped their trials
        runs = []
        evolve, states = qualitative.evolve, qualitative._states
        monkeypatch.setattr(qualitative, "evolve", lambda *a, **k: runs.append("evolve") or evolve(*a, **k))
        monkeypatch.setattr(qualitative, "_states", lambda *a: runs.append("_states") or states(*a))
        out = tmp_path / "out"
        config = {
            "schema_version": 1,
            "output": str(out),
            "model": model,
            "grid": {"n_cells": 8},
            "evolution": {"dt": 0.01, "t_end": 0.1},
            "checks": self.RUNTIME_FIRST + [later],
        }
        assert main(["check", write_config(tmp_path / "c.json", config), "--quiet"]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert runs == [] and not out.exists()
        # the runtime check alone does step its trials
        config["checks"] = self.RUNTIME_FIRST
        main(["check", write_config(tmp_path / "c.json", config), "--quiet"])
        assert runs == ["evolve"]

    def test_rank_zero_projection_strip_runtime(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            {
                "schema_version": 1,
                "output": str(out),
                "model": {"name": "ephaptic", "pattern": {"kind": "difference"}},
                "grid": {"n_cells": 8},
                "evolution": {"dt": 0.01, "t_end": 0.1},
                "projection": {"matrix": [[0, 0], [0, 0]]},
                "checks": [{"id": "strip_runtime", "alpha_levels": [0, 1]}],
            },
        )
        assert main(["check", cfg, "--quiet"]) == 0
        (check,) = json.loads((out / "checks.json").read_text())["checks"]
        assert [lv["passed"] for lv in check["details"]["levels"]] == [True, True]


OUTPUT_PATH_CONFIGS = {
    "certify": {"constants": {"alpha": [[2, -1], [-1, 2]]}},
    "simulate": base_simulate_config("unused"),
    "check": {
        "model": {"name": "dynamic_bc_heat"},
        "grid": {"n_cells": 8},
        "evolution": {"dt": 0.01, "t_end": 0.1},
        "checks": [{"id": "linf", "trials": 2}],
    },
}


@pytest.mark.parametrize("target", ["existing_file", "empty"])
@pytest.mark.parametrize("command", sorted(OUTPUT_PATH_CONFIGS))
def test_unusable_output_path_exit_two_with_one_line(tmp_path, capsys, monkeypatch, command, target):
    ran = []
    monkeypatch.setattr(cli, "_run_check", lambda entry, *rest: ran.append(entry["id"]))
    config = dict(OUTPUT_PATH_CONFIGS[command], schema_version=1)
    argv = [command, "", "--quiet"]
    if target == "existing_file":
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        argv += ["--out", str(blocker)]
    else:
        config["output"] = ""
    argv[1] = write_config(tmp_path / "c.json", config)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert ran == []  # the output path is checked before any check runs



# command, config and the validation message of a model input whose assembly overflows
OVERFLOW_CONFIGS = {
    "ephaptic-delta": (
        "check",
        {
            "model": {"name": "ephaptic", "pattern": {"kind": "difference"}, "perturb": {"i": 0, "j": 1, "delta": 1e308}},
            "checks": [{"id": "realness"}],
        },
        "block (0,1) contains non-finite entries",
    ),
    "damped-wave-check": (
        "check",
        {"model": {"name": "damped_wave", "alpha": [1e308, 1e308]}, "checks": [{"id": "realness"}]},
        "block (1,0) contains non-finite entries",
    ),
    "damped-wave-simulate": (
        "simulate",
        {
            "model": {"name": "damped_wave", "alpha": [1e308, 1e308]},
            "evolution": {"dt": 0.01, "t_end": 0.1},
            "initial": {"kind": "random"},
        },
        "block (1,0) contains non-finite entries",
    ),
    "grid-length": (
        "check",
        {"model": {"name": "dynamic_bc_heat"}, "grid": {"n_cells": 8, "length": 1e-300}, "checks": [{"id": "realness"}]},
        "v_gram is not positive definite",
    ),
    "grid-underflow": (
        "check",
        {"model": {"name": "dynamic_bc_heat"}, "grid": {"n_cells": 8, "length": 5e-324}, "checks": [{"id": "realness"}]},
        "length 5e-324 on 8 cells gives no positive finite cell width",
    ),
}


@pytest.mark.parametrize("name", sorted(OVERFLOW_CONFIGS))
def test_overflowing_model_input_exit_two_with_one_line(tmp_path, capsys, name):
    command, config, message = OVERFLOW_CONFIGS[name]
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {"schema_version": 1, "grid": {"n_cells": 8}, **config})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would print a second line
        assert main([command, cfg, "--quiet", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_memory_error_exit_two_with_one_line(tmp_path, capsys, monkeypatch):
    # assembly is replaced by one that raises numpy's MemoryError; nothing that large is allocated here
    message = "Unable to allocate 298. GiB for an array with shape (200001, 200001) and data type float64"

    def too_large(grid):
        raise MemoryError(message)

    monkeypatch.setattr(cli.models, "build_dynamic_bc_heat", too_large)
    out = tmp_path / "out"
    config = {"schema_version": 1, "model": {"name": "dynamic_bc_heat"}, "grid": {"n_cells": 200000}, "checks": [{"id": "realness"}]}
    assert main(["check", write_config(tmp_path / "c.json", config), "--quiet", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: the problem does not fit in memory: {message}\n"
    assert not out.exists()


def test_solver_failure_exits_one_with_one_line(tmp_path, capsys):
    # an anti-diffusive coupling grows without bound until a solve loses accuracy
    config = {
        "schema_version": 1,
        "model": {"name": "constant_coupled", "coupling": [[-1.0]]},
        "grid": {"n_cells": 8},
        "evolution": {"dt": 0.01, "t_end": 100},
        "initial": {"kind": "random"},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would print a second line
        code = main(["simulate", write_config(tmp_path / "c.json", config), "--quiet", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure: implicit-euler solve lost accuracy at step ") and err.count("\n") == 1


# command, a change to that command's base config, and the one stderr line it gives
ONE_LINE_CONFIGS = {
    "schema-version": ("simulate", {"schema_version": 2}, "config error: schema_version must be 1, got 2"),
    "ephaptic-without-coefficients": (
        "simulate",
        {"model": {"name": "ephaptic"}},
        "config error: ephaptic model needs 'coefficients' or 'pattern'",
    ),
    "in-phase-unequal-dimensions": (
        "simulate",
        {"model": {"name": "dynamic_bc_heat"}},
        "config error: in_phase initial data needs identical component dimensions",
    ),
    "non-square-coupling": (
        "check",
        {"model": {"name": "constant_coupled", "coupling": [[1.0, 2.0]]}},
        "validation error: coupling matrix must be square, got (1, 2)",
    ),
    # the solve tolerance is a constant of the package, no longer a setting
    "retired-solver-tolerance": (
        "simulate",
        {"evolution": {"dt": 0.01, "t_end": 0.2, "solver_tolerance": 1e-9}},
        "config error: unknown key 'solver_tolerance' in evolution",
    ),
    # rounded to two steps, this run would have ended at t = 0.12
    "simulate-t-end-between-steps": (
        "simulate",
        {"evolution": {"dt": 0.06, "t_end": 0.1}},
        "validation error: t_end must be a whole number of steps: t_end/dt = 1.66667",
    ),
    "check-t-end-between-steps": (
        "check",
        {"model": {"name": "constant_coupled", "coupling": [[1.0]]}, "evolution": {"dt": 0.3, "t_end": 0.5}},
        "validation error: t_end must be a whole number of steps: t_end/dt = 1.66667",
    ),
}


@pytest.mark.parametrize("name", sorted(ONE_LINE_CONFIGS))
def test_invalid_input_exits_two_with_one_line(tmp_path, capsys, name):
    command, changes, message = ONE_LINE_CONFIGS[name]
    if command == "simulate":
        config = base_simulate_config("unused")
    else:
        config = {"schema_version": 1, "grid": {"n_cells": 8}, "checks": [{"id": "realness"}]}
    config.update(changes)
    out = tmp_path / "out"
    assert main([command, write_config(tmp_path / "c.json", config), "--quiet", "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_constant_data_report_on_stdout(tmp_path, capsys):
    # constants lie in the kernel of every stiffness block, so the state does not move
    out = tmp_path / "out"
    config = base_simulate_config(str(out), initial={"kind": "constant", "amplitude": 2.0})
    assert main(["simulate", write_config(tmp_path / "c.json", config)]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'trajectory.csv'} (11 records)\n"
    header, rows = read_rows(out / "trajectory.csv")
    for name in ("min_value", "sup_norm"):
        assert [float(r[header.index(name)]) for r in rows] == pytest.approx([2.0] * 11, rel=1e-12)


def test_check_report_on_stdout(tmp_path, capsys):
    out = tmp_path / "out"
    config = {
        "schema_version": 1,
        "model": {"name": "ephaptic", "pattern": {"kind": "difference"}},
        "grid": {"n_cells": 8},
        "checks": [{"id": "realness"}, {"id": "row_sums"}],
    }
    assert main(["check", write_config(tmp_path / "c.json", config), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (out / "checks.txt").read_text()


def test_module_entry_point(tmp_path):
    # python -m coupledforms.cli runs main and exits with its code
    config = write_config(tmp_path / "c.json", {"schema_version": 1, "constants": {"alpha": [[2, -1], [-1, 2]]}})
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv, code in (([config], 0), ([str(tmp_path / "missing.json")], 2)):
        done = subprocess.run(
            [sys.executable, "-m", "coupledforms.cli", "certify", *argv, "--quiet", "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == code, done.stderr
    assert (tmp_path / "out" / "certify.json").is_file()


def assert_same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    return names


def test_check_determinism_byte_identical(tmp_path):
    config = write_config(tmp_path / "c.json", dict(OUTPUT_PATH_CONFIGS["check"], schema_version=1))
    for out in ("a", "b"):
        assert main(["check", config, "--quiet", "--seed", "3", "--out", str(tmp_path / out)]) == 1
    assert assert_same_files(tmp_path / "a", tmp_path / "b") == ["checks.json", "checks.txt", "witness_linf.csv"]


def test_certify_determinism_byte_identical(tmp_path):
    config = {"schema_version": 1, "seed": 5, "constants": {"alpha": [[2, -1], [-1, 2]], "omega": [[0, 0.5], [0.5, 0]]}}
    config = write_config(tmp_path / "c.json", config)
    for out in ("a", "b"):
        assert main(["certify", config, "--quiet", "--out", str(tmp_path / out)]) == 0
    assert assert_same_files(tmp_path / "a", tmp_path / "b") == ["certify.json", "certify.txt"]


def test_failed_write_leaves_no_temporary_file(tmp_path):
    # a directory stands at the target path, so the rename that completes the write fails
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        report._atomic_write(str(tmp_path / "taken"), "text\n")
    assert [p.name for p in tmp_path.rglob("*")] == ["taken"]
