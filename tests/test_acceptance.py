"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible under ``pytest -s``)
and asserts the criterion at its stated tolerance.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest

from coupledforms import (
    CoefficientField,
    ConstantsBundle,
    EvolutionConfig,
    Grid1D,
    averaging_projection,
    build_constant_coupled,
    build_damped_wave,
    build_dynamic_bc_heat,
    build_ephaptic,
    domination_check,
    ephaptic_sum_check,
    estimate_ellipticity,
    evolve,
    full_ellipticity,
    gershgorin_check,
    is_discretely_accretive,
    linf_contractivity_check,
    min_symmetric_eigenvalue,
    p1_mass,
    parabola_check,
    positivity_check,
    strip_invariance_runtime,
    subspace_invariance_check,
    subsystem_invariance_check,
    two_fibre_coupling,
)
from coupledforms.cli import main
from coupledforms.evolution import Stepper, _start, _states


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance {number:02d}] FAIL {description}")
        raise
    print(f"[acceptance {number:02d}] PASS {description}")


def test_criterion_01_gershgorin_soundness():
    with criterion(1, "row-dominance pass implies positive definiteness, 1000 bundles"):
        rng = np.random.default_rng(2024)
        passes = 0
        for _ in range(1000):
            m = int(rng.integers(1, 7))
            alpha = -np.abs(rng.standard_normal((m, m)))
            np.fill_diagonal(alpha, rng.uniform(-1.0, 3.0, m))
            bundle = ConstantsBundle(alpha, np.zeros((m, m)), np.zeros(m))
            if gershgorin_check(bundle).passed:
                passes += 1
                assert min_symmetric_eigenvalue(alpha) > 0
        assert passes > 100  # the sample covers both verdicts


def test_criterion_02_certificate_vs_discrete_consistency():
    with criterion(2, "discrete coercivity respects the scalar certificate on n=64"):
        grid = Grid1D(64)
        form = build_constant_coupled(grid, [[2.0, -1.0], [-1.0, 2.0]])
        cert_alpha = min_symmetric_eigenvalue([[2.0, -1.0], [-1.0, 2.0]])
        assert cert_alpha == pytest.approx(1.0)
        diag_factor = min(estimate_ellipticity(form, i, 0.0) for i in range(2))
        assert full_ellipticity(form, 0.0) >= cert_alpha * diag_factor - 1e-6


def test_criterion_03_implicit_euler_contractivity():
    with criterion(3, "implicit Euler contracts the ambient norm on accretive models"):
        grid = Grid1D(32)
        zoo = [
            build_ephaptic(grid, CoefficientField.constant(two_fibre_coupling(kind, 2.0, 0.5), 32))
            for kind in ("difference", "sum", "shared")
        ]
        zoo.append(build_constant_coupled(grid, [[2.0, -1.0], [-1.0, 2.0]]))
        zoo.append(build_constant_coupled(grid, np.eye(2)))
        # models with non-accretive assembled forms are excluded by the gate
        assert not is_discretely_accretive(build_dynamic_bc_heat(grid))
        accretive = [f for f in zoo if is_discretely_accretive(f)]
        assert len(accretive) == len(zoo)
        cfg = EvolutionConfig(dt=1e-2, t_end=0.1, record_every=1)
        for form in accretive:
            for trial in range(20):
                rng = np.random.default_rng([7, trial])
                u0 = [rng.standard_normal(s.dim) for s in form.spaces]
                norms = evolve(form, u0, cfg).observable("h_norm")
                assert np.all(np.diff(norms) <= 1e-9)


def test_criterion_04_ephaptic_invariance_three_patterns():
    with criterion(4, "balanced two-fibre patterns keep in-phase data in phase"):
        grid = Grid1D(128)
        proj = averaging_projection(2)
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0, record_every=1)
        rng = np.random.default_rng(11)
        for kind in ("difference", "sum", "shared"):
            coeffs = CoefficientField.constant(two_fibre_coupling(kind, 2.0, 0.5), 128)
            assert ephaptic_sum_check(coeffs, "rows").passed
            assert ephaptic_sum_check(coeffs, "columns").passed
            form = build_ephaptic(grid, coeffs)
            assert subspace_invariance_check(form, proj, "strip_C").passed
            assert subspace_invariance_check(form, proj, "strip_B").passed
            x = rng.standard_normal(grid.n_nodes)
            traj = evolve(form, [x, x.copy()], cfg, proj=proj)
            assert traj.observable("strip_distance").max() <= 1e-8


def test_criterion_05_ephaptic_falsification():
    with criterion(5, "broken row sums fail algebraically and leak at runtime"):
        grid = Grid1D(128)
        coeffs = CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), 128)
        coeffs = coeffs.perturbed(0, 0, 0.6)
        rows = coeffs.values.sum(axis=1)
        assert np.abs(rows[0] - rows[1]).max() >= 0.5
        form = build_ephaptic(grid, coeffs)
        proj = averaging_projection(2)
        assert subspace_invariance_check(form, proj, "strip_C").failed
        rng = np.random.default_rng(12)
        x = rng.standard_normal(grid.n_nodes)
        cfg = EvolutionConfig(dt=1e-2, t_end=1.0, record_every=1)
        traj = evolve(form, [x, x.copy()], cfg, proj=proj)
        strip = traj.observable("strip_distance")
        assert strip[0] <= 1e-10
        assert strip.max() >= 1e-3


def test_criterion_06_damped_wave_mean_and_parabola():
    with criterion(6, "damped wave keeps zero mean and obeys the parabola bound"):
        grid = Grid1D(64)
        form = build_damped_wave(grid, alpha=1.0)
        mass = p1_mass(grid)
        ones = np.ones(grid.n_nodes)
        total = float(ones @ mass @ ones)
        rng = np.random.default_rng(21)
        u0 = []
        for _ in range(2):
            u = rng.standard_normal(grid.n_nodes)
            u -= ones * (float(ones @ mass @ u) / total)
            u0.append(u)
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0, record_every=10)
        blocks = _states(form, _start(form, u0), cfg)
        states = (form.split(block[:, j, 0]) for _, block in blocks for j in range(block.shape[1]))
        means = [abs(float(ones @ mass @ state[0].real)) / total for state in states]
        assert max(means) <= 1e-8
        assert parabola_check(form, form.metadata["parabola_constant"]).passed


def test_criterion_07_dynamic_bc_triple():
    with criterion(7, "dynamic boundary heat: positive, dominating, not sup-norm contractive"):
        form = build_dynamic_bc_heat(Grid1D(64))
        cfg = EvolutionConfig(dt=1e-2, t_end=0.2, record_every=1)
        pos = positivity_check(form, trials=20, cfg=cfg, seed=30)
        assert pos.passed
        assert pos.details["worst_nodal_min"] >= -1e-8
        dom = domination_check(form, trials=20, cfg=cfg, seed=31)
        assert dom.passed
        assert dom.details["worst_margin"] >= -1e-8
        linf = linf_contractivity_check(form, trials=20, cfg=cfg, seed=32)
        assert linf.failed
        ones = evolve(form, [np.ones(s.dim) for s in form.spaces], cfg)
        np.testing.assert_array_equal(linf.witness.times, ones.times)
        np.testing.assert_allclose(linf.witness.observable("sup_norm"), ones.observable("sup_norm"), rtol=1e-12)
        sup = linf.witness.observable("sup_norm")
        crossing = linf.witness.times[np.argmax(sup > 1.01)]
        assert sup.max() > 1.01
        assert crossing <= 0.2


def test_criterion_08_strip_scaling_law():
    with criterion(8, "strip verdicts agree across distances 0.1, 1, 10"):
        grid = Grid1D(64)
        proj = averaging_projection(2)
        cfg = EvolutionConfig(dt=1e-2, t_end=1.0, record_every=1)
        levels = [0.1, 1.0, 10.0]
        balanced = build_ephaptic(
            grid, CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), 64)
        )
        res = strip_invariance_runtime(balanced, proj, levels, cfg=cfg, trials=3, seed=40)
        assert res.passed
        assert res.details["scaling_consistent"]
        assert len({lv["passed"] for lv in res.details["levels"]}) == 1
        broken = build_ephaptic(
            grid,
            CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), 64).perturbed(0, 0, 0.6),
        )
        res = strip_invariance_runtime(broken, proj, levels, cfg=cfg, trials=3, seed=41)
        assert res.failed
        assert res.details["scaling_consistent"]
        assert len({lv["passed"] for lv in res.details["levels"]}) == 1


def test_criterion_09_operator_blocks_identify_entrywise():
    with criterion(9, "generator blocks equal the per-block solves on all builders"):
        grid = Grid1D(32)
        builders = [
            build_ephaptic(grid, CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), 32)),
            build_damped_wave(grid, alpha=1.0),
            build_dynamic_bc_heat(grid),
            build_constant_coupled(grid, [[2.0, -1.0], [-1.0, 2.0]]),
        ]
        dt = 1e-3
        for form in builders:
            # the implicit-Euler step of every unit vector is (I - dt A)^-1, A = -Mass^-1 S
            stepper = Stepper(form, EvolutionConfig(dt=dt, t_end=dt))
            eye = np.eye(form.total_dim)
            step = stepper.step(eye[stepper.order])[0][stepper.position]
            op = (eye - np.linalg.inv(step)) / dt
            scale = max(np.abs(op).max(), 1.0)
            for i in range(form.m):
                for j in range(form.m):
                    expected = -np.linalg.solve(form.spaces[i].h_gram, form.csr_blocks[i][j].toarray())
                    got = op[form.block_slices[i], form.block_slices[j]]
                    assert np.abs(got - expected).max() <= 1e-12 * scale


def test_criterion_10_subsystem_invariance():
    with criterion(10, "autonomous leading pair keeps a silent third fibre silent"):
        n = 64
        values = np.zeros((3, 3, n))
        for i in range(3):
            values[i, i] = 1.0
        values[0, 1] = -0.1
        values[0, 2] = -0.2
        values[1, 2] = -0.1
        grid = Grid1D(n)
        form = build_ephaptic(grid, CoefficientField(values))
        assert subsystem_invariance_check(form, 2).passed
        rng = np.random.default_rng(50)
        u0 = [rng.standard_normal(grid.n_nodes), rng.standard_normal(grid.n_nodes), np.zeros(grid.n_nodes)]
        cfg = EvolutionConfig(dt=1e-2, t_end=0.5, record_every=1)
        traj = evolve(form, u0, cfg)
        assert traj.observable("comp_norm_3").max() <= 1e-8
        leaky = np.array(values)
        leaky[2, 0] = 0.1
        form_leaky = build_ephaptic(grid, CoefficientField(leaky))
        assert subsystem_invariance_check(form_leaky, 2).failed


def test_criterion_11_simulate_determinism(tmp_path):
    with criterion(11, "identical config and seed give byte-identical CSV"):
        config = {
            "schema_version": 1,
            "seed": 3,
            "model": {
                "name": "ephaptic",
                "pattern": {"kind": "difference", "diffusion": 2.0, "coupling": 0.5},
            },
            "grid": {"n_cells": 64},
            "evolution": {"dt": 1e-2, "t_end": 0.5, "record_every": 2},
            "initial": {"kind": "random"},
            "projection": {},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(cfg_path), "--quiet", "--out", str(out_a)]) == 0
        assert main(["simulate", str(cfg_path), "--quiet", "--out", str(out_b)]) == 0
        csv_a = (out_a / "trajectory.csv").read_bytes()
        csv_b = (out_b / "trajectory.csv").read_bytes()
        assert csv_a == csv_b
        assert len(csv_a) > 0
