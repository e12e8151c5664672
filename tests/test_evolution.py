import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from coupledforms import (
    CoefficientField,
    DiscreteSpace,
    EvolutionConfig,
    FormMatrix,
    Grid1D,
    ProjectionSpec,
    averaging_projection,
    build_constant_coupled,
    build_damped_wave,
    build_dynamic_bc_heat,
    build_ephaptic,
    evolve,
    h_norm,
    p1_mass,
    p1_stiffness,
    two_fibre_coupling,
)
from coupledforms.errors import DimensionError, NumericalError, SolverError, ValidationError
from coupledforms import evolution, forms
from coupledforms.evolution import SCHEMES, Stepper, _lift, _observables, _start, _states, _stepper
from coupledforms.forms import _Factor


def scalar_form(s_value, mass_value=1.0):
    return FormMatrix(
        [DiscreteSpace([[mass_value]], [[mass_value]])],
        [[np.array([[s_value]])]],
    )


def traced_peak(run) -> int:
    """Peak bytes of Python-visible allocations (numpy arrays included) while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def step_once(stepper, u):
    """One unchecked step of ``u`` in the form's coordinates, entered and left through the stepper's map."""
    out = stepper.step(stepper.enter(u))[0]
    return stepper.leave(out, np.empty_like(out))


def recorded_states(form, u0, cfg):
    """The flat state at every step ``evolve(form, u0, cfg)`` records, read from the stepping generator's blocks."""
    u = _start(form, u0)
    return [block[:, j].reshape(u.shape) for _, block in _states(form, u, cfg) for j in range(block.shape[1])]


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0, "t_end": 1.0},
            {"dt": -1e-3, "t_end": 1.0},
            {"dt": 2.0, "t_end": 1.0},
            {"dt": 0.1, "t_end": 1.0, "scheme": "forward-euler"},
            {"dt": 0.1, "t_end": 1.0, "record_every": 0},
            {"dt": 0.1, "t_end": np.inf},
            {"dt": np.inf, "t_end": np.inf},
            {"dt": np.nan, "t_end": 1.0},
            {"dt": 0.1, "t_end": np.nan},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValidationError):
            EvolutionConfig(**kwargs)

    def test_long_finite_run_is_valid(self):
        assert EvolutionConfig(dt=1.0, t_end=1e300).t_end == 1e300

    def test_step_count(self):
        assert EvolutionConfig(dt=1e-3, t_end=1.0).n_steps == 1000

    @pytest.mark.parametrize("dt, t_end", [(0.06, 0.1), (0.3, 0.5), (0.04, 0.1), (1e-320, 1.0)])
    def test_t_end_that_is_not_a_whole_number_of_steps_is_refused(self, dt, t_end):
        # rounded, the first three runs would end at 0.12, 0.6 and 0.08; the last has t_end/dt = inf
        with pytest.raises(ValidationError, match="t_end must be a whole number of steps"):
            EvolutionConfig(dt=dt, t_end=t_end)

    @pytest.mark.parametrize("dt, t_end, n_steps", [(0.01, 0.37, 37), (1e-3, 1.0, 1000), (0.1, 0.3, 3)])
    def test_whole_number_of_steps_is_accepted(self, dt, t_end, n_steps):
        # fl(0.3/0.1) is 2.9999999999999996: the ratio is rounded before it is compared
        cfg = EvolutionConfig(dt=dt, t_end=t_end)
        assert cfg.n_steps == n_steps
        assert cfg.n_steps * cfg.dt == pytest.approx(t_end, rel=1e-9)

    def test_solver_tolerance_is_a_constant(self):
        assert evolution.SOLVER_TOLERANCE == 1e-9
        with pytest.raises(TypeError):
            EvolutionConfig(dt=0.1, t_end=1.0, solver_tolerance=1e-9)


class TestStep:
    def test_scalar_implicit_euler(self):
        form = scalar_form(1.0)
        cfg = EvolutionConfig(dt=1.0, t_end=1.0)
        out, _ = Stepper(form, cfg).step(form.flatten([[1.0]]))
        assert out[0] == pytest.approx(0.5)

    def test_zero_form_is_identity(self):
        grid = Grid1D(6)
        form = build_ephaptic(grid, CoefficientField(np.zeros((2, 2, 6))))
        rng = np.random.default_rng(0)
        u = [rng.standard_normal(grid.n_nodes) for _ in range(2)]
        out = step_once(Stepper(form, EvolutionConfig(dt=0.5, t_end=1.0)), form.flatten(u))
        for a, b in zip(form.split(out), u):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15)

    def test_scalar_crank_nicolson_stability_boundary(self):
        form = scalar_form(1.0)
        cfg = EvolutionConfig(dt=2.0, t_end=2.0, scheme="crank-nicolson")
        out, _ = Stepper(form, cfg).step(form.flatten([[1.0]]))
        assert out[0] == pytest.approx(0.0, abs=1e-14)

    def test_singular_system_raises_named_solver_error(self):
        # S = -Mass/dt makes the implicit-Euler matrix exactly zero
        form = scalar_form(-1.0)
        cfg = EvolutionConfig(dt=1.0, t_end=1.0)
        with pytest.raises(SolverError, match="implicit-euler.*dt=1.0"):
            Stepper(form, cfg).step(form.flatten([[1.0]]))

    @pytest.mark.parametrize(
        "s",
        [
            # Mass + dt*S = [[1, 1], [1, 1 + 1e-15]], tridiagonal: nonzero
            # pivots, but the last is about 5e-16 of the matrix's inf-norm
            [[0.0, 1.0], [1.0, 1e-15]],
            # Mass + dt*S = diag(1, 1e-16), factored by ?pbtrf: |R_22|**2 is the last pivot
            [[0.0, 0.0], [0.0, -1.0 + 1e-16]],
        ],
        ids=["tridiagonal", "diagonal"],
    )
    def test_numerically_singular_system_raises_named_solver_error(self, s):
        form = FormMatrix([DiscreteSpace(np.eye(2), np.eye(2))], [[np.array(s)]])
        cfg = EvolutionConfig(dt=1.0, t_end=1.0)
        with pytest.raises(SolverError, match="implicit-euler system is numerically singular at dt=1.0"):
            Stepper(form, cfg).step(form.flatten([np.ones(2)]))

    @pytest.mark.parametrize("kernel", ["cholesky", "lu"])
    def test_inaccurate_solve_raises_named_solver_error(self, monkeypatch, kernel):
        # a banded solve that is wrong in one trial column must be caught
        # by the per-column residual check, not passed on as a state, and
        # named by its own step, not by the first or last of its block
        if kernel == "cholesky":
            form = build_constant_coupled(Grid1D(8), [[2.0, -1.0], [-1.0, 2.0]])
        else:
            form = build_damped_wave(Grid1D(8), 1.0)
        real_solve = _Factor.solve
        solves, first_bad = [], [1]

        def corrupt_column(lu, rhs):
            solves.append(None)
            out = real_solve(lu, rhs)
            if len(solves) >= first_bad[0]:
                out[:, 1] *= 1.0 + 1e-6
            return out

        monkeypatch.setattr(_Factor, "solve", corrupt_column)
        # alternating data: a step of the constant state solves for a zero increment, which no scaling corrupts
        u0 = [np.outer((-1.0) ** np.arange(9), np.ones(3))] * 2
        cfg = EvolutionConfig(dt=0.05, t_end=0.2, scheme="crank-nicolson")
        assert _stepper(form, cfg).kernel == kernel
        with pytest.raises(SolverError, match=r"crank-nicolson solve lost accuracy at step 1 \(dt=0.05"):
            evolve(form, u0, cfg)

        # blocks of 4 steps: step 6 is the second of the block 5..8
        monkeypatch.setattr(evolution, "BLOCK_BYTES", 4 * _start(form, u0).nbytes)
        solves.clear()
        first_bad[0] = 6
        cfg = EvolutionConfig(dt=0.05, t_end=0.6, scheme="crank-nicolson")
        with pytest.raises(SolverError, match=r"crank-nicolson solve lost accuracy at step 6 \(dt=0.05"):
            evolve(form, u0, cfg)
        # no state of the failing block is handed out before its check
        solves.clear()
        handed_out = []
        with pytest.raises(SolverError, match="at step 6 "):
            for steps, _ in _states(form, _start(form, u0), cfg):
                handed_out.append(list(steps))
        assert handed_out == [[0], [1, 2, 3, 4]]

    RING = np.array([[3, -1, -1, 0], [-1, 3, 0, -1], [-1, 0, 3, -1], [0, -1, -1, 3]])

    @pytest.mark.parametrize("n_cells, scale", [(1024, 1e6), (64, 1e8)])
    def test_backward_stable_solve_of_a_rescaled_coupling_steps(self, n_cells, scale):
        # |Mass u| is far below 1 here, so a residual bound of solver_tolerance*max(1, |rhs u|) was absolute
        # and failed these solves at step 1 (residual 1.5e-8 at 1024 cells); their backward error is round-off
        form = build_constant_coupled(Grid1D(n_cells), scale * self.RING)
        rng = np.random.default_rng(0)
        record = evolve(form, [rng.uniform(-1.0, 1.0, d) for d in form.dims], EvolutionConfig(dt=1e-2, t_end=0.05))
        assert len(record.times) == 6

    def test_single_corrupted_entry_on_a_large_system_raises(self, monkeypatch):
        # N = 65,540: the bound grows with |lhs|_inf |u+|, but one entry off by 1e-6 (residual 1.3e-3) stays above it
        form = build_constant_coupled(Grid1D(16384), self.RING)
        real_solve = _Factor.solve

        def corrupt_entry(factor, rhs):
            out = real_solve(factor, rhs)
            out[out.shape[0] // 2] += 1e-6
            return out

        monkeypatch.setattr(_Factor, "solve", corrupt_entry)
        with pytest.raises(SolverError, match=r"implicit-euler solve lost accuracy at step 1 "):
            evolve(form, [np.ones(d) for d in form.dims], EvolutionConfig(dt=1e-2, t_end=0.02))


def stepwise_record(form, u0, cfg, proj):
    """``evolve``'s times, observable rows and final state, from a loop over ``Stepper`` that records state by state."""
    u = _start(form, u0)
    shape = u.shape
    u = u.reshape(shape[0], -1)
    lifted, rank = None, 0
    if proj is not None:
        lifted, rank = _lift(np.hstack([proj.eig1, proj.eig0]).conj().T, form.spaces[0].dim), proj.rank
    stepper = Stepper(form, cfg)
    times, rows = [0.0], [_observables(form, u[:, None], lifted, rank)]
    u = stepper.enter(u)
    for k in range(1, cfg.n_steps + 1):
        u, _ = stepper.step(u)
        if k % cfg.record_every == 0 or k == cfg.n_steps:
            times.append(k * cfg.dt)
            rows.append(_observables(form, stepper.leave(u.copy(), np.empty_like(u))[:, None], lifted, rank))
    return np.array(times), np.concatenate(rows, axis=1), stepper.leave(u.copy(), np.empty_like(u)).reshape(shape)


BLOCK_CASES = {
    # form, complex initial data, projection; the ephaptic form steps mode by mode, the other two the assembled band
    "real": (lambda: ephaptic_difference(), False, False),
    "real-assembled-projected": (lambda: per_cell_field(), False, True),
    "real-projected": (lambda: ephaptic_difference(), False, True),
    "complex-data-projected": (lambda: ephaptic_difference(), True, True),
    "complex-form": (lambda: build_damped_wave(Grid1D(16), 1.0 + 0.5j), True, False),
}


class TestBlockRecording:
    """Blocks of 4 steps against the state-by-state loop they replaced: every recorded value bit for bit."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n_steps", [3, 4, 11], ids=["below-block", "one-block", "ragged"])
    @pytest.mark.parametrize("record_every", [1, 3, 7])
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_matches_stepwise_loop(self, monkeypatch, case, record_every, n_steps, k):
        build, complex_data, projected = BLOCK_CASES[case]
        form = build()
        rng = np.random.default_rng(n_steps)
        shapes = [(d,) if k == 1 else (d, k) for d in form.dims]
        u0 = [rng.standard_normal(shape) for shape in shapes]
        if complex_data:
            u0 = [u + 1j * rng.standard_normal(u.shape) for u in u0]
        proj = averaging_projection(2) if projected else None
        cfg = EvolutionConfig(dt=0.01, t_end=0.01 * n_steps, scheme="crank-nicolson", record_every=record_every)
        monkeypatch.setattr(evolution, "BLOCK_BYTES", 4 * _start(form, u0).nbytes)
        times, rows, final = stepwise_record(form, u0, cfg, proj)
        record = evolve(form, u0, cfg, proj=proj)
        np.testing.assert_array_equal(record.times, times)
        assert len(record.observables) == rows.shape[0]
        for want, got in zip(rows, record.observables.values()):
            assert np.array_equal(got, want if k > 1 else want[:, 0])
        assert np.array_equal(np.concatenate(record.final_state), final)

    def test_blocks_follow_the_byte_budget(self, monkeypatch):
        form = ephaptic_difference()
        u = _start(form, [np.ones(17), np.zeros(17)])
        monkeypatch.setattr(evolution, "BLOCK_BYTES", 4 * u.nbytes + u.nbytes // 2)
        cfg = EvolutionConfig(dt=0.01, t_end=0.11, record_every=3)
        blocks = [list(steps) for steps, _ in _states(form, u, cfg)]
        assert blocks == [[0], [3], [6], [9, 11]]

    def test_default_budget_at_the_benchmark_size(self):
        # 256 KiB of one 1026-unknown real state: 31 steps a block
        form = build_ephaptic(Grid1D(512), CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), 512))
        u = _start(form, [np.ones(513), np.zeros(513)])
        blocks = _states(form, u, EvolutionConfig(dt=1e-3, t_end=0.04, scheme="crank-nicolson"))
        assert [len(steps) for steps, _ in blocks] == [1, 31, 9]


class TestEvolve:
    def test_zero_data_stays_zero(self):
        form = build_constant_coupled(Grid1D(8), [[2.0, -1.0], [-1.0, 2.0]])
        traj = evolve(form, [np.zeros(9), np.zeros(9)], EvolutionConfig(dt=0.1, t_end=0.5))
        for name in ("h_norm", "sup_norm", "min_value"):
            np.testing.assert_array_equal(traj.observable(name), 0.0)

    def test_heat_norm_monotone(self):
        grid = Grid1D(16)
        form = build_constant_coupled(grid, np.eye(1))
        rng = np.random.default_rng(1)
        traj = evolve(form, [rng.standard_normal(grid.n_nodes)], EvolutionConfig(dt=1e-2, t_end=0.5))
        norms = traj.observable("h_norm")
        assert np.all(np.diff(norms) <= 1e-9)

    def test_contractivity_for_accretive_models(self):
        grid = Grid1D(12)
        forms = [
            build_constant_coupled(grid, [[2.0, -1.0], [-1.0, 2.0]]),
            build_ephaptic(grid, CoefficientField.constant(two_fibre_coupling("shared"), 12)),
        ]
        cfg = EvolutionConfig(dt=5e-2, t_end=0.5)
        for form in forms:
            for trial in range(3):
                rng = np.random.default_rng(trial)
                u0 = [rng.standard_normal(s.dim) for s in form.spaces]
                traj = evolve(form, u0, cfg)
                norms = traj.observable("h_norm")
                assert np.all(np.diff(norms) <= 1e-9)

    def test_mass_mean_conserved_per_step(self):
        grid = Grid1D(20)
        form = build_constant_coupled(grid, np.eye(2))
        mass = p1_mass(grid)
        rng = np.random.default_rng(2)
        u0 = [rng.standard_normal(grid.n_nodes) for _ in range(2)]
        states = recorded_states(form, u0, EvolutionConfig(dt=1e-2, t_end=0.2))
        ones = np.ones(grid.n_nodes)
        for i in range(2):
            means = [float(ones @ mass @ form.split(state)[i].real) for state in states]
            assert np.abs(np.diff(means)).max() <= 1e-10

    def test_scheme_consistency_first_order_gap(self):
        # smooth data keeps the run in the asymptotic small-dt regime,
        # where the scheme gap is dominated by the O(dt) Euler error
        grid = Grid1D(10)
        form = build_constant_coupled(grid, [[2.0, -1.0], [-1.0, 2.0]])
        x = grid.nodes
        u0 = [np.cos(np.pi * x), 0.5 * np.cos(2 * np.pi * x)]
        t_end = 0.25
        gaps = []
        for dt in (t_end / 32, t_end / 64, t_end / 128):
            ie = evolve(form, u0, EvolutionConfig(dt=dt, t_end=t_end))
            cn = evolve(form, u0, EvolutionConfig(dt=dt, t_end=t_end, scheme="crank-nicolson"))
            diff = [a - b for a, b in zip(ie.final_state, cn.final_state)]
            gaps.append(h_norm(form, diff))
        ratios = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
        for r in ratios:
            assert 1.6 <= r <= 2.4

    def test_exponential_decay_for_coercive_form(self):
        # augment the diffusion blocks with mass so the form dominates
        # the full domain norm and the truncated interval still decays
        grid = Grid1D(16)
        base = build_constant_coupled(grid, [[2.0, -1.0], [-1.0, 2.0]])
        mass = p1_mass(grid)
        blocks = [
            [base.csr_blocks[i][j].toarray() + (mass if i == j else 0.0) for j in range(2)]
            for i in range(2)
        ]
        form = FormMatrix(base.spaces, blocks, {"model": "coercive_test"})
        rng = np.random.default_rng(4)
        u0 = [rng.standard_normal(grid.n_nodes) for _ in range(2)]
        traj = evolve(form, u0, EvolutionConfig(dt=1e-2, t_end=1.0, record_every=10))
        norms = traj.observable("h_norm")
        rate = -np.polyfit(traj.times, np.log(norms), 1)[0]
        assert rate > 0.5
        envelope = norms[0] * np.exp(-rate * traj.times)
        assert np.all(norms <= envelope * (1 + 1e-6) + 1e-12)

    def test_in_phase_data_stays_in_phase(self):
        grid = Grid1D(32)
        coeffs = CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), 32)
        form = build_ephaptic(grid, coeffs)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(grid.n_nodes)
        traj = evolve(
            form,
            [x, x.copy()],
            EvolutionConfig(dt=1e-2, t_end=0.3),
            proj=averaging_projection(2),
        )
        assert traj.observable("strip_distance").max() <= 1e-8

    def test_imaginary_data_on_real_form_keep_their_imaginary_part(self):
        grid = Grid1D(32)
        form = build_ephaptic(grid, CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), 32))
        assert form.is_real
        x = np.random.default_rng(6).standard_normal(grid.n_nodes)
        cfg = EvolutionConfig(dt=1e-2, t_end=0.3)
        real = evolve(form, [x, x], cfg)
        imaginary = evolve(form, [1j * x, 1j * x], cfg)
        np.testing.assert_allclose(imaginary.observable("h_norm"), real.observable("h_norm"), rtol=1e-12, atol=0)
        for got, want in zip(imaginary.final_state, real.final_state):
            np.testing.assert_array_equal(got, 1j * want)

    def test_projection_requires_identical_spaces(self):
        form = build_damped_wave(Grid1D(8))
        u0 = [np.zeros(9), np.zeros(9)]
        with pytest.raises(ValidationError, match="identical"):
            evolve(form, u0, EvolutionConfig(dt=0.1, t_end=0.2), proj=averaging_projection(2))

    @pytest.mark.parametrize("proj", [[[1, 0], [0, 0.5]], np.full((2, 2), 0.5)], ids=["not-a-projection", "raw-matrix"])
    def test_projection_must_be_a_validated_spec(self, proj):
        # ProjectionSpec rejects the first (idempotency residual 0.25) and accepts the second
        form = build_ephaptic(Grid1D(8), CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), 8))
        with pytest.raises(ValidationError, match="ProjectionSpec"):
            evolve(form, [np.ones(9), np.zeros(9)], EvolutionConfig(dt=0.1, t_end=0.2), proj=proj)

    def test_projection_size_must_match(self):
        form = build_constant_coupled(Grid1D(4), np.eye(2))
        with pytest.raises(DimensionError, match="projection matrix must be 2x2"):
            evolve(form, [np.ones(5), np.ones(5)], EvolutionConfig(dt=0.1, t_end=0.2), proj=averaging_projection(3))

    def test_overflowing_observable_raises(self):
        # finite data whose squared norm overflows: the solves pass, the recorded h_norm does not
        form = build_constant_coupled(Grid1D(4), np.eye(1))
        with np.errstate(over="ignore"), pytest.raises(SolverError, match="observable 'h_norm' became non-finite"):
            evolve(form, [np.full(5, 1e200)], EvolutionConfig(dt=0.1, t_end=0.2))

    def test_non_finite_initial_data_rejected(self):
        form = build_constant_coupled(Grid1D(4), np.eye(1))
        bad = [np.full(5, np.nan)]
        with pytest.raises(ValidationError):
            evolve(form, bad, EvolutionConfig(dt=0.1, t_end=0.2))

    def test_recorded_times_strictly_increasing(self):
        form = build_constant_coupled(Grid1D(6), np.eye(1))
        traj = evolve(form, [np.ones(7)], EvolutionConfig(dt=0.1, t_end=1.0, record_every=3))
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)


class TestHNorm:
    def test_zero(self):
        form = build_constant_coupled(Grid1D(4), np.eye(1))
        assert h_norm(form, [np.zeros(5)]) == 0.0

    def test_euclidean_case(self):
        form = FormMatrix(
            [DiscreteSpace(np.eye(2), np.eye(2))],
            [[np.zeros((2, 2))]],
        )
        assert h_norm(form, [np.array([3.0, 4.0])]) == pytest.approx(5.0)

    def test_block_pythagoras(self):
        grid = Grid1D(6)
        form = build_constant_coupled(grid, np.eye(2))
        rng = np.random.default_rng(6)
        u = [rng.standard_normal(grid.n_nodes) for _ in range(2)]
        parts = [h_norm(form, [u[0], np.zeros_like(u[1])]), h_norm(form, [np.zeros_like(u[0]), u[1]])]
        assert h_norm(form, u) == pytest.approx(np.hypot(*parts))


class TestBatchedEvolve:
    @staticmethod
    def broken_ephaptic(n):
        coeffs = CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), n)
        return build_ephaptic(Grid1D(n), coeffs.perturbed(0, 0, 0.6))

    @pytest.mark.parametrize("with_proj", [False, True])
    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_columns_match_single_trial_runs(self, scheme, with_proj):
        form = self.broken_ephaptic(16)
        proj = averaging_projection(2) if with_proj else None
        cfg = EvolutionConfig(dt=1e-2, t_end=0.1, scheme=scheme, record_every=3)
        rng = np.random.default_rng(7)
        # very different column scales: the solve residual is judged per column
        trials = [[scale * rng.standard_normal(17) for _ in range(2)] for scale in (1.0, 1e-6, 1e6)]
        batch_u0 = [np.stack(comp, axis=1) for comp in zip(*trials)]
        batch = evolve(form, batch_u0, cfg, proj=proj)
        batch_states = recorded_states(form, batch_u0, cfg)
        for c, u0 in enumerate(trials):
            single = evolve(form, u0, cfg, proj=proj)
            column = batch.trial(c)
            np.testing.assert_array_equal(column.times, single.times)
            assert column.observables.keys() == single.observables.keys()
            for name, want in single.observables.items():
                got = column.observable(name)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            single_states = recorded_states(form, u0, cfg)
            assert len(batch_states) == len(single_states) == len(single.times)
            for got_state, want in zip(batch_states, single_states):
                got = got_state[:, c]
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            got, want = np.concatenate(column.final_state), np.concatenate(single.final_state)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_batched_shapes(self):
        form = self.broken_ephaptic(8)
        u0 = [np.ones((9, 4)), np.zeros((9, 4))]
        traj = evolve(form, u0, EvolutionConfig(dt=0.1, t_end=0.3), proj=averaging_projection(2))
        assert traj.observable("strip_distance").shape == (4, 4)
        assert [b.shape for b in traj.final_state] == [(9, 4), (9, 4)]
        np.testing.assert_allclose(h_norm(form, traj.final_state), traj.observable("h_norm")[-1], rtol=1e-14)
        one = traj.trial(3)
        assert one.observable("h_norm").shape == (4,)
        assert [b.shape for b in one.final_state] == [(9,), (9,)]

    def test_long_run_keeps_no_recorded_states(self):
        # 1001 records of one N = 1026 run are 7.8 MiB of states; keeping
        # them would put the peak above half of that
        n = 512
        form = build_ephaptic(Grid1D(n), CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), n))
        rng = np.random.default_rng(10)
        u0 = [rng.standard_normal(s.dim) for s in form.spaces]
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0, scheme="crank-nicolson")
        runs = []
        peak = traced_peak(lambda: runs.append(evolve(form, u0, cfg)))
        assert len(runs[0].times) == 1001
        record_set = len(runs[0].times) * form.total_dim * 1 * 8
        assert peak < record_set / 2

    def test_mixed_component_shapes_rejected(self):
        form = self.broken_ephaptic(4)
        with pytest.raises(DimensionError):
            evolve(form, [np.ones((5, 2)), np.ones(5)], EvolutionConfig(dt=0.1, t_end=0.2))

    def test_zero_trial_columns_rejected_before_stepping(self):
        form = build_constant_coupled(Grid1D(8), [[2.0, -0.5], [-0.5, 2.0]])
        with pytest.raises(ValidationError, match="no trial columns"):
            evolve(form, [np.ones((9, 0)), np.ones((9, 0))], EvolutionConfig(dt=0.1, t_end=0.3))
        assert form._memo == {}  # nothing was factored


# Agreement of the sparse stepper with a dense LU solve of the same
# schemes, relative to the largest entry of the reference state.
DENSE_REFERENCE_RTOL = 1e-10


def dense_mass(form):
    """Block diagonal of the ambient Grams, built from the spaces."""
    return scipy.linalg.block_diag(*[space.h_gram for space in form.spaces])


def dense_reference_states(form, u0, cfg):
    """States of ``cfg``'s scheme stepped with a dense LAPACK LU, one per step."""
    theta = 1.0 if cfg.scheme == "implicit-euler" else 0.5
    mass = dense_mass(form)
    full = np.block([[form.csr_blocks[i][j].toarray() for j in range(form.m)] for i in range(form.m)])
    lhs = mass + theta * cfg.dt * full
    rhs = mass - (1.0 - theta) * cfg.dt * full
    lu = scipy.linalg.lu_factor(lhs)
    u = np.concatenate(u0).astype(complex)
    states = [u]
    for _ in range(cfg.n_steps):
        u = scipy.linalg.lu_solve(lu, rhs @ u)
        states.append(u)
    return states


def assert_matches_dense(traj, states, reference):
    """Every recorded state, and the run's final state, against the dense reference."""
    assert len(states) == len(reference) == len(traj.times)
    for got, want in zip([*states, np.concatenate(traj.final_state)], [*reference, reference[-1]]):
        assert np.max(np.abs(got - want)) <= DENSE_REFERENCE_RTOL * np.max(np.abs(want))


class TestDenseReference:
    def test_real_form_with_complex_projection(self):
        # real states of a real form, observed through a complex projection
        form = TestBatchedEvolve.broken_ephaptic(16)
        assert form.is_real
        v = np.array([1.0, 1j]) / np.sqrt(2.0)
        proj = ProjectionSpec(np.outer(v, v.conj()))
        rng = np.random.default_rng(8)
        u0 = [rng.standard_normal(17) for _ in range(2)]
        cfg = EvolutionConfig(dt=1e-2, t_end=0.5, scheme="crank-nicolson")
        traj = evolve(form, u0, cfg, proj=proj)
        reference = dense_reference_states(form, u0, cfg)
        assert_matches_dense(traj, recorded_states(form, u0, cfg), reference)
        lifted = np.kron(proj.matrix, np.eye(17))
        mass = dense_mass(form)
        for name, part in (("projection_norm", lambda u: lifted @ u), ("strip_distance", lambda u: u - lifted @ u)):
            want = np.array([np.sqrt(np.vdot(part(u), mass @ part(u)).real) for u in reference])
            got = traj.observable(name)
            assert np.max(np.abs(got - want)) <= DENSE_REFERENCE_RTOL * np.max(want), name

    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    def test_batched_complex_damped_wave(self, scheme):
        form = build_damped_wave(Grid1D(16), alpha=1.0 + 0.5j)
        assert not form.is_real
        rng = np.random.default_rng(9)
        u0 = [rng.standard_normal((17, 3)) + 1j * rng.standard_normal((17, 3)) for _ in range(2)]
        cfg = EvolutionConfig(dt=1e-2, t_end=0.5, scheme=scheme)
        states = recorded_states(form, u0, cfg)
        assert_matches_dense(evolve(form, u0, cfg), states, dense_reference_states(form, u0, cfg))


# Agreement of one banded step with a dense solve of the same system,
# relative to the norm of the dense solution.
BANDED_STEP_RTOL = 1e-12


def spy_lapack(monkeypatch) -> list:
    """Names of the LAPACK routines called from here on, in call order, by way of ``scipy.linalg.get_lapack_funcs``."""
    called = []
    real_get = scipy.linalg.get_lapack_funcs

    def spying_get(names, arrays=()):
        funcs = real_get(names, arrays)

        def spy(f):
            # a LAPACK wrapper's __name__ is "function <routine>"
            return lambda *a, **k: called.append(f.__name__.split()[-1]) or f(*a, **k)

        return spy(funcs) if isinstance(names, str) else tuple(map(spy, funcs))

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", spying_get)
    return called


def pivoting_form():
    """A nonsymmetric form whose systems need row interchanges.

    At dt = 1 the implicit-Euler system has a zero diagonal and the
    Crank-Nicolson one a diagonal smaller than the subdiagonal.
    """
    n = 6
    s = -np.eye(n) + np.diag(np.full(n - 1, 2.0), 1) + np.diag(np.full(n - 1, 3.0), -1)
    return FormMatrix([DiscreteSpace(np.eye(n), np.eye(n))], [[s]])


def ephaptic_difference():
    coupling = two_fibre_coupling("difference", diffusion=2.0, coupling=0.5)
    return build_ephaptic(Grid1D(16), CoefficientField.constant(coupling, 16))


def ephaptic(kind):
    return build_ephaptic(Grid1D(16), CoefficientField.constant(two_fibre_coupling(kind, 2.0, 0.5), 16))


def complex_hermitian_coupling(tridiagonal=False):
    """A complex Hermitian form: the 2-fibre coupling ``[[2, 1j], [-1j, 2]]``, or one
    component with stiffness plus the Hermitian tridiagonal ``i*(E - E^T)``."""
    grid = Grid1D(16)
    space = DiscreteSpace(p1_mass(grid), p1_mass(grid) + p1_stiffness(grid))
    stiff = p1_stiffness(grid)
    if tridiagonal:
        skew = np.eye(grid.n_nodes, k=1) - np.eye(grid.n_nodes, k=-1)
        return FormMatrix([space], [[stiff + 0.5j * skew]])
    return FormMatrix([space] * 2, [[2.0 * stiff, 1j * stiff], [-1j * stiff, 2.0 * stiff]])


FOUR_CYCLE = [[3, -1, -1, 0], [-1, 3, 0, -1], [-1, 0, 3, -1], [0, -1, -1, 3]]

# builder, dt and the factor the stepper must hold
STEP_FORMS = {
    "ephaptic_difference": (ephaptic_difference, 1e-2, "cholesky"),
    "ephaptic_sum": (lambda: ephaptic("sum"), 1e-2, "cholesky"),
    "ephaptic_shared": (lambda: ephaptic("shared"), 1e-2, "cholesky"),
    "four_cycle": (lambda: build_constant_coupled(Grid1D(16), FOUR_CYCLE), 1e-2, "cholesky"),
    "dynamic_bc_heat": (lambda: build_dynamic_bc_heat(Grid1D(16)), 1e-2, "cholesky"),
    "complex_hermitian": (complex_hermitian_coupling, 1e-2, "cholesky"),
    "complex_hermitian_tridiagonal": (lambda: complex_hermitian_coupling(True), 1e-2, "cholesky"),
    # Hermitian but indefinite at this dt: ?pbtrf breaks down
    "indefinite": (lambda: build_constant_coupled(Grid1D(8), [[1.0, 2.0], [2.0, 1.0]]), 0.05, "lu"),
    "damped_wave_real": (lambda: build_damped_wave(Grid1D(16), 1.0), 1e-2, "lu"),
    "damped_wave_complex": (lambda: build_damped_wave(Grid1D(16), 1.0 + 0.5j), 1e-2, "lu"),
    "pivoting": (pivoting_form, 1.0, "lu"),
}


def dense_step(form, cfg, u):
    """One step of ``cfg``'s scheme from ``u`` by a dense solve of the assembled system."""
    theta = 1.0 if cfg.scheme == "implicit-euler" else 0.5
    mass, s = form.mass_csr.toarray(), form.form_csr.toarray()
    return np.linalg.solve(mass + theta * cfg.dt * s, (mass - (1.0 - theta) * cfg.dt * s) @ u)


def assert_matches_dense_step(form, cfg, stepper, u):
    got, want = step_once(stepper, u), dense_step(form, cfg, u)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.linalg.norm(got - want) <= BANDED_STEP_RTOL * np.linalg.norm(want)


def zero_minus_one_couplings(m):
    """Every m-by-m coupling with diagonal 3 and symmetric off-diagonal entries 0 or -1."""
    upper = list(zip(*np.triu_indices(m, 1)))
    for entries in itertools.product((0.0, -1.0), repeat=len(upper)):
        coupling = 3.0 * np.eye(m)
        for (i, j), value in zip(upper, entries):
            coupling[i, j] = coupling[j, i] = value
        yield coupling


def per_cell_field():
    """The two-fibre ``difference`` field with a first diagonal coefficient that varies from cell to cell."""
    values = np.array(CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), 16).values)
    values[0, 0] += np.linspace(0.0, 1.0, 16)
    return build_ephaptic(Grid1D(16), CoefficientField(values))


# forms that are a real symmetric coupling times one block over one ambient Gram, and forms that are not
KRONECKER_FORMS = ["ephaptic_difference", "ephaptic_sum", "ephaptic_shared", "four_cycle"]
ASSEMBLED_FORMS = {
    "per_cell_field": per_cell_field,
    "non_symmetric_coupling": lambda: build_constant_coupled(Grid1D(16), [[2.0, 0.0], [-1.0, 2.0]]),
    "dynamic_bc_heat": STEP_FORMS["dynamic_bc_heat"][0],
    "damped_wave": STEP_FORMS["damped_wave_real"][0],
    "complex_hermitian": complex_hermitian_coupling,
}


class TestBandedStep:
    @pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
    @pytest.mark.parametrize("name", sorted(STEP_FORMS))
    @pytest.mark.parametrize("data", ["vector", "block", "complex"])
    def test_step_matches_dense_solve(self, name, scheme, data):
        build, dt, kernel = STEP_FORMS[name]
        form = build()
        cfg = EvolutionConfig(dt=dt, t_end=dt, scheme=scheme)
        rng = np.random.default_rng(12)
        shape = (form.total_dim,) if data == "vector" else (form.total_dim, 3)
        u = rng.standard_normal(shape)
        if data == "complex" or not form.is_real:
            u = u + 1j * rng.standard_normal(shape)
        stepper = Stepper(form, cfg)
        assert stepper.kernel == kernel
        assert_matches_dense_step(form, cfg, stepper, u)
        if name == "pivoting":
            assert np.any(stepper._factor.ipiv != np.arange(form.total_dim))

    @pytest.mark.parametrize("name", KRONECKER_FORMS)
    def test_kronecker_forms_step_mode_by_mode(self, name):
        build, dt, _ = STEP_FORMS[name]
        assert Stepper(build(), EvolutionConfig(dt=dt, t_end=dt))._basis is not None

    @pytest.mark.parametrize("name", sorted(ASSEMBLED_FORMS))
    def test_other_forms_step_the_assembled_system(self, name):
        assert Stepper(ASSEMBLED_FORMS[name](), EvolutionConfig(dt=1e-2, t_end=1e-2))._basis is None

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_symmetric_couplings_factor_tridiagonal(self, monkeypatch, m):
        # in RCM order the assembled band is up to 2m - 1 wide, one more on some of these couplings;
        # every mode's system is tridiagonal
        called = spy_lapack(monkeypatch)
        cfg = EvolutionConfig(dt=1e-2, t_end=1e-2)
        u = np.random.default_rng(m).standard_normal((9 * m, 2))
        for coupling in zero_minus_one_couplings(m):
            form = build_constant_coupled(Grid1D(8), coupling)
            called.clear()
            stepper = Stepper(form, cfg)
            assert_matches_dense_step(form, cfg, stepper, u)
            assert stepper._basis is not None and called == ["dpttrf", "dpttrs"], coupling

    def test_many_trial_step_of_a_kronecker_form_is_one_tridiagonal_solve(self, monkeypatch):
        form = build_ephaptic(Grid1D(512), CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), 512))
        called = spy_lapack(monkeypatch)
        stepper = Stepper(form, EvolutionConfig(dt=1e-3, t_end=1e-3, scheme="crank-nicolson"))
        called.clear()
        stepper.step(stepper.enter(np.ones((form.total_dim, 20))))
        assert called == ["dpttrs"]

    def test_basis_off_the_similarity_bound_falls_back_to_the_assembled_band(self, monkeypatch):
        real_eigh, bases = np.linalg.eigh, []

        def perturbed_eigh(a):
            values, vectors = real_eigh(a)
            bases.append(vectors)
            return values, vectors + 1e-8

        form, cfg = ephaptic_difference(), EvolutionConfig(dt=1e-2, t_end=1e-2, scheme="crank-nicolson")
        monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
        called = spy_lapack(monkeypatch)
        stepper = Stepper(form, cfg)
        assert len(bases) == 1 and stepper._basis is None and called == ["dpbtrf"]
        assert_matches_dense_step(form, cfg, stepper, np.random.default_rng(14).standard_normal((form.total_dim, 3)))

    def test_indefinite_system_factors_by_cholesky_at_a_small_step(self):
        form = build_constant_coupled(Grid1D(8), [[1.0, 2.0], [2.0, 1.0]])
        for scheme in SCHEMES:
            assert Stepper(form, EvolutionConfig(dt=0.05, t_end=0.2, scheme=scheme)).kernel == "lu"
            assert Stepper(form, EvolutionConfig(dt=1e-3, t_end=0.2, scheme=scheme)).kernel == "cholesky"

    @pytest.mark.parametrize("tridiagonal, routine", [(False, "zpbtrs"), (True, "zpttrs")])
    def test_complex_hermitian_system_solves_in_complex_arithmetic(self, monkeypatch, tridiagonal, routine):
        form = complex_hermitian_coupling(tridiagonal)
        called = spy_lapack(monkeypatch)
        stepper = Stepper(form, EvolutionConfig(dt=1e-2, t_end=1e-2))
        u = np.ones(form.total_dim, dtype=complex)
        stepper.step(u)
        assert stepper.kernel == "cholesky" and called[-1] == routine

    def test_one_stepper_per_form_and_config(self):
        form = build_dynamic_bc_heat(Grid1D(8))
        cfg = EvolutionConfig(dt=0.01, t_end=0.05)
        assert _stepper(form, cfg) is _stepper(form, EvolutionConfig(dt=0.01, t_end=0.05))
        assert _stepper(form, EvolutionConfig(dt=0.02, t_end=0.06)) is not _stepper(form, cfg)
        assert _stepper(form.diagonal_part(), cfg) is not _stepper(form, cfg)
        assert _stepper(build_dynamic_bc_heat(Grid1D(8)), cfg) is not _stepper(form, cfg)

    def test_configs_that_differ_only_in_t_end_or_record_every_share_one_stepper(self):
        form = build_dynamic_bc_heat(Grid1D(8))
        cfg = EvolutionConfig(dt=0.01, t_end=0.05)
        stepper = _stepper(form, cfg)
        assert _stepper(form, EvolutionConfig(dt=0.01, t_end=0.05, scheme="crank-nicolson")) is not stepper
        u0 = [np.linspace(-1.0, 1.0, d) for d in form.dims]
        for other in (EvolutionConfig(dt=0.01, t_end=0.2), EvolutionConfig(dt=0.01, t_end=0.05, record_every=2)):
            assert _stepper(form, other) is stepper
            # the shared stepper steps each run to its own end, as a stepper of its own would
            shared, alone = evolve(form, u0, other), evolve(build_dynamic_bc_heat(Grid1D(8)), u0, other)
            np.testing.assert_array_equal(shared.times, alone.times)
            np.testing.assert_array_equal(shared.observable("h_norm"), alone.observable("h_norm"))


def four_cycle_field(n_cells, changed_cell=None):
    """The 4-cycle coupling given cell by cell, doubled on ``changed_cell``."""
    values = np.tile(np.array(FOUR_CYCLE, dtype=float)[:, :, None], n_cells)
    if changed_cell is not None:
        values[:, :, changed_cell] *= 2.0
    return CoefficientField(values)


class TestDeclaredKronecker:
    """The stepper splits a form only by the ``C (x) K`` its builder declared."""

    CFG = EvolutionConfig(dt=1e-2, t_end=1e-2)

    def test_a_constant_per_cell_field_is_declared_and_steps_mode_by_mode(self):
        form = build_ephaptic(Grid1D(16), four_cycle_field(16))
        np.testing.assert_array_equal(form.declared[0], FOUR_CYCLE)
        stepper = Stepper(form, self.CFG)
        assert stepper._basis is not None
        assert_matches_dense_step(form, self.CFG, stepper, np.random.default_rng(15).standard_normal(form.total_dim))

    def test_the_field_with_one_cell_changed_steps_the_band(self):
        # still C (x) K(c) with a per-cell K(c), but nothing declares it
        form = build_ephaptic(Grid1D(16), four_cycle_field(16, changed_cell=7))
        stepper = Stepper(form, self.CFG)
        assert form.declared is None and stepper._basis is None
        assert_matches_dense_step(form, self.CFG, stepper, np.random.default_rng(16).standard_normal(form.total_dim))

    def test_an_unsymmetric_constant_coupling_is_declared_but_steps_the_band(self):
        form = build_constant_coupled(Grid1D(16), [[2.0, 0.0], [-1.0, 2.0]])
        stepper = Stepper(form, self.CFG)
        assert form.declared is not None and stepper._basis is None
        assert_matches_dense_step(form, self.CFG, stepper, np.random.default_rng(17).standard_normal(form.total_dim))

    def test_a_hand_built_kronecker_form_steps_the_band(self):
        grid = Grid1D(16)
        k = p1_stiffness(grid)
        space = DiscreteSpace(p1_mass(grid), p1_mass(grid) + k)
        form = FormMatrix([space] * 4, [[c * k for c in row] for row in FOUR_CYCLE])
        stepper = Stepper(form, self.CFG)
        assert form.declared is None and stepper._basis is None
        assert_matches_dense_step(form, self.CFG, stepper, np.random.default_rng(18).standard_normal(form.total_dim))

    @pytest.mark.parametrize("changed_cell, split", [(None, True), (8192, False)], ids=["split", "band"])
    def test_the_constant_state_stays_put(self, changed_cell, split):
        # S maps the constant state to exactly 0, so every increment is exactly 0; only the m-term mixes of
        # enter and leave round, on the split path
        form = build_ephaptic(Grid1D(16384), four_cycle_field(16384, changed_cell))
        assert not np.any(form.form_csr @ np.ones(form.total_dim))
        cfg = EvolutionConfig(dt=1e-2, t_end=0.2)
        assert (_stepper(form, cfg)._basis is not None) == split
        record = evolve(form, [np.ones(d) for d in form.dims], cfg)
        assert len(record.times) == 21
        assert np.abs(np.concatenate(record.final_state) - 1.0).max() <= 8 * np.finfo(float).eps
        assert np.abs(record.observable("sup_norm") - 1.0).max() <= 8 * np.finfo(float).eps


def banded(n, diagonals) -> scipy.sparse.csr_array:
    """n-by-n CSR array holding ``diagonals[k]``, a value or the entries, on diagonal k."""
    return scipy.sparse.csr_array(sum(np.diag(np.full(n - abs(k), v), k) for k, v in diagonals.items()))


# matrix, the kernel that must factor it and the LAPACK routine that must solve with it
FACTOR_CASES = {
    "tridiagonal": (banded(12, {0: 2.5, 1: -1.0, -1: -1.0}), "cholesky", "dpttrs"),
    "pentadiagonal": (banded(12, {0: 5.0, 1: -1.0, -1: -1.0, 2: -1.0, -2: -1.0}), "cholesky", "dpbtrs"),
    # ?pttrf breaks down at a pivot that is not positive; the same band then goes to ?gbtrf
    "indefinite": (banded(12, {0: np.tile([2.0, -3.0], 6), 1: 1.0, -1: 1.0}), "lu", "dgbtrs"),
    "non_hermitian": (banded(12, {0: -1.0, 1: 2.0, -1: 3.0}), "lu", "dgbtrs"),
    "complex_hermitian": (
        banded(12, {0: 5.0, 1: -1.0 + 0.5j, -1: -1.0 - 0.5j, 2: -0.5j, -2: 0.5j}), "cholesky", "zpbtrs"
    ),
    "complex_non_hermitian": (banded(12, {0: -1.0 + 0.5j, 1: 2.0, -1: 3.0}), "lu", "zgbtrs"),
}


class TestFactor:
    @pytest.mark.parametrize("data", ["vector", "block", "complex"])
    @pytest.mark.parametrize("name", sorted(FACTOR_CASES))
    def test_solve_matches_dense_solve(self, monkeypatch, name, data):
        a, kernel, routine = FACTOR_CASES[name]
        orderings = []
        rcm_entries = forms._rcm_entries
        monkeypatch.setattr(forms, "_rcm_entries", lambda *mats: orderings.append(None) or rcm_entries(*mats))
        called = spy_lapack(monkeypatch)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(12 if data == "vector" else (12, 3))
        if data == "complex":
            b = b + 1j * rng.standard_normal(b.shape)
        factor = _Factor(a)
        got = factor.solve(b[factor.order])[np.argsort(factor.order)]
        want = np.linalg.solve(a.toarray(), b)
        assert (factor.kernel, called[-1]) == (kernel, routine)
        assert len(orderings) == 1  # a breakdown falls back to LU in the same order
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.linalg.norm(got - want) <= BANDED_STEP_RTOL * np.linalg.norm(want)

    @pytest.mark.parametrize(
        "a",
        [[[0.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 2.0]], [[1.0, 1.0], [1.0, 1.0]]],
        ids=["zero_column", "hermitian_singular"],
    )
    def test_exactly_zero_lu_pivot_raises(self, a):
        with pytest.raises(NumericalError, match="of the banded LU is exactly zero"):
            _Factor(scipy.sparse.csr_array(a))
