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
    domination_check,
    ephaptic_sum_check,
    evolve,
    full_ellipticity,
    h_norm,
    linf_contractivity_check,
    p1_mass,
    parabola_check,
    positivity_check,
    product_subspace_check,
    sector_check,
    strip_invariance_runtime,
    subspace_invariance_check,
    subsystem_invariance_check,
    two_fibre_coupling,
)
from coupledforms import evolution, forms, qualitative
from coupledforms.errors import DimensionError, ValidationError
from coupledforms.evolution import _start, _states
from coupledforms.forms import _lambda_max, _midpoint, _support
from coupledforms.qualitative import (
    BLOCK_ZERO_RTOL,
    RUNTIME_CONE_TOL,
    SUM_SPREAD_TOL,
    _form_scale,
    _trial_rng,
    realness_check,
)

CFG = EvolutionConfig(dt=1e-2, t_end=0.2, scheme="implicit-euler", record_every=1)


def blbekbes_form(n=32, kind="difference"):
    grid = Grid1D(n)
    coeffs = CoefficientField.constant(two_fibre_coupling(kind, 2.0, 0.5), n)
    return build_ephaptic(grid, coeffs), coeffs


class TestProjections:
    def test_averaging_two_components(self):
        proj = averaging_projection(2)
        np.testing.assert_allclose(proj.matrix, [[0.5, 0.5], [0.5, 0.5]])
        assert proj.rank == 1
        v1 = proj.eig1[:, 0]
        np.testing.assert_allclose(np.abs(v1), [np.sqrt(0.5)] * 2, atol=1e-14)
        v0 = proj.eig0[:, 0]
        assert abs(v0 @ v1) < 1e-14

    def test_equality_and_hash_go_by_identity(self):
        # the generated ones compared and hashed the ndarray fields: == raised ValueError, hash TypeError
        proj, other = averaging_projection(2), averaging_projection(2)
        assert proj == proj and proj != other and hash(proj) == hash(proj)
        assert len({proj, other}) == 2

    def test_identity_projection(self):
        proj = ProjectionSpec(np.eye(3))
        assert proj.rank == 3
        assert proj.eig0.shape == (3, 0)

    def test_averaging_sizes(self):
        assert averaging_projection(1).matrix[0, 0] == pytest.approx(1.0)
        assert averaging_projection(3).rank == 1
        with pytest.raises(ValidationError, match="m must be >= 1"):
            averaging_projection(0)

    def test_non_hermitian_rejected_with_residuals(self):
        with pytest.raises(ValidationError, match="residual"):
            ProjectionSpec([[1.0, 1.0], [0.0, 0.0]])

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValidationError):
            ProjectionSpec(0.5 * np.eye(2))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError, match=r"^projection matrix must be square, got \(2, 3\)$"):
            ProjectionSpec(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "matrix",
        [[[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 0.0]], np.zeros((0, 0))],
        ids=["nan", "inf", "empty"],
    )
    def test_non_finite_or_empty_rejected(self, matrix):
        # a NaN residual compares False with every bound, and an empty matrix has no largest entry
        with pytest.raises(ValidationError, match="projection matrix must be non-empty and finite"):
            ProjectionSpec(matrix)

    def test_bases_are_split_from_the_matrix_only(self):
        # bases that disagree with the matrix cannot be given: strip observables come from the split
        with pytest.raises(TypeError):
            ProjectionSpec(np.eye(2), np.zeros((2, 0)), np.eye(2))

    @pytest.mark.parametrize(
        "matrix",
        [np.eye(3), np.zeros((2, 2)), np.full((3, 3), 1.0 / 3.0), np.outer([1.0, 1j], [1.0, -1j]) / 2.0],
        ids=["identity", "zero", "averaging", "complex"],
    )
    def test_fixed_space_basis_reproduces_the_matrix(self, matrix):
        proj = ProjectionSpec(matrix)
        np.testing.assert_allclose(proj.eig1 @ proj.eig1.conj().T, matrix, rtol=0, atol=1e-14)
        assert proj.eig1.shape[1] + proj.eig0.shape[1] == proj.m

    def test_caller_matrix_is_copied(self):
        for matrix in (np.eye(2), np.eye(2, dtype=complex), np.outer([1.0, 1j], [1.0, -1j]) / 2.0):
            proj = ProjectionSpec(matrix)
            assert matrix.flags.writeable and not proj.matrix.flags.writeable
            assert not np.shares_memory(proj.matrix, matrix)


class TestSubspaceInvariance:
    def test_rejects_an_unknown_direction(self):
        form = build_constant_coupled(Grid1D(8), np.eye(2))
        with pytest.raises(ValidationError, match="direction must be strip_C or strip_B, got 'strip'"):
            subspace_invariance_check(form, averaging_projection(2), "strip")

    def test_rejects_a_projection_of_another_size(self):
        form = build_constant_coupled(Grid1D(8), np.eye(2))
        with pytest.raises(DimensionError, match="projection size does not match the number of components"):
            subspace_invariance_check(form, averaging_projection(3))

    def test_decoupled_identical_blocks_pass(self):
        form = build_constant_coupled(Grid1D(8), np.eye(2))
        res = subspace_invariance_check(form, averaging_projection(2), "strip_C")
        assert res.passed
        assert res.details["residual"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["difference", "sum", "shared"])
    @pytest.mark.parametrize("direction", ["strip_C", "strip_B"])
    def test_balanced_patterns_pass_both_directions(self, kind, direction):
        form, _ = blbekbes_form(kind=kind)
        res = subspace_invariance_check(form, averaging_projection(2), direction)
        assert res.passed

    def test_generic_coupling_fails(self):
        form = build_constant_coupled(Grid1D(8), [[3.0, -1.0], [-0.2, 2.0]])
        res = subspace_invariance_check(form, averaging_projection(2), "strip_C")
        assert res.failed
        assert res.details["residual"] > 0

    def test_non_identical_spaces_not_applicable(self):
        form = build_damped_wave(Grid1D(8))
        res = subspace_invariance_check(form, averaging_projection(2), "strip_C")
        assert res.status == "not-applicable"

    def test_non_accretive_not_applicable(self):
        form = build_constant_coupled(Grid1D(8), [[1.0, -3.0], [-3.0, 1.0]])
        res = subspace_invariance_check(form, averaging_projection(2), "strip_C")
        assert res.status == "not-applicable"

    def test_ball_direction_equals_strip_on_adjoint(self):
        grid = Grid1D(8)
        rng = np.random.default_rng(2)
        a = -np.abs(rng.standard_normal((2, 2))) * 0.3
        np.fill_diagonal(a, 2.0)
        form = build_constant_coupled(grid, a)
        proj = averaging_projection(2)
        res_b = subspace_invariance_check(form, proj, "strip_B")
        res_c_adj = subspace_invariance_check(form.adjoint(), proj, "strip_C")
        assert res_b.status == res_c_adj.status
        assert res_b.details["residual"] == pytest.approx(res_c_adj.details["residual"], rel=1e-12)

    def test_row_sum_equivalence_on_random_fields(self):
        # constant row sums hold exactly when the averaged strip is invariant
        rng = np.random.default_rng(3)
        grid = Grid1D(6)
        proj = averaging_projection(2)
        seen = {True: 0, False: 0}
        for trial in range(12):
            values = np.empty((2, 2, 6))
            diag = rng.uniform(1.5, 3.0)
            off = -rng.uniform(0.1, 0.5)
            values[0, 0] = diag
            values[1, 1] = diag
            values[0, 1] = off
            values[1, 0] = off
            if trial % 2:
                values[0, 0] += rng.uniform(0.2, 0.7, 6)
            coeffs = CoefficientField(values)
            form = build_ephaptic(grid, coeffs)
            rows = ephaptic_sum_check(coeffs, "rows").passed
            strip = subspace_invariance_check(form, proj, "strip_C").passed
            assert rows == strip
            seen[rows] += 1
        assert seen[True] and seen[False]


def mean_weights(grid, k=1):
    """Coordinates of the integral functionals of ``x^0 .. x^(k-1)`` in the hat basis."""
    x = np.linspace(0.0, grid.length, grid.n_nodes)
    return p1_mass(grid) @ np.stack([x**p for p in range(k)], axis=1)


class TestProductSubspace:
    def test_no_functionals_vacuous_pass(self):
        form = build_constant_coupled(Grid1D(6), [[2.0, -1.0], [-1.0, 2.0]])
        res = product_subspace_check(form, [np.zeros((7, 0)), np.zeros((7, 0))])
        assert res.passed
        assert res.details["max_residual"] == 0.0

    def test_damped_wave_mean_zero_pass(self):
        grid = Grid1D(12)
        form = build_damped_wave(grid, 1.0)
        w = p1_mass(grid) @ np.ones(grid.n_nodes)
        res = product_subspace_check(form, [w, w])
        assert res.passed
        assert set(res.details) == {"max_residual", "relative_residual", "note"}

    def test_random_functionals_fail_on_generic_form(self):
        form = build_constant_coupled(Grid1D(8), [[2.0, -1.0], [-1.0, 2.0]])
        rng = np.random.default_rng(4)
        res = product_subspace_check(form, [rng.standard_normal(space.dim) for space in form.spaces])
        assert res.failed

    @pytest.mark.parametrize(
        "weights, match",
        [
            ([np.ones(8), np.ones(7)], "must have 7 rows"),
            ([np.ones(7)], "expected 2 weight arrays"),
            ([np.ones(7), np.r_[np.ones(6), np.nan]], "finite"),
            ([np.ones(7), np.zeros(7)], "nonzero"),
            ([np.ones(7), np.ones((7, 2))], "linearly independent"),
        ],
    )
    def test_bad_weights_rejected(self, weights, match):
        form = build_constant_coupled(Grid1D(6), np.eye(2))
        with pytest.raises(ValidationError, match=match):
            product_subspace_check(form, weights)


# ---------------------------------------------------------------------------
# the algebraic residuals against the dense computations they replaced


def dense_lift(vectors, n):
    return np.kron(vectors, np.eye(n))


def dense_subspace_residual(form, proj, direction):
    """``|lift(test)^H S lift(trial)|_F`` with dense lifts."""
    n = form.spaces[0].dim
    fixed, kernel = dense_lift(proj.eig1, n), dense_lift(proj.eig0, n)
    test, trial = (kernel, fixed) if direction == "strip_C" else (fixed, kernel)
    return float(np.linalg.norm(test.conj().T @ (form.form_csr.toarray() @ trial)))


def dense_product_residual(form, weights):
    """Ambient-orthogonal projections onto ``ker W_i^T``; residual from pivoted QR bases."""
    worst = 0.0
    bases = []
    for space, w in zip(form.spaces, weights):
        w = np.asarray(w, dtype=float).reshape(space.dim, -1)
        z = np.linalg.solve(space.h_gram, w)
        p = np.eye(space.dim) - z @ np.linalg.solve(w.T @ z, w.T)
        rank = int(round(float(np.trace(p))))
        q, _, _ = scipy.linalg.qr(p, pivoting=True)
        qc, _, _ = scipy.linalg.qr(np.eye(space.dim) - p, pivoting=True)
        bases.append((q[:, :rank], qc[:, : space.dim - rank]))
    for i in range(form.m):
        for j in range(form.m):
            res = np.linalg.norm(bases[i][1].conj().T @ form.csr_blocks[i][j].toarray() @ bases[j][0])
            worst = max(worst, float(res))
    return worst


def assert_residual_matches(got, want, form):
    assert abs(got - want) <= max(1e-10 * abs(want), 1e-12 * _form_scale(form))


RING = [[3.0, -1.0, -1.0, 0.0], [-1.0, 3.0, 0.0, -1.0], [-1.0, 0.0, 3.0, -1.0], [0.0, -1.0, -1.0, 3.0]]
PAIRS = np.kron(np.eye(2), np.full((2, 2), 0.5))


class TestResidualsMatchDenseOracles:
    @pytest.mark.parametrize("direction", ["strip_C", "strip_B"])
    @pytest.mark.parametrize(
        "case",
        [
            lambda: (build_constant_coupled(Grid1D(16), RING), averaging_projection(4)),
            lambda: (build_constant_coupled(Grid1D(16), RING), ProjectionSpec(PAIRS)),
            lambda: (build_constant_coupled(Grid1D(16), RING), ProjectionSpec(np.diag([1.0, 1.0, 0.0, 0.0]))),
            lambda: (ephaptic(16, delta=0.6), averaging_projection(2)),
        ],
        ids=["ring_averaging", "ring_pairs", "ring_leading_pair", "two_fibre_failing"],
    )
    def test_subspace_residual(self, case, direction):
        form, proj = case()
        res = subspace_invariance_check(form, proj, direction)
        assert_residual_matches(res.details["residual"], dense_subspace_residual(form, proj, direction), form)

    @pytest.mark.parametrize(
        "build, k",
        [
            (build_damped_wave, 1),
            (lambda grid: build_constant_coupled(grid, RING), 1),
            (lambda grid: build_constant_coupled(grid, RING), 2),
        ],
        ids=["damped_wave", "ring", "ring_mean_and_moment"],
    )
    def test_product_residual(self, build, k):
        grid = Grid1D(16)
        form = build(grid)
        weights = [mean_weights(grid, k)] * form.m
        res = product_subspace_check(form, weights)
        assert_residual_matches(res.details["max_residual"], dense_product_residual(form, weights), form)

    def test_product_residual_random_functionals(self):
        form = build_constant_coupled(Grid1D(10), [[3.0, -1.0], [-0.2, 2.0]])
        rng = np.random.default_rng(5)
        weights = [rng.standard_normal((space.dim, 2)) for space in form.spaces]
        res = product_subspace_check(form, weights)
        assert res.failed
        assert_residual_matches(res.details["max_residual"], dense_product_residual(form, weights), form)


class TestSubsystemInvariance:
    def three_component_field(self, c31=0.0):
        values = np.zeros((3, 3, 8))
        for i in range(3):
            values[i, i] = 1.0
        values[0, 1] = -0.1
        values[0, 2] = -0.2
        values[1, 2] = -0.1
        values[2, 0] = c31
        return CoefficientField(values)

    def test_upper_coupling_allowed(self):
        form = build_ephaptic(Grid1D(8), self.three_component_field())
        assert subsystem_invariance_check(form, 2).passed

    def test_lower_coupling_fails(self):
        form = build_ephaptic(Grid1D(8), self.three_component_field(c31=0.1))
        assert subsystem_invariance_check(form, 2).failed

    def test_m0_range_enforced(self):
        form = build_ephaptic(Grid1D(8), self.three_component_field())
        for m0 in (0, 3, 7):
            with pytest.raises(ValidationError, match=r"m0 must lie in \[1, 2\]"):
                subsystem_invariance_check(form, m0)

    @pytest.mark.parametrize(
        "coupling, passed",
        [([[2.0, 0.0], [-1.0, 2.0]], False), ([[2.0, -1.0], [0.0, 2.0]], True), (RING, False)],
        ids=["lower-coupling", "upper-coupling", "four-cycle"],
    )
    def test_one_leading_component(self, coupling, passed):
        # m0 = 1: the first component evolves alone when no block couples it into the others
        res = subsystem_invariance_check(build_constant_coupled(Grid1D(8), coupling), 1)
        assert res.passed is passed and res.details["m0"] == 1
        assert (res.details["max_block_norm"] == 0.0) is passed

    def test_one_component_model_has_no_proper_subsystem(self):
        form = build_constant_coupled(Grid1D(8), [[1.0]])
        for m0 in (0, 1):
            with pytest.raises(ValidationError, match="a one-component model has no proper subsystem"):
                subsystem_invariance_check(form, m0)


class TestSumChecks:
    def test_difference_pattern_rows_and_columns(self):
        coeffs = CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), 4)
        assert ephaptic_sum_check(coeffs, "rows").passed
        assert ephaptic_sum_check(coeffs, "columns").passed

    def test_shared_pattern(self):
        coeffs = CoefficientField.constant(two_fibre_coupling("shared", 1.0, 1.0), 4)
        assert ephaptic_sum_check(coeffs, "rows").passed
        assert ephaptic_sum_check(coeffs, "columns").passed

    def test_unbalanced_fails_with_deviation(self):
        coeffs = CoefficientField.constant([[1.0, 0.0], [0.0, 2.0]], 4)
        res = ephaptic_sum_check(coeffs, "rows")
        assert res.failed
        assert res.details["max_deviation"] == pytest.approx(1.0)

    def test_tiny_unbalanced_field_fails(self):
        # rows sum to 1e-13 and 2e-13: a spread below the old absolute SUM_SPREAD_TOL, but half the sums
        res = ephaptic_sum_check(CoefficientField.constant(1e-13 * np.array([[2.0, -1.0], [-1.0, 3.0]]), 4), "rows")
        assert res.failed and res.details["max_deviation"] == pytest.approx(1e-13)

    def test_large_balanced_field_passes_within_round_off(self):
        # per-cell rows that sum to 1e6 exactly, up to the round-off of summing them
        values = np.random.default_rng(2).uniform(-1e6, 1e6, (3, 3, 64))
        values[:, 2] = 1e6 - values[:, 0] - values[:, 1]
        res = ephaptic_sum_check(CoefficientField(values), "rows")
        assert res.passed and SUM_SPREAD_TOL < res.details["max_deviation"] < 1e-9

    def test_bad_axis_rejected(self):
        coeffs = CoefficientField.constant(np.eye(2), 4)
        with pytest.raises(ValidationError):
            ephaptic_sum_check(coeffs, "diagonal")


class TestRealness:
    def test_real_builders_pass(self):
        grid = Grid1D(6)
        for form in (
            build_constant_coupled(grid, [[2.0, -1.0], [-1.0, 2.0]]),
            build_damped_wave(grid, 1.0),
            build_dynamic_bc_heat(grid),
        ):
            assert realness_check(form).passed

    def test_imaginary_damping_fails(self):
        assert realness_check(build_damped_wave(Grid1D(6), 1j)).failed

    def test_zero_form_passes(self):
        form = build_ephaptic(Grid1D(4), CoefficientField(np.zeros((2, 2, 4))))
        assert realness_check(form).passed


class TestPositivity:
    def test_dynamic_bc_heat_passes(self):
        form = build_dynamic_bc_heat(Grid1D(32))
        res = positivity_check(form, trials=5, cfg=CFG, seed=0)
        assert res.passed
        assert res.details["worst_nodal_min"] >= -1e-8

    def test_positive_coupling_fails_algebraically(self):
        grid = Grid1D(8)
        coeffs = CoefficientField.constant([[1.0, 0.5], [0.5, 1.0]], 8)
        form = build_ephaptic(grid, coeffs)
        res = positivity_check(form, trials=3, cfg=CFG)
        assert res.failed
        assert "violating_block" in res.details

    def test_negative_diffusive_coupling_also_fails(self):
        # gradient couplings are sign-indefinite on the cone whatever
        # the coefficient sign: adjacent hats have opposite slopes
        grid = Grid1D(8)
        coeffs = CoefficientField.constant([[1.5, -0.5], [-0.5, 1.5]], 8)
        form = build_ephaptic(grid, coeffs)
        assert positivity_check(form, trials=3, cfg=CFG).failed

    def test_decoupled_heat_passes(self):
        form = build_constant_coupled(Grid1D(16), np.eye(2))
        assert positivity_check(form, trials=5, cfg=CFG).passed

    def test_complex_form_not_applicable(self):
        form = build_damped_wave(Grid1D(6), 1j)
        assert positivity_check(form, trials=2, cfg=CFG).status == "not-applicable"

    def test_zero_coupling_value_is_positive_zero(self):
        # the boundary trace couplings are stored as -trace, whose zeros are -0.0;
        # the largest coupling entry is the implicit zero of the sparse blocks
        form = build_dynamic_bc_heat(Grid1D(8))
        for res in (positivity_check(form, runtime=False), domination_check(form, trials=2, cfg=CFG)):
            assert res.details["max_coupling_value"] == 0.0
            assert np.copysign(1.0, res.details["max_coupling_value"]) == 1.0


def sign_edge_form(ratio):
    """Two identity-Gram components; one coupling entry at ``ratio`` times the sign tolerance."""
    n = 4
    spaces = [DiscreteSpace(np.eye(n), np.eye(n)) for _ in range(2)]
    blocks = [[3.0 * np.eye(n), -np.eye(n)], [-np.eye(n), 3.0 * np.eye(n)]]
    tol = BLOCK_ZERO_RTOL * _form_scale(FormMatrix(spaces, [row[:] for row in blocks]))
    blocks[0][1][0, 1] = ratio * tol
    return FormMatrix(spaces, blocks), tol


class TestSignTolerance:
    def test_entry_above_tolerance_fails(self):
        form, tol = sign_edge_form(2.0)
        res = positivity_check(form, trials=2, cfg=CFG)
        assert res.failed
        assert res.details["max_coupling_value"] == pytest.approx(2.0 * tol, rel=1e-12)
        assert res.details["violating_block"] == {"i": 0, "j": 1}
        assert domination_check(form, trials=2, cfg=CFG).status == "not-applicable"

    def test_entry_below_tolerance_passes(self):
        form, tol = sign_edge_form(0.5)
        res = positivity_check(form, runtime=False)
        assert res.passed
        assert res.details["max_coupling_value"] == pytest.approx(0.5 * tol, rel=1e-12)

    @pytest.mark.parametrize("s", [1.0, 1e-6, 1e-12, 1e-15])
    def test_sign_verdicts_do_not_depend_on_units(self, s):
        # scaling the form is a change of time units; an absolute floor of BLOCK_ZERO_RTOL once passed it at 1e-15
        form = build_constant_coupled(Grid1D(8), s * np.array([[2.0, 0.5], [0.5, 2.0]]))
        assert positivity_check(form, runtime=False).failed
        assert domination_check(form, trials=2, cfg=CFG).status == "not-applicable"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_dynamic_bc_heat(Grid1D(8)),
            lambda: build_constant_coupled(Grid1D(8), [[1.0, 0.5], [0.5, 1.0]]),
        ],
        ids=["passing", "failing"],
    )
    def test_algebraic_part_ignores_trials_and_seed(self, build):
        form = build()
        results = [positivity_check(form, runtime=False, trials=t, seed=s) for t in (1, 5, 40) for s in (0, 3)]
        assert len({(r.status, r.details["max_coupling_value"]) for r in results}) == 1


class TestDomination:
    def test_dynamic_bc_heat_dominates_frozen_boundary(self):
        form = build_dynamic_bc_heat(Grid1D(32))
        res = domination_check(form, trials=5, cfg=CFG, seed=0)
        assert res.passed
        assert res.details["worst_margin"] >= -1e-8

    def test_zero_coupling_margin_zero_on_cone_data(self):
        form = build_constant_coupled(Grid1D(12), np.eye(2))
        res = domination_check(form, trials=1, cfg=CFG, seed=0)
        assert res.passed
        assert res.details["worst_margin"] == pytest.approx(0.0, abs=1e-10)

    def test_complex_form_not_applicable(self):
        res = domination_check(build_damped_wave(Grid1D(8), 1.0 + 0.5j), trials=2, cfg=CFG)
        assert (res.status, res.details) == ("not-applicable", {"reason": "form is not real"})

    def test_positive_coupling_not_applicable(self):
        grid = Grid1D(8)
        coeffs = CoefficientField.constant([[1.0, 0.5], [0.5, 1.0]], 8)
        form = build_ephaptic(grid, coeffs)
        assert domination_check(form, trials=2, cfg=CFG).status == "not-applicable"


class TestLinfContractivity:
    def test_decoupled_heat_passes(self):
        form = build_constant_coupled(Grid1D(32), np.eye(1))
        res = linf_contractivity_check(form, trials=5, cfg=CFG)
        assert res.passed

    def test_dynamic_bc_fails_with_constant_one_witness(self):
        form = build_dynamic_bc_heat(Grid1D(32))
        res = linf_contractivity_check(form, trials=3, cfg=CFG)
        assert res.failed
        assert res.details["first_violation_time"] <= 0.2
        ones = evolve(form, [np.ones(s.dim) for s in form.spaces], CFG)
        np.testing.assert_array_equal(res.witness.times, ones.times)
        np.testing.assert_allclose(res.witness.observable("sup_norm"), ones.observable("sup_norm"), rtol=1e-12)
        assert res.witness.observable("sup_norm").max() > 1.0 + 1e-8

    def test_zero_form_passes(self):
        form = build_ephaptic(Grid1D(8), CoefficientField(np.zeros((2, 2, 8))))
        res = linf_contractivity_check(form, trials=2, cfg=CFG)
        assert res.passed

    def test_non_accretive_without_violation_not_applicable(self):
        # u' = 1e-12 u grows by 2e-13 over the run: below the cone tolerance, but not contractive
        form = FormMatrix([DiscreteSpace([[1.0]], [[1.0]])], [[np.array([[-1e-12]])]])
        res = linf_contractivity_check(form, trials=2, cfg=CFG)
        assert res.status == "not-applicable"
        assert res.details["reason"] == "form is not accretive, no violation found"
        assert res.details["accretive"] is False and res.details["worst_sup_norm"] <= 1.0 + RUNTIME_CONE_TOL


class TestStripRuntime:
    def test_non_accretive_form_not_applicable(self):
        # the coupling has eigenvalues 3 and -1
        form = build_constant_coupled(Grid1D(8), [[1.0, 2.0], [2.0, 1.0]])
        res = strip_invariance_runtime(form, averaging_projection(2), cfg=CFG)
        assert (res.status, res.details) == ("not-applicable", {"reason": "form is not accretive"})

    def test_balanced_pattern_passes_all_levels(self):
        form, _ = blbekbes_form()
        res = strip_invariance_runtime(
            form, averaging_projection(2), [0.0, 0.1, 1.0, 10.0], cfg=CFG, trials=2, seed=0
        )
        assert res.passed
        assert res.details["scaling_consistent"]
        level0 = res.details["levels"][0]
        assert level0["alpha"] == 0.0
        assert level0["max_distance"] <= 1e-8

    def test_broken_rows_fail_every_positive_level(self):
        grid = Grid1D(32)
        coeffs = CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), 32)
        coeffs = coeffs.perturbed(0, 0, 0.6)
        form = build_ephaptic(grid, coeffs)
        res = strip_invariance_runtime(
            form, averaging_projection(2), [0.1, 1.0, 10.0], cfg=CFG, trials=2, seed=0
        )
        assert res.failed
        assert res.details["scaling_consistent"]
        assert all(not lv["passed"] for lv in res.details["levels"])
        assert res.witness is not None

    def test_algebraic_pass_implies_runtime_pass(self):
        for kind in ("sum", "shared"):
            form, _ = blbekbes_form(kind=kind)
            proj = averaging_projection(2)
            assert subspace_invariance_check(form, proj, "strip_C").passed
            res = strip_invariance_runtime(form, proj, [0.5, 2.0], cfg=CFG, trials=2, seed=1)
            assert res.passed

    def test_rank_zero_projection_passes(self):
        # the zero matrix projects onto {0}, so the strip is a ball around 0
        form, _ = blbekbes_form(n=8)
        res = strip_invariance_runtime(form, ProjectionSpec(np.zeros((2, 2))), [0.0, 1.0], cfg=CFG)
        assert [lv["passed"] for lv in res.details["levels"]] == [True, True]
        assert res.passed

    def test_non_identical_spaces_not_applicable(self):
        form = build_damped_wave(Grid1D(8))
        res = strip_invariance_runtime(form, averaging_projection(2), [1.0], cfg=CFG)
        assert res.status == "not-applicable"

    def test_negative_level_rejected(self):
        form, _ = blbekbes_form(n=8)
        with pytest.raises(ValidationError):
            strip_invariance_runtime(form, averaging_projection(2), [-1.0], cfg=CFG)

    def test_no_level_rejected(self):
        form, _ = blbekbes_form(n=8)
        with pytest.raises(ValidationError, match="non-empty"):
            strip_invariance_runtime(form, averaging_projection(2), [], cfg=CFG)

    def test_identity_projection_passes(self):
        # the strip around the whole space: the kernel is empty, so no data leave the projected subspace
        form, _ = blbekbes_form(n=8)
        res = strip_invariance_runtime(form, ProjectionSpec(np.eye(2)), [0.0, 1.0], cfg=CFG, trials=2)
        assert res.passed
        assert [lv["max_distance"] for lv in res.details["levels"]] == [0.0, 0.0]


# ---------------------------------------------------------------------------
# batched runtime checks against the per-trial loops they replaced


def ref_positivity(form, trials, cfg, seed):
    """One evolve per trial; the witness is the first trial reaching the minimum."""
    worst, witness = np.inf, None
    for t in range(trials):
        rng = _trial_rng(seed, t)
        traj = evolve(form, [rng.random(s.dim) for s in form.spaces], cfg)
        low = float(traj.observable("min_value").min())
        if low < worst:
            worst, witness = low, traj
    failed = worst < -RUNTIME_CONE_TOL
    return failed, {"worst_nodal_min": worst}, witness


def ref_domination(form, trials, cfg, seed):
    """Diagonal and full evolve per trial; the witness is the diagonal run."""
    worst, witness = np.inf, None
    diag = form.diagonal_part()
    for t in range(trials):
        rng = _trial_rng(seed, t)
        draw = rng.random if t == 0 else rng.standard_normal
        u0 = [draw(s.dim) for s in form.spaces]
        traj_diag = evolve(diag, u0, cfg)
        full_run = _states(form, _start(form, [np.abs(b) for b in u0]), cfg)
        diag_run = _states(diag, _start(diag, u0), cfg)
        for (_, full_block), (_, part_block) in zip(full_run, diag_run):
            for j in range(full_block.shape[1]):
                full, part = form.split(full_block[:, j, 0]), diag.split(part_block[:, j, 0])
                for i in range(form.m):
                    margin = float(np.min(full[i].real - np.abs(part[i])))
                    if margin < worst:
                        worst, witness = margin, traj_diag
    failed = worst < -RUNTIME_CONE_TOL
    return failed, {"worst_margin": worst}, witness


def ref_linf(form, trials, cfg, seed):
    """The first violating trial is the witness."""
    worst, witness, details = 0.0, None, {}
    for t in range(trials):
        if t == 0:
            u0 = [np.ones(s.dim) for s in form.spaces]
        else:
            rng = _trial_rng(seed, t)
            u0 = [rng.uniform(-1.0, 1.0, s.dim) for s in form.spaces]
        traj = evolve(form, u0, cfg)
        sup = traj.observable("sup_norm")
        worst = max(worst, float(sup.max()))
        if sup.max() > 1.0 + RUNTIME_CONE_TOL and witness is None:
            details["first_violation_time"] = float(traj.times[np.argmax(sup > 1.0 + RUNTIME_CONE_TOL)])
            witness = traj
    return witness is not None, {"worst_sup_norm": worst, **details}, witness


def combine(vectors, nodal, n):
    """Block vector ``sum_k vectors[:, k] (x) nodal[k]`` on ``n`` nodes, component by component."""
    return [sum((v * x for v, x in zip(row, nodal)), np.zeros(n)) for row in vectors]


def strip_nodal(rng, t, proj, n):
    """Nodal values of one strip trial: fixed-space draws, then kernel draws (constants in trial 0)."""
    fixed = [rng.standard_normal(n) for _ in range(proj.rank)]
    k = proj.eig0.shape[1]
    if t == 0:
        return fixed, [rng.standard_normal() * np.ones(n) for _ in range(k)]
    return fixed, [rng.standard_normal(n) for _ in range(k)]


def ref_strip(form, proj, alpha_levels, cfg, trials, seed):
    """Level-major loop over (alpha, trial); the first exceeding run is the witness."""
    n = form.spaces[0].dim
    bases = []
    for t in range(trials):
        fixed_nodal, kernel_nodal = strip_nodal(_trial_rng(seed, t), t, proj, n)
        g0 = combine(proj.eig1, fixed_nodal, n)
        g0 = [3.0 * b / h_norm(form, g0) for b in g0]
        h0 = combine(proj.eig0, kernel_nodal, n)
        bases.append((g0, [b / h_norm(form, h0) for b in h0]))
    levels, witness = [], None
    for alpha in alpha_levels:
        level = {"alpha": alpha, "passed": True, "max_distance": 0.0, "max_exceedance": -np.inf}
        for t, (g0, h0) in enumerate(bases):
            u0 = g0 if alpha == 0.0 else [alpha * (g + h) for g, h in zip(g0, h0)]
            traj = evolve(form, u0, cfg, proj=proj)
            peak = float(traj.observable("strip_distance").max())
            exceed = peak - (alpha + RUNTIME_CONE_TOL)
            level["max_distance"] = max(level["max_distance"], peak)
            level["max_exceedance"] = max(level["max_exceedance"], exceed)
            if exceed > 0:
                level["passed"] = False
                if witness is None:
                    witness = traj
        levels.append(level)
    return witness is not None, {"levels": levels}, witness


def assert_details_close(got, want):
    # rtol 1e-12 on every value; quantities that are exactly 0 in exact
    # arithmetic (the distance of level-0 strip data) are round-off noise
    if isinstance(want, dict):
        for key, value in want.items():
            assert_details_close(got[key], value)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_details_close(g, w)
    elif isinstance(want, bool):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_runtime_checks_share_one_factor_per_form(monkeypatch):
    # positivity, linf and domination step the same system: one factor
    # for the form and one for its decoupled diagonal part
    factored = []
    real_init = evolution.Stepper.__init__

    def counting_init(stepper, form, cfg):
        factored.append(form)
        real_init(stepper, form, cfg)

    monkeypatch.setattr(evolution.Stepper, "__init__", counting_init)
    form = build_dynamic_bc_heat(Grid1D(16))
    for check in (positivity_check, linf_contractivity_check, domination_check):
        check(form, trials=3, cfg=CFG)
    assert len(factored) == 2 and factored[0] is form and factored[1] is not form


ITEM_18 = "ROADMAP item 18: the verdict depends on the scale of the problem"


@pytest.mark.parametrize(
    "s", [1.0, 1e-6, pytest.param(1e-10, marks=pytest.mark.xfail(strict=True, reason=ITEM_18 + ", _within's max(1, .)"))]
)
def test_sector_above_the_exact_alpha_fails_at_every_scale(s):
    # at shift s the exact alpha of s*(4-cycle) is s, so the claim 2s must fail however small s is
    form = build_constant_coupled(Grid1D(16), s * np.array(RING))
    assert sector_check(form, alpha=2 * s, shift=s, bound=0.0).failed


def middle_cell_field(n_cells, delta):
    """``[[2, -1], [-1, 2]]`` on every cell, with ``delta`` added to coefficient (0, 1) on the middle cell."""
    values = np.array(CoefficientField.constant([[2.0, -1.0], [-1.0, 2.0]], n_cells).values)
    values[0, 1, n_cells // 2] += delta
    return CoefficientField(values)


@pytest.mark.parametrize("n_cells", [64, 1024, 16384])
def test_a_one_cell_defect_breaks_the_row_sums_at_every_size(n_cells):
    assert ephaptic_sum_check(middle_cell_field(n_cells, 1e-8), "rows").failed


@pytest.mark.parametrize(
    "n_cells, delta",
    [(64, 1e-6), (1024, 1e-6)]
    + [pytest.param(1024, 1e-8, marks=pytest.mark.xfail(strict=True, reason=ITEM_18 + ", a residual relative to |S|_F"))],
)
def test_a_one_cell_defect_leaves_the_in_phase_strip(n_cells, delta):
    # the residual is compared with 1e-9*|S|_F, which dilutes a one-cell defect like 1/sqrt(n_cells)
    form = build_ephaptic(Grid1D(n_cells), middle_cell_field(n_cells, delta))
    assert subspace_invariance_check(form, averaging_projection(2)).failed


def test_default_sector_bisects_each_distinct_pencil_once(pencils):
    # the supports in directions -1 (full_ellipticity) and 1; the +-i supports of the Hermitian form are 0 and
    # build no pencil
    form = build_constant_coupled(Grid1D(16), RING)
    pencils.clear()
    first = sector_check(form)
    assert len(pencils) == 2
    assert sector_check(form).details == first.details
    bounded = sector_check(form, bound=5.0)
    assert len(pencils) == 2
    for key in ("exact_alpha", "exact_bound"):
        assert bounded.details[key] == first.details[key]


def test_kept_brackets_build_nothing(monkeypatch):
    # a kept bracket does not rebuild its pencil
    calls = []
    for owner, name in ((scipy.sparse, "bmat"), (forms, "_hermitian_part")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name, **kw: calls.append(name) or real(*a, **kw))
    form = build_constant_coupled(Grid1D(16), RING)
    first = sector_check(form)
    assert calls
    del calls[:]
    assert sector_check(form).details == first.details and calls == []


@pytest.mark.parametrize("alpha, directions", [(1.0, {1j}), (1.0 + 0.5j, {1j, -1j})], ids=["real", "complex"])
def test_support_brackets_per_direction(bisections, monkeypatch, alpha, directions):
    # a real form's herm(1j*S) is the conjugate of herm(-1j*S): one bracket serves both directions;
    # parabola's +-2T tails are twice the +-i supports, so after sector it adds only those on H
    form = build_damped_wave(Grid1D(16), alpha)

    def kept():
        return {key[1:] for key in form._memo if key[0] == "support" and key[1] in (1j, -1j)}

    full_ellipticity(form)
    before = len(bisections)
    res = sector_check(form, bound=1.0)
    assert len(bisections) - before == len(directions)
    assert kept() == {(d, "vgram_csr", 0.0) for d in directions}
    skew = (form.form_csr - form.form_csr.conj().T) * -0.5j
    assert res.details["exact_bound"] == max(_midpoint(_lambda_max(a, form.vgram_csr)) for a in (skew, -skew))
    covers = {}
    real = forms._Pencil.definite

    def definite(pencil, mu, *weights):
        if weights:  # a cover pencil; bisections pass no weights
            covers.setdefault(pencil, (mu, *weights))
        return real(pencil, mu, *weights)

    monkeypatch.setattr(forms._Pencil, "definite", definite)
    m_tilde = 0.6
    before = len(bisections)
    assert parabola_check(form, m_tilde).passed
    assert len(bisections) - before == len(directions)
    assert kept() == {(d, g, 0.0) for d in directions for g in ("vgram_csr", "mass_csr")}
    # each cover pencil first factors at the ends of the interval its tails leave, [c/top_h, top_v/c]
    before = len(bisections)
    tails = [[2.0 * _support(form, d, g)[1] for g in ("vgram_csr", "mass_csr")] for d in (1j, -1j)]
    assert len(bisections) == before
    c = m_tilde * (1.0 + qualitative.RANGE_CHECK_RTOL)
    assert list(covers.values()) == [(-c * (c / top_h), c / (top_v / c)) for top_v, top_h in tails]


def test_range_checks_build_only_what_they_read(monkeypatch, pencils):
    # a second sector reads every kept support: it neither forms a Hermitian part nor builds a pencil
    calls = []
    real = forms._hermitian_part
    monkeypatch.setattr(forms, "_hermitian_part", lambda a: calls.append(a) or real(a))
    for form in (build_constant_coupled(Grid1D(16), RING), build_damped_wave(Grid1D(16))):
        first = sector_check(form)
        calls.clear()
        pencils.clear()
        assert sector_check(form).details == first.details
        assert calls == [] and pencils == []
    # on the real damped wave the tails decide the default m_tilde: parabola bisects the mass supports
    # and builds no cover pencil; below that constant it still covers intervals
    form = build_damped_wave(Grid1D(64))
    sector_check(form)
    pencils.clear()
    assert parabola_check(form).details == {"m_tilde": 1.0, "intervals": 0}
    assert len(pencils) == 1
    res = parabola_check(form, m_tilde=0.51)
    assert res.passed and res.details["intervals"] == 78


def test_a_per_cell_field_bisects_only_the_supports(bisections, factorizations, pencils):
    # the 4-cycle given cell by cell, one cell doubled: sector bisects its supports in directions -1 and 1 and finds
    # the +-i supports 0 without a pencil, whatever its blocks (14, 545 and 13 while the default bisected each block)
    values = np.tile(np.array(RING)[:, :, None], 256)
    values[:, :, 128] *= 2.0
    form = build_ephaptic(Grid1D(256), CoefficientField(values))
    bisections.clear(), factorizations.clear(), pencils.clear()
    assert form.declared is None and sector_check(form).passed
    assert (len(bisections), len(factorizations), len(pencils)) == (3, 83, 2)


@pytest.mark.parametrize(
    "build, factors",
    [(lambda g: build_constant_coupled(g, RING), 1), (build_damped_wave, 2)],
    ids=["ring", "damped_wave"],
)
def test_product_subspace_factors_each_space_once(monkeypatch, build, factors):
    factored = []
    real_init = forms._Factor.__init__

    def counting_init(factor, a, *rest):
        factored.append(a.shape)
        real_init(factor, a, *rest)

    monkeypatch.setattr(forms._Factor, "__init__", counting_init)
    grid = Grid1D(16)
    form = build(grid)
    weights = [mean_weights(grid)] * form.m
    first = product_subspace_check(form, weights)
    assert len(factored) == factors
    assert product_subspace_check(form, weights).details == first.details
    assert len(factored) == factors


@pytest.fixture
def stepped_runs(monkeypatch):
    """The states every run yields from the stepping generator's blocks while a test runs, one list per run."""
    runs = []

    def recording(form, u, cfg):
        run = []
        runs.append(run)
        for steps, states in _states(form, u, cfg):
            run.extend(states[:, j] for j in range(states.shape[1]))
            yield steps, states

    monkeypatch.setattr(evolution, "_states", recording)
    monkeypatch.setattr(qualitative, "_states", recording)
    return runs


def run_states(runs, record):
    """The recorded states of the run, or trial column of a batched run, that ended in ``record``'s final state."""
    final = np.concatenate(record.final_state)
    for run in reversed(runs):
        last = run[-1].reshape(final.shape[0], -1)
        for c in range(last.shape[1]):
            if np.array_equal(last[:, c], final):
                return [state.reshape(final.shape[0], -1)[:, c] for state in run]
    raise AssertionError("no run ends in the record's final state")


def assert_same_run(got, want, got_states, want_states, rtol=1e-12):
    """Observables, final states and every recorded state agree to ``rtol`` times the size of the run.

    The scale is the run's largest recorded value: the strip distance is
    a difference of state parts, so its round-off follows the state.
    """
    np.testing.assert_array_equal(got.times, want.times)
    assert got.observables.keys() == want.observables.keys()
    scale = max(np.max(np.abs(values)) for values in want.observables.values())
    for name, values in want.observables.items():
        assert np.max(np.abs(got.observable(name) - values)) <= rtol * scale, name
    assert len(got_states) == len(want_states) == len(want.times)
    got_states = [*got_states, np.concatenate(got.final_state)]
    want_states = [*want_states, np.concatenate(want.final_state)]
    for g, w in zip(got_states, want_states):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= rtol * np.max(np.abs(w))


def ephaptic(n, delta=0.0):
    form, coeffs = blbekbes_form(n)
    return build_ephaptic(Grid1D(n), coeffs.perturbed(0, 0, delta)) if delta else form


def cone_leaking_form():
    # one component, so the coupling test is vacuous, but the block's
    # positive off-diagonal entries drive small nodes negative
    s = np.full((3, 3), 0.9) + 0.1 * np.eye(3)
    return FormMatrix([DiscreteSpace(np.eye(3), np.eye(3))], [[s]])


# consistent P1 mass with dt well below h^2 is not an M-matrix scheme
SMALL_DT = EvolutionConfig(dt=1e-4, t_end=2e-3)

ORACLE_CASES = {
    "positivity_pass": (
        positivity_check,
        ref_positivity,
        lambda: (build_dynamic_bc_heat(Grid1D(32)),),
        {"trials": 5, "cfg": CFG, "seed": 0},
        "pass",
    ),
    "positivity_fail": (
        positivity_check,
        ref_positivity,
        lambda: (cone_leaking_form(),),
        {"trials": 6, "cfg": EvolutionConfig(dt=0.1, t_end=2.0), "seed": 0},
        "fail",
    ),
    "domination_pass": (
        domination_check,
        ref_domination,
        lambda: (build_dynamic_bc_heat(Grid1D(32)),),
        {"trials": 5, "cfg": CFG, "seed": 0},
        "pass",
    ),
    "domination_one_trial": (
        domination_check,
        ref_domination,
        lambda: (build_dynamic_bc_heat(Grid1D(32)),),
        {"trials": 1, "cfg": CFG, "seed": 3},
        "pass",
    ),
    "domination_fail": (
        domination_check,
        ref_domination,
        lambda: (build_constant_coupled(Grid1D(4), np.eye(2)),),
        {"trials": 8, "cfg": SMALL_DT, "seed": 0},
        "fail",
    ),
    "linf_pass": (
        linf_contractivity_check,
        ref_linf,
        lambda: (build_constant_coupled(Grid1D(32), np.eye(1)),),
        {"trials": 5, "cfg": CFG, "seed": 0},
        "pass",
    ),
    "linf_constant_one": (
        linf_contractivity_check,
        ref_linf,
        lambda: (build_dynamic_bc_heat(Grid1D(32)),),
        {"trials": 3, "cfg": CFG, "seed": 0},
        "fail",
    ),
    # anti-diffusive in the (1, -1) direction: constants stay put and a
    # uniform trial leaves the unit ball first
    "linf_uniform": (
        linf_contractivity_check,
        ref_linf,
        lambda: (build_constant_coupled(Grid1D(8), [[1.0, -1.5], [-1.5, 1.0]]),),
        {"trials": 6, "cfg": SMALL_DT, "seed": 7},
        "fail",
    ),
    "strip_pass": (
        strip_invariance_runtime,
        ref_strip,
        lambda: (ephaptic(32), averaging_projection(2), [0.0, 0.1, 1.0, 10.0]),
        {"trials": 2, "cfg": CFG, "seed": 0},
        "pass",
    ),
    "strip_fail": (
        strip_invariance_runtime,
        ref_strip,
        lambda: (ephaptic(32, delta=0.6), averaging_projection(2), [0.1, 1.0, 10.0]),
        {"trials": 2, "cfg": CFG, "seed": 0},
        "fail",
    ),
    "strip_fail_level_zero": (
        strip_invariance_runtime,
        ref_strip,
        lambda: (ephaptic(16, delta=0.6), averaging_projection(2), [0.0, 1.0]),
        {"trials": 3, "cfg": CFG, "seed": 2},
        "fail",
    ),
    # only the level-0 data leaks out of the strip: the witness is not column 0
    "strip_fail_second_level": (
        strip_invariance_runtime,
        ref_strip,
        lambda: (ephaptic(16, delta=1e-5), averaging_projection(2), [10.0, 0.0]),
        {"trials": 3, "cfg": CFG, "seed": 0},
        "fail",
    ),
}


class TestBatchedChecksMatchPerTrialLoops:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_same_verdict_details_and_witness(self, case, stepped_runs):
        check, reference, args, kwargs, status = ORACLE_CASES[case]
        args = args()
        res = check(*args, **kwargs)
        check_runs = list(stepped_runs)
        stepped_runs.clear()
        failed, details, witness = reference(*args, **kwargs)
        assert res.status == status
        assert res.failed == failed
        assert_details_close(res.details, details)
        if failed:
            assert_same_run(
                res.witness, witness, run_states(check_runs, res.witness), run_states(stepped_runs, witness)
            )
        else:
            assert res.witness is None

    # linf_uniform: uniform trial 2; strip_fail_second_level: level 1 (alpha 0) of 3 trials, trial 0
    @pytest.mark.parametrize("case, column", [("linf_uniform", 2), ("strip_fail_second_level", 3)])
    def test_witness_is_not_the_first_column(self, case, column, stepped_runs):
        check, _, args, kwargs, _ = ORACLE_CASES[case]
        witness = check(*args(), **kwargs).witness
        (run,) = stepped_runs
        n = np.concatenate(witness.final_state).shape[0]
        np.testing.assert_array_equal(run_states(stepped_runs, witness), [s.reshape(n, -1)[:, column] for s in run])


FOUR_CYCLE = [[3, -1, -1, 0], [-1, 3, 0, -1], [-1, 0, 3, -1], [0, -1, -1, 3]]
TWO_BLOCKS = ProjectionSpec([[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]])

# check, its form, its arguments, and the draws of trial t from rng in a per-trial loop, a list of arrays
DRAW_RULES = {
    "positivity": (
        positivity_check,
        lambda: build_dynamic_bc_heat(Grid1D(8)),
        {},
        lambda form, rng, t: [rng.random(s.dim) for s in form.spaces],
    ),
    "domination": (
        domination_check,
        lambda: build_dynamic_bc_heat(Grid1D(8)),
        {},
        lambda form, rng, t: [(rng.random if t == 0 else rng.standard_normal)(s.dim) for s in form.spaces],
    ),
    "linf": (
        linf_contractivity_check,
        lambda: build_dynamic_bc_heat(Grid1D(8)),
        {},
        lambda form, rng, t: [np.ones(s.dim) if t == 0 else rng.uniform(-1.0, 1.0, s.dim) for s in form.spaces],
    ),
    "strip_runtime": (
        strip_invariance_runtime,
        lambda: build_constant_coupled(Grid1D(8), FOUR_CYCLE),
        {"proj": TWO_BLOCKS, "alpha_levels": [1.0]},
        lambda form, rng, t: sum(strip_nodal(rng, t, TWO_BLOCKS, form.spaces[0].dim), []),
    ),
}


@pytest.mark.parametrize("check_id", sorted(DRAW_RULES))
@pytest.mark.parametrize("seed", [0, 7])
def test_trial_draws_match_the_per_trial_loop(monkeypatch, check_id, seed):
    check, make_form, kwargs, draws = DRAW_RULES[check_id]
    drawn = []
    draw_trials = qualitative._draw_trials

    def recording(*args):
        drawn.append(draw_trials(*args))
        return drawn[-1]

    monkeypatch.setattr(qualitative, "_draw_trials", recording)
    form = make_form()
    check(form, trials=3, cfg=CFG, seed=seed, **kwargs)
    want = [np.concatenate(draws(form, _trial_rng(seed, t), t)) for t in range(3)]
    (got,) = drawn
    np.testing.assert_array_equal(got, np.stack(want, axis=1))


def test_domination_streams_its_runs():
    # the two runs of 20 trials record 201 states each, 15.8 MiB per run;
    # comparing them step by step holds a few states at a time
    form = build_dynamic_bc_heat(Grid1D(512))
    cfg = EvolutionConfig(dt=1e-3, t_end=0.2)
    tracemalloc.start()
    try:
        res = domination_check(form, trials=20, cfg=cfg, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed
    record_set = (cfg.n_steps + 1) * form.total_dim * 20 * 8
    assert peak < record_set / 2


class TestTrialCount:
    CHECKS = {
        "positivity": lambda form, trials: positivity_check(form, trials=trials, cfg=CFG),
        "domination": lambda form, trials: domination_check(form, trials=trials, cfg=CFG),
        "linf": lambda form, trials: linf_contractivity_check(form, trials=trials, cfg=CFG),
        "strip_runtime": lambda form, trials: strip_invariance_runtime(
            form, averaging_projection(2), [1.0], cfg=CFG, trials=trials
        ),
    }

    @pytest.mark.parametrize("check", sorted(CHECKS))
    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, check, trials):
        with pytest.raises(ValidationError, match="trials must be >= 1"):
            self.CHECKS[check](ephaptic(8), trials)

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_one_trial_runs(self, check):
        res = self.CHECKS[check](build_constant_coupled(Grid1D(8), np.eye(2)), 1)
        assert res.status == "pass"
