import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from coupledforms import (
    DiscreteSpace,
    EvolutionConfig,
    FormMatrix,
    Grid1D,
    build_constant_coupled,
    build_damped_wave,
    build_dynamic_bc_heat,
    build_ephaptic,
    embedding_norm,
    estimate_continuity,
    estimate_ellipticity,
    form_apply,
    full_ellipticity,
    p1_mass,
    p1_stiffness,
    parabola_check,
    sector_check,
    two_fibre_coupling,
)
from coupledforms.errors import DimensionError, NumericalError, ValidationError
from coupledforms.evolution import Stepper
from coupledforms.forms import (
    ACCRETIVITY_RTOL,
    GRAM_RTOL,
    _hermitian_part,
    _midpoint,
    _Pencil,
    _lambda_max,
    _lambda_min,
    _rcm_entries,
    _support,
    is_discretely_accretive,
)
from coupledforms.models import CoefficientField


def dense_form(form):
    """The assembled form matrix, built from the stored dense blocks."""
    return np.block([[form.blocks[i][j].matrix for j in range(form.m)] for i in range(form.m)])


def single_space_form(matrix, h_gram=None, v_gram=None):
    n = np.shape(matrix)[0]
    h = np.eye(n) if h_gram is None else h_gram
    v = np.eye(n) if v_gram is None else v_gram
    return FormMatrix([DiscreteSpace(h, v)], [[matrix]])


class TestDiscreteSpace:
    def test_rejects_non_hermitian_gram(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            DiscreteSpace([[1.0, 0.5], [0.0, 1.0]], np.eye(2))

    def test_rejects_indefinite_gram(self):
        with pytest.raises(ValidationError, match="positive definite"):
            DiscreteSpace(np.diag([1.0, -1.0]), np.eye(2))

    def test_rejects_nan(self):
        g = np.eye(2)
        g[0, 0] = np.nan
        with pytest.raises(ValidationError):
            DiscreteSpace(g, np.eye(2))

    def test_rejects_singular_gram(self):
        # Neumann stiffness alone: constants are in its kernel, and
        # elimination round-off leaves its last pivot slightly positive
        # for some of these 219 grids
        for length in (1.0, 0.7, 3.0):
            for n_cells in [*range(2, 70), 100, 128, 255, 256, 1000]:
                grid = Grid1D(n_cells, length)
                with pytest.raises(ValidationError, match="positive definite"):
                    DiscreteSpace(p1_mass(grid), p1_stiffness(grid))

    @pytest.mark.parametrize("n_cells", [2, 128, 2048])
    def test_accepts_p1_mass_and_h1_grams(self, n_cells):
        # the H1 Gram's margin against its diagonal is about length**2 / (2 n_cells**2)
        for length in (1.0, 0.7):
            grid = Grid1D(n_cells, length)
            mass = p1_mass(grid)
            assert DiscreteSpace(mass, mass + p1_stiffness(grid)).dim == n_cells + 1

    @pytest.mark.parametrize("factor, accepted", [(2.0, True), (0.5, False)])
    def test_gram_margin_boundary(self, factor, accepted):
        # the diagonally scaled Gram [[1, 1-eps], [1-eps, 1]] has smallest eigenvalue eps
        eps = factor * GRAM_RTOL
        g = np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]])
        if accepted:
            assert DiscreteSpace(np.eye(2), g).dim == 2
        else:
            with pytest.raises(ValidationError, match="positive definite"):
                DiscreteSpace(np.eye(2), g)

    def test_rejects_zero_diagonal_gram(self):
        # Cholesky breaks down at the first zero pivot
        g = np.kron(np.eye(3), [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="positive definite"):
            DiscreteSpace(np.eye(6), g)

    def test_rejects_empty_grams(self):
        with pytest.raises(DimensionError, match=r"non-empty, square and of one size: h_gram \(0, 0\)"):
            DiscreteSpace(np.eye(0), np.eye(0))

    def test_rejects_gram_of_the_wrong_shape(self):
        with pytest.raises(DimensionError, match=r"of one size: h_gram \(2, 2\), v_gram \(3, 3\)"):
            DiscreteSpace(np.eye(2), np.eye(3))

    def test_rejects_non_square_ambient_gram(self):
        with pytest.raises(DimensionError, match=r"h_gram \(2, 3\), v_gram \(2, 3\)"):
            DiscreteSpace(np.ones((2, 3)), np.ones((2, 3)))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_dimension_is_read_from_the_grams(self, n):
        space = DiscreteSpace(np.eye(n), 2.0 * np.eye(n))
        assert space.dim == n == space.h_csr.shape[0]

    def test_rejects_gram_that_is_not_a_matrix(self):
        with pytest.raises(DimensionError, match="h_gram must be a matrix, got ndim=1"):
            DiscreteSpace(np.ones(2), np.eye(2))

    def test_accepts_complex_hermitian_gram(self):
        g = np.array([[2.0, 1j], [-1j, 2.0]])
        assert DiscreteSpace(g, g).dim == 2


class TestCsrStorage:
    def test_dense_and_sparse_inputs_store_one_canonical_csr(self):
        dense = np.array([[2.0, 0.0, -1.0], [0.0, 3.0, 0.0], [-1.0, 0.0, 2.0]])
        # duplicates that sum to the dense entries, and a stored zero
        coo = scipy.sparse.coo_array(
            ([2.0, -0.5, -0.5, 3.0, -1.0, 1.0, 1.0, 0.0], ([0, 0, 0, 1, 2, 2, 2, 1], [0, 2, 2, 1, 0, 2, 2, 0])), shape=(3, 3)
        )
        want, given_csr = scipy.sparse.csr_array(dense), scipy.sparse.csr_array(dense)
        for given in (dense, coo, dense.tolist(), given_csr):
            form = FormMatrix([DiscreteSpace(np.eye(3), np.eye(3))], [[given]])
            (stored,), = form.csr_blocks
            assert isinstance(stored, scipy.sparse.csr_array) and stored.dtype == float
            for name in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(stored, name), getattr(want, name))
        # the last form stores a copy of given_csr
        given_csr.data[:] = 9.0
        assert form.csr_blocks[0][0][0, 0] == 2.0

    def test_rejects_non_finite_sparse_input(self):
        bad = scipy.sparse.csr_array(np.diag([1.0, np.nan]))
        with pytest.raises(ValidationError, match="non-finite"):
            FormMatrix([DiscreteSpace(np.eye(2), np.eye(2))], [[bad]])
        with pytest.raises(ValidationError, match="non-finite"):
            DiscreteSpace(bad, np.eye(2))

    def test_dense_views_are_built_once_and_read_only(self):
        form = build_dynamic_bc_heat(Grid1D(4))
        space = form.spaces[0]
        for csr, name in ((space.h_csr, "h_gram"), (space.v_csr, "v_gram")):
            view = getattr(space, name)
            assert getattr(space, name) is view and not view.flags.writeable
            np.testing.assert_array_equal(view, csr.toarray())
        assert form.blocks is form.blocks
        for i, row in enumerate(form.blocks):
            for j, blk in enumerate(row):
                assert (blk.row, blk.col) == (i, j) and not blk.matrix.flags.writeable
                np.testing.assert_array_equal(blk.matrix, form.csr_blocks[i][j].toarray())


class TestSameGeometry:
    @staticmethod
    def space(grid, delta):
        # delta on every entry, inside and outside the Grams' sparsity pattern
        mass = p1_mass(grid).toarray()
        bump = delta * np.ones_like(mass)
        return DiscreteSpace(mass + bump, mass + p1_stiffness(grid).toarray() + bump)

    @pytest.mark.parametrize("delta, same", [(0.0, True), (1e-13, True), (1e-9, False)])
    def test_agrees_with_dense_allclose(self, delta, same):
        grid = Grid1D(6)
        a, b = self.space(grid, 0.0), self.space(grid, delta)
        assert a is not b
        dense = all(
            np.allclose(x, y, rtol=1e-12, atol=1e-12) for x, y in ((a.h_gram, b.h_gram), (a.v_gram, b.v_gram))
        )
        assert dense is same
        assert a.same_geometry(b) is same
        assert b.same_geometry(a) is same

    def test_equality_and_hash_go_by_identity(self):
        grid = Grid1D(6)
        a, b = self.space(grid, 0.0), self.space(grid, 0.0)
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2
        assert a.same_geometry(b)

    def test_same_object_and_dimension_mismatch(self):
        a = self.space(Grid1D(6), 0.0)
        assert a.same_geometry(a) is True
        assert a.same_geometry(self.space(Grid1D(5), 0.0)) is False

    def test_keeps_the_csr_grams_of_its_validation(self):
        space = self.space(Grid1D(4), 0.0)
        for csr, dense in ((space.h_csr, space.h_gram), (space.v_csr, space.v_gram)):
            assert isinstance(csr, scipy.sparse.csr_array)
            np.testing.assert_array_equal(csr.toarray(), dense)


class TestEmbeddingNorm:
    def test_identity_grams(self):
        assert embedding_norm(DiscreteSpace(np.eye(3), np.eye(3))) == pytest.approx(1.0)

    def test_scaled_domain(self):
        assert embedding_norm(DiscreteSpace(np.eye(3), 4 * np.eye(3))) == pytest.approx(0.5)

    def test_p1_grid_against_nonsymmetric_eig_oracle(self):
        grid = Grid1D(10)
        mass = p1_mass(grid).toarray()
        w = mass + p1_stiffness(grid).toarray()
        space = DiscreteSpace(mass, w)
        value = embedding_norm(space)
        assert 0 < value <= 1 + 1e-12
        # independent route: eigenvalues of inv(W) @ M through the
        # general (non-symmetric) eigensolver
        top = np.max(np.linalg.eigvals(np.linalg.solve(w, mass)).real)
        assert value == pytest.approx(np.sqrt(top), rel=1e-10)
        # constants realize the supremum, so the value is exactly one
        assert value == pytest.approx(1.0, abs=1e-10)


class TestFormApply:
    def test_zero_trial_vector(self):
        form = single_space_form([[3.0, 1.0], [0.0, 2.0]])
        assert form_apply(form, [np.zeros(2)], [np.ones(2)]) == 0

    def test_scalar(self):
        form = single_space_form([[2.0]])
        assert form_apply(form, [[1.0]], [[1.0]]) == pytest.approx(2.0)

    def test_block_orientation(self):
        # only the (1, 2) block is set: trial lives in space 2, test in space 1
        spaces = [DiscreteSpace(np.eye(1), np.eye(1))] * 2
        blocks = [
            [np.zeros((1, 1)), np.ones((1, 1))],
            [np.zeros((1, 1)), np.zeros((1, 1))],
        ]
        form = FormMatrix(spaces, blocks)
        assert form_apply(form, [[0.0], [1.0]], [[1.0], [0.0]]) == pytest.approx(1.0)
        assert form_apply(form, [[1.0], [0.0]], [[0.0], [1.0]]) == pytest.approx(0.0)

    def test_sesquilinearity(self):
        rng = np.random.default_rng(5)
        grid = Grid1D(6)
        form = build_constant_coupled(grid, [[2.0, -1.0], [-1.0, 2.0]])
        n = grid.n_nodes
        for _ in range(10):
            lam = complex(rng.standard_normal(), rng.standard_normal())
            f = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2)]
            g = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2)]
            base = form_apply(form, f, g)
            scaled_f = form_apply(form, [lam * x for x in f], g)
            scaled_g = form_apply(form, f, [lam * x for x in g])
            assert scaled_f == pytest.approx(lam * base, rel=1e-12, abs=1e-12)
            assert scaled_g == pytest.approx(np.conj(lam) * base, rel=1e-12, abs=1e-12)

    def test_splitting_identity(self):
        rng = np.random.default_rng(8)
        grid = Grid1D(5)
        coeffs = CoefficientField(rng.standard_normal((3, 3, 5)))
        form = build_ephaptic(grid, coeffs)
        n = grid.n_nodes
        f = [rng.standard_normal(n) for _ in range(3)]
        g = [rng.standard_normal(n) for _ in range(3)]
        total = form_apply(form, f, g)
        by_blocks = sum(
            complex(np.vdot(g[i], form.csr_blocks[i][j] @ f[j]))
            for i in range(3)
            for j in range(3)
        )
        assert total == pytest.approx(by_blocks, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch(self):
        form = single_space_form([[1.0]])
        with pytest.raises(DimensionError):
            form_apply(form, [np.ones(2)], [np.ones(1)])
        with pytest.raises(DimensionError):
            form_apply(form, [np.ones((1, 2))], [np.ones((1, 2))])


class TestFormMatrixShapes:
    def test_rejects_no_spaces(self):
        with pytest.raises(ValidationError, match="need at least one space"):
            FormMatrix([], [])

    def test_rejects_a_ragged_block_grid(self):
        space = DiscreteSpace(np.eye(2), np.eye(2))
        with pytest.raises(DimensionError, match="blocks must form an 2x2 grid"):
            FormMatrix([space, space], [[np.eye(2), np.eye(2)], [np.eye(2)]])

    def test_rejects_a_block_of_the_wrong_shape(self):
        spaces = [DiscreteSpace(np.eye(2), np.eye(2)), DiscreteSpace(np.eye(3), np.eye(3))]
        blocks = [[np.eye(2), np.zeros((2, 3))], [np.zeros((2, 2)), np.eye(3)]]
        with pytest.raises(DimensionError, match=r"block \(1,0\) has shape \(2, 2\), expected \(3, 2\)"):
            FormMatrix(spaces, blocks)


class TestFlattenSplit:
    def test_round_trip_keeps_trial_axis(self):
        form = build_constant_coupled(Grid1D(4), np.eye(2))
        blocks = [np.arange(15.0).reshape(5, 3), -np.arange(15.0).reshape(5, 3)]
        flat = form.flatten(blocks)
        assert flat.shape == (10, 3)
        for got, want in zip(form.split(flat), blocks):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(form.flatten([b[:, 1] for b in blocks]), flat[:, 1])

    def test_column_count_mismatch(self):
        form = build_constant_coupled(Grid1D(4), np.eye(2))
        with pytest.raises(DimensionError):
            form.flatten([np.ones((5, 3)), np.ones((5, 2))])

    def test_component_count_mismatch(self):
        form = build_constant_coupled(Grid1D(4), np.eye(2))
        with pytest.raises(DimensionError, match="expected 2 component vectors, got 1"):
            form.flatten([np.ones(5)])

    def test_split_length_mismatch(self):
        form = build_constant_coupled(Grid1D(4), np.eye(2))
        with pytest.raises(DimensionError, match="vector has length 9, expected 10"):
            form.split(np.ones(9))

    def test_identical_spaces(self):
        assert build_constant_coupled(Grid1D(4), np.eye(2)).identical_spaces
        assert not build_damped_wave(Grid1D(4)).identical_spaces


ASSEMBLY_BUILDERS = {
    "ephaptic": lambda g: build_ephaptic(g, CoefficientField.constant([[2.0, -0.5], [-0.5, 2.0]], g.n_cells)),
    "damped_wave": lambda g: build_damped_wave(g, 1.0 + 0.5j),
    "dynamic_bc_heat": build_dynamic_bc_heat,
    "constant_coupled": lambda g: build_constant_coupled(g, [[3.0, -1.0, 0.0], [-1.0, 3.0, -1.0], [0.0, -1.0, 3.0]]),
}


class TestAssembledOperators:
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_BUILDERS))
    def test_csr_equals_dense_assembly(self, name):
        form = ASSEMBLY_BUILDERS[name](Grid1D(7))
        expected = {
            "form_csr": dense_form(form),
            "mass_csr": scipy.linalg.block_diag(*[s.h_gram for s in form.spaces]),
            "vgram_csr": scipy.linalg.block_diag(*[s.v_gram for s in form.spaces]),
        }
        for attr, dense in expected.items():
            csr = getattr(form, attr)
            assert csr.format == "csr"
            np.testing.assert_array_equal(csr.toarray(), dense)
            assert csr.nnz == np.count_nonzero(dense)
        assert np.iscomplexobj(form.form_csr) == (not form.is_real)

    @pytest.mark.parametrize("name", sorted(ASSEMBLY_BUILDERS) + ["damped_wave_real"])
    def test_block_is_the_csr_of_the_stored_block(self, name):
        form = {**ASSEMBLY_BUILDERS, "damped_wave_real": build_damped_wave}[name](Grid1D(7))
        stored = [[blk.matrix for blk in row] for row in form.blocks]
        for i in range(form.m):
            for j in range(form.m):
                block = form.form_csr[form.block_slices[i], form.block_slices[j]]
                assert isinstance(block, scipy.sparse.csr_array)
                np.testing.assert_array_equal(block.toarray(), stored[i][j])
        assert form.is_real is not any(np.iscomplexobj(m) for row in stored for m in row)
        assert form.is_real is (name != "damped_wave")


class TestEstimateContinuity:
    def test_zero_block(self):
        form = single_space_form(np.zeros((3, 3)))
        assert estimate_continuity(form, 0, 0) == 0.0

    def test_domain_gram_block_saturates_cauchy_schwarz(self):
        grid = Grid1D(7)
        mass = p1_mass(grid)
        w = mass + p1_stiffness(grid)
        form = single_space_form(w, h_gram=mass, v_gram=w)
        assert estimate_continuity(form, 0, 0) == pytest.approx(1.0, abs=1e-9)

    def test_coupling_block_against_sampling_oracle(self):
        grid = Grid1D(12)
        coeffs = CoefficientField.constant([[1.0, -1.0], [-1.0, 1.0]], 12)
        form = build_ephaptic(grid, coeffs)
        bound = estimate_continuity(form, 0, 1)
        assert bound <= 1.0 + 1e-12
        rng = np.random.default_rng(13)
        w = form.spaces[0].v_gram
        s = form.csr_blocks[0][1].toarray()
        best = 0.0
        for _ in range(3000):
            f = rng.standard_normal(grid.n_nodes)
            g = rng.standard_normal(grid.n_nodes)
            num = abs(g @ s @ f)
            den = np.sqrt(f @ w @ f) * np.sqrt(g @ w @ g)
            best = max(best, num / den)
        assert best <= bound + 1e-9
        assert best >= 0.5 * bound


class TestEstimateEllipticity:
    def test_domain_gram_block(self):
        grid = Grid1D(6)
        mass = p1_mass(grid)
        w = mass + p1_stiffness(grid)
        form = single_space_form(w, h_gram=mass, v_gram=w)
        assert estimate_ellipticity(form, 0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_block(self):
        form = single_space_form(np.zeros((4, 4)))
        assert estimate_ellipticity(form, 0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_neumann_shift_identity(self):
        # sym(stiffness) + mass equals the domain Gram, so the constant is one
        grid = Grid1D(9)
        mass = p1_mass(grid)
        stiff = p1_stiffness(grid)
        form = single_space_form(stiff, h_gram=mass, v_gram=mass + stiff)
        assert estimate_ellipticity(form, 0, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_rayleigh_quotient_oracle(self):
        grid = Grid1D(8)
        form = build_constant_coupled(grid, [[2.0, -1.0], [-1.0, 2.0]])
        value = estimate_ellipticity(form, 0, 0.5)
        rng = np.random.default_rng(3)
        space = form.spaces[0]
        mat = form.csr_blocks[0][0].toarray() + 0.5 * space.h_gram
        # every Rayleigh quotient bounds the constant from above; the
        # constant vector is the hand-derived minimizer (the stiffness
        # part vanishes on it, leaving the 0.5 mass shift)
        candidates = [rng.standard_normal(space.dim) for _ in range(2000)]
        candidates.append(np.ones(space.dim))
        best = min((f @ mat @ f) / (f @ space.v_gram @ f) for f in candidates)
        assert best >= value - 1e-9
        assert best == pytest.approx(value, abs=1e-10)

    def test_full_form_below_diagonal_blocks(self):
        grid = Grid1D(10)
        form = build_constant_coupled(grid, [[2.0, -1.0], [-1.0, 2.0]])
        full = full_ellipticity(form, 0.3)
        for i in range(form.m):
            assert full <= estimate_ellipticity(form, i, 0.3) + 1e-9
        # mechanism: a single-component embedding turns the full Rayleigh
        # quotient into the diagonal block's, so the minimum can only drop
        rng = np.random.default_rng(9)
        n = form.spaces[0].dim
        dense = dense_form(form)
        mass = scipy.linalg.block_diag(*[s.h_gram for s in form.spaces])
        vgram = scipy.linalg.block_diag(*[s.v_gram for s in form.spaces])
        for i in range(form.m):
            f = rng.standard_normal(n)
            blocks = [f if k == i else np.zeros(n) for k in range(form.m)]
            vec = form.flatten(blocks)
            mat = (dense + dense.T) / 2 + 0.3 * mass
            quotient = (vec @ mat @ vec) / (vec @ vgram @ vec)
            space = form.spaces[i]
            diag = (f @ (form.csr_blocks[i][i].toarray() + 0.3 * space.h_gram) @ f) / (f @ space.v_gram @ f)
            assert quotient == pytest.approx(diag, rel=1e-12)
            assert full <= quotient + 1e-9


def stepped_generator(form, dt=1e-3):
    """The associated operator ``A = -Mass^-1 S`` that the implicit-Euler step applies.

    The step of every unit vector is ``U = (I - dt A)^-1``, so ``A = (I - U^-1) / dt``.
    """
    stepper = Stepper(form, EvolutionConfig(dt=dt, t_end=dt))
    n = form.total_dim
    step = stepper.leave(stepper.step(stepper.enter(np.eye(n)))[0], np.empty((n, n)))
    return (np.eye(n) - np.linalg.inv(step)) / dt


class TestAssociatedOperator:
    def test_scalar(self):
        form = single_space_form([[2.0]])
        np.testing.assert_allclose(stepped_generator(form), [[-2.0]], rtol=1e-12)

    def test_block_diagonal_stays_block_diagonal(self):
        grid = Grid1D(6)
        form = build_constant_coupled(grid, np.diag([1.0, 3.0]))
        op = stepped_generator(form)
        s0, s1 = form.block_slices
        assert np.abs(op[s0, s1]).max() == 0.0
        assert np.abs(op[s1, s0]).max() == 0.0

    def test_blocks_match_independent_solves(self):
        grid = Grid1D(8)
        coeffs = CoefficientField.constant([[2.0, -0.5], [-0.5, 2.0]], 8)
        form = build_ephaptic(grid, coeffs)
        op = stepped_generator(form)
        scale = np.abs(op).max()
        for i in range(2):
            for j in range(2):
                expected = -np.linalg.solve(form.spaces[i].h_gram, form.csr_blocks[i][j].toarray())
                got = op[form.block_slices[i], form.block_slices[j]]
                assert np.abs(got - expected).max() <= 1e-12 * scale


class TestSectorAndParabola:
    def test_sector_passes_with_certified_constants(self):
        grid = Grid1D(8)
        form = build_constant_coupled(grid, [[2.0, -1.0], [-1.0, 2.0]])
        alpha = full_ellipticity(form, 0.0)
        res = sector_check(form, alpha, 0.0, 1.0)
        assert res.passed
        assert res.details["exact_alpha"] == alpha and res.details["exact_bound"] == 0.0

    def test_sector_fails_above_exact_constant(self):
        grid = Grid1D(8)
        form = build_constant_coupled(grid, [[2.0, -1.0], [-1.0, 2.0]])
        res = sector_check(form, full_ellipticity(form, 0.0) + 1e-6, 0.0, 1.0)
        assert res.failed

    def test_parabola_real_form(self):
        grid = Grid1D(6)
        form = build_constant_coupled(grid, np.eye(2))
        assert parabola_check(form, 0.0).passed

    def test_parabola_imaginary_diagonal_fails(self):
        n = 4
        v = np.eye(n)
        form = FormMatrix([DiscreteSpace(np.eye(n), v)], [[1j * v]])
        res = parabola_check(form, 0.0)
        assert res.failed

    def test_parabola_rejects_negative_constant(self):
        with pytest.raises(ValidationError):
            parabola_check(single_space_form([[1.0]]), -1.0)


class TestAdjoint:
    def test_adjoint_blocks_are_conjugate_transposes(self):
        grid = Grid1D(5)
        coeffs = CoefficientField(np.random.default_rng(0).standard_normal((2, 2, 5)))
        form = build_ephaptic(grid, coeffs)
        adj = form.adjoint()
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(adj.csr_blocks[i][j].toarray(), form.csr_blocks[j][i].toarray().conj().T)


# ---------------------------------------------------------------------------
# the banded Cholesky primitive against dense LAPACK, which stays here as
# the oracle


def dense_blockdiag(form, which):
    return scipy.linalg.block_diag(*[getattr(s, which) for s in form.spaces])


def dense_hermitian(a):
    return (a + a.conj().T) / 2


def dense_augmented(s):
    rows, cols = s.shape
    return np.block([[np.zeros((rows, rows)), s], [s.conj().T, np.zeros((cols, cols))]])


def dense_continuity(form, i, j):
    """Largest singular value of the block whitened by the domain Grams."""
    li = np.linalg.cholesky(form.spaces[i].v_gram)
    lj = np.linalg.cholesky(form.spaces[j].v_gram)
    x = scipy.linalg.solve_triangular(li, form.csr_blocks[i][j].toarray(), lower=True)
    w = scipy.linalg.solve_triangular(lj, x.conj().T, lower=True).conj().T
    return float(np.linalg.norm(w, 2))


FOUR_CYCLE = [[3.0, -1.0, -1.0, 0.0], [-1.0, 3.0, 0.0, -1.0], [-1.0, 0.0, 3.0, -1.0], [0.0, -1.0, -1.0, 3.0]]
ORACLE_BUILDERS = {
    "ephaptic": lambda g: build_ephaptic(
        g, CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), g.n_cells)
    ),
    "non_accretive": lambda g: build_constant_coupled(g, [[1.0, -2.0], [-2.0, 1.0]]),
    # K and -K on the diagonal and off it: one continuity bracket, two ellipticity brackets
    "negated_blocks": lambda g: build_constant_coupled(g, [[1.0, -1.0], [1.0, -1.0]]),
    "damped_wave": lambda g: build_damped_wave(g, 1.0),
    "damped_wave_complex": lambda g: build_damped_wave(g, 1.0 + 0.5j),
    "dynamic_bc_heat": build_dynamic_bc_heat,
    "four_cycle": lambda g: build_constant_coupled(g, FOUR_CYCLE),
}


def oracle_pencils(form):
    """Dense (a, b) of the ellipticity, accretivity and (0, 1) continuity pencils."""
    herm = dense_hermitian(dense_form(form))
    vgram = dense_blockdiag(form, "v_gram")
    v01 = scipy.linalg.block_diag(form.spaces[0].v_gram, form.spaces[1].v_gram)
    return [
        (herm + 0.5 * dense_blockdiag(form, "h_gram"), vgram),
        (herm, np.eye(form.total_dim)),
        (dense_augmented(form.csr_blocks[0][1].toarray()), v01),
    ]


def assert_matches(got, want, scale):
    assert abs(got - want) <= max(1e-8 * abs(want), 1e-10 * scale), (got, want, scale)


class TestInertiaPrimitive:
    @pytest.mark.parametrize("name", sorted(ORACLE_BUILDERS))
    def test_count_matches_dense_inertia(self, name):
        form = ORACLE_BUILDERS[name](Grid1D(32))
        for a, b in oracle_pencils(form):
            lam = scipy.linalg.eigh(a, b, eigvals_only=True)
            scale = np.abs(lam).max()
            distinct = lam[np.concatenate([[True], np.diff(lam) > 1e-8 * scale])]
            delta = 1e-6 * scale
            midway = (distinct[1:] + distinct[:-1]) / 2
            shifts = [*midway, lam[0] - delta, lam[0] + delta, lam[-1] - delta, lam[-1] + delta]
            pencil = _Pencil(scipy.sparse.csr_array(a), scipy.sparse.csr_array(b))
            for mu in shifts:
                assert pencil.definite(mu) == (mu < lam[0]), (name, mu)

    @pytest.mark.parametrize("shape, n, kd", [("dense", 12, 11), ("diagonal", 9, 0), ("single", 1, 0)])
    def test_definite_at_extreme_bandwidths(self, shape, n, kd):
        # a dense complex pencil (kd = N-1), a diagonal one (kd = 0) and N = 1
        rng = np.random.default_rng(5)
        if shape == "dense":
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a, b = dense_hermitian(x), y @ y.conj().T + n * np.eye(n)
        else:
            a, b = np.diag(rng.standard_normal(n)), np.diag(rng.uniform(0.5, 2.0, n))
        lam = scipy.linalg.eigh(a, b, eigvals_only=True)
        pencil = _Pencil(scipy.sparse.csr_array(a), scipy.sparse.csr_array(b))
        assert pencil.a.shape == (kd + 1, n)
        delta = 1e-6 * np.abs(lam).max()
        for mu in (lam[0] - delta, lam[0] + delta, lam[-1] + delta):
            assert pencil.definite(mu) == (mu < lam[0]), (shape, mu)
        lo, hi = _lambda_min(scipy.sparse.csr_array(a), scipy.sparse.csr_array(b))
        assert lo <= lam[0] + 1e-10 * abs(lam[0]) and lam[0] - 1e-10 * abs(lam[0]) <= hi

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n, kd", [(n, kd) for n in (1, 9, 64) for kd in sorted({0, 1, 3, n - 1}) if kd < n])
    def test_lower_band_decides_as_the_upper_band(self, n, kd, dtype):
        # the pencil factors its lower band; an upper band of the same ordered pencil, built here, must agree
        rng = np.random.default_rng(n * 100 + kd)
        inside = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= kd

        def draw():
            x = rng.standard_normal((n, n))
            if dtype is complex:
                x = x + 1j * rng.standard_normal((n, n))
            return np.where(inside, x, 0)

        a = draw()
        a = a + a.conj().T
        b = np.abs(draw())
        b = b + b.T + 2.0 * (2 * kd + 1) * np.eye(n)
        pencil = _Pencil(scipy.sparse.csr_array(a), scipy.sparse.csr_array(b))
        order = _rcm_entries(scipy.sparse.csr_array(a), scipy.sparse.csr_array(b))[0]
        a, b = a[np.ix_(order, order)], b[np.ix_(order, order)]
        width = pencil.a.shape[0] - 1
        assert width <= kd
        assert np.array_equal(pencil.a[0], np.diag(a)) and np.array_equal(pencil.b[0], np.diag(b))
        pbtrf = scipy.linalg.get_lapack_funcs("pbtrf", (pencil.a,))

        def upper_factor(mu):
            ab = np.zeros((width + 1, n), dtype=pencil.a.dtype, order="F")
            for d in range(width + 1):
                ab[width - d, d:] = np.diag(a - mu * b, d)
            return pbtrf(ab)

        def dense(band, lower):
            m = np.zeros((n, n), dtype=band.dtype)
            for d in range(width + 1):
                if lower:
                    m[np.arange(d, n), np.arange(n - d)] = band[d, : n - d]
                else:
                    m[np.arange(n - d), np.arange(d, n)] = band[width - d, d:]
            return m

        lam = scipy.linalg.eigh(a, b, eigvals_only=True)
        delta = 1e-6 * np.abs(lam).max()
        for mu in (lam[0] - delta, lam[0] + delta):
            upper, info = upper_factor(mu)
            assert pencil.definite(mu) == (info == 0) == (mu < lam[0]), mu
            if dtype is float and info == 0:
                # pencil.definite factored its workspace in place
                assert np.array_equal(dense(pencil._work, lower=True), dense(upper, lower=False).T)

    @pytest.mark.parametrize("kind", [scipy.sparse.csr_matrix, scipy.sparse.csr_array])
    def test_sparse_matrix_and_array_inputs(self, kind):
        grid = Grid1D(16)
        a = kind(p1_stiffness(grid) - 2.0 * p1_mass(grid))
        b = kind(p1_mass(grid))
        lam = scipy.linalg.eigh(a.toarray(), b.toarray(), eigvals_only=True)
        pencil = _Pencil(a, b)
        assert not pencil.definite(0.0) and pencil.definite(lam[0] - 1e-6)
        for (lo, hi), want in ((_lambda_min(a, b), lam[0]), (_lambda_max(a, b), lam[-1])):
            assert lo <= want + 1e-10 * abs(want) and want - 1e-10 * abs(want) <= hi
            assert hi - lo <= 1e-11 * np.abs(lam).max()

    def test_zero_diagonal_augmented_pencil(self):
        # block (0, 1) of the damped wave is -W against the domain Grams W,
        # so the augmented pencil has a zero diagonal at mu = 0, where
        # Cholesky breaks down at the first pivot
        form = build_damped_wave(Grid1D(16), 1.0)
        s0, s1 = form.block_slices
        block = form.form_csr[s0, s1]
        aug = scipy.sparse.bmat([[None, block], [block.conj().T, None]])
        v01 = scipy.sparse.block_diag([form.vgram_csr[s0, s0], form.vgram_csr[s1, s1]])
        assert not _Pencil(aug, v01).definite(0.0)
        assert estimate_continuity(form, 0, 1) == pytest.approx(dense_continuity(form, 0, 1), rel=1e-10)
        assert estimate_continuity(form, 0, 1) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("name", sorted(ORACLE_BUILDERS))
    def test_spectral_routines_match_dense(self, name, factorizations):
        form = ORACLE_BUILDERS[name](Grid1D(48))
        dense = dense_form(form)
        herm = dense_hermitian(dense)
        mass, vgram = dense_blockdiag(form, "h_gram"), dense_blockdiag(form, "v_gram")
        for shift in (0.0, 0.5):
            lam = scipy.linalg.eigh(herm + shift * mass, vgram, eigvals_only=True)
            assert_matches(full_ellipticity(form, shift), lam[0], np.abs(lam).max())
            for i, space in enumerate(form.spaces):
                block = dense_hermitian(form.csr_blocks[i][i].toarray()) + shift * space.h_gram
                lam = scipy.linalg.eigh(block, space.v_gram, eigvals_only=True)
                assert_matches(estimate_ellipticity(form, i, shift), lam[0], np.abs(lam).max())
        norms = [[dense_continuity(form, i, j) for j in range(form.m)] for i in range(form.m)]
        for i in range(form.m):
            for j in range(form.m):
                assert_matches(estimate_continuity(form, i, j), norms[i][j], max(map(max, norms)))
        for space in form.spaces:
            top = scipy.linalg.eigh(space.h_gram, space.v_gram, eigvals_only=True)[-1]
            assert_matches(embedding_norm(space), np.sqrt(top), np.sqrt(top))
        lam = np.linalg.eigvalsh(herm)
        column_norm = np.linalg.norm(dense, axis=0).max()
        factorizations.clear()
        accretive = is_discretely_accretive(form)
        # one factorization, at mu = -ACCRETIVITY_RTOL * scale
        (mu,) = factorizations
        scale = -mu / ACCRETIVITY_RTOL
        assert scale == pytest.approx(column_norm, rel=1e-12)
        assert scale <= np.linalg.norm(dense, 2) * (1 + 1e-12)
        assert accretive == (lam[0] >= -ACCRETIVITY_RTOL * column_norm)


class TestAccretivityBoundary:
    @staticmethod
    def rotated_diagonal(values):
        q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((len(values), len(values))))
        return single_space_form(q @ np.diag(values) @ q.T)

    @pytest.mark.parametrize("factor, accretive", [(0.5, True), (2.0, False)])
    def test_pass_and_fail_around_the_boundary(self, factor, accretive):
        # the smallest eigenvalue sits at factor * (-rtol * scale), scale the largest column 2-norm
        values = [2.0, 1.0, 0.5, 0.0]
        tau = ACCRETIVITY_RTOL * np.linalg.norm(dense_form(self.rotated_diagonal(values)), axis=0).max()
        form = self.rotated_diagonal(values[:-1] + [-factor * tau])
        assert is_discretely_accretive(form) is accretive


class TestAccretivityFactorizations:
    BUILDERS = {
        "four_cycle": lambda: ORACLE_BUILDERS["four_cycle"](Grid1D(64)),
        "zero": lambda: single_space_form(np.zeros((5, 5))),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_one_factorization_per_verdict(self, factorizations, name):
        form = self.BUILDERS[name]()
        factorizations.clear()
        assert is_discretely_accretive(form)
        assert len(factorizations) == 1
        # the verdict is kept on the form
        assert is_discretely_accretive(form)
        assert len(factorizations) == 1


# ---------------------------------------------------------------------------
# spectral brackets kept on the form, one per distinct pencil


def fresh_brackets(form, shift):
    """Every spectral constant of ``form`` by its own bisection, on pencils cut from the assembled operators."""
    herm, mass, vgram = _hermitian_part(form.form_csr), form.mass_csr, form.vgram_csr
    sl = form.block_slices
    constants = {"full": _lambda_min(herm + shift * mass, vgram)}
    for i in range(form.m):
        block = _hermitian_part(form.form_csr[sl[i], sl[i]]) + shift * mass[sl[i], sl[i]]
        constants[i] = _lambda_min(block, vgram[sl[i], sl[i]])
        for j in range(form.m):
            if form.form_csr[sl[i], sl[j]].count_nonzero():
                v = scipy.sparse.block_diag([vgram[sl[i], sl[i]], vgram[sl[j], sl[j]]])
                block = form.form_csr[sl[i], sl[j]]
                constants[i, j] = _lambda_max(scipy.sparse.bmat([[None, block], [block.conj().T, None]]), v)
    return {key: _midpoint(bracket) for key, bracket in constants.items()}


def memoized_brackets(form, shift):
    constants = {"full": full_ellipticity(form, shift)}
    for i in range(form.m):
        constants[i] = estimate_ellipticity(form, i, shift)
        for j in range(form.m):
            if form.csr_blocks[i][j].count_nonzero():
                constants[i, j] = estimate_continuity(form, i, j)
    return constants


class TestBracketMemo:
    @pytest.mark.parametrize("name", sorted(ORACLE_BUILDERS))
    def test_memoized_constants_equal_fresh_bisections(self, name):
        form = ORACLE_BUILDERS[name](Grid1D(24))
        for shift in (0.0, 0.5):
            want = fresh_brackets(form, shift)
            # the first pass fills the memo, the second reads it
            assert memoized_brackets(form, shift) == want
            assert memoized_brackets(form, shift) == want

    def test_identical_blocks_share_one_bisection(self, bisections):
        form = ORACLE_BUILDERS["four_cycle"](Grid1D(16))
        constants = {(i, j): estimate_continuity(form, i, j) for i in range(4) for j in range(4)}
        # 3K on the diagonal, -K on the 8 couplings; the other 4 blocks are zero
        assert len(bisections) == 2
        assert len({constants[i, i] for i in range(4)}) == 1
        assert estimate_continuity(form, 0, 1) == constants[1, 3] and len(bisections) == 2

    @pytest.mark.parametrize("name", sorted(ORACLE_BUILDERS))
    def test_supports_equal_the_bisections_of_their_pencils(self, name):
        # the +-i supports are the brackets of lambda_max(+-T, G), T = (S - S^H)/2i built from S here
        form = ORACLE_BUILDERS[name](Grid1D(24))
        skew = (form.form_csr - form.form_csr.conj().T) * -0.5j
        for gram in ("vgram_csr", "mass_csr"):
            for direction, a in ((1j, skew), (-1j, -skew)):
                assert _support(form, direction, gram) == _lambda_max(a, getattr(form, gram))

    @pytest.mark.parametrize("n_cells", [16, 64, 256])
    def test_conjugate_skew_pencils_bracket_identically(self, n_cells):
        form = build_damped_wave(Grid1D(n_cells), 1.0)
        skew = (form.form_csr - form.form_csr.conj().T) * -0.5j
        assert form.is_real and skew.count_nonzero()
        for a in (skew, 2.0 * skew):
            for gram in (form.vgram_csr, form.mass_csr):
                assert _lambda_max(a, gram) == _lambda_max(-a, gram)

    @pytest.mark.parametrize("derive", ["rebuilt", "adjoint", "diagonal_part"])
    def test_no_bracket_is_shared_between_forms(self, bisections, derive):
        grid = Grid1D(16)
        form = ORACLE_BUILDERS["four_cycle"](grid)
        full_ellipticity(form)
        estimate_ellipticity(form, 0)
        other = {
            "rebuilt": lambda: ORACLE_BUILDERS["four_cycle"](grid),
            "adjoint": form.adjoint,
            "diagonal_part": form.diagonal_part,
        }[derive]()
        assert len(bisections) == 2 and other._memo == {}
        assert estimate_ellipticity(other, 0) == estimate_ellipticity(form, 0)
        assert len(bisections) == 3
        full_ellipticity(other)
        assert len(bisections) == 4


# ---------------------------------------------------------------------------
# no dense eigen, SVD or 2-norm work on N-sized matrices in the library

DENSE_CALLS = {"toarray", "todense", "eigh", "eigvalsh", "svd"}
# _dense_view builds the dense views; a ProjectionSpec splits its m-by-m matrix, and a
# Kronecker form's time step splits into modes by the eigenbasis of its m-by-m coupling
DENSE_ALLOWED = {
    ("forms.py", "_dense_view"),
    ("evolution.py", "ProjectionSpec.__post_init__"),
    ("evolution.py", "_modal_split"),
}


def flagged_calls(path: Path, names: set, attributes: set = frozenset()) -> list:
    """``(function, name)`` for each call in a module to one of ``names`` or to ``norm(., 2)``,
    and for each read of an attribute in ``attributes``.  A method's function is ``Class.method``."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.ClassDef) and owner is None:
            owner = f"{node.name}."
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (owner is None or owner.endswith(".")):
            owner = f"{owner or ''}{node.name}"
        if isinstance(node, ast.Attribute) and node.attr in attributes:
            found.append((owner, node.attr))
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            orders = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
            two = [o for o in orders if isinstance(o, ast.Constant) and o.value == 2]
            if name in names or (name == "norm" and two):
                found.append((owner, name))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text()), None)
    return found


def module_path(module: str) -> Path:
    return Path(__file__).resolve().parents[1] / "src" / "coupledforms" / module


@pytest.mark.parametrize("module", ["evolution.py", "forms.py", "qualitative.py"])
def test_no_dense_spectral_calls(module):
    calls = flagged_calls(module_path(module), DENSE_CALLS)
    assert [c for c in calls if (module, c[0]) not in DENSE_ALLOWED] == []


def test_forms_has_one_factorization_path():
    # spectral decisions, Hermitian steps and Gram solves factor by banded
    # Cholesky, other steps by banded LU, both in RCM order: no module calls SuperLU
    modules = sorted(module_path("forms.py").parent.glob("*.py"))
    assert len(modules) > 5
    assert [(p.name, c) for p in modules for c in flagged_calls(p, {"splu"}) if c[1] == "splu"] == []


# the dense views of the CSR blocks and Grams, kept for readers outside the package
DENSE_VIEWS = {"blocks", "h_gram", "v_gram"}


def dense_readers(path: Path) -> list:
    return [c for c in flagged_calls(path, set(), DENSE_VIEWS) if c[1] in DENSE_VIEWS]


@pytest.mark.parametrize("module", sorted(p.name for p in module_path("forms.py").parent.glob("*.py")))
def test_no_module_reads_the_dense_views(module):
    # every module, forms.py included, reads the CSR blocks and Grams; forms.py only defines the views
    assert dense_readers(module_path(module)) == []


def test_dense_reader_scan_sees_a_reader(tmp_path):
    source = tmp_path / "reader.py"
    source.write_text("def read(form):\n    return form.blocks[0][0].matrix, form.spaces[0].h_gram, form.spaces[0].v_gram\n")
    assert sorted(dense_readers(source)) == [("read", "blocks"), ("read", "h_gram"), ("read", "v_gram")]


def test_lambda_min_without_a_lower_bound_raises(factorizations):
    # a - mu*b = diag(-1 - 2mu, -1 + mu) is definite at no shift; b has a negative diagonal entry,
    # so it is no Gram and the search stops at its first failed shift
    a, b = (scipy.sparse.csr_array(np.diag(d)) for d in ([-1.0, -1.0], [2.0, -1.0]))
    with pytest.raises(NumericalError, match="no lower bound for the smallest eigenvalue"):
        _lambda_min(a, b)
    assert len(factorizations) <= 2


def test_lambda_min_stops_at_the_gershgorin_floor(factorizations):
    # b has a positive diagonal but is indefinite (eigenvalues 3 and -1), so -I - mu*b is definite at no
    # shift; the search doubles down to -2*rho/GRAM_RTOL = -2e12 and stops there instead of overflowing
    a, b = scipy.sparse.csr_array(-np.eye(2)), scipy.sparse.csr_array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NumericalError, match="no lower bound for the smallest eigenvalue"):
        _lambda_min(a, b)
    assert len(factorizations) <= 45 and min(factorizations) <= -2.0 / GRAM_RTOL


@pytest.mark.parametrize("shift", [1e308, -1e308])
@pytest.mark.parametrize("model", ["constant_coupled", "damped_wave"])
def test_overflowing_shift_raises_instead_of_a_nan_bracket(model, shift):
    # the damped wave's -shift*Mass overflows in the support pencil; on the other form a - mu*b overflows in the
    # bisection, where ?pbtrf takes NaN pivots as positive and the bracket came back (nan, nan) or infinite
    grid = Grid1D(8)
    form = build_constant_coupled(grid, [[2.0, -1.0], [-1.0, 2.0]]) if model == "constant_coupled" else (
        build_damped_wave(grid, complex(1.0, 0.5))
    )
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValidationError, match="spectral pencil"):
        full_ellipticity(form, shift)
    assert np.isfinite(full_ellipticity(form, shift / 1e8))


def test_pencil_refuses_non_finite_entries_and_overflowing_shifts():
    a, b = scipy.sparse.csr_array(np.diag([1.0, np.inf])), scipy.sparse.csr_array(np.eye(2))
    with pytest.raises(ValidationError, match="non-finite entries"):
        _Pencil(a, b)
    pencil = _Pencil(scipy.sparse.csr_array(np.eye(2)), b)
    assert pencil.definite(0.5) and not pencil.definite(2.0)
    with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="overflows at mu = nan"):
        pencil.definite(np.nan)
