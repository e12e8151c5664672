import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from coupledforms import (
    CoefficientField,
    Grid1D,
    build_constant_coupled,
    build_damped_wave,
    build_dynamic_bc_heat,
    build_ephaptic,
    estimate_ellipticity,
    full_ellipticity,
    is_discretely_accretive,
    p1_mass,
    p1_stiffness,
    parabola_check,
    stability_check,
    two_fibre_coupling,
)
from coupledforms.certificates import ConstantsBundle
from coupledforms.errors import DimensionError, ValidationError
from coupledforms.forms import _as_csr


def hat(grid, p):
    """Nodal hat function p as a callable, for quadrature oracles."""
    nodes = grid.nodes

    def phi(x):
        if p > 0 and nodes[p - 1] <= x <= nodes[p]:
            return (x - nodes[p - 1]) / grid.h
        if p < grid.n_cells and nodes[p] <= x <= nodes[p + 1]:
            return (nodes[p + 1] - x) / grid.h
        return 0.0

    return phi


def hat_slope(grid, p, cell):
    if cell == p - 1:
        return 1.0 / grid.h
    if cell == p:
        return -1.0 / grid.h
    return 0.0


class TestGridAndField:
    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            Grid1D(1)
        with pytest.raises(ValidationError):
            Grid1D(4, 0.0)
        # a positive length whose cell width underflows to zero, or one that is infinite
        for length in (5e-324, np.inf):
            with pytest.raises(ValidationError, match="cell width"):
                Grid1D(8, length)
        grid = Grid1D(4, 2.0)
        assert grid.h == pytest.approx(0.5)
        assert np.all(np.diff(grid.nodes) > 0)

    def test_field_validation(self):
        with pytest.raises(DimensionError):
            CoefficientField(np.zeros((2, 3, 4)))
        with pytest.raises(ValidationError):
            CoefficientField(np.full((2, 2, 3), np.inf))

    def test_constant_field_needs_a_square_matrix(self):
        with pytest.raises(DimensionError, match=r"coupling matrix must be square, got \(2, 3\)"):
            CoefficientField.constant(np.zeros((2, 3)), 4)

    def test_perturbed_bumps_one_block(self):
        field = CoefficientField.constant(np.eye(2), 3).perturbed(1, 0, 0.5)
        np.testing.assert_array_equal(field.values[:, :, 2], [[1.0, 0.0], [0.5, 1.0]])

    @pytest.mark.parametrize("i, j", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_perturbed_rejects_blocks_outside_the_grid(self, i, j):
        with pytest.raises(ValidationError, match="outside the 2x2"):
            CoefficientField.constant(np.eye(2), 3).perturbed(i, j, 0.5)

    def test_two_fibre_patterns_have_equal_sums(self):
        for kind in ("difference", "sum", "shared"):
            c = two_fibre_coupling(kind, 2.0, 0.5)
            assert c[0].sum() == pytest.approx(c[1].sum())
            assert c[:, 0].sum() == pytest.approx(c[:, 1].sum())
        with pytest.raises(ValidationError):
            two_fibre_coupling("nope")


def loop_mass(grid):
    """Per-cell loop assembly of the P1 mass matrix, the oracle of the vectorised one."""
    n = grid.n_nodes
    mass = np.zeros((n, n))
    element = grid.h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    for k in range(grid.n_cells):
        mass[k : k + 2, k : k + 2] += element
    return mass


def loop_stiffness(grid, cell_values=1.0):
    """Per-cell loop assembly of the P1 stiffness matrix."""
    c = np.broadcast_to(np.asarray(cell_values, dtype=float), (grid.n_cells,))
    n = grid.n_nodes
    stiff = np.zeros((n, n))
    element = np.array([[1.0, -1.0], [-1.0, 1.0]]) / grid.h
    for k in range(grid.n_cells):
        stiff[k : k + 2, k : k + 2] += c[k] * element
    return stiff


class TestP1Assembly:
    @pytest.mark.parametrize("n_cells", [2, 3, 255, 512])
    @pytest.mark.parametrize("length", [1.0, 0.37, 7.3])
    def test_equals_per_cell_loop(self, n_cells, length):
        grid = Grid1D(n_cells, length)
        pairs = [(p1_mass(grid), loop_mass(grid))]
        rng = np.random.default_rng(n_cells)
        # alternating signs cancel on the interior diagonal; a zero coefficient empties the matrix
        for c in (1.0, 0.25, rng.standard_normal(n_cells), (-1.0) ** np.arange(n_cells), 0.0):
            pairs.append((p1_stiffness(grid, c), loop_stiffness(grid, c)))
        for got, want in pairs:
            assert isinstance(got, scipy.sparse.csr_array)
            assert np.array_equal(got.toarray(), want)
            # no stored zeros: the pattern of csr_array(dense)
            assert got.nnz == np.count_nonzero(want)

    def test_unit_stiffness_interior_rows(self):
        grid = Grid1D(4, 1.0)
        stiff = p1_stiffness(grid)
        h = 0.25
        expected = np.array(
            [
                [1, -1, 0, 0, 0],
                [-1, 2, -1, 0, 0],
                [0, -1, 2, -1, 0],
                [0, 0, -1, 2, -1],
                [0, 0, 0, -1, 1],
            ]
        ) / h
        np.testing.assert_allclose(stiff.toarray(), expected)

    def test_mass_total_is_length(self):
        grid = Grid1D(7, 3.0)
        mass = p1_mass(grid)
        ones = np.ones(grid.n_nodes)
        assert ones @ mass @ ones == pytest.approx(3.0)

    def test_stiffness_matches_cellwise_quadrature_oracle(self):
        # independent assembly from hat slopes, cell by cell
        grid = Grid1D(5, 2.0)
        rng = np.random.default_rng(1)
        c = rng.uniform(0.5, 2.0, grid.n_cells)
        stiff = p1_stiffness(grid, c)
        n = grid.n_nodes
        oracle = np.zeros((n, n))
        for p in range(n):
            for q in range(n):
                oracle[p, q] = sum(
                    c[k] * hat_slope(grid, p, k) * hat_slope(grid, q, k) * grid.h
                    for k in range(grid.n_cells)
                )
        np.testing.assert_allclose(stiff.toarray(), oracle, atol=1e-14)

    def test_mass_matches_simpson_oracle(self):
        # hat products are piecewise quadratic, Simpson per cell is exact
        grid = Grid1D(4, 1.0)
        mass = p1_mass(grid)
        n = grid.n_nodes
        oracle = np.zeros((n, n))
        for p in range(n):
            fp = hat(grid, p)
            for q in range(n):
                fq = hat(grid, q)
                total = 0.0
                for k in range(grid.n_cells):
                    a, b = grid.nodes[k], grid.nodes[k + 1]
                    mid = (a + b) / 2
                    total += (b - a) / 6 * (
                        fp(a) * fq(a) + 4 * fp(mid) * fq(mid) + fp(b) * fq(b)
                    )
                oracle[p, q] = total
        np.testing.assert_allclose(mass.toarray(), oracle, atol=1e-14)


class TestEphapticBuilder:
    def test_zero_coefficients_give_zero_blocks(self):
        grid = Grid1D(4)
        form = build_ephaptic(grid, CoefficientField(np.zeros((2, 2, 4))))
        for i in range(2):
            for j in range(2):
                assert np.abs(form.csr_blocks[i][j].toarray()).max() == 0.0

    def test_two_fibre_difference_pattern_scales_unit_stiffness(self):
        grid = Grid1D(6)
        coeffs = CoefficientField.constant(two_fibre_coupling("difference", 2.0, 0.5), 6)
        form = build_ephaptic(grid, coeffs)
        unit = p1_stiffness(grid).toarray()
        np.testing.assert_allclose(form.csr_blocks[0][0].toarray(), 1.5 * unit, atol=1e-14)
        np.testing.assert_allclose(form.csr_blocks[0][1].toarray(), -0.5 * unit, atol=1e-14)

    def test_assembly_is_linear_in_coefficients(self):
        grid = Grid1D(5)
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 2, 5))
        b = rng.standard_normal((2, 2, 5))
        f_sum = build_ephaptic(grid, CoefficientField(a + b))
        f_a = build_ephaptic(grid, CoefficientField(a))
        f_b = build_ephaptic(grid, CoefficientField(b))
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(
                    f_sum.csr_blocks[i][j].toarray(), f_a.csr_blocks[i][j].toarray() + f_b.csr_blocks[i][j].toarray(), atol=1e-13
                )

    def test_mismatched_cells_rejected(self):
        with pytest.raises(DimensionError):
            build_ephaptic(Grid1D(4), CoefficientField(np.zeros((2, 2, 5))))

    def test_refinement_keeps_ellipticity_stable(self):
        values = []
        for n in (16, 32):
            grid = Grid1D(n)
            form = build_constant_coupled(grid, np.eye(1))
            values.append(estimate_ellipticity(form, 0, 1.0))
        assert abs(values[1] - values[0]) < 0.05 * abs(values[0])

    def test_all_builders_finite_and_symmetric_where_expected(self):
        grid = Grid1D(8)
        builders = [
            build_ephaptic(grid, CoefficientField.constant([[2.0, -0.5], [-0.5, 2.0]], 8)),
            build_damped_wave(grid, 1.0),
            build_dynamic_bc_heat(grid),
        ]
        fulls = [np.block([[f.csr_blocks[i][j].toarray() for j in range(f.m)] for i in range(f.m)]) for f in builders]
        for full in fulls:
            assert np.isfinite(full).all()
        np.testing.assert_array_equal(fulls[0], fulls[0].T)


@pytest.mark.parametrize(
    "build, keys",
    [
        (lambda grid: build_ephaptic(grid, CoefficientField.constant(np.eye(2), grid.n_cells)), {"coefficients"}),
        (lambda grid: build_constant_coupled(grid, np.eye(3)), {"coefficients"}),
        (lambda grid: build_damped_wave(grid, 1.0), {"parabola_constant"}),
        (lambda grid: build_damped_wave(grid, 1.0 + 0.5j), {"parabola_constant"}),
        (build_dynamic_bc_heat, set()),
    ],
    ids=["ephaptic", "constant_coupled", "damped_wave", "damped_wave_complex", "dynamic_bc_heat"],
)
def test_forms_carry_only_the_metadata_a_check_reads(build, keys):
    # row_sums and column_sums read "coefficients", parabola without m_tilde reads "parabola_constant"
    form = build(Grid1D(6))
    assert set(form.metadata) == keys
    # a derived form holds no model metadata: its builder wrote none
    assert form.adjoint().metadata == form.diagonal_part().metadata == {}


class TestDampedWaveBuilder:
    def test_zero_alpha_kills_lower_coupling(self):
        form = build_damped_wave(Grid1D(6), 0.0)
        assert np.abs(form.csr_blocks[1][0].toarray()).max() == 0.0

    def test_upper_coupling_is_negative_domain_gram(self):
        form = build_damped_wave(Grid1D(6), 2.0)
        np.testing.assert_array_equal(form.csr_blocks[0][1].toarray() + form.spaces[0].v_gram, 0.0)

    def test_cross_terms_cancel_imaginary_parts(self):
        grid = Grid1D(8)
        form = build_damped_wave(grid, 1.0)
        rng = np.random.default_rng(4)
        n = grid.n_nodes
        for _ in range(20):
            f = rng.standard_normal(n)
            g = rng.standard_normal(n)
            a12 = np.vdot(g, form.csr_blocks[0][1].toarray() @ f)
            a21 = np.vdot(f, form.csr_blocks[1][0].toarray() @ g)
            assert (a12 + a21).imag == pytest.approx(0.0, abs=1e-14)

    def test_parabola_bound_from_builder(self):
        grid = Grid1D(12)
        form = build_damped_wave(grid, 1.0)
        m_tilde = form.metadata["parabola_constant"]
        assert m_tilde == pytest.approx(1.0)
        assert parabola_check(form, m_tilde).passed

    def test_parabola_bound_other_real_alpha(self):
        form = build_damped_wave(Grid1D(10), 2.5)
        assert parabola_check(form, form.metadata["parabola_constant"]).passed

    def test_complex_alpha_blocks(self):
        form = build_damped_wave(Grid1D(4), 1j)
        assert np.iscomplexobj(form.csr_blocks[1][0])
        assert form.metadata["parabola_constant"] == pytest.approx(1.0 + abs(1j - 1.0))

    @pytest.mark.parametrize("alpha", [1.0, 1.0 + 0.5j])
    def test_derived_forms_hold_the_model_parabola_constant(self, alpha):
        # the adjoint negates Im a; the diagonal part is the mean of D S D over the sign matrices D = diag(+-I)
        form = build_damped_wave(Grid1D(12), alpha)
        m_tilde = form.metadata["parabola_constant"]
        for derived in (form.adjoint(), form.diagonal_part()):
            with pytest.raises(ValidationError, match="needs 'm_tilde'"):
                parabola_check(derived)
            result = parabola_check(derived, m_tilde)
            assert result.passed
            assert result.details["m_tilde"] == m_tilde


class TestDynamicBcBuilder:
    def test_trace_pairing_values(self):
        grid = Grid1D(8)
        form = build_dynamic_bc_heat(grid)
        s21 = form.csr_blocks[1][0].toarray()
        n = grid.n_nodes
        left_hat = np.zeros(n)
        left_hat[0] = 1.0
        e_left = np.array([1.0, 0.0])
        assert np.vdot(e_left, s21 @ left_hat) == pytest.approx(-1.0)
        interior = np.zeros(n)
        interior[3] = 1.0
        for g in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            assert np.vdot(g, s21 @ interior) == 0.0

    def test_boundary_diffusion_block_vanishes(self):
        form = build_dynamic_bc_heat(Grid1D(5))
        assert np.abs(form.csr_blocks[1][1].toarray()).max() == 0.0

    def test_interior_block_is_stiffness(self):
        grid = Grid1D(5)
        form = build_dynamic_bc_heat(grid)
        np.testing.assert_array_equal(form.csr_blocks[0][0].toarray(), p1_stiffness(grid).toarray())


class TestConstantCoupled:
    def test_identity_decouples(self):
        form = build_constant_coupled(Grid1D(4), np.eye(2))
        assert np.abs(form.csr_blocks[0][1].toarray()).max() == 0.0
        assert np.abs(form.csr_blocks[1][0].toarray()).max() == 0.0

    def test_certificate_consistency_small(self):
        grid = Grid1D(16)
        form = build_constant_coupled(grid, [[2.0, -1.0], [-1.0, 2.0]])
        cert_alpha = 1.0
        diag_factor = min(estimate_ellipticity(form, i, 0.0) for i in range(2))
        assert full_ellipticity(form, 0.0) >= cert_alpha * diag_factor - 1e-6

    def test_singular_coupling_stable_check_fails_but_form_accretive(self):
        coupling = np.array([[1.0, -1.0], [-1.0, 1.0]])
        bundle = ConstantsBundle(coupling, np.zeros((2, 2)), np.zeros(2))
        assert stability_check(bundle).status == "fail"
        form = build_constant_coupled(Grid1D(12), coupling)
        assert is_discretely_accretive(form)

    def test_four_cycle_assembly_stays_sparse(self):
        # dense storage of the 16 blocks and 2 Grams on 2049 nodes would hold 18 arrays of 32 MiB
        coupling = [[2, -0.5, 0, -0.5], [-0.5, 2, -0.5, 0], [0, -0.5, 2, -0.5], [-0.5, 0, -0.5, 2]]
        tracemalloc.start()
        try:
            form = build_constant_coupled(Grid1D(2048), coupling)
            operators = (form.form_csr, form.mass_csr, form.vgram_csr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        # each of the twelve nonzero couplings stores 3 * 2049 - 2 entries, each zero coupling none
        assert [op.nnz for op in operators] == [12 * 6145, 4 * 6145, 4 * 6145]


FOUR_CYCLE = np.array([[3, -1, -1, 0], [-1, 3, 0, -1], [-1, 0, 3, -1], [0, -1, -1, 3]], dtype=float)
DECLARED_COUPLINGS = {
    "four_cycle": FOUR_CYCLE,
    "four_cycle_1e6": 1e6 * FOUR_CYCLE,
    "four_cycle_1e-6": 1e-6 * FOUR_CYCLE,
    "difference": two_fibre_coupling("difference", 2.0, 0.5),
    "shared": two_fibre_coupling("shared", 2.0, 0.5),
    "unsymmetric": np.array([[2.0, 0.0], [-1.0, 2.0]]),
}


class TestDeclaredKronecker:
    @pytest.mark.parametrize("n_cells", [8, 256, 16384, 131072])
    @pytest.mark.parametrize("name", sorted(DECLARED_COUPLINGS))
    def test_declared_blocks_equal_the_per_cell_assembly_bit_for_bit(self, name, n_cells):
        # c * K rounds each entry once, like c * (1/h) per cell: the two equal cell terms of an inner node sum exactly,
        # and doubling is exact
        coupling, grid = DECLARED_COUPLINGS[name], Grid1D(n_cells)
        form = build_constant_coupled(grid, coupling)
        c, k = form.declared
        np.testing.assert_array_equal(c, coupling)
        assert not c.flags.writeable and k.data.tobytes() == _as_csr(p1_stiffness(grid), "k").data.tobytes()
        for row, coefficients in zip(form.csr_blocks, coupling):
            for block, value in zip(row, coefficients):
                per_cell = _as_csr(p1_stiffness(grid, np.full(n_cells, value)), "block")
                for part in ("indptr", "indices", "data"):
                    got, want = getattr(block, part), getattr(per_cell, part)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (part, value)

    def test_only_a_field_constant_along_the_cells_is_declared(self):
        grid = Grid1D(16)
        values = np.tile(FOUR_CYCLE[:, :, None], 16)
        assert build_ephaptic(grid, CoefficientField(values)).declared is not None
        values[:, :, 7] *= 2.0
        form = build_ephaptic(grid, CoefficientField(values))
        assert form.declared is None and form.metadata["coefficients"].values[0, 0, 7] == 6.0
        # no other builder, and no derived form, declares anything
        declared = build_constant_coupled(grid, FOUR_CYCLE)
        derived = [declared.adjoint(), declared.diagonal_part(), build_damped_wave(grid), build_dynamic_bc_heat(grid)]
        assert [f.declared for f in derived] == [None] * 4
