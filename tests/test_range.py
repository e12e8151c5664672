"""The exact numerical-range checks against a sampling oracle and dense eigenvalues.

``sector`` and ``parabola`` decide the numerical range from pencils and
draw nothing at random.  Random samples of the form never come near the
boundary, so they cannot show a verdict sharp; they can show it sound:
no sample may lie outside constants an exact check passes.
"""

import numpy as np
import pytest
import scipy.linalg

from coupledforms import (
    CoefficientField,
    DiscreteSpace,
    FormMatrix,
    Grid1D,
    build_constant_coupled,
    build_damped_wave,
    build_dynamic_bc_heat,
    build_ephaptic,
    form_apply,
    parabola_check,
    sector_check,
)
from coupledforms.certificates import FAIL, NOT_APPLICABLE, PASS
from coupledforms.errors import ValidationError
from coupledforms.qualitative import RANGE_CHECK_RTOL

RING = [[2.0, -0.5, 0.0, -0.5], [-0.5, 2.0, -0.5, 0.0], [0.0, -0.5, 2.0, -0.5], [-0.5, 0.0, -0.5, 2.0]]
# symmetric and indefinite: the 2-norm of its entrywise modulus is 1 + sqrt(2), its largest |eigenvalue| sqrt(3)
INDEFINITE = [[1.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.0, 1.0, 1.0]]


def _skew_coefficients(n_cells):
    """Seeded per-cell couplings ``c_01 != c_10``, so the ephaptic form has an imaginary part."""
    values = 1.0 + np.random.default_rng(n_cells).random((2, 2, n_cells))
    values[0, 1] *= -0.5
    return CoefficientField(values)


BUILDERS = {
    "ephaptic": lambda grid: build_ephaptic(grid, _skew_coefficients(grid.n_cells)),
    "ring": lambda grid: build_constant_coupled(grid, RING),
    "indefinite": lambda grid: build_constant_coupled(grid, INDEFINITE),
    "wave-1": lambda grid: build_damped_wave(grid, 1.0),
    "wave-0.5": lambda grid: build_damped_wave(grid, 0.5),
    "wave-2": lambda grid: build_damped_wave(grid, 2.0),
    "wave-complex": lambda grid: build_damped_wave(grid, 1.0 + 0.5j),
    "dynamic_bc_heat": build_dynamic_bc_heat,
}
# the smallest constant of this ladder that parabola passes is the one the oracle tests
M_TILDE_LADDER = [0.0] + [2.0**k for k in range(-2, 12)]


def numerical_range_samples(form, count, seed=0):
    """``count`` seeded values ``(a(f, f), |f|_V^2, |f|_H^2)`` at complex normal coordinates ``f``."""
    rng = np.random.default_rng(seed)
    n = form.total_dim
    fs = rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))

    def quadratic(matrix):
        return np.einsum("ic,ic->c", fs.conj(), matrix @ fs)

    return quadratic(form.form_csr), quadratic(form.vgram_csr).real, quadratic(form.mass_csr).real


def _slack(a, v, h):
    return RANGE_CHECK_RTOL * np.maximum.reduce([np.abs(a), v, h, np.ones_like(v)])


def _imaginary_identity(sign, n=4):
    """``a(f, f) = sign*i*|f|^2`` with ``V = H = I``: both sharp constants are 1, on one side only."""
    eye = np.eye(n)
    return FormMatrix([DiscreteSpace(eye, eye)], [[sign * 1j * eye]])


def _dense_skew(form):
    s = form.form_csr.toarray()
    return (s - s.conj().T) / 2j


def _dense_support(form, direction):
    """``lambda_max(herm(conj(d)*S), V)`` by dense ``eigh``."""
    a = np.conj(direction) * form.form_csr.toarray()
    return scipy.linalg.eigh((a + a.conj().T) / 2, form.vgram_csr.toarray(), eigvals_only=True)[-1]


class TestSampler:
    def test_values_are_the_form(self):
        form = build_damped_wave(Grid1D(6), 1.0 + 0.5j)
        a, v, h = numerical_range_samples(form, 3, seed=1)
        fs = np.random.default_rng(1)
        n = form.total_dim
        f = fs.standard_normal((n, 3)) + 1j * fs.standard_normal((n, 3))
        for c in range(3):
            blocks = form.split(f[:, c])
            assert a[c] == pytest.approx(form_apply(form, blocks, blocks), rel=1e-12)
        assert np.all(v > 0) and np.all(h > 0)

    def test_hermitian_form_has_real_range(self):
        form = build_constant_coupled(Grid1D(6), [[2.0, -1.0], [-1.0, 2.0]])
        a_vals, v_sq, h_sq = numerical_range_samples(form, 50, seed=1)
        assert np.all(np.abs(a_vals.imag) <= 1e-12 * np.abs(a_vals.real))
        assert np.all(v_sq > 0) and np.all(h_sq > 0)

    def test_reproducible(self):
        form = build_damped_wave(Grid1D(4), 1.0)
        a = numerical_range_samples(form, 5, seed=42)
        b = numerical_range_samples(form, 5, seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("n_cells", [16, 64])
@pytest.mark.parametrize("name", sorted(BUILDERS))
class TestOracle:
    def test_no_sample_outside_the_exact_sector(self, name, n_cells):
        form = BUILDERS[name](Grid1D(n_cells))
        res = sector_check(form)
        assert res.passed
        a, v, h = numerical_range_samples(form, 400, seed=n_cells)
        slack = _slack(a, v, h)
        assert np.all(a.real - res.details["exact_alpha"] * v >= -slack)
        assert np.all(np.abs(a.imag) - res.details["exact_bound"] * v <= slack)

    def test_no_sample_above_a_passed_parabola_constant(self, name, n_cells):
        form = BUILDERS[name](Grid1D(n_cells))
        m_tilde = next(m for m in M_TILDE_LADDER if parabola_check(form, m).passed)
        a, v, h = numerical_range_samples(form, 400, seed=n_cells)
        assert np.all(np.abs(a.imag) - m_tilde * np.sqrt(v * h) <= _slack(a, v, h))


class TestSector:
    @pytest.mark.parametrize("n_cells", [64, 256])
    def test_below_the_imaginary_constant_fails(self, n_cells):
        form = build_damped_wave(Grid1D(n_cells), 1.0)
        res = sector_check(form, bound=0.49)
        assert res.status == FAIL
        assert res.details["exact_bound"] == pytest.approx(0.5, abs=1e-9)
        assert sector_check(form, bound=0.5).passed

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_sided_imaginary_part(self, sign):
        form = _imaginary_identity(sign)
        assert sector_check(form).details["exact_bound"] == pytest.approx(1.0, abs=1e-9)
        assert sector_check(form, bound=0.99).status == FAIL
        assert sector_check(form, bound=1.01).passed

    @pytest.mark.parametrize("name", ["ephaptic", "wave-complex"])
    def test_exact_constants_match_dense_eigenvalues(self, name):
        form = BUILDERS[name](Grid1D(16))
        shift = 0.5
        res = sector_check(form, shift=shift)
        s = form.form_csr.toarray()
        v = form.vgram_csr.toarray()
        herm = (s + s.conj().T) / 2 + shift * form.mass_csr.toarray()
        imag = scipy.linalg.eigh(_dense_skew(form), v, eigvals_only=True)
        assert res.details["exact_alpha"] == pytest.approx(scipy.linalg.eigh(herm, v, eigvals_only=True)[0], abs=1e-9)
        assert res.details["exact_bound"] == pytest.approx(np.abs(imag).max(), abs=1e-9)

    @pytest.mark.parametrize("n_cells", [16, 48])
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_default_bound_is_the_largest_axis_support(self, name, n_cells):
        # the half-side of the smallest square about 0 that holds the numerical range, never below exact_bound
        form = BUILDERS[name](Grid1D(n_cells))
        details = sector_check(form).details
        want = max(abs(_dense_support(form, d)) for d in (1, -1, 1j, -1j))
        assert details["bound"] == pytest.approx(want, rel=1e-9)
        assert details["bound"] >= details["exact_bound"]
        s = form.form_csr.toarray()
        if np.array_equal(s, s.conj().T):
            # a Hermitian form's continuity constant |S|_V
            eigenvalues = scipy.linalg.eigh(s, form.vgram_csr.toarray(), eigvals_only=True)
            assert details["bound"] == pytest.approx(np.abs(eigenvalues).max(), rel=1e-9)


class TestParabola:
    @pytest.mark.parametrize("n_cells", [64, 256])
    def test_below_the_constant_fails_with_a_witness(self, n_cells):
        form = build_damped_wave(Grid1D(n_cells), 1.0)
        res = parabola_check(form, 0.4)
        assert res.status == FAIL
        assert res.details["failing_t"] > 0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_sided_imaginary_part(self, sign):
        form = _imaginary_identity(sign)
        assert parabola_check(form, 0.99).status == FAIL
        assert parabola_check(form, 1.01).passed

    def test_witness_violates_the_bound_densely(self):
        form = build_damped_wave(Grid1D(16), 2.0)
        res = parabola_check(form, 0.52)
        assert res.status == FAIL
        t = res.details["failing_t"]
        gram = t * form.vgram_csr.toarray() + form.mass_csr.toarray() / t
        top = np.abs(scipy.linalg.eigh(2 * _dense_skew(form), gram, eigvals_only=True)).max()
        assert top > 0.52

    @pytest.mark.parametrize("n_cells", [64, 256])
    def test_above_the_constant_passes(self, n_cells):
        res = parabola_check(build_damped_wave(Grid1D(n_cells), 1.0), 0.52)
        assert res.status == PASS and res.details["intervals"] > 0

    def test_builder_constant_needs_no_interval(self):
        # lambda_max(2T, V) = lambda_max(2T, H) = 1 at alpha = 1: the tails cover every t
        res = parabola_check(build_damped_wave(Grid1D(64), 1.0))
        assert res.status == PASS and res.details == {"m_tilde": 1.0, "intervals": 0}

    def test_tie_is_undecided(self):
        res = parabola_check(build_damped_wave(Grid1D(16), 1.0), 0.5)
        assert res.status == NOT_APPLICABLE
        assert res.details["reason"] == "undecided within round-off"

    def test_nan_constant_rejected_and_infinite_passes(self):
        form = build_damped_wave(Grid1D(16), 1.0)
        with pytest.raises(ValidationError, match="m_tilde must be >= 0"):
            parabola_check(form, float("nan"))
        assert parabola_check(form, float("inf")).status == PASS
