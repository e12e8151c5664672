"""The package against the exact modal oracle of ``modal.py``, at sizes dense oracles cannot reach."""

from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg

import modal
from coupledforms import (
    CoefficientField,
    EvolutionConfig,
    Grid1D,
    averaging_projection,
    build_constant_coupled,
    build_damped_wave,
    build_ephaptic,
    evolve,
    two_fibre_coupling,
)
from coupledforms.certificates import PASS
from coupledforms.forms import _support
from coupledforms.qualitative import sector_check

RING = [[3, -1, -1, 0], [-1, 3, 0, -1], [-1, 0, 3, -1], [0, -1, -1, 3]]
#: Agreement of modal values with dense ``eigh``, relative to the pencil's largest eigenvalue magnitude.
DENSE_RTOL = 1e-12
#: Agreement of ``evolve``'s observables with the exact modal theta-scheme, relative per value.
EVOLVE_RTOL = 1e-12
ITEM_4 = "ROADMAP item 4: the spectral bracket is not certified in floating point and misses the modal value"
ITEM_2 = "ROADMAP item 2: the implicit-Euler gap to the modal oracle grows like 1/h**2, 5.5e-11 at 2048 cells"

MODELS = {
    # the package's builder and the modal form of one model, on n cells of an interval of length L
    "ring": (lambda n, L: build_constant_coupled(Grid1D(n, L), RING), lambda n, L: modal.ephaptic(RING, n, L)),
    "wave": (lambda n, L: build_damped_wave(Grid1D(n, L), 1.0), lambda n, L: modal.damped_wave(1.0, n, L)),
    "complex-wave": (
        lambda n, L: build_damped_wave(Grid1D(n, L), 1.0 + 0.5j),
        lambda n, L: modal.damped_wave(1.0 + 0.5j, n, L),
    ),
}


@lru_cache(maxsize=None)
def package_form(name: str, n_cells: int, length: float = 1.0):
    """One form per model and size, so the brackets one test bisects are read by the next."""
    return MODELS[name][0](n_cells, length)


@lru_cache(maxsize=None)
def modal_support(name: str, n_cells: int, direction) -> float:
    return modal.support(MODELS[name][1](n_cells, 1.0), direction)


@pytest.fixture(scope="module", autouse=True)
def release_forms():
    yield
    package_form.cache_clear()


def modal_constant(name: str, n_cells: int) -> float:
    """The 4-cycle's ellipticity constant, or a damped wave's sup ``|Im a(f, f)| / |f|_V^2``."""
    if name == "ring":
        return -modal_support(name, n_cells, -1)
    return max(0.0, modal_support(name, n_cells, 1j), modal_support(name, n_cells, -1j))


class TestOracle:
    @pytest.mark.parametrize("n_cells, length", [(8, 1.0), (16, 2.5), (48, 1.0)])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_dense_eigh(self, name, n_cells, length):
        form, exact = package_form(name, n_cells, length), MODELS[name][1](n_cells, length)
        s = form.form_csr.toarray()
        for direction in (1, -1, 1j, -1j):
            for gram, g in (("vgram_csr", "v"), ("mass_csr", "h")):
                for shift in (0.0, 0.7):
                    a = np.conj(direction) * s
                    a = 0.5 * (a + a.conj().T) - shift * form.mass_csr.toarray()
                    dense = scipy.linalg.eigh(a, getattr(form, gram).toarray(), eigvals_only=True)
                    got = modal.pencil_spectrum(exact, direction, g, shift)
                    scale = max(np.abs(dense).max(), np.abs(got).max())
                    assert np.abs(got - dense).max() <= DENSE_RTOL * scale, (direction, gram, shift)

    @pytest.mark.parametrize("n_cells", [64, 2048, 16384])
    def test_exact_constants(self, n_cells):
        # the constant mode is in the kernel of K, and on it Im a(f, f) / |f|_V^2 is 1/2
        assert modal_constant("ring", n_cells) == 0.0
        for name in ("wave", "complex-wave"):
            assert abs(modal_constant(name, n_cells) - 0.5) <= 4 * np.finfo(float).eps


def assert_two_fibre_run_matches_oracle(n_cells: int, n_steps: int, scheme: str, theta: float) -> None:
    """``evolve`` on the two-fibre ``difference`` model against the modal theta-scheme, dt 1e-3, averaging projection."""
    coupling = two_fibre_coupling("difference", diffusion=2.0, coupling=0.5)
    form = build_ephaptic(Grid1D(n_cells), CoefficientField.constant(coupling, n_cells))
    rng = np.random.default_rng(n_cells)
    u0 = [rng.standard_normal(n_cells + 1) for _ in range(2)]
    dt = 1e-3
    cfg = EvolutionConfig(dt=dt, t_end=dt * n_steps, scheme=scheme)
    record = evolve(form, u0, cfg, proj=averaging_projection(2))
    exact = modal.theta_scheme(modal.ephaptic(coupling, n_cells), u0, dt, n_steps, np.full((2, 2), 0.5), theta)
    for name, want in exact.items():
        got = record.observable(name)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / want) <= EVOLVE_RTOL, name


class TestEvolve:
    @pytest.mark.parametrize("n_cells, n_steps", [(64, 200), (2048, 100)])
    def test_two_fibre_crank_nicolson(self, n_cells, n_steps):
        assert_two_fibre_run_matches_oracle(n_cells, n_steps, "crank-nicolson", 0.5)

    @pytest.mark.parametrize(
        "n_cells, n_steps", [(64, 200), pytest.param(2048, 100, marks=pytest.mark.xfail(strict=True, reason=ITEM_2))]
    )
    def test_two_fibre_implicit_euler(self, n_cells, n_steps):
        assert_two_fibre_run_matches_oracle(n_cells, n_steps, "implicit-euler", 1.0)


def _missed(*cases):
    return [pytest.param(*case, marks=pytest.mark.xfail(strict=True, reason=ITEM_4)) for case in cases]


class TestBrackets:
    """Each spectral bracket of the package against the modal value it should contain."""

    @pytest.mark.parametrize(
        "name, n_cells",
        [("wave", 64)]
        + _missed(("ring", 64), ("complex-wave", 64), ("ring", 2048), ("wave", 2048), ("complex-wave", 2048))
        + _missed(("ring", 16384), ("wave", 16384), ("complex-wave", 16384)),
    )
    def test_bracket_contains_modal_value(self, name, n_cells):
        for direction in (-1,) if name == "ring" else (1j, -1j):
            lo, hi = _support(package_form(name, n_cells), direction)
            assert lo <= modal_support(name, n_cells, direction) <= hi

    @pytest.mark.parametrize("n_cells", [64] + _missed((2048,), (16384,)))
    def test_ring_sector_at_the_exact_ellipticity(self, n_cells):
        assert modal_constant("ring", n_cells) == 0.0
        # a real symmetric form has Im a(f, f) = 0, so any bound holds; alpha alone decides
        assert sector_check(package_form("ring", n_cells), alpha=0.0, bound=1.0).status == PASS
