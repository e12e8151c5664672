"""Reference values computed apart from coupledforms.

Nothing here imports the package: the P1 matrices, the modal
Crank-Nicolson solve and the closed-form eigenvalues are written out
again from their definitions.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg


def p1_bands(n_cells: int, length: float = 1.0) -> tuple:
    """Diagonals ``(mass_diag, mass_off, stiff_diag, stiff_off)`` of the P1 matrices.

    Uniform grid, Neumann ends: the end nodes get half an interior row.
    """
    h = length / n_cells
    ends = np.ones(n_cells + 1)
    ends[1:-1] = 2.0
    return ends * h / 3.0, np.full(n_cells, h / 6.0), ends / h, np.full(n_cells, -1.0 / h)


def _tridiag_apply(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def two_fibre_cn_observables(u0, n_cells: int, diffusion: float, coupling: float, dt: float, n_steps: int) -> dict:
    """``h_norm``, ``strip_distance`` and ``projection_norm`` at every step.

    The two-fibre ``difference`` coupling ``[[d-b, -b], [-b, d-b]]`` has
    the eigenmodes (1,1)/sqrt2 with eigenvalue d-2b and (1,-1)/sqrt2 with
    eigenvalue d.  Each mode is advanced on its own with a banded
    Crank-Nicolson solve.  The averaging projection keeps the first mode,
    so its mass norm is ``projection_norm`` and that of the second is
    ``strip_distance``.
    """
    m_diag, m_off, k_diag, k_off = p1_bands(n_cells)
    u1, u2 = (np.asarray(u, dtype=float) for u in u0)
    modes = [((u1 + u2) / math.sqrt(2.0), diffusion - 2.0 * coupling), ((u1 - u2) / math.sqrt(2.0), diffusion)]
    norms = []
    for w, lam in modes:
        c = 0.5 * dt * lam
        lhs_diag, lhs_off = m_diag + c * k_diag, m_off + c * k_off
        rhs_diag, rhs_off = m_diag - c * k_diag, m_off - c * k_off
        ab = np.zeros((3, n_cells + 1))
        ab[0, 1:] = lhs_off
        ab[1] = lhs_diag
        ab[2, :-1] = lhs_off
        out = np.empty(n_steps + 1)
        for k in range(n_steps + 1):
            if k:
                w = scipy.linalg.solve_banded((1, 1), ab, _tridiag_apply(rhs_diag, rhs_off, w))
            out[k] = math.sqrt(max(float(w @ _tridiag_apply(m_diag, m_off, w)), 0.0))
        norms.append(out)
    keep, strip = norms
    return {"h_norm": np.hypot(keep, strip), "strip_distance": strip, "projection_norm": keep}


def neumann_p1_eigenvalues(n_cells: int, length: float = 1.0) -> np.ndarray:
    """Generalized eigenvalues ``K x = mu M x`` of the Neumann P1 matrices.

    ``mu_k = 6 (1 - cos(k pi/n)) / (h^2 (2 + cos(k pi/n)))`` for k = 0..n.
    """
    h = length / n_cells
    c = np.cos(np.arange(n_cells + 1) * math.pi / n_cells)
    return 6.0 * (1.0 - c) / (h * h * (2.0 + c))


def cycle_coupling_eigenvalues(diagonal: float, off: float, m: int) -> np.ndarray:
    """Eigenvalues of ``diagonal*I + off*A`` with ``A`` the adjacency of an m-cycle."""
    return diagonal + 2.0 * off * np.cos(2.0 * math.pi * np.arange(m) / m)
