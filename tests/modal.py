"""Exact modal oracle of constant-coefficient P1 forms, for tests at any size.

Nothing here imports coupledforms.  On a uniform grid of ``n`` cells of
width ``h`` with Neumann ends, the P1 stiffness ``K`` and mass ``M``
share the cosine modes ``v_k(j) = cos(k pi j / n)``, k = 0..n:

    K v_k = kappa_k D v_k,   kappa_k = 4 sin^2(theta_k / 2) / h,
    M v_k = mu_k D v_k,      mu_k = h (4 + 2 cos theta_k) / 6,

with ``theta_k = k pi / n`` and ``D = diag(1/2, 1, ..., 1, 1/2)`` (the
equal ``(2 - 2 cos theta_k) / h`` cancels in the lowest modes, to a
relative error of about eps (n / pi)^2); the
modes are ``D``-orthogonal, ``|v_k|_D^2 = n/2`` inside and ``n`` at
k = 0 and k = n (Strang & Fix 1973, ch. 6; Strang, "The discrete cosine
transform", SIAM Review 41, 1999).  A form whose block (i, j) is
``s_k[i, j] K + s_m[i, j] M``, with Grams that are per-component
combinations of ``K`` and ``M`` too, maps ``a (x) v_k`` to ``(kappa_k
s_k + mu_k s_m) a (x) D v_k``.  So every pencil of such a form splits
into n + 1 pencils of size m, and every evolution into n + 1 systems of
size m: the values below are exact up to the rounding of m-by-m
arithmetic, a few ulps of the largest entry of a mode's matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft


@dataclass(frozen=True)
class ModalForm:
    """An m-component P1 form with block (i, j) equal to ``s_k[i, j] K + s_m[i, j] M``.

    The ambient Gram of component i is ``h_k[i] K + h_m[i] M``, its
    domain Gram ``v_k[i] K + v_m[i] M``.
    """

    n_cells: int
    length: float
    s_k: np.ndarray
    s_m: np.ndarray
    h_k: np.ndarray
    h_m: np.ndarray
    v_k: np.ndarray
    v_m: np.ndarray

    @property
    def m(self) -> int:
        return self.s_k.shape[0]

    def modes(self) -> tuple:
        """``(kappa, mu, weight)`` per mode k = 0..n, ``weight = |v_k|_D^2``."""
        n, h = self.n_cells, self.length / self.n_cells
        theta = np.arange(n + 1) * np.pi / n
        weight = np.full(n + 1, n / 2.0)
        weight[[0, -1]] = n
        return 4.0 * np.sin(theta / 2.0) ** 2 / h, h * (4.0 + 2.0 * np.cos(theta)) / 6.0, weight

    def mode_matrices(self) -> tuple:
        """``(S, H, V)``: the form, ambient and domain Gram of every mode, ``(n + 1, m, m)`` each."""
        kappa, mu, _ = self.modes()
        kappa, mu = kappa[:, None, None], mu[:, None, None]
        s = kappa * np.asarray(self.s_k) + mu * np.asarray(self.s_m)
        h = kappa * np.diag(self.h_k) + mu * np.diag(self.h_m)
        v = kappa * np.diag(self.v_k) + mu * np.diag(self.v_m)
        return s, h, v


def ephaptic(coupling, n_cells: int, length: float = 1.0) -> ModalForm:
    """``coupling[i, j] K`` per block, the L2 ambient and the H1 domain Gram on every component."""
    c = np.asarray(coupling, dtype=float)
    ones, zeros = np.ones(c.shape[0]), np.zeros(c.shape[0])
    return ModalForm(n_cells, length, c, np.zeros_like(c), zeros, ones, ones, ones)


def damped_wave(alpha: complex, n_cells: int, length: float = 1.0) -> ModalForm:
    """Blocks ``[[0, -(M + K)], [-alpha K, K]]``; ambient Grams ``M + K`` and ``M``, domain Grams ``M + K``."""
    s_k = np.array([[0.0, -1.0], [-complex(alpha), 1.0]])
    s_m = np.array([[0.0, -1.0], [0.0, 0.0]])
    return ModalForm(n_cells, length, s_k, s_m, np.array([1.0, 0.0]), np.ones(2), np.ones(2), np.ones(2))


def _hermitian(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _pencil_eigenvalues(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian-definite pencils ``(a_k, b_k)``, ascending per mode, by one batched Cholesky."""
    low = np.linalg.cholesky(b)
    x = np.linalg.solve(low, a)
    return np.linalg.eigvalsh(_hermitian(np.linalg.solve(low, x.conj().swapaxes(-1, -2))))


def pencil_spectrum(form: ModalForm, direction=1, gram: str = "v", shift: float = 0.0) -> np.ndarray:
    """Every eigenvalue of ``(herm(conj(d) S) - shift H, G)``, sorted, with ``G`` the ``gram`` ("v" or "h")."""
    s, h, v = form.mode_matrices()
    a = _hermitian(np.conj(direction) * s) - shift * h
    return np.sort(_pencil_eigenvalues(a, v if gram == "v" else h).ravel())


def support(form: ModalForm, direction, gram: str = "v", shift: float = 0.0) -> float:
    """``sup (Re(conj(d) a(f, f)) - shift |f|_H^2) / |f|_G^2``: the largest eigenvalue of any mode's pencil.

    Direction -1 gives the ellipticity constant negated, and the larger
    of directions +-i the sup of ``|Im a(f, f)| / |f|_V^2``.
    """
    return float(pencil_spectrum(form, direction, gram, shift)[-1])


def _coefficients(form: ModalForm, u0) -> np.ndarray:
    """Modal coefficients ``(n + 1, m)`` of nodal components ``u0``: ``u_i = sum_k a[k, i] v_k``.

    ``v_k^T D u`` is half the type-1 DCT of ``u``.
    """
    _, _, weight = form.modes()
    return np.stack([scipy.fft.dct(np.asarray(u, dtype=float), type=1) / 2.0 for u in u0], axis=1) / weight[:, None]


def theta_scheme(form: ModalForm, u0, dt: float, n_steps: int, projection, theta: float = 0.5) -> dict:
    """``h_norm``, ``strip_distance`` and ``projection_norm`` after every theta-scheme step, step 0 included.

    Each mode solves ``(H_k + theta dt S_k) a+ = (H_k - (1 - theta) dt S_k) a``
    with its own m-by-m amplification matrix: theta 1/2 is Crank-Nicolson,
    theta 1 implicit Euler.  The ambient norm is ``sum_k
    |v_k|_D^2 a_k^H H_k a_k``; the strip observables take ``P a_k`` and
    ``a_k - P a_k`` with the m-by-m ``projection``, which commutes with
    ``H_k`` when every component has the same Gram.
    """
    s, h, _ = form.mode_matrices()
    _, _, weight = form.modes()
    amplification = np.linalg.solve(h + theta * dt * s, h - (1.0 - theta) * dt * s)
    a = _coefficients(form, u0).astype(complex)
    p = np.asarray(projection, dtype=complex)
    parts = {"h_norm": np.eye(form.m), "strip_distance": np.eye(form.m) - p, "projection_norm": p}
    out = {name: np.empty(n_steps + 1) for name in parts}
    for step in range(n_steps + 1):
        if step:
            a = np.einsum("kij,kj->ki", amplification, a)
        for name, q in parts.items():
            b = a @ q.T
            out[name][step] = np.sqrt(np.einsum("k,ki,kij,kj->", weight, b.conj(), h, b).real)
    return out
