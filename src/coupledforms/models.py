"""Assembly of the example systems on uniform 1D grids.

All builders produce :class:`~coupledforms.forms.FormMatrix` instances
with piecewise-linear hat bases.  Coefficients are piecewise constant
per cell, which makes every element integral exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import DimensionError, ValidationError
from .forms import DiscreteSpace, FormMatrix


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on the interval (0, length) with n_cells cells."""

    n_cells: int
    length: float = 1.0

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValidationError("need at least 2 cells")
        if not 0 < self.h < np.inf:
            raise ValidationError(f"length {self.length!r} on {self.n_cells} cells gives no positive finite cell width")

    @property
    def h(self) -> float:
        return self.length / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_nodes)


@dataclass(frozen=True)
class CoefficientField:
    """Cell-wise diffusion coefficients ``c_ij`` of an m-fibre system.

    ``values[i, j, k]`` is the coefficient of coupling block (i, j) on
    cell k.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[0] != v.shape[1]:
            raise DimensionError(f"values must have shape (m, m, n_cells), got {v.shape}")
        if not np.isfinite(v).all():
            raise ValidationError("coefficients must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n_cells(self) -> int:
        return self.values.shape[2]

    @classmethod
    def constant(cls, matrix, n_cells: int) -> "CoefficientField":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionError(f"coupling matrix must be square, got {matrix.shape}")
        return cls(np.repeat(matrix[:, :, None], n_cells, axis=2))

    def perturbed(self, i: int, j: int, delta: float) -> "CoefficientField":
        if not (0 <= i < self.m and 0 <= j < self.m):
            raise ValidationError(f"block ({i}, {j}) is outside the {self.m}x{self.m} coefficient grid")
        v = np.array(self.values)
        v[i, j, :] += delta
        return CoefficientField(v)


def two_fibre_coupling(kind: str, diffusion: float = 2.0, coupling: float = 0.5) -> np.ndarray:
    """The three classical 2-fibre coupling matrices.

    ``difference``: diagonal ``diffusion - coupling``, off-diagonal
    ``-coupling``; ``sum``: diagonal ``diffusion + coupling``, same
    off-diagonal; ``shared``: all four entries equal to ``diffusion``.
    All three have equal row and column sums.
    """
    d, b = float(diffusion), float(coupling)
    if kind == "difference":
        return np.array([[d - b, -b], [-b, d - b]])
    if kind == "sum":
        return np.array([[d + b, -b], [-b, d + b]])
    if kind == "shared":
        return np.array([[d, d], [d, d]])
    raise ValidationError(f"unknown coupling pattern {kind!r}")


def _p1_assemble(n_cells: int, diagonal, off) -> scipy.sparse.csr_array:
    """Sum over cells k of the elements ``[[diagonal, off], [off, diagonal]]`` on nodes k, k+1, in CSR.

    Scalar or per-cell entries, summed as COO triplets (Davis 2006, ch. 2) with no stored zeros; a sum has
    at most two terms, so it equals a per-cell loop's bit for bit, as addition commutes.
    """
    k = np.arange(n_cells)
    data = np.concatenate([np.broadcast_to(v, (n_cells,)) for v in (diagonal, diagonal, off, off)])
    ij = (np.concatenate([k, k + 1, k, k + 1]), np.concatenate([k, k + 1, k + 1, k]))
    out = scipy.sparse.coo_array((data, ij), shape=(n_cells + 1, n_cells + 1)).tocsr()
    out.eliminate_zeros()
    return out


def p1_mass(grid: Grid1D) -> scipy.sparse.csr_array:
    """Consistent mass matrix of the hat basis."""
    return _p1_assemble(grid.n_cells, grid.h / 6.0 * 2.0, grid.h / 6.0)


def p1_stiffness(grid: Grid1D, cell_values=1.0) -> scipy.sparse.csr_array:
    """Stiffness matrix with a piecewise-constant coefficient.

    ``cell_values`` may be a scalar or a length-``n_cells`` array of the
    coefficient evaluated at cell midpoints.
    """
    c = np.broadcast_to(np.asarray(cell_values, dtype=float), (grid.n_cells,))
    return _p1_assemble(grid.n_cells, c * (1.0 / grid.h), c * (-1.0 / grid.h))


def _h1_space(grid: Grid1D) -> DiscreteSpace:
    mass = p1_mass(grid)
    return DiscreteSpace(mass, mass + p1_stiffness(grid))


def build_ephaptic(grid: Grid1D, coeffs: CoefficientField) -> FormMatrix:
    """Coupled-diffusion form ``a_ij(f,g) = int c_ij f' g'``.

    Each component lives in the same hat-function space with the plain
    L2 ambient Gram and the H1 domain Gram.  The unbounded line of the
    original problem is truncated to (0, length) with natural boundary
    conditions.  The (immutable) field is kept under
    ``metadata["coefficients"]``, which the row- and column-sum checks read.
    A field ``C`` constant along the cells is declared, ``A_K = C`` and ``A_M = 0`` (:meth:`FormMatrix.declare`).
    """
    if coeffs.n_cells != grid.n_cells:
        raise DimensionError(
            f"coefficient field has {coeffs.n_cells} cells, grid has {grid.n_cells}"
        )
    if (coeffs.values == coeffs.values[:, :, :1]).all():
        m = coeffs.m
        a_k, a_m, h = coeffs.values[:, :, 0], np.zeros((m, m)), [(0, 1)] * m
        return FormMatrix.declare(p1_stiffness(grid), p1_mass(grid), a_k, a_m, h, {"coefficients": coeffs})
    blocks = [[p1_stiffness(grid, c) for c in row] for row in coeffs.values]
    return FormMatrix([_h1_space(grid)] * coeffs.m, blocks, {"coefficients": coeffs})


def build_damped_wave(grid: Grid1D, alpha: complex = 1.0) -> FormMatrix:
    """First-order form of the strongly damped wave equation.

    Component 1 (the phase) carries the H1 Gram as both ambient and
    domain inner product; component 2 (the velocity) is an L2 component
    with H1 domain.  The numerical range satisfies the parabola bound
    with the constant stored under ``metadata["parabola_constant"]``,
    ``1 + |alpha - 1|``; ``parabola_check`` decides it exactly.  At
    ``alpha = 1`` the sharp constant is about 0.5.  It is declared by :meth:`FormMatrix.declare`.
    """
    alpha = complex(alpha)
    a_k, a_m, h = [[0, -1], [-alpha, 1]], [[0, -1], [0, 0]], [(1, 1), (0, 1)]
    metadata = {"parabola_constant": 1.0 + abs(alpha - 1.0)}
    return FormMatrix.declare(p1_stiffness(grid), p1_mass(grid), a_k, a_m, h, metadata)


def build_dynamic_bc_heat(grid: Grid1D) -> FormMatrix:
    """Heat equation coupled to an evolving boundary value.

    Component 1 is the interior hat space, component 2 the two endpoint
    values with identity Grams.  The couplings carry the boundary trace
    with a negative sign; the boundary diffusion block is zero because a
    two-point boundary has no tangential direction.
    """
    n = grid.n_nodes
    trace = scipy.sparse.csr_array(([1.0, 1.0], ([0, n - 1], [0, 1])), shape=(n, 2))
    blocks = [[p1_stiffness(grid), -trace], [-trace.T, np.zeros((2, 2))]]
    return FormMatrix([_h1_space(grid), DiscreteSpace(np.eye(2), np.eye(2))], blocks)


def build_constant_coupled(grid: Grid1D, coupling) -> FormMatrix:
    """Coupled diffusion with constant coefficients ``c_ij = coupling[i, j]``.

    Bridges the scalar certificates and the discrete estimates: the form
    is declared, its blocks ``coupling[i, j]`` times the unit stiffness
    matrix.
    """
    return build_ephaptic(grid, CoefficientField.constant(coupling, grid.n_cells))
