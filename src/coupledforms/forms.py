"""Discrete Galerkin representation of coupled sesquilinear forms.

Everything lives in coordinates: a space is a pair of Gram matrices, a
form is an m-by-m grid of blocks, and ``g^H S_ij f`` evaluates the
(i, j) block on trial coordinates ``f`` (space j) and test coordinates
``g`` (space i).  Keeping the geometry inside the Grams makes the module
independent of how the underlying meshes look.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DimensionError, NumericalError, ValidationError

HERMITIAN_RTOL = 1e-12
# Relative slack for the sampled numerical-range checks.
RANGE_CHECK_RTOL = 1e-9


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} contains non-finite entries")
    a = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    a.setflags(write=False)
    return a


def _check_gram(g: np.ndarray, name: str) -> None:
    scale = max(np.linalg.norm(g), 1e-300)
    if np.linalg.norm(g - g.conj().T) > HERMITIAN_RTOL * scale:
        raise ValidationError(f"{name} is not Hermitian within tolerance")
    lam = np.linalg.eigvalsh((g + g.conj().T) / 2.0)[0]
    if not lam > 0:
        raise ValidationError(f"{name} is not positive definite (min eigenvalue {lam:.3e})")


@dataclass(frozen=True)
class DiscreteSpace:
    """Galerkin space given by its ambient and domain Gram matrices.

    ``h_gram`` is the ambient (state-space) inner product, ``v_gram``
    the form-domain inner product; both must be Hermitian positive
    definite of size ``dim``.
    """

    dim: int
    h_gram: np.ndarray
    v_gram: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("space dimension must be positive")
        h = _as_matrix(self.h_gram, "h_gram")
        v = _as_matrix(self.v_gram, "v_gram")
        for name, g in (("h_gram", h), ("v_gram", v)):
            if g.shape != (self.dim, self.dim):
                raise DimensionError(f"{name} must be {self.dim}x{self.dim}, got {g.shape}")
            _check_gram(g, name)
        object.__setattr__(self, "h_gram", h)
        object.__setattr__(self, "v_gram", v)

    def same_geometry(self, other: "DiscreteSpace", rtol: float = 1e-12) -> bool:
        return (
            self.dim == other.dim
            and np.allclose(self.h_gram, other.h_gram, rtol=rtol, atol=rtol)
            and np.allclose(self.v_gram, other.v_gram, rtol=rtol, atol=rtol)
        )


@dataclass(frozen=True)
class FormBlock:
    """One block of a form matrix: ``a_ij(f, g) = g^H matrix f``."""

    row: int
    col: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.matrix, f"block ({self.row},{self.col})"))


@dataclass(eq=False)
class FormMatrix:
    """m-by-m grid of form blocks over a list of discrete spaces.

    Blocks and Grams are stored dense.  The form owns its assembled
    operators on the product space, in CSR: ``form_csr`` (the blocks in
    place) and ``mass_csr``/``vgram_csr`` (block diagonals of the ambient
    and domain Grams).  Only the LAPACK routines below densify them.

    Immutable after assembly by convention; all derived matrices are
    cached, so instances are cheap to share between checks.
    """

    spaces: list
    blocks: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        m = len(self.spaces)
        if m < 1:
            raise ValidationError("need at least one space")
        if len(self.blocks) != m or any(len(row) != m for row in self.blocks):
            raise DimensionError(f"blocks must form an {m}x{m} grid")
        for i in range(m):
            for j in range(m):
                blk = self.blocks[i][j]
                if not isinstance(blk, FormBlock):
                    blk = FormBlock(i, j, blk)
                    self.blocks[i][j] = blk
                if (blk.row, blk.col) != (i, j):
                    raise ValidationError(f"block at ({i},{j}) is labelled ({blk.row},{blk.col})")
                expected = (self.spaces[i].dim, self.spaces[j].dim)
                if blk.matrix.shape != expected:
                    raise DimensionError(
                        f"block ({i},{j}) has shape {blk.matrix.shape}, expected {expected}"
                    )

    @property
    def m(self) -> int:
        return len(self.spaces)

    @property
    def dims(self) -> list:
        return [s.dim for s in self.spaces]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @cached_property
    def block_slices(self) -> list:
        offsets = np.concatenate([[0], np.cumsum(self.dims)])
        return [slice(int(offsets[i]), int(offsets[i + 1])) for i in range(self.m)]

    def block(self, i: int, j: int) -> np.ndarray:
        return self.blocks[i][j].matrix

    @cached_property
    def is_real(self) -> bool:
        return all(not np.iscomplexobj(self.block(i, j)) for i in range(self.m) for j in range(self.m))

    def _blockdiag_csr(self, which: str) -> scipy.sparse.csr_array:
        grams = [scipy.sparse.csr_array(getattr(s, which)) for s in self.spaces]
        return scipy.sparse.block_diag(grams, format="csr")

    @cached_property
    def form_csr(self) -> scipy.sparse.csr_array:
        """The assembled form matrix, blocks in place."""
        blocks = [[scipy.sparse.csr_array(self.block(i, j)) for j in range(self.m)] for i in range(self.m)]
        return scipy.sparse.bmat(blocks, format="csr")

    @cached_property
    def mass_csr(self) -> scipy.sparse.csr_array:
        """Block diagonal of the ambient Grams."""
        return self._blockdiag_csr("h_gram")

    @cached_property
    def vgram_csr(self) -> scipy.sparse.csr_array:
        """Block diagonal of the form-domain Grams."""
        return self._blockdiag_csr("v_gram")

    def adjoint(self) -> "FormMatrix":
        """Form with blocks ``S*_ij = S_ji^H`` (the adjoint form)."""
        blocks = [
            [FormBlock(i, j, self.block(j, i).conj().T) for j in range(self.m)]
            for i in range(self.m)
        ]
        meta = dict(self.metadata)
        meta["adjoint_of"] = meta.pop("model", "unnamed")
        return FormMatrix(self.spaces, blocks, meta)

    def diagonal_part(self) -> "FormMatrix":
        """Same diagonal blocks, all couplings zeroed."""
        blocks = [
            [
                FormBlock(i, j, self.block(i, j) if i == j else np.zeros_like(self.block(i, j)))
                for j in range(self.m)
            ]
            for i in range(self.m)
        ]
        meta = dict(self.metadata)
        meta["diagonal_of"] = meta.pop("model", "unnamed")
        return FormMatrix(self.spaces, blocks, meta)

    @cached_property
    def identical_spaces(self) -> bool:
        """All component spaces share one geometry (needed to lift an m-by-m projection)."""
        first = self.spaces[0]
        return all(s.same_geometry(first) for s in self.spaces[1:])

    def flatten(self, blocks) -> np.ndarray:
        """Concatenate per-component coordinates into one vector.

        Components are all vectors ``(dim_i,)``, giving ``(total_dim,)``,
        or all ``(dim_i, k)`` blocks of k trial columns, giving
        ``(total_dim, k)``.
        """
        blocks = list(blocks)
        if len(blocks) != self.m:
            raise DimensionError(f"expected {self.m} component vectors, got {len(blocks)}")
        parts = []
        for i, b in enumerate(blocks):
            b = np.asarray(b)
            if b.ndim != 2:
                b = b.reshape(-1)
            if b.shape[0] != self.spaces[i].dim:
                raise DimensionError(
                    f"component {i} has length {b.shape[0]}, expected {self.spaces[i].dim}"
                )
            parts.append(b)
        if len({b.shape[1:] for b in parts}) > 1:
            raise DimensionError("components must all be vectors or all have the same number of columns")
        return np.concatenate(parts)

    def split(self, vec: np.ndarray) -> list:
        """Inverse of :meth:`flatten`; a trailing trial axis is kept."""
        vec = np.asarray(vec)
        if vec.ndim != 2:
            vec = vec.reshape(-1)
        if vec.shape[0] != self.total_dim:
            raise DimensionError(f"vector has length {vec.shape[0]}, expected {self.total_dim}")
        return [vec[sl] for sl in self.block_slices]


def embedding_norm(space: DiscreteSpace) -> float:
    """Norm of the identity from the form domain into the ambient space.

    Computed as the square root of the largest generalized eigenvalue of
    ``h_gram x = lam v_gram x``.
    """
    try:
        lam = scipy.linalg.eigh(space.h_gram, space.v_gram, eigvals_only=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:  # pragma: no cover
        raise ValidationError(f"generalized eigenproblem failed on {space.label!r}: {exc}") from exc
    top = float(lam[-1])
    if top <= 0:
        raise ValidationError(f"space {space.label!r} has a degenerate embedding")
    return float(np.sqrt(top))


def form_apply(form: FormMatrix, f, g) -> complex:
    """Evaluate the full form on trial block-vector ``f`` and test ``g``.

    Linear in ``f`` and antilinear in ``g``; the test coordinates are
    conjugated on the left.
    """
    fv = form.flatten(f)
    gv = form.flatten(g)
    if fv.ndim != 1 or gv.ndim != 1:
        raise DimensionError("form_apply takes block vectors, not blocks of trial columns")
    return complex(np.vdot(gv, form.form_csr @ fv))


def _cholesky_lower(gram: np.ndarray, label: str) -> np.ndarray:
    try:
        return scipy.linalg.cholesky(gram, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValidationError(f"Cholesky factorization of {label} failed: {exc}") from exc


def estimate_continuity(form: FormMatrix, i: int, j: int) -> float:
    """Best continuity constant of block (i, j) in the domain norms.

    Whitens the block with the Cholesky factors of the two domain Grams
    and returns the largest singular value of the result, which equals
    ``sup |g^H S_ij f| / (|f|_Vj |g|_Vi)``.
    """
    li = _cholesky_lower(form.spaces[i].v_gram, f"v_gram of space {i}")
    lj = _cholesky_lower(form.spaces[j].v_gram, f"v_gram of space {j}")
    x = scipy.linalg.solve_triangular(li, form.block(i, j), lower=True)
    w = scipy.linalg.solve_triangular(lj, x.conj().T, lower=True).conj().T
    if w.size == 0:
        return 0.0
    return float(np.linalg.norm(w, 2))


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def estimate_ellipticity(form: FormMatrix, i: int, shift: float = 0.0) -> float:
    """Best coercivity constant of diagonal block i at ambient shift ``shift``.

    Returns the smallest eigenvalue of ``sym(S_ii) + shift*h_gram``
    relative to ``v_gram``, so the block satisfies
    ``Re a_ii(f,f) >= value*|f|_V^2 - shift*|f|_H^2`` sharply.
    """
    space = form.spaces[i]
    mat = _hermitian_part(form.block(i, i)) + shift * space.h_gram
    try:
        lam = scipy.linalg.eigh(mat, space.v_gram, eigvals_only=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError(f"generalized eigen solve failed on block ({i},{i}): {exc}") from exc
    return float(lam[0])


def full_ellipticity(form: FormMatrix, shift: float = 0.0) -> float:
    """Coercivity constant of the whole form over the product space.

    Same generalized eigenproblem as :func:`estimate_ellipticity`, using
    the assembled form matrix against the block-diagonal domain Gram.
    """
    mat = _hermitian_part(form.form_csr.toarray()) + shift * form.mass_csr.toarray()
    try:
        lam = scipy.linalg.eigh(mat, form.vgram_csr.toarray(), eigvals_only=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NumericalError(f"generalized eigen solve failed on the full form: {exc}") from exc
    return float(lam[0])


def accretivity_margin(form: FormMatrix) -> float:
    """Smallest eigenvalue of the Hermitian part of the assembled form.

    Nonnegative (within round-off) exactly when the discrete form is
    accretive.
    """
    return float(np.linalg.eigvalsh(_hermitian_part(form.form_csr.toarray()))[0])


def is_discretely_accretive(form: FormMatrix, rtol: float = 1e-10) -> bool:
    scale = max(float(np.linalg.norm(form.form_csr.toarray(), 2)), 1e-300)
    return accretivity_margin(form) >= -rtol * scale


def associated_operator(form: FormMatrix) -> np.ndarray:
    """Discrete generator ``-Mass^{-1} S`` of the evolution problem.

    Block (i, j) of the result equals ``-h_gram_i^{-1} S_ij``, the
    coordinate analogue of reading the operator off the form entrywise.
    """
    try:
        return -np.linalg.solve(form.mass_csr.toarray(), form.form_csr.toarray())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"ambient Gram is singular: {exc}") from exc


def numerical_range_samples(form: FormMatrix, count: int, seed: int = 0) -> tuple:
    """Sample the numerical range of the form at random coordinates.

    Draws ``count`` complex standard-normal coordinate vectors
    (reproducible from ``seed``) and returns three arrays of length
    ``count``: the form values and the squared domain and ambient norms
    of the vectors.
    """
    if count < 0:
        raise ValidationError("count must be >= 0")
    rng = np.random.default_rng(seed)
    n = form.total_dim
    fs = rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))
    s_f = form.form_csr @ fs
    h_f = form.mass_csr @ fs
    v_f = form.vgram_csr @ fs
    a_vals = np.einsum("ic,ic->c", fs.conj(), s_f)
    h_sq = np.einsum("ic,ic->c", fs.conj(), h_f).real
    v_sq = np.einsum("ic,ic->c", fs.conj(), v_f).real
    return a_vals, v_sq, h_sq


@dataclass(frozen=True)
class RangeCheckResult:
    """Outcome of a sampled numerical-range test."""

    passed: bool
    worst_margin: float
    n_samples: int


def sector_check(samples, alpha: float, omega: float, bound: float) -> RangeCheckResult:
    """Check sampled form values against the certified sector.

    ``samples`` is the (form values, squared domain norms, squared
    ambient norms) triple of :func:`numerical_range_samples`.  Every
    sample must satisfy ``Re a >= alpha*v^2 - omega*h^2`` and
    ``|Im a| <= bound*v^2`` up to a small relative slack.  The worst
    absolute margin over both inequalities is reported.
    """
    a, v, h = samples
    if len(a) == 0:
        return RangeCheckResult(True, float("inf"), 0)
    tol = RANGE_CHECK_RTOL * np.maximum.reduce([np.abs(a), v, h, np.ones_like(v)])
    margin_re = a.real - (alpha * v - omega * h)
    margin_im = bound * v - np.abs(a.imag)
    margins = np.minimum(margin_re, margin_im)
    passed = bool((margin_re >= -tol).all() and (margin_im >= -tol).all())
    return RangeCheckResult(passed, float(margins.min()), len(a))


def parabola_check(samples, m_tilde: float) -> RangeCheckResult:
    """Check the mixed-norm bound ``|Im a| <= m_tilde * |f|_V |f|_H``."""
    if m_tilde < 0:
        raise ValidationError("m_tilde must be >= 0")
    a, v, h = samples
    if len(a) == 0:
        return RangeCheckResult(True, float("inf"), 0)
    tol = RANGE_CHECK_RTOL * np.maximum.reduce([np.abs(a), v, h, np.ones_like(v)])
    margins = m_tilde * np.sqrt(v * h) - np.abs(a.imag)
    return RangeCheckResult(bool((margins >= -tol).all()), float(margins.min()), len(a))
