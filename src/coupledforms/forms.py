"""Discrete Galerkin representation of coupled sesquilinear forms.

Everything lives in coordinates: a space is a pair of Gram matrices, a
form is an m-by-m grid of blocks, and ``g^H S_ij f`` evaluates the
(i, j) block on trial coordinates ``f`` (space j) and test coordinates
``g`` (space i).  Keeping the geometry inside the Grams makes the module
independent of how the underlying meshes look.  Grams and blocks are
stored as CSR only.

Every spectral constant (coercivity, continuity, the embedding norm and
the positive definiteness of a Gram) is an extremal eigenvalue of a
Hermitian sparse pencil ``(a, b)`` with ``b`` positive definite.  It is
found by bisection on one primitive: is ``a - mu*b`` positive definite?
Accretivity is that primitive once, at a shift scaled by the largest
column 2-norm of the form matrix.  One banded Cholesky factorization
(LAPACK ``?pbtrf``, on the lower band) answers it, in the reverse
Cuthill--McKee order of the pencil's pattern, which makes every pencil
built here narrow-banded (Parlett, *The Symmetric Eigenvalue Problem*,
ch. 3; George & Liu, *Computer Solution of Large Sparse Positive
Definite Systems*, 1981).  Brackets are kept on the form, one per
distinct pencil up to the symmetries that leave the constant unchanged:
a block and its negation share a continuity bracket.
No N-sized matrix goes through dense LAPACK.  :func:`full_ellipticity`
and the ``sector`` and ``parabola`` checks of
:mod:`coupledforms.qualitative` read the numerical range of a form
through its support function (:func:`_support`).

Every linear solve (the time-step systems and the ambient-Gram solves)
goes through :class:`_Factor`, the one place that chooses between
banded Cholesky and banded LU (Anderson et al., *LAPACK Users' Guide*,
1999, band drivers), in the upper band layout.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from .errors import DimensionError, NumericalError, ValidationError

HERMITIAN_RTOL = 1e-12
# Width of the final bisection bracket of an extremal eigenvalue,
# relative to the larger magnitude of the first bracket (which bounds
# the eigenvalue).
SPECTRAL_RTOL = 1e-12
# Slack of the accretivity test, relative to the largest column 2-norm of the form matrix.
ACCRETIVITY_RTOL = 1e-10
# A Gram is accepted when ``g - GRAM_RTOL*diag(g)`` is positive definite,
# that is, when the diagonally scaled Gram has its smallest eigenvalue
# above GRAM_RTOL.  Elimination round-off leaves the singular Neumann
# stiffness on 2 to 1000 cells a margin below 2e-16, while the P1 H1
# Gram on n cells of an interval of length L has a margin of about
# L**2/(2 n**2), 3e-11 at n = 131072 and L = 1.
GRAM_RTOL = 1e-12


def _as_csr(a, name: str) -> scipy.sparse.csr_array:
    """A canonical float or complex CSR copy of the dense or sparse ``a`` with no stored zeros: ``csr_array(dense)``."""
    if not scipy.sparse.issparse(a):
        a = np.asarray(a)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be a matrix, got ndim={a.ndim}")
    a = scipy.sparse.csr_array(a, dtype=complex if np.iscomplexobj(a) else float, copy=True)
    if not np.isfinite(a.data).all():
        raise ValidationError(f"{name} contains non-finite entries")
    a.sum_duplicates()
    a.eliminate_zeros()
    return a


def _dense_view(a: scipy.sparse.csr_array) -> np.ndarray:
    """Read-only dense copy of ``a``, for the dense attributes kept for readers outside the package."""
    a = a.toarray()
    a.setflags(write=False)
    return a


def _frobenius(a: np.ndarray) -> float:
    # elementwise, not np.linalg.norm: a BLAS dot over an n-by-n Gram wakes
    # the BLAS threads, which then spin beside the single-threaded stepping
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def _check_gram(g: scipy.sparse.csr_array, name: str) -> None:
    # the norms, g - g^H and the Hermitian part come from the CSR data, with no N-by-N temporaries
    g_h = g.conj().T
    scale = max(_frobenius(g.data), 1e-300)
    if _frobenius((g - g_h).data) > HERMITIAN_RTOL * scale:
        raise ValidationError(f"{name} is not Hermitian within tolerance")
    if not _Pencil((g + g_h) * 0.5, _diagonal(g.diagonal().real)).definite(GRAM_RTOL):
        raise ValidationError(f"{name} is not positive definite (within GRAM_RTOL of its diagonal)")


def _close(a, b, tol: float) -> bool:
    """``np.allclose(a, b, rtol=tol, atol=tol)`` for sparse ``a`` and ``b``, read on their union pattern."""
    excess = abs(a - b) - tol * abs(b)
    return excess.nnz == 0 or float(excess.data.max()) <= tol


@dataclass(frozen=True, eq=False)
class DiscreteSpace:
    """Galerkin space given by its ambient and domain Gram matrices.

    ``h_csr`` is the ambient (state-space) inner product, ``v_csr`` the
    form-domain inner product; both must be Hermitian positive definite
    of size ``dim``.  Each may be given dense or sparse, and is
    validated and stored once as CSR; ``h_gram`` and ``v_gram`` are
    dense views of them, built on first read.  ``==`` and ``hash`` go
    by identity; :meth:`same_geometry` compares values.
    """

    dim: int
    h_csr: scipy.sparse.csr_array
    v_csr: scipy.sparse.csr_array

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("space dimension must be positive")
        for name, label in (("h_csr", "h_gram"), ("v_csr", "v_gram")):
            g = _as_csr(getattr(self, name), label)
            if g.shape != (self.dim, self.dim):
                raise DimensionError(f"{label} must be {self.dim}x{self.dim}, got {g.shape}")
            _check_gram(g, label)
            object.__setattr__(self, name, g)

    h_gram = cached_property(lambda self: _dense_view(self.h_csr))
    v_gram = cached_property(lambda self: _dense_view(self.v_csr))
    _h_factor = cached_property(lambda self: _Factor(self.h_csr))
    _h_digest = cached_property(lambda self: _digest(self.h_csr))
    _v_digest = cached_property(lambda self: _digest(self.v_csr))

    def same_geometry(self, other: "DiscreteSpace") -> bool:
        """Equal dimension and Grams equal within 1e-12, read as both relative and absolute tolerance."""
        return self is other or (
            self.dim == other.dim
            and _close(self.h_csr, other.h_csr, 1e-12)
            and _close(self.v_csr, other.v_csr, 1e-12)
        )


@dataclass(frozen=True)
class FormBlock:
    """One block of the dense view :attr:`FormMatrix.blocks`: ``a_ij(f, g) = g^H matrix f``."""

    row: int
    col: int
    matrix: np.ndarray


@dataclass(eq=False)
class FormMatrix:
    """m-by-m grid of form blocks over a list of discrete spaces.

    Each block of ``csr_blocks``, dense or sparse, is validated and
    stored once as CSR; ``blocks`` is a dense view of them, built on
    first read.  Per-block readers take ``csr_blocks`` and the spaces'
    Grams, readers of the whole form the assembled CSR operators on the
    product space: ``form_csr`` (the blocks in place) and
    ``mass_csr``/``vgram_csr`` (block diagonals of the ambient and domain
    Grams).  The spectral routines below factor Hermitian pencils of them
    by banded Cholesky in reverse Cuthill--McKee order.  No reader in
    the package densifies the operators.

    ``metadata`` holds what a check reads beyond the blocks: a coefficient
    field under ``"coefficients"`` or a ``"parabola_constant"``.  Immutable
    after assembly by convention; derived matrices and spectral brackets
    are cached, so instances are cheap to share.
    """

    spaces: list
    csr_blocks: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        m = len(self.spaces)
        if m < 1:
            raise ValidationError("need at least one space")
        if len(self.csr_blocks) != m or any(len(row) != m for row in self.csr_blocks):
            raise DimensionError(f"blocks must form an {m}x{m} grid")
        self.csr_blocks = [[self._stored(i, j, blk) for j, blk in enumerate(row)] for i, row in enumerate(self.csr_blocks)]

    _block_digests = cached_property(lambda self: [[_signed_digest(b) for b in row] for row in self.csr_blocks])

    def _stored(self, i: int, j: int, blk) -> scipy.sparse.csr_array:
        blk, expected = _as_csr(blk, f"block ({i},{j})"), (self.spaces[i].dim, self.spaces[j].dim)
        if blk.shape != expected:
            raise DimensionError(f"block ({i},{j}) has shape {blk.shape}, expected {expected}")
        return blk

    @cached_property
    def blocks(self) -> list:
        """Dense view of ``csr_blocks``, rows of :class:`FormBlock`; no reader in the package."""
        return [[FormBlock(i, j, _dense_view(b)) for j, b in enumerate(row)] for i, row in enumerate(self.csr_blocks)]

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

    @cached_property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.form_csr)

    @cached_property
    def form_csr(self) -> scipy.sparse.csr_array:
        """The assembled form matrix, blocks in place."""
        return scipy.sparse.bmat(self.csr_blocks, format="csr")

    @cached_property
    def mass_csr(self) -> scipy.sparse.csr_array:
        """Block diagonal of the ambient Grams."""
        return scipy.sparse.block_diag([s.h_csr for s in self.spaces], format="csr")

    @cached_property
    def vgram_csr(self) -> scipy.sparse.csr_array:
        """Block diagonal of the form-domain Grams."""
        return scipy.sparse.block_diag([s.v_csr for s in self.spaces], format="csr")

    def adjoint(self) -> "FormMatrix":
        """The adjoint form, blocks ``S*_ij = S_ji^H``; a coefficient field ``c_ij`` becomes ``c_ji``.

        ``Im a*(f, f) = -Im a(f, f)`` and the real parts agree, so a
        ``parabola_constant`` of the form holds for its adjoint.
        """
        blocks = [[self.csr_blocks[j][i].conj().T for j in range(self.m)] for i in range(self.m)]
        meta = dict(self.metadata)
        if "coefficients" in meta:
            field = meta["coefficients"]
            meta["coefficients"] = type(field)(field.values.transpose(1, 0, 2))
        return FormMatrix(self.spaces, blocks, meta)

    def diagonal_part(self) -> "FormMatrix":
        """Same diagonal blocks, all couplings zeroed, in a coefficient field too.

        The diagonal part is the mean of ``D S D`` over the sign matrices
        ``D = diag(+-I)``.  Each ``D`` keeps both block-diagonal norms, so
        ``|Im a(Df, Df)| <= m_tilde |f|_V |f|_H`` for all ``D`` bounds the
        mean: a ``parabola_constant`` of the form holds for its diagonal part.
        """
        blocks = [
            [blk if i == j else scipy.sparse.csr_array(blk.shape, dtype=blk.dtype) for j, blk in enumerate(row)]
            for i, row in enumerate(self.csr_blocks)
        ]
        meta = dict(self.metadata)
        if "coefficients" in meta:
            field = meta["coefficients"]
            meta["coefficients"] = type(field)(np.where(np.eye(self.m, dtype=bool)[:, :, None], field.values, 0.0))
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

    The square root of the largest eigenvalue of the pencil
    ``(h_gram, v_gram)``, positive: the bracket's lower end starts at the
    all-ones Rayleigh quotient, positive for definite Grams, and only rises.
    """
    return float(np.sqrt(_midpoint(_lambda_max(space.h_csr, space.v_csr))))


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


def _diagonal(values: np.ndarray) -> scipy.sparse.coo_array:
    index = np.arange(values.size)
    return scipy.sparse.coo_array((values, (index, index)), shape=(values.size, values.size))


def _hermitian_part(a):
    return (a + a.conj().T) * 0.5


def _entries(m) -> tuple:
    """``(row, col, data)`` of a matrix, duplicates kept (:func:`_band` sums them)."""
    if getattr(m, "format", None) == "csr":
        return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices, m.data
    m = scipy.sparse.coo_array(m)
    return m.row, m.col, m.data


def _rcm_entries(*mats) -> tuple:
    """Order the union pattern of the square sparse matrices ``mats`` by reverse Cuthill--McKee.

    Returns ``(order, entries)``: ``order[k]`` is the index placed k-th
    and ``entries`` holds each matrix's ``(row, col, data)`` with its
    indices in that order.  The union pattern is read as symmetric, so
    a matrix whose pattern is not comes with its transpose.  Any order
    is correct; RCM only keeps the band narrow (George & Liu 1981).
    """
    n = mats[0].shape[0]
    coo = [_entries(m) for m in mats]
    rows = np.concatenate([r for r, _, _ in coo])
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    # rows come in sorted runs, one per CSR matrix, which a stable sort merges
    neighbours = np.concatenate([c for _, c, _ in coo])[np.argsort(rows, kind="stable")]
    graph = scipy.sparse.csr_array((np.ones(neighbours.size), neighbours, indptr), shape=(n, n))
    order = scipy.sparse.csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    return order, [(np.take(position, r), np.take(position, c), d) for r, c, d in coo]


def _band(row: np.ndarray, col: np.ndarray, data: np.ndarray, offset: int, ldab: int, n: int, dtype) -> np.ndarray:
    """LAPACK band storage ``(ldab, n)``: entry (i, j) goes to ``[offset + i - j, j]``.

    Every entry must fall inside the ``ldab`` rows; duplicates are
    summed.  ``offset = kl + ku, ldab = 2*kl + ku + 1`` is the ``?gbtrf``
    layout.
    """
    flat = offset + row - col + ldab * col
    band = np.bincount(flat, weights=data.real, minlength=ldab * n).astype(dtype, copy=False)
    if np.iscomplexobj(data):
        band += 1j * np.bincount(flat, weights=data.imag, minlength=ldab * n)
    # flat index r + ldab*c of a Fortran-ordered (ldab, n) array
    return band.reshape(n, ldab).T


class _Pencil:
    """A Hermitian sparse pencil ``(a, b)`` with ``b`` positive definite, for :meth:`definite`.

    The union pattern of ``a``, ``b`` and any further Hermitian matrices
    ``rest`` is ordered once by reverse Cuthill--McKee, and the lower
    triangles of all of them, in that order, are scattered into LAPACK
    lower band arrays of shape ``(kd+1, N)``: entry (i, j), ``i >= j``,
    at ``[i - j, j]``, ``kd`` the half-bandwidth of the ordered pattern.
    ``?pbtf2`` updates each column of the lower layout by a unit-stride
    ``?syr``/``?her``, where the upper layout strides by ``kd``.
    """

    def __init__(self, a, b, *rest):
        mats = (a, b, *rest)
        _, entries = _rcm_entries(*mats)
        kd = max(int(np.abs(row - col).max(initial=0)) for row, col, _ in entries)
        dtype = np.result_type(*(m.dtype for m in mats), float)
        lower = ((row >= col, row, col, data) for row, col, data in entries)
        self.a, self.b, *self.rest = (_band(r[k], c[k], d[k], 0, kd + 1, a.shape[0], dtype) for k, r, c, d in lower)
        self._work = np.empty_like(self.a)
        self._pbtrf = scipy.linalg.get_lapack_funcs("pbtrf", (self.a,))

    def definite(self, mu: float, *weights: float) -> bool:
        """``a - mu*b + sum_k weights[k]*rest[k]`` is positive definite.

        Without ``weights``: every eigenvalue of the pencil exceeds
        ``mu``.  One banded Cholesky factorization, in place on a
        workspace kept on the pencil; it breaks down (``info > 0``) at
        the first pivot that is not positive.
        """
        ab = self._work
        # the same bits as a - mu*b
        np.multiply(self.b, -mu, out=ab)
        ab += self.a
        for w, band in zip(weights, self.rest):
            ab += w * band
        _, info = self._pbtrf(ab, lower=1, overwrite_ab=True)
        return info == 0


class _Factor:
    """Banded factors of a square sparse matrix ``a``, for :meth:`solve` in reverse Cuthill--McKee ``order``.

    ``a`` is scattered once into the LAPACK general band storage
    ``(2*kl + ku + 1, N)`` of ``?gbtrf``, in the RCM order of the union
    pattern of ``a`` and ``a.T``, whatever the kernel.  An exactly
    Hermitian ``a`` whose upper ``kd+1`` rows factor by ``?pttrf``
    (tridiagonal, ``kd = 1``) or ``?pbtrf`` is held as that Cholesky
    factor (``kernel == "cholesky"``); any other, a Hermitian one that
    is not positive definite included, is factored by ``?gbtrf``, LU
    with partial pivoting, in the same order (``"lu"``).  Row
    interchanges widen the upper band by ``kl``, which the storage
    leaves room for.  ``pivots`` are the pivots of elimination: ``D`` of
    ``L D L^H``, ``|R_ii|**2`` of ``R^H R`` or ``|U_ii|``.  Raises
    :class:`NumericalError` when an LU pivot is exactly zero.
    """

    def __init__(self, a):
        hermitian = (a - a.conj().T).count_nonzero() == 0
        self.order, (entries, _) = _rcm_entries(a, a.T)
        row, col, data = entries
        kl, ku = int((row - col).max(initial=0)), int((col - row).max(initial=0))
        band = _band(row, col, data, kl + ku, 2 * kl + ku + 1, a.shape[0], np.result_type(a.dtype, float))
        self._complex = np.iscomplexobj(band)
        if hermitian and self._cholesky(band[kl : kl + ku + 1]):
            self.kernel = "cholesky"
            return
        gbtrf, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (band,))
        lu, self.ipiv, info = gbtrf(band, kl, ku, overwrite_ab=True)
        if info > 0:
            raise NumericalError(f"pivot {info} of the banded LU is exactly zero")
        self.kernel, self.pivots = "lu", np.abs(lu[kl + ku])
        self._solve = lambda rhs: gbtrs(lu, kl, ku, rhs, self.ipiv)[0]

    def _cholesky(self, upper: np.ndarray) -> bool:
        """Factor the ``?pbtrf`` upper band ``upper``; False when it is not positive definite."""
        # upper, unlike _Pencil: a factor is solved with many times, and ?pbtrs is faster on the upper band
        if len(upper) == 2:
            pttrf, pttrs = scipy.linalg.get_lapack_funcs(("pttrf", "pttrs"), (upper,))
            d, e, info = pttrf(upper[1].real, upper[0, 1:])
            self.pivots, self._solve = d, lambda rhs: pttrs(d, e, rhs)[0]
        else:
            pbtrf, pbtrs = scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"), (upper,))
            c, info = pbtrf(upper)
            self.pivots, self._solve = np.abs(c[-1]) ** 2, lambda rhs: pbtrs(c, rhs)[0]
        return info == 0

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``a^{-1} b`` in ``order``, for a vector or an ``(N, k)`` block, ``b`` kept, by one LAPACK call.

        Complex ``b`` on a real factor goes in as 2k real columns.
        """
        rhs = b.reshape(b.shape[0], -1)
        split = np.iscomplexobj(rhs) and not self._complex
        if split:
            rhs = np.concatenate([rhs.real, rhs.imag], axis=1)
        x = self._solve(rhs)
        if split:
            k = x.shape[1] // 2
            x = x[:, :k] + 1j * x[:, k:]
        return x.reshape(b.shape)


def _eigenvalue_floor(pencil: _Pencil) -> float:
    """``-2*rho/GRAM_RTOL``, below the smallest eigenvalue of ``(a, b)`` when ``b`` passed :func:`_check_gram`.

    A ``b`` that passed, or a block diagonal of such, has ``x^H b x >= GRAM_RTOL * x^H D x`` with ``D = diag(b) > 0``.
    Gershgorin on ``D^-1/2 a D^-1/2``, ``rho`` its largest absolute row sum (from the lower bands, O(N*kd)), gives
    ``x^H a x >= -rho * x^H D x``, so ``lambda_min >= -rho/GRAM_RTOL``; the factor 2 covers the round-off of the
    factorization that accepted ``b``.  A ``b`` with a diagonal entry that is not positive is no Gram: ``+inf``.
    """
    d = pencil.b[0].real
    if not (d > 0).all():
        return np.inf
    n, scale, rows = d.size, 1.0 / np.sqrt(d), np.abs(pencil.a[0]) / d
    for k in range(1, len(pencil.a)):
        # entry (j + k, j) sits at [k, j]: it adds to row j + k and, mirrored, to row j
        part = np.abs(pencil.a[k, : n - k]) * scale[k:] * scale[: n - k]
        rows[k:] += part
        rows[: n - k] += part
    return -2.0 * float(rows.max()) / GRAM_RTOL


def _lambda_min(a, b) -> tuple:
    """Bracket ``(lo, hi)`` of the smallest eigenvalue of the pencil ``(a, b)``.

    ``hi`` starts at the Rayleigh quotient of the all-ones vector, an upper bound; ``lo`` steps down from
    it, doubling the step, until ``a - lo*b`` is positive definite, and a shift that fails at or below
    :func:`_eigenvalue_floor` (computed at the first failure) raises :class:`NumericalError`.  Bisection
    then halves the bracket until it is at most ``SPECTRAL_RTOL`` times the larger magnitude of the first
    bracket.  Each end stays certified: ``lo`` by a Cholesky factor that succeeded, ``hi`` by the Rayleigh
    quotient or by a shift whose Cholesky factorization broke down (see :meth:`_Pencil.definite`).  A
    sparse ``a`` with no nonzero entry gives ``(0, 0)`` and builds no pencil.
    """
    if not np.any(a.data):
        return 0.0, 0.0
    pencil = _Pencil(a, b)
    ones = np.ones(a.shape[0])
    hi = float(np.vdot(ones, a @ ones).real / np.vdot(ones, b @ ones).real)
    step = max(abs(hi), float(np.abs(pencil.a).max() / np.abs(pencil.b).max()))
    lo, floor = hi - step, None
    while not pencil.definite(lo):
        floor = _eigenvalue_floor(pencil) if floor is None else floor
        if lo <= floor:
            raise NumericalError("no lower bound for the smallest eigenvalue: is the pencil Hermitian-definite?")
        hi, step = lo, 2.0 * step
        lo = hi - step
    tol = SPECTRAL_RTOL * max(abs(lo), abs(hi))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pencil.definite(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _lambda_max(a, b) -> tuple:
    """Bracket ``(lo, hi)`` of the largest eigenvalue of the pencil ``(a, b)``."""
    lo, hi = _lambda_min(-a, b)
    return -hi, -lo


def _digest(m: scipy.sparse.csr_array) -> bytes:
    """blake2b digest of a stored CSR matrix: shape, dtypes, ``indptr``, ``indices`` and ``data``."""
    head = repr((m.shape, m.dtype.str, m.indices.dtype.str)).encode()
    return hashlib.blake2b(b"".join([head, m.indptr, m.indices, m.data]), digest_size=32).digest()


def _signed_digest(m: scipy.sparse.csr_array) -> tuple:
    """``(sign, digest)``: the :func:`_digest` of ``sign*m``, ``sign`` making its first stored entry positive.

    ``m`` and ``-m`` share the digest and differ in ``sign``.  A complex
    entry is positive when its real part is, or its real part is zero
    and its imaginary part is positive.
    """
    first = m.data[0] if m.nnz else 1.0
    sign = -1.0 if (first.real, first.imag) < (0.0, 0.0) else 1.0
    return sign, _digest(-m if sign < 0 else m)


def _bracket(form: FormMatrix, largest: bool, key: tuple, pencil) -> tuple:
    """:func:`_lambda_max` (``largest``) or :func:`_lambda_min` of ``pencil()``, bisected once per ``key`` on the form.

    Forms do not change, so ``key`` names a pencil by its routine, scalars and the :func:`_digest` of what it reads.
    """
    brackets = vars(form).setdefault("_brackets", {})
    if (largest, *key) not in brackets:
        brackets[largest, *key] = (_lambda_max if largest else _lambda_min)(*pencil())
    return brackets[largest, *key]


def _midpoint(bracket: tuple) -> float:
    return 0.5 * (bracket[0] + bracket[1])


def estimate_continuity(form: FormMatrix, i: int, j: int) -> float:
    """Best continuity constant of block (i, j) in the domain norms.

    The largest eigenvalue of the augmented block ``[[0, S_ij], [S_ij^H,
    0]]`` against ``diag(v_gram_i, v_gram_j)`` (``scipy.sparse.bmat`` and
    ``block_diag`` build them), which equals
    ``sup |g^H S_ij f| / (|f|_Vj |g|_Vi)``.  The pencils of ``S_ij`` and
    ``-S_ij`` are congruent by ``diag(I, -I)`` and have one constant, so
    the bracket is kept per block up to sign: the first of the two asked
    bisects, the other reads its bracket.
    """
    block = form.csr_blocks[i][j]
    if not np.any(block.data):
        return 0.0
    si, sj = form.spaces[i], form.spaces[j]
    key = ("continuity", form._block_digests[i][j][1], si._v_digest, sj._v_digest)

    def pencil():
        return scipy.sparse.bmat([[None, block], [block.conj().T, None]]), scipy.sparse.block_diag([si.v_csr, sj.v_csr])

    return _midpoint(_bracket(form, True, key, pencil))


def estimate_ellipticity(form: FormMatrix, i: int, shift: float = 0.0) -> float:
    """Best coercivity constant of diagonal block i at ambient shift ``shift``.

    Returns the smallest eigenvalue of ``sym(S_ii) + shift*h_gram``
    relative to ``v_gram``, so the block satisfies
    ``Re a_ii(f,f) >= value*|f|_V^2 - shift*|f|_H^2`` sharply.
    """
    s, block = form.spaces[i], form.csr_blocks[i][i]
    key = ("ellipticity", *form._block_digests[i][i], s._h_digest, s._v_digest, shift)
    return _midpoint(_bracket(form, False, key, lambda: (_hermitian_part(block) + shift * s.h_csr, s.v_csr)))


def _hermitian_along(form: FormMatrix, direction) -> scipy.sparse.csr_array:
    """``herm(conj(d)*S)``, the matrix of ``Re(conj(d) a(f, f))``; a quarter turn ``d`` only negates or swaps parts."""
    s = form.form_csr
    return _hermitian_part(-s if direction == -1 else s * np.conj(direction))


def _support(form: FormMatrix, direction, gram: str = "vgram_csr", shift: float = 0.0) -> tuple:
    """Bracket of ``lambda_max(herm(conj(d)*S) - shift*M, G)`` for a quarter turn ``d`` in {-1, 1j, -1j}.

    That is ``sup (Re(conj(d) a(f,f)) - shift*|f|_H^2) / |f|_G^2``, the support
    function of the numerical range (Gustafson & Rao, *Numerical Range*,
    1997), with ``G`` the form's ``gram`` and ``M`` its ``mass_csr``.  It is
    kept on the form per direction; a real form's ``herm(1j*S)`` is the
    conjugate of ``herm(-1j*S)``, with its spectrum, so ``-1j`` reads ``1j``.
    """
    if form.is_real and direction == -1j:
        direction = 1j
    key, h = ("support", direction, gram, shift), form.mass_csr
    return _bracket(form, True, key, lambda: (_hermitian_along(form, direction) - shift * h, getattr(form, gram)))


def full_ellipticity(form: FormMatrix, shift: float = 0.0) -> float:
    """Coercivity constant of the whole form over the product space.

    Same pencil as :func:`estimate_ellipticity`, using the assembled form
    matrix against the block-diagonal domain Gram: the support in direction -1, negated.
    """
    return -_midpoint(_support(form, -1, shift=shift))


def is_discretely_accretive(form: FormMatrix) -> bool:
    """The Hermitian part of the assembled form exceeds ``-ACCRETIVITY_RTOL*scale``.

    ``scale`` is the largest column 2-norm of the form matrix ``S``.
    Since ``|S e_j|_2 <= |S|_2``, it is a certified lower bound of
    ``|S|_2``, so the test is never looser than one against the exact
    norm.  One banded Cholesky factorization decides it, and the verdict
    is kept on the form.
    """
    if "_accretive" not in vars(form):
        s = form.form_csr
        scale = np.sqrt(np.bincount(s.indices, np.abs(s.data) ** 2, s.shape[1]).max())
        tau = ACCRETIVITY_RTOL * max(scale, 1e-300)
        form._accretive = _Pencil(_hermitian_part(s), _diagonal(np.ones(form.total_dim))).definite(-tau)
    return form._accretive

