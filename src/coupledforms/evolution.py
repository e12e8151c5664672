"""Implicit time integration of the assembled evolution problems.

The continuous problem is ``u' = A u`` with ``A = -Mass^{-1} S``; the
two schemes below solve

    implicit Euler:   (Mass + dt*S) u+ = Mass u
    Crank-Nicolson:   (Mass + dt/2*S) u+ = (Mass - dt/2*S) u

with one factorization per (form, config), kept on the form and reused
across all steps and all runs.  Both schemes are unconditionally stable
for accretive forms, which is what makes the downstream invariance tests
meaningful.

The P1 blocks are tridiagonal or a few trace entries, so the systems are
formed from the form's assembled CSR operators (``FormMatrix.form_csr``
and ``mass_csr``).  In reverse Cuthill--McKee order their half-bandwidth
is a few entries.  :class:`coupledforms.forms._Factor` factors a
Hermitian positive definite system (an accretive model's, the damped
wave's excepted) by banded Cholesky (LAPACK ``?pbtrf``, or ``?pttrf``
when tridiagonal), any other by banded LU with partial pivoting
(``?gbtrf``); a step, for every trial column at once, is one solve:
time linear in the unknown count.

One generator, ``_states``, owns the stepping loop.  Only the solve runs
once per step, in the factor's RCM order: the generator fills a block of
up to ``BLOCK_BYTES`` of states, checks the solve residual of every step
in it with one product, and yields the block's recorded states, put back
in the form's order by one gather.  Recorded norms take one ``mass_csr``
product per block, the strip observables one more, in the basis that a
:class:`ProjectionSpec` splits from its matrix once it has checked it.  A
run keeps its observables and its last state, and ``domination`` walks
two generators block by block instead of storing states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import DimensionError, NumericalError, SolverError, ValidationError
from .forms import FormMatrix, _Factor

SCHEMES = ("implicit-euler", "crank-nicolson")
#: Bytes of states in one block of steps, which is checked and recorded at once.
BLOCK_BYTES = 256 * 2**10
PROJECTION_TOL = 1e-12


@dataclass(frozen=True)
class EvolutionConfig:
    """Time-stepping parameters."""

    dt: float
    t_end: float
    scheme: str = "implicit-euler"
    record_every: int = 1
    solver_tolerance: float = 1e-9

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not 0 < self.dt < np.inf:
            raise ValidationError("dt must be positive and finite")
        if not 0 < self.t_end < np.inf:
            raise ValidationError("t_end must be positive and finite")
        if self.dt > self.t_end:
            raise ValidationError("dt must not exceed t_end")
        if self.record_every < 1:
            raise ValidationError("record_every must be >= 1")
        if not 0 < self.solver_tolerance <= 1e-6:
            raise ValidationError("solver_tolerance must lie in (0, 1e-6]")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))


@dataclass
class TrajectoryRecord:
    """Observables at ``times`` and the last state of one evolution run.

    ``final_state`` holds the coordinates of each component, one array
    per component.  Observables always include the ambient norm, the
    per-component norms and the nodal extremes; the strip observables
    appear when a projection was supplied.  A run started from ``(dim,
    k)`` components holds k trials: each observable has one column per
    trial and the final state keeps the trial axis.
    """

    times: np.ndarray
    observables: dict
    final_state: list

    def observable(self, name: str) -> np.ndarray:
        return self.observables[name]

    def trial(self, c: int) -> "TrajectoryRecord":
        """The run of trial column ``c`` of a batched record."""
        observables = {name: vals[:, c].copy() for name, vals in self.observables.items()}
        final_state = [b[:, c].copy() for b in self.final_state]
        return TrajectoryRecord(self.times, observables, final_state)


@dataclass(frozen=True)
class ProjectionSpec:
    """Orthogonal projection on the component index space, checked and split on construction.

    ``matrix`` is copied and frozen: a non-empty, finite square matrix, Hermitian and idempotent within
    ``PROJECTION_TOL`` (relative; the error reports both residuals).  ``eig1`` holds an orthonormal basis
    of its fixed space (eigenvalue 1) as columns, ``eig0`` one of its kernel (eigenvalue 0).
    """

    matrix: np.ndarray
    eig1: np.ndarray = field(init=False)
    eig0: np.ndarray = field(init=False)

    def __post_init__(self):
        k = np.asarray(self.matrix, dtype=complex)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise DimensionError(f"projection matrix must be square, got {k.shape}")
        if k.size == 0 or not np.isfinite(k).all():
            raise ValidationError("projection matrix must be non-empty and finite")
        scale = max(1.0, float(np.linalg.norm(k)))
        herm_res, idem_res = (float(np.linalg.norm(r)) for r in (k - k.conj().T, k @ k - k))
        if herm_res > PROJECTION_TOL * scale or idem_res > PROJECTION_TOL * max(scale, scale**2):
            residuals = f"hermitian residual {herm_res:.3e}, idempotency residual {idem_res:.3e}"
            raise ValidationError(f"not an orthogonal projection: {residuals}")
        k = k.real.copy() if np.abs(k.imag).max() == 0.0 else np.array(k)
        k.setflags(write=False)
        vals, vecs = np.linalg.eigh((k + k.conj().T) / 2.0)
        for name, value in (("matrix", k), ("eig1", vecs[:, vals > 0.5]), ("eig0", vecs[:, vals <= 0.5])):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self.eig1.shape[1]


class Stepper:
    """One factorized time-step operator for a fixed form and config, in RCM coordinates.

    The implicit system ``lhs u+ = rhs u`` is formed from the form's
    CSR operators ``form_csr`` and ``mass_csr``.  ``lhs`` is factored by
    :class:`coupledforms.forms._Factor`: banded Cholesky (``kernel ==
    "cholesky"``) when it is exactly Hermitian and positive definite,
    else banded LU with partial pivoting (``"lu"``).  ``order`` is the
    factor's reverse Cuthill--McKee order of ``lhs`` and its transpose:
    ``lhs`` and ``rhs`` are permuted to it once, and :meth:`step` and
    :meth:`check` take states ``u[order]``.  Construction raises :class:`SolverError` when
    the factorization fails or its smallest pivot is below ``1e-14 *
    |lhs|_inf``; :meth:`check` raises it when a column's solve residual
    ``|lhs u+ - rhs u|`` exceeds ``solver_tolerance * max(1, |rhs u|)``.
    """

    def __init__(self, form: FormMatrix, cfg: EvolutionConfig):
        # no reference back to the form, which keeps its steppers
        self.cfg = cfg
        mass, s = form.mass_csr, form.form_csr
        theta = 1.0 if cfg.scheme == "implicit-euler" else 0.5
        lhs = mass + (theta * cfg.dt) * s
        rhs = mass if theta == 1.0 else mass - (theta * cfg.dt) * s
        try:
            self._factor = _Factor(lhs)
        except NumericalError as exc:
            raise SolverError(
                f"{cfg.scheme} system factorization failed at dt={cfg.dt}: {exc}"
            ) from exc
        self.kernel, self.order = self._factor.kernel, self._factor.order
        diag = self._factor.pivots
        scale = max(float(abs(lhs).sum(axis=1).max()), 1e-300)
        if diag.min() <= 1e-14 * scale:
            raise SolverError(
                f"{cfg.scheme} system is numerically singular at dt={cfg.dt} "
                f"(pivot ratio {diag.min() / scale:.3e})"
            )
        self.position = np.argsort(self.order)
        self._lhs, self._rhs = (a[self.order][:, self.order] for a in (lhs, rhs))

    def step(self, u: np.ndarray) -> tuple:
        """Advance a state vector, or each column of a ``(N, k)`` block, unchecked; all in ``order``.

        Returns ``(u+, rhs u)``; :meth:`check` judges the solve.
        """
        rhs = self._rhs @ u
        return self._factor.solve(rhs), rhs

    def check(self, states: np.ndarray, rhs: np.ndarray, steps: np.ndarray) -> None:
        """Check the solves of an ``(N, b, k)`` block in ``order``: the states after ``steps`` and their ``rhs u``.

        One product covers the block; the error names the first step
        with a column over its bound.
        """
        n = states.shape[0]
        rhs = rhs.reshape(n, -1)
        residual = self._lhs @ states.reshape(n, -1)
        residual = _column_norms(np.subtract(residual, rhs, out=residual)).reshape(len(steps), -1)
        bound = self.cfg.solver_tolerance * np.maximum(1.0, _column_norms(rhs)).reshape(len(steps), -1)
        failed = ~(residual <= bound).all(axis=1)
        if failed.any():
            j = int(np.argmax(failed))
            raise SolverError(
                f"{self.cfg.scheme} solve lost accuracy at step {steps[j]} "
                f"(dt={self.cfg.dt}, residual {np.max(residual[j]):.3e})"
            )


def _column_norms(a: np.ndarray) -> np.ndarray:
    """2-norms of the columns of ``a`` by ``einsum``, which makes no temporary the size of ``a``."""
    # a block-sized temporary freed per block lets the C heap trim its top and fault the pages in again
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    return np.sqrt(sum(np.einsum("ij,ij->j", p, p) for p in parts))


def _stepper(form: FormMatrix, cfg: EvolutionConfig) -> Stepper:
    """The form's :class:`Stepper` for ``cfg``, factored on first use and kept on the form instance."""
    steppers = vars(form).setdefault("_steppers", {})
    if cfg not in steppers:
        steppers[cfg] = Stepper(form, cfg)
    return steppers[cfg]


def _start(form: FormMatrix, u0) -> np.ndarray:
    """``u0`` as one flat state in the working type: complex when the form or the data is, else real."""
    u = form.flatten(u0)
    return u.astype(complex if np.iscomplexobj(u) or not form.is_real else float)


def _states(form: FormMatrix, u: np.ndarray, cfg: EvolutionConfig):
    """Yield ``(steps, states)`` blocks from flat ``u``: recorded step indices and an ``(N, len(steps), k)`` array.

    Step 0 is a block of its own.  After it, steps run in the stepper's
    ``order``, each block fills at most ``BLOCK_BYTES`` of states, and
    their solves are checked before the recorded ones, if any, are
    yielded in the form's order, in an array no later step writes to.
    """
    stepper = _stepper(form, cfg)
    u = u.reshape(u.shape[0], -1)
    yield np.zeros(1, dtype=int), u[:, None]
    u = u[stepper.order]
    last = cfg.n_steps
    width = max(1, BLOCK_BYTES // u.nbytes)
    for first in range(1, last + 1, width):
        steps = np.arange(first, min(first + width, last + 1))
        states = np.empty((u.shape[0], steps.size, u.shape[1]), u.dtype)
        rhs = np.empty_like(states)
        for j in range(steps.size):
            u, rhs[:, j] = stepper.step(u)
            states[:, j] = u
        stepper.check(states, rhs, steps)
        kept = (steps % cfg.record_every == 0) | (steps == last)
        if kept.any():
            # back in the form's order, into the spent rhs buffer ("clip" writes straight into out)
            block = np.take(states, stepper.position, axis=0, out=rhs, mode="clip")
            yield steps[kept], block if kept.all() else block[:, kept]


def _squared_norms(form: FormMatrix, u: np.ndarray) -> np.ndarray:
    """``u_i^H h_gram_i u_i`` per component (rows) of a flat state, one column per trial column of ``u``."""
    weights = form.mass_csr @ u
    weights = (u.conj() * weights).real if np.iscomplexobj(u) else np.multiply(weights, u, out=weights)
    return np.add.reduceat(weights, [sl.start for sl in form.block_slices], axis=0)


def _norm(squares) -> np.ndarray:
    return np.sqrt(np.maximum(squares, 0.0))


def h_norm(form: FormMatrix, u):
    """Ambient norm ``sqrt(sum_i u_i^H h_gram_i u_i)`` of a block vector.

    Components of shape ``(dim_i, k)`` give one norm per column.
    """
    return _norm(_squared_norms(form, form.flatten(u)).sum(axis=0))


def _lift(vectors: np.ndarray, n: int) -> scipy.sparse.csr_matrix:
    """``vectors (x) I_n``: an m-by-r component matrix acting on every node, in CSR.

    Its columns ``v (x) e_k`` span the lifted subspace of ``C^(m*n)``.
    """
    return scipy.sparse.kron(vectors, scipy.sparse.identity(n), format="csr")


def _observables(form: FormMatrix, states: np.ndarray, lifted, rank: int) -> np.ndarray:
    """The recorded observables of an ``(N, b, k)`` block of states, ``(names, b, k)`` in :func:`evolve`'s order.

    One ``mass_csr`` product covers the block and, with a projection, one
    more its coordinates ``lifted @ u`` in the basis ``[eig1 | eig0]``:
    the first ``rank`` rows give ``|Pu|`` and the rest ``|u - Pu|``, so a
    distance near zero keeps its digits.
    """
    n, b, k = states.shape
    u = states.reshape(n, b * k)
    squares = _squared_norms(form, u)
    totals = [squares.sum(axis=0)]
    if lifted is not None:
        coordinates = _squared_norms(form, lifted @ u)
        totals += [coordinates[rank:].sum(axis=0), coordinates[:rank].sum(axis=0)]
    totals = _norm(np.array(totals)).reshape(-1, b, k)
    extremes = np.stack([states.real.min(axis=0), np.abs(states).max(axis=0)])
    return np.concatenate([totals[:1], extremes, _norm(squares).reshape(-1, b, k), totals[1:]])


def evolve(form: FormMatrix, u0, cfg: EvolutionConfig, proj: ProjectionSpec | None = None) -> TrajectoryRecord:
    """Run the configured scheme from ``u0`` and record observables.

    States are stepped, checked and recorded a block at a time; of them
    only the last is kept.
    Components of ``u0`` are vectors ``(dim_i,)`` for one run or
    ``(dim_i, k)`` blocks for k independent trials stepped together
    with one factorization; see :meth:`TrajectoryRecord.trial`.

    When ``proj``, a :class:`ProjectionSpec` (anything else raises
    :class:`ValidationError`), is given, all component spaces must be
    identical and the strip observables ``strip_distance = |u - Pu|`` and
    ``projection_norm = |Pu|`` are recorded from the coordinates of ``u``
    in the projection's lifted eigenbasis.
    """
    u = _start(form, u0)
    if u.size == 0:
        raise ValidationError("initial data has no trial columns")
    if not np.isfinite(u).all():
        raise ValidationError("initial data contains non-finite entries")
    names = ["h_norm", "min_value", "sup_norm"] + [f"comp_norm_{i + 1}" for i in range(form.m)]
    lifted, rank = None, 0
    if proj is not None:
        if not isinstance(proj, ProjectionSpec):
            raise ValidationError(f"proj must be a ProjectionSpec, got {type(proj).__name__}")
        if not form.identical_spaces:
            raise ValidationError("a lifted projection requires all component spaces to be identical")
        if proj.m != form.m:
            raise DimensionError(f"projection matrix must be {form.m}x{form.m}")
        lifted, rank = _lift(np.hstack([proj.eig1, proj.eig0]).conj().T, form.spaces[0].dim), proj.rank
        names += ["strip_distance", "projection_norm"]

    steps, values = [], []
    for block_steps, states in _states(form, u, cfg):
        steps.append(block_steps)
        values.append(_observables(form, states, lifted, rank))
    # values[i] holds the (times, k) values of names[i]
    values = np.concatenate(values, axis=1)
    if u.ndim == 1:
        values = values[:, :, 0]
    observables = dict(zip(names, values))
    for name, vals in observables.items():
        if not np.isfinite(vals).all():
            raise SolverError(f"observable {name!r} became non-finite during the run")
    final_state = states[:, -1].reshape(u.shape).copy()
    return TrajectoryRecord(np.concatenate(steps) * cfg.dt, observables, form.split(final_state))

