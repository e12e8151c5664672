"""Implicit time integration of the assembled evolution problems.

The continuous problem is ``u' = A u`` with ``A = -Mass^{-1} S``; the
two schemes below solve

    implicit Euler:   (Mass + dt*S) u+ = Mass u
    Crank-Nicolson:   (Mass + dt/2*S) u+ = (Mass - dt/2*S) u

for the increment, ``(Mass + theta*dt*S) delta = -dt*S u`` and ``u+ = u
+ delta``, with one factorization per (form, dt, scheme), kept in the
form's memo and reused across all steps and all runs.  Both schemes are
unconditionally stable for accretive forms, which is what makes the
downstream invariance tests meaningful.

The P1 blocks are tridiagonal or a few trace entries, so the systems are
formed from the form's assembled CSR operators (``FormMatrix.form_csr``
and ``mass_csr``).  In reverse Cuthill--McKee order their half-bandwidth
is a few entries.  A form that its builder declared a real symmetric
coupling ``C`` times one block over one ambient Gram, such as the
ephaptic system with constant coefficients, is stepped mode by mode
instead: the eigenbasis of the m-by-m ``C`` splits each system into m
scalar ones, tridiagonal for P1 (the fast diagonalization of Lynch, Rice
& Thomas, 1964), and :class:`Stepper` takes that split only when a bound
from m-by-m quantities keeps a step's backward error on the assembled
system.
:class:`coupledforms.forms._Factor` factors a
Hermitian positive definite system (an accretive model's, the damped
wave's excepted) by banded Cholesky (LAPACK ``?pbtrf``, or ``?pttrf``
when tridiagonal), any other by banded LU with partial pivoting
(``?gbtrf``); a step, for every trial column at once, is one solve:
time linear in the unknown count.

One generator, ``_states``, owns the stepping loop.  Only the solve runs
once per step, in the stepper's coordinates (the factor's order, of the
modes when split): the generator enters them once, fills a block of up
to ``BLOCK_BYTES`` of states, checks the backward error of every step's
solve in it with one block product, and yields the block's recorded states,
put back in the form's coordinates by one gather and, when split, one
m-by-m mix, both written over the block's spent buffers.  Recorded norms take
one ``mass_csr`` product per block, the strip observables one more, in
the basis that a :class:`ProjectionSpec` splits from its matrix once it
has checked it.  A run keeps its observables and its last state, and
``domination`` walks two generators block by block instead of storing
states.
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
#: Largest normwise backward error of a step's solve that :meth:`Stepper.check` accepts.
SOLVER_TOLERANCE = 1e-9
#: Largest similarity error of a modal split, relative to ``SOLVER_TOLERANCE * |lhs|_inf`` (see :class:`Stepper`).
SPLIT_RTOL = 1e-3


@dataclass(frozen=True)
class EvolutionConfig:
    """Time-stepping parameters; ``t_end`` must be a whole number of steps ``dt``, within 1e-9 relative."""

    dt: float
    t_end: float
    scheme: str = "implicit-euler"
    record_every: int = 1

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
        # t_end/dt is rounded first: fl(0.3/0.1) is 2.9999999999999996, a few ulps from 3
        steps = self.t_end / self.dt
        if not (steps < np.inf and abs(round(steps) * self.dt - self.t_end) <= 1e-9 * self.t_end):
            raise ValidationError(f"t_end must be a whole number of steps: t_end/dt = {steps:.6g}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


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


@dataclass(frozen=True, eq=False)
class ProjectionSpec:
    """Orthogonal projection on the component index space, checked and split on construction.

    ``matrix`` is copied and frozen: a non-empty, finite square matrix, Hermitian and idempotent within
    ``PROJECTION_TOL`` (relative; the error reports both residuals).  ``eig1`` holds an orthonormal basis
    of its fixed space (eigenvalue 1) as columns, ``eig0`` one of its kernel (eigenvalue 0).  ``==`` and
    ``hash`` go by identity.
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
    """One factorized time-step operator for a fixed form, ``cfg.dt`` and ``cfg.scheme``, in its own coordinates.

    The implicit system ``lhs u+ = rhs u``, ``lhs = Mass + theta*dt*S``,
    ``rhs = lhs - dt*S``, is formed from the form's CSR operators
    ``form_csr`` and ``mass_csr`` and solved for the increment: ``L delta
    = R w``, ``w+ = w + delta``, with ``R w`` formed as ``-dt (S w)``, so a
    state whose ``S w`` is exactly 0 stays exactly where it is.  A form
    declared ``C (x) K`` (:attr:`FormMatrix.declared`) over one ambient
    Gram ``M``, ``C`` real symmetric, steps mode by mode: with ``C = Q
    Lambda Q^T`` from ``eigh`` and ``G = Q (x) I``, ``G^T lhs G`` is ``L =
    blockdiag(M + theta*dt*lambda_r*K)`` and ``R = -dt*blockdiag(lambda_r
    K)``, so the stepper factors m scalar systems (tridiagonal for P1)
    instead of the coupled band (Lynch, Rice & Thomas, *Numer. Math.* 6,
    1964).  Any other form steps ``L = lhs``, ``R = -dt*S``.  ``L`` is
    factored by :class:`coupledforms.forms._Factor`: banded Cholesky
    (``kernel == "cholesky"``) when it is exactly Hermitian and positive
    definite, else banded LU with partial pivoting (``"lu"``), in its
    reverse Cuthill--McKee order.  :meth:`enter` takes states to the
    stepper's coordinates, ``G^T u`` (or ``u``) in that order,
    :meth:`leave` takes them back, and :meth:`step` and :meth:`check`
    work in between.

    Construction raises :class:`SolverError` when the factorization fails
    or its smallest pivot is below ``1e-14 * |lhs|_inf``; :meth:`check`
    raises it when a column's residual ``|L w+ - (L + R) w|_2`` exceeds
    ``SOLVER_TOLERANCE * (|lhs|_inf |w+|_2 + |(L + R) w|_2)``: a normwise
    backward error of the theta-system above ``SOLVER_TOLERANCE``, which
    no change of units moves (Rigal & Gaches 1967; Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, Thm 7.1).  That residual is
    the increment's, ``L delta - R w``, whose solve is backward stable,
    plus the rounding of two products, about ``eps |lhs|_inf |w|_2``: far
    below the bound unless a step shrinks a state by ``SOLVER_TOLERANCE /
    eps``, about 4.5e6, or more.

    The split keeps that bound on the assembled system.  Its blocks are
    ``fl(C[i, j] K)``, so each entry of ``D = S - C (x) K`` is at most ``u
    |C[i, j] K[a, b]| + eta``, ``u = 2**-53`` and ``eta`` the smallest
    subnormal, which covers a product that is subnormal or underflows to
    0: ``|D|_F <= u |C|_F |K|_F + eta sqrt(m**2 nnz(K))``.  ``lhs G - G L``
    is ``theta*dt*((C Q - Q Lambda) (x) K + D G)`` and ``rhs G - G (L +
    R)`` the same times ``-(1 - theta)/theta``.  From ``E = |Q Lambda Q^T -
    C|_F`` and ``F = |Q Q^T - I|_F``, ``|G|_2 <= sqrt(1 + F)`` and ``|C Q
    - Q Lambda|_2 <= |G|_2 (E + |Lambda|_2 F)``, so both differences are
    at most ``sigma = dt |G|_2 ((E + |Lambda|_2 F) sqrt(|K|_1 |K|_inf) +
    |D|_F)``.  The split is taken only when ``F`` and ``sigma / |lhs|_inf``
    are at most ``SPLIT_RTOL * SOLVER_TOLERANCE``, 1e-12, a margin that
    also covers the rounding of these m-by-m products.  A checked step ``w
    -> w+`` then gives ``u = G w`` and ``u+ = G w+`` with ``|lhs u+ - rhs
    u|_2 <= kappa(G) SOLVER_TOLERANCE (|lhs|_inf |u+|_2 + |rhs u|_2) +
    1.01 SPLIT_RTOL SOLVER_TOLERANCE |lhs|_inf (|u+|_2 + |u|_2)``,
    ``kappa(G) <= 1 + 1e-12``: a backward error within a part in a
    thousand of ``SOLVER_TOLERANCE`` when both matrices may be perturbed,
    up to the rounding of the m-term sums of :meth:`enter` and
    :meth:`leave`.
    """

    def __init__(self, form: FormMatrix, cfg: EvolutionConfig):
        # no reference back to the form, which keeps its steppers
        self.dt, self.scheme = cfg.dt, cfg.scheme
        tdt = (1.0 if cfg.scheme == "implicit-euler" else 0.5) * cfg.dt
        lhs = form.mass_csr + tdt * form.form_csr
        # |lhs|_inf, the largest absolute row sum, of the assembled system on either path
        self._lhs_norm = max(float(abs(lhs).sum(axis=1).max()), 1e-300)
        split = _modal_split(form, cfg.dt, self._lhs_norm)
        if split is None:
            self._basis, s = None, form.form_csr
        else:
            self._basis, lam, gram, k = split
            lhs = scipy.sparse.block_diag([gram + (tdt * x) * k for x in lam], format="csr")
            s = scipy.sparse.block_diag([x * k for x in lam], format="csr")
        try:
            self._factor = _Factor(lhs)
        except NumericalError as exc:
            raise SolverError(
                f"{cfg.scheme} system factorization failed at dt={cfg.dt}: {exc}"
            ) from exc
        self.kernel, self._order = self._factor.kernel, self._factor.order
        diag = self._factor.pivots
        if diag.min() <= 1e-14 * self._lhs_norm:
            raise SolverError(
                f"{cfg.scheme} system is numerically singular at dt={cfg.dt} "
                f"(pivot ratio {diag.min() / self._lhs_norm:.3e})"
            )
        self._position = np.argsort(self._order)
        self._lhs, self._s = (a[self._order][:, self._order] for a in (lhs, s))

    def enter(self, u: np.ndarray) -> np.ndarray:
        """A flat state, or an ``(N, k)`` block, in the stepper's coordinates, as a new array."""
        if self._basis is not None:
            u = _mix(self._basis.T, u.copy(), np.empty_like(u))
        return u[self._order]

    def leave(self, block: np.ndarray, spare: np.ndarray) -> np.ndarray:
        """States ``(N, ...)`` in the stepper's coordinates back in the form's, written over ``block`` or ``spare``.

        ``spare`` has the shape and type of ``block``; both are spent.
        """
        # "clip" writes straight into out
        modes = np.take(block, self._position, axis=0, out=spare, mode="clip")
        return modes if self._basis is None else _mix(self._basis, modes, block)

    def step(self, u: np.ndarray) -> tuple:
        """Advance a state vector, or each column of a ``(N, k)`` block, unchecked; all in the stepper's coordinates.

        Returns ``(u + delta, R u)``; :meth:`check` judges the solve.
        """
        r = self._s @ u
        r *= -self.dt
        new = self._factor.solve(r)
        new += u
        return new, r

    def check(self, u: np.ndarray, states: np.ndarray, r: np.ndarray, steps: np.ndarray) -> None:
        """Check the solves of an ``(N, b, k)`` block in stepper coordinates: its states after ``steps``, from ``u``, and ``R u``.

        One product ``L w+`` covers the block, and ``(L + R) w`` is formed
        from it over ``r``: ``L w`` is the product's column of the step
        before, or ``L u`` for the first.  The error names the first
        step with a column over its bound.
        """
        n = states.shape[0]
        states, r = states.reshape(n, -1), r.reshape(n, -1)
        k = r.shape[1] // len(steps)
        residual = self._lhs @ states
        r[:, :k] += self._lhs @ u.reshape(n, k)
        r[:, k:] += residual[:, :-k]
        bound = SOLVER_TOLERANCE * (self._lhs_norm * _column_norms(states) + _column_norms(r))
        residual = _column_norms(np.subtract(residual, r, out=residual))
        residual, bound = residual.reshape(len(steps), -1), bound.reshape(len(steps), -1)
        failed = ~(residual <= bound).all(axis=1)
        if failed.any():
            j = int(np.argmax(failed))
            raise SolverError(
                f"{self.scheme} solve lost accuracy at step {steps[j]} "
                f"(dt={self.dt}, residual {np.max(residual[j]):.3e})"
            )


def _modal_split(form: FormMatrix, dt: float, lhs_norm: float):
    """``(Q, lambda, M, K)`` of a form declared ``C (x) K``, ``C`` finite, real and exactly symmetric, whose computed
    eigenbasis passes :class:`Stepper`'s similarity bound, else None."""
    if form.declared is None or form.m < 2:
        return None
    c, k = form.declared
    if np.iscomplexobj(c) or not (np.isfinite(c).all() and np.array_equal(c, c.T)):
        return None
    lam, q = np.linalg.eigh(c)
    e = np.linalg.norm((q * lam) @ q.T - c)
    f = np.linalg.norm(q @ q.T - np.eye(form.m))
    k_norm = np.sqrt(abs(k).sum(axis=0).max() * abs(k).sum(axis=1).max())
    rounding = np.finfo(float).eps / 2 * np.linalg.norm(c) * np.linalg.norm(k.data)
    rounding += np.finfo(float).smallest_subnormal * np.sqrt(form.m**2 * k.nnz)
    sigma = dt * np.sqrt(1.0 + f) * ((e + np.abs(lam).max() * f) * k_norm + rounding)
    bound = SPLIT_RTOL * SOLVER_TOLERANCE
    return (q, lam, form.spaces[0].h_csr, k) if f <= bound and sigma <= bound * lhs_norm else None


def _mix(a: np.ndarray, src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out_i = sum_j a[i, j] src_j`` over the m equal row slices of ``src`` and ``out``; ``src`` is spent.

    Elementwise products summed in order of j, so a state mixes to the
    same bits alone or in a block.  The products go to the last slice
    of ``out`` until it is formed itself, then over the spent ``src``:
    no temporary.
    """
    m = a.shape[0]
    rows = [slice(i * (src.shape[0] // m), (i + 1) * (src.shape[0] // m)) for i in range(m)]
    for i in range(m):
        np.multiply(src[rows[0]], a[i, 0], out=out[rows[i]])
        for j in range(1, m):
            out[rows[i]] += np.multiply(src[rows[j]], a[i, j], out=out[rows[-1]] if i < m - 1 else src[rows[j]])
    return out


def _column_norms(a: np.ndarray) -> np.ndarray:
    """2-norms of the columns of ``a`` by ``einsum``, which makes no temporary the size of ``a``."""
    # a block-sized temporary freed per block lets the C heap trim its top and fault the pages in again
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    return np.sqrt(sum(np.einsum("ij,ij->j", p, p) for p in parts))


def _stepper(form: FormMatrix, cfg: EvolutionConfig) -> Stepper:
    """The form's :class:`Stepper` for ``cfg.dt`` and ``cfg.scheme``, factored on first use and kept on the form."""
    return form._kept(("stepper", cfg.dt, cfg.scheme), lambda: Stepper(form, cfg))


def _start(form: FormMatrix, u0) -> np.ndarray:
    """``u0`` as one flat state in the working type: complex when the form or the data is, else real."""
    u = form.flatten(u0)
    return u.astype(complex if np.iscomplexobj(u) or not form.is_real else float)


def _states(form: FormMatrix, u: np.ndarray, cfg: EvolutionConfig):
    """Yield ``(steps, states)`` blocks from flat ``u``: recorded step indices and an ``(N, len(steps), k)`` array.

    Step 0 is a block of its own.  After it, steps run in the stepper's
    coordinates, entered once, each block fills at most ``BLOCK_BYTES``
    of states, and their solves are checked before the recorded ones, if
    any, are yielded in the form's coordinates, in an array no later step
    writes to.
    """
    stepper = _stepper(form, cfg)
    u = u.reshape(u.shape[0], -1)
    yield np.zeros(1, dtype=int), u[:, None]
    u = stepper.enter(u)
    last = cfg.n_steps
    width = max(1, BLOCK_BYTES // u.nbytes)
    for first in range(1, last + 1, width):
        steps = np.arange(first, min(first + width, last + 1))
        states = np.empty((u.shape[0], steps.size, u.shape[1]), u.dtype)
        r = np.empty_like(states)
        entry = u
        for j in range(steps.size):
            u, r[:, j] = stepper.step(u)
            states[:, j] = u
        stepper.check(entry, states, r, steps)
        kept = (steps % cfg.record_every == 0) | (steps == last)
        if kept.any():
            # back in the form's coordinates, over the spent states and r buffers
            block = stepper.leave(states, r)
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

