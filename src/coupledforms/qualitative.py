"""Qualitative properties of the assembled forms and their evolutions.

Each invariance or order check comes in up to two flavours: an algebraic
test on the form blocks (exact, up to round-off) and a runtime test that
evolves seeded trial data and inspects the recorded observables.  The
algebraic tests read the CSR blocks and draw nothing at random: the
coupling sign entrywise, strip invariance from the Frobenius norm of the
stored entries of the sparse lifted residual ``lift(L)^H S lift(R)``, with
``L`` and ``R`` the bases a :class:`ProjectionSpec` splits from its
matrix, and product-subspace invariance from the constraint functionals
of each factor.  The numerical-range checks (``sector``, ``parabola``)
decide their bounds exactly, from the supports of the numerical range
that :mod:`coupledforms.forms` brackets.  Checks return a
:class:`CheckResult`; hypothesis failures yield a ``not-applicable``
verdict rather than an error so batch runs can report them.  Each
algebraic tolerance is relative, to the form's Frobenius norm or to the
largest coefficient of a field, so scaling the form moves no verdict.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .certificates import FAIL, NOT_APPLICABLE, PASS
from .errors import DimensionError, ValidationError
from .evolution import PROJECTION_TOL, EvolutionConfig, ProjectionSpec, TrajectoryRecord, _lift, _start, _states
from .evolution import evolve, h_norm
from .forms import (
    FormMatrix,
    _hermitian_along,
    _midpoint,
    _Pencil,
    _support,
    full_ellipticity,
    is_discretely_accretive,
)
from .models import CoefficientField

COUPLING_RESIDUAL_RTOL = 1e-9
BLOCK_ZERO_RTOL = 1e-12
SUM_SPREAD_TOL = 1e-12
RUNTIME_CONE_TOL = 1e-8
# Relative slack of the numerical-range checks.
RANGE_CHECK_RTOL = 1e-9
# Most t-intervals one parabola check tests before it calls a tie undecided.
PARABOLA_INTERVAL_CAP = 1024

_DEFAULT_CFG = EvolutionConfig(dt=1e-2, t_end=0.2)


@dataclass
class CheckResult:
    """Verdict of one qualitative check.

    A failed runtime check keeps the trajectory of one failing trial as
    its ``witness``; the ``check`` command writes it to the CSV that
    :mod:`coupledforms.report` names.  Other results have ``witness`` None.
    """

    check_id: str
    status: str
    details: dict = field(default_factory=dict)
    witness: TrajectoryRecord | None = None

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL


# ---------------------------------------------------------------------------
# projections


def averaging_projection(m: int) -> ProjectionSpec:
    """Rank-one projection onto equal components, ``K_ij = 1/m``."""
    if m < 1:
        raise ValidationError("m must be >= 1")
    return ProjectionSpec(np.full((m, m), 1.0 / m))


# ---------------------------------------------------------------------------
# helpers shared by the checks


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _draw_trials(seed: int, trials: int, rule) -> np.ndarray:
    """Seeded trial data as ``(rows, trials)``: column t is ``rule(_trial_rng(seed, t), t)``."""
    return np.stack([rule(_trial_rng(seed, t), t) for t in range(trials)], axis=1)


def _require_positive(name: str, value: int) -> None:
    # zero trials would make a check pass vacuously
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")


def _require_leading(m: int, m0: int) -> None:
    if m == 1:
        raise ValidationError("a one-component model has no proper subsystem")
    if not 1 <= m0 <= m - 1:
        raise ValidationError(f"m0 must lie in [1, {m - 1}], got {m0}")


def _require_levels(alpha_levels: list) -> None:
    if not alpha_levels or min(alpha_levels) < 0:
        raise ValidationError("strip distances must be a non-empty list of values >= 0")


def _parabola_constant(form: FormMatrix, m_tilde: float | None) -> float:
    """``m_tilde``, or the model's ``parabola_constant`` when it is None."""
    if m_tilde is None:
        if "parabola_constant" not in form.metadata:
            raise ValidationError("parabola check needs 'm_tilde' or a model that reports one")
        m_tilde = float(form.metadata["parabola_constant"])
    if not m_tilde >= 0:
        raise ValidationError(f"m_tilde must be >= 0, got {m_tilde!r}")
    return m_tilde


def _at_norm(form: FormMatrix, u: np.ndarray, radius: float) -> np.ndarray:
    """Flat trial columns ``u`` scaled to ambient norm ``radius``; zero columns stay zero."""
    norms = h_norm(form, form.split(u))
    return radius * u / np.where(norms > 0, norms, 1.0)


def _form_scale(form: FormMatrix) -> float:
    return max(float(np.linalg.norm(form.form_csr.data)), 1e-300)


# ---------------------------------------------------------------------------
# algebraic invariance checks


def subspace_invariance_check(form: FormMatrix, proj: ProjectionSpec, direction: str = "strip_C") -> CheckResult:
    """Coupling residual deciding strip (or ball) invariance.

    ``strip_C`` tests that the form vanishes on (fixed-space, kernel)
    pairs, with the fixed space in the trial slot; ``strip_B`` swaps the
    slots and decides invariance of the ball around the subspace.
    Requires identical component spaces and an accretive form, otherwise
    the verdict is not-applicable.
    """
    if direction not in ("strip_C", "strip_B"):
        raise ValidationError(f"direction must be strip_C or strip_B, got {direction!r}")
    check_id = "subspace_C" if direction == "strip_C" else "subspace_B"
    if proj.m != form.m:
        raise DimensionError("projection size does not match the number of components")
    if not form.identical_spaces:
        return CheckResult(check_id, NOT_APPLICABLE, {"reason": "component spaces differ"})
    if not is_discretely_accretive(form):
        return CheckResult(check_id, NOT_APPLICABLE, {"reason": "form is not accretive"})
    n = form.spaces[0].dim
    fixed = _lift(proj.eig1, n)
    kernel = _lift(proj.eig0, n)
    test, trial = (kernel, fixed) if direction == "strip_C" else (fixed, kernel)
    residual = float(np.linalg.norm((test.conj().T @ form.form_csr @ trial).data))
    scale = _form_scale(form)
    ok = residual <= COUPLING_RESIDUAL_RTOL * scale
    return CheckResult(
        check_id,
        PASS if ok else FAIL,
        {"residual": residual, "relative_residual": residual / scale, "rank": proj.rank},
    )


def product_subspace_check(form: FormMatrix, weights) -> CheckResult:
    """Invariance of the product of the subspaces ``{u_i : W_i^T u_i = 0}``.

    ``weights[i]`` holds the coordinate vectors of the constraint
    functionals of component i: a ``(dim_i,)`` array for one functional,
    or ``(dim_i, k_i)`` for k_i of them (``k_i = 0`` leaves the whole
    space).  They must be real, finite and linearly independent; for a
    hat basis, mass matrix times the all-ones vector gives the plain
    integral.  The ambient-orthogonal complement of factor i is
    ``span(h_gram_i^{-1} W_i)``, with orthonormal basis ``Q_i``; the
    residual of block (i, j) is ``|Pi_j S_ij^H Q_i|_F``, where ``Pi_j``
    projects onto the kernel of ``W_j^T``.  It vanishes exactly when
    the form couples no element of factor j to the complement of
    factor i.
    """
    if len(weights) != form.m:
        raise DimensionError(f"expected {form.m} weight arrays, got {len(weights)}")
    spans, complements = [], []
    for i, w in enumerate(weights):
        w = np.asarray(w)
        if w.ndim == 1:
            w = w[:, None]
        if w.ndim != 2 or w.shape[0] != form.dims[i]:
            raise DimensionError(f"weights {i} must have {form.dims[i]} rows, got shape {w.shape}")
        if np.iscomplexobj(w) or not np.isfinite(w).all():
            raise ValidationError(f"weights {i} must be real and finite")
        span, r = np.linalg.qr(w)
        if np.any(np.abs(np.diag(r)) <= PROJECTION_TOL * np.linalg.norm(w, axis=0)):
            raise ValidationError(f"weights {i} must be nonzero and linearly independent")
        spans.append(span)
        gram = form.spaces[i]._h_factor
        h_inv_w = gram.solve(w[gram.order])[np.argsort(gram.order)]
        complements.append(np.linalg.qr(h_inv_w)[0])
    scale = _form_scale(form)
    worst = 0.0
    for i, q in enumerate(complements):
        for j, span in enumerate(spans):
            x = form.csr_blocks[i][j].conj().T @ q
            worst = max(worst, float(np.linalg.norm(x - span @ (span.T @ x))))
    ok = worst <= COUPLING_RESIDUAL_RTOL * scale
    return CheckResult(
        "product_subspace",
        PASS if ok else FAIL,
        {
            "max_residual": worst,
            "relative_residual": worst / scale,
            "note": "factor subspaces are conforming, so stability under the projection holds by construction",
        },
    )


def subsystem_invariance_check(form: FormMatrix, m0: int) -> CheckResult:
    """Autonomy of the first ``m0`` components.

    Passes when every block coupling the leading components into the
    trailing ones vanishes, so trailing components started at zero stay
    at zero.
    """
    _require_leading(form.m, m0)
    scale = _form_scale(form)
    worst = max(float(np.linalg.norm(form.csr_blocks[i][j].data)) for i in range(m0, form.m) for j in range(m0))
    ok = worst <= BLOCK_ZERO_RTOL * scale
    return CheckResult(
        "subsystem",
        PASS if ok else FAIL,
        {"max_block_norm": worst, "m0": m0},
    )


def ephaptic_sum_check(coeffs: CoefficientField, which: str = "rows") -> CheckResult:
    """Cell-wise constancy of coefficient row or column sums, up to ``SUM_SPREAD_TOL`` times the largest coefficient."""
    if which == "rows":
        sums = coeffs.values.sum(axis=1)
        check_id = "row_sums"
    elif which == "columns":
        sums = coeffs.values.sum(axis=0)
        check_id = "column_sums"
    else:
        raise ValidationError(f"which must be 'rows' or 'columns', got {which!r}")
    spread = sums.max(axis=0) - sums.min(axis=0)
    max_dev = float(spread.max())
    return CheckResult(
        check_id,
        PASS if max_dev <= SUM_SPREAD_TOL * np.abs(coeffs.values).max() else FAIL,
        {"max_deviation": max_dev},
    )


def realness_check(form: FormMatrix) -> CheckResult:
    """All blocks real, so the evolution preserves real-valued data."""
    worst = float(np.abs(form.form_csr.data.imag).max(initial=0.0))
    scale = _form_scale(form)
    ok = worst <= BLOCK_ZERO_RTOL * scale
    return CheckResult("realness", PASS if ok else FAIL, {"max_imag": worst})


# ---------------------------------------------------------------------------
# runtime checks


def _off_diagonal_sign_violation(form: FormMatrix) -> tuple:
    """Largest entry of the coupling blocks, with the block holding it.

    ``g^T B f <= 0`` for all nonnegative ``f`` and ``g`` exactly when
    every entry of ``B`` is ``<= 0``, so the entrywise test decides the
    sign on the whole cone.
    """
    tol = BLOCK_ZERO_RTOL * _form_scale(form)
    entries = [
        (float(form.csr_blocks[i][j].real.max()), (i, j)) for i in range(form.m) for j in range(form.m) if i != j
    ]
    worst, where = max(entries, key=lambda entry: entry[0], default=(0.0, None))
    return worst > tol, worst, where


def positivity_check(
    form: FormMatrix,
    runtime: bool = True,
    trials: int = 20,
    cfg: EvolutionConfig | None = None,
    seed: int = 0,
) -> CheckResult:
    """Preservation of the nonnegative cone.

    Algebraic part: couplings must be nonpositive on nonnegative data,
    that is, every coupling-block entry must be ``<= 0``.  Runtime part:
    seeded nonnegative initial data must keep all nodal values above
    ``-1e-8`` at every recorded time.  Requires a real form.
    """
    _require_positive("trials", trials)
    if not realness_check(form).passed:
        return CheckResult("positivity", NOT_APPLICABLE, {"reason": "form is not real"})
    cfg = cfg or _DEFAULT_CFG
    violated, worst_alg, where = _off_diagonal_sign_violation(form)
    details: dict = {"max_coupling_value": worst_alg}
    if violated:
        details["violating_block"] = {"i": where[0], "j": where[1]}
        return CheckResult("positivity", FAIL, details)
    if not runtime:
        return CheckResult("positivity", PASS, details)
    u0 = _draw_trials(seed, trials, lambda rng, t: rng.random(form.total_dim))
    traj = evolve(form, form.split(u0), cfg)
    lows = traj.observable("min_value").min(axis=0)
    worst = int(np.argmin(lows))
    details["worst_nodal_min"] = float(lows[worst])
    if lows[worst] < -RUNTIME_CONE_TOL:
        return CheckResult("positivity", FAIL, details, witness=traj.trial(worst))
    return CheckResult("positivity", PASS, details)


def domination_check(
    form: FormMatrix,
    trials: int = 20,
    cfg: EvolutionConfig | None = None,
    seed: int = 0,
) -> CheckResult:
    """Pointwise domination of the decoupled diagonal evolution.

    For seeded data ``f`` the full evolution started from ``|f|`` must
    stay above the modulus of the diagonal evolution started from ``f``,
    node by node.  Applicable when the form is real and the couplings
    are nonpositive on the cone; trial 0 uses nonnegative data, where
    zero coupling gives exact equality.
    """
    _require_positive("trials", trials)
    if not realness_check(form).passed:
        return CheckResult("domination", NOT_APPLICABLE, {"reason": "form is not real"})
    violated, worst_alg, _ = _off_diagonal_sign_violation(form)
    if violated:
        return CheckResult(
            "domination",
            NOT_APPLICABLE,
            {"reason": "couplings take positive values on the cone", "max_coupling_value": worst_alg},
        )
    cfg = cfg or _DEFAULT_CFG
    u0 = _draw_trials(seed, trials, lambda rng, t: (rng.standard_normal if t else rng.random)(form.total_dim))
    diagonal = form.diagonal_part()
    diag_run = _states(diagonal, _start(diagonal, form.split(u0)), cfg)
    full_run = _states(form, _start(form, form.split(np.abs(u0))), cfg)
    margins = np.inf
    # both runs are real with the same shape, so their blocks match step for step
    for (_, diag), (_, full) in zip(diag_run, full_run):
        margins = np.minimum(margins, (full.real - np.abs(diag)).min(axis=(0, 1)))
    worst = int(np.argmin(margins))
    details = {"worst_margin": float(margins[worst]), "max_coupling_value": worst_alg}
    if margins[worst] < -RUNTIME_CONE_TOL:
        witness = evolve(diagonal, form.split(u0), cfg).trial(worst)
        return CheckResult("domination", FAIL, details, witness=witness)
    return CheckResult("domination", PASS, details)


def linf_contractivity_check(
    form: FormMatrix,
    trials: int = 20,
    cfg: EvolutionConfig | None = None,
    seed: int = 0,
) -> CheckResult:
    """Invariance of the unit sup-norm ball.

    Trial 0 evolves the all-ones state, the remaining trials uniform
    data in [-1, 1].  Any recorded sup norm above ``1 + 1e-8`` is a
    witness of failure; with no violation the verdict is pass for
    accretive forms and not-applicable otherwise (finite sampling cannot
    certify a non-contractive evolution).
    """
    _require_positive("trials", trials)
    cfg = cfg or _DEFAULT_CFG
    accretive = is_discretely_accretive(form)
    n = form.total_dim
    u0 = _draw_trials(seed, trials, lambda rng, t: rng.uniform(-1.0, 1.0, n) if t else np.ones(n))
    traj = evolve(form, form.split(u0), cfg)
    sup = traj.observable("sup_norm")
    outside = sup > 1.0 + RUNTIME_CONE_TOL
    details = {"worst_sup_norm": float(sup.max()), "accretive": accretive}
    violators = np.flatnonzero(outside.any(axis=0))
    if violators.size:
        c = int(violators[0])
        details["first_violation_time"] = float(traj.times[np.argmax(outside[:, c])])
        return CheckResult("linf", FAIL, details, witness=traj.trial(c))
    if not accretive:
        return CheckResult(
            "linf", NOT_APPLICABLE, {**details, "reason": "form is not accretive, no violation found"}
        )
    return CheckResult("linf", PASS, details)


def strip_invariance_runtime(
    form: FormMatrix,
    proj: ProjectionSpec,
    alpha_levels=(0.1, 1.0, 10.0),
    cfg: EvolutionConfig | None = None,
    trials: int = 3,
    seed: int = 0,
) -> CheckResult:
    """Runtime strip invariance at prescribed distances.

    For each level ``alpha`` the trial data is prepared at strip
    distance exactly ``alpha`` (a fixed-space part plus a kernel part of
    norm ``alpha``, the level-0 data being purely in the fixed space)
    and must keep ``|u - Pu|`` below ``alpha + 1e-8`` throughout.  The
    per-trial base draws are shared across levels, so verdicts at
    different positive levels must agree for a linear scheme; the
    ``scaling_consistent`` detail records that they did.
    """
    _require_positive("trials", trials)
    alpha_levels = [float(a) for a in alpha_levels]
    _require_levels(alpha_levels)
    cfg = cfg or _DEFAULT_CFG
    if not form.identical_spaces:
        return CheckResult("strip_runtime", NOT_APPLICABLE, {"reason": "component spaces differ"})
    if not is_discretely_accretive(form):
        return CheckResult("strip_runtime", NOT_APPLICABLE, {"reason": "form is not accretive"})
    n = form.spaces[0].dim

    # Per-trial base draws, shared by all levels: fixed-space nodal
    # values, then kernel ones.  The in-phase part is three times the
    # strip radius so coupling leaks are visible against the tolerance;
    # trial 0 seeds the kernel part with nodal constants, the slowest
    # modes of a diffusive system.
    fixed_rows = proj.rank * n
    k = proj.eig0.shape[1]

    def rule(rng, t):
        fixed = rng.standard_normal(fixed_rows)
        return np.concatenate([fixed, rng.standard_normal(k * n) if t else np.repeat(rng.standard_normal(k), n)])

    draws = _draw_trials(seed, trials, rule)
    g0 = _at_norm(form, _lift(proj.eig1, n) @ draws[:fixed_rows], 3.0)
    h0 = _at_norm(form, _lift(proj.eig0, n) @ draws[fixed_rows:], 1.0)
    # one column per (level, trial), level-major
    u0 = np.concatenate([g0 if alpha == 0.0 else alpha * (g0 + h0) for alpha in alpha_levels], axis=1)
    traj = evolve(form, form.split(u0), cfg, proj=proj)
    peaks = traj.observable("strip_distance").max(axis=0).reshape(len(alpha_levels), trials)
    exceed = peaks - (np.array(alpha_levels) + RUNTIME_CONE_TOL)[:, None]
    levels = [
        {
            "alpha": alpha,
            "passed": bool((exceed[lv] <= 0).all()),
            "max_distance": float(peaks[lv].max()),
            "max_exceedance": float(exceed[lv].max()),
        }
        for lv, alpha in enumerate(alpha_levels)
    ]
    failing = np.flatnonzero(exceed.reshape(-1) > 0)
    witness = traj.trial(int(failing[0])) if failing.size else None
    positive = [lv["passed"] for lv in levels if lv["alpha"] > 0]
    scaling_consistent = len(set(positive)) <= 1
    all_pass = all(lv["passed"] for lv in levels)
    return CheckResult(
        "strip_runtime",
        PASS if all_pass else FAIL,
        {"levels": levels, "scaling_consistent": scaling_consistent},
        witness=witness,
    )


# ---------------------------------------------------------------------------
# numerical-range checks


def _within(value: float, limit: float) -> bool:
    return value <= limit + RANGE_CHECK_RTOL * max(1.0, abs(value), abs(limit))


def sector_check(
    form: FormMatrix, alpha: float | None = None, shift: float = 0.0, bound: float | None = None
) -> CheckResult:
    """Numerical range inside the sector of ``alpha``, ``shift`` and ``bound``.

    Passes when every ``f`` satisfies ``Re a(f,f) >= alpha*|f|_V^2 -
    shift*|f|_H^2`` and ``|Im a(f,f)| <= bound*|f|_V^2``, up to a slack of
    ``RANGE_CHECK_RTOL`` relative to the larger constant (at least 1).
    Both sides are decided by exact constants, the supports of the
    numerical range (:func:`~coupledforms.forms._support`), reported as
    ``exact_alpha``, the support in direction -1 at ``shift`` negated,
    and ``exact_bound``, the larger support in directions ``+-i``.
    Without ``alpha`` the check uses ``exact_alpha``.  Without ``bound``
    it uses the largest of ``exact_bound`` and the magnitudes of the
    supports in directions ``+-1`` at shift 0: the half-side of the
    smallest square about 0 that holds the numerical range, which cannot
    fail, and for a Hermitian form the continuity constant ``|S|_V``.
    """
    exact_alpha = full_ellipticity(form, shift)
    if alpha is None:
        alpha = exact_alpha
    # sup |Im a(f,f)|/|f|_V^2 is at least 0; the supports of a Hermitian form are -0.0
    exact_bound = max(0.0, *(_midpoint(_support(form, d)) for d in (1j, -1j)))
    if bound is None:
        bound = max(exact_bound, *(abs(_midpoint(_support(form, d))) for d in (1, -1)))
    passed = _within(alpha, exact_alpha) and _within(exact_bound, bound)
    details = {"alpha": alpha, "bound": bound, "exact_alpha": exact_alpha, "exact_bound": exact_bound}
    return CheckResult("sector", PASS if passed else FAIL, details)


def parabola_check(form: FormMatrix, m_tilde: float | None = None) -> CheckResult:
    """Imaginary parts obey ``|Im a(f,f)| <= m_tilde * |f|_V |f|_H`` for every ``f``.

    As ``2 |f|_V |f|_H = min_{t>0} (t |f|_V^2 + |f|_H^2/t)``, this holds
    exactly when ``m_tilde*(tV + H/t) -+ 2T`` is positive semidefinite for
    every ``t > 0``, ``T = (S - S^H)/2i``.  With ``c = m_tilde*(1 +
    RANGE_CHECK_RTOL)``, the tails settle every ``t`` outside
    ``[c/lambda_max(+-2T, H), lambda_max(+-2T, V)/c]``, twice the supports
    in directions ``+-i``.  Inside, one banded Cholesky factorization of
    ``c(lo*V + H/hi) -+ 2T`` covers an interval ``[lo, hi]``, as
    ``tV + H/t >= lo*V + H/hi`` on it.  An uncovered interval is split,
    breadth first, at its geometric midpoint ``t``, unless ``c(tV + H/t)
    -+ 2T`` is not positive definite: then ``t`` is a witness of failure,
    reported as ``failing_t``.  A tie that ``PARABOLA_INTERVAL_CAP``
    intervals do not decide is not-applicable.  Without ``m_tilde`` the
    check takes the model's ``parabola_constant``.
    """
    m_tilde = _parabola_constant(form, m_tilde)
    details: dict = {"m_tilde": m_tilde}
    c = m_tilde * (1.0 + RANGE_CHECK_RTOL)
    tested, tails = 0, []
    for d in (1j, -1j):  # +-2T = 2*herm(conj(d)*S)
        top_v, top_h = (2.0 * _support(form, d, gram)[1] for gram in ("vgram_csr", "mass_csr"))
        tails += [top_v, top_h]
        if min(top_v, top_h) <= 0:
            continue  # +-2T is negative semidefinite
        # with m_tilde = 0 no tail holds, and every t asks the same: is -+2T definite?
        lo, hi = (c / top_h, top_v / c) if c > 0 else (1.0, 1.0)
        if lo > hi:
            continue
        pencil = _Pencil(-2.0 * _hermitian_along(form, d), form.vgram_csr, form.mass_csr)
        queue = deque([(lo, hi)])
        while queue:
            lo, hi = queue.popleft()
            tested += 1
            if pencil.definite(-c * lo, c / hi):
                continue
            t = math.sqrt(lo * hi)
            if not pencil.definite(-c * t, c / t):
                return CheckResult("parabola", FAIL, {**details, "failing_t": t})
            if tested >= PARABOLA_INTERVAL_CAP:
                return CheckResult("parabola", NOT_APPLICABLE, {**details, "reason": "undecided within round-off"})
            queue.extend([(lo, t), (t, hi)])
    if any(tails):  # T is not 0
        details["intervals"] = tested
    return CheckResult("parabola", PASS, details)
