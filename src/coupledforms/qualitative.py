"""Invariance and order properties of the assembled evolutions.

Each check comes in up to two flavours: an algebraic test on the form
blocks (exact, up to round-off) and a runtime test that evolves seeded
trial data and inspects the recorded observables.  Checks return a
:class:`CheckResult`; hypothesis failures yield a ``not-applicable``
verdict rather than an error so batch runs can report them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .certificates import FAIL, NOT_APPLICABLE, PASS
from .errors import DimensionError, ValidationError
from .evolution import EvolutionConfig, TrajectoryRecord, evolve, h_norm
from .forms import FormMatrix, is_discretely_accretive
from .models import CoefficientField

PROJECTION_TOL = 1e-12
COUPLING_RESIDUAL_RTOL = 1e-9
BLOCK_ZERO_RTOL = 1e-12
SUM_SPREAD_TOL = 1e-12
RUNTIME_CONE_TOL = 1e-8

_DEFAULT_CFG = EvolutionConfig(dt=1e-2, t_end=0.2, scheme="implicit-euler", record_every=1)


@dataclass
class CheckResult:
    """Verdict of one qualitative check."""

    check_id: str
    status: str
    details: dict = field(default_factory=dict)
    witness: TrajectoryRecord | None = None
    witness_label: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL


# ---------------------------------------------------------------------------
# projections


@dataclass(frozen=True)
class ProjectionSpec:
    """Orthogonal projection on the component index space.

    ``eig1`` holds an orthonormal basis of the fixed space (eigenvalue
    1) as columns, ``eig0`` one of the kernel (eigenvalue 0).
    """

    matrix: np.ndarray
    eig1: np.ndarray
    eig0: np.ndarray

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self.eig1.shape[1]


def make_projection(k) -> ProjectionSpec:
    """Validate an orthogonal projection matrix and split its eigenbasis.

    Rejects matrices that are not Hermitian and idempotent within
    ``1e-12`` (relative), reporting both residual norms.
    """
    k = np.asarray(k, dtype=complex)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise DimensionError(f"projection matrix must be square, got {k.shape}")
    scale = max(1.0, float(np.linalg.norm(k)))
    herm_res = float(np.linalg.norm(k - k.conj().T))
    idem_res = float(np.linalg.norm(k @ k - k))
    if herm_res > PROJECTION_TOL * scale or idem_res > PROJECTION_TOL * max(scale, scale**2):
        raise ValidationError(
            "not an orthogonal projection: "
            f"hermitian residual {herm_res:.3e}, idempotency residual {idem_res:.3e}"
        )
    if np.abs(k.imag).max() == 0.0:
        k = k.real.copy()
    vals, vecs = np.linalg.eigh((k + k.conj().T) / 2.0)
    ones = vals > 0.5
    k_frozen = np.array(k)
    k_frozen.setflags(write=False)
    return ProjectionSpec(k_frozen, vecs[:, ones], vecs[:, ~ones])


def averaging_projection(m: int) -> ProjectionSpec:
    """Rank-one projection onto equal components, ``K_ij = 1/m``."""
    if m < 1:
        raise ValidationError("m must be >= 1")
    return make_projection(np.full((m, m), 1.0 / m))


def mean_zero_projection(space, weights) -> np.ndarray:
    """Ambient-orthogonal projection onto ``{u : weights^T u = 0}``.

    ``weights`` is the coordinate vector of the linear functional whose
    kernel defines the subspace (for a hat basis, mass matrix times the
    all-ones vector gives the plain integral).
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != space.dim:
        raise DimensionError("weights length does not match the space dimension")
    z = np.linalg.solve(space.h_gram, w)
    denom = float(w @ z)
    if denom <= 0:
        raise ValidationError("weights vector must be nonzero")
    return np.eye(space.dim) - np.outer(z, w) / denom


# ---------------------------------------------------------------------------
# componentwise (lattice) operations on nodal values


def positive_part(u) -> np.ndarray:
    return np.maximum(np.asarray(u).real, 0.0)


def modulus(u) -> np.ndarray:
    return np.abs(np.asarray(u))


def complex_sign(u) -> np.ndarray:
    """Generalized sign ``u/|u|`` with value 0 at zeros."""
    u = np.asarray(u)
    mag = np.abs(u)
    out = np.zeros_like(u, dtype=complex if np.iscomplexobj(u) else float)
    nz = mag > 0
    out[nz] = u[nz] / mag[nz]
    return out


def unit_truncation(u) -> np.ndarray:
    """``(1 ^ |u|) sign(u)``: clip the modulus at one, keep the phase."""
    u = np.asarray(u)
    return np.where(np.abs(u) <= 1.0, u, complex_sign(u))


def unit_excess(u) -> np.ndarray:
    """``(|u| - 1)^+ sign(u)``, the part of ``u`` outside the unit ball."""
    u = np.asarray(u)
    return u - unit_truncation(u)


# ---------------------------------------------------------------------------
# helpers shared by the checks


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")


def _stack_trials(trials: list) -> list:
    """Per-trial block vectors as one block of ``(dim_i, k)`` trial columns."""
    return [np.stack(components, axis=1) for components in zip(*trials)]


def _lift(vectors: np.ndarray, n: int) -> np.ndarray:
    """Columns ``v (x) e_k`` spanning the lifted subspace of ``C^(m*n)``."""
    return np.kron(vectors, np.eye(n))


def _combine(vectors: np.ndarray, nodal: list) -> list:
    """Block vector ``sum_k vectors[:, k] (x) nodal[k]``."""
    m, r = vectors.shape
    return [sum(vectors[i, k] * nodal[k] for k in range(r)) for i in range(m)]


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
    s = form.form_csr
    if direction == "strip_C":
        coupling = kernel.conj().T @ (s @ fixed)
    else:
        coupling = fixed.conj().T @ (s @ kernel)
    residual = float(np.linalg.norm(coupling))
    scale = _form_scale(form)
    ok = residual <= COUPLING_RESIDUAL_RTOL * scale
    return CheckResult(
        check_id,
        PASS if ok else FAIL,
        {"residual": residual, "relative_residual": residual / scale, "rank": proj.rank},
    )


def product_subspace_check(form: FormMatrix, projections) -> CheckResult:
    """Invariance of a componentwise product of closed subspaces.

    ``projections[i]`` must be the ambient-orthogonal projection onto
    the i-th factor subspace.  The check verifies that every coupling
    block maps each factor into the orthogonal complement trivially,
    i.e. the complement-side coupling residuals vanish.
    """
    if len(projections) != form.m:
        raise DimensionError(f"expected {form.m} projections, got {len(projections)}")
    ranges = []
    complements = []
    for i, p in enumerate(projections):
        p = np.asarray(p)
        space = form.spaces[i]
        if p.shape != (space.dim, space.dim):
            raise DimensionError(f"projection {i} has shape {p.shape}, expected {(space.dim,) * 2}")
        h = space.h_gram
        scale = max(1.0, float(np.linalg.norm(p)))
        idem = float(np.linalg.norm(p @ p - p))
        selfadj = float(np.linalg.norm(h @ p - p.conj().T @ h)) / max(1.0, float(np.linalg.norm(h)))
        if idem > 1e-10 * scale or selfadj > 1e-10 * scale:
            raise ValidationError(
                f"input {i} is not an ambient-orthogonal projection "
                f"(idempotency {idem:.3e}, self-adjointness {selfadj:.3e})"
            )
        rank = int(round(float(np.trace(p).real)))
        q, _, _ = scipy.linalg.qr(p, pivoting=True)
        ranges.append(q[:, :rank])
        qc, _, _ = scipy.linalg.qr(np.eye(space.dim) - p, pivoting=True)
        complements.append(qc[:, : space.dim - rank])
    scale = _form_scale(form)
    worst = 0.0
    for i in range(form.m):
        for j in range(form.m):
            res = float(np.linalg.norm(complements[i].conj().T @ form.block(i, j) @ ranges[j]))
            worst = max(worst, res)
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
    if not 2 <= m0 <= form.m - 1:
        raise ValidationError(f"m0 must lie in [2, {form.m - 1}], got {m0}")
    scale = _form_scale(form)
    worst = 0.0
    for i in range(m0, form.m):
        for j in range(m0):
            worst = max(worst, float(np.linalg.norm(form.block(i, j))))
    ok = worst <= BLOCK_ZERO_RTOL * scale
    return CheckResult(
        "subsystem",
        PASS if ok else FAIL,
        {"max_block_norm": worst, "m0": m0},
    )


def ephaptic_sum_check(coeffs: CoefficientField, which: str = "rows") -> CheckResult:
    """Cell-wise constancy of coefficient row or column sums."""
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
        PASS if max_dev <= SUM_SPREAD_TOL else FAIL,
        {"max_deviation": max_dev},
    )


def realness_check(form: FormMatrix) -> CheckResult:
    """All blocks real, so the evolution preserves real-valued data."""
    worst = 0.0
    for i in range(form.m):
        for j in range(form.m):
            block = form.block(i, j)
            if np.iscomplexobj(block):
                worst = max(worst, float(np.abs(block.imag).max()))
    scale = _form_scale(form)
    ok = worst <= BLOCK_ZERO_RTOL * scale
    return CheckResult("realness", PASS if ok else FAIL, {"max_imag": worst})


# ---------------------------------------------------------------------------
# runtime checks


def _off_diagonal_sign_violation(form: FormMatrix, trials: int, seed: int) -> tuple:
    """Worst positive value of a coupling block on nonnegative data.

    Hat-basis pairs make this an entrywise test; seeded nonnegative
    random vectors add coverage of the interior of the cone.
    """
    tol = BLOCK_ZERO_RTOL * max(1.0, _form_scale(form))
    worst = -np.inf
    where = None
    for i in range(form.m):
        for j in range(form.m):
            if i == j:
                continue
            block = form.block(i, j).real
            val = float(block.max())
            if val > worst:
                worst, where = val, (i, j, "basis_pair")
            rng = _trial_rng(seed, 1000 + i * form.m + j)
            for _ in range(trials):
                f = rng.random(block.shape[1])
                g = rng.random(block.shape[0])
                val = float(g @ block @ f)
                if val > worst:
                    worst, where = val, (i, j, "random_cone")
    if not np.isfinite(worst):
        worst = 0.0
    return worst > tol, worst, where


def positivity_check(
    form: FormMatrix,
    runtime: bool = True,
    trials: int = 20,
    cfg: EvolutionConfig | None = None,
    seed: int = 0,
) -> CheckResult:
    """Preservation of the nonnegative cone.

    Algebraic part: couplings must be nonpositive on nonnegative data
    (tested on all hat pairs and on random cone vectors).  Runtime part:
    seeded nonnegative initial data must keep all nodal values above
    ``-1e-8`` at every recorded time.  Requires a real form.
    """
    _require_trials(trials)
    if not realness_check(form).passed:
        return CheckResult("positivity", NOT_APPLICABLE, {"reason": "form is not real"})
    cfg = cfg or _DEFAULT_CFG
    violated, worst_alg, where = _off_diagonal_sign_violation(form, max(trials, 5), seed)
    details: dict = {"max_coupling_value": worst_alg}
    if violated:
        details["violating_block"] = {"i": where[0], "j": where[1], "kind": where[2]}
        return CheckResult("positivity", FAIL, details)
    if not runtime:
        return CheckResult("positivity", PASS, details)
    u0 = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        u0.append([rng.random(s.dim) for s in form.spaces])
    traj = evolve(form, _stack_trials(u0), cfg)
    lows = traj.observable("min_value").min(axis=0)
    worst = int(np.argmin(lows))
    details["worst_nodal_min"] = float(lows[worst])
    if lows[worst] < -RUNTIME_CONE_TOL:
        return CheckResult(
            "positivity", FAIL, details, witness=traj.trial(worst), witness_label="negative_node"
        )
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
    _require_trials(trials)
    if not realness_check(form).passed:
        return CheckResult("domination", NOT_APPLICABLE, {"reason": "form is not real"})
    violated, worst_alg, where = _off_diagonal_sign_violation(form, max(trials, 5), seed)
    if violated:
        return CheckResult(
            "domination",
            NOT_APPLICABLE,
            {"reason": "couplings take positive values on the cone", "max_coupling_value": worst_alg},
        )
    cfg = cfg or _DEFAULT_CFG
    u0 = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        draw = rng.random if t == 0 else rng.standard_normal
        u0.append([draw(s.dim) for s in form.spaces])
    u0 = _stack_trials(u0)
    traj_diag = evolve(form.diagonal_part(), u0, cfg)
    traj_full = evolve(form, [np.abs(b) for b in u0], cfg)
    full = np.array([form.flatten(state) for state in traj_full.states])
    diag = np.array([form.flatten(state) for state in traj_diag.states])
    margins = (full.real - np.abs(diag)).min(axis=(0, 1))
    worst = int(np.argmin(margins))
    details = {"worst_margin": float(margins[worst]), "max_coupling_value": worst_alg}
    if margins[worst] < -RUNTIME_CONE_TOL:
        return CheckResult(
            "domination", FAIL, details, witness=traj_diag.trial(worst), witness_label="dominated_run"
        )
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
    _require_trials(trials)
    cfg = cfg or _DEFAULT_CFG
    accretive = is_discretely_accretive(form)
    u0 = [[np.ones(s.dim) for s in form.spaces]]
    for t in range(1, trials):
        rng = _trial_rng(seed, t)
        u0.append([rng.uniform(-1.0, 1.0, s.dim) for s in form.spaces])
    traj = evolve(form, _stack_trials(u0), cfg)
    sup = traj.observable("sup_norm")
    outside = sup > 1.0 + RUNTIME_CONE_TOL
    details = {"worst_sup_norm": float(sup.max()), "accretive": accretive}
    violators = np.flatnonzero(outside.any(axis=0))
    if violators.size:
        c = int(violators[0])
        details["first_violation_time"] = float(traj.times[np.argmax(outside[:, c])])
        label = "constant_one" if c == 0 else f"uniform_{c}"
        return CheckResult("linf", FAIL, details, witness=traj.trial(c), witness_label=label)
    if not accretive:
        return CheckResult(
            "linf", NOT_APPLICABLE, {**details, "reason": "form is not accretive, no violation found"}
        )
    return CheckResult("linf", PASS, details)


def strip_invariance_runtime(
    form: FormMatrix,
    proj: ProjectionSpec,
    alpha_levels,
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
    _require_trials(trials)
    cfg = cfg or _DEFAULT_CFG
    if not form.identical_spaces:
        return CheckResult("strip_runtime", NOT_APPLICABLE, {"reason": "component spaces differ"})
    if not is_discretely_accretive(form):
        return CheckResult("strip_runtime", NOT_APPLICABLE, {"reason": "form is not accretive"})
    n = form.spaces[0].dim
    alpha_levels = [float(a) for a in alpha_levels]
    if not alpha_levels or min(alpha_levels) < 0:
        raise ValidationError("strip distances must be a non-empty list of values >= 0")

    # Per-trial base draws, shared by all levels.  The in-phase part is
    # three times the strip radius so coupling leaks are visible against
    # the tolerance; trial 0 seeds the kernel part with nodal constants,
    # the slowest modes of a diffusive system.
    bases = []
    for t in range(trials):
        rng = _trial_rng(seed, t)
        fixed_nodal = [rng.standard_normal(n) for _ in range(proj.eig1.shape[1])]
        g0 = _combine(proj.eig1, fixed_nodal)
        g_norm = h_norm(form, g0)
        if g_norm > 0:
            g0 = [3.0 * b / g_norm for b in g0]
        k = proj.eig0.shape[1]
        if k:
            if t == 0:
                kernel_nodal = [rng.standard_normal() * np.ones(n) for _ in range(k)]
            else:
                kernel_nodal = [rng.standard_normal(n) for _ in range(k)]
            h0 = _combine(proj.eig0, kernel_nodal)
            k_norm = h_norm(form, h0)
            h0 = [b / k_norm for b in h0]
        else:
            h0 = [np.zeros(n) for _ in range(form.m)]
        bases.append((g0, h0))

    # one column per (level, trial), level-major
    u0 = [
        g0 if alpha == 0.0 else [alpha * (g + h) for g, h in zip(g0, h0)]
        for alpha in alpha_levels
        for g0, h0 in bases
    ]
    traj = evolve(form, _stack_trials(u0), cfg, proj=proj)
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
    witness = None
    witness_label = ""
    failing = np.flatnonzero(exceed.reshape(-1) > 0)
    if failing.size:
        lv, t = divmod(int(failing[0]), trials)
        witness = traj.trial(int(failing[0]))
        witness_label = f"alpha_{alpha_levels[lv]}_trial_{t}"
    positive = [lv["passed"] for lv in levels if lv["alpha"] > 0]
    scaling_consistent = len(set(positive)) <= 1
    all_pass = all(lv["passed"] for lv in levels)
    return CheckResult(
        "strip_runtime",
        PASS if all_pass else FAIL,
        {"levels": levels, "scaling_consistent": scaling_consistent},
        witness=witness,
        witness_label=witness_label,
    )
