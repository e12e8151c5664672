"""Scalar matrix certificates for coupled-form well-posedness.

Everything in this module works on small constant matrices: the coupling
constants of an m-component system, never a discretization.  Each
criterion returns a :class:`CertificateEntry`, the computed constants
next to the verdict, and :func:`run_all_certificates` returns the list
of all of them in a fixed order; :mod:`coupledforms.report` writes that
list as text and JSON.  All operations are pure functions of immutable
inputs, safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericalError, ValidationError

# Eigenvalues within this relative distance of zero count as semidefinite.
SEMIDEFINITE_RTOL = 1e-10

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class ConstantsBundle:
    """Scalar constants of an m-component coupled system.

    Parameters
    ----------
    alpha : (m, m) array
        Coupling-strength matrix; off-diagonal entries must be <= 0
        (they enter continuity bounds with a flipped sign), diagonal
        entries carry the per-component coercivity constants.
    omega : (m, m) array, default zeros
        Weak-coupling constants multiplying the ambient-space norms.
    m_diag : (m,) array, default zeros
        Continuity constants of the diagonal forms, nonnegative.
    embedding_norm : float
        Norm of the injection of the form domain into the ambient space.
    """

    alpha: np.ndarray
    omega: np.ndarray = None
    m_diag: np.ndarray = None
    embedding_norm: float = 1.0

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)
        if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1]:
            raise DimensionError(f"alpha must be square, got shape {alpha.shape}")
        m = alpha.shape[0]
        omega = np.zeros((m, m)) if self.omega is None else np.array(self.omega, dtype=float)
        m_diag = np.zeros(m) if self.m_diag is None else np.array(self.m_diag, dtype=float)
        if m < 1:
            raise ValidationError("need at least one component")
        if omega.shape != (m, m):
            raise DimensionError(f"omega must be {m}x{m}, got {omega.shape}")
        if m_diag.shape != (m,):
            raise DimensionError(f"m_diag must have length {m}, got {m_diag.shape}")
        if not (np.isfinite(alpha).all() and np.isfinite(omega).all() and np.isfinite(m_diag).all()):
            raise ValidationError("constants must be finite")
        off = alpha - np.diag(np.diag(alpha))
        if (off > 0).any():
            raise ValidationError("off-diagonal alpha entries must be <= 0")
        if (m_diag < 0).any():
            raise ValidationError("diagonal continuity constants must be >= 0")
        if not self.embedding_norm >= 0:
            raise ValidationError("embedding_norm must be >= 0")
        for name, value in (("alpha", alpha), ("omega", omega), ("m_diag", m_diag)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "embedding_norm", float(self.embedding_norm))

    @property
    def m(self) -> int:
        return self.alpha.shape[0]


@dataclass
class CertificateEntry:
    """Verdict on one criterion, with the constants that decided it."""

    criterion: str
    status: str
    constants: dict = field(default_factory=dict)
    explanation: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS


def symmetric_part(a) -> np.ndarray:
    """Return (A + A^T)/2, formed as A/2 + A^T/2 so that entries near the float limit do not overflow."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a / 2.0 + a.T / 2.0


def min_symmetric_eigenvalue(a) -> float:
    """Smallest eigenvalue of the symmetric part of ``a``.

    The matrix is positive definite with constant ``alpha`` exactly when
    the returned value is >= ``alpha``.
    """
    s = symmetric_part(a)
    try:
        return float(np.linalg.eigvalsh(s)[0])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigvalsh is robust
        raise NumericalError(
            f"eigen solve failed on {s.shape[0]}x{s.shape[1]} matrix "
            f"(norm {np.linalg.norm(s):.3e}): {exc}"
        ) from exc


def spectral_norm(a) -> float:
    """Largest singular value."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def gershgorin_check(bundle: ConstantsBundle) -> CertificateEntry:
    """Row-dominance certificate on the coupling matrix.

    Passes when every diagonal entry strictly exceeds half the sum of
    the symmetrized off-diagonal magnitudes in its row, which places all
    eigenvalues of the symmetric part in the open right half plane.
    """
    a = bundle.alpha
    s = symmetric_part(a)
    m = bundle.m
    margins = np.empty(m)
    for i in range(m):
        radius = sum(abs(s[i, k]) for k in range(m) if k != i)
        margins[i] = a[i, i] - radius
    ok = bool((margins > 0).all())
    constants = {f"margin_{i}": margins[i] for i in range(m)}
    constants["min_margin"] = margins.min()
    return CertificateEntry(
        criterion="gershgorin",
        status=PASS if ok else FAIL,
        constants=constants,
        explanation="strict row dominance of the coupling matrix"
        if ok
        else "some row fails strict dominance",
    )


def ellipticity_certificate(bundle: ConstantsBundle) -> CertificateEntry:
    """Coercivity constant from the symmetrized coupling matrix.

    The certified constants are (alpha, ||omega||) with alpha the
    smallest symmetric eigenvalue and the spectral norm on omega.
    """
    alpha = min_symmetric_eigenvalue(bundle.alpha)
    omega_norm = spectral_norm(bundle.omega)
    ok = alpha > 0
    return CertificateEntry(
        criterion="ellipticity",
        status=PASS if ok else FAIL,
        constants={"alpha": alpha, "omega_norm": omega_norm},
        explanation=f"elliptic with constants ({alpha!r}, {omega_norm!r})"
        if ok
        else "symmetrized coupling matrix is not positive definite",
    )


def continuity_bound(bundle: ConstantsBundle) -> float:
    """Continuity constant ``||M|| + ||Omega_0|| * e^2`` of the full form.

    ``M`` carries the diagonal continuity constants and the negated
    off-diagonal coupling constants; ``Omega_0`` the off-diagonal
    magnitudes of the weak-coupling constants.
    """
    m_mat = -np.array(bundle.alpha)
    np.fill_diagonal(m_mat, bundle.m_diag)
    omega0 = np.abs(np.array(bundle.omega))
    np.fill_diagonal(omega0, 0.0)
    # np.square: a huge embedding_norm overflows to inf, not OverflowError
    return float(spectral_norm(m_mat) + spectral_norm(omega0) * np.square(bundle.embedding_norm))


def accretivity_certificate(bundle: ConstantsBundle, diagonal_accretive: bool = True) -> CertificateEntry:
    """Sufficient accretivity test on the coupling constants.

    Passes when the off-diagonal part of alpha is positive semidefinite
    and the off-diagonal part of omega is negative semidefinite.  The
    caller asserts accretivity of the diagonal forms; the flag is
    recorded with the verdict.
    """
    a0 = np.array(bundle.alpha)
    np.fill_diagonal(a0, 0.0)
    o0 = np.array(bundle.omega)
    np.fill_diagonal(o0, 0.0)
    a_min = min_symmetric_eigenvalue(a0)
    o_max = -min_symmetric_eigenvalue(-o0)
    a_tol = SEMIDEFINITE_RTOL * spectral_norm(a0)
    o_tol = SEMIDEFINITE_RTOL * spectral_norm(o0)
    constants = {"coupling_min_eig": a_min, "weak_coupling_max_eig": o_max}
    if not diagonal_accretive:
        return CertificateEntry(
            criterion="accretivity",
            status=NOT_APPLICABLE,
            constants=constants,
            explanation="diagonal forms not asserted accretive by caller",
        )
    ok = a_min >= -a_tol and o_max <= o_tol
    return CertificateEntry(
        criterion="accretivity",
        status=PASS if ok else FAIL,
        constants=constants,
        explanation="off-diagonal constants semidefinite, diagonal accretivity asserted by caller"
        if ok
        else "off-diagonal constant matrices are not semidefinite with the right signs",
    )


def analyticity_angle(bundle: ConstantsBundle) -> float:
    """Sector half-angle ``pi/2 - arctan(continuity bound)`` in radians.

    Meaningful once the ellipticity certificate passed; the formula is
    applied to the continuity bound exactly as stated, without dividing
    by the coercivity constant.
    """
    return math.pi / 2.0 - math.atan(continuity_bound(bundle))


def stability_check(bundle: ConstantsBundle) -> CertificateEntry:
    """Exponential-stability certificate for vanishing weak coupling.

    Only applicable when omega vanishes entrywise; then passes iff the
    symmetrized coupling matrix is strictly positive definite.
    """
    lam = min_symmetric_eigenvalue(bundle.alpha)
    if np.any(bundle.omega != 0.0):
        return CertificateEntry(
            criterion="stability",
            status=NOT_APPLICABLE,
            constants={"lambda_min": lam},
            explanation="weak-coupling constants are nonzero",
        )
    ok = lam > 0
    return CertificateEntry(
        criterion="stability",
        status=PASS if ok else FAIL,
        constants={"lambda_min": lam},
        explanation="uniform exponential decay certified" if ok else "coupling matrix not positive definite",
    )


#: Certificates gating the exit code of the ``certify`` command by default.
#: Continuity and the sector angle are informational, and the accretivity
#: test is a sufficient condition that coercive systems may legitimately
#: miss, so none of the three blocks a run unless explicitly requested.
DEFAULT_REQUESTED = ("gershgorin", "ellipticity", "stability")


def run_all_certificates(bundle: ConstantsBundle) -> list:
    """Evaluate every scalar certificate on one bundle; the entries in fixed order.

    The accretivity entry takes the diagonal forms as accretive.
    Constants too large for floating point overflow without warnings, and
    the first non-finite constant raises :class:`ValidationError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ell = ellipticity_certificate(bundle)
        bound = continuity_bound(bundle)
        entries = [
            gershgorin_check(bundle),
            ell,
            CertificateEntry("continuity", PASS, {"bound": bound}, "continuity constant of the full form"),
            accretivity_certificate(bundle),
            CertificateEntry(
                "analyticity_angle",
                PASS if ell.passed else NOT_APPLICABLE,
                {"angle_rad": analyticity_angle(bundle), "bound": bound},
                "sector half-angle of the analytic semigroup"
                if ell.passed
                else "angle formula evaluated, but ellipticity did not certify",
            ),
            stability_check(bundle),
        ]
    for e in entries:
        for key, value in e.constants.items():
            if not math.isfinite(value):
                raise ValidationError(f"non-finite constant {key!r} in {e.criterion!r}")
    return entries
