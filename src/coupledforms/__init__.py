"""Coupled sesquilinear-form systems: certificates, assembly, evolution, checks."""

from .certificates import (
    CertificateEntry,
    ConstantsBundle,
    accretivity_certificate,
    analyticity_angle,
    continuity_bound,
    ellipticity_certificate,
    gershgorin_check,
    min_symmetric_eigenvalue,
    run_all_certificates,
    spectral_norm,
    stability_check,
    symmetric_part,
)
from .errors import DimensionError, NumericalError, SolverError, ValidationError
from .evolution import EvolutionConfig, TrajectoryRecord, evolve, h_norm
from .forms import (
    DiscreteSpace,
    FormBlock,
    FormMatrix,
    embedding_norm,
    estimate_continuity,
    estimate_ellipticity,
    form_apply,
    full_ellipticity,
    is_discretely_accretive,
)
from .models import (
    CoefficientField,
    Grid1D,
    build_constant_coupled,
    build_damped_wave,
    build_dynamic_bc_heat,
    build_ephaptic,
    p1_mass,
    p1_stiffness,
    two_fibre_coupling,
)
from .qualitative import (
    CheckResult,
    ProjectionSpec,
    averaging_projection,
    domination_check,
    ephaptic_sum_check,
    linf_contractivity_check,
    make_projection,
    parabola_check,
    positivity_check,
    product_subspace_check,
    sector_check,
    strip_invariance_runtime,
    subspace_invariance_check,
    subsystem_invariance_check,
)

__version__ = "0.1.0"
