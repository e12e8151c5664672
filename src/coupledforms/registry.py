"""Registry of criterion identifiers, the check table and the config reader.

Every report line that states a verdict carries one of these ids.
``CHECKS`` is the one table of the qualitative checks: each id's
description, the keys a config ``checks`` entry may give it, and its
runner.  :func:`read_section` reads every config object against such a
key spec.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import qualitative
from .errors import ConfigError
from .qualitative import CheckResult

REQUIRED = object()  # spec default of a key that must be given


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _list_of(test):
    return lambda v: isinstance(v, list) and all(map(test, v))


def _rectangular(v) -> bool:
    return _list_of(_list_of(_number))(v) and len({len(row) for row in v}) == 1


def _square_cells(v) -> bool:
    cells = _list_of(_list_of(lambda c: _number(c) or _list_of(_number)(c)))
    return cells(v) and len(v) > 0 and all(len(row) == len(v) for row in v)


# kind of a config value -> (description for error messages, test)
KINDS = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a finite number", _number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "floats": ("a list of finite numbers", _list_of(_number)),
    "strs": ("a list of strings", _list_of(lambda v: isinstance(v, str))),
    "objects": ("a list of objects", _list_of(lambda v: isinstance(v, dict))),
    "matrix": ("a rectangular list of lists of finite numbers", _rectangular),
    "complex": ("a finite number or a [re, im] pair", lambda v: _number(v) or (_list_of(_number)(v) and len(v) == 2)),
    "cells": ("a square list of lists of finite numbers or per-cell lists", _square_cells),
}


def read_section(section, spec: dict, where: str, known=()) -> dict:
    """Check the config object ``section`` against ``spec`` and return its values.

    ``spec`` maps each key to ``(kind, default)``.  A ``REQUIRED`` key must
    be given; an absent key with default ``None`` stays absent.  A missing
    section (``None``), a key outside ``spec`` and ``known`` or a value of
    the wrong kind raises :class:`ConfigError`.  Floats come back as floats.
    """
    if section is None:
        raise ConfigError(f"missing required section {where!r}")
    for key in section:
        if key not in spec and key not in known:
            raise ConfigError(f"unknown key {key!r} in {where}")
    values = {}
    for key, (kind, default) in spec.items():
        if key not in section:
            if default is REQUIRED:
                raise ConfigError(f"missing required key {key!r} in {where}")
            if default is not None:
                values[key] = default
            continue
        description, accepts = KINDS[kind]
        if not accepts(section[key]):
            raise ConfigError(f"{key!r} in {where} must be {description}, got {section[key]!r}")
        values[key] = float(section[key]) if kind == "float" else section[key]
    return values


def read_variant(section, variants: dict, tag: str, where: str) -> tuple:
    """Read an object whose ``tag`` names its spec in ``variants``; return (name, values).

    A key that only other variants take is accepted and ignored.
    """
    known = {tag}.union(*variants.values())
    name = read_section(section, {tag: ("str", REQUIRED)}, where, known)[tag]
    if name not in variants:
        raise ConfigError(f"unknown {tag} {name!r} in {where}")
    return name, read_section(section, variants[name], f"{where} {name!r}", known)


# ``run(ctx, params)`` gets the keys a ``checks`` entry gave, read
# against ``keys``, and a context with ``form``, ``seed``, ``cfg`` (the
# evolution config or None), ``coefficients()`` and ``projection()``,
# which read their config sections when called, and ``mean_weights()``.  A
# key that names a library parameter has default None, so an entry that
# leaves it out gets the library's default.
Check = namedtuple("Check", "description keys run")


def _product_subspace(ctx, params: dict) -> CheckResult:
    if params["subspace"] != "mean_zero":
        raise ConfigError("only the mean_zero product subspace is configurable")
    return qualitative.product_subspace_check(ctx.form, ctx.mean_weights())


CERTIFICATES = {
    "gershgorin": "row-dominance test on the coupling matrix, sufficient for positive definiteness",
    "ellipticity": "smallest eigenvalue of the symmetrized coupling matrix certifies coercivity",
    "continuity": "operator-norm bound on the full form from diagonal and coupling constants",
    "accretivity": "off-diagonal coupling blocks positive/negative semidefinite, sufficient for accretivity",
    "analyticity_angle": "sector half-angle of the generated analytic semigroup",
    "stability": "positive definite coupling with zero weak-coupling constants implies exponential decay",
}

CHECKS = {
    # numerical-range checks
    "sector": Check(
        "numerical range lies inside the sector (exact constants)",
        {"alpha": ("float", None), "shift": ("float", None), "bound": ("float", None)},
        lambda ctx, p: qualitative.sector_check(ctx.form, **p),
    ),
    "parabola": Check(
        "imaginary parts obey the mixed-norm parabola bound (exact)",
        {"m_tilde": ("float", None)},
        lambda ctx, p: qualitative.parabola_check(ctx.form, **p),
    ),
    # invariance and order checks
    "subspace_C": Check(
        "strip around a projected subspace is invariant (coupling residual, trial side)", {},
        lambda ctx, p: qualitative.subspace_invariance_check(ctx.form, ctx.projection(), "strip_C"),
    ),
    "subspace_B": Check(
        "ball around a projected subspace is invariant (coupling residual, test side)", {},
        lambda ctx, p: qualitative.subspace_invariance_check(ctx.form, ctx.projection(), "strip_B"),
    ),
    "product_subspace": Check(
        "componentwise product subspace is invariant", {"subspace": ("str", "mean_zero")}, _product_subspace
    ),
    "subsystem": Check(
        "leading subsystem evolves autonomously (lower coupling blocks vanish)", {"m0": ("int", REQUIRED)},
        lambda ctx, p: qualitative.subsystem_invariance_check(ctx.form, **p),
    ),
    "row_sums": Check(
        "coefficient row sums are constant across components, cell by cell", {},
        lambda ctx, p: qualitative.ephaptic_sum_check(ctx.coefficients(), "rows"),
    ),
    "column_sums": Check(
        "coefficient column sums are constant across components, cell by cell", {},
        lambda ctx, p: qualitative.ephaptic_sum_check(ctx.coefficients(), "columns"),
    ),
    "realness": Check(
        "all form blocks are real, so real data stay real", {}, lambda ctx, p: qualitative.realness_check(ctx.form)
    ),
    "positivity": Check(
        "nonnegative data stay nonnegative (sign test on couplings plus runtime trials)",
        {"trials": ("int", None), "runtime": ("bool", None)},
        lambda ctx, p: qualitative.positivity_check(ctx.form, cfg=ctx.cfg, seed=ctx.seed, **p),
    ),
    "domination": Check(
        "full evolution dominates the decoupled diagonal evolution on moduli", {"trials": ("int", None)},
        lambda ctx, p: qualitative.domination_check(ctx.form, cfg=ctx.cfg, seed=ctx.seed, **p),
    ),
    "linf": Check(
        "unit sup-norm ball stays invariant under the evolution", {"trials": ("int", None)},
        lambda ctx, p: qualitative.linf_contractivity_check(ctx.form, cfg=ctx.cfg, seed=ctx.seed, **p),
    ),
    "strip_runtime": Check(
        "runtime strip invariance at prescribed distances from the projected subspace",
        {"alpha_levels": ("floats", None), "trials": ("int", None)},
        lambda ctx, p: qualitative.strip_invariance_runtime(
            ctx.form, ctx.projection(), cfg=ctx.cfg, seed=ctx.seed, **p
        ),
    ),
}

CRITERIA = {**CERTIFICATES, **{check_id: check.description for check_id, check in CHECKS.items()}}
