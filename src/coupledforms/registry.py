"""Registry of criterion identifiers, the check table and the config reader.

Every report line that states a verdict carries one of these ids.
``CERTIFICATES`` lists the six ids a ``certify`` config may request,
in the order :func:`coupledforms.certificates.run_all_certificates`
returns them.  ``CHECKS`` is the one table of the qualitative checks:
each id's description (the one a ``check`` report prints), the keys a
config ``checks`` entry may give it, and its runner, which gets the
run's :data:`Inputs` as values.
:func:`read_section` reads every config object against such a key spec,
and :func:`judge` every entry's values before any check runs.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import qualitative
from .errors import ConfigError

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


# ``run(inputs, params)`` gets the keys a ``checks`` entry gave, read
# against ``keys`` and passed by :func:`judge`, and the :data:`Inputs` of
# the run, all read from the config before the first check runs.  A key
# that names a library parameter has default None, so an entry that
# leaves it out gets the library's default.
Check = namedtuple("Check", "description keys run")

# the form, the evolution config (or None), the projection and the seed
Inputs = namedtuple("Inputs", "form cfg proj seed")


def _mean_weights(form) -> list:
    # the integral functional of each component: its ambient Gram times the all-ones vector
    return form.split(form.mass_csr @ np.ones(form.total_dim))


def judge(check_id: str, params: dict, inputs: Inputs) -> None:
    """Raise the error the check ``check_id`` would raise on ``params`` and ``inputs``, without running it."""
    if check_id in ("row_sums", "column_sums") and "coefficients" not in inputs.form.metadata:
        raise ConfigError(f"check {check_id!r} needs a coefficient-field model")
    if "trials" in params:
        qualitative._require_positive("trials", params["trials"])
    if "m0" in params:
        qualitative._require_leading(inputs.form.m, params["m0"])
    if "alpha_levels" in params:
        qualitative._require_levels(params["alpha_levels"])
    if check_id == "parabola":
        qualitative._parabola_constant(inputs.form, params.get("m_tilde"))


CERTIFICATES = ("gershgorin", "ellipticity", "continuity", "accretivity", "analyticity_angle", "stability")

CHECKS = {
    # numerical-range checks
    "sector": Check(
        "numerical range lies inside the sector (exact constants)",
        {"alpha": ("float", None), "shift": ("float", None), "bound": ("float", None)},
        lambda inp, p: qualitative.sector_check(inp.form, **p),
    ),
    "parabola": Check(
        "imaginary parts obey the mixed-norm parabola bound (exact)",
        {"m_tilde": ("float", None)},
        lambda inp, p: qualitative.parabola_check(inp.form, **p),
    ),
    # invariance and order checks
    "subspace_C": Check(
        "strip around a projected subspace is invariant (coupling residual, trial side)", {},
        lambda inp, p: qualitative.subspace_invariance_check(inp.form, inp.proj, "strip_C"),
    ),
    "subspace_B": Check(
        "ball around a projected subspace is invariant (coupling residual, test side)", {},
        lambda inp, p: qualitative.subspace_invariance_check(inp.form, inp.proj, "strip_B"),
    ),
    "product_subspace": Check(
        "componentwise product subspace is invariant", {},
        lambda inp, p: qualitative.product_subspace_check(inp.form, _mean_weights(inp.form)),
    ),
    "subsystem": Check(
        "leading subsystem evolves autonomously (lower coupling blocks vanish)", {"m0": ("int", REQUIRED)},
        lambda inp, p: qualitative.subsystem_invariance_check(inp.form, **p),
    ),
    "row_sums": Check(
        "coefficient row sums are constant across components, cell by cell", {},
        lambda inp, p: qualitative.ephaptic_sum_check(inp.form.metadata["coefficients"], "rows"),
    ),
    "column_sums": Check(
        "coefficient column sums are constant across components, cell by cell", {},
        lambda inp, p: qualitative.ephaptic_sum_check(inp.form.metadata["coefficients"], "columns"),
    ),
    "realness": Check(
        "all form blocks are real, so real data stay real", {}, lambda inp, p: qualitative.realness_check(inp.form)
    ),
    "positivity": Check(
        "nonnegative data stay nonnegative (sign test on couplings plus runtime trials)",
        {"trials": ("int", None), "runtime": ("bool", None)},
        lambda inp, p: qualitative.positivity_check(inp.form, cfg=inp.cfg, seed=inp.seed, **p),
    ),
    "domination": Check(
        "full evolution dominates the decoupled diagonal evolution on moduli", {"trials": ("int", None)},
        lambda inp, p: qualitative.domination_check(inp.form, cfg=inp.cfg, seed=inp.seed, **p),
    ),
    "linf": Check(
        "unit sup-norm ball stays invariant under the evolution", {"trials": ("int", None)},
        lambda inp, p: qualitative.linf_contractivity_check(inp.form, cfg=inp.cfg, seed=inp.seed, **p),
    ),
    "strip_runtime": Check(
        "runtime strip invariance at prescribed distances from the projected subspace",
        {"alpha_levels": ("floats", None), "trials": ("int", None)},
        lambda inp, p: qualitative.strip_invariance_runtime(
            inp.form, inp.proj, cfg=inp.cfg, seed=inp.seed, **p
        ),
    ),
}
