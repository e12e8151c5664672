"""Command-line front end.

Three subcommands, one JSON config file each:

* ``certify <config>``  - scalar certificates on a constants bundle,
  writes ``certify.txt`` and ``certify.json``.
* ``simulate <config>`` - assemble a model, evolve it, write
  ``trajectory.csv``.
* ``check <config>``    - run the requested qualitative checks, write
  ``checks.txt``, ``checks.json`` and witness CSVs.

Exit codes: 0 all requested criteria pass (not-applicable does not
fail), 1 a criterion failed or the solver broke down, 2 the config did
not parse or validate, or the problem it sets does not fit in memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import certificates, models, qualitative, report
from .certificates import FAIL, ConstantsBundle, run_all_certificates
from .errors import ConfigError, SolverError, ValidationError
from .evolution import EvolutionConfig, ProjectionSpec, evolve
from .forms import FormMatrix
from .models import CoefficientField, Grid1D
from .qualitative import CheckResult
from .registry import CERTIFICATES, CHECKS, REQUIRED, Inputs, _mean_weights, judge, read_section, read_variant

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

SCHEMA_VERSION = 1

# key -> (kind, default) of each config object, read by registry.read_section;
# a key that names a library parameter has default None, so the library's default applies
TOP = {
    "schema_version": ("int", REQUIRED),
    "seed": ("int", 0),
    "output": ("str", "out"),
    "criteria": ("strs", list(certificates.DEFAULT_REQUESTED)),
    "initial": ("object", {}),
    "checks": ("objects", None),
    **dict.fromkeys(("constants", "model", "grid", "evolution", "projection"), ("object", None)),
}
CONSTANTS = {
    "alpha": ("matrix", REQUIRED),
    "omega": ("matrix", None),
    "m_diag": ("floats", None),
    "embedding_norm": ("float", None),
}
MODELS = {
    "ephaptic": {"coefficients": ("cells", None), "pattern": ("object", None), "perturb": ("object", None)},
    "constant_coupled": {"coupling": ("matrix", REQUIRED)},
    "damped_wave": {"alpha": ("complex", None)},
    "dynamic_bc_heat": {},
}
PATTERN = {"kind": ("str", "difference"), "diffusion": ("float", None), "coupling": ("float", None)}
PERTURB = {"i": ("int", REQUIRED), "j": ("int", REQUIRED), "delta": ("float", REQUIRED)}
GRID = {"n_cells": ("int", REQUIRED), "length": ("float", None)}
EVOLUTION = {
    "dt": ("float", REQUIRED),
    "t_end": ("float", REQUIRED),
    "scheme": ("str", None),
    "record_every": ("int", None),
    "solver_tolerance": ("float", None),
}
INITIAL = {"kind": ("str", "zero"), "amplitude": ("float", 1.0)}
# without a matrix the projection is the averaging one
PROJECTION = {"matrix": ("matrix", None)}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    config = read_section(data, TOP, "config")
    if config["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {config['schema_version']!r}")
    return config


def _parse_evolution(config: dict) -> EvolutionConfig:
    return EvolutionConfig(**read_section(config.get("evolution"), EVOLUTION, "evolution"))


def _coefficients_from_model(model: dict, grid: Grid1D) -> CoefficientField:
    if "pattern" in model and "coefficients" in model:
        raise ConfigError("ephaptic model takes 'coefficients' or 'pattern', not both")
    if "pattern" in model:
        pattern = read_section(model["pattern"], PATTERN, "model pattern")
        field = CoefficientField.constant(models.two_fibre_coupling(**pattern), grid.n_cells)
    elif "coefficients" in model:
        cells = [[np.asarray(c, dtype=float) for c in row] for row in model["coefficients"]]
        if any(c.size not in (1, grid.n_cells) for row in cells for c in row):
            raise ConfigError(f"each model coefficient needs 1 or {grid.n_cells} values")
        field = CoefficientField(np.array([[np.broadcast_to(c, (grid.n_cells,)) for c in row] for row in cells]))
    else:
        raise ConfigError("ephaptic model needs 'coefficients' or 'pattern'")
    if "perturb" in model:
        perturb = read_section(model["perturb"], PERTURB, "model perturb")
        field = field.perturbed(perturb["i"], perturb["j"], perturb["delta"])
    return field


def _parse_model(config: dict) -> FormMatrix:
    name, model = read_variant(config.get("model"), MODELS, "name", "model")
    grid = Grid1D(**read_section(config.get("grid"), GRID, "grid"))
    if name == "ephaptic":
        return models.build_ephaptic(grid, _coefficients_from_model(model, grid))
    if name == "constant_coupled":
        return models.build_constant_coupled(grid, model["coupling"])
    if name == "damped_wave":
        if isinstance(model.get("alpha"), list):
            model["alpha"] = complex(*model["alpha"])
        return models.build_damped_wave(grid, **model)
    return models.build_dynamic_bc_heat(grid)


def _parse_projection(config: dict, form: FormMatrix):
    if "projection" not in config:
        return None
    section = read_section(config["projection"], PROJECTION, "projection")
    if "matrix" not in section:
        return qualitative.averaging_projection(form.m)
    proj = ProjectionSpec(np.asarray(section["matrix"], dtype=float))
    if proj.m != form.m:
        raise ConfigError(f"projection matrix must be {form.m}x{form.m} for this model, got {proj.m}x{proj.m}")
    return proj


def _build_initial(config: dict, form: FormMatrix, seed: int) -> list:
    section = read_section(config["initial"], INITIAL, "initial")
    kind = section["kind"]
    amplitude = section["amplitude"]
    rng = np.random.default_rng([seed, 2**20])
    dims = form.dims
    if kind == "zero":
        return [np.zeros(d) for d in dims]
    if kind == "constant":
        return [amplitude * np.ones(d) for d in dims]
    if kind == "random":
        return [amplitude * rng.standard_normal(d) for d in dims]
    if kind == "in_phase":
        if len(set(dims)) != 1:
            raise ConfigError("in_phase initial data needs identical component dimensions")
        x = amplitude * rng.standard_normal(dims[0])
        return [x.copy() for _ in dims]
    if kind == "mean_zero_random":
        out = []
        for d, w in zip(dims, _mean_weights(form)):
            u = amplitude * rng.standard_normal(d)
            u -= np.ones(d) * (float(w @ u) / float(w @ np.ones(d)))
            out.append(u)
        return out
    raise ConfigError(f"unknown initial data kind {kind!r}")


def _run_check(entry: dict, params: dict, inputs: Inputs) -> CheckResult:
    """Run the check that the raw ``checks`` entry names, on ``params`` read from it."""
    return CHECKS[entry["id"]].run(inputs, params)


def _resolve_out(config: dict, args) -> str:
    out = args.out or config["output"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out!r}: {exc}") from exc
    return out


def _resolve_seed(config: dict, args) -> int:
    seed = config["seed"] if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def cmd_certify(args) -> int:
    config = _load_config(args.config)
    constants = read_section(config.get("constants"), CONSTANTS, "constants")
    requested = config["criteria"]
    unknown = [c for c in requested if c not in CERTIFICATES]
    if unknown:
        raise ConfigError(f"unknown certificate criteria requested: {unknown}")
    entries = run_all_certificates(ConstantsBundle(**constants))
    out = _resolve_out(config, args)
    report.write_certificate_report(entries, os.path.join(out, "certify.txt"), os.path.join(out, "certify.json"))
    if not args.quiet:
        sys.stdout.write(report.certificates_to_text(entries))
    return EXIT_FAIL if any(e.status == FAIL and e.criterion in requested for e in entries) else EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    form = _parse_model(config)
    cfg = _parse_evolution(config)
    seed = _resolve_seed(config, args)
    u0 = _build_initial(config, form, seed)
    proj = _parse_projection(config, form)
    if proj is not None and not form.identical_spaces:
        raise ConfigError("a lifted projection requires all component spaces to be identical")
    out = _resolve_out(config, args)
    record = evolve(form, u0, cfg, proj=proj)
    path = os.path.join(out, "trajectory.csv")
    report.write_trajectory_csv(record, path)
    if not args.quiet:
        sys.stdout.write(f"wrote {path} ({len(record.times)} records)\n")
    return EXIT_OK


def cmd_check(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(config, args)
    if not config.get("checks"):
        raise ConfigError("check needs a non-empty 'checks' list")
    # every section a check reads is read here, so bad input exits 2 before any check runs
    keys = {cid: check.keys for cid, check in CHECKS.items()}
    params = [read_variant(entry, keys, "id", "checks entry")[1] for entry in config["checks"]]
    cfg = _parse_evolution(config) if "evolution" in config else None
    form = _parse_model(config)
    proj = _parse_projection(config, form) or qualitative.averaging_projection(form.m)
    inputs = Inputs(form, cfg, proj, seed)
    for entry, p in zip(config["checks"], params):
        judge(entry["id"], p, inputs)
    out = _resolve_out(config, args)
    results = [_run_check(entry, p, inputs) for entry, p in zip(config["checks"], params)]
    for res, name in zip(results, report._witness_names(results)):
        if name:
            report.write_trajectory_csv(res.witness, os.path.join(out, name))
    report.write_check_report(results, os.path.join(out, "checks.txt"), os.path.join(out, "checks.json"))
    if not args.quiet:
        sys.stdout.write(report.check_results_to_text(results))
    return EXIT_FAIL if any(r.failed for r in results) else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default=None, help="override the output directory")
    common.add_argument("--quiet", action="store_true", help="suppress stdout reporting")
    parser = argparse.ArgumentParser(
        prog="coupledforms",
        description="certificates, simulations and qualitative checks for coupled-form systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, doc in (
        ("certify", cmd_certify, "run the scalar certificates on a constants bundle"),
        ("simulate", cmd_simulate, "assemble a model, evolve it and write trajectory.csv"),
        ("check", cmd_check, "run the requested qualitative checks on a model"),
    ):
        p = sub.add_parser(name, parents=[common], help=doc)
        p.add_argument("config", help="path to the JSON experiment config")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflowing input is reported once, by the check that finds it non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ValidationError as exc:
        label = "config error" if isinstance(exc, ConfigError) else "validation error"
        sys.stderr.write(f"{label}: {exc}\n")
        return EXIT_CONFIG
    except SolverError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_FAIL
    except MemoryError as exc:
        sys.stderr.write(f"config error: the problem does not fit in memory: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
