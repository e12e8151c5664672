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
not parse or validate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import certificates, forms, models, qualitative, report
from .certificates import ConstantsBundle, run_all_certificates
from .errors import SolverError, ValidationError
from .evolution import EvolutionConfig, evolve
from .forms import FormMatrix, full_ellipticity, numerical_range_samples
from .models import CoefficientField, Grid1D
from .qualitative import CheckResult

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2

SCHEMA_VERSION = 1


class ConfigError(ValidationError):
    """Config file is syntactically fine but semantically invalid."""


def _load_config(path: str) -> dict:
    try:
        with open(path, "r") as handle:
            data = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    return data


def _require(config: dict, field: str) -> object:
    if field not in config:
        raise ConfigError(f"missing required config field {field!r}")
    return config[field]


def _parse_grid(config: dict) -> Grid1D:
    section = _require(config, "grid")
    try:
        return Grid1D(int(section["n_cells"]), float(section.get("length", 1.0)))
    except KeyError as exc:
        raise ConfigError(f"grid section is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid grid section: {exc}") from exc


def _parse_evolution(config: dict) -> EvolutionConfig:
    section = _require(config, "evolution")
    try:
        return EvolutionConfig(
            dt=float(section["dt"]),
            t_end=float(section["t_end"]),
            scheme=section.get("scheme", "implicit-euler"),
            record_every=int(section.get("record_every", 1)),
            solver_tolerance=float(section.get("solver_tolerance", 1e-9)),
        )
    except KeyError as exc:
        raise ConfigError(f"evolution section is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid evolution section: {exc}") from exc


def _coefficients_from_model(section: dict, grid: Grid1D) -> CoefficientField:
    if "pattern" in section:
        pattern = section["pattern"]
        matrix = models.two_fibre_coupling(
            pattern.get("kind", "difference"),
            diffusion=float(pattern.get("diffusion", 2.0)),
            coupling=float(pattern.get("coupling", 0.5)),
        )
        field = CoefficientField.constant(matrix, grid.n_cells)
    elif "coefficients" in section:
        raw = section["coefficients"]
        m = len(raw)
        values = np.zeros((m, m, grid.n_cells))
        for i in range(m):
            if len(raw[i]) != m:
                raise ConfigError("coefficients must form a square grid")
            for j in range(m):
                values[i, j, :] = np.broadcast_to(np.asarray(raw[i][j], dtype=float), (grid.n_cells,))
        field = CoefficientField(values)
    else:
        raise ConfigError("ephaptic model needs 'coefficients' or 'pattern'")
    if "perturb" in section:
        p = section["perturb"]
        field = field.perturbed(int(p["i"]), int(p["j"]), float(p["delta"]))
    return field


def _parse_model(config: dict):
    """Return (form, coefficient_field_or_None)."""
    section = _require(config, "model")
    name = section.get("name")
    grid = _parse_grid(config)
    try:
        if name == "ephaptic":
            coeffs = _coefficients_from_model(section, grid)
            return models.build_ephaptic(grid, coeffs), coeffs
        if name == "constant_coupled":
            coupling = np.asarray(_require(section, "coupling"), dtype=float)
            form = models.build_constant_coupled(grid, coupling)
            return form, CoefficientField.constant(coupling, grid.n_cells)
        if name == "damped_wave":
            alpha = section.get("alpha", 1.0)
            if isinstance(alpha, (list, tuple)):
                alpha = complex(alpha[0], alpha[1])
            return models.build_damped_wave(grid, alpha), None
        if name == "dynamic_bc_heat":
            return models.build_dynamic_bc_heat(grid), None
    except (ValidationError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid model section: {exc}") from exc
    raise ConfigError(f"unknown model name {name!r}")


def _parse_projection(config: dict, form: FormMatrix):
    section = config.get("projection")
    if section is None:
        return None
    if "matrix" in section:
        return qualitative.make_projection(np.asarray(section["matrix"], dtype=float))
    kind = section.get("kind", "averaging")
    if kind == "averaging":
        return qualitative.averaging_projection(form.m)
    raise ConfigError(f"unknown projection kind {kind!r}")


def _mean_weights(form: FormMatrix, grid: Grid1D) -> list:
    mass = models.p1_mass(grid)
    weights = []
    for space in form.spaces:
        if space.dim == grid.n_nodes:
            weights.append(mass @ np.ones(grid.n_nodes))
        else:
            weights.append(np.ones(space.dim))
    return weights


def _build_initial(config: dict, form: FormMatrix, seed: int) -> list:
    section = config.get("initial", {"kind": "zero"})
    kind = section.get("kind", "zero")
    amplitude = float(section.get("amplitude", 1.0))
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
        grid = _parse_grid(config)
        weights = _mean_weights(form, grid)
        out = []
        for d, w in zip(dims, weights):
            u = amplitude * rng.standard_normal(d)
            u -= np.ones(d) * (float(w @ u) / float(w @ np.ones(d)))
            out.append(u)
        return out
    raise ConfigError(f"unknown initial data kind {kind!r}")


def _continuity_norm(form: FormMatrix) -> float:
    consts = np.array(
        [[forms.estimate_continuity(form, i, j) for j in range(form.m)] for i in range(form.m)]
    )
    return float(np.linalg.norm(consts, 2))


def _sample_count(entry: dict) -> int:
    # zero samples would make the range checks pass vacuously
    count = int(entry.get("count", 1000))
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    return count


def _run_check(entry: dict, form: FormMatrix, coeffs, config: dict, seed: int) -> CheckResult:
    check_id = entry.get("id")
    trials = int(entry.get("trials", 20))
    cfg = _parse_evolution(config) if "evolution" in config else None
    if check_id in ("row_sums", "column_sums"):
        if coeffs is None:
            raise ConfigError(f"check {check_id!r} needs a coefficient-field model")
        which = "rows" if check_id == "row_sums" else "columns"
        return qualitative.ephaptic_sum_check(coeffs, which)
    if check_id in ("subspace_C", "subspace_B"):
        proj = _parse_projection(config, form) or qualitative.averaging_projection(form.m)
        direction = "strip_C" if check_id == "subspace_C" else "strip_B"
        return qualitative.subspace_invariance_check(form, proj, direction)
    if check_id == "product_subspace":
        if entry.get("subspace", "mean_zero") != "mean_zero":
            raise ConfigError("only the mean_zero product subspace is configurable")
        grid = _parse_grid(config)
        weights = _mean_weights(form, grid)
        projections = [
            qualitative.mean_zero_projection(space, w) for space, w in zip(form.spaces, weights)
        ]
        return qualitative.product_subspace_check(form, projections)
    if check_id == "subsystem":
        return qualitative.subsystem_invariance_check(form, int(_require(entry, "m0")))
    if check_id == "realness":
        return qualitative.realness_check(form)
    if check_id == "positivity":
        return qualitative.positivity_check(
            form, runtime=bool(entry.get("runtime", True)), trials=trials, cfg=cfg, seed=seed
        )
    if check_id == "domination":
        return qualitative.domination_check(form, trials=trials, cfg=cfg, seed=seed)
    if check_id == "linf":
        return qualitative.linf_contractivity_check(form, trials=trials, cfg=cfg, seed=seed)
    if check_id == "strip_runtime":
        proj = _parse_projection(config, form) or qualitative.averaging_projection(form.m)
        levels = entry.get("alpha_levels", [0.1, 1.0, 10.0])
        return qualitative.strip_invariance_runtime(
            form, proj, levels, cfg=cfg, trials=int(entry.get("trials", 3)), seed=seed
        )
    if check_id == "sector":
        count = _sample_count(entry)
        shift = float(entry.get("shift", 0.0))
        alpha = float(entry["alpha"]) if "alpha" in entry else full_ellipticity(form, shift)
        bound = float(entry["bound"]) if "bound" in entry else _continuity_norm(form)
        samples = numerical_range_samples(form, count, seed=seed)
        res = forms.sector_check(samples, alpha, shift, bound)
        status = qualitative.PASS if res.passed else qualitative.FAIL
        return CheckResult("sector", status, {"worst_margin": res.worst_margin, "alpha": alpha, "bound": bound})
    if check_id == "parabola":
        count = _sample_count(entry)
        if "m_tilde" in entry:
            m_tilde = float(entry["m_tilde"])
        elif "parabola_constant" in form.metadata:
            m_tilde = float(form.metadata["parabola_constant"])
        else:
            raise ConfigError("parabola check needs 'm_tilde' or a model that reports one")
        samples = numerical_range_samples(form, count, seed=seed)
        res = forms.parabola_check(samples, m_tilde)
        status = qualitative.PASS if res.passed else qualitative.FAIL
        return CheckResult("parabola", status, {"worst_margin": res.worst_margin, "m_tilde": m_tilde})
    raise ConfigError(f"unknown check id {check_id!r}")


def _resolve_out(config: dict, args) -> str:
    out = args.out or config.get("output", "out")
    os.makedirs(out, exist_ok=True)
    return out


def _resolve_seed(config: dict, args) -> int:
    if args.seed is not None:
        return int(args.seed)
    return int(config.get("seed", 0))


def cmd_certify(args) -> int:
    config = _load_config(args.config)
    if "constants" not in config:
        raise ConfigError("certify needs a 'constants' section")
    try:
        bundle = ConstantsBundle.from_dict(config["constants"])
    except (ValidationError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid constants section: {exc}") from exc
    rep = run_all_certificates(bundle)
    requested = config.get("criteria", list(certificates.DEFAULT_REQUESTED))
    known = {e.criterion for e in rep.entries}
    unknown = [c for c in requested if c not in known]
    if unknown:
        raise ConfigError(f"unknown certificate criteria requested: {unknown}")
    out = _resolve_out(config, args)
    report.write_certificate_report(
        rep, os.path.join(out, "certify.txt"), os.path.join(out, "certify.json")
    )
    if not args.quiet:
        sys.stdout.write(rep.to_text())
    return EXIT_FAIL if rep.failed(requested) else EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    form, _ = _parse_model(config)
    cfg = _parse_evolution(config)
    seed = _resolve_seed(config, args)
    u0 = _build_initial(config, form, seed)
    proj = _parse_projection(config, form)
    out = _resolve_out(config, args)
    try:
        record = evolve(form, u0, cfg, proj=proj)
    except SolverError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_FAIL
    path = os.path.join(out, "trajectory.csv")
    report.write_trajectory_csv(record, path)
    if not args.quiet:
        sys.stdout.write(f"wrote {path} ({len(record.times)} records)\n")
    return EXIT_OK


def cmd_check(args) -> int:
    config = _load_config(args.config)
    form, coeffs = _parse_model(config)
    seed = _resolve_seed(config, args)
    checks = config.get("checks")
    if not checks:
        raise ConfigError("check needs a non-empty 'checks' list")
    results = []
    for entry in checks:
        if not isinstance(entry, dict) or "id" not in entry:
            raise ConfigError("each checks entry must be an object with an 'id'")
        results.append(_run_check(entry, form, coeffs, config, seed))
    out = _resolve_out(config, args)
    witness_files = {}
    for res in results:
        if res.witness is not None:
            name = f"witness_{res.check_id}.csv"
            report.write_trajectory_csv(res.witness, os.path.join(out, name))
            witness_files[res.check_id] = name
    report.write_check_report(
        results,
        os.path.join(out, "checks.txt"),
        os.path.join(out, "checks.json"),
        witness_files,
    )
    if not args.quiet:
        sys.stdout.write(report.check_results_to_text(results, witness_files))
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
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_CONFIG
    except SolverError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
