"""The three benchmark workloads.

Each workload generates its inputs from the seed when it is built (that
is the set-up), returns its operations for one pass from
``operations()`` and judges what an operation returned with
``verify()``, against a reference computed apart from the program or a
value the theory predicts.  One operation is one API call sequence or
one CLI call; it fails on an exception, on exit code 2 or on any
mismatch found by ``verify``.

Calls into the package go through module attributes looked up at call
time (``cf.evolve``, ``cli.main``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from pathlib import Path

import numpy as np

import reference

#: Relative agreement of the simulate observables with the modal reference.
REFERENCE_RTOL = 1e-10
#: Relative slack allowed on "h_norm never increases", for round-off.
MONOTONE_RTOL = 1e-12
#: Absolute (alpha) and relative (bound) tolerance on the spectral constants.
SPECTRAL_TOL = 1e-9

RING = [[3, -1, -1, 0], [-1, 3, 0, -1], [-1, 0, 3, -1], [0, -1, -1, 3]]
TRIAL_CHECKS = ("realness", "positivity", "domination", "linf")
TRIAL_VERDICTS = {"realness": "pass", "positivity": "pass", "domination": "pass", "linf": "fail"}
COUPLED_CHECKS = ("row_sums", "column_sums", "realness", "subspace_C", "subspace_B", "product_subspace", "sector")
WAVE_CHECKS = ("product_subspace", "sector", "parabola")
CHECK_IDS = tuple(dict.fromkeys(TRIAL_CHECKS + COUPLED_CHECKS + WAVE_CHECKS))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _read_csv_columns(path: Path) -> dict:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


class Workload:
    name = ""
    sizes = {"full": 0, "smoke": 0}

    def __init__(self, cf, work: Path, seed: int, smoke: bool = False):
        self.cf = cf
        self.work = work
        self.seed = seed
        self.n_cells = self.sizes["smoke" if smoke else "full"]
        self.out = work / "out"
        work.mkdir(parents=True, exist_ok=True)

    def reset(self) -> None:
        """Remove the previous pass's outputs."""
        shutil.rmtree(self.out, ignore_errors=True)

    def operations(self) -> list:
        raise NotImplementedError

    def verify(self, op: str, result) -> list:
        raise NotImplementedError

    def _cli(self, *argv) -> int:
        from coupledforms import cli

        return cli.main([*argv, "--seed", str(self.seed), "--quiet"])


class SimulateStepping(Workload):
    """Two-fibre ephaptic model, Crank-Nicolson to t = 1, every step recorded."""

    name = "simulate_stepping"
    sizes = {"full": 512, "smoke": 32}
    diffusion, coupling, dt, t_end = 2.0, 0.5, 1e-3, 1.0

    def __init__(self, cf, work, seed, smoke=False):
        super().__init__(cf, work, seed, smoke)
        rng = np.random.default_rng([seed, 1])
        self.u0 = [rng.standard_normal(self.n_cells + 1) for _ in range(2)]
        self.csv = self.out / "trajectory.csv"
        self._reference = None

    def operations(self) -> list:
        return [("simulate", self._simulate)]

    def _simulate(self):
        cf = self.cf
        from coupledforms import report

        grid = cf.Grid1D(n_cells=self.n_cells, length=1.0)
        coupling = cf.two_fibre_coupling("difference", diffusion=self.diffusion, coupling=self.coupling)
        form = cf.build_ephaptic(grid, cf.CoefficientField.constant(coupling, self.n_cells))
        cfg = cf.EvolutionConfig(dt=self.dt, t_end=self.t_end, scheme="crank-nicolson", record_every=1)
        record = cf.evolve(form, [u.copy() for u in self.u0], cfg, proj=cf.averaging_projection(2))
        report.write_trajectory_csv(record, str(self.csv))
        return record

    def reference(self) -> dict:
        if self._reference is None:
            n_steps = int(round(self.t_end / self.dt))
            self._reference = reference.two_fibre_cn_observables(
                self.u0, self.n_cells, self.diffusion, self.coupling, self.dt, n_steps
            )
        return self._reference

    def verify(self, op, record) -> list:
        ref = self.reference()
        problems = []
        if len(record.times) != len(ref["h_norm"]):
            return [f"{len(record.times)} records, expected {len(ref['h_norm'])}"]
        for name, expected in ref.items():
            got = record.observable(name)
            rel = float(np.max(np.abs(got - expected) / np.abs(expected)))
            if not rel <= REFERENCE_RTOL:
                problems.append(f"{name} differs from the modal reference by {rel:.3e} relative")
        h = record.observable("h_norm")
        if not np.all(h[1:] <= h[:-1] * (1.0 + MONOTONE_RTOL)):
            problems.append("h_norm increased")
        columns = _read_csv_columns(self.csv)
        for name in ("t", "h_norm", "strip_distance", "projection_norm", "sup_norm"):
            values = record.times if name == "t" else record.observable(name)
            if [float(v) for v in columns.get(name, [])] != list(values):
                problems.append(f"trajectory.csv column {name} does not round-trip")
        return problems


class CheckTrials(Workload):
    """``check`` on dynamic_bc_heat: four checks, 20 runtime trials each."""

    name = "check_trials"
    sizes = {"full": 512, "smoke": 32}

    def __init__(self, cf, work, seed, smoke=False):
        super().__init__(cf, work, seed, smoke)
        self.config = work / "check_trials.json"
        _write_json(self.config, {
            "schema_version": 1,
            "model": {"name": "dynamic_bc_heat"},
            "grid": {"n_cells": self.n_cells, "length": 1.0},
            "checks": [{"id": cid, "trials": 20} for cid in TRIAL_CHECKS],
        })

    def operations(self) -> list:
        return [("check", lambda: self._cli("check", str(self.config), "--out", str(self.out)))]

    def verify(self, op, code) -> list:
        # linf must FAIL (the trace source term pushes the sup norm above 1), so exit code 1 is success
        if code != 1:
            return [f"exit code {code}, expected 1"]
        checks = json.loads((self.out / "checks.json").read_text())["checks"]
        verdicts = {c["check_id"]: c["status"] for c in checks}
        problems = [] if verdicts == TRIAL_VERDICTS else [f"verdicts {verdicts}, expected {TRIAL_VERDICTS}"]
        witness = self.out / "witness_linf.csv"
        if not witness.is_file():
            return problems + ["no linf witness CSV"]
        if not max(float(v) for v in _read_csv_columns(witness)["sup_norm"]) > 1.0:
            problems.append("linf witness never leaves the unit ball")
        return problems


class CheckSpectral(Workload):
    """``certify`` on the 4-cycle coupling, spectral checks on two models."""

    name = "check_spectral"
    sizes = {"full": 256, "smoke": 16}

    def __init__(self, cf, work, seed, smoke=False):
        super().__init__(cf, work, seed, smoke)
        grid = {"n_cells": self.n_cells, "length": 1.0}
        self.configs = {
            "certify": {"schema_version": 1, "constants": {"alpha": RING}},
            "coupled": {
                "schema_version": 1,
                "model": {"name": "constant_coupled", "coupling": RING},
                "grid": grid,
                "checks": [{"id": cid} for cid in COUPLED_CHECKS],
            },
            "wave": {
                "schema_version": 1,
                "model": {"name": "damped_wave", "alpha": 1.0},
                "grid": grid,
                "checks": [{"id": cid} for cid in WAVE_CHECKS],
            },
        }
        for op, payload in self.configs.items():
            _write_json(work / f"{op}.json", payload)

    def operations(self) -> list:
        return [
            (op, lambda op=op: self._cli("certify" if op == "certify" else "check", str(self.work / f"{op}.json"), "--out", str(self.out / op)))
            for op in self.configs
        ]

    def verify(self, op, code) -> list:
        if code != 0:
            return [f"{op}: exit code {code}, expected 0"]
        if op == "certify":
            return self._verify_certify()
        checks = json.loads((self.out / op / "checks.json").read_text())["checks"]
        problems = [f"{op}: {c['check_id']} is {c['status']}" for c in checks if c["status"] != "pass"]
        expected_ids = COUPLED_CHECKS if op == "coupled" else WAVE_CHECKS
        if tuple(c["check_id"] for c in checks) != expected_ids:
            problems.append(f"{op}: checks {[c['check_id'] for c in checks]}")
        if op == "coupled":
            sector = next(c["details"] for c in checks if c["check_id"] == "sector")
            # constants lie in the kernel of every block, so the ellipticity constant is 0
            if not abs(sector["alpha"]) <= SPECTRAL_TOL:
                problems.append(f"coupled: sector alpha {sector['alpha']!r}, expected 0")
            # continuity: ||(|c_ij|)||_2 * mu_max / (1 + mu_max), and the 4-cycle's |c| has norm 3 + 2
            mu_max = float(reference.neumann_p1_eigenvalues(self.n_cells).max())
            bound = 5.0 * mu_max / (1.0 + mu_max)
            if not abs(sector["bound"] - bound) <= SPECTRAL_TOL * bound:
                problems.append(f"coupled: sector bound {sector['bound']!r}, expected {bound!r}")
        return problems

    def _verify_certify(self) -> list:
        entries = {e["criterion"]: e for e in json.loads((self.out / "certify" / "certify.json").read_text())["entries"]}
        lam_min = float(reference.cycle_coupling_eigenvalues(3.0, -1.0, 4).min())
        margin = 3.0 - 2 * 1.0  # diagonal minus the two off-diagonal magnitudes of each row
        expected = (("ellipticity", "alpha", lam_min), ("stability", "lambda_min", lam_min), ("gershgorin", "min_margin", margin))
        problems = []
        for criterion, key, value in expected:
            entry = entries.get(criterion, {})
            got = entry.get("constants", {}).get(key, math.nan)
            if entry.get("status") != "pass" or not abs(got - value) <= SPECTRAL_TOL:
                problems.append(f"certify: {criterion} {key}={got!r} ({entry.get('status')}), expected {value!r}")
        return problems


WORKLOADS = {w.name: w for w in (SimulateStepping, CheckTrials, CheckSpectral)}
