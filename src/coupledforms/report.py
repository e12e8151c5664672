"""Serialization of reports, trajectories and witnesses.

The text and JSON forms of both verdict reports live here: the
certificate entries of ``certify`` and the check results of ``check``.
All files are written atomically (temp file in the target directory,
then rename) and floats use the shortest round-trip decimal form, so a
repeated run with the same config and seed produces byte-identical
output.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from dataclasses import asdict

import numpy as np

from .evolution import TrajectoryRecord
from .registry import CHECKS


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(value):
    """json's ``default`` hook: a numpy scalar is written as its Python value, anything else as its ``str``."""
    return value.item() if isinstance(value, np.generic) else str(value)


def _fmt(x: float) -> str:
    return repr(float(x))


def trajectory_to_csv(record: TrajectoryRecord) -> str:
    """Render a trajectory as CSV text; absent observables give empty fields."""
    comps = [f"comp_norm_{i + 1}" for i in range(len(record.final_state))]
    names = ["h_norm", *comps, "strip_distance", "projection_norm", "min_value", "sup_norm"]
    # one column at a time: repr of the Python floats of .tolist() is _fmt of each entry
    columns = [record.times] + [record.observables.get(name) for name in names]
    blank = [""] * len(record.times)
    fields = [blank if c is None else map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    return "\n".join([",".join(["t", *names]), *map(",".join, zip(*fields))]) + "\n"


def write_trajectory_csv(record: TrajectoryRecord, path: str) -> None:
    _atomic_write(path, trajectory_to_csv(record))


def certificates_to_text(entries) -> str:
    """One line per certificate entry: id, status, constants, explanation."""
    lines = []
    for e in entries:
        line = f"[{e.criterion}] {e.status.upper()}"
        if e.constants:
            line += " " + " ".join(f"{k}={_fmt(v)}" for k, v in e.constants.items())
        if e.explanation:
            line += " :: " + e.explanation
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_certificate_report(entries, txt_path: str, json_path: str) -> None:
    _atomic_write(txt_path, certificates_to_text(entries))
    payload = {"schema_version": 1, "entries": [asdict(e) for e in entries]}
    _atomic_write(json_path, json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def _detail_text(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_detail_text(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_detail_text(v)}" for k, v in value.items()) + "}"
    return str(value)


def _witness_names(results) -> list:
    """File name of each result's witness CSV, or None for a result without a witness.

    The first witness of a check id is ``witness_<id>.csv`` and the n-th
    ``witness_<id>_<n>.csv``, so a repeated id gives each entry its own file.
    """
    seen = Counter()
    names = []
    for res in results:
        if res.witness is None:
            names.append(None)
            continue
        seen[res.check_id] += 1
        n = seen[res.check_id]
        names.append(f"witness_{res.check_id}.csv" if n == 1 else f"witness_{res.check_id}_{n}.csv")
    return names


def check_results_to_text(results) -> str:
    """One verdict block per check: id, status, details, witness file."""
    blocks = []
    for res, witness in zip(results, _witness_names(results)):
        lines = [f"[{res.check_id}] {res.status.upper()}", f"  about: {CHECKS[res.check_id].description}"]
        for key, value in res.details.items():
            lines.append(f"  {key}: {_detail_text(value)}")
        if witness:
            lines.append(f"  witness_csv: {witness}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + "\n"


def check_results_to_records(results) -> list:
    return [
        {
            "check_id": res.check_id,
            "status": res.status,
            "details": res.details,
            "witness_csv": witness,
        }
        for res, witness in zip(results, _witness_names(results))
    ]


def write_check_report(results, txt_path: str, json_path: str) -> None:
    _atomic_write(txt_path, check_results_to_text(results))
    payload = {"schema_version": 1, "checks": check_results_to_records(results)}
    _atomic_write(json_path, json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")
