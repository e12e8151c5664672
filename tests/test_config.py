"""Config reading: malformed configs, a fuzz over config dicts, the README table."""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coupledforms.cli import main
from coupledforms.registry import CERTIFICATES, CHECKS

OUTPUTS = ("checks.json", "checks.txt", "trajectory.csv", "certify.json", "certify.txt")

PATTERN_MODEL = {"name": "ephaptic", "pattern": {"kind": "difference", "diffusion": 2.0, "coupling": 0.5}}
BASES = {
    "certify": {"schema_version": 1, "constants": {"alpha": [[2, -1], [-1, 2]]}},
    "simulate": {
        "schema_version": 1,
        "model": PATTERN_MODEL,
        "grid": {"n_cells": 8, "length": 1.0},
        "evolution": {"dt": 0.01, "t_end": 0.1, "record_every": 1},
        "initial": {"kind": "in_phase", "amplitude": 1.0},
    },
    "check": {
        "schema_version": 1,
        "model": PATTERN_MODEL,
        "grid": {"n_cells": 8},
        "evolution": {"dt": 0.01, "t_end": 0.1},
        "checks": [{"id": "row_sums"}],
    },
}


def with_value(command, path, value):
    config = copy.deepcopy(BASES[command])
    section = config
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return config


def run(command, config, directory, *flags):
    path = Path(directory) / "c.json"
    path.write_text(json.dumps(config))
    return main([command, str(path), "--quiet", *flags])


# before configs were read strictly, most of these exited 1 with a traceback or ran after misreading a value
MALFORMED = {
    "perturb_i_out_of_range": ("simulate", ("model", "perturb"), {"i": 5, "j": 0, "delta": 0.6}),
    "perturb_i_negative": ("simulate", ("model", "perturb"), {"i": -1, "j": 0, "delta": 0.6}),
    "pattern_string": ("simulate", ("model", "pattern"), "difference"),
    "model_string": ("simulate", ("model",), "ephaptic"),
    "projection_string": ("simulate", ("projection",), "averaging"),
    "initial_string": ("simulate", ("initial",), "random"),
    "coefficients_number": ("simulate", ("model",), {"name": "ephaptic", "coefficients": 3}),
    "coefficients_ragged": ("simulate", ("model",), {"name": "ephaptic", "coefficients": [[1.5, -0.5], [1.5]]}),
    "coefficients_cells_short": ("simulate", ("model",), {"name": "ephaptic", "coefficients": [[1, [0, 0]], [0, 1]]}),
    "damped_wave_alpha_short": ("simulate", ("model",), {"name": "damped_wave", "alpha": [1]}),
    "damped_wave_alpha_long": ("simulate", ("model",), {"name": "damped_wave", "alpha": [1, 0, 0]}),
    "seed_string": ("simulate", ("seed",), "x"),
    "amplitude_string": ("simulate", ("initial", "amplitude"), "x"),
    "t_end_infinite": ("simulate", ("evolution", "t_end"), float("inf")),
    "n_cells_fraction": ("simulate", ("grid", "n_cells"), 8.7),
    "record_every_string": ("simulate", ("evolution", "record_every"), "2"),
    "alpha_levels_string": ("check", ("checks",), [{"id": "strip_runtime", "alpha_levels": "abc"}]),
    "alpha_levels_mixed": ("check", ("checks",), [{"id": "strip_runtime", "alpha_levels": [1, "a"]}]),
    "alpha_levels_number": ("check", ("checks",), [{"id": "strip_runtime", "alpha_levels": 5}]),
    "trials_string": ("check", ("checks",), [{"id": "positivity", "trials": "many"}]),
    "trials_bool": ("check", ("checks",), [{"id": "linf", "trials": True}]),
    "m0_string": ("check", ("checks",), [{"id": "subsystem", "m0": "x"}]),
    "sector_alpha_string": ("check", ("checks",), [{"id": "sector", "alpha": "x"}]),
    "m_tilde_string": ("check", ("checks",), [{"id": "parabola", "m_tilde": "x"}]),
    "m_tilde_nan": ("check", ("checks",), [{"id": "parabola", "m_tilde": float("nan")}]),
    "trials_misspelt": ("check", ("checks",), [{"id": "realness", "trails": 2}]),
    "count_fraction": ("check", ("checks",), [{"id": "sector", "count": 2.5}]),
    "runtime_string": ("check", ("checks",), [{"id": "positivity", "runtime": "no"}]),
    "output_number": ("check", ("output",), 5),
    "criteria_nested": ("certify", ("criteria",), [["x"]]),
    # keys that say one thing two ways are exclusive
    "pattern_with_coefficients": ("simulate", ("model", "coefficients"), [[5, 1], [1, 5]]),
    # the retired projection key, even with its one former value, is unknown like any typo
    "projection_kind": ("simulate", ("projection",), {"kind": "averaging"}),
    "projection_matrix_with_kind": ("simulate", ("projection",), {"kind": "averaging", "matrix": [[1, 0], [0, 1]]}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_config_exits_two_with_one_line(tmp_path, capsys, monkeypatch, name):
    command, path, value = MALFORMED[name]
    monkeypatch.chdir(tmp_path)  # "output" is not overridden below, so a run would write here
    assert run(command, with_value(command, path, value), tmp_path) == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert not [p for p in tmp_path.rglob("*") if p.name in OUTPUTS]


@pytest.mark.parametrize("content", [None, b"\xff\xfe{", b"[1, 2]"])
def test_unreadable_config_file_exits_two_with_one_line(tmp_path, capsys, content):
    path = tmp_path / "c.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["check", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("check", ("checks",), [{"id": "realness", "trials": 20}]),  # a key another check reads
        ("check", ("model",), {"name": "ephaptic", "coefficients": [[1.5, [-0.5] * 8], [-0.5, 1.5]]}),
        ("simulate", ("model",), {"name": "damped_wave", "alpha": [1, 0.5]}),
        ("simulate", ("evolution",), {"dt": 1, "t_end": 2}),  # integers are numbers
    ],
)
def test_accepted_configs(tmp_path, command, path, value):
    assert run(command, with_value(command, path, value), tmp_path, "--out", str(tmp_path / "out")) == 0


@pytest.mark.parametrize("flag, code", [("0", 0), ("-1", 2)])
def test_seed_flag_must_be_nonnegative(tmp_path, flag, code):
    config = with_value("simulate", ("initial", "kind"), "random")
    assert run("simulate", config, tmp_path, "--out", str(tmp_path / "out"), "--seed", flag) == code


# ---------------------------------------------------------------------------
# fuzz: types, shapes and keys, never magnitudes.  Assembly is dense in n_cells
# and t_end/dt sets the step count, so every number drawn is at most 3 and the
# smallest positive one is 0.1 (at most 30 steps, at most 3 cells from a draw).


def _containers(node):
    """Every dict and list inside a config."""
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


FUZZ_BASES = [
    BASES["certify"] | {"criteria": ["gershgorin"], "seed": 0, "output": "out"},
    {
        "schema_version": 1,
        "model": {**PATTERN_MODEL, "perturb": {"i": 0, "j": 1, "delta": 0.5}},
        "grid": {"n_cells": 4, "length": 1.0},
        "evolution": {"dt": 0.1, "t_end": 0.5, "scheme": "crank-nicolson", "record_every": 2, "solver_tolerance": 1e-9},
        "initial": {"kind": "in_phase", "amplitude": 1.0},
        "projection": {},
    },
    {
        "schema_version": 1,
        "model": {"name": "damped_wave", "alpha": [1, 0.5]},
        "grid": {"n_cells": 4},
        "evolution": {"dt": 0.1, "t_end": 0.3},
        "initial": {"kind": "mean_zero_random", "amplitude": 2.0},
    },
    {
        "schema_version": 1,
        "model": {"name": "constant_coupled", "coupling": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]},
        "grid": {"n_cells": 4},
        "evolution": {"dt": 0.1, "t_end": 0.3},
        "projection": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 0]]},
        "checks": [
            {"id": "sector", "shift": 0.5},
            {"id": "parabola", "m_tilde": 1.0},
            {"id": "subspace_C"},
            {"id": "subspace_B"},
            {"id": "product_subspace"},
            {"id": "subsystem", "m0": 2},
            {"id": "realness"},
            {"id": "positivity", "trials": 2, "runtime": True},
            {"id": "domination", "trials": 2},
            {"id": "linf", "trials": 2},
            {"id": "strip_runtime", "alpha_levels": [0.1, 1], "trials": 2},
            {"id": "row_sums"},
            {"id": "column_sums"},
        ],
    },
    {
        "schema_version": 1,
        "model": {"name": "dynamic_bc_heat"},
        "grid": {"n_cells": 4},
        "checks": [{"id": "linf", "trials": 2}, {"id": "parabola", "m_tilde": 0.5}],
    },
]
FUZZ_KEYS = sorted(
    {key for base in FUZZ_BASES for node in _containers(base) if isinstance(node, dict) for key in node}
    | {"trails", "n_cell", "kind", "matrix", "bogus"}
)
STRINGS = [*FUZZ_KEYS, *CHECKS, "", "x", "difference", "shared", "averaging", "random", "zero", "constant"]
STRINGS += ["in_phase", "mean_zero_random", "implicit-euler", "crank-nicolson", "mean_zero", "ephaptic"]
STRINGS += ["damped_wave", "dynamic_bc_heat", "constant_coupled"]
SAME_KIND = {
    bool: st.booleans(),
    int: st.sampled_from([-1, 0, 1, 2, 3]),
    float: st.sampled_from([-0.5, 0.0, 0.1, 0.5, 1.0, 2.5]),
    str: st.sampled_from(STRINGS),
}
VALUES = st.recursive(
    st.one_of(st.none(), *SAME_KIND.values()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(FUZZ_KEYS), inner, max_size=3),
    max_leaves=9,
)


def _mutate(data, config):
    """Change one scalar to another of its JSON type, or retype, delete or add one value anywhere."""
    nodes = list(_containers(config))
    slots = [(node, key) for node in nodes for key in (node if isinstance(node, dict) else range(len(node)))]
    slots = [slot for slot in slots if slot[1] != "schema_version"]  # a wrong version stops every run at once
    scalars = [(node, key) for node, key in slots if type(node[key]) in SAME_KIND]
    action = data.draw(st.sampled_from(["same_kind"] * 3 + ["retype", "delete", "add"]))
    if action == "same_kind" and scalars:
        node, key = data.draw(st.sampled_from(scalars))
        node[key] = data.draw(SAME_KIND[type(node[key])])
    elif action in ("retype", "delete") and slots:
        node, key = data.draw(st.sampled_from(slots))
        if action == "delete":
            del node[key]
        else:
            node[key] = data.draw(VALUES)
    else:
        node = data.draw(st.sampled_from(nodes))
        if isinstance(node, dict):
            node[data.draw(st.sampled_from(FUZZ_KEYS))] = data.draw(VALUES)
        else:
            node.append(data.draw(VALUES))


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fuzzed_configs_exit_cleanly(data):
    config = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    command = "certify" if "constants" in config else "check" if "checks" in config else "simulate"
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(data, config)
    with tempfile.TemporaryDirectory() as directory, contextlib.redirect_stderr(io.StringIO()) as stderr:
        out = Path(directory) / "out"
        code = run(command, config, directory, "--out", str(out))  # an exception here is a traceback
        err = stderr.getvalue()
        assert code in (0, 1, 2)
        if code == 2:
            assert err.endswith("\n") and err.count("\n") == 1, err
        if code == 1:
            reports = [out / name for name in ("checks.txt", "certify.txt")]
            failed = any(" FAIL" in p.read_text() for p in reports if p.exists())
            assert failed or err.startswith("solver failure: "), (config, err)


# ---------------------------------------------------------------------------
# the README's "Check ids" table lists exactly the registry's ids and keys


def test_readme_table_matches_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Check ids", 1)[1].split("\n### ", 1)[0]
    listed = {}
    for row in section.splitlines():
        cells = row.split("|")
        if len(cells) == 5 and "`" in cells[1]:
            keys = set(re.findall(r"`(\w+)`", cells[3]))
            listed.update({check_id: keys for check_id in re.findall(r"`(\w+)`", cells[1])})
    expected = {check_id: set() for check_id in CERTIFICATES}
    expected.update({check_id: set(check.keys) for check_id, check in CHECKS.items()})
    assert listed == expected
