"""Span tracing of coupledforms from outside the package.

The tracer replaces the public functions of every package module, the
names other modules imported from them (``cli.evolve``,
``qualitative.is_discretely_accretive`` ...) and a few methods that mark
layer boundaries (``Stepper.__init__`` is the factorization,
``DiscreteSpace.__post_init__`` the Gram validation) with wrappers that
record a span ``[name, group, start, end, parent, info]``.  Spans stay in
memory; ``uninstall`` restores every original, so untraced passes run
the unmodified program.

A group is ``<layer>.<part>`` and the layer is the module name.  The
self time of a span is its duration minus that of its direct children;
a group's time is the sum of its spans' self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("models", "forms", "evolution", "qualitative", "certificates", "report", "cli")

FORMS_GROUPS = {
    "embedding_norm": "forms.spectral",
    "estimate_continuity": "forms.spectral",
    "estimate_ellipticity": "forms.spectral",
    "full_ellipticity": "forms.spectral",
    "accretivity_margin": "forms.spectral",
    "is_discretely_accretive": "forms.spectral",
    "numerical_range_samples": "forms.range_sample",
    "sector_check": "forms.range_sample",
    "parabola_check": "forms.range_sample",
}
MODULE_GROUPS = {
    "models": "models.assemble",
    "evolution": "evolution.record",
    "qualitative": "qualitative.check",
    "certificates": "certificates.certify",
    "report": "report.write",
    "cli": "cli.front",
}


def _group(module: str, name: str) -> str:
    if module == "forms":
        return FORMS_GROUPS.get(name, "forms.other")
    if (module, name) == ("evolution", "step"):
        return "evolution.step"
    return MODULE_GROUPS[module]


def _file_bytes(args, kwargs, _result) -> int:
    paths = [a for a in (*args, *kwargs.values()) if isinstance(a, (str, os.PathLike))]
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


class Tracer:
    """Installs span-recording wrappers into the package ``coupledforms``."""

    def __init__(self):
        self.spans: list = []
        self.forms: list = []
        self._stack: list = []
        self._patches: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, group: str, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, group, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        package = importlib.import_module("coupledforms")
        modules = [package] + [importlib.import_module(f"coupledforms.{m}") for m in MODULES]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("coupledforms.") or home not in MODULES:
                    continue
                if value not in wrappers:
                    note = _file_bytes if home == "report" and value.__name__.startswith("write_") else None
                    wrappers[value] = self._wrap(value, f"{home}.{value.__name__}", _group(home, value.__name__), note)
                self._patch(module, attr, wrappers[value])

        forms = importlib.import_module("coupledforms.forms")
        evolution = importlib.import_module("coupledforms.evolution")
        cli = importlib.import_module("coupledforms.cli")
        methods = (
            (forms.DiscreteSpace, "__post_init__", "forms.space_build", None),
            (forms.FormMatrix, "__post_init__", "forms.other", lambda a, k, r: self.forms.append(a[0])),
            (evolution.Stepper, "__init__", "evolution.factor", lambda a, k, r: (id(a[1]), a[2].dt, a[2].scheme)),
            (evolution.Stepper, "step", "evolution.step", lambda a, k, r: int(a[1].shape[0])),
            # private, but it is the one place that knows which check id is running
            (cli, "_run_check", "cli.front", lambda a, k, r: a[0].get("id")),
        )
        for owner, attr, group, note in methods:
            original = getattr(owner, attr)
            label = f"{getattr(owner, '__name__', '').rpartition('.')[2]}.{attr}"
            self._patch(owner, attr, self._wrap(original, label, group, note))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple:
        """Return and clear the spans and forms recorded so far."""
        spans, forms = list(self.spans), list(self.forms)
        self.spans.clear()
        self.forms.clear()
        return spans, forms


def _matrix_mib(forms) -> float:
    """Distinct dense arrays held by the forms of one pass, in MiB (computed from sizes)."""
    arrays = {}
    for form in forms:
        for space in form.spaces:
            arrays[id(space.h_gram)] = space.h_gram
            arrays[id(space.v_gram)] = space.v_gram
        for row in form.blocks:
            for blk in row:
                arrays[id(blk.matrix)] = blk.matrix
        for cached in ("mass_matrix", "vgram_matrix", "full_matrix"):
            if cached in vars(form):
                arrays[id(vars(form)[cached])] = vars(form)[cached]
    return sum(a.nbytes for a in arrays.values()) / 2**20


def layer_metrics(spans: list, forms: list, wall_s: float, check_ids) -> dict:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds."""
    n = len(spans)
    duration = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for s, d in zip(spans, duration):
        if s[4] >= 0:
            child[s[4]] += d
    group_self = defaultdict(float)
    entries = defaultdict(int)
    for i, s in enumerate(spans):
        group_self[s[1]] += duration[i] - child[i]
        if s[4] < 0 or spans[s[4]][1] != s[1]:
            entries[s[1]] += 1
    layer_self = defaultdict(float)
    for group, t in group_self.items():
        layer_self[group.partition(".")[0]] += t

    factor = [s for s in spans if s[1] == "evolution.factor"]
    steps = [s for s in spans if s[0] == "Stepper.step"]
    step_s = group_self["evolution.step"]
    unknowns = sum(s[5] or 0 for s in steps)
    check_s = defaultdict(float)
    for i, s in enumerate(spans):
        if s[0] == "cli._run_check" and s[5] is not None:
            check_s[s[5]] += duration[i]
    trials = sum(1 for s in spans if s[0] == "evolution.evolve" and s[4] >= 0 and spans[s[4]][1] == "qualitative.check")
    written = sum(s[5] or 0 for s in spans if s[1] == "report.write" and (s[4] < 0 or spans[s[4]][1] != "report.write"))

    m = {
        "models.assemble_s": (group_self["models.assemble"], "s"),
        "models.assemble_calls": (entries["models.assemble"], "count"),
        "forms.space_build_s": (group_self["forms.space_build"], "s"),
        "forms.spectral_s": (group_self["forms.spectral"], "s"),
        "forms.spectral_calls": (entries["forms.spectral"], "count"),
        "forms.range_sample_s": (group_self["forms.range_sample"], "s"),
        "forms.matrix_mib": (_matrix_mib(forms), "MiB"),
        "forms.self_s": (layer_self["forms"], "s"),
        "evolution.factor_s": (group_self["evolution.factor"], "s"),
        "evolution.factor_count": (len(factor), "count"),
        # distinct (form, dt, scheme) keys per factorization; 1 when none was needed
        "evolution.factor_reuse": (len({s[5] for s in factor}) / len(factor) if factor else 1.0, "fraction"),
        "evolution.step_s": (step_s, "s"),
        "evolution.step_count": (len(steps), "count"),
        "evolution.step_ns_per_unknown": (step_s / unknowns * 1e9 if unknowns else 0.0, "ns"),
        "evolution.record_s": (group_self["evolution.record"], "s"),
        "evolution.self_s": (layer_self["evolution"], "s"),
        "qualitative.self_s": (layer_self["qualitative"], "s"),
        "qualitative.trials": (trials, "count"),
    }
    for cid in check_ids:
        m[f"qualitative.{cid}_s"] = (check_s[cid], "s")
    m["certificates.certify_s"] = (layer_self["certificates"], "s")
    m["report.write_s"] = (layer_self["report"], "s")
    m["report.bytes_written"] = (written, "bytes")
    m["cli.self_s"] = (layer_self["cli"], "s")
    for layer in MODULES:
        m[f"{layer}.share"] = (layer_self[layer] / wall_s, "fraction")
    top = sum(d for s, d in zip(spans, duration) if s[4] < 0)
    m["trace.outside_s"] = (wall_s - top, "s")
    m["trace.spans"] = (n, "count")
    return m
