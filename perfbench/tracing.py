"""Spans around calls into each domsplit module, recorded from outside it.

The tracer replaces module attributes that callers look up at call time
(``domsplit.certifier.power_directions``, ``domsplit.harness.certify``,
``domsplit.jacobi.solve_banded`` and so on) with wrappers, in every
domsplit module that binds the same function object.  Each wrapper
records one span: name, start, end, parent span, the workload operation
it belongs to (the call id), a work count taken from its arguments or
result, and whether the call raised.  A call that raises keeps its span,
without a work count, so its children still find their parent and its
time still counts.  Spans stay in memory until the run ends.  Pool workers are
separate processes the wrappers cannot reach, so traced scans run with
jobs=1.

per_layer_metrics() derives the per-layer metrics from the spans.  A
span's self time is its duration minus that of its direct children;
children run inside their parent on one thread, so they do not overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
import weakref
from collections import defaultdict

import numpy as np

import domsplit
from domsplit import certifier, harness, jacobi, mat2, models, sphere

MODULES = (domsplit, mat2, sphere, jacobi, certifier, harness, models)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _field_products(args, kwargs, out):
    # sum over sites of burn_u + burn_s, as power_directions lays them out
    seq, burn = args[0], int(_arg(args, kwargs, 1, "burn"))
    lo, hi = seq.window
    if _arg(args, kwargs, 2, "extend", False):
        js = np.arange(lo + 1, hi + 1)
        return int(np.sum(np.minimum(burn, js - lo) + np.minimum(burn, hi + 1 - js)))
    return (hi + 2 - 2 * burn - lo) * 2 * burn


def _floor_products(args, kwargs, out):
    n = int(_arg(args, kwargs, 1, "n"))
    return (n - 1) * (len(args[0]) - n + 1)


def _rows(args, kwargs, out):
    return int(np.prod(np.shape(args[0])[:-2]))


# (module, attribute, work count from (args, kwargs, result) or None)
TARGETS = (
    (certifier, "certify", lambda a, k, out: out.burn),
    (certifier, "certify_operator", None),
    (certifier, "power_directions", _field_products),
    (certifier, "verify_invariance", None),
    (certifier, "verify_domination", None),
    (certifier, "verify_separation", None),
    (certifier, "cone_certificate", None),
    (certifier, "greens_directions", None),
    (mat2, "norm_floor", _floor_products),
    (mat2, "sv_direction_vectors", None),
    (mat2, "singular_values", None),
    (mat2, "cocycle_product", None),
    (sphere, "disk_image_margins", _rows),
    (sphere, "chordal_rows", None),
    (jacobi, "spectrum", lambda a, k, out: len(out.merged)),
    (jacobi, "greens_column", lambda a, k, out: out.margin),
    (jacobi, "solve_banded", None),
    (jacobi, "cocycle_map", None),
    (harness, "johnson_scan", lambda a, k, out: len(out.rows)),
    (harness, "perturb_sequence", None),
    (harness, "perturbation_experiment", lambda a, k, out: out.trials),
    (models, "realize", None),
)

# the argument position of the field in each of the four checks' callees
FIELD_ARG = {"verify_invariance": 1, "verify_domination": 1, "verify_separation": 0}


class Tracer:
    """Installs the wrappers and keeps the spans of one traced run."""

    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent, call, phase, work, error)
        self.phase = None
        self.call = None
        self._ids = itertools.count()
        self._stack = []
        self._saved = []
        self._fields = {}  # id(field) -> (weakref, producing span id)
        self.useful_fields = set()

    def install(self):
        for mod, name, work in TARGETS:
            orig = getattr(mod, name)
            wrapper = self._wrap(name, orig, work)
            for m in MODULES:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, attr, val))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, val in reversed(self._saved):
            setattr(m, attr, val)
        self._saved.clear()

    def _wrap(self, name, fn, work):
        tracer = self
        field_pos = FIELD_ARG.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            w, raised = None, True
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                raised = False
                w = work(args, kwargs, out) if work else None
                if name == "power_directions":
                    tracer._fields[id(out)] = (weakref.ref(out), sid)
                elif field_pos is not None:
                    tracer._mark_useful(args[field_pos] if len(args) > field_pos else kwargs["fld"])
                return out
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.call, tracer.phase, w, raised))

        return wrapper

    def _mark_useful(self, fld):
        ref = self._fields.get(id(fld))
        if ref is not None and ref[0]() is fld:
            self.useful_fields.add(ref[1])

    def write(self, path):
        with open(path, "w") as f:
            for s in sorted(self.spans):
                f.write(json.dumps(dict(zip(
                    ("id", "name", "start_ns", "end_ns", "parent", "call", "phase", "work", "error"), s
                ))) + "\n")


class PhaseSpans:
    """Span arithmetic over the spans of one phase."""

    def __init__(self, spans, phase):
        self.spans = [s for s in spans if s[6] == phase]
        self.by_id = {s[0]: s for s in self.spans}
        child_ns = defaultdict(int)
        for s in self.spans:
            if s[4] is not None:
                child_ns[s[4]] += s[3] - s[2]
        self.self_ns = {s[0]: s[3] - s[2] - child_ns[s[0]] for s in self.spans}

    def named(self, name):
        return [s for s in self.spans if s[1] == name]

    def count(self, name):
        return len(self.named(name))

    def ms(self, name):
        return sum(s[3] - s[2] for s in self.named(name)) / 1e6

    def self_ms(self, name):
        return sum(self.self_ns[s[0]] for s in self.named(name)) / 1e6

    def work(self, name):
        # calls that raised have no work count
        return sum(s[7] for s in self.named(name) if s[7] is not None)

    def worked(self, name):
        return sum(1 for s in self.named(name) if s[7] is not None)

    def children_of(self, name, parent_name):
        return sum(
            1 for s in self.named(name)
            if s[4] in self.by_id and self.by_id[s[4]][1] == parent_name
        )


def per_layer_metrics(tracer, probe):
    """Per-layer metrics, each from the workload where its layer does most
    of its work.  `probe` holds wall times of the untraced and traced
    rounds: jobs2_wall_s (scan at jobs=2), traced_s and untraced_s (the
    selected workload, traced and not)."""
    out = {}  # name -> (value, unit)

    def put(name, value, unit, per=1):
        # a layer that was never called reads 0 per call
        out[name] = (float(value / per) if per else 0.0, unit)

    scan = PhaseSpans(tracer.spans, "scan")
    n = scan.count("certify")
    pd_calls = scan.count("power_directions")
    useful = sum(1 for s in scan.named("power_directions") if s[0] in tracer.useful_fields)
    put("power_directions.calls_per_certify", pd_calls, "count", per=n)
    put("power_directions.ms_per_certify", scan.ms("power_directions"), "ms", per=n)
    put("power_directions.factor_products_per_certify", scan.work("power_directions"),
        "count", per=n)
    put("field_useful_ratio", useful, "ratio", per=pd_calls)
    put("field_useful_ratio.useful_calls", useful, "count")
    put("field_useful_ratio.all_calls", pd_calls, "count")
    put("certify.self_ms", scan.self_ms("certify"), "ms", per=n)
    put("certify.burn_mean", scan.work("certify"), "count", per=scan.worked("certify"))
    for check in ("verify_invariance", "verify_domination", "verify_separation"):
        put(f"{check}.ms", scan.ms(check), "ms", per=n)
    put("sv_direction_vectors.ms", scan.ms("sv_direction_vectors"), "ms", per=n)
    put("singular_values.calls", scan.count("singular_values"), "count", per=n)
    put("cocycle_product.calls", scan.count("cocycle_product"), "count", per=n)
    put("cocycle_map.ms", scan.ms("cocycle_map"), "ms", per=n)
    put("johnson_scan.self_ms_per_energy",
        scan.self_ms("johnson_scan"), "ms", per=scan.work("johnson_scan"))
    serial_s = scan.ms("certify_operator") / 1e3
    put("parallel_efficiency", serial_s, "ratio", per=2 * probe["jobs2_wall_s"])
    put("parallel_efficiency.serial_certify_s", serial_s, "s")
    put("parallel_efficiency.jobs2_wall_s", probe["jobs2_wall_s"], "s")
    setup = PhaseSpans(tracer.spans, "setup")
    put("realize.ms", setup.ms("realize"), "ms", per=setup.count("realize"))

    pert = PhaseSpans(tracer.spans, "perturb")
    n = pert.count("certify")
    trials = pert.work("perturbation_experiment")
    put("cone_certificate.ms_per_certify", pert.ms("cone_certificate"), "ms", per=n)
    put("cone_certificate.pairs_tried", pert.children_of("disk_image_margins", "cone_certificate"),
        "count", per=pert.count("cone_certificate"))
    put("norm_floor.calls_per_certify", pert.count("norm_floor"), "count", per=n)
    put("norm_floor.ms_per_certify", pert.ms("norm_floor"), "ms", per=n)
    put("norm_floor.factor_products_per_certify", pert.work("norm_floor"), "count", per=n)
    put("disk_image_margins.calls", pert.count("disk_image_margins"), "count", per=n)
    put("disk_image_margins.rows", pert.work("disk_image_margins"), "count", per=n)
    put("disk_image_margins.ms", pert.ms("disk_image_margins"), "ms", per=n)
    put("chordal_rows.ms", pert.ms("chordal_rows"), "ms", per=n)
    put("perturb_sequence.ms_per_trial", pert.ms("perturb_sequence"), "ms", per=trials)
    put("perturbation_experiment.self_ms_per_trial",
        pert.self_ms("perturbation_experiment"), "ms", per=trials)

    res = PhaseSpans(tracer.spans, "resolvent")
    units = len({s[5] for s in res.spans})
    cols = res.count("greens_column")
    put("greens_directions.ms", res.ms("greens_directions"), "ms",
        per=res.count("greens_directions"))
    put("spectrum.calls_per_unit", res.count("spectrum"), "count", per=units)
    put("spectrum.ms_per_call", res.ms("spectrum"), "ms", per=res.count("spectrum"))
    put("spectrum.eigenvalues", res.work("spectrum"), "count", per=res.worked("spectrum"))
    put("greens_column.self_ms", res.self_ms("greens_column"), "ms", per=cols)
    put("solve_banded.calls_per_column", res.children_of("solve_banded", "greens_column"),
        "count", per=cols)
    put("greens_column.margin_mean", res.work("greens_column"), "count",
        per=res.worked("greens_column"))

    put("trace_overhead", probe["traced_s"] - probe["untraced_s"], "ratio", per=probe["untraced_s"])
    put("trace_overhead.traced_s", probe["traced_s"], "s")
    put("trace_overhead.untraced_s", probe["untraced_s"], "s")
    return out
