"""Spans recorded from outside the library, and the per-layer metrics made
from them.

``traced(tracer)`` replaces the public functions listed in ``TRACED`` by
wrappers that record a span per call: name, start, end, parent and a small
integer tag.  A module that imported a function by name holds its own
reference (``expansion`` imports ``enumerate_*`` and ``cluster_derivative``),
so every loaded ``gibbsmarkov`` module is patched, not only the defining one.
The job definitions call the library through module attributes, which the
same patches cover.  Generators (``enumerate_*``) are timed
inside each ``next()`` only, so a consumer's work between two clusters is not
charged to enumeration.

Helpers called per candidate inside the enumerators (``make_cluster``,
``is_connected``) are left unwrapped: at millions of calls a pass, wrapping
them would make the tracer the largest cost it reports.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time

import numpy as np

# (module, function, span name, kind).  Kinds: "call" records one span per
# call, "gen" one span per next() of the returned generator.
TRACED = (
    ("gibbsmarkov.clusters", "enumerate_connected", "clusters.connected", "gen"),
    ("gibbsmarkov.clusters", "enumerate_connected_to_region", "clusters.to_region", "gen"),
    ("gibbsmarkov.clusters", "enumerate_linking", "clusters.linking", "gen"),
    ("gibbsmarkov.derivatives", "cluster_derivative", "derivatives.dw", "call"),
    ("gibbsmarkov.derivatives", "cmi_cluster_term", "derivatives.cmi_term", "call"),
    ("gibbsmarkov.expansion", "effective_hamiltonian", "expansion.effective_hamiltonian", "call"),
    ("gibbsmarkov.expansion", "log_partition_function", "expansion.log_partition_function", "call"),
    ("gibbsmarkov.expansion", "reduced_state", "expansion.reduced_state", "call"),
    ("gibbsmarkov.expansion", "local_observable", "expansion.local_observable", "call"),
    ("gibbsmarkov.expansion", "local_entropy", "expansion.local_entropy", "call"),
    ("gibbsmarkov.expansion", "cmi_expansion", "expansion.cmi_expansion", "call"),
    # The scalar channel -beta^-1 log Z_{L^c} of effective_hamiltonian, by
    # ED of the complement or by its own cluster series.
    ("gibbsmarkov.expansion", "_complement_log_z_ed", "expansion.scalar_ed", "call"),
    ("gibbsmarkov.expansion", "_scalar_series", "expansion.scalar_series", "call"),
    ("gibbsmarkov.ed", "exact_gibbs", "ed.exact_gibbs", "call"),
    ("gibbsmarkov.ed", "exact_effective_hamiltonian", "ed.exact_effham", "call"),
    ("gibbsmarkov.ed", "exact_cmi", "ed.exact_cmi", "call"),
    ("gibbsmarkov.ed", "hamiltonian_matrix", "ed.hamiltonian_matrix", "call"),
    ("gibbsmarkov.operators", "embed", "operators.embed", "call"),
    ("gibbsmarkov.operators", "partial_trace", "operators.partial_trace", "call"),
    ("numpy.linalg", "eigh", "linalg.eigh", "call"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh", "call"),
)

SPAN_NAMES = tuple(name for _, _, name, _ in TRACED)


def _tag(name: str, args, kwargs) -> int:
    """Per-call detail kept with the span: cluster size * 2 + (kept factor
    nonempty) for derivatives, matrix dimension for linalg, else 0."""
    if name == "derivatives.dw":
        cluster = args[1] if len(args) > 1 else kwargs["cluster"]
        kept = args[2] if len(args) > 2 else kwargs["kept_region"]
        kset = set(kept)
        return 2 * cluster.size + any(v in kset for v in cluster.support)
    if name.startswith("linalg."):
        return int(np.shape(args[0])[-1])
    return 0


class Tracer:
    """Spans kept in parallel lists; ``parent`` is an index or -1."""

    def __init__(self):
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.tag: list[int] = []
        self._stack: list[int] = []

    def open(self, name_id: int, tag: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.tag.append(tag)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "names": SPAN_NAMES,
                    "name": self.name,
                    "start_ns": self.start,
                    "end_ns": self.end,
                    "parent": self.parent,
                    "tag": self.tag,
                },
                fh,
            )


def _wrap_call(fn, name: str, tracer: Tracer):
    name_id = SPAN_NAMES.index(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name_id, _tag(name, args, kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    return wrapper


def _wrap_gen(fn, name: str, tracer: Tracer):
    name_id = SPAN_NAMES.index(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            i = tracer.open(name_id, 0)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(i)
            tracer.tag[i] = 1  # this next() emitted a cluster
            yield item

    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch every reference to a traced function for the duration."""
    modules = [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and key.split(".")[0] == "gibbsmarkov"
    ]
    undo = []
    try:
        for mod_name, fn_name, span, kind in TRACED:
            original = getattr(sys.modules[mod_name], fn_name)
            wrap = _wrap_gen if kind == "gen" else _wrap_call
            wrapper = wrap(original, span, tracer)
            targets = set(modules) | {sys.modules[mod_name]}
            for mod in targets:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

MAX_ORDER = 5

LAYERS = ("clusters", "derivatives", "expansion", "ed", "operators", "linalg")

# name -> unit, in the order printed.
PER_LAYER_UNITS = {
    "clusters.connected.s": "s",
    "clusters.to_region.s": "s",
    "clusters.linking.s": "s",
    "clusters.connected.emitted": "count",
    "clusters.to_region.emitted": "count",
    "clusters.linking.emitted": "count",
    "clusters.emitted_per_s": "1/s",
    **{f"derivatives.m{m}.calls": "count" for m in range(1, MAX_ORDER + 1)},
    **{f"derivatives.m{m}.s": "s" for m in range(1, MAX_ORDER + 1)},
    "derivatives.kept.calls": "count",
    "derivatives.scalar.calls": "count",
    f"derivatives.m{MAX_ORDER}.s_per_call": "s",
    "derivatives.cmi_term.calls": "count",
    "derivatives.cmi_term.s": "s",
    "expansion.self_s": "s",
    "expansion.scalar_s": "s",
    "expansion.scalar_discarded_s": "s",
    "ed.exact_gibbs.s": "s",
    "ed.exact_effham.s": "s",
    "ed.exact_cmi.s": "s",
    "ed.hamiltonian_matrix.calls": "count",
    "operators.embed.calls": "count",
    "operators.embed.s": "s",
    "operators.partial_trace.calls": "count",
    "operators.partial_trace.s": "s",
    "linalg.eigh.calls": "count",
    "linalg.eigh.s": "s",
    "linalg.eigvalsh.calls": "count",
    "linalg.eigvalsh.s": "s",
    "linalg.max_dim": "count",
    **{f"layer.{layer}.s": "s" for layer in LAYERS},
    "layer.unwrapped.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass.  Every ``.s`` figure is self
    time: the span's duration minus the time its child spans cover, so the
    figures of different layers never overlap.  The exceptions are the
    scalar channel (``expansion.scalar_s``, ``expansion.scalar_discarded_s``)
    and the trace totals, which are whole durations."""
    n = len(tracer.name)
    names = [SPAN_NAMES[k] for k in tracer.name]
    dur = [(tracer.end[i] - tracer.start[i]) * 1e-9 for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    calls: dict = {}
    secs: dict = {}
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + self_t[i]

    out = {}
    emitted_total = 0
    for short in ("connected", "to_region", "linking"):
        name = f"clusters.{short}"
        emitted = sum(1 for i in range(n) if names[i] == name and tracer.tag[i])
        emitted_total += emitted
        out[f"{name}.s"] = secs.get(name, 0.0)
        out[f"{name}.emitted"] = emitted
    enum_s = sum(out[f"clusters.{s}.s"] for s in ("connected", "to_region", "linking"))
    out["clusters.emitted_per_s"] = emitted_total / enum_s if enum_s > 0 else 0.0

    dw = [i for i in range(n) if names[i] == "derivatives.dw"]
    for m in range(1, MAX_ORDER + 1):
        sel = [i for i in dw if tracer.tag[i] // 2 == m]
        out[f"derivatives.m{m}.calls"] = len(sel)
        out[f"derivatives.m{m}.s"] = sum((self_t[i] for i in sel), 0.0)
    out["derivatives.kept.calls"] = sum(1 for i in dw if tracer.tag[i] % 2)
    out["derivatives.scalar.calls"] = sum(1 for i in dw if not tracer.tag[i] % 2)
    top = out[f"derivatives.m{MAX_ORDER}.calls"]
    out[f"derivatives.m{MAX_ORDER}.s_per_call"] = (
        out[f"derivatives.m{MAX_ORDER}.s"] / top if top else 0.0
    )
    out["derivatives.cmi_term.calls"] = calls.get("derivatives.cmi_term", 0)
    out["derivatives.cmi_term.s"] = secs.get("derivatives.cmi_term", 0.0)

    out["expansion.self_s"] = sum(
        (v for k, v in secs.items() if k.startswith("expansion.")), 0.0
    )
    scalar_s = discarded_s = 0.0
    for i in range(n):
        p = tracer.parent[i]
        if names[i] in ("expansion.scalar_ed", "expansion.scalar_series") and p >= 0 \
                and names[p] == "expansion.effective_hamiltonian":
            scalar_s += dur[i]
            # reduced_state normalizes the scalar away; local_observable and
            # local_entropy reach effective_hamiltonian through it.
            pp = tracer.parent[p]
            if pp >= 0 and names[pp] == "expansion.reduced_state":
                discarded_s += dur[i]
    out["expansion.scalar_s"] = scalar_s
    out["expansion.scalar_discarded_s"] = discarded_s

    for name in ("ed.exact_gibbs", "ed.exact_effham", "ed.exact_cmi"):
        out[f"{name}.s"] = secs.get(name, 0.0)
    out["ed.hamiltonian_matrix.calls"] = calls.get("ed.hamiltonian_matrix", 0)
    for name in ("operators.embed", "operators.partial_trace", "linalg.eigh", "linalg.eigvalsh"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = secs.get(name, 0.0)
    out["linalg.max_dim"] = max(
        (tracer.tag[i] for i in range(n) if names[i].startswith("linalg.")), default=0
    )

    for layer in LAYERS:
        out[f"layer.{layer}.s"] = sum(
            (v for k, v in secs.items() if k.startswith(layer + ".")), 0.0
        )
    out["layer.unwrapped.s"] = traced_wall - sum(out[f"layer.{l}.s"] for l in LAYERS)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.spans"] = n
    return {name: out[name] for name in PER_LAYER_UNITS}
