"""Per-layer tracing from outside the program: wrap public functions, then restore them.

The tracer replaces each named function at every binding site in the
``gencontact`` package, that is every module global and class attribute that
holds it (``integrability`` imports ``eigenframe`` by name, ``config``
imports ``gacx_check``, ``JetArray.__rmul__`` aliases ``__mul__``), and puts
the originals back when the op ends (``Tracer.op``).

Kinds of wrapper, cheapest first:

* ``count``: calls only (``Field.__init__``, ``d_jet``, ``k_plus``/``k_minus``);
  ``at`` also collects the distinct (field, point) pairs of ``Field.at``;
* ``timed``: calls and self time, with no span; used for the jets layer,
  which sees about 180k ``jet_einsum`` calls per flagship op (``einsum``
  also counts the calls whose operands both carry a Hessian);
* ``span``: calls, self time and one span per call; used from
  ``courant_jets`` upward.

Self time is a call's wall time minus the wall time of the traced calls it
made.  Spans ``(id, parent, name, op, start_s, end_s)`` stay in memory until
``write_spans``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute path, layer metric, kind).  The comment over each group
# names the end-to-end metric and workload that the layer should move.
TARGETS = (
    # verdict_s.p50 and ops_per_s on kahler_golden and darboux7, little on
    # deform_pipeline; order2_share is the derivative-budget lever on kahler_golden
    ("jets", "jet_einsum", "jets.jet_einsum", "einsum"),
    ("jets", "JetArray.__mul__", "jets.mul", "timed"),
    ("jets", "jet_inv", "jets.jet_inv", "timed"),
    # at, repeat_ratio and objects: peak_rss_mb and verdict_s.p50 everywhere,
    # deform_pipeline most at risk; brackets: verdict_s.p50 on darboux7 most
    ("fields", "Field.at", "fields.at", "at"),
    ("fields", "Field.__init__", "fields.objects", "count"),
    ("fields", "d_jet", "fields.d_jet", "count"),
    ("fields", "courant_jets", "fields.courant_jets", "span"),
    ("fields", "nij_jets", "fields.nij_jets", "span"),
    # verdict_s.p50 on deform_pipeline, and setup_s
    ("exprs", "parse_scalar", "exprs.parse_scalar", "span"),
    # contact_volume: setup_s and verdict_s.p50 on darboux7
    ("structures", "contact_volume", "structures.contact_volume", "span"),
    ("structures", "eigenframe", "structures.eigenframe", "span"),
    ("structures", "max_nij_over_frame", "structures.max_nij_over_frame", "span"),
    ("structures", "acms_check", "structures.checkers", "span"),
    ("structures", "gacs_check", "structures.checkers", "span"),
    ("structures", "phi_kernel_check", "structures.checkers", "span"),
    ("structures", "phi_cube_check", "structures.checkers", "span"),
    ("structures", "gacm_check", "structures.checkers", "span"),
    # darboux7
    ("cone", "gacx_check", "cone.gacx_check", "span"),
    # verdict_s.p50 on kahler_golden
    ("integrability", "conjugated_cone_residual", "integrability.conjugated_cone_residual", "span"),
    ("integrability", "cone_crosscheck", "integrability.cone_crosscheck", "span"),
    ("integrability", "plain_cone_check", "integrability.plain_cone_check", "span"),
    ("integrability", "normality_check", "integrability.normality_check", "span"),
    ("integrability", "vaisman_conditions", "integrability.vaisman_conditions", "span"),
    # deform_pipeline; k_deform counts both K(kappa) deformations
    ("deformations", "k_plus", "deformations.k_deform", "count"),
    ("deformations", "k_minus", "deformations.k_deform", "count"),
    ("deformations", "normalize", "deformations.normalize", "span"),
    ("deformations", "fgacs_check", "deformations.fgacs_check", "span"),
    # verdict_s.p50 on deform_pipeline
    ("config", "parse_config", "config.parse_config", "span"),
    ("config", "run_checks", "config.run_checks", "span"),
    ("report", "map_points", "report.map_points", "span"),
)

PACKAGE = "gencontact"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _resolve(module: str, path: str):
    obj = sys.modules[f"{PACKAGE}.{module}"]
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def binding_sites(target):
    """Every (owner, attribute) in the package whose value is ``target``."""
    sites, seen = [], set()
    for mod in _package_modules():
        owners = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__.startswith(PACKAGE)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is target and (id(owner), attr) not in seen:
                    seen.add((id(owner), attr))
                    sites.append((owner, attr))
    return sites


class Tracer:
    """Aggregate counters, self times and spans for the layers in ``TARGETS``."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.order2 = 0  # jet_einsum calls whose operands both carry a Hessian
        self.distinct_at = 0  # distinct (field, point) pairs, summed over ops
        self.spans = []
        self._frames = []  # [child wall time] per timed call in flight
        self._span_ids = []  # ids of the open spans, innermost last
        self._pairs = set()
        self._fields = {}  # keeps each field of the op alive so its id stays unique
        self._patches = []
        self._op = None
        self._t0 = time.perf_counter()

    # -- patching -----------------------------------------------------------

    @contextlib.contextmanager
    def op(self, index: int):
        """Trace op ``index``: patch every target, open its root span, restore all on exit."""
        try:
            self._install()
            self._op = index
            self._open_span("op")
            yield
        finally:
            self._uninstall()
            if self._op is not None:
                self._close_span()
                self.distinct_at += len(self._pairs)
                self._pairs.clear()
                self._fields.clear()
                self._op = None

    def _install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, path, metric, kind in TARGETS:
            original = _resolve(module, path)
            wrapper = getattr(self, f"_wrap_{kind}")(original, metric)
            wrapper.__bench_wrapper__ = True
            for owner, attr in binding_sites(original):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans --------------------------------------------------------------

    def _open_span(self, name: str):
        sid = len(self.spans)
        parent = self._span_ids[-1] if self._span_ids else None
        self.spans.append([sid, parent, name, self._op, time.perf_counter() - self._t0, None])
        self._span_ids.append(sid)

    def _close_span(self):
        self.spans[self._span_ids.pop()][5] = time.perf_counter() - self._t0

    # -- wrappers -----------------------------------------------------------

    def _wrap_count(self, fn, metric):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_at(self, fn, metric):
        calls, pairs, fields = self.calls, self._pairs, self._fields

        @functools.wraps(fn)
        def wrapper(field, point):
            calls[metric] += 1
            fields[id(field)] = field
            pairs.add((id(field), np.asarray(point, dtype=float).tobytes()))
            return fn(field, point)

        return wrapper

    def _timed(self, fn, metric, span: bool):
        calls, self_s, frames = self.calls, self.self_s, self._frames
        clock = time.perf_counter

        def call(*args, **kwargs):
            if span:
                self._open_span(metric)
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                calls[metric] += 1
                self_s[metric] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if span:
                    self._close_span()

        return call

    def _wrap_timed(self, fn, metric):
        return functools.wraps(fn)(self._timed(fn, metric, span=False))

    def _wrap_einsum(self, fn, metric):
        call = self._timed(fn, metric, span=False)

        @functools.wraps(fn)
        def einsum(subscripts, a, b):
            if a.hess is not None and b.hess is not None:
                self.order2 += 1
            return call(subscripts, a, b)

        return einsum

    def _wrap_span(self, fn, metric):
        return functools.wraps(fn)(self._timed(fn, metric, span=True))

    # -- results ------------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict:
        """Per-op averages over ``ops`` traced ops: {per-layer metric: (value, unit)}."""
        out = {}
        for _, _, metric, kind in TARGETS:
            key = metric if metric == "fields.objects" else f"{metric}.calls"
            out[key] = (self.calls[metric] / ops, "count")
            if kind not in ("count", "at"):
                out[f"{metric}.self_s"] = (self.self_s[metric] / ops, "s")
        einsum_calls = self.calls["jets.jet_einsum"]
        out["jets.jet_einsum.order2_share"] = (
            self.order2 / einsum_calls if einsum_calls else 0.0, "ratio")
        out["fields.at.repeat_ratio"] = (
            self.calls["fields.at"] / self.distinct_at if self.distinct_at else 0.0, "ratio")
        return out

    def write_spans(self, path, **meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "name", "op", "start_s", "end_s"]
        path.write_text(json.dumps({**meta, "fields": fields, "spans": self.spans}) + "\n",
                        encoding="utf-8")
