"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the layers' public functions, in every loaded
``polysum`` module that binds them, with wrappers that record spans (name,
start, end, parent, job id) in memory; ``uninstall()`` restores them.  The
exact kernels (``int_det``, ``det_sign_rows``, ``determinant``) run hundreds
of thousands of times per pass, so instead of one span per call they are
aggregated into their enclosing span as calls, seconds and, for ``int_det``,
the largest entry bit length.  A span's self time is its duration minus its
child spans and the outermost kernel calls made directly inside it.

qhull runs are counted by wrapping ``scipy.spatial.ConvexHull``, which the
hull module imports at call time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

SPAN_FUNCTIONS = (
    ("cli", "run_command"),
    ("jsonio", "dump_json"),
    ("hull", "convex_hull"),
    ("cayley", "minksum_direct"),
    ("cayley", "minksum_via_cayley"),
    ("cayley", "cayley_lattice"),
    ("construction", "find_tau_star"),
    ("construction", "find_zeta_diamond"),
    ("construction", "verify_neighborly"),
    ("construction", "verify_tightness"),
    ("detasym", "certify_positivity"),
    ("detasym", "delta_value"),
    ("detasym", "delta_polynomial"),
    ("detasym", "leading_term"),
)
KERNEL_FUNCTIONS = (
    ("exact", "int_det"),
    ("exact", "det_sign_rows"),
    ("exact", "determinant"),
)

# Per-layer metrics: name -> unit.  Counts are per pass; seconds are per pass.
METRIC_UNITS = {
    "exact.int_det.calls": "count",
    "exact.int_det.s": "s",
    "exact.int_det.entry_bits.max": "bits",
    "exact.det_sign_rows.calls": "count",
    "exact.det_sign_rows.s": "s",
    "exact.determinant.calls": "count",
    "exact.determinant.s": "s",
    "hull.convex_hull.calls": "count",
    "hull.convex_hull.self_s": "s",
    "hull.qhull.calls": "count",
    "hull.int_det_per_facet": "calls/facet",
    "hull.facets": "count",
    "hull.faces": "count",
    "cayley.minksum_direct.s": "s",
    "cayley.minksum_via_cayley.s": "s",
    "cayley.direct.points": "count",
    "cayley.lifted_hulls_per_job": "hulls/job",
    "construction.find_tau_star.s": "s",
    "construction.find_zeta_diamond.s": "s",
    "construction.halvings": "count",
    "construction.witness_evals": "count",
    "construction.witness_yield": "ratio",
    "construction.verify_neighborly.s": "s",
    "construction.verify_tightness.self_s": "s",
    "detasym.certify_positivity.s": "s",
    "detasym.delta_value.calls": "count",
    "detasym.delta_polynomial.s": "s",
    "detasym.leading_term.s": "s",
    "detasym.halvings": "count",
    "cli.run_command.self_s": "s",
    "jsonio.dump_json.s": "s",
    "jsonio.dump_json.bytes": "bytes",
    "trace.overhead": "ratio",
}
# Metrics that are work counts: they must repeat exactly for the same input.
COUNT_METRICS = tuple(n for n, unit in METRIC_UNITS.items() if unit != "s" and n != "trace.overhead")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "job", "child_s", "kernels", "attrs")

    def __init__(self, id_, name, start, parent, job):
        self.id = id_
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.child_s = 0.0
        self.kernels = {}  # kernel name -> [calls, seconds, max entry bits]
        self.attrs = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent.id if self.parent is not None else None,
            "job": self.job,
            "self_s": self.self_s,
            "kernels": self.kernels,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans and kernel aggregates for one traced pass at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.current: Span | None = None
        self.kernel_depth = 0
        self.job = None
        self.qhull_calls = 0
        self._saved = []  # (module, attribute, original)
        self._root: Span | None = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "polysum" or name.startswith("polysum.")]
        for wrap, table in ((self._span_wrapper, SPAN_FUNCTIONS), (self._kernel_wrapper, KERNEL_FUNCTIONS)):
            for mod_name, fn_name in table:
                original = getattr(importlib.import_module(f"polysum.{mod_name}"), fn_name)
                wrapped = wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        try:
            import scipy.spatial
        except ImportError:
            return
        original = scipy.spatial.ConvexHull
        tracer = self

        class CountedConvexHull(original):
            def __init__(self, *args, **kwargs):
                tracer.qhull_calls += 1
                super().__init__(*args, **kwargs)

        self._saved.append((scipy.spatial, "ConvexHull", original))
        scipy.spatial.ConvexHull = CountedConvexHull

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- recording --------------------------------------------------------

    def begin_pass(self) -> None:
        self.spans = []
        self.qhull_calls = 0
        self._root = Span(0, "pass", time.perf_counter(), None, None)
        self.current = self._root

    def end_pass(self) -> None:
        self._root.end = time.perf_counter()
        self.current = None

    def _span_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.current
            span = Span(len(tracer.spans) + 1, name, time.perf_counter(), parent, tracer.job)
            tracer.spans.append(span)
            tracer.current = span
            try:
                result = fn(*args, **kwargs)
                tracer._annotate(span, args, result)
                return result
            finally:
                span.end = time.perf_counter()
                tracer.current = parent
                if parent is not None:
                    parent.child_s += span.end - span.start

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel_wrapper(self, name, fn):
        tracer = self
        measure_bits = name == "exact.int_det"

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            bits = 0
            if measure_bits and isinstance(args[0], (list, tuple)):  # never consume an iterator
                bits = max((abs(v).bit_length() for row in args[0] for v in row), default=0)
            tracer.kernel_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                elapsed = end - start
                tracer.kernel_depth -= 1
                span = tracer.current
                agg = span.kernels.get(name)
                if agg is None:
                    agg = span.kernels[name] = [0, 0.0, 0]
                agg[0] += 1
                agg[1] += elapsed
                if bits > agg[2]:
                    agg[2] = bits
                if tracer.kernel_depth == 0:
                    # the bit measurement is tracing cost, kept out of the caller's self time
                    span.child_s += end - entered

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _annotate(span, args, result) -> None:
        if span.name == "hull.convex_hull":
            span.attrs["points"] = len(args[0])
            span.attrs["facets"] = result.f_vector[-1] if result.f_vector else 0
            span.attrs["faces"] = sum(result.f_vector)
        elif span.name in ("construction.find_tau_star", "construction.find_zeta_diamond"):
            span.attrs["halvings"] = result.halvings
            span.attrs["certified_checks"] = result.determinants_checked
        elif span.name == "detasym.certify_positivity":
            span.attrs["halvings"] = result.halvings
        elif span.name == "jsonio.dump_json":
            span.attrs["bytes"] = len(result.encode())

    # -- metrics ----------------------------------------------------------

    def pass_metrics(self, jobs: int) -> dict:
        """Per-layer totals of the pass just recorded (all but trace.overhead)."""
        m = dict.fromkeys(METRIC_UNITS, 0)
        int_det_in_hulls = 0
        witness_evals = 0
        lifted_hulls = 0
        certified = 0
        for span in [self._root] + self.spans:
            for kname, (calls, secs, bits) in span.kernels.items():
                m[f"{kname}.calls"] += calls
                m[f"{kname}.s"] += secs
                if kname == "exact.int_det":
                    m["exact.int_det.entry_bits.max"] = max(m["exact.int_det.entry_bits.max"], bits)
            names = _ancestor_names(span)
            if "hull.convex_hull" in names:
                int_det_in_hulls += span.kernels.get("exact.int_det", [0])[0]
            if names & {"construction.find_tau_star", "construction.find_zeta_diamond"}:
                witness_evals += span.kernels.get("exact.det_sign_rows", [0])[0]
            if span is self._root:
                continue
            name = span.name
            parent = span.parent.name if span.parent is not None else None
            duration = span.end - span.start
            if name == "hull.convex_hull":
                m["hull.convex_hull.calls"] += 1
                m["hull.convex_hull.self_s"] += span.self_s
                if "hull.convex_hull" not in _ancestor_names(span.parent):
                    m["hull.facets"] += span.attrs.get("facets", 0)
                    m["hull.faces"] += span.attrs.get("faces", 0)
                if parent == "cayley.minksum_direct":
                    m["cayley.direct.points"] += span.attrs.get("points", 0)
                if parent in ("cayley.minksum_via_cayley", "cayley.cayley_lattice"):
                    lifted_hulls += 1
            elif name in ("cayley.minksum_direct", "cayley.minksum_via_cayley"):
                m[f"{name}.s"] += duration
            elif name in ("construction.find_tau_star", "construction.find_zeta_diamond"):
                m[f"{name}.s"] += duration
                m["construction.halvings"] += span.attrs.get("halvings", 0)
                certified += span.attrs.get("certified_checks", 0)
            elif name == "construction.verify_neighborly":
                m["construction.verify_neighborly.s"] += duration
            elif name == "construction.verify_tightness":
                m["construction.verify_tightness.self_s"] += span.self_s
            elif name == "detasym.certify_positivity":
                m["detasym.certify_positivity.s"] += duration
                m["detasym.halvings"] += span.attrs.get("halvings", 0)
            elif name == "detasym.delta_value":
                m["detasym.delta_value.calls"] += 1
            elif name in ("detasym.delta_polynomial", "detasym.leading_term"):
                m[f"{name}.s"] += duration
            elif name == "cli.run_command":
                m["cli.run_command.self_s"] += span.self_s
            elif name == "jsonio.dump_json":
                m["jsonio.dump_json.s"] += duration
                m["jsonio.dump_json.bytes"] += span.attrs.get("bytes", 0)
        m["hull.qhull.calls"] = self.qhull_calls
        m["hull.int_det_per_facet"] = int_det_in_hulls / m["hull.facets"] if m["hull.facets"] else 0.0
        m["cayley.lifted_hulls_per_job"] = lifted_hulls / jobs if jobs else 0.0
        m["construction.witness_evals"] = witness_evals
        m["construction.witness_yield"] = certified / witness_evals if witness_evals else 0.0
        del m["trace.overhead"]
        return m

    def dump(self, path: str, pass_index: int) -> None:
        """Append this pass's spans to a JSON-lines file."""
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(span.to_dict(), **{"pass": pass_index})) + "\n")


def _ancestor_names(span) -> set:
    names = set()
    while span is not None:
        names.add(span.name)
        span = span.parent
    return names
