"""Outside-in layer tracing for the flowcutter benchmark.

The program under test is never edited. Instead, `Tracer.patched()`
replaces the public entry points of each layer, for the duration of one
traced job, with wrappers that open a span, call the original, and attach
work counts. A name is replaced in every `flowcutter` module that binds
it, because callers look names up in their own module (`flow` calls
`integrate_unit_interval` through its own global, `distortion` calls
`golden_max` through its own global).

Spans live in memory, one stack per thread (the profile workload runs a
thread pool), and are aggregated or written out after the job. The
wrappers pass every argument and return value through untouched, so a
traced job computes bitwise the same outputs as an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

# The embedded Verner 6(5) pair evaluates the right-hand side nine times per
# attempted step, accepted or rejected.
RHS_EVALS_PER_STEP = 9


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "attrs")

    def __init__(self, sid, parent, name, thread, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


# (class path, method, span name, counter(args, result) -> attrs); args[0]
# is self (or the class, for classmethods). Sizes are read off the results
# where possible, so keyword or positional calls count alike.
_METHODS = (
    ("flowcutter.flow.FlowEngine", "evolve", "flow.evolve",
     lambda a, r: {"columns": int(r[0].size)}),
    ("flowcutter.flow.FlowEngine", "evolve_interval", "flow.evolve_interval",
     lambda a, r: {"columns": int(r[0].size)}),
    # every scalar flow lookup; iterate() reaches the memo through the
    # private _sample, which may go away (see _OPTIONAL)
    ("flowcutter.flow.FlowEngine", "_sample", "flow.scalar", None),
    ("flowcutter.flow.FlowEngine", "flow", "flow.scalar", None),
    ("flowcutter.flow.FlowEngine", "flow_position", "flow.scalar", None),
    ("flowcutter.flow.FlowEngine", "flow_derivative", "flow.scalar", None),
    ("flowcutter.flow.FlowEngine", "flow_second_derivative", "flow.scalar", None),
    ("flowcutter.flow.FlowEngine", "certify", "flow.certify", None),
    ("flowcutter.scaled.PointBatch", "from_raw", "scaled.from_raw",
     lambda a, r: {"points": int(r.size)}),
    ("flowcutter.scaled.ScaledPoint", "from_raw", "scaled.from_raw",
     lambda a, r: {"points": 1}),
    ("flowcutter.cookie.CookieMap", "inverse_batch", "cookie.inverse_batch",
     lambda a, r: {"columns": int(r[0].size)}),
    ("flowcutter.cookie.CookieMap", "iterate", "cookie.iterate",
     lambda a, r: {"steps": int(r.steps)}),
    ("flowcutter.cookie.CookieMap", "check_c1_boundary",
     "cookie.check_c1_boundary", None),
    ("flowcutter.symbolic.IntervalSet", "pull_back", "symbolic.pull_back",
     lambda a, r: {"rows": int(r.size)}),
)

# (defining module, function, span name); replaced wherever it is bound.
_FUNCTIONS = (
    ("flowcutter.symbolic", "inverse_branch", "symbolic.inverse_branch"),
    ("flowcutter.symbolic", "interval_table", "symbolic.interval_table"),
    ("flowcutter.symbolic", "basic_interval", "symbolic.basic_interval"),
    ("flowcutter.distortion", "bd_sweep", "distortion.bd_sweep"),
    ("flowcutter.distortion", "sbd_profile", "distortion.sbd_profile"),
    ("flowcutter.distortion", "sbd_witness", "distortion.sbd_witness"),
    ("flowcutter.distortion", "audit_interval_sizes",
     "distortion.audit_interval_sizes"),
    ("flowcutter.distortion", "distortion", "distortion.distortion"),
    ("flowcutter.dimension", "pressure_sum", "dimension.pressure_sum"),
    ("flowcutter.dimension", "pressure_root", "dimension.pressure_root"),
    ("flowcutter.dimension", "bowen_dimension", "dimension.bowen_dimension"),
    ("flowcutter.cli", "main", "cli.main"),
)

_GOLDEN = ("golden_max", "golden_min")

# private entry points whose absence loses no layer
_OPTIONAL = {"flowcutter.flow.FlowEngine._sample"}


class Tracer:
    """Span recorder with per-thread stacks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span stack -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def push(self, name: str, parent: Span | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), parent.id if parent else 0, name,
                    threading.get_ident(), perf_counter())
        stack.append(span)
        return span

    def pop(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _nested(self, name: str) -> bool:
        top = self.current()
        return top is not None and top.name == name

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn, name: str, counter=None):
        """A span around fn; a call made from inside a span of the same name
        (flow_position -> _sample, golden_min -> golden_max) is not a new
        call of that layer and passes straight through."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._nested(name):
                return fn(*args, **kwargs)
            span = self.push(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.pop(span)
            if counter is not None:
                span.attrs.update(counter(args, out))
            return out

        return traced

    def wrap_integrate(self, fn):
        """integrate_unit_interval with its right-hand side timed and counted.

        Accepted steps come back from the solver; attempted steps follow
        from the RHS count, so rejections are counted from outside."""

        @functools.wraps(fn)
        def traced(f, y0, *args, **kwargs):
            span = self.push("integrate")
            rhs = [0, 0.0]

            def timed_rhs(state):
                t0 = perf_counter()
                try:
                    return f(state)
                finally:
                    rhs[1] += perf_counter() - t0
                    rhs[0] += 1

            try:
                y, err, accepted = fn(timed_rhs, y0, *args, **kwargs)
            finally:
                self.pop(span)
            shape = np.shape(y0)
            span.attrs.update(columns=int(shape[1]) if len(shape) == 2 else 1,
                              rhs_evals=rhs[0], rhs_s=rhs[1],
                              steps_accepted=int(accepted), err=float(err))
            return y, err, accepted

        return traced

    def wrap_golden(self, fn):
        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            if self._nested("optimize.golden"):
                return fn(f, *args, **kwargs)
            evals = [0]

            def counted(x):
                evals[0] += 1
                return f(x)

            span = self.push("optimize.golden")
            try:
                out = fn(counted, *args, **kwargs)
            finally:
                self.pop(span)
            span.attrs["evals"] = evals[0]
            return out

        return traced

    def pool_class(self, base):
        """A ThreadPoolExecutor whose tasks run inside a worker span that
        hangs under the span which submitted them."""
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    span = tracer.push("distortion.worker", parent=parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer.pop(span)

                return super().submit(run, *args, **kwargs)

        return TracedPool

    # -- patching ---------------------------------------------------------

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper; restore the originals on exit."""
        undo: list[tuple[object, str, object]] = []

        def replace(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        def rebind(original, new):
            # every flowcutter module that binds the original object
            for mod in _flowcutter_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replace(mod, attr, new)

        try:
            for path, method, name, counter in _METHODS:
                cls = _resolve(path)
                raw = None if cls is None else cls.__dict__.get(method)
                if raw is None:
                    if f"{path}.{method}" not in _OPTIONAL:
                        self.missing.append(f"{path}.{method}")
                elif isinstance(raw, classmethod):
                    replace(cls, method,
                            classmethod(self.wrap(raw.__func__, name, counter)))
                else:
                    replace(cls, method, self.wrap(raw, name, counter))

            for path, func, name in _FUNCTIONS:
                original = getattr(_resolve(path), func, None)
                if original is None:
                    self.missing.append(f"{path}.{func}")
                else:
                    rebind(original, self.wrap(original, name))

            integrate = getattr(_resolve("flowcutter.integrate"),
                                "integrate_unit_interval", None)
            if integrate is None:
                self.missing.append("flowcutter.integrate.integrate_unit_interval")
            else:
                rebind(integrate, self.wrap_integrate(integrate))

            optimize = _resolve("flowcutter.optimize")
            for func in _GOLDEN:
                original = getattr(optimize, func, None)
                if original is None:
                    self.missing.append(f"flowcutter.optimize.{func}")
                else:
                    rebind(original, self.wrap_golden(original))

            rebind(ThreadPoolExecutor, self.pool_class(ThreadPoolExecutor))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -- output -----------------------------------------------------------

    def dump(self, path, header: dict) -> None:
        """Write the header, then one JSON object per span, in start order."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in sorted(self.spans, key=lambda s: (s.start, s.id)):
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "thread": s.thread, "start": s.start, "end": s.end,
                    **s.attrs}, sort_keys=True) + "\n")


def _flowcutter_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "flowcutter" or n.startswith("flowcutter."))]


def _resolve(path: str):
    """Module or class from a dotted path, or None if it no longer exists."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        obj = sys.modules.get(".".join(parts[:cut]))
        if obj is not None:
            for attr in parts[cut:]:
                obj = getattr(obj, attr, None)
            return obj
    return None


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

def _union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time covered by its child spans (on any
    thread) and by its timed right-hand-side callbacks."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end))
                for a, b in children.get(s.id, ()) if a < s.end and b > s.start]
        out[s.id] = (s.duration - _union_length(kids)
                     - s.attrs.get("rhs_s", 0.0))
    return out


COUNT_METRICS = (
    "integrate.calls", "integrate.columns", "integrate.rhs_evals",
    "integrate.steps_accepted", "integrate.steps_rejected",
    "flow.evolve.calls", "flow.evolve.columns",
    "flow.evolve_interval.calls", "flow.evolve_interval.columns",
    "flow.scalar.calls", "flow.scalar.solves",
    "scaled.from_raw.points",
    "cookie.inverse_batch.calls", "cookie.inverse_batch.columns",
    "cookie.iterate.steps",
    "symbolic.pull_back.calls", "symbolic.pull_back.rows",
    "symbolic.inverse_branch.calls",
    "dimension.pressure_sum.calls",
    "optimize.golden.calls", "optimize.golden.evals",
)

def layer_metrics(spans: list[Span], job_start: float, job_end: float,
                  main_thread: int) -> dict[str, float]:
    """Per-layer counts and times of one traced job.

    `<name>.calls` counts spans, `<name>.s` sums their durations (children
    included) and `<layer>.self_s` sums the self times of every span of the
    layer.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def spans_of(name):
        return by_name.get(name, [])

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in spans_of(name))

    def seconds(name):
        return sum(s.duration for s in spans_of(name))

    def layer_self(layer):
        return sum(selfs[s.id] for s in spans if s.name.split(".")[0] == layer)

    m: dict[str, float] = {}
    for name, unit in (("integrate", "columns"), ("flow.evolve", "columns"),
                       ("flow.evolve_interval", "columns"),
                       ("cookie.inverse_batch", "columns"),
                       ("symbolic.pull_back", "rows")):
        m[f"{name}.calls"] = len(spans_of(name))
        m[f"{name}.{unit}"] = total(name, unit)

    accepted = total("integrate", "steps_accepted")
    rhs_evals = total("integrate", "rhs_evals")
    attempted = rhs_evals // RHS_EVALS_PER_STEP
    m["integrate.rhs_evals"] = rhs_evals
    m["integrate.steps_accepted"] = accepted
    m["integrate.steps_rejected"] = attempted - accepted
    m["integrate.accept_ratio"] = accepted / attempted if attempted else 1.0
    m["integrate.err_max"] = max((s.attrs["err"] for s in spans_of("integrate")),
                                 default=0.0)
    m["integrate.rhs_s"] = total("integrate", "rhs_s")
    m["integrate.self_s"] = layer_self("integrate")

    # a scalar solve is an integration started under a scalar lookup
    by_id = {s.id: s for s in spans}

    def under_scalar(s):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == "flow.scalar":
                return True
            p = by_id.get(p.parent)
        return False

    m["flow.scalar.calls"] = len(spans_of("flow.scalar"))
    m["flow.scalar.solves"] = sum(1 for s in spans_of("integrate")
                                  if under_scalar(s))
    m["scaled.from_raw.points"] = total("scaled.from_raw", "points")
    m["cookie.iterate.steps"] = total("cookie.iterate", "steps")
    m["symbolic.inverse_branch.calls"] = len(spans_of("symbolic.inverse_branch"))
    m["dimension.pressure_sum.calls"] = len(spans_of("dimension.pressure_sum"))
    m["optimize.golden.calls"] = len(spans_of("optimize.golden"))
    m["optimize.golden.evals"] = total("optimize.golden", "evals")

    for name in ("flow.evolve", "flow.evolve_interval", "flow.scalar",
                 "flow.certify", "scaled.from_raw", "cookie.inverse_batch",
                 "cookie.iterate", "cookie.check_c1_boundary",
                 "symbolic.pull_back", "symbolic.inverse_branch",
                 "distortion.bd_sweep", "distortion.sbd_profile",
                 "distortion.sbd_witness", "distortion.audit_interval_sizes",
                 "distortion.distortion", "optimize.golden", "cli.main"):
        m[f"{name}.s"] = seconds(name)
    for layer in ("distortion", "dimension", "cli"):
        m[f"{layer}.self_s"] = layer_self(layer)

    roots = [(max(s.start, job_start), min(s.end, job_end)) for s in spans
             if s.parent == 0 and s.thread == main_thread]
    m["trace.coverage"] = _union_length(roots) / (job_end - job_start)
    return m
