"""Outside-in tracer for tcone: wraps the library's public functions at every
module binding, records spans at layer boundaries, and restores each binding
when it is closed.

Two kinds of wrapper exist.  A *span* wrapper pushes a frame, so calls made
under it are charged to it as child time and its self time is its duration
minus the part covered by child spans.  A *leaf* wrapper (`TAlgebra.mul`,
millions of calls per pass) pushes nothing: its count and busy time are
folded into the frame that called it.  Spans marked `record` are stored one
by one; every other call is aggregated into its nearest recorded ancestor as
a count and busy time, so memory stays flat however many kernel calls a run
makes.  Spans and counters stay in memory and are written out at the end.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import tcone.cone_geometry as cg
import tcone.error_bound as eb
import tcone.hccp_solver as hs
import tcone.instances_io as io
import tcone.oracles as orc
import tcone.properties as pr
import tcone.talgebra as ta

PROJECT_BRANCHES = ("trivial", "diagonal", "eigh", "factor", "gauss_newton",
                    "homotopy", "pivot_start", "multistart")
SOLVE_METHODS = ("newton", "fixedpoint", "auto")
PROBES = ("probe_monotone", "probe_trace_P", "probe_P", "probe_R0")
ORACLES = ("lcp_enumerate", "p_matrix_minor_test", "lcp_zero_unique")


class _Frame:
    __slots__ = ("name", "t0", "child", "rec", "span_id", "kernels")

    def __init__(self, name, t0, rec, span_id):
        self.name = name
        self.t0 = t0
        self.child = 0.0          # time covered by child spans and leaves
        self.rec = rec            # nearest recorded frame (self if recorded)
        self.span_id = span_id
        self.kernels = None       # name -> [calls, busy_s], recorded only


class Tracer:
    """Collects spans, per-layer totals and counters while installed.

    Use as a context manager: entering patches every binding, leaving
    restores them.  `span()` opens a recorded span from the benchmark's
    own code, such as one operation.
    """

    def __init__(self):
        self.clock = time.perf_counter
        root = _Frame("root", self.clock(), None, 0)
        root.rec = root
        root.kernels = {}
        self._stack = [root]
        self._active = Counter()      # name -> open frames with that name
        self._next_id = 1
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.branch_ms = defaultdict(list)
        self.spans = []
        self._patches = []

    # ------------------------------------------------------------------
    # frames

    def _push(self, name, record):
        frame = _Frame(name, self.clock(), self._stack[-1].rec, 0)
        if record:
            frame.span_id = self._next_id
            self._next_id += 1
            frame.rec = frame
            frame.kernels = {}
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _pop(self, frame):
        t1 = self.clock()
        self._stack.pop()
        self._active[frame.name] -= 1
        dur = t1 - frame.t0
        name = frame.name
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_s[name] += dur - frame.child
        parent = self._stack[-1]
        parent.child += dur
        if frame.span_id:
            self.spans.append({
                "id": frame.span_id, "parent": parent.rec.span_id,
                "name": name, "start": frame.t0, "end": t1,
                "self_s": dur - frame.child, "kernels": frame.kernels})
        else:
            agg = parent.rec.kernels.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += dur
        return dur

    @contextlib.contextmanager
    def span(self, name):
        """A recorded span opened by the benchmark, such as one operation."""
        frame = self._push(name, True)
        try:
            yield
        finally:
            self._pop(frame)

    def active(self, name):
        return self._active[name] > 0

    # ------------------------------------------------------------------
    # wrappers

    def _span_wrapper(self, fn, name, record, after):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._push(name, record)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                dur = tracer._pop(frame)
                if after is not None:
                    after(tracer, None, exc, dur)
                raise
            dur = tracer._pop(frame)
            if after is not None:
                after(tracer, out, None, dur)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, fn, name):
        tracer = self
        clock = self.clock
        calls = self.calls
        busy = self.busy
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dur = clock() - t0
            top = tracer._stack[-1]
            top.child += dur
            calls[name] += 1
            busy[name] += dur
            self_s[name] += dur
            agg = top.rec.kernels.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += dur
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_everywhere(self, module, attr, wrapper):
        """Replace module.attr in every tcone module that binds the same
        object, such as the copies made by `from .x import name`."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tcone"
                                   or mod_name.startswith("tcone.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patches.append((ta.TAlgebra, "mul", ta.TAlgebra.__dict__["mul"]))
        ta.TAlgebra.mul = self._leaf_wrapper(ta.TAlgebra.mul, "talgebra.mul")

        def span(module, attr, name, record=False, after=None):
            self._patch_everywhere(module, attr, self._span_wrapper(
                getattr(module, attr), name, record, after))

        span(cg, "project", "cone_geometry.project", after=_after_project)
        span(cg, "factorize_K", "cone_geometry.factorize",
             after=_after_factorize)
        span(cg, "factorize_Kstar", "cone_geometry.factorize",
             after=_after_factorize)
        span(cg, "member_sum", "cone_geometry.member_sum", record=True,
             after=_after_member_sum)
        span(cg, "complementarity_report",
             "cone_geometry.complementarity_report", record=True,
             after=_after_report)
        span(hs, "solve", "hccp_solver.solve", record=True,
             after=_after_solve)
        span(hs, "natural_residual", "hccp_solver.natural_residual")
        span(hs, "verify_solution", "hccp_solver.verify_solution",
             record=True)
        for probe in PROBES:
            span(pr, probe, "properties." + probe, record=True,
                 after=_after_probe)
        span(pr, "implication_audit", "properties.implication_audit",
             record=True)
        # only the probes reach the oracles: the benchmark's own checks
        # run with the tracer removed
        for fn in ORACLES:
            span(orc, fn, "oracles")
        span(eb, "check_bound", "error_bound.check_bound", record=True,
             after=_after_check_bound)
        span(io, "load_bundle", "instances_io.load_bundle")
        span(io, "random_problem", "instances_io.random_problem")
        return self

    def restore(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # ------------------------------------------------------------------
    # results

    def layer_metrics(self):
        """Per-layer metrics by the names BENCHMARK.json lists."""
        c, s, n = self.calls, self.self_s, self.counters
        m = {
            "talgebra.mul.calls": (c["talgebra.mul"], "count"),
            "talgebra.mul.self_s": (s["talgebra.mul"], "s"),
        }
        prj = "cone_geometry.project"
        m[prj + ".calls"] = (c[prj], "count")
        m[prj + ".self_s"] = (s[prj], "s")
        m[prj + ".errors"] = (n["project.errors"], "count")
        m[prj + ".nfev"] = (n["project.nfev"], "count")
        for b in PROJECT_BRANCHES:
            times = self.branch_ms.get(b, [])
            p50 = p99 = 0.0          # the branch never fired
            if len(times) >= 2:
                p50 = statistics.median(times)
                p99 = statistics.quantiles(times, n=100,
                                           method="inclusive")[98]
            elif times:
                p50 = p99 = times[0]
            m["%s.%s.calls" % (prj, b)] = (len(times), "count")
            m["%s.%s.p50_ms" % (prj, b)] = (p50, "ms")
            m["%s.%s.p99_ms" % (prj, b)] = (p99, "ms")
        fac = "cone_geometry.factorize"
        m[fac + ".calls"] = (c[fac], "count")
        m[fac + ".self_s"] = (s[fac], "s")
        m[fac + ".nonmember"] = (n["factorize.nonmember"], "count")
        ms = "cone_geometry.member_sum"
        m[ms + ".calls"] = (c[ms], "count")
        m[ms + ".self_s"] = (s[ms], "s")
        m[ms + ".iterations"] = (n["member_sum.iterations"], "count")
        m[ms + ".uncertified_negative"] = (
            n["member_sum.uncertified_negative"], "count")
        cr = "cone_geometry.complementarity_report"
        m[cr + ".calls"] = (c[cr], "count")
        m[cr + ".self_s"] = (s[cr], "s")
        m[cr + ".inconsistent"] = (n["report.inconsistent"], "count")
        sv = "hccp_solver.solve"
        m[sv + ".calls"] = (c[sv], "count")
        m[sv + ".self_s"] = (s[sv], "s")
        m[sv + ".iterations"] = (n["solve.iterations"], "count")
        m[sv + ".unconverged"] = (n["solve.unconverged"], "count")
        for meth in SOLVE_METHODS:
            m["%s.method.%s" % (sv, meth)] = (n["solve.method." + meth],
                                             "count")
        nr = "hccp_solver.natural_residual"
        m[nr + ".calls"] = (c[nr], "count")
        m[nr + ".self_s"] = (s[nr], "s")
        m["hccp_solver.projections_per_solve"] = (
            n["solve.projections"] / c[sv] if c[sv] else 0.0, "count")
        for probe in PROBES:
            key = "properties." + probe
            m[key + ".calls"] = (c[key], "count")
            m[key + ".self_s"] = (s[key], "s")
        m["properties.implication_audit.self_s"] = (
            s["properties.implication_audit"], "s")
        m["properties.verdicts.certified"] = (n["verdicts.certified"], "count")
        m["properties.verdicts.sampled"] = (n["verdicts.sampled"], "count")
        m["oracles.calls"] = (c["oracles"], "count")
        m["oracles.self_s"] = (s["oracles"], "s")
        cb = "error_bound.check_bound"
        m[cb + ".calls"] = (c[cb], "count")
        m[cb + ".self_s"] = (s[cb], "s")
        m["error_bound.violations"] = (n["bound.violations"], "count")
        for fn in ("load_bundle", "random_problem"):
            key = "instances_io." + fn
            m[key + ".calls"] = (c[key], "count")
            m[key + ".self_s"] = (s[key], "s")
        return m

    def dump(self, path, extra=None):
        doc = {
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "spans": self.spans,
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh, default=float)


# ----------------------------------------------------------------------
# result readers: counts taken from what each call returned


def _after_project(tracer, out, exc, dur):
    if exc is not None:
        tracer.counters["project.errors"] += 1
        return
    tracer.counters["project.nfev"] += out.iterations
    tracer.branch_ms[out.method].append(dur * 1e3)
    if tracer.active("hccp_solver.solve"):
        tracer.counters["solve.projections"] += 1


def _after_factorize(tracer, out, exc, dur):
    if exc is None and not out.member:
        tracer.counters["factorize.nonmember"] += 1


def _after_member_sum(tracer, out, exc, dur):
    if exc is not None:
        return
    tracer.counters["member_sum.iterations"] += out.iterations
    if not out.member and out.certificate is None:
        tracer.counters["member_sum.uncertified_negative"] += 1


def _after_report(tracer, out, exc, dur):
    if exc is None and not out.consistent:
        tracer.counters["report.inconsistent"] += 1


def _after_solve(tracer, out, exc, dur):
    if exc is not None:
        return
    tracer.counters["solve.iterations"] += out.iterations
    tracer.counters["solve.method." + out.method] += 1
    if not out.converged:
        tracer.counters["solve.unconverged"] += 1


def _after_probe(tracer, out, exc, dur):
    if exc is None:
        tracer.counters["verdicts." + out.mode] += 1


def _after_check_bound(tracer, out, exc, dur):
    if exc is None:
        tracer.counters["bound.violations"] += (out.lower_violations
                                                + out.upper_violations)

