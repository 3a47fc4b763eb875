"""Span tracing of the solver's layers from outside the package.

Each traced function is replaced, for the duration of a ``Tracer`` block,
by a wrapper in every ``oldroyd2d`` module namespace that binds it, i.e.
where its callers look it up.  A span is ``[name, parent, start, end,
extra]`` kept in one in-memory list in start order; nothing is written
until the benchmark ends.  Self time is a span's duration minus the
durations of its child spans (calls are synchronous, so children nest
inside their parent).

A target that no longer exists is skipped and its metrics report as
absent; that never fails the benchmark.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# (span name, module, attribute).  Several attributes may share one span
# name; their spans are aggregated under it.
SCALAR_SYMCALC = (
    "eig", "apply_scalar", "mat_log", "tr_log", "chi_scalar", "chi_cutoff",
    "g_cutoff_scalar", "g_cutoff_log", "inv_chi", "scalar_log_ineq",
    "matrix_log_diff_ineq", "convexity_trace_ineq",
)
FUNCTIONS = (
    ("grid.pad", "grid", "_pad"),
    ("grid.upwind_div", "grid", "upwind_div"),
    ("grid.lap", "grid", "lap"),
    ("grid.grad", "grid", "grad_x"),
    ("grid.grad", "grid", "grad_y"),
    ("grid.mollify_initial", "grid", "mollify_initial"),
    ("symcalc.eig_fields", "symcalc", "eig_fields"),
    *(("symcalc.scalar", "symcalc", attr) for attr in SCALAR_SYMCALC),
    ("model.rhs_continuity", "model", "rhs_continuity"),
    ("model.rhs_momentum", "model", "rhs_momentum"),
    ("model.rhs_stress", "model", "rhs_stress"),
    ("model.rhs_eta", "model", "rhs_eta"),
    ("model.velocity_jacobian", "model", "velocity_jacobian"),
    ("model.tr_log_field", "model", "tr_log_field"),
    ("integrate.run", "integrate", "run"),
    ("integrate.step", "integrate", "step"),
    ("integrate.auto_dt", "integrate", "auto_dt"),
    ("integrate.heat_solve", "integrate", "_neumann_heat_solve"),
    ("integrate.diffusion_only", "integrate", "_diffusion_only"),
    ("diagnostics.energy", "diagnostics", "energy"),
    ("diagnostics.spd_monitor", "diagnostics", "spd_monitor"),
    ("closure.fp_step", "closure", "fp_step"),
    ("closure.macro_moment_step", "closure", "macro_moment_step"),
    ("closure.boundary_mass_fraction", "closure", "boundary_mass_fraction"),
    ("cli.parse_config", "cli", "parse_config"),
    ("cli.build_initial", "cli", "build_initial"),
    ("cli.sweep", "cli", "cmd_sweep"),
)
# (span name, module, class, method)
METHODS = (
    ("diagnostics.hook", "diagnostics", "TimeseriesRecorder", "hook"),
)


def _pad_bytes(args, kwargs) -> int:
    """Computed bytes moved by one ghost-padding call: input read + output written."""
    arr = args[0] if args else kwargs["arr"]
    axis = args[2] if len(args) > 2 else kwargs["axis"]
    out = arr.nbytes // arr.shape[axis] * (arr.shape[axis] + 2)
    return arr.nbytes + out


EXTRA = {"grid.pad": _pad_bytes}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "oldroyd2d" or name.startswith("oldroyd2d."))]


class Tracer:
    """Context manager that installs span wrappers and restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRA.get(name)

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   extra(args, kwargs) if extra else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        for span, mod, attr in FUNCTIONS:
            fn = getattr(by_name.get(f"oldroyd2d.{mod}"), attr, None)
            if fn is None:
                self.absent.append(f"{mod}.{attr}")
                continue
            wrapped = self._wrap(span, fn)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._patch(m, key, wrapped)
        for span, mod, cls_name, attr in METHODS:
            cls = getattr(by_name.get(f"oldroyd2d.{mod}"), cls_name, None)
            fn = getattr(cls, attr, None)
            if fn is None:
                self.absent.append(f"{mod}.{cls_name}.{attr}")
                continue
            self._patch(cls, attr, self._wrap(span, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False


# ---------------------------------------------------------------------------
# Turning spans into per-layer metrics.

# (metric name, unit) in report order; every name is always reported.
LAYER_METRICS = (
    ("grid.pad.calls_per_step", "count"),
    ("grid.pad.self_ms_per_step", "ms"),
    ("grid.pad.bytes_per_step", "bytes"),
    ("grid.upwind_div.calls_per_step", "count"),
    ("grid.upwind_div.self_ms_per_step", "ms"),
    ("grid.lap.calls_per_step", "count"),
    ("grid.lap.self_ms_per_step", "ms"),
    ("grid.grad.calls_per_step", "count"),
    ("grid.grad.self_ms_per_step", "ms"),
    ("grid.mollify_initial.ms", "ms"),
    ("symcalc.eig_fields.calls_per_step", "count"),
    ("symcalc.eig_fields.ms_per_step", "ms"),
    ("symcalc.scalar.calls", "count"),
    ("symcalc.scalar.self_ms", "ms"),
    ("model.rhs_continuity.self_ms_per_step", "ms"),
    ("model.rhs_momentum.self_ms_per_step", "ms"),
    ("model.rhs_stress.self_ms_per_step", "ms"),
    ("model.rhs_eta.self_ms_per_step", "ms"),
    ("model.velocity_jacobian.calls_per_step", "count"),
    ("model.tr_log_field.calls_per_step", "count"),
    ("integrate.heat_solve.calls_per_step", "count"),
    ("integrate.heat_solve.ms_per_step", "ms"),
    ("integrate.diffusion_only.ms_per_step", "ms"),
    ("integrate.imex.lap_waste_ratio", "fraction"),
    ("integrate.step.self_ms_per_step", "ms"),
    ("integrate.auto_dt.ms_per_step", "ms"),
    ("integrate.floor_hits", "count"),
    ("diagnostics.hook.ms_per_call", "ms"),
    ("diagnostics.hook.share", "fraction"),
    ("diagnostics.energy.self_ms_per_call", "ms"),
    ("diagnostics.spd_monitor.self_ms_per_call", "ms"),
    ("closure.fp_step.ms_per_call", "ms"),
    ("closure.macro_moment_step.ms_per_call", "ms"),
    ("closure.boundary_mass_fraction.ms_per_call", "ms"),
    ("cli.parse_config.ms", "ms"),
    ("cli.build_initial.ms", "ms"),
    ("cli.sweep.self_ms", "ms"),
    ("trace.overhead_ms_per_step", "ms"),
)


class SpanTable:
    """Per-span durations, self times and step buckets, computed once."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.dur = [s[3] - s[2] for s in spans]
        self.self_time = list(self.dur)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                self.self_time[s[1]] -= self.dur[i]
        # A step bucket runs from the start of one solver step to the start
        # of the next one inside the same run, so the diagnostics hook and
        # the stability bound evaluated after a step count towards it.
        self.bucket: list = [None] * n
        current, run_end, n_steps = None, None, 0
        for i, (name, _, start, end, _) in enumerate(spans):
            if name == "integrate.run":
                current, run_end = None, end
            elif name == "integrate.step":
                current, n_steps = n_steps, n_steps + 1
            elif run_end is not None and start > run_end:
                current, run_end = None, None
            self.bucket[i] = current
        self.n_steps = n_steps
        self._by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self._by_name[s[0]].append(i)

    def indices(self, name):
        return self._by_name.get(name, [])

    def calls_per_step(self, name) -> float:
        """Median over steps of the calls made in each step bucket (exact)."""
        counts = defaultdict(int)
        for i in self.indices(name):
            if self.bucket[i] is not None:
                counts[self.bucket[i]] += 1
        return float(statistics.median(counts.get(b, 0) for b in range(self.n_steps)))

    def per_step(self, name, values) -> float:
        total = sum(values[i] for i in self.indices(name) if self.bucket[i] is not None)
        return total / self.n_steps

    def per_call(self, name, values) -> float:
        idx = self.indices(name)
        return sum(values[i] for i in idx) / len(idx) if idx else 0.0

    def total(self, name, values) -> float:
        return sum(values[i] for i in self.indices(name))

    def has_ancestor(self, i, name) -> bool:
        parent = self.spans[i][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def self_shares(self) -> dict:
        """Share of traced self time by span name.

        Only spans inside step buckets count when a solver step ran, so
        setup stays out of the step profile; otherwise every span counts.
        """
        totals = defaultdict(float)
        for i, s in enumerate(self.spans):
            if self.bucket[i] is not None or not self.n_steps:
                totals[s[0]] += self.self_time[i]
        whole = sum(totals.values())
        return {k: v / whole for k, v in sorted(totals.items(), key=lambda kv: -kv[1])} \
            if whole > 0.0 else {}


def layer_metrics(spans, ops: int, floor_hits: int, overhead_ms: float) -> tuple[dict, dict]:
    """Every LAYER_METRICS value; per-step values are 0 when no solver step ran.

    ``floor_hits`` is the total over the ``ops`` traced operations; like the
    other totals it is reported per operation, so it does not scale with how
    many operations fit in the traced phase.
    """
    t = SpanTable(spans)
    ms = 1e3
    steps = t.n_steps > 0
    selfs = [v * ms for v in t.self_time]
    durs = [v * ms for v in t.dur]
    extra = [s[4] for s in spans]

    def cps(name):
        return t.calls_per_step(name) if steps else 0.0

    def ps(name, values):
        return t.per_step(name, values) if steps else 0.0

    laps = [i for i in t.indices("grid.lap") if t.bucket[i] is not None]
    wasted = sum(1 for i in laps if t.has_ancestor(i, "integrate.diffusion_only"))
    builds = len(t.indices("cli.build_initial"))
    run_total = t.total("integrate.run", durs)
    values = {
        "grid.pad.calls_per_step": cps("grid.pad"),
        "grid.pad.self_ms_per_step": ps("grid.pad", selfs),
        "grid.pad.bytes_per_step": ps("grid.pad", extra),
        "grid.upwind_div.calls_per_step": cps("grid.upwind_div"),
        "grid.upwind_div.self_ms_per_step": ps("grid.upwind_div", selfs),
        "grid.lap.calls_per_step": cps("grid.lap"),
        "grid.lap.self_ms_per_step": ps("grid.lap", selfs),
        "grid.grad.calls_per_step": cps("grid.grad"),
        "grid.grad.self_ms_per_step": ps("grid.grad", selfs),
        "grid.mollify_initial.ms":
            t.total("grid.mollify_initial", durs) / builds if builds else 0.0,
        "symcalc.eig_fields.calls_per_step": cps("symcalc.eig_fields"),
        "symcalc.eig_fields.ms_per_step": ps("symcalc.eig_fields", durs),
        "symcalc.scalar.calls": len(t.indices("symcalc.scalar")) / ops,
        "symcalc.scalar.self_ms": t.total("symcalc.scalar", selfs) / ops,
        "integrate.imex.lap_waste_ratio": wasted / len(laps) if laps else 0.0,
        "integrate.floor_hits": floor_hits / ops,
        "diagnostics.hook.ms_per_call": t.per_call("diagnostics.hook", durs),
        "diagnostics.hook.share":
            t.total("diagnostics.hook", durs) / run_total if run_total else 0.0,
        "diagnostics.energy.self_ms_per_call": t.per_call("diagnostics.energy", selfs),
        "diagnostics.spd_monitor.self_ms_per_call":
            t.per_call("diagnostics.spd_monitor", selfs),
        "cli.parse_config.ms": t.per_call("cli.parse_config", durs),
        "cli.build_initial.ms": t.per_call("cli.build_initial", durs),
        "cli.sweep.self_ms": t.per_call("cli.sweep", selfs),
        "trace.overhead_ms_per_step": overhead_ms,
    }
    for name in ("rhs_continuity", "rhs_momentum", "rhs_stress", "rhs_eta"):
        values[f"model.{name}.self_ms_per_step"] = ps(f"model.{name}", selfs)
    for name in ("velocity_jacobian", "tr_log_field"):
        values[f"model.{name}.calls_per_step"] = cps(f"model.{name}")
    values["integrate.heat_solve.calls_per_step"] = cps("integrate.heat_solve")
    values["integrate.heat_solve.ms_per_step"] = ps("integrate.heat_solve", durs)
    values["integrate.diffusion_only.ms_per_step"] = ps("integrate.diffusion_only", durs)
    values["integrate.step.self_ms_per_step"] = ps("integrate.step", selfs)
    values["integrate.auto_dt.ms_per_step"] = ps("integrate.auto_dt", durs)
    for name in ("fp_step", "macro_moment_step", "boundary_mass_fraction"):
        values[f"closure.{name}.ms_per_call"] = t.per_call(f"closure.{name}", durs)
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}, \
        {"steps_traced": t.n_steps, "spans": len(spans), "self_time_shares": t.self_shares()}
