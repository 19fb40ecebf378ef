"""In-memory spans around the public calls of each gupab module.

The hooks live here, in the benchmark, not in the program: ``Tracer.install``
replaces module attributes with timing wrappers and ``uninstall`` puts the
originals back. A call is hooked where its caller looks it up (for example
``total_phase`` in ``cli_io``'s namespace, ``line_integral`` in
``phase_engine``'s). Where the engine reaches a public function's body
through a private name (``total_phase`` calls ``_ab_integral`` rather than
``ab_phase``), the private name is hooked and the span keeps the public name.
A hook whose attribute no longer exists is skipped and listed in
``missing``.

Full spans record name, start, end, parent and command id. Calls made
thousands of times per command (spinors, slashes, dispersion rows, the
uncertainty and consistency checks) are light spans: only their count and
total time per command are kept, which still lets the parent's self time
exclude them. The field callable handed to ``line_integral`` is wrapped to
count its calls.
"""

from __future__ import annotations

import inspect
import json
import statistics
import types
from collections import defaultdict
from time import perf_counter_ns

from oracle import LINEAR_SWEEPS

MODULES = ("cli_io", "field_geometry", "phase_engine", "clifford", "gup_algebra")


class _Frame:
    __slots__ = ("sid", "parent", "name", "module", "start", "child_ns", "attrs")

    def __init__(self, sid, parent, name, module, attrs):
        self.sid, self.parent, self.name, self.module = sid, parent, name, module
        self.attrs = attrs
        self.child_ns = 0
        self.start = perf_counter_ns()


def _argument(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind_partial(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


class Tracer:
    """Spans, light-span totals, self time and errors, keyed by command id."""

    def __init__(self):
        self.spans = []  # (sid, parent, cmd, name, module, start_ns, end_ns, attrs)
        self.light = defaultdict(lambda: [0, 0])  # (cmd, name) -> [calls, total ns]
        self.self_ns = defaultdict(lambda: defaultdict(int))  # cmd -> module -> ns
        self.errors = defaultdict(lambda: defaultdict(int))  # cmd -> module -> count
        self.stack = []
        self.cmd = None
        self.missing = []
        self._saved = []
        self._next = 0

    # --- recording ---------------------------------------------------------

    def open(self, name, module, attrs=None):
        self._next += 1
        frame = _Frame(self._next, self.stack[-1].sid if self.stack else None, name, module, attrs or {})
        self.stack.append(frame)
        return frame

    def close(self, frame, error=None):
        end = perf_counter_ns()
        self.stack.pop()
        duration = end - frame.start
        self.self_ns[self.cmd][frame.module] += duration - frame.child_ns
        if self.stack:
            self.stack[-1].child_ns += duration
        if error is not None:
            self._error(frame.module, error)
            frame.attrs["error"] = type(error).__name__
        self.spans.append((frame.sid, frame.parent, self.cmd, frame.name, frame.module, frame.start, end, frame.attrs))

    def _error(self, module, error):
        # an exception crossing several spans counts once, in the span that raised it
        if not getattr(error, "_perfbench_counted", False):
            self.errors[self.cmd][module] += 1
            error._perfbench_counted = True

    def add_light(self, name, module, duration):
        entry = self.light[(self.cmd, name)]
        entry[0] += 1
        entry[1] += duration
        self.self_ns[self.cmd][module] += duration
        if self.stack:
            self.stack[-1].child_ns += duration

    def command(self, cmd, call):
        """Run call() as the root span 'cli_io.main' of command cmd."""
        self.cmd = cmd
        frame = self.open("cli_io.main", "cli_io")
        try:
            result = call()
        except Exception as exc:
            self.close(frame, exc)
            raise
        self.close(frame)
        return result

    # --- wrappers ------------------------------------------------------------

    def span(self, fn, name, module, attrs=None, result_attrs=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            frame = tracer.open(span_name, module, attrs(args, kwargs) if attrs else None)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(frame, exc)
                raise
            if result_attrs:
                frame.attrs.update(result_attrs(result))
            tracer.close(frame)
            return result

        return wrapper

    def light_span(self, fn, name, module):
        tracer = self

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(module, exc)
                raise
            finally:
                tracer.add_light(name, module, perf_counter_ns() - start)

        return wrapper

    def counting_field(self, factory):
        tracer = self

        def counted_factory(*args, **kwargs):
            field = factory(*args, **kwargs)

            def counted(point):
                frame = tracer.stack[-1] if tracer.stack else None
                if frame is not None:
                    frame.attrs["field_calls"] = frame.attrs.get("field_calls", 0) + 1
                return field(point)

            return counted

        return counted_factory

    # --- installation ----------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, gupab):
        self.missing = []
        cli, fg, pe, cl, ga = gupab.cli_io, gupab.field_geometry, gupab.phase_engine, gupab.clifford, gupab.gup_algebra
        span, light = self.span, self.light_span

        def sweep_attrs(args, kwargs):
            config = args[0] if args else kwargs.get("config")
            sweep = getattr(config, "sweep", None)
            return {"parameter": sweep.parameter, "rows": len(sweep.values)} if sweep else {}

        def projection_name(fn):
            def name(args, kwargs):
                projection = _argument(fn, args, kwargs, "projection") or "comoving_on_shell"
                short = "comoving" if projection == "comoving_on_shell" else projection
                return f"phase_engine.gup_phase_projected.{short}"

            return name

        def arg_attr(fn, arg, key, convert=lambda v: v):
            def attrs(args, kwargs):
                value = _argument(fn, args, kwargs, arg)
                return {key: convert(value)} if value is not None else {}

            return attrs

        self._patch(cli, "load_config", lambda f: span(f, "cli_io.load_config", "cli_io"))
        self._patch(cli, "run_phase", lambda f: span(f, "cli_io.run_phase", "cli_io"))
        self._patch(cli, "run_sweep", lambda f: span(f, "cli_io.run_sweep", "cli_io", sweep_attrs))
        self._patch(cli, "sweep_csv", lambda f: span(f, "cli_io.output", "cli_io"))
        self._patch(cli, "dispersion_csv", lambda f: span(f, "cli_io.dispersion_csv", "cli_io", arg_attr(f, "steps", "steps")))
        self._patch(cli, "run_verification", lambda f: span(f, "cli_io.run_verification", "cli_io", arg_attr(f, "level", "level")))
        self._patch(cli, "json", lambda m: types.SimpleNamespace(**dict(vars(m), dumps=span(m.dumps, "cli_io.output", "cli_io"))))
        self._patch(pe.PhaseResult, "to_json_dict", lambda f: span(f, "cli_io.output", "cli_io"))
        self._patch(cli, "total_phase", lambda f: span(f, "phase_engine.total_phase", "phase_engine"))
        self._patch(cli, "make_loop", lambda f: span(f, "field_geometry.make_loop", "field_geometry"))
        self._patch(cli, "dispersion", lambda f: light(f, "phase_engine.dispersion", "phase_engine"))
        self._patch(fg, "circle_loop", lambda f: span(f, "field_geometry.circle_loop", "field_geometry"))
        self._patch(pe, "_ab_integral", lambda f: span(f, "phase_engine.ab_phase", "phase_engine"))
        self._patch(
            pe,
            "line_integral",
            lambda f: span(f, "field_geometry.line_integral", "field_geometry",
                           result_attrs=lambda r: {"nodes_per_segment": getattr(r, "nodes_per_segment", None)}),
        )
        self._patch(pe, "solenoid_field", self.counting_field)
        self._patch(pe, "_matrix_correction", lambda f: span(f, "phase_engine.gup_phase_matrix", "phase_engine"))
        self._patch(pe, "_projected_correction", lambda f: span(f, projection_name(f), "phase_engine"))
        for owner in (pe, cl):
            self._patch(owner, "on_shell_spinor", lambda f: light(f, "clifford.on_shell_spinor", "clifford"))
            self._patch(owner, "slash", lambda f: light(f, "clifford.slash", "clifford"))
        self._patch(
            ga,
            "grid_operator_lab",
            lambda f: span(f, "gup_algebra.grid_operator_lab", "gup_algebra", arg_attr(f, "grid", "n", lambda g: g.n)),
        )
        self._patch(ga, "uncertainty_check", lambda f: light(f, "gup_algebra.uncertainty_check", "gup_algebra"))
        self._patch(
            ga,
            "commutator_consistency_exponent",
            lambda f: light(f, "gup_algebra.commutator_consistency_exponent", "gup_algebra"),
        )

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- output -------------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, cmd, name, module, start, end, attrs in self.spans:
                record = {"span": sid, "parent": parent, "cmd": cmd, "name": name, "module": module,
                          "start_ns": start, "end_ns": end, "attrs": attrs}
                out.write(json.dumps(record) + "\n")
            for (cmd, name), (calls, total) in self.light.items():
                out.write(json.dumps({"cmd": cmd, "name": name, "calls": calls, "total_ns": total}) + "\n")


# --- per-layer metrics ------------------------------------------------------------


def _mean(values):
    return statistics.fmean(values) if values else None


def layer_metrics(tracer: Tracer, is_workload):
    """Per-layer metrics from the spans of the commands is_workload(cmd) accepts.

    Times are means per call. Returns {metric: value or None when no call
    was seen}.
    """
    by_name = defaultdict(list)
    for span in tracer.spans:
        if is_workload(span[2]):
            by_name[span[3]].append(span)

    def ms(spans):
        return _mean([(s[6] - s[5]) / 1e6 for s in spans])

    def light_us(name):
        calls = total = 0
        for (cmd, light_name), (n, ns) in tracer.light.items():
            if light_name == name and is_workload(cmd):
                calls, total = calls + n, total + ns
        return total / calls / 1e3 if calls else None

    metrics = {"cli_io.load_config.ms": ms(by_name["cli_io.load_config"])}
    for kind in ("linear", "nonlinear"):
        sweeps = [s for s in by_name["cli_io.run_sweep"] if (s[7].get("parameter") in LINEAR_SWEEPS) == (kind == "linear")]
        rows = sum(s[7].get("rows", 0) for s in sweeps)
        metrics[f"cli_io.run_sweep.row_ms.{kind}"] = sum(s[6] - s[5] for s in sweeps) / rows / 1e6 if rows else None
    per_command = defaultdict(int)
    for s in by_name["cli_io.output"]:
        per_command[s[2]] += s[6] - s[5]
    metrics["cli_io.output.ms"] = _mean([ns / 1e6 for ns in per_command.values()])
    for level in ("fast", "full"):
        metrics[f"cli_io.run_verification.{level}.ms"] = ms([s for s in by_name["cli_io.run_verification"] if s[7].get("level") == level])
    disp = by_name["cli_io.dispersion_csv"]
    steps = sum(s[7].get("steps", 0) for s in disp)
    metrics["cli_io.dispersion_csv.row_us"] = sum(s[6] - s[5] for s in disp) / steps / 1e3 if steps else None

    integrals = by_name["field_geometry.line_integral"]
    metrics["field_geometry.make_loop.ms"] = ms(by_name["field_geometry.make_loop"])
    metrics["field_geometry.line_integral.ms"] = ms(integrals)
    metrics["field_geometry.field_calls"] = _mean([s[7].get("field_calls", 0) for s in integrals])
    metrics["field_geometry.line_integral.nodes_per_segment"] = _mean(
        [s[7]["nodes_per_segment"] for s in integrals if s[7].get("nodes_per_segment") is not None]
    )

    ab = by_name["phase_engine.ab_phase"]
    metrics["phase_engine.ab_phase.ms"] = ms(ab)
    # derived: the field-free check is private, so it is ab_phase minus its line integral
    inner = defaultdict(int)
    for s in integrals:
        inner[s[1]] += s[6] - s[5]
    metrics["phase_engine.field_free_check.ms"] = _mean([(s[6] - s[5] - inner[s[0]]) / 1e6 for s in ab])
    metrics["phase_engine.gup_phase_matrix.ms"] = ms(by_name["phase_engine.gup_phase_matrix"])
    metrics["phase_engine.gup_phase_projected.comoving.ms"] = ms(by_name["phase_engine.gup_phase_projected.comoving"])
    metrics["phase_engine.gup_phase_projected.fixed_spinor.ms"] = ms(by_name["phase_engine.gup_phase_projected.fixed_spinor"])
    metrics["phase_engine.total_phase.ms"] = ms(by_name["phase_engine.total_phase"])
    metrics["phase_engine.dispersion.us"] = light_us("phase_engine.dispersion")

    metrics["clifford.on_shell_spinor.us"] = light_us("clifford.on_shell_spinor")
    metrics["clifford.slash.us"] = light_us("clifford.slash")

    labs = by_name["gup_algebra.grid_operator_lab"]
    for n in (256, 512):
        metrics[f"gup_algebra.grid_operator_lab.n{n}.ms"] = ms([s for s in labs if s[7].get("n") == n])
    metrics["gup_algebra.uncertainty_check.us"] = light_us("gup_algebra.uncertainty_check")
    metrics["gup_algebra.commutator_consistency_exponent.us"] = light_us("gup_algebra.commutator_consistency_exponent")

    total = sum(ns for cmd, modules in tracer.self_ns.items() if is_workload(cmd) for ns in modules.values())
    for module in MODULES:
        own = sum(modules.get(module, 0) for cmd, modules in tracer.self_ns.items() if is_workload(cmd))
        metrics[f"{module}.self_share"] = own / total if total else 0.0
        metrics[f"{module}.errors"] = sum(errs.get(module, 0) for cmd, errs in tracer.errors.items() if is_workload(cmd))
    return metrics
