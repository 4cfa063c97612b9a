"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the hetdata layers by rebinding the
traced functions in every loaded ``hetdata`` module while a traced op
runs, so calls one layer makes into another (``solve_threshold`` into
``portfolio_moment``, ``verify`` into ``user_utility``) are
caught as well.  The wrappers are removed again between traced ops:
untraced ops run the program's own functions, unwrapped.

A span is ``(span_id, parent_id, op_id, name, start, end, status)``.
Self time is a span's duration minus the part of it covered by its
children.  Per op, the self times of all spans (layer calls plus the
benchmark's own ``bench.op`` root) add up to the root span's duration,
which is the op's wall time; ``check_op`` tests that identity.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from hetdata.errors import NoSolutionError

# (module, function): every call the benchmark makes into a layer.
TRACED = (
    ("numerics", "portfolio_moment"),
    ("threshold", "solve_threshold"),
    ("threshold", "user_utility"),
    ("threshold", "provider_utility"),
    ("statics", "threshold_sensitivity"),
    ("statics", "theorem1_report"),
    ("statics", "output_ratio"),
    ("wealth", "solve_lambda"),
    ("wealth", "mc_expected_capital"),
    ("mc", "draw_population"),
    ("mc", "lln_check"),
    ("mc", "market_clearing_check"),
    ("verify", "run_all"),
    ("cli", "main"),
)
ROOT = "bench.op"
FUNCTION_STATS = (("calls", "count"), ("busy_s", "s"), ("p50_ms", "ms"),
                  ("fails", "count"))


def is_documented_no_root(exc: BaseException) -> bool:
    """The friction match's honest no-root answer, not a failure."""
    return isinstance(exc, NoSolutionError) and exc.target < exc.branch_minimum


def _work_count(name: str, args, kwargs, result) -> tuple:
    """(counter, amount) a call contributes, measured at the layer boundary."""
    if name == "threshold.solve_threshold":
        return "bracket_expansions", result.iterations
    if name == "wealth.mc_expected_capital":
        return "paths", kwargs.get("n_paths", args[3] if len(args) > 3 else 0)
    if name == "mc.draw_population":
        return "agents", kwargs.get("n", args[0] if args else 0)
    return None, 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._bindings = None  # (module, attribute, original, wrapper)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span_id = self._new_id()
            parent, op_id = self._stack[-1]
            self._stack.append((span_id, op_id))
            status = "ok"
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                status = "no_root" if is_documented_no_root(exc) else "error"
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, op_id, name, start, end, status))
            counter, amount = _work_count(name, args, kwargs, result)
            if counter:
                self.counts[f"{name}.{counter}"] += amount
            return result

        return traced

    def _find_bindings(self) -> list:
        """Every module attribute bound to a traced function."""
        modules = [m for key, m in sys.modules.items()
                   if key == "hetdata" or key.startswith("hetdata.")]
        bindings = []
        for mod_name, fn_name in TRACED:
            orig = getattr(sys.modules[f"hetdata.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is orig:
                        bindings.append((module, attr, orig, wrapper))
        return bindings

    @contextmanager
    def op(self, op_id: int):
        """Trace one op; its root span is the op's wall time."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        span_id = self._new_id()
        self._stack.append((span_id, op_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            for module, attr, orig, _ in self._bindings:
                setattr(module, attr, orig)
            self.spans.append((span_id, None, op_id, ROOT, start, end, "ok"))


def self_times(spans) -> dict:
    """span_id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span_id, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for span_id, _, _, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[span_id]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out


def check_op(spans, selfs) -> float:
    """Relative gap between an op's wall time and the sum of self times.

    Non-zero beyond rounding only if spans overlap or escape their
    parent, i.e. if the trace is not a proper call tree.
    """
    root = next(s for s in spans if s[1] is None)
    wall = root[5] - root[4]
    busy = sum(selfs[s[0]] for s in spans)
    return abs(busy - wall) / wall


def layer_metrics(spans, selfs, counts) -> dict:
    """Per-function calls, busy_s (self time), p50_ms (call time), fails."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)
    metrics = {}
    for mod_name, fn_name in TRACED:
        name = f"{mod_name}.{fn_name}"
        calls = by_name.get(name, [])
        durations = [s[5] - s[4] for s in calls]
        values = {
            "calls": len(calls),
            "busy_s": sum(selfs[s[0]] for s in calls),
            "p50_ms": 1e3 * statistics.median(durations) if durations else 0.0,
            "fails": sum(s[6] == "error" for s in calls),
        }
        for stat, unit in FUNCTION_STATS:
            metrics[f"{name}.{stat}"] = (values[stat], unit)
    metrics[f"{ROOT}.busy_s"] = (
        sum(selfs[s[0]] for s in by_name.get(ROOT, [])), "s")

    def inclusive(name):
        return sum(s[5] - s[4] for s in by_name.get(name, []))

    def rate(amount, name):
        busy = inclusive(name)
        return amount / busy if busy > 0 else 0.0

    metrics["threshold.solve_threshold.bracket_expansions"] = (
        counts["threshold.solve_threshold.bracket_expansions"], "count")
    metrics["statics.theorem1_report.no_solution"] = (
        sum(s[6] == "no_root" for s in by_name.get("statics.theorem1_report", [])),
        "count")
    metrics["wealth.mc_expected_capital.paths_per_s"] = (
        rate(counts["wealth.mc_expected_capital.paths"],
             "wealth.mc_expected_capital"), "1/s")
    metrics["mc.draw_population.agents_per_s"] = (
        rate(counts["mc.draw_population.agents"], "mc.draw_population"), "1/s")
    return metrics
