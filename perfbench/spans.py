"""Spans around the calls the enumerator makes into each layer.

The enumerator imports its collaborators by name, so a wrapper must replace
the name in `ffgmc.enumerator`, where it is looked up, not in the defining
module.  No source under src/ changes.  Wrappers live in the calling process
only: pool workers started by `--jobs 2` are invisible to them, which is why
traced runs use one job.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# (layer, function looked up in ffgmc.enumerator).  The first two are the
# root spans the benchmark calls; the rest are children of a root.
WRAPPED = (
    ("enumerator", "search"),
    ("enumerator", "check_lfp_gfp"),
    ("enumerator", "materialize_state"),
    ("tables", "build_graph_tables"),
    ("tables", "project_tables"),
    ("tables", "state_table"),
    ("kernels", "scan_states"),
    ("slashing", "accountable_safety"),
)
ROOTS = ("enumerator.search", "enumerator.check_lfp_gfp")


class MissingLayer(Exception):
    """A wrapped name is gone from the module that used to look it up."""


class Tracer:
    """Holds spans [name, start, end, parent index, run id] in memory."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.rows_scanned = 0
        self.table_misses = 0
        self.table_rows = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def install(self, module) -> None:
        """Replace every WRAPPED name in `module` by a span-recording wrapper."""
        for layer, name in WRAPPED:
            if not hasattr(module, name):
                raise MissingLayer(
                    f"layer {layer!r}: {module.__name__}.{name} no longer exists; "
                    "update WRAPPED in perfbench/spans.py"
                )
            setattr(module, name, self._wrap(f"{layer}.{name}", getattr(module, name)))

    def _wrap(self, span_name, fn):
        def traced(*args, **kwargs):
            if span_name == "tables.state_table":
                misses = fn.cache_info().misses
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if span_name == "kernels.scan_states":
                self.rows_scanned += result[1]
            elif span_name == "tables.state_table" and fn.cache_info().misses > misses:
                self.table_misses += 1
                self.table_rows += int(result[0].shape[0])
            return result

        return traced

    def layer_metrics(self, verdict_s: float, summary: dict) -> dict:
        """Per-layer counts and seconds of one traced verdict."""
        calls: dict[str, int] = {}
        seconds: dict[str, float] = {}
        child_s: dict[int, float] = {}
        for name, start, end, parent, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + (end - start)
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        root_self_s = sum(
            (end - start) - child_s.get(i, 0.0)
            for i, (name, start, end, _, _) in enumerate(self.spans)
            if name in ROOTS
        )
        scan_s = seconds.get("kernels.scan_states", 0.0)
        scan_calls = calls.get("kernels.scan_states", 0)
        checked, pruned = summary["checked"], summary["pruned"]
        # check_lfp_gfp reports no unit count; each unit builds its tables once.
        units = summary.get("units", calls.get("tables.build_graph_tables", 0))
        return {
            "trace.verdict_s": verdict_s,
            "kernels.scan_states.s": scan_s,
            "kernels.scan_states.calls": scan_calls,
            "kernels.scan_states.rows": self.rows_scanned,
            "kernels.rows_per_s": self.rows_scanned / scan_s if scan_s else 0.0,
            "kernels.rows_per_call": self.rows_scanned / scan_calls if scan_calls else 0.0,
            "kernels.scan_share": scan_s / verdict_s,
            "tables.project_tables.calls": calls.get("tables.project_tables", 0),
            "tables.project_tables.s": seconds.get("tables.project_tables", 0.0),
            "tables.build_graph_tables.calls": calls.get("tables.build_graph_tables", 0),
            "tables.build_graph_tables.s": seconds.get("tables.build_graph_tables", 0.0),
            "tables.state_table.misses": self.table_misses,
            "tables.state_table.s": seconds.get("tables.state_table", 0.0),
            "tables.state_table.rows": self.table_rows,
            "enumerator.units": units,
            "enumerator.self_s": root_self_s,
            "enumerator.states_checked": checked,
            "enumerator.states_pruned": pruned,
            "enumerator.pruned_frac": pruned / (checked + pruned) if checked + pruned else 0.0,
            "enumerator.materialize_state.s": seconds.get("enumerator.materialize_state", 0.0),
            "slashing.accountable_safety.calls": calls.get("slashing.accountable_safety", 0),
            "slashing.accountable_safety.s": seconds.get("slashing.accountable_safety", 0.0),
            "scenario.replay_s": seconds.get("scenario.replay", 0.0),
        }
