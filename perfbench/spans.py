"""Span tracing of revlab's layers from outside the package.

A Tracer replaces module attributes that the layers call through with
wrappers that record one span per call (name, start, end, parent) and a few
counters.  Span times are the calling thread's CPU time, which excludes
stretches when another process had the CPU.  Spans stay in memory until the
scenario ends.  A hook whose
attribute no longer exists is reported as absent: its metrics are left out,
never read as 0.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

# (module, attribute, span name).  The span name's first component is the
# layer the call belongs to.  Each attribute is patched in the module that
# calls it: rewriting.fire runs under the name revlab.explorer.fire, so that
# is the attribute to replace.
SPAN_HOOKS = (
    ("revlab.cli", "run", "cli.run"),
    ("revlab.cli", "build_protocol", "protocols.build_protocol"),
    ("revlab.cli", "run_all", "goals.run_all"),
    ("revlab.cli", "build_document", "report.build_document"),
    ("revlab.goals", "initial_state", "protocols.initial_state"),
    ("revlab.goals", "explore", "explorer.explore"),
    ("revlab.goals", "_evaluate", "goals.evaluate"),
    ("revlab.goals", "_minimal_prefix", "goals.minimal_prefix"),
    ("revlab.goals", "replay", "goals.replay"),
    ("revlab.recheck", "holds", "recheck.holds"),
    ("revlab.explorer", "canonicalize", "explorer.canonicalize"),
    ("revlab.explorer", "enabled_instances", "rewriting.enabled_instances"),
    ("revlab.explorer", "fire", "rewriting.fire"),
    ("revlab.knowledge", "synthesize", "knowledge.synthesize"),
    ("revlab.knowledge", "can_derive", "knowledge.can_derive"),
    ("revlab.knowledge", "observe", "knowledge.observe"),
    ("revlab.report", "_check_replay", "report.check_replay"),
    ("revlab.report", "replay", "report.replay"),
    ("revlab.report", "canonicalize", "report.canonicalize"),
)


class Tracer:
    """Records spans and counters for one scenario in one process."""

    def __init__(self, scenario: str):
        self.scenario = scenario
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._explore_limit = None  # step count at which explore stops expanding
        self._restore: list[tuple] = []

    # -- hooks -----------------------------------------------------------

    def install(self) -> None:
        """Hook every layer boundary the benchmark measures."""
        for module, attr, name in SPAN_HOOKS:
            before = after = None
            if name == "explorer.explore":
                before, after = self._explore_began, self._explore_ended
            elif name == "rewriting.fire":
                before = self._fire_began
            elif name == "knowledge.synthesize":
                after = self._count_len("knowledge.synth_results")
            elif name == "rewriting.enabled_instances":
                after = self._count_len("rewriting.instances")
            self.wrap(importlib.import_module(module), attr, name, before, after)
        self.counts["explorer.bound_fires"] = 0
        for span, counter in (
            ("knowledge.synthesize", "knowledge.synth_results"),
            ("rewriting.enabled_instances", "rewriting.instances"),
            ("explorer.explore", "explorer.bound_fires"),
            ("rewriting.fire", "explorer.bound_fires"),
        ):
            if span in self.absent:
                self.absent.add(counter)
        self.count_calls(
            importlib.import_module("revlab.rewriting"), "_guards_hold",
            "rewriting.guard_checks", lambda result: True,
        )
        self.count_calls(
            importlib.import_module("revlab.explorer"), "_within_rule_bounds",
            "explorer.rule_bound_refusals", lambda result: not result,
        )

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr by a wrapper recording a span named `name`.

        before(args, kwargs) runs ahead of the call and after(result) once it
        returns.  A missing attribute, or a generator function whose work
        happens after the call returns, marks `name` absent.
        """
        fn = getattr(owner, attr, None)
        if not callable(fn) or inspect.isgeneratorfunction(fn):
            self.absent.add(name)
            return
        spans, stack, clock = self.spans, self._stack, time.thread_time

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    def count_calls(self, owner, attr: str, name: str, counts) -> None:
        """Count calls of owner.attr whose result satisfies `counts`; no span."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.absent.add(name)
            return
        tally = self.counts
        tally[name] = 0

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if counts(result):
                tally[name] += 1
            return result

        setattr(owner, attr, counted)
        self._restore.append((owner, attr, fn))

    def _count_len(self, name: str):
        self.counts[name] = 0

        def after(result):
            try:
                self.counts[name] += len(result)
            except TypeError:
                self.absent.add(name)

        return after

    def _explore_began(self, args, kwargs) -> None:
        init = args[1] if len(args) > 1 else kwargs.get("init")
        bounds = args[2] if len(args) > 2 else kwargs.get("bounds")
        try:
            self._explore_limit = init.step + bounds.max_steps
        except AttributeError:
            self.absent.add("explorer.bound_fires")

    def _explore_ended(self, result) -> None:
        self._explore_limit = None

    def _fire_began(self, args, kwargs) -> None:
        # A fire on a state already at the step bound only tells explore
        # that the leaf is truncated; its child is thrown away.
        if self._explore_limit is None:
            return
        state = args[0] if args else kwargs.get("state")
        step = getattr(state, "step", None)
        if step is None:
            self.absent.add("explorer.bound_fires")
        elif step >= self._explore_limit:
            self.counts["explorer.bound_fires"] += 1

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name totals, counters and absent hooks, as JSON data."""
        apps = getattr(importlib.import_module("revlab.terms"), "_apps", None)
        if apps is None:
            self.absent.add("terms.interned")
        else:
            self.counts["terms.interned"] = len(apps)
        return {
            "spans": self_times(self.spans),
            "counts": {
                k: v for k, v in self.counts.items() if k not in self.absent
            },
            "absent": sorted(self.absent),
        }

    def write(self, path) -> None:
        """Write the raw spans, tagged with the scenario id, as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "scenario": self.scenario,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": self.spans,
                },
                fh,
            )


def self_times(spans) -> dict:
    """Totals per span name: {name: [calls, inclusive_s, self_s]}.

    A span's self time is its duration minus the durations of its direct
    children.  Inclusive time counts only the outermost span of a name, so
    recursion through a hooked name is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, list] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = totals.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[2] += (end - start) - child_time[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row[1] += end - start
    return totals
