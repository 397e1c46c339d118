"""In-process span tracer that wraps the package's functions from outside it.

Each wrapped call records one span: label, start, end and the index of the
enclosing span. Spans live in flat arrays until the run ends, so a traced
batch of a million calls costs tens of megabytes, not a list of objects.
A function is wrapped at the name its caller looks up (``simulate.resolve_actions``
is the global that ``run_replica`` reads), and the span is labelled by the
module that defines it. A function the program stops calling keeps its
label with zero calls, and its time moves into the caller's self time.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module whose global the caller reads, attribute, span label)
WRAPPED = (
    ("cli", "load_document", "scenario.load_document"),
    ("cli", "apply_overrides", "scenario.apply_overrides"),
    ("cli", "parse_document", "scenario.parse_document"),
    ("cli", "run_batch", "simulate.run_batch"),
    ("cli", "detect_spiral", "cli.detect_spiral"),
    ("cli", "write_trace_csv", "cli.write_trace_csv"),
    ("cli", "write_summary_json", "cli.write_summary_json"),
    ("simulate", "run_replica", "simulate.run_replica"),
    ("simulate", "resolve_actions", "game.resolve_actions"),
    ("simulate", "apply_meta_influence", "simulate.apply_meta_influence"),
    ("simulate", "step_protocol", "protocol.step_protocol"),
    ("simulate", "sample_from_cumulative", "protocol.sample_from_cumulative"),
    ("simulate", "sample_theta", "protocol.sample_theta"),
    ("simulate", "stage_payoffs", "game.stage_payoffs"),
    ("simulate", "block_lottery", "game.block_lottery"),
    ("simulate", "discounted_utility", "discounting.discounted_utility"),
    ("simulate", "endogenous_discount_path", "discounting.endogenous_discount_path"),
    ("simulate", "summarize_batch", "simulate.summarize_batch"),
    ("simulate", "risk_adjusted_utility", "discounting.risk_adjusted_utility"),
    ("simulate", "detect_spiral", "simulate.detect_spiral"),
    ("equilibrium", "pure_nash", "equilibrium.pure_nash"),
    ("equilibrium", "grim_cooperation_verdict", "equilibrium.grim_cooperation_verdict"),
)

# The benchmark opens one cli.main span per CLI command under one root.
ROOT_LABEL = "trace.root"
COMMAND_LABEL = "cli.main"
LABELS = (COMMAND_LABEL,) + tuple(label for _, _, label in WRAPPED)

# Each call at these labels consumes one random draw.
DRAW_LABELS = (
    "protocol.step_protocol",
    "protocol.sample_from_cumulative",
    "protocol.sample_theta",
    "game.block_lottery",
)


class Tracer:
    """Collects spans from one single-threaded traced run."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label_of = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _open(self, label_id: int) -> int:
        index = len(self.start)
        self.label_of.append(label_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, label: str):
        index = self._open(self._label_id(label))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, label: str):
        label_id = self._label_id(label)
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span(label_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    def install(self, modules: dict) -> list[tuple[object, str, object]]:
        """Replace every WRAPPED global that exists; return what to restore."""
        saved = []
        for module_name, attribute, label in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attribute, None)
            if original is None:
                continue
            saved.append((module, attribute, original))
            setattr(module, attribute, self.wrap(original, label))
        return saved

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "label_of": np.frombuffer(self.label_of, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per label: calls, busy seconds and self seconds (busy minus children)."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        nested = spans["parent"] >= 0
        children = np.bincount(
            spans["parent"][nested], weights=duration[nested], minlength=duration.size
        )
        own = duration - children
        k = len(self.labels)
        calls = np.bincount(spans["label_of"], minlength=k)
        busy = np.bincount(spans["label_of"], weights=duration, minlength=k)
        self_time = np.bincount(spans["label_of"], weights=own, minlength=k)
        return {
            label: {
                "calls": int(calls[i]),
                "busy_s": float(busy[i]),
                "self_s": float(self_time[i]),
            }
            for i, label in enumerate(self.labels)
        }

    def save(self, path) -> None:
        np.savez(path, labels=np.array(self.labels), **self.arrays())


def restore(saved: list[tuple[object, str, object]]) -> None:
    for module, attribute, original in saved:
        setattr(module, attribute, original)
