"""Layer spans recorded from outside the program.

Each target below is a public crosscheck function, wrapped at the module
attribute its callers look it up through at call time (``alarm.py``
calls ``marginalize`` through its own module globals, so the wrapper
goes on ``crosscheck.alarm.marginalize``).  One layer can have several
targets because every importing module holds its own reference.

A span records its layer, start, end and the span that was open when it
started.  Self time is a span's duration minus the time of the spans
directly inside it; it is summed per layer as spans close, so a run of
millions of calls needs no memory for them.  The first ``span_cap``
spans are also kept in memory and written out when the run ends.

A target that no longer exists is reported by :meth:`Tracer.install`
instead of being skipped, so a renamed function shows up as a missing
wrapper rather than as a layer that silently reads zero.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter


def _ingest_items(counts, args, result):
    counts["persist.ingest_items"] += len(result.records)


def _trace_chars(counts, args, result):
    counts["persist.trace_bytes"] += len(result)


def _write_chars(counts, args, result):
    counts["persist.write_bytes"] += len(args[1])


def _svg_chars(counts, args, result):
    counts["svg.bytes"] += len(result)


def _slice_outcome(counts, args, result):
    counts["alarm.safe"] += result.safe_exists
    counts["alarm.refined_hypotheses"] += result.refined


# (layer, module, attribute, counter extractor or None)
TARGETS = (
    ("cli.main", "crosscheck.cli", "main", None),
    ("persist.ingest", "crosscheck.cli", "ingest", _ingest_items),
    ("persist.load_sketch", "crosscheck.cli", "load_sketch", None),
    ("persist.save_sketch", "crosscheck.cli", "save_sketch", None),
    ("persist.trace_json", "crosscheck.persist", "trace_to_json_text", _trace_chars),
    ("persist.trace_csv", "crosscheck.persist", "trace_to_csv_text", _trace_chars),
    ("persist.write", "crosscheck.persist", "atomic_write_text", _write_chars),
    ("model.sketch_build", "crosscheck.cli", "records_to_decisions", None),
    ("model.sketch_build", "crosscheck.cli", "sketch_from_decisions", None),
    ("model.marginalize", "crosscheck.alarm", "marginalize", None),
    ("model.marginalize", "crosscheck.axioms", "marginalize", None),
    ("model.marginalize", "crosscheck.cli", "marginalize", None),
    ("model.marginalize", "crosscheck.model", "marginalize", None),
    ("model.pair_counts", "crosscheck.alarm", "pair_counts", None),
    ("model.pair_counts", "crosscheck.axioms", "pair_counts", None),
    ("model.validate", "crosscheck.alarm", "validate_sketch", None),
    ("model.validate", "crosscheck.axioms", "validate_sketch", None),
    ("model.validate", "crosscheck.cli", "validate_sketch", None),
    ("model.validate", "crosscheck.independent", "validate_sketch", None),
    ("model.validate", "crosscheck.model", "validate_sketch", None),
    ("model.validate", "crosscheck.oracle", "validate_sketch", None),
    ("axioms.interval", "crosscheck.alarm", "feasible_interval_label_a", None),
    ("axioms.interval", "crosscheck.alarm", "feasible_interval_label_b", None),
    ("axioms.interval", "crosscheck.axioms", "feasible_interval_label_a", None),
    ("axioms.interval", "crosscheck.axioms", "feasible_interval_label_b", None),
    ("axioms.pair_partner", "crosscheck.alarm", "pair_partner_interval", None),
    ("alarm.evaluate_qa", "crosscheck.alarm", "evaluate_qa", _slice_outcome),
    ("alarm.run_alarm", "crosscheck.cli", "run_alarm", None),
    ("svg.render", "crosscheck.svg", "render_traces", _svg_chars),
    ("independent.solve", "crosscheck.cli", "solve_independent", None),
    ("oracle.check_summary", "crosscheck.cli", "check_summary", None),
)

class Tracer:
    """Span stack plus per-layer totals: self seconds, calls and counters."""

    def __init__(self, span_cap: int = 100_000) -> None:
        self.span_cap = span_cap
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.spans_dropped = 0
        self._next_id = 0
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero the totals; kept spans stay."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def call(self, layer, fn, extract, args, kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [span_id, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[1]
            self.calls[layer] += 1
            if stack:
                stack[-1][1] += duration
            if len(self.spans) < self.span_cap:
                self.spans.append((span_id, parent, layer, start, end))
            else:
                self.spans_dropped += 1
        if extract is not None:
            extract(self.counts, args, result)
        return result

    def install(self) -> list[str]:
        """Wrap every target; return the targets that do not exist."""
        missing = []
        for layer, module_name, attr, extract in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(layer, original, extract))
            self._patched.append((module, attr, original))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer, fn, extract):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, extract, args, kwargs)

        return wrapper

    def dump(self) -> dict:
        """Totals and kept spans as JSON-ready data (for a child process)."""
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }

    def merge(self, dumped: dict) -> None:
        """Add a child process's dump under the currently open span."""
        for layer, value in dumped["self_s"].items():
            self.self_s[layer] += value
        for layer, value in dumped["calls"].items():
            self.calls[layer] += value
        for name, value in dumped["counts"].items():
            self.counts[name] += value
        frame = self._stack[-1] if self._stack else None
        parent = frame[0] if frame else None
        base = self._next_id
        top = 0
        for span_id, span_parent, layer, start, end in dumped["spans"]:
            top = max(top, span_id + 1)
            if span_parent is None and frame is not None:
                frame[1] += end - start
            if len(self.spans) < self.span_cap:
                new_parent = parent if span_parent is None else base + span_parent
                self.spans.append((base + span_id, new_parent, layer, start, end))
            else:
                self.spans_dropped += 1
        self._next_id = base + top
        self.spans_dropped += dumped["spans_dropped"]
