"""Wrappers around the program's functions, installed from outside it.

Each hook is a context manager that swaps module attributes of cceq for
wrappers on entry and puts the originals back on exit. A function that no
longer exists is skipped, so a later change that removes a layer records
nothing for it and fails nothing.

- `Tracer` records a span (name, start, end, parent span, trial span)
  around each public function the harness calls. Spans are kept in
  memory; `dump()` writes them out at the end.
- `PeakMemory` measures the allocation peak of the full-ccce solve, in a
  round of its own.
- `Capture` keeps the distribution of every OPTIMAL full-ccce solve, for
  the output checks.

`game_key` and `csv_digest` identify a game and a round's CSV by digest;
they are here, and not in checks.py, so that the workload process need not
import scipy.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from functools import wraps

# (module, attribute, span name): the harness calls these by module-global
# name, and the selection program reaches the LP through `cceq.lp.solve`.
SPAN_TARGETS = (
    ("cceq.harness", "generate_instance", "vq.generate_instance"),
    ("cceq.harness", "build_game", "vq.build_game"),
    ("cceq.harness", "solve_full_ccce", "equilibrium.solve_full_ccce"),
    ("cceq.equilibrium", "assemble_ce_constraints", "equilibrium.assemble"),
    ("cceq.lp", "solve", "lp.solve"),
    ("cceq.harness", "enumerate_cc_pne", "equilibrium.enumerate_cc_pne"),
    ("cceq.harness", "solve_reduced_rank", "equilibrium.solve_reduced_rank"),
    ("cceq.harness", "sample_recommendation", "equilibrium.sample_recommendation"),
    ("cceq.harness", "simulate_deviation", "harness.simulate_deviation"),
    ("cceq.harness", "substream", "uncertainty.substream"),
)
# Called too often for a span each; counted only.
COUNT_TARGETS = (
    ("cceq.harness", "conditional_expected_deviation", "game.conditional_expected_deviation"),
)
TRIAL_TARGET = ("cceq.harness", "run_trial", "harness.run_trial")
# Tracing every allocation slows the full-ccce solves severalfold, so
# PeakMemory runs in the untimed warm-up round, apart from the spans.
FULL_CCCE_TARGET = ("cceq.harness", "solve_full_ccce")


def _patch(saved, module_name, attr, wrapper_for):
    module = importlib.import_module(module_name)
    original = getattr(module, attr, None)
    if original is None:
        return
    saved.append((module, attr, original))
    setattr(module, attr, wrapper_for(original))


def _restore(saved):
    while saved:
        module, attr, original = saved.pop()
        setattr(module, attr, original)


class _Hook:
    def __init__(self):
        self._saved = []

    def __exit__(self, *exc):
        _restore(self._saved)
        return False


def game_key(game) -> str:
    """Identifies a game by its cost tables."""
    return hashlib.sha256(game.costs.tobytes()).hexdigest()


def csv_digest(text: str, columns) -> str:
    """sha256 of the CSV with the solve_seconds column blanked."""
    rows = list(csv.reader(io.StringIO(text)))
    col = list(columns).index("solve_seconds")
    out = io.StringIO()
    writer = csv.writer(out)
    for k, row in enumerate(rows):
        if k and len(row) > col:
            row[col] = ""
        writer.writerow(row)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


class Capture(_Hook):
    """Keeps (support, masses) of every OPTIMAL full-ccce solve by `game_key`."""

    def __init__(self):
        super().__init__()
        self.distributions = {}

    def _wrap(self, fn):
        @wraps(fn)
        def kept(game, *args, **kwargs):
            result = fn(game, *args, **kwargs)
            if result.distribution is not None:
                mass = result.distribution.mass
                support = mass.nonzero()[0]
                self.distributions[game_key(game)] = (support.tolist(), mass[support].tolist())
            return result

        return kept

    def __enter__(self):
        _patch(self._saved, *FULL_CCCE_TARGET, self._wrap)
        return self


class PeakMemory(_Hook):
    """Largest tracemalloc peak over the full-ccce solves, in bytes."""

    def __init__(self):
        super().__init__()
        self.peak_bytes = 0

    def _wrap(self, fn):
        @wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def __enter__(self):
        _patch(self._saved, *FULL_CCCE_TARGET, self._wrap)
        return self


class Tracer(_Hook):
    """Spans of one round; counts of the calls too frequent for a span each."""

    def __init__(self):
        super().__init__()
        self.spans = []  # [name, start, end, parent index, trial index]
        self.counts = Counter()
        self._stack = []

    # --- recording ----------------------------------------------------------

    def _span(self, name, fn, *, trial=False):
        spans, stack, counts = self.spans, self._stack, self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{args[2]}" if trial else name  # run_trial(config, t, method, F)
            index = len(spans)
            parent = stack[-1] if stack else -1
            trial_index = index if parent < 0 else spans[parent][4]
            span = [label, 0.0, 0.0, parent, trial_index]
            spans.append(span)
            stack.append(index)
            counts[name] += 1
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self):
        _patch(self._saved, *TRIAL_TARGET[:2],
               lambda fn: self._span(TRIAL_TARGET[2], fn, trial=True))
        for module, attr, name in SPAN_TARGETS:
            _patch(self._saved, module, attr, lambda fn, name=name: self._span(name, fn))
        for module, attr, name in COUNT_TARGETS:
            _patch(self._saved, module, attr, lambda fn, name=name: self._count(name, fn))
        return self

    # --- summaries ----------------------------------------------------------

    def layer_stats(self) -> dict:
        """Self time per span name, trial latencies per method and call counts.

        A span's self time is its duration minus its children's durations.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy = defaultdict(float)
        trial_ms = defaultdict(list)
        trial_total = 0.0
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            busy[name] += end - start - child_time[k]
            if parent < 0:
                trial_ms[name].append((end - start) * 1e3)
                trial_total += end - start
        return {"busy_s": dict(busy), "trial_ms": dict(trial_ms), "trial_total_s": trial_total,
                "calls": dict(self.counts)}

    def dump(self, handle, round_index: int) -> None:
        """Write one JSON line per span; parent and trial are span indices."""
        for name, start, end, parent, trial in self.spans:
            handle.write(json.dumps({"round": round_index, "name": name, "start": start,
                                     "end": end, "parent": parent, "trial": trial}) + "\n")
