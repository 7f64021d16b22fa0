"""Spans around the package's public functions, recorded from outside.

The tracer replaces module attributes with timing wrappers for the length
of a traced phase and puts them back afterwards. A span's self time is its
duration minus the time its child spans cover, so the self times of all
spans, the benchmark's own root span included, add up to the traced wall.
Counts (kernel steps, records, events, bytes read) are taken at the same
boundaries from the arguments and return values.
"""

from __future__ import annotations

import builtins
import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). Where a caller imported a function by name
# the caller's module is patched too, under the same span name.
SPANS = (
    ("etseek._backend.kernel", "run_loop", "kernel.run_loop"),
    ("etseek._backend.kernel", "avg_loop", "kernel.avg_loop"),
    ("etseek.escore", "run", "escore.run"),
    ("etseek.average", "avg_run", "average.avg_run"),
    ("etseek.trigger", "validate_assumption", "trigger.validate_assumption"),
    ("etseek.cli", "validate_assumption", "trigger.validate_assumption"),
    ("etseek.analysis", "event_statistics", "analysis.event_statistics"),
    ("etseek.analysis", "convergence_envelopes", "analysis.convergence_envelopes"),
    ("etseek.analysis", "lyapunov_sequence", "analysis.lyapunov_sequence"),
    ("etseek.analysis", "check_decay", "analysis.check_decay"),
    ("etseek.cli", "parse_config", "cli.parse_config"),
    ("etseek.cli", "run_experiment", "cli.run_experiment"),
    ("etseek.cli", "sweep", "cli.sweep"),
    ("etseek.cli", "main", "cli.main"),
)


def _resolve(path):
    """Module object for a dotted path, following attributes past the package."""
    head, _, rest = path.partition(".")
    obj = sys.modules[head]
    for part in rest.split("."):
        obj = getattr(obj, part)
    return obj


def _count_steps(tracer, result):
    tracer.counts["kernel.steps"] += len(result[0])


def _count_true_run(tracer, result):
    traj, log = result
    tracer.counts["escore.records"] += len(traj)
    tracer.counts["escore.steps"] += len(traj)
    # the first entry seeds the hold at k = 0; every later one is a fire
    tracer.counts["trigger.events"] += len(log.entries) - 1


def _count_avg_run(tracer, result):
    tracer.counts["average.records"] += len(result)


COUNTERS = {
    "kernel.run_loop": _count_steps,
    "kernel.avg_loop": _count_steps,
    "escore.run": _count_true_run,
    "average.avg_run": _count_avg_run,
}


class Tracer:
    """Self and total time per span name, plus counts, across a traced phase."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child_s = [0.0]
        self._saved = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = self._child_s.pop()
                self._child_s[-1] += duration
                self.self_s[name] += duration - child
                self.total_s[name] += duration
            if counter is not None:
                counter(self, result)
            return result

        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args)

    def install(self):
        for path, attr, name in SPANS:
            try:
                module = _resolve(path)
                original = getattr(module, attr)
            except (KeyError, AttributeError):
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        cli = sys.modules.get("etseek.cli")
        if cli is not None:
            self._saved.append((cli, "open", None))
            cli.open = self._counting_open

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            if original is None:
                delattr(module, attr)
            else:
                setattr(module, attr, original)
        self._saved.clear()

    def _counting_open(self, file, mode="r", *args, **kwargs):
        # bytes a read-mode open makes available; sweep reads each file whole
        if not set(mode) & set("wax+"):
            self.counts["cli.bytes_read"] += os.path.getsize(file)
        return builtins.open(file, mode, *args, **kwargs)
