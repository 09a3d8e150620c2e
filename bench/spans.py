"""Layer spans recorded from outside the program.

:func:`instrument` wraps the public entry point of each ``scakit`` layer
for the duration of a ``with`` block.  Every call becomes a span (layer
name, start, end, parent span) kept in memory by a :class:`Tracer`, and
work counts computed from the call's array shapes are added at the same
boundary.  A layer's self time is its spans' durations minus the part
covered by their child spans, so a layer called from two others, such as
``aes.hypothesis_matrix`` under both ``cpa_attack`` and
``wrong_horse_scan``, is counted once, where it runs.
"""

import contextlib
import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span in Tracer.spans


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._open = []   # indices of spans entered but not yet left

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, self._open[-1] if self._open else None))
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()

    def self_times(self):
        """Seconds per layer name, each span's duration less its children's."""
        totals = defaultdict(float)
        for span in self.spans:
            duration = span.end - span.start
            totals[span.name] += duration
            if span.parent is not None:
                totals[self.spans[span.parent].name] -= duration
        return dict(totals)

    def root_time(self):
        return sum(s.end - s.start for s in self.spans if s.parent is None)


def _sctr_bytes(trace_set):
    # SCTR layout: 24-byte header, optional 16-byte key, 32 + 4*spt per record.
    key = 16 if trace_set.true_key is not None else 0
    return 24 + key + trace_set.n_traces * (32 + 4 * trace_set.samples_per_trace)


def _update_counts(args, result):
    _, hyp, samples = args
    m, g = hyp.shape
    s = samples.shape[1]
    # x.T @ y is 2*m*g*s flop; the column sums and squares of x and y 3 per element.
    return {"cpa.update.calls": 1, "cpa.update.flop": m * (2 * g * s + 3 * g + 3 * s)}


def _correlations_counts(args, result):
    g, s = args[0].sum_xy.shape
    # Least traffic a call can have: read the (g, s) float64 cross sums, write r.
    return {"cpa.correlations.calls": 1, "cpa.correlations.bytes": 16 * g * s}


# (span name, module, attribute, counts computed from (args, result)).
# Attributes named "Class.method" are patched on the class.
LAYERS = (
    ("aes.encrypt", "scakit.aes", "last_round_states_batch",
     lambda a, r: {"aes.encrypt.blocks": len(a[1])}),
    ("aes.encrypt", "scakit.aes", "encrypt_batch",
     lambda a, r: {"aes.encrypt.blocks": len(a[1])}),
    ("aes.hypothesis", "scakit.aes", "hypothesis_matrix",
     lambda a, r: {"aes.hypothesis.rows": len(a[0])}),
    ("leakage.toggle", "scakit.leakage", "toggle_bits", None),
    ("leakage.chunk", "scakit.leakage", "simulate_campaign_chunk", None),
    ("traces.concat", "scakit.traces", "concat_trace_sets", None),
    ("cpa.update", "scakit.cpa", "CorrelationAccumulator.update", _update_counts),
    ("cpa.correlations", "scakit.cpa", "CorrelationAccumulator.correlations",
     _correlations_counts),
    ("cpa.attack", "scakit.cpa", "cpa_attack", None),
    ("hd.scan", "scakit.hd", "wrong_horse_scan", lambda a, r: {"hd.scan.calls": 1}),
    ("traceio.import", "scakit.traceio", "import_raw",
     lambda a, r: {"traceio.import.rows": r.n_traces}),
    ("traceio.write", "scakit.traceio", "write_sctr",
     lambda a, r: {"traceio.write.bytes": _sctr_bytes(a[0])}),
    ("traceio.read", "scakit.traceio", "read_sctr",
     lambda a, r: {"traceio.read.bytes": _sctr_bytes(r)}),
)
LAYER_NAMES = tuple(dict.fromkeys(name for name, *_ in LAYERS))
COUNT_UNITS = {"aes.encrypt.blocks": "count", "aes.hypothesis.rows": "count",
               "cpa.update.calls": "count", "cpa.update.flop": "flop",
               "cpa.correlations.calls": "count", "cpa.correlations.bytes": "bytes",
               "hd.scan.calls": "count", "traceio.import.rows": "count",
               "traceio.write.bytes": "bytes", "traceio.read.bytes": "bytes"}


def _wrap(tracer, name, fn, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if counts is not None:
            for key, value in counts(args, result).items():
                tracer.counts[key] += value
        return result
    return wrapper


@contextlib.contextmanager
def instrument(tracer):
    """Patch every layer entry point, wherever ``scakit`` modules bound it,
    to record into ``tracer``; restore the originals on exit.

    A layer whose entry point no longer exists is skipped and reports
    zero, so a refactor that moves one shows in the per-layer numbers
    rather than stopping the run.
    """
    import scakit.cli  # noqa: F401  (loads every module the CLI binds names from)

    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "scakit"]
    patched = []
    try:
        for name, module_name, attribute, counts in LAYERS:
            owner = importlib.import_module(module_name)
            cls_name, _, method = attribute.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, method, None)
            if original is None:
                continue
            wrapper = _wrap(tracer, name, original, counts)
            targets = [owner] if cls_name else [
                m for m in modules if vars(m).get(method) is original]
            for target in targets:
                patched.append((target, method, original))
                setattr(target, method, wrapper)
        yield tracer
    finally:
        for target, method, original in reversed(patched):
            setattr(target, method, original)
