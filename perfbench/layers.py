"""Per-layer tracing of persmod from outside the package.

``Tracer.install()`` wraps every function that crosses a module
boundary (defined in one ``persmod`` module and bound as an attribute
of another, the package namespace included) plus the CLI's parse
functions, and rebinds every ``persmod.*`` module attribute that is the
same object, so calls through any module's globals are seen.  Each
call becomes a span (name, start, end, parent); counts are taken from
the call's arguments and result after the span closes, and the time
spent counting is itself a span (``trace.count``) so that it is not
charged to the caller's self time.  ``field_from_string`` is wrapped to
return a subclass of the requested field that counts ``mul``, ``div``
and ``sub``.

The benchmark process is single-threaded and has no queues, so no
layer waits on another: waiting time is absent by construction, and
self time is the whole story.
"""

from __future__ import annotations

import sys
import time
import types
from collections import Counter, defaultdict

#: CLI functions traced although no other module calls them; their self
#: time is reported as ``cli.parse_s``.
CLI_PARSE = ("cli._load_complex", "cli.parse_presentation", "cli.parse_morphism")


def _nnz(matrix):
    return sum(len(col) for col in matrix.cols)


def _count_column_echelon(counts, args, result):
    counts["linalg.column_echelon.cols"] += args[0].ncols
    counts["linalg.column_echelon.nnz_in"] += _nnz(args[0])
    counts["linalg.column_echelon.zero_cols"] += len(result.zero_cols)
    counts["linalg.column_echelon.nnz_out"] += _nnz(result.reduced)


def _count_graded_snf(counts, args, result):
    counts["linalg.graded_snf.nnz_change"] += sum(
        _nnz(m)
        for m in (result.row_change, result.row_change_inv, result.col_change, result.col_change_inv)
    )


def _count_graded_boundary(counts, args, result):
    counts["homology.boundary_nnz"] += _nnz(result)


def _count_add_simplex(counts, args, result):
    counts["streaming.removed_bars"] += len(result[1].removed)


def _count_current_barcode(counts, args, result):
    counts["streaming.chain_nnz"] += sum(len(c) for c in args[0].chains.values())


COUNTERS = {
    "linalg.column_echelon": _count_column_echelon,
    "linalg.graded_snf": _count_graded_snf,
    "homology.graded_boundary": _count_graded_boundary,
    "streaming.add_simplex": _count_add_simplex,
    "streaming.current_barcode": _count_current_barcode,
}


def counting_field(field, counts):
    """A copy of ``field`` whose mul, div and sub calls are counted."""
    base = type(field)

    class Counting(base):
        __slots__ = ()

        def mul(self, a, b):
            counts["fields.mul_calls"] += 1
            return base.mul(self, a, b)

        def div(self, a, b):
            counts["fields.div_calls"] += 1
            return base.div(self, a, b)

        def sub(self, a, b):
            counts["fields.sub_calls"] += 1
            return base.sub(self, a, b)

    copy = object.__new__(Counting)
    for cls in base.__mro__:
        for slot in getattr(cls, "__slots__", ()):
            setattr(copy, slot, getattr(field, slot))
    return copy


def _short(module_name):
    return module_name.split(".", 1)[1]


def _persmod_modules():
    """{name: module} for the persmod package and its loaded submodules."""
    return {
        name: mod
        for name, mod in sys.modules.items()
        if (name == "persmod" or name.startswith("persmod.")) and mod is not None
    }


def cross_module_functions():
    """{qualified name: function} for every function to be traced."""
    modules = _persmod_modules()
    found = {}
    for holder in modules.values():
        for obj in vars(holder).values():
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__.startswith("persmod.")
                and obj.__module__ != holder.__name__
            ):
                found[f"{_short(obj.__module__)}.{obj.__name__}"] = obj
    for name in ("cli.main", *CLI_PARSE):
        module, _, attr = name.partition(".")
        obj = getattr(modules.get(f"persmod.{module}"), attr, None)
        if isinstance(obj, types.FunctionType):
            found[name] = obj
    return found


class Tracer:
    """Spans and counts of persmod calls while installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.samples = []  # calibration samples taken inside spans
        self.counts = Counter()
        self._stack = []
        self._rebound = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        calls = f"{name}.calls"
        fields = name == "fields.field_from_string"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            counts[calls] += 1
            if fields:
                result = counting_field(result, counts)
            if counter is not None:
                try:
                    counter(counts, args, result)
                except AttributeError:
                    pass  # the library changed shape; the count is skipped
                spans.append(("trace.count", end, clock(), parent))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def note_sample(self, start, end):
        """Record a calibration sample so that it is not charged to a span.

        Called from a signal handler, so it only appends to a list of
        its own: appending to ``spans`` could interleave with a wrapper
        that has read ``len(spans)`` but not yet appended.
        """
        self.samples.append((start, end, self._stack[-1] if self._stack else -1))

    def install(self):
        targets = cross_module_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        for holder in _persmod_modules().values():
            for attr, obj in list(vars(holder).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._rebound.append((holder, attr, obj))
                    setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, obj in reversed(self._rebound):
            setattr(holder, attr, obj)
        self._rebound.clear()

    def self_times(self):
        """{span name: total self time}, children's time subtracted."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for start, end, parent in self.samples:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for n, (name, start, end, parent) in enumerate(self.spans):
            out[name] += end - start - child_time[n]
        return out

    def write(self, path):
        """Spans as tab-separated lines: index, name, start, end, parent."""
        with open(path, "w", encoding="ascii") as handle:
            for n, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{n}\t{name}\t{start!r}\t{end!r}\t{parent}\n")
