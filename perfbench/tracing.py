"""Span recorder for the traced run.

``Tracer.install`` rebinds every public function of the package's modules,
plus the two methods the per-layer metrics name, to a recording wrapper.
It rebinds every module attribute that holds the function, not only the
defining one (``sosm`` is rebound in ``mechanisms`` and wherever
``trading``, ``coalitions``, ``strategy`` or ``cli`` imported it).  Nothing
in the package changes on disk.

A span is (span id, parent span id, operation id, name, start, end).  Self
time is kept online: each open span accumulates its children's durations.
Spans stay in memory, in typed arrays because the exhaustive workload makes
about a million of them, and are written out by ``write_spans``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path

from schoolmatch.errors import CycleLimitExceededError

LAYERS = ("textio", "model", "mechanisms", "trading", "coalitions", "oracle",
          "analysis", "strategy", "cli")

# (layer, class name, method name): methods that carry per-layer metrics.
METHODS = (("model", "Instance", "replace_prefs"),
           ("strategy", "RandomProblemFamily", "draw_instance"))

# Functions whose return value is an iterator; time spent producing items
# is charged to the function and to whoever asked for the item.
ITERATORS = {"oracle.enumerate_matchings": "oracle.enumerate_matchings.matchings"}


def _count_sosm(c: Counter, args, result) -> None:
    steps = result[1].steps
    c["mechanisms.sosm.steps"] += len(steps)
    c["mechanisms.sosm.proposals"] += sum(
        len(v) for step in steps for v in step.proposals.values())


def _count_eadam(c: Counter, args, result) -> None:
    c["mechanisms.eadam.rounds"] += len(result.traces)
    c["mechanisms.eadam.removals"] += len(result.removal_sequence)


def _count_cliques(c: Counter, cliques) -> None:
    c["trading.find_cliques.cycles"] += len(cliques)
    c["trading.find_cliques.trading"] += sum(x.kind.value == "trading" for x in cliques)


def _count_find_cliques(c: Counter, args, result) -> None:
    if isinstance(result, CycleLimitExceededError):
        c["trading.cycle_limit_hits"] += 1
        _count_cliques(c, result.partial)
    else:
        _count_cliques(c, result)


COUNTERS = {
    "mechanisms.sosm": _count_sosm,
    "mechanisms.eadam": _count_eadam,
    "trading.build_graph": lambda c, args, r: c.update({"trading.build_graph.edges": len(r.weights)}),
    "trading.prune": lambda c, args, r: c.update(
        {"trading.prune.vertices_removed": len(args[0].vertices) - len(r.vertices)}),
    "trading.find_cliques": _count_find_cliques,
}


class Tracer:
    """``clock`` times the spans; the harness passes one that leaves out
    its speed sampler's time."""

    def __init__(self, clock):
        self.clock = clock
        self.enabled = False
        self.op = -1
        self.t0 = clock()
        self.span_ids, self.parents, self.ops = array("q"), array("q"), array("q")
        self.name_index: dict[str, int] = {}
        self.name_ids, self.starts, self.ends = array("H"), array("d"), array("d")
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []   # open spans: [span id, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"schoolmatch.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in [m for name, m in sys.modules.items()
                    if name == "schoolmatch" or name.startswith("schoolmatch.")]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"schoolmatch.{layer}"), cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- recording --------------------------------------------------------

    @contextlib.contextmanager
    def recording(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    @contextlib.contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _open(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float) -> float:
        end = self.clock()
        duration = end - start
        self._stack.pop()
        self.busy[name] += duration
        self.self_s[name] += duration - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        return end

    def _wrap(self, name: str, fn):
        tracer, counter = self, COUNTERS.get(name)
        item_count = ITERATORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = tracer._open()
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except CycleLimitExceededError as exc:
                tracer._record(name, frame, parent, start)
                if counter:
                    counter(tracer.counts, args, exc)
                raise
            except BaseException:
                tracer._record(name, frame, parent, start)
                raise
            tracer._record(name, frame, parent, start)
            if counter:
                counter(tracer.counts, args, result)
            if item_count:
                return tracer._iterate(name, item_count, result)
            return result

        return traced

    def _record(self, name, frame, parent, start) -> None:
        end = self._close(name, frame, start)
        self.calls[name] += 1
        self._span(frame[0], parent, name, start, end)

    def _span(self, span_id, parent, name, start, end) -> None:
        self.span_ids.append(span_id)
        self.parents.append(parent)
        self.ops.append(self.op)
        self.name_ids.append(self.name_index.setdefault(name, len(self.name_index)))
        self.starts.append(start)
        self.ends.append(end)

    def _iterate(self, name: str, item_count: str, iterator):
        """Charge each ``next`` to ``name``; one span covers the iteration."""
        parent = self._stack[-1][0] if self._stack else -1
        span_id, first, last = self._next_id, None, None
        self._next_id += 1
        try:
            while True:
                frame = self._open()
                start = self.clock()
                first = start if first is None else first
                try:
                    item = next(iterator)
                except StopIteration:
                    last = self._close(name, frame, start)
                    return
                last = self._close(name, frame, start)
                self.counts[item_count] += 1
                yield item
        finally:
            if first is not None:
                self._span(span_id, parent, name + "[iter]", first, last)

    # -- reporting --------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def write_spans(self, path: Path) -> None:
        """Gzipped CSV, one span per line, times in seconds from set-up."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = list(self.name_index)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span_id,parent_id,op_id,name,start_s,end_s\n")
            for row in zip(self.span_ids, self.parents, self.ops, self.name_ids,
                           self.starts, self.ends):
                sid, parent, op, name, start, end = row
                fh.write(f"{sid},{parent},{op},{names[name]},"
                         f"{start - self.t0:.9f},{end - self.t0:.9f}\n")

    def table(self) -> list[str]:
        rows = [f"{'function':<36} {'calls':>9} {'busy_s':>10} {'self_s':>10}"]
        for name in sorted(self.calls, key=self.self_s.__getitem__, reverse=True):
            rows.append(f"{name:<36} {self.calls[name]:>9} {self.busy[name]:>10.4f} "
                        f"{self.self_s[name]:>10.4f}")
        rows.append(f"{'layer':<36} {'':>9} {'':>10} {'self_s':>10}")
        for layer, seconds in self.layer_self().items():
            rows.append(f"{layer:<36} {'':>9} {'':>10} {seconds:>10.4f}")
        rows.append("counts: " + ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items())))
        return rows
