"""Outside-in span tracing of the repro layers.

The benchmark never edits the program: :func:`install` wraps each
layer's public entry points (class methods and module functions) with
a recorder, from the benchmark's own files.  A span is
``(id, name, start, end, parent, ordinal, n)``: ``start``/``end`` come
from ``time.monotonic`` (one system-wide clock on Linux, so spans of
the server process line up with the client's), ``parent`` is the
enclosing span of the same thread, ``ordinal`` is the repetition or
request number the span belongs to, and ``n`` is what the call
processed (cells, instructions, cache hits...).  Spans stay in memory
and are written once, at the end.

:func:`layer_report` turns spans into the per-layer table: self time
(span minus the union of its children), calls and counts, attributed to
the timed root spans the benchmark opens around each unit of work.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time

clock = time.monotonic


class Tracer:
    """In-memory span recorder, safe across the server's handler threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.ordinal = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function, args, kwargs, count=None):
        """Run ``function`` inside a span; ``count`` derives ``n``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        before = count.before(args, kwargs) if count is not None else None
        start = clock()
        try:
            result = function(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
        n = count.after(before, args, kwargs, result) if count is not None else 1
        self.spans.append((span_id, name, start, end, parent, self.ordinal, n))
        return result

    @contextlib.contextmanager
    def root(self, name: str, ordinal: int):
        """A timed unit of work opened by the benchmark itself."""
        self.ordinal = ordinal
        stack = self._stack()
        span_id = next(self._ids)
        stack.append(span_id)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            stack.pop()
            self.spans.append((span_id, name, start, end, None, ordinal, 1))

    def reset(self) -> None:
        self.spans = []


class NullTracer:
    """The untraced runs' stand-in: roots cost one no-op context."""

    ordinal = 0

    @contextlib.contextmanager
    def root(self, name: str, ordinal: int):
        yield

    def reset(self) -> None:
        pass


def write_spans(spans: list[tuple], path: str) -> None:
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def load_spans(path: str) -> list[tuple]:
    with open(path) as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


# -- counters attached to spans --------------------------------------------------


class _Count:
    """``before``/``after`` hooks computing a span's ``n``."""

    def __init__(self, after, before=None) -> None:
        self._after = after
        self._before = before

    def before(self, args, kwargs):
        return self._before(args, kwargs) if self._before else None

    def after(self, before, args, kwargs, result):
        return self._after(before, args, kwargs, result)


def _hits_misses(stats: dict) -> tuple[int, int]:
    return stats["hits"], stats["misses"]


def _delta(before, after) -> list:
    return [b - a for a, b in zip(before, after)]


def _plane_stats(plane) -> tuple[int, int]:
    hits = misses = 0
    for stats in plane.cache_stats().values():
        hits += stats["hits"]
        misses += stats["misses"]
    return hits, misses


def _kernel_cells(cells) -> int:
    from repro.sim.kernel import Kernel

    return sum(1 for cell in cells if isinstance(cell[0], Kernel))


def _intern_stats(kwargs) -> tuple[int, int]:
    intern = kwargs.get("intern")
    if intern is None:
        return 0, 0
    stats = intern.stats()
    return (
        stats["workloads"]["hits"] + stats["configs"]["hits"],
        stats["workloads"]["misses"] + stats["configs"]["misses"],
    )


def _draw_stats() -> tuple[int, int]:
    from repro.sim import sensors

    return _hits_misses(sensors.draw_cache_stats())


#: Wrapped entry points: (module, owner attribute path, span name, count).
#: ``owner`` is a class name within the module, or ``None`` for a module
#: function (re-bound wherever ``repro`` modules imported it by name).
def _targets():
    return [
        ("repro.core.synthesizer", "Synthesizer", "synthesize", "core.synthesize",
         _Count(lambda b, a, k, program: program.size)),
        ("repro.core.ir", "Program", "to_kernel", "core.to_kernel", None),
        ("repro.power_model.training", None, "generate_micro_suite",
         "power_model.suite", None),
        ("repro.power_model.training", None, "generate_random_suite",
         "power_model.suite", None),
        ("repro.power_model.bottom_up", "BottomUpTrainer", "train",
         "power_model.fit_bu", None),
        ("repro.power_model.top_down", "TopDownTrainer", "train",
         "power_model.fit_td", None),
        ("repro.stressmark.search", None, "build_stressmark",
         "stressmark.build", None),
        ("repro.exec.plan", "ExperimentPlan", "__init__", "plan.build",
         _Count(lambda b, a, k, r: (a[0].size, a[0].requested))),
        ("repro.exec.executors", "SerialExecutor", "execute",
         "executors.execute",
         _Count(lambda b, a, k, report: (
             len(report.failures),
             report.fault_counters.get("retries", 0)
             + report.fault_counters.get("store_put_retries", 0),
         ))),
        ("repro.sim.pipeline", "CorePipelineModel", "summarize",
         "pipeline.summarize",
         _Count(
             lambda b, a, k, r: _delta(b, _hits_misses(a[0].cache_stats())),
             lambda a, k: _hits_misses(a[0].cache_stats()),
         )),
        ("repro.sim.machine", "Machine", "run_cells", "machine.run",
         _Count(lambda b, a, k, r: len(r))),
        ("repro.sim.machine", "Machine", "run_many", "machine.run",
         _Count(lambda b, a, k, r: len(r))),
        ("repro.sim.vector", "VectorPlane", "try_measure_cells",
         "vector.fused",
         _Count(
             lambda b, a, k, r: [
                 _kernel_cells(a[1]) if r is not None else 0,
                 *_delta(b, _plane_stats(a[0])),
             ],
             lambda a, k: _plane_stats(a[0]),
         )),
        ("repro.sim.sensors", "PowerSensor", "measure", "sensors.measure", None),
        ("repro.sim.sensors", "PowerSensor", "measure_batch", "sensors.batch",
         _Count(lambda b, a, k, r: len(a[1]))),
        ("repro.sim.sensors", None, "draw_constants", "sensors.draws",
         _Count(
             lambda b, a, k, r: _delta(b, _draw_stats()),
             lambda a, k: _draw_stats(),
         )),
        ("repro.exec.store", "ResultStore", "get", "store.get",
         _Count(lambda b, a, k, found: int(found is None))),
        ("repro.exec.store", "ResultStore", "put_many", "store.put",
         _Count(lambda b, a, k, r: len(a[1]))),
        ("repro.exec.journal", "RunJournal", "start", "journal", None),
        ("repro.exec.journal", "RunJournal", "mark_done", "journal", None),
        ("repro.exec.journal", "RunJournal", "mark_quarantined", "journal",
         None),
        ("repro.exec.journal", "RunJournal", "complete", "journal", None),
        ("repro.exec.journal", None, "gc_journals", "journal", None),
        ("repro.exec.registry", "RunRegistry", "record", "registry", None),
        ("repro.exec.registry", "RunRegistry", "recover", "registry", None),
        ("repro.exec.serialize", None, "plan_to_dict_v2", "serialize.encode",
         None),
        ("repro.exec.serialize", None, "plan_from_dict", "serialize.decode",
         _Count(
             lambda b, a, k, r: _delta(b, _intern_stats(k)),
             lambda a, k: _intern_stats(k),
         )),
        ("repro.exec.client", "RemoteExecutor", "execute", "client.execute",
         None),
        ("repro.exec.service", "MeasurementService", "submit",
         "service.submit", None),
        ("repro.measure.measurement", "Measurement", "from_dict",
         "measure.from_dict", None),
        ("repro.measure.measurement", "Measurement", "to_dict",
         "measure.to_dict", None),
    ]


#: What each element of a span's ``n`` counts, for the layer table.
#: Spans without an entry count calls.
COUNT_LABELS = {
    "core.synthesize": ("instructions",),
    "plan.build": ("unique cells", "requested cells"),
    "executors.execute": ("failed cells", "retries"),
    "pipeline.summarize": ("hits", "misses"),
    "machine.run": ("cells",),
    "vector.fused": ("fused cells", "cache hits", "cache misses"),
    "sensors.batch": ("cells",),
    "sensors.draws": ("hits", "misses"),
    "store.get": ("misses",),
    "store.put": ("cells",),
    "serialize.decode": ("intern hits", "intern misses"),
}


def _wrapper(tracer: Tracer, name: str, function, count):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        return tracer.call(name, function, args, kwargs, count)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target entry point so calls record spans."""
    for module_name, owner_name, attr, name, count in _targets():
        module = importlib.import_module(module_name)
        if owner_name is None:
            original = getattr(module, attr)
            traced = _wrapper(tracer, name, original, count)
            # Re-bind every by-name import of the function in the
            # package, so callers that did ``from x import f`` see it.
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro") or loaded is None:
                    continue
                if getattr(loaded, attr, None) is original:
                    setattr(loaded, attr, traced)
            continue
        owner = getattr(module, owner_name)
        raw = None
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                raw = klass.__dict__[attr]
                break
        if isinstance(raw, classmethod):
            setattr(
                owner, attr,
                classmethod(_wrapper(tracer, name, raw.__func__, count)),
            )
        else:
            setattr(owner, attr, _wrapper(tracer, name, raw, count))


# -- aggregation -----------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def adopt(client_spans: list[tuple], server_spans: list[tuple]) -> list[tuple]:
    """Attach the server's top-level spans to the client spans holding them.

    The single closed-loop client has one request in flight at a time,
    so a top-level server span belongs to the client request span
    (``client.execute``) that contains its midpoint; its descendants
    follow it.  Server span ids are offset to stay distinct; spans
    outside every request (``/stats``, ``/health``) are dropped.
    """
    offset = 1 + max((span[0] for span in client_spans), default=0)
    containers = sorted(
        (span for span in client_spans if span[1] == "client.execute"),
        key=lambda span: span[2],
    )
    starts = [span[2] for span in containers]
    adopted: list[tuple] = []
    links: dict[int, tuple[int, int] | None] = {}
    # Parents start no later than their children; on a tie the longer
    # (enclosing) span sorts first.
    for span in sorted(server_spans, key=lambda span: (span[2], -span[3])):
        span_id, name, start, end, parent, _, n = span
        if parent is None:
            middle = (start + end) / 2
            index = bisect.bisect_right(starts, middle) - 1
            holder = containers[index] if index >= 0 else None
            link = (
                (holder[0], holder[5])
                if holder is not None and holder[3] >= middle
                else None
            )
        else:
            up = links.get(parent)
            link = (parent + offset, up[1]) if up is not None else None
        links[span_id] = link
        if link is not None:
            adopted.append(
                (span_id + offset, name, start, end, link[0], link[1], n)
            )
    return adopted


#: The benchmark's own spans around each timed unit of work.
ROOT_NAMES = ("bench.cold", "bench.warm")


def layer_report(spans: list[tuple]):
    """Per-name self time, calls and counts under the timed roots.

    Returns ``(rows, wall, unattributed)`` where ``rows`` maps a span
    name to ``{"self_s", "calls", "n"}`` (``n`` summed elementwise) and
    ``wall`` is the summed duration of the timed roots.
    """
    by_id = {span[0]: span for span in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    timed_root: dict[int, int | None] = {}

    def root_of(span_id):
        chain = []
        found = None
        current = span_id
        while current is not None:
            if current in timed_root:
                found = timed_root[current]
                break
            span = by_id.get(current)
            if span is None:
                break
            chain.append(current)
            if span[1] in ROOT_NAMES and span[4] is None:
                found = current
                break
            current = span[4]
        for link in chain:
            timed_root[link] = found
        return found

    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    rows: dict[str, dict] = {}
    wall = 0.0
    unattributed = 0.0
    for span in spans:
        span_id, name, start, end = span[:4]
        if root_of(span_id) is None:
            continue
        kids = [
            (max(s, start), min(e, end))
            for s, e in children.get(span_id, ())
            if e > start and s < end
        ]
        self_time = (end - start) - _union_length(kids)
        if name in ROOT_NAMES and span[4] is None:
            wall += end - start
            unattributed += self_time
            continue
        row = rows.setdefault(name, {"self_s": 0.0, "calls": 0, "n": None})
        row["self_s"] += self_time
        row["calls"] += 1
        n = span[6]
        values = list(n) if isinstance(n, (list, tuple)) else [n]
        if row["n"] is None:
            row["n"] = values
        else:
            row["n"] = [a + b for a, b in zip(row["n"], values)]
    return rows, wall, unattributed
