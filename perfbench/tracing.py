"""Spans and counters recorded around polaris' public functions.

The benchmark times every layer from outside: :func:`installed` replaces
each traced function with a wrapper in every polaris namespace that binds
it (``supervision``, ``models``, ``cli`` and ``sim`` import functions by
name, so patching the defining module alone would miss their calls) and
puts the originals back on exit.  Timed runs never install the wrappers.

A wrapper records a span (id, parent id, name, start, end) and adds to its
function's call count, total time and self time.  Self time is the span's
duration minus the time of the traced spans it directly encloses, so time
spent in untraced helpers (``supervision._check_dc3``, ``sim._row``) counts
toward the nearest traced caller.  ``Automaton.step`` and
``Automaton.event_ids`` run several times per simulator step and are only
counted, not timed: their time stays in the caller's self time.

The kernel backends (``polaris.kernels._pure`` and ``_ckernel``) are left
unpatched: their functions call each other once per integration step, and
the compiled backend's internal calls cannot be patched at all, so a trace
of kernel internals would differ between backends.  The kernel layer is
traced at its public face, ``polaris.kernels``.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from time import perf_counter

#: Traced functions as (module, qualified name), with the counter each
#: adds from its result.  Counters are named ``<module>.<function>.<key>``.
TIMED = (
    ("automata", "parallel_compose", "states_out"),
    ("automata", "natural_project", "states_out"),
    ("automata", "is_bisimilar", None),
    ("automata", "accessible", "states_out"),
    ("automata", "Automaton.build", "states_out"),
    ("supervision", "check_decomposability", None),
    ("supervision", "check_controllability", None),
    ("supervision", "verify_decentralized", None),
    ("supervision", "is_nonblocking", None),
    ("models", "build_models", None),
    ("exchange", "write", "bytes"),
    ("polar", "locate", None),
    ("polar", "design_controller", None),
    ("polar", "validate_controller", None),
    ("kernels", "integrate_many", "steps"),
    ("kernels", "eval_cell", None),
    ("sim", "run_scenario", None),
    ("sim", "step", None),
    ("sim", "detect_events", "events"),
    ("sim", "supervisor_react", "records"),
    ("scenario", "loads_scenario", None),
    ("cli", "main", None),
)

#: Functions that are only counted.
COUNTED = (
    ("automata", "Automaton.step"),
    ("automata", "Automaton.event_ids"),
)

#: lru caches whose hits and misses are reported, as (module, name).
CACHES = (
    ("models", "build_models"),
    ("polar", "cached_controller"),
)

#: Namespaces left unpatched; see the module docstring.
_PRIVATE = ("polaris.kernels._pure", "polaris.kernels._ckernel")

#: Span records kept in memory per run; later spans still count.
MAX_SPANS = 50_000


def _count_states(result, args):
    return len(result.states)


def _count_bytes(result, args):
    return os.path.getsize(args[1])


def _count_steps(result, args):
    return sum(r[1] for r in result)


def _count_events(result, args):
    return len(result)


def _count_records(result, args):
    return len(result[1])


#: Counter name -> (its amount from a call's result and arguments, unit).
COUNTERS = {
    "states_out": (_count_states, "states"),
    "bytes": (_count_bytes, "B"),
    "steps": (_count_steps, "steps"),
    "events": (_count_events, "events"),
    "records": (_count_records, "records"),
}


class Tracer:
    """In-memory spans, per-function totals and counters of one run.

    ``caches`` maps names to lru-cached functions whose hits and misses
    are counted around each operation as ``<name>.cache_hits`` and
    ``<name>.cache_misses``.
    """

    def __init__(self, caches=None):
        self.caches = caches or {}
        self.calls: dict = {}
        self.total_s: dict = {}
        self.self_s: dict = {}
        self.counters: dict = {}
        self.spans: list = []
        self.spans_dropped = 0
        self._stack: list = []  # [span id, name, start, child time]
        self._next_id = 0

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])

    def end(self) -> None:
        stop = perf_counter()
        (span_id, name, start, child) = self._stack.pop()
        duration = stop - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, name, start, stop))
        else:
            self.spans_dropped += 1

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def cache_infos(self) -> dict:
        return {name: fn.cache_info() for (name, fn) in self.caches.items()}

    def count_caches(self, before: dict) -> None:
        for (name, info) in self.cache_infos().items():
            self.count(f"{name}.cache_hits", info.hits - before[name].hits)
            self.count(f"{name}.cache_misses", info.misses - before[name].misses)


def _timed(tracer: Tracer, name: str, fn, counter):
    key = f"{name}.{counter}" if counter else None
    measure = COUNTERS[counter][0] if counter else None

    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if measure is not None:
            tracer.count(key, measure(result, args))
        return result

    traced.__wrapped__ = fn
    return traced


def _counted(tracer: Tracer, name: str, fn):
    key = f"{name}.calls"
    counters = tracer.counters

    def counted(*args, **kwargs):
        counters[key] = counters.get(key, 0) + 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def _namespaces():
    return [
        mod
        for (name, mod) in sorted(sys.modules.items())
        if mod is not None
        and (name == "polaris" or name.startswith("polaris."))
        and name not in _PRIVATE
    ]


def _patch_method(module, qualname, wrap, undo):
    (cls_name, attr) = qualname.split(".")
    cls = getattr(module, cls_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, property):
        new = property(wrap(raw.fget))
    elif isinstance(raw, classmethod):
        new = classmethod(wrap(raw.__func__))
    else:
        new = wrap(raw)
    setattr(cls, attr, new)
    undo.append((cls, attr, raw))


def _patch_function(fn, wrapper, undo):
    bound = 0
    for mod in _namespaces():
        for (attr, value) in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, fn))
                bound += 1
    return bound


@contextmanager
def installed(tracer: Tracer, pz):
    """Wrap every traced function of the polaris modules in ``pz``.

    ``pz`` maps module short names to the imported polaris modules.
    """
    undo: list = []
    try:
        for (module, qualname, counter) in TIMED:
            name = f"{module}.{qualname}"
            if "." in qualname:
                _patch_method(
                    getattr(pz, module), qualname,
                    lambda fn, n=name, c=counter: _timed(tracer, n, fn, c), undo,
                )
                continue
            fn = getattr(getattr(pz, module), qualname)
            if _patch_function(fn, _timed(tracer, name, fn, counter), undo) == 0:
                raise RuntimeError(f"{name} is bound in no polaris namespace")
        for (module, qualname) in COUNTED:
            name = f"{module}.{qualname}"
            _patch_method(
                getattr(pz, module), qualname, lambda fn, n=name: _counted(tracer, n, fn), undo
            )
        yield tracer
    finally:
        for (owner, attr, original) in reversed(undo):
            setattr(owner, attr, original)
