"""Span tracer that wraps quantloss's public functions from outside the package.

Nothing in ``src/`` knows about it.  ``install`` wraps every public function
and every public method of a class defined in the traced modules, then
rebinds the wrapper under each name a quantloss module holds for the original,
so ``from .network import forward`` inside ``trainer`` records spans as well
as ``quantloss.network.forward``.  Each thread keeps its own span list and
stack; spans stay in memory and are aggregated per name when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

PACKAGE = "quantloss"
#: the package's layers
MODULES = (
    "network", "losses", "classify", "secant_dist", "optim",
    "trainer", "data", "metrics", "synthetic", "cli",
)

# span record layout: [name, start, end, parent index, tag]
NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    """Records one span per call of a wrapped function.

    ``pre_hooks[name](spans, rec, args, kwargs)`` runs when a span opens and
    returns the span's tag; ``post_hooks[name](counters, args, kwargs, result)``
    runs when it closes.  Hooks are how layer-specific counts are taken where
    the work happens.
    """

    def __init__(self, pre_hooks=None, post_hooks=None):
        self.pre_hooks = dict(pre_hooks or {})
        self.post_hooks = dict(post_hooks or {})
        self.counters: dict[str, float] = {}
        self.wrapped: set[str] = set()
        self.missing_modules: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._span_lists: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = ([], [])  # (spans, open-span stack)
            with self._lock:
                self._span_lists.append(st[0])
        return st

    def _wrap(self, name: str, fn):
        tracer = self
        pre = self.pre_hooks.get(name)
        post = self.post_hooks.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer._state()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            if pre is not None:
                rec[TAG] = pre(spans, rec, args, kwargs)
            rec[START] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf()
                stack.pop()
            if post is not None:
                with tracer._lock:
                    post(tracer.counters, args, kwargs, result)
            return result

        self.wrapped.add(name)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public callables of every traced module that imports."""
        replacement: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                self.missing_modules.append(short)
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacement[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def _wrap_methods(self, short: str, cls) -> None:
        for mname, member in list(vars(cls).items()):
            if mname.startswith("_"):
                continue
            binder = type(member) if isinstance(member, (classmethod, staticmethod)) else None
            raw = member.__func__ if binder else member
            if not inspect.isfunction(raw):
                continue
            wrapper = self._wrap(f"{short}.{cls.__name__}.{mname}", raw)
            try:
                setattr(cls, mname, binder(wrapper) if binder else wrapper)
            except (AttributeError, TypeError):  # e.g. enum members
                self.wrapped.discard(f"{short}.{cls.__name__}.{mname}")
                continue
            self._patches.append((cls, mname, member))

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def span_lists(self) -> list[list]:
        with self._lock:
            return list(self._span_lists)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover.
        Children nest inside their parent on one thread's stack, so their
        durations never overlap.
        """
        out: dict[str, dict[str, float]] = {}
        for spans in self.span_lists():
            child = [0.0] * len(spans)
            for rec in spans:
                if rec[PARENT] >= 0:
                    child[rec[PARENT]] += rec[END] - rec[START]
            for i, rec in enumerate(spans):
                dur = rec[END] - rec[START]
                st = out.setdefault(rec[NAME], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                st["calls"] += 1
                st["incl_s"] += dur
                st["self_s"] += dur - child[i]
        return out

    def span_count(self) -> int:
        return sum(len(s) for s in self.span_lists())
