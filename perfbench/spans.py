"""Spans and counters recorded from outside the library.

`Tracer.install` replaces public functions of inconlog with wrappers
wherever a module binds them (so `from .theory import linear_extensions`
in inconlog.extensions is wrapped too), and the methods of
`formulas.ConsistencyIndex` on the class.  Layer functions open a span
(name, start, end, parent span, query id); the consistency-oracle calls,
which run millions of times in the subset sweeps, are leaves: they add
a count and a time to the innermost open span instead of a span each.

Spans stay in memory and are written out as JSON lines when the run
ends.  A span's self time is its duration minus what its child spans
and leaf calls cover.  A target missing from the library is reported as
absent; the metrics that depend on it read zero.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf = time.perf_counter


class Span:
    __slots__ = ("sid", "parent", "query", "name", "start", "end", "covered", "leaves", "info")

    def __init__(self, sid, parent, query, name):
        self.sid, self.parent, self.query, self.name = sid, parent, query, name
        self.start = perf()
        self.end = 0.0
        self.covered = 0.0  # time of direct children and leaf calls
        self.leaves: Dict[str, float] = defaultdict(float)  # "<kind>" counts, "<kind>_s" seconds
        self.info: Dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.covered

    def as_json(self) -> str:
        return json.dumps({
            "id": self.sid, "parent": self.parent, "query": self.query, "name": self.name,
            "start": self.start, "end": self.end, "leaves": self.leaves, "info": self.info,
        })


class Call:
    """One wrapped call, as the recorders of _SPANS see it."""

    __slots__ = ("fn", "args", "kwargs", "result", "error")

    def __init__(self, fn, args, kwargs):
        self.fn, self.args, self.kwargs = fn, args, kwargs
        self.result = None
        self.error: Optional[BaseException] = None

    def argument(self, name):
        """The value the call passed (or defaulted) for a parameter, or None."""
        try:
            bound = inspect.signature(self.fn).bind(*self.args, **self.kwargs)
        except (TypeError, ValueError):
            return None
        bound.apply_defaults()
        return bound.arguments.get(name)


def _size(call: Call):
    return None if call.error else len(call.result)


def _orders(call: Call):
    """Orders enumerated; a refusal by the extension cap stopped at `cap` of them."""
    if call.error is None:
        return len(call.result)
    if type(call.error).__name__ == "ExtensionCapExceeded":
        return call.argument("cap") or 0
    return None


def _interpretations(call: Call):
    """2^atoms: how many interpretations preferred_models scans."""
    if call.error:
        return None
    theory = call.argument("theory")
    if not hasattr(theory, "atoms"):
        return None
    return 1 << len(theory.atoms() | set(call.argument("extra_atoms") or ()))


# (span name, module, attribute, {info key: recorder}); a recorder reads
# the Call and returns the value to record, or None to record nothing.
_SPANS = [
    ("cli", "cli", "run", {}),
    ("files.load", "files", "load_theory", {}),
    ("files.save", "files", "save_theory", {}),
    ("bridges.parse", "bridges", "parse_atms", {}),
    ("formulas.parse", "formulas", "parse_formula", {}),
    ("theory.validate", "theory", "validate", {}),
    ("theory.linear_extensions", "theory", "linear_extensions", {"orders": _orders}),
    ("theory.first_linear_extension", "theory", "first_linear_extension",
     {"orders": lambda call: None if call.error else 1}),
    ("extensions.all_extensions", "extensions", "all_extensions", {"members": _size}),
    ("arguments.mus", "arguments", "minimal_unsat_subsets", {"found": _size}),
    ("arguments.supports", "arguments", "minimal_entailing_subsets", {"found": _size}),
    ("arguments.sweep", "arguments", "believed_premises", {}),
    ("semantics.preferred_models", "semantics", "preferred_models",
     {"models": _size, "interpretations": _interpretations}),
    ("semantics.revise", "semantics", "revise", {}),
    ("af.build", "af", "build_af", {"attacks": lambda call: None if call.error else len(call.result.attacks)}),
    ("af.stable", "af", "stable_extensions", {"found": _size}),
    ("af.render", "af", "render_af", {}),
    ("bridges.atms", "bridges", "atms_labels", {}),
    ("bridges.atms", "bridges", "atms_nogoods", {}),
]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.query: Optional[int] = None
        self.absent: List[str] = []
        self._leaf_depth = 0
        self._dpll_calls = 0
        self._restore: List[Callable[[], None]] = []

    # ---------------------------------------------------------- recording

    def _open(self, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), parent, self.query, name)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf()
        self.stack.pop()
        if self.stack:
            self.stack[-1].covered += span.seconds

    def _leaf(self, kind: str, seconds: float, outermost: bool) -> None:
        if not self.stack:
            return
        top = self.stack[-1]
        top.leaves[kind] += 1
        top.leaves[kind + "_s"] += seconds
        if outermost:
            top.covered += seconds

    # ---------------------------------------------------------- wrappers

    def _span_wrapper(self, name, fn, recorders):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            call = Call(fn, args, kwargs)
            try:
                call.result = fn(*args, **kwargs)
            except BaseException as exc:
                call.error = exc
                span.info["raised"] = 1
                raise
            finally:
                tracer._close(span)
                for key, recorder in recorders.items():
                    value = recorder(call)
                    if value is not None:
                        span.info[key] = value
            return call.result

        return wrapper

    def _oracle_wrapper(self, kind: str, fn):
        """Leaf for a consistency decision: bitmask unless DPLL ran inside it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = tracer._leaf_depth == 0
            tracer._leaf_depth += 1
            dpll_before = tracer._dpll_calls
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf() - start
                tracer._leaf_depth -= 1
                if kind:
                    tracer._leaf(kind, seconds, False)
                if tracer._dpll_calls == dpll_before:
                    tracer._leaf("bitmask", seconds, outermost)
                elif outermost and tracer.stack:
                    tracer.stack[-1].covered += seconds

        return wrapper

    def _dpll_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = tracer._leaf_depth == 0
            tracer._leaf_depth += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leaf_depth -= 1
                tracer._dpll_calls += 1
                tracer._leaf("dpll", perf() - start, outermost)

        return wrapper

    def _index_init_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(index, *args, **kwargs):
            span = tracer._open("formulas.index")
            try:
                return fn(index, *args, **kwargs)
            finally:
                tracer._close(span)
                if getattr(index, "atoms", None) is not None:
                    span.info["atoms"] = len(index.atoms)

        return wrapper

    # ---------------------------------------------------------- install

    def _rebind(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "inconlog" and not name.startswith("inconlog."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append(functools.partial(setattr, module, attr, original))

    def _patch_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.absent.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        setattr(cls, attr, make(original))
        self._restore.append(functools.partial(setattr, cls, attr, original))

    def install(self) -> None:
        import importlib

        self.absent = []
        modules = {}
        for short in ("cli", "files", "bridges", "formulas", "theory", "extensions",
                      "arguments", "semantics", "af"):
            try:
                modules[short] = importlib.import_module(f"inconlog.{short}")
            except ImportError:
                self.absent.append(f"inconlog.{short}")
        for name, module, attr, recorders in _SPANS:
            original = getattr(modules.get(module), attr, None)
            if original is None:
                self.absent.append(f"inconlog.{module}.{attr}")
                continue
            self._rebind(original, self._span_wrapper(name, original, recorders))
        formulas = modules.get("formulas")
        dpll = getattr(formulas, "dpll_satisfiable", None)
        if dpll is None:
            self.absent.append("inconlog.formulas.dpll_satisfiable")
        else:
            self._rebind(dpll, self._dpll_wrapper(dpll))
        is_consistent = getattr(formulas, "is_consistent", None)
        if is_consistent is None:
            self.absent.append("inconlog.formulas.is_consistent")
        else:
            self._rebind(is_consistent, self._oracle_wrapper("", is_consistent))
        index = getattr(formulas, "ConsistencyIndex", None)
        if index is None:
            self.absent.append("inconlog.formulas.ConsistencyIndex")
            return
        self._patch_method(index, "__init__", self._index_init_wrapper)
        self._patch_method(index, "consistent", lambda fn: self._oracle_wrapper("consistent", fn))
        self._patch_method(index, "entails", lambda fn: self._oracle_wrapper("entails", fn))

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(span.as_json() + "\n")
