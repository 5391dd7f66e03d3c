"""In-memory span recorder for the traced benchmark run.

The recorder measures each module of ``monideal`` from outside: it
replaces chosen public functions and methods by wrappers that record one
span per call (name, start, end, parent span, op id) and a few counts
computed from the call's arguments or result, then puts the original
objects back.  Nothing inside ``src/`` is changed or imported specially.

Spans stay in memory while the run executes and are written out once, at
the end, by ``write_jsonl``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index into Recorder.spans
    op: int


# counts(args, kwargs, result) -> ((metric_name, value), ...)
CountFn = Callable[[tuple, dict, object], Iterable[tuple[str, float]]]


@dataclass(frozen=True)
class Target:
    """One public callable to wrap.  ``qualname`` is the attribute path in
    ``module`` ("power", "NewtonPolyhedron.contains"); a class name wraps
    its ``__init__``.  ``name`` is the span name."""

    name: str
    module: str
    qualname: str
    counts: CountFn | None = None


@dataclass
class Recorder:
    """Collects spans from wrapped callables.  A span named ``op_root``
    that starts outside any other ``op_root`` span begins a new op id."""

    op_root: str
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(int))
    _stack: list[int] = field(default_factory=list)
    _op: int = 0
    _root_depth: int = 0

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name, count = target.name, target.counts
        is_root = name == self.op_root
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if is_root:
                if self._root_depth == 0:
                    self._op += 1
                self._root_depth += 1
            index = len(spans)
            span = Span(name, clock(), 0, stack[-1] if stack else None, self._op)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if is_root:
                    self._root_depth -= 1
            if count is not None:
                for metric, value in count(args, kwargs, result):
                    self.counts[metric] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        """Wrap every target for the duration of the block, then restore
        the original objects wherever they were replaced."""
        targets = list(targets)
        for target in targets:  # load first, so every importer is rebound
            importlib.import_module(target.module)
        patches: list[tuple[object, str, object]] = []
        try:
            for target in targets:
                for owner, attr, original in _bindings(target):
                    setattr(owner, attr, self.wrap(target, original))
                    patches.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    @property
    def op_count(self) -> int:
        return self._op

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]))
                fh.write("\n")


def _bindings(target: Target) -> list[tuple[object, str, object]]:
    """Every (owner, attribute, original) that must be replaced so that
    all callers see the wrapper.  A function is rebound in each loaded
    ``monideal`` module that imported it by name; a method or constructor
    is replaced on its class."""
    module = sys.modules[target.module]
    head, _, method = target.qualname.partition(".")
    obj = getattr(module, head)
    if isinstance(obj, type):
        attr = method or "__init__"
        return [(obj, attr, obj.__dict__[attr])]
    owners = [
        mod
        for mod_name, mod in sorted(sys.modules.items())
        if mod_name == "monideal" or mod_name.startswith("monideal.")
    ]
    return [
        (mod, attr, obj)
        for mod in owners
        for attr, value in list(vars(mod).items())
        if value is obj
    ]


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval that its
    direct child spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out
