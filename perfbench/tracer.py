"""In-process wrappers for a traced job: spans or call counts.

Spans are kept in memory as (id, parent id, name, start ns, end ns,
attribute) and written once when the job ends.  The stack of open spans
is thread-local; the thread-pool wrapper gives each worker the pool's span
as parent, so spans made in worker threads nest under the call that
started them.  Counting uses ``itertools.count``, whose ``next`` is atomic
under the interpreter lock, so two workers never lose an update.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List

import layers


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nicholsforge" or name.startswith("nicholsforge."))]


def _patch(module: str, path: str, make: Callable[[Callable], Callable]) -> None:
    """Replace a function everywhere the package can reach it.

    Methods are replaced on their class, together with any alias in the
    class body (``__rmul__ = __mul__``).  Module functions are replaced in
    the defining module and in every package module that imported the name,
    since ``from .linalg import rank`` binds the original object.
    """
    owner, attr = _resolve(module, path)
    orig = getattr(owner, attr)
    wrapper = make(orig)
    if isinstance(owner, type):
        for name, value in list(vars(owner).items()):
            if value is orig:
                setattr(owner, name, wrapper)
        return
    setattr(owner, attr, wrapper)
    for mod in _package_modules():
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, wrapper)


def _cells(args, result) -> int:
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


_ATTRS: Dict[str, Callable] = {
    "": lambda args, result: None,
    "cells": _cells,
    "result_cells": lambda args, result: result.nrows * result.ncols,
    "checked": lambda args, result: result.checked,
}


class SpanRecorder:
    def __init__(self):
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, attr: str = "") -> Callable:
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter_ns
        measure = _ATTRS[attr]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                value = measure(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, value))

        return traced

    def wrap_pool(self, name: str, pmap: Callable) -> Callable:
        local = self._local
        stack_of = self._stack

        def adopting(fn, items, threads=None):
            parent = stack_of()[-1]

            def run(item):
                saved = getattr(local, "stack", None)
                local.stack = [parent]
                try:
                    return fn(item)
                finally:
                    local.stack = saved

            return pmap(run, items, threads)

        return self.wrap(name, functools.wraps(pmap)(adopting))

    def install(self) -> None:
        importlib.import_module("nicholsforge.cli")
        for module, path, name, attr in layers.SPANS:
            _patch(module, path, lambda fn, name=name, attr=attr: self.wrap(name, fn, attr))
        module, path, name = layers.PMAP
        _patch(module, path, lambda fn: self.wrap_pool(name, fn))
        for command_name, command in sys.modules["nicholsforge.cli"].main.commands.items():
            command.callback = self.wrap(f"cli.{command_name}", command.callback)

    def result(self) -> dict:
        return {"spans": self.spans}


class CallCounter:
    def __init__(self):
        self._counters: Dict[str, itertools.count] = {}

    def install(self) -> None:
        importlib.import_module("nicholsforge.cli")
        for module, path, name in layers.COUNTS:
            counter = self._counters[name] = itertools.count()

            def make(fn, counter=counter):
                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    next(counter)
                    return fn(*args, **kwargs)
                return counted

            _patch(module, path, make)

    def result(self) -> dict:
        # next() on a fresh count returns how many times it advanced before.
        return {"counts": {name: next(c) for name, c in self._counters.items()}}


RECORDERS = {"spans": SpanRecorder, "counts": CallCounter}


def dump(recorder, job: str, path: str) -> None:
    record = {"job": job, **recorder.result()}
    with open(path, "w") as fh:
        json.dump(record, fh, separators=(",", ":"))
