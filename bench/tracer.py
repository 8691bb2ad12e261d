"""Outside-in tracing: spans around the package's public functions.

The tracer rebinds a function at every module attribute (or class
attribute, for methods) through which callers look it up, so calls made
inside the package are seen without changing its code.  Spans (name,
start, end, parent) are kept in flat arrays while the run lasts and
written out once at the end.  A wrapper records nothing while the
tracer is inactive, so the benchmark's own checks between ops do not
count.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

ROOT = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.active = False
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, fn, *args):
        """Call fn(*args) under a root span with recording switched on."""
        self.active = True
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.active = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_return is not None:
                on_return(tracer.counts, args, kwargs, result)
            return result

        return traced

    # -- installing --------------------------------------------------

    def patch_method(self, cls, attr: str, name: str, on_return=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, on_return))

    def patch_function(self, fn, name: str, modules, on_return=None) -> None:
        """Rebind fn wherever one of ``modules`` holds it."""
        traced = self.wrap(name, fn, on_return)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading -----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds).

        Self time is a span's duration minus the part its child spans
        cover; children of one span run one after another, so that part
        is the sum of their durations.
        """
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - covered
        ids = spans["name"]
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            out[name] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
        return out


def modules_under(*prefixes: str) -> list:
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and any(key == p or key.startswith(p + ".") for p in prefixes)
    ]
