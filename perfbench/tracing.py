"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``inofdm`` modules from outside the
package.  A function is replaced in *every* module that binds it, because
callers import by name: ``link`` does ``from .coding import
viterbi_decode_soft``, so patching ``inofdm.coding`` alone would miss every
decode the sweep makes.  Each call records one span (name, start, end,
parent, run id, leading-axis rows of the first argument).  Spans stay in
memory; :meth:`Tracer.write` dumps them once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

PACKAGE = "inofdm"

#: Span name of the benchmark's own bookkeeping inside a traced call.  It is
#: recorded so that its time is subtracted from its parent's self time and
#: from traced wall time, and it belongs to no program layer.
ANNOTATE = "perfbench.annotate"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    run: str
    rows: int
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _leading_rows(args: tuple) -> int:
    shape = getattr(args[0], "shape", ()) if args else ()
    return int(shape[0]) if shape else 0


class Tracer:
    """Wraps ``module.function`` targets for the lifetime of a ``with`` block.

    ``after`` maps a target to a hook ``hook(args, result)`` that runs after
    the call's span has closed, inside an :data:`ANNOTATE` span.
    """

    def __init__(self, targets: Iterable[str],
                 after: Optional[Dict[str, Callable]] = None) -> None:
        self.targets = list(targets)
        self.after = dict(after or {})
        self.spans: List[Span] = []
        self.run = ""
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for target in self.targets:
            module_name, func_name = target.rsplit(".", 1)
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)
            wrapper = self._wrap(target, original, self.after.get(target))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _open(self, name: str, rows: int) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.run, rows)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, _leading_rows(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                note = self._open(ANNOTATE, 0)
                try:
                    hook(args, result)
                finally:
                    self._close(note)
            return result
        return wrapper

    def write(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "run": s.run, "rows": s.rows}) + "\n")
