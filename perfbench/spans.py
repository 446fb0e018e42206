"""Outside-in span tracing: wrap layer entry points, record spans per op.

The tracer patches callables of the program under test from the
benchmark's side (the program itself carries no instrumentation).  While
an op is open, every call through a patched name records one
:class:`Span` with its parent and op id; outside an op the wrapper is a
plain pass-through.  Spans stay in memory and are written as JSON lines
when the run ends.  A span's *self time* is its duration minus the
durations of its direct children; because calls nest strictly (one
thread, one caller), the self times of all spans under an op sum to the
op span exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable

#: ``annotate(args, kwargs, result) -> dict`` — per-span attributes read
#: from the call after it returned (counts, report fields).
Annotate = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    """One traced call.  ``name`` is ``"<layer>:<qualified name>"``."""

    id: int
    parent: int | None
    op: int
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children [ns]."""
    covered: dict[int, int] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0) + span.dur_ns
    return {span.id: span.dur_ns - covered.get(span.id, 0) for span in spans}


class Tracer:
    """Records spans for calls made through the names it patched."""

    OP = "op:op"

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``module:qualname`` entries that were absent and left unpatched.
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(
            id=len(self.spans),
            parent=self._stack[-1].id if self._stack else None,
            op=self._op,
            name=name,
            start_ns=time.perf_counter_ns(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Open the root span of one op; patched calls inside nest under it."""
        self._op = op_id
        span = self._open(self.OP)
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    def wrap(
        self,
        module: str,
        qualname: str,
        layer: str,
        annotate: Annotate | None = None,
    ) -> bool:
        """Patch ``module.qualname`` (a function or a ``Class.method``).

        The name is replaced where callers look it up: a module attribute
        for functions, the class dict for methods.  A name that does not
        exist is recorded in :attr:`missing` and skipped, so the benchmark
        survives the removal of a traced method.
        """
        owner = importlib.import_module(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                break
        original = None
        if owner is not None:
            original = (
                owner.__dict__.get(attr)
                if isinstance(owner, type)
                else getattr(owner, attr, None)
            )
        if not callable(original):
            entry = f"{module}:{qualname}"
            if entry not in self.missing:
                self.missing.append(entry)
            return False

        tracer = self
        name = f"{layer}:{qualname}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return original(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        return True

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")
