"""Spans around the benchmark's calls into the samplets layers.

A span records its name, start, end, parent span and run id.  The layer is
the part of the name before the first dot, so ``h2.assemble`` belongs to the
``h2`` layer and ``harness.request`` to the benchmark itself.  Spans stay in
memory while the benchmark runs and are written out as JSON lines at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

HARNESS = "harness"


@dataclass(slots=True)
class Span:
    id: int
    name: str
    run: str
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``enabled``; otherwise ``span`` costs one call."""

    def __init__(self) -> None:
        self.enabled = False
        self.run = ""
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name: str):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, self.run, parent, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, run_prefix: str) -> list[float]:
        return [s.seconds for s in self.spans
                if s.name == name and s.run.startswith(run_prefix)]

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer spent in the given spans and not in their children."""
    child = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent in child:
            child[s.parent] += s.seconds
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.seconds - child[s.id]
    return out
