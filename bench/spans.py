"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded only from the benchmark's own files, around calls
into the library's public functions; the library itself is not
instrumented.  Each span keeps its name, start, end, parent span and the
pass it belongs to, plus free-form attributes the caller fills in after
the call (iteration counts, residuals).  Nothing is written until the
run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

__all__ = ["Tracer"]


class _Span:
    __slots__ = ("_tracer", "_rec")

    def __init__(self, tracer: "Tracer", rec: dict) -> None:
        self._tracer = tracer
        self._rec = rec

    def __enter__(self) -> dict:
        self._tracer._stack.append(self._rec["id"])
        self._rec["start"] = time.perf_counter()
        return self._rec["attrs"]

    def __exit__(self, *exc) -> None:
        self._rec["end"] = time.perf_counter()
        self._tracer._stack.pop()


class _Off:
    """Stand-in span while recording is off; attributes are discarded."""

    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> None:
        return None


_OFF = _Off()


class Tracer:
    """Records nested spans while ``enabled``; a no-op otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.pass_id = 0
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _OFF
        rec = {
            "id": len(self.spans),
            "name": name,
            "pass": self.pass_id,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        return _Span(self, rec)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover.

        Children of one span run one after another in a single thread, so
        the part of the interval they cover is the sum of their durations.
        """
        child_sum: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_sum[s["parent"]] += s["end"] - s["start"]
        return {
            s["id"]: (s["end"] - s["start"]) - child_sum[s["id"]]
            for s in self.spans
        }

    def write_jsonl(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "self_s": own[s["id"]]}, default=repr))
                fh.write("\n")
