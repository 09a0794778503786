"""Spans, work counters and per-operation deadlines for the benchmark.

Spans are recorded from the benchmark's own calls into each cubalex layer:
name, start, end, parent span and run id.  They stay in memory and are
written out once, when the run ends.  With tracing off, `span` records
nothing, so the untraced passes measure the program alone.

Deadlines come in two kinds: `Deadline`, a wall-clock limit that only a
hang should reach, and `vf2_budget`, a limit on the work of a networkx VF2
search, which gives the same verdict on every run of the same input.
"""

from __future__ import annotations

import math
import signal
import time
from collections import Counter


class Overrun(Exception):
    """Raised inside an operation when its deadline passes."""


class Blocked(Exception):
    """Raised by an operation whose input an earlier, failed one owed it."""


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        stack = tracer.stack
        self.record = [len(tracer.spans), name, 0.0, 0.0,
                       stack[-1] if stack else None]

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer.stack.append(self.record[0])
        self.record[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[3] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """In-memory span recorder plus per-pass work counters.

    Counters are always kept, since the oracles and the failure accounting
    need them; spans only while `enabled` is true.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.enabled = False
        self.spans = []          # [id, name, start, end, parent id]
        self.stack = []
        self.counts = Counter()

    def span(self, name):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def count(self, name, n=1):
        self.counts[name] += n

    def layer_seconds(self, first):
        """Inclusive seconds per span name over spans[first:]."""
        out = Counter()
        for _, name, start, end, _ in self.spans[first:]:
            out[name] += end - start
        return out

    def to_json(self):
        return {"run_id": self.run_id,
                "fields": ["id", "name", "start_s", "end_s", "parent"],
                "spans": self.spans}


def _raise_overrun(signum, frame):
    raise Overrun()


class Deadline:
    """Interrupts the enclosed block with `Overrun` after `seconds`.

    Uses the interval timer of the main thread; pure-Python code is
    interrupted at once, a long native call when it returns.
    """

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        signal.signal(signal.SIGALRM, _raise_overrun)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False



class _VF2Pairs:
    """Candidate pairs tested by the running VF2 search, and its limit."""

    count = 0
    limit = math.inf


class vf2_budget:
    """Raises `Overrun` inside a networkx VF2 search once it has tested more
    than `limit` candidate pairs; `count` holds the pairs tested.

    Needs `install_vf2_counter()`.  Outside such a block the pairs are
    counted but never stop the search.
    """

    def __init__(self, limit):
        self.limit = limit
        self.count = 0

    def __enter__(self):
        _VF2Pairs.count, _VF2Pairs.limit = 0, self.limit
        return self

    def __exit__(self, *exc):
        self.count = _VF2Pairs.count
        _VF2Pairs.limit = math.inf
        return False


def install_vf2_counter():
    """Makes `networkx.algorithms.isomorphism.GraphMatcher`, which
    `complex_core.is_isomorphic` looks up at each call, count the candidate
    pairs it tests for `vf2_budget`."""
    from networkx.algorithms import isomorphism

    base = isomorphism.GraphMatcher
    if getattr(base, "counts_pairs", False):
        return
    feasible = base.syntactic_feasibility

    class CountingGraphMatcher(base):
        counts_pairs = True

        def syntactic_feasibility(self, G1_node, G2_node, _pairs=_VF2Pairs):
            _pairs.count += 1
            if _pairs.count > _pairs.limit:
                raise Overrun()
            return feasible(self, G1_node, G2_node)

    CountingGraphMatcher.__name__ = base.__name__
    isomorphism.GraphMatcher = CountingGraphMatcher
