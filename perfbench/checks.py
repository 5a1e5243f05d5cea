"""Reference checks that do not trust the code under test, and the
benchmark's own search over public ``step()``.

The search counts (configurations visited, frontier peak) are computed
here by the benchmark, not counted by gridfa.
"""

from __future__ import annotations

import time
from collections import deque


def record_lines(result) -> list[str]:
    """The ``record=`` lines of a report given as text or as an object
    with ``format_records()``."""
    text = result if isinstance(result, str) else result.format_records()
    return [line for line in text.splitlines() if line.startswith("record=")]


def replays(g, a, p, trace) -> bool:
    """True iff ``trace`` starts at ``initial_configuration``, each step's
    next configuration is among the public ``step()`` successors, and it
    ends in the accepting state."""
    c = g.initial_configuration(a, p)
    for index, taken in enumerate(trace.steps):
        if taken.config != c:
            return False
        nxt = trace.steps[index + 1].config if index + 1 < len(trace.steps) else trace.final
        if nxt not in g.step(a, p, c):
            return False
        c = nxt
    return c == trace.final and c.state == a.accepting


def search(g, a, p, budget=None) -> tuple[bool, int, int, int]:
    """Breadth-first search over ``step()`` that stops where ``accepts``
    stops.  Returns (accepted, configurations visited, frontier peak,
    configurations expanded)."""
    start = g.initial_configuration(a, p, budget)
    accepting = a.accepting
    if start.state == accepting:
        return True, 1, 0, 0
    step = g.step
    frontier = deque([start])
    visited = {start}
    peak = expanded = 0
    while frontier:
        c = frontier.popleft()
        expanded += 1
        for nxt in step(a, p, c):
            if nxt in visited:
                continue
            if nxt.state == accepting:
                return True, len(visited) + 1, peak, expanded
            visited.add(nxt)
            frontier.append(nxt)
        if len(frontier) > peak:
            peak = len(frontier)
    return False, len(visited), peak, expanded


class SearchProfile:
    """Search counts accumulated over the decisions of a traced run;
    ``normalize(start, end)`` turns a timed interval into seconds."""

    def __init__(self, normalize) -> None:
        self.normalize = normalize
        self.visited: list[int] = []
        self.frontier: list[int] = []
        self.expanded = 0
        self.seconds = 0.0
        self.bound_total = 0
        self.mismatches = 0

    def add(self, g, a, p, budget, verdict: bool) -> None:
        start = time.perf_counter()
        accepted, visited, peak, expanded = search(g, a, p, budget)
        self.seconds += self.normalize(start, time.perf_counter())
        self.visited.append(visited)
        self.frontier.append(peak)
        self.expanded += expanded
        self.bound_total += g.config_space_bound(a, p, budget)
        if accepted != verdict:
            self.mismatches += 1


def frame_cells(g, p) -> None:
    """Read every frame cell, the border ring included, through public
    ``cell_at``."""
    cell_at = g.cell_at
    for r in range(p.rows + 2):
        for c in range(p.cols + 2):
            cell_at(p, r, c)
