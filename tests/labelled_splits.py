"""Reference oracles for the chain search: labelled split enumeration.

The search enumerates vector partitions of count matrices
(``ssekit.splits.vector_splits``).  These are the labelled enumerations it
replaced: every partition of each fiber's edge ids, and every combination of
them over the vertices, in a fixed order.  Tests compare the two.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from ssekit import DirectedMultigraph, SplitSpec
from ssekit.splits import _mapped_fibers


def set_partitions(items: Sequence, max_parts: int) -> list[tuple[tuple, ...]]:
    """All partitions into at most max_parts nonempty classes, classes ordered
    by first occurrence (restricted growth strings, lexicographic)."""
    n = len(items)
    out: list[tuple[tuple, ...]] = []

    def rec(i: int, assignment: list[int], nblocks: int) -> None:
        if i == n:
            blocks: list[list] = [[] for _ in range(nblocks)]
            for j, b in enumerate(assignment):
                blocks[b].append(items[j])
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in range(nblocks):
            assignment.append(b)
            rec(i + 1, assignment, nblocks)
            assignment.pop()
        if nblocks < max_parts:
            assignment.append(nblocks)
            rec(i + 1, assignment, nblocks + 1)
            assignment.pop()

    rec(0, [], 0)
    return out


def enumerate_split_specs(g: DirectedMultigraph, max_parts: int) -> Iterator[tuple[str, SplitSpec]]:
    """Every valid insplit spec, then every valid outsplit spec, in the
    product order of per-vertex ``set_partitions``."""
    for kind in ("insplit", "outsplit"):
        fibers = _mapped_fibers(g, kind)
        choices = [set_partitions([e.id for e in es], max_parts) for _, es in fibers]
        for combo in itertools.product(*choices):
            yield kind, SplitSpec(kind, dict(zip([v for v, _ in fibers], combo)))


def split_vertex_count(g: DirectedMultigraph, spec: SplitSpec) -> int:
    """Vertex count of the split graph: sum of max(m(v), 1)."""
    return sum(max(spec.m(v), 1) for v in g.vertices)
