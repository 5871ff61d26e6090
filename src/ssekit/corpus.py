"""Seeded random graphs, split specs, and weightings for test corpora.

Core operations never consume randomness; everything here is driven by an
explicit ``random.Random`` so corpora reproduce byte for byte from a seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from .graphs import DirectedMultigraph, Edge, EdgeFunction
from .splits import SplitSpec, _mapped_fibers


def random_graph(
    rng: random.Random,
    max_vertices: int = 6,
    max_edges: int = 12,
    min_vertices: int = 1,
) -> DirectedMultigraph:
    n = rng.randint(min_vertices, max_vertices)
    vertices = tuple(f"v{i}" for i in range(n))
    ne = rng.randint(0, max_edges)
    edges = tuple(
        Edge(f"e{i}", rng.choice(vertices), rng.choice(vertices)) for i in range(ne)
    )
    return DirectedMultigraph(vertices, edges)


def random_partition(
    rng: random.Random, items: Sequence[str], max_parts: int
) -> tuple[tuple[str, ...], ...]:
    """A uniform-ish partition into at most max_parts nonempty classes,
    classes ordered by first occurrence."""
    k = rng.randint(1, min(max_parts, len(items)))
    assignment = [rng.randrange(k) for _ in items]
    order: list[int] = []
    blocks: dict[int, list[str]] = {}
    for item, b in zip(items, assignment):
        if b not in blocks:
            blocks[b] = []
            order.append(b)
        blocks[b].append(item)
    return tuple(tuple(blocks[b]) for b in order)


def random_split_spec(rng: random.Random, g: DirectedMultigraph, kind: str, max_parts: int = 3) -> SplitSpec:
    """A random valid spec of ``kind``: a random partition of each mapped fiber."""
    fibers = _mapped_fibers(g, kind)
    return SplitSpec(kind, {v: random_partition(rng, [e.id for e in es], max_parts) for v, es in fibers})


def random_edge_function(
    rng: random.Random, g: DirectedMultigraph, lo: int = -3, hi: int = 3
) -> EdgeFunction:
    return EdgeFunction(g, {eid: rng.randint(lo, hi) for eid in g.edge_ids()})
