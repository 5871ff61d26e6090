"""Bounded bidirectional search for a chain of splits between two graphs.

Both endpoints grow forward under insplits and outsplits until the two
frontiers reach isomorphic graphs.  Every split is an elementary SSE, so it
preserves ``tr(A^n)`` for every n: the endpoints are compared once by
``invariants.trace_mismatch``, and children are never re-checked.

The search runs on count matrices: a split of A is A = D·E with split
matrix B = E·D (Lind & Marcus, *An Introduction to Symbolic Dynamics and
Coding*, §2.4 and §7.2).  A state is a count matrix keyed by its canonical
form, and a move is one vector partition per vertex, of its in-count column
for an insplit or its out-count row for an outsplit, so parallel edges do
not multiply the moves.  Moves often give a matrix already reached (the
move with one class per vertex gives its parent's own), so each side keeps
a key memo: it maps each count matrix reached, as a tuple of rows in the
order it was computed in, to its canonical key, so each distinct matrix is
keyed once and a move back to one costs a lookup.  Children are keyed from
their count matrices without being built; a state builds its labelled
graph from its parent's when it is expanded, or when a returned leg passes
through it.  A move builds as the first labelled spec with its class
vectors, which is the spec that first reaches the child in the labelled
enumeration order, so the printed legs are those of a search over labelled
specs.

Splits only add vertices: a state first reached at depth d has more
vertices than its parent, since the one move that keeps every vertex
rebuilds the parent.  So past a side's deepest reached layer k, layer d
has at least the least vertex count of layer k plus d - k vertices, and a
depth pair whose layers cannot share a vertex count cannot meet: the
search skips it without expanding either side.  The same bound stops the
search: before total step count t it breaks when t > L1 + L2, where L1 is
the deepest layer of side 1 whose least vertex count is at most the
largest count side 2 can have (the largest it reached once it has an
empty layer, else the larger of that and ``max_vertices``), and L2 the
same with the sides swapped.  Neither rule builds a layer.

What the search reports, and so what a faster search must keep:

* an absent answer reports what a search that asked every depth pair up to
  ``max_steps`` would: ``truncated_by_vertex_bound`` says whether a state
  in layers 0..max_steps-1 of either side has a split over
  ``max_vertices``, and the reason is ``depth-bound-reached`` when it does
  or when layer ``max_steps`` of either side holds a state,
  ``search-space-exhausted`` otherwise;
* a found answer reads its flag the same way at the deepest depth the pair
  order asked of each side up to and including the meeting pair, skipped
  pairs included.

Flag and frontier are read lazily: a side builds a layer for the flag only
when no shallower state has a split over the bound, stops at its first
empty layer, and tells whether layer D holds a state by keying the
children of layer D-1 up to the first new one, without building layer D.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

from .graphs import (
    DirectedMultigraph,
    GraphError,
    _count_matrix,
    adjacency_matrix,
    canonical_key_of_counts,
    graph_to_json_obj,
)
from .invariants import trace_mismatch
from .splits import (
    Classes,
    SplitSpec,
    _build_split,
    split_counts,
    vector_split_spec,
    vector_splits,
    widest_split_vertex_count,
)


class ChainStep(NamedTuple):
    move: str  # "insplit" | "outsplit"
    spec: SplitSpec  # of the predecessor graph
    graph: DirectedMultigraph

    def to_json_obj(self) -> dict:
        return {
            "move": self.move,
            "spec": self.spec.to_json_obj(),
            "graph": graph_to_json_obj(self.graph),
        }


class ChainSearchResult(NamedTuple):
    """Outcome of the bounded bidirectional split search.

    ``found``: both legs of split moves, applied forward from their endpoint,
    end in isomorphic graphs.  ``absent`` proves nothing beyond the bounds;
    ``reason`` separates an invariant refutation, a depth bound that stopped
    the search, and a fully exhausted reachable space.
    """

    status: str  # "found" | "absent"
    steps_from_e1: Sequence[ChainStep] = ()
    steps_from_e2: Sequence[ChainStep] = ()
    reason: str | None = None
    mismatch_period: int | None = None
    truncated_by_vertex_bound: bool = False

    @property
    def total_steps(self) -> int:
        return len(self.steps_from_e1) + len(self.steps_from_e2)

    def to_json_obj(self) -> dict:
        obj: dict = {"status": self.status}
        if self.status == "found":
            obj["total_steps"] = self.total_steps
            obj["from_e1"] = [s.to_json_obj() for s in self.steps_from_e1]
            obj["from_e2"] = [s.to_json_obj() for s in self.steps_from_e2]
        else:
            obj["reason"] = self.reason
            if self.mismatch_period is not None:
                obj["n"] = self.mismatch_period
        obj["truncated_by_vertex_bound"] = self.truncated_by_vertex_bound
        return obj


class _State:
    __slots__ = ("counts", "parent", "move", "parts", "spec", "graph")
    counts: tuple[tuple[int, ...], ...]  # count matrix, in the vertex order of graph
    parent: tuple | None
    move: str | None
    parts: dict[int, Classes] | None  # class count vectors per partitioned vertex of the parent
    spec: SplitSpec | None  # the move's labelled spec on the parent's graph; set with graph
    graph: DirectedMultigraph | None  # set when the search first needs it

    def __init__(self, counts, parent, move, parts, graph=None) -> None:
        self.counts, self.parent, self.move, self.parts = counts, parent, move, parts
        self.spec, self.graph = None, graph


class _SearchSide:
    """One endpoint's forward search, over the states and moves of the
    module docstring.  ``keys`` is the side's key memo, and ``layers[d]``
    holds the states first reached at depth d, each with its parent in
    layer d - 1.  A side is expanded only as far as the search needs;
    ``truncated_before`` and ``reaches`` answer for a side expanded further,
    building no layer past the one that settles the answer.  ``_children``
    is the one move loop."""

    def __init__(self, root: DirectedMultigraph, max_vertices: int, max_parts: int):
        self.max_vertices = max_vertices
        self.max_parts = max_parts
        counts = tuple(map(tuple, _count_matrix(root)))
        root_key = canonical_key_of_counts(counts)
        self.keys: dict[tuple, tuple] = {counts: root_key}
        self.states: dict[tuple, _State] = {root_key: _State(counts, None, None, None, root)}
        self.layers: list[list[tuple]] = [[root_key]]

    def _graph(self, state: _State) -> DirectedMultigraph:
        """The state's labelled graph: its parent's, split by the first
        labelled spec of its move.  Built once, when first needed."""
        if state.graph is None:
            parent = self._graph(self.states[state.parent])  # type: ignore[index]
            state.spec = vector_split_spec(parent, state.move, state.parts)  # type: ignore[arg-type]
            # vector_split_spec builds only valid specs
            state.graph = _build_split(parent, state.spec).graph
        return state.graph

    def _children(self, key: tuple) -> Iterator[tuple]:
        """``(child_key, counts, move, parts)`` for each move of the state,
        in move order, keying each count matrix through ``keys``."""
        state = self.states[key]
        for move, parts in vector_splits(self._graph(state), self.max_parts, self.max_vertices):
            counts = split_counts(state.counts, move, parts)
            child_key = self.keys.get(counts)
            if child_key is None:
                child_key = self.keys[counts] = canonical_key_of_counts(counts)
            yield child_key, counts, move, parts

    def expand_to(self, depth: int) -> None:
        while len(self.layers) <= depth:
            new_layer: list[tuple] = []
            for key in self.layers[-1]:
                for child_key, counts, move, parts in self._children(key):
                    if child_key not in self.states:
                        self.states[child_key] = _State(counts, key, move, parts)
                        new_layer.append(child_key)
            self.layers.append(new_layer)

    def truncated_before(self, depth: int) -> bool:
        """Whether a state in layers 0..depth-1 has a move over the vertex
        bound: the flag a search that expanded this side to ``depth``
        reports.  Layers are reached one at a time, and the scan stops at
        the first such state or the first empty layer, so at most layer
        depth-1 is reached."""
        for d in range(depth):
            self.expand_to(d)
            if not self.layers[d]:
                break
            for key in self.layers[d]:
                if widest_split_vertex_count(self.states[key].counts, self.max_parts) > self.max_vertices:
                    return True
        return False

    def reaches(self, depth: int) -> bool:
        """Whether layer ``depth`` holds a state: not if it is past a built
        empty layer.  If it is not reached yet, layer depth-1's children are
        keyed in order up to the first that is not a state; layer ``depth``
        itself is not built."""
        if depth < len(self.layers):
            return bool(self.layers[depth])
        if not self.layers[-1]:
            return False
        self.expand_to(depth - 1)
        return any(
            child_key not in self.states for key in self.layers[-1] for child_key, *_ in self._children(key)
        )

    def leg(self, key: tuple) -> list[ChainStep]:
        steps: list[ChainStep] = []
        state = self.states[key]
        while state.parent is not None:
            graph = self._graph(state)
            steps.append(ChainStep(state.move, state.spec, graph))  # type: ignore[arg-type]
            state = self.states[state.parent]
        steps.reverse()
        return steps


def sse_chain_search(
    e1: DirectedMultigraph,
    e2: DirectedMultigraph,
    max_steps: int = 3,
    max_vertices: int = 10,
    max_parts: int = 2,
) -> ChainSearchResult:
    """Bounded bidirectional probe for a chain of splits connecting e1 and e2.

    Both endpoints grow forward under all insplits and outsplits (classes per
    vertex capped by ``max_parts``, intermediate graphs by ``max_vertices``);
    frontiers are keyed by graph canonical form, so legs meet exactly when
    they reach isomorphic graphs, unless a ``trace_mismatch`` of the
    endpoints refutes first.  Absence within the bounds decides nothing.

    The bounds are the only throttle: the number of moves per state is the
    product of per-vertex vector-partition counts (partitions of a vertex's
    in-count column or out-count row into at most ``max_parts`` parts, up to
    their order), so vertices with many neighbours explode combinatorially
    -- tighten the bounds before probing dense graphs.  Parallel edges add
    no moves.  ``max_vertices`` is applied inside that product, so moves
    over it are never tried; each remaining child's count matrix is
    computed from the parent's and keyed through the side's key memo.
    Depth pairs are explored balanced-first within each total step count,
    so one-sided deep expansion happens only when nothing shallower meets.
    Which pairs are skipped, when the search stops, and what
    ``truncated_by_vertex_bound`` and ``reason`` report are set out once,
    in the module docstring.
    """
    if max_steps < 0:
        raise GraphError("max_steps must be nonnegative")
    if max_vertices < 1 or max_parts < 1:
        raise GraphError("max_vertices and max_parts must be at least 1")

    period = trace_mismatch(adjacency_matrix(e1), adjacency_matrix(e2))
    if period is not None:
        return ChainSearchResult("absent", reason="invariant-mismatch", mismatch_period=period)

    side1 = _SearchSide(e1, max_vertices, max_parts)
    side2 = _SearchSide(e2, max_vertices, max_parts)
    deepest1 = deepest2 = 0  # the deepest layer each side was asked for

    for total in range(max_steps + 1):
        if total > _last_meeting_depth(side1, side2) + _last_meeting_depth(side2, side1):
            break  # no pair from here on can share a vertex count
        decompositions = sorted(
            ((d1, total - d1) for d1 in range(total + 1)),
            key=lambda pair: (max(pair), pair),
        )
        for d1, d2 in decompositions:
            deepest1, deepest2 = max(deepest1, d1), max(deepest2, d2)
            if _apart(side1, d1, side2, d2):
                continue
            side1.expand_to(d1)
            side2.expand_to(d2)
            common = sorted(set(side1.layers[d1]) & set(side2.layers[d2]))
            if common:
                meet = common[0]
                return ChainSearchResult(
                    "found",
                    steps_from_e1=side1.leg(meet),
                    steps_from_e2=side2.leg(meet),
                    truncated_by_vertex_bound=side1.truncated_before(deepest1)
                    or side2.truncated_before(deepest2),
                )

    truncated = side1.truncated_before(max_steps) or side2.truncated_before(max_steps)
    # a cut move leaves the depth bound the reason whatever the frontier
    if truncated or side1.reaches(max_steps) or side2.reaches(max_steps):
        reason = "depth-bound-reached"
    else:
        reason = "search-space-exhausted"
    return ChainSearchResult(
        "absent", reason=reason, truncated_by_vertex_bound=truncated
    )


def _vertex_counts(side: _SearchSide, depth: int) -> tuple[float, float]:
    """The least and the greatest vertex count a state in layer ``depth``
    of ``side`` can have, read off the layers reached so far: a reached
    layer's own counts (``key[0]`` is n); past the deepest one, the growth
    bound of the module docstring, and ``max_vertices``.  An empty layer,
    or any past it, gives an empty range."""
    k = len(side.layers) - 1
    counts = [key[0] for key in side.layers[min(depth, k)]]
    if not counts:
        return math.inf, 0
    if depth <= k:
        return min(counts), max(counts)
    return min(counts) + depth - k, side.max_vertices


def _last_meeting_depth(side: _SearchSide, other: _SearchSide) -> int:
    """L1 of the module docstring, with ``side`` as side 1: the deepest
    layer of ``side`` that can share a vertex count with a state of
    ``other``, read off the layers reached so far, or -1 when none can."""
    # a key starts with its vertex count, so a layer's least and greatest
    # keys carry its least and greatest counts
    most = max(max(layer)[0] for layer in other.layers if layer)
    if other.layers[-1]:
        most = max(most, other.max_vertices)
    for d, layer in enumerate(side.layers):
        if not layer or min(layer)[0] > most:
            return d - 1
    # past the deepest layer k, layer d has at least least(k) + d - k and at
    # most max_vertices vertices
    return d + max(0, min(most, side.max_vertices) - min(layer)[0])


def _apart(side1: _SearchSide, d1: int, side2: _SearchSide, d2: int) -> bool:
    """Whether layer d1 of side1 and layer d2 of side2 can share no vertex
    count, and so no state."""
    lo1, hi1 = _vertex_counts(side1, d1)
    lo2, hi2 = _vertex_counts(side2, d2)
    return max(lo1, lo2) > min(hi1, hi2)
