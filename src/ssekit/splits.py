"""Insplits and outsplits: apply, witness, and carry weights across.

An insplit partitions each vertex's incoming edges; each class becomes a
vertex copy, and an edge gets one copy per class at its source.  An outsplit
dually partitions outgoing edges.  Id schemes are fixed so outputs are
reproducible byte for byte and recoverable from ids alone:

* insplit vertices ``v~i`` (or ``v~`` for unpartitioned vertices), edge
  copies ``e~j`` (or ``e~``);
* outsplit vertices ``v^i`` / ``v^``, edge copies ``e^j`` / ``e^``.

Class lists are 1-based and order-significant: a class's position in the
split spec is the copy index the construction uses.  The spec's ``kind`` is
the only place the kind is chosen: ``split_apply``, ``split_witness`` and
``reverse_transport`` serve both.

Both splits are strong shift equivalences; ``split_witness`` builds the
intermediate graph together with the canonical theta bijections and the
class bijections (phi1 on the new graph's vertices, phi2 on the original
edges).  Each theta path is one edge of each class, the phi2 edge standing
for the original edge, so a weighting crosses either kind of split as
``weights.push_forward`` through the phi2 class, with both theta maps
weight-preserving (Lind & Marcus, *An Introduction to Symbolic Dynamics and
Coding*, §2.4).  ``insplit``/``outsplit --weights`` print that push-forward.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, Sequence

from .graphs import (
    DirectedMultigraph,
    Edge,
    EdgeFunction,
    GraphError,
    GraphFormatError,
    _store,
    _Value,
    parse_json,
)
from .sse import SseWitness, _fresh_ids


class SplitSpec(_Value):
    """Per-vertex ordered partition of incoming (insplit) or outgoing
    (outsplit) edges; vertices absent from ``parts`` have m(v) = 0."""

    __slots__ = _fields = ("kind", "parts")
    kind: str
    parts: Mapping[str, tuple[tuple[str, ...], ...]]

    def __init__(self, kind: str, parts: Mapping[str, tuple[tuple[str, ...], ...]]) -> None:
        if kind not in ("insplit", "outsplit"):
            raise GraphError(f'split kind must be "insplit" or "outsplit", not {kind!r}')
        _store(self, "kind", kind)
        _store(self, "parts", parts)

    def m(self, v: str) -> int:
        return len(self.parts.get(v, ()))

    def class_index(self) -> dict[str, int]:
        """edge id -> 1-based index of its class, over all mapped vertices."""
        idx: dict[str, int] = {}
        for classes in self.parts.values():
            for i, cls in enumerate(classes, 1):
                for eid in cls:
                    idx[eid] = i
        return idx

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "parts": {v: [list(c) for c in cs] for v, cs in self.parts.items()}}

    @classmethod
    def from_json_obj(cls, obj: object) -> SplitSpec:
        if not isinstance(obj, dict) or "kind" not in obj or "parts" not in obj:
            raise GraphFormatError('split spec needs "kind" and "parts"')
        kind = obj["kind"]
        parts = obj["parts"]
        if not isinstance(kind, str):
            raise GraphFormatError('"kind" must be a string')
        if not isinstance(parts, dict):
            raise GraphFormatError('"parts" must be an object')
        clean: dict[str, tuple[tuple[str, ...], ...]] = {}
        for v, classes in parts.items():
            if not isinstance(classes, list) or not all(
                isinstance(c, list) and all(isinstance(e, str) for e in c) for c in classes
            ):
                raise GraphFormatError(f"classes of vertex {v!r} must be lists of edge ids")
            clean[v] = tuple(tuple(c) for c in classes)
        try:
            return cls(kind, clean)
        except GraphError as exc:
            raise GraphFormatError(str(exc)) from None


def parse_split_spec(text: str) -> SplitSpec:
    return SplitSpec.from_json_obj(parse_json(text))


class SplitReport(NamedTuple):
    valid: bool
    violations: list[str]


class SplitSpecError(GraphError):
    def __init__(self, report: SplitReport):
        super().__init__("invalid split spec: " + "; ".join(report.violations))
        self.report = report


def _mapped_fibers(g: DirectedMultigraph, kind: str) -> list[tuple[str, tuple[Edge, ...]]]:
    """The vertices a valid spec of ``kind`` partitions, each with the edges
    it partitions: receivers and their in-edges for an insplit, vertices that
    both receive and emit and their out-edges for an outsplit."""
    if kind == "insplit":
        return [(v, g.in_edges(v)) for v in g.vertices if g.in_edges(v)]
    return [(v, g.out_edges(v)) for v in g.vertices if g.in_edges(v) and g.out_edges(v)]


def validate_split_spec(g: DirectedMultigraph, spec: SplitSpec) -> SplitReport:
    """Check the partition conditions vertex by vertex.

    Insplit: exactly the vertices receiving edges are mapped, and their
    classes partition the incoming edges.  Outsplit: exactly the vertices
    that both receive and emit edges are mapped (sources stay whole by
    definition, sinks have nothing to partition), classes partition the
    outgoing edges.
    """
    violations: list[str] = []
    for v in spec.parts:
        if not g.has_vertex(v):
            violations.append(f"spec maps unknown vertex {v!r}")
    fiber = {v: {e.id for e in es} for v, es in _mapped_fibers(g, spec.kind)}
    forbidden_reason = "a source (receives no edges)" if spec.kind == "insplit" else "a source or a sink"
    for v in g.vertices:
        mapped = v in spec.parts
        if mapped and v not in fiber:
            violations.append(f"vertex {v!r} must stay unpartitioned: it is {forbidden_reason}")
        if not mapped and v in fiber:
            violations.append(f"vertex {v!r} must be partitioned")
        if not mapped or v not in fiber:
            continue
        classes = spec.parts[v]
        seen: dict[str, int] = {}
        for i, cls in enumerate(classes, 1):
            if not cls:
                violations.append(f"vertex {v!r}: class {i} is empty")
            for eid in cls:
                if eid in seen:
                    violations.append(
                        f"vertex {v!r}: edge {eid!r} appears in classes {seen[eid]} and {i}"
                    )
                seen[eid] = i
        missing = fiber[v] - set(seen)
        extra = set(seen) - fiber[v]
        if missing:
            violations.append(f"vertex {v!r}: classes miss edges {sorted(missing)}")
        if extra:
            violations.append(f"vertex {v!r}: classes contain foreign edges {sorted(extra)}")
    return SplitReport(not violations, violations)


class SplitApplication(NamedTuple):
    graph: DirectedMultigraph
    vertex_origin: Mapping[str, tuple[str, int | None]]
    edge_origin: Mapping[str, tuple[str, int | None]]


def split_apply(g: DirectedMultigraph, spec: SplitSpec) -> SplitApplication:
    """Form the split graph of ``g`` of the kind ``spec`` names, after
    checking the spec with ``validate_split_spec`` (``SplitSpecError`` if it
    fails)."""
    report = validate_split_spec(g, spec)
    if not report.valid:
        raise SplitSpecError(report)
    return _build_split(g, spec)


def _build_split(g: DirectedMultigraph, spec: SplitSpec) -> SplitApplication:
    """The split graph of a spec already known to be valid for ``g``.

    Vertex v becomes the copies ``v<m>1`` .. ``v<m>k`` for its k classes, or
    ``v<m>`` when it has none, with ``<m>`` the kind's marker.  An edge's
    near end (its range for an insplit, its source for an outsplit) goes to
    the copy of its class, unindexed when that end is unpartitioned; the
    edge is copied once per copy of its far end, taking that copy's suffix."""
    insplit = spec.kind == "insplit"
    marker = "~" if insplit else "^"
    cls_idx = spec.class_index()
    copies = {
        v: [(f"{marker}{i}", i) for i in range(1, spec.m(v) + 1)] or [(marker, None)]
        for v in g.vertices
    }
    vertex_origin = {v + sfx: (v, i) for v in g.vertices for sfx, i in copies[v]}
    edges: list[Edge] = []
    edge_origin: dict[str, tuple[str, int | None]] = {}
    for e in g.edges:
        near, far = (e.rng, e.src) if insplit else (e.src, e.rng)
        near_copy = f"{near}{marker}{cls_idx.get(e.id, '')}"
        for sfx, j in copies[far]:
            nid = e.id + sfx
            edges.append(Edge(nid, far + sfx, near_copy) if insplit else Edge(nid, near_copy, far + sfx))
            edge_origin[nid] = (e.id, j)
    graph = DirectedMultigraph(tuple(vertex_origin), tuple(edges))
    return SplitApplication(graph, vertex_origin, edge_origin)


class SplitWitnessBundle(NamedTuple):
    witness: SseWitness
    phi1: Mapping[str, str]  # split-graph vertices -> witness edges
    phi2: Mapping[str, str]  # original edges -> witness edges
    application: SplitApplication

    @property
    def e2(self) -> DirectedMultigraph:
        """The split graph, side 2 of the witness."""
        return self.application.graph


def split_witness(g: DirectedMultigraph, spec: SplitSpec) -> SplitWitnessBundle:
    """``split_apply(g, spec)`` with its witness.  Side 1 keeps ``g``'s vertex
    ids and side 2 takes the split graph's, primed where they collide.

    phi2 gives each original edge a witness edge between its far end in ``g``
    and its near end's copy; phi1 gives each split-graph vertex an edge to
    its original.  The phi2 edges are the e21 class of an insplit and the e12
    class of an outsplit.  A theta pair is the same two edges for both kinds,
    in the opposite order: theta1(e) is phi1(near copy) with phi2(e), theta2(c)
    is phi2(origin of c) with phi1(far copy of c), in that order for an
    insplit."""
    app = split_apply(g, spec)
    graph, vertex_origin, edge_origin = app
    insplit = spec.kind == "insplit"
    side1 = tuple(g.vertices)
    vmap2 = _fresh_ids(side1, graph.vertices)
    side2 = tuple(vmap2.values())
    cls2, cls1 = ("e21", "e12") if insplit else ("e12", "e21")
    order = 1 if insplit else -1
    # the copy of each original edge's near end, the same for every edge copy
    near = {edge_origin[c.id][0]: c.rng if insplit else c.src for c in graph.edges}
    phi1 = {x: f"{cls1}:{x}" for x in graph.vertices}
    phi2 = {e.id: f"{cls2}:{e.id}" for e in g.edges}
    # (witness edge, its end in g, its end in the split graph)
    ends2 = [(phi2[e.id], e.src if insplit else e.rng, near[e.id]) for e in g.edges]
    ends1 = [(phi1[x], vertex_origin[x][0], x) for x in graph.vertices]
    e21, e12 = (ends2, ends1) if insplit else (ends1, ends2)
    edges = [Edge(eta, v, vmap2[x]) for eta, v, x in e21] + [Edge(eta, vmap2[x], v) for eta, v, x in e12]
    witness = SseWitness(
        DirectedMultigraph(side1 + side2, tuple(edges)),
        side1,
        side2,
        tuple(eta for eta, _, _ in e21),
        tuple(eta for eta, _, _ in e12),
        {v: v for v in side1},
        vmap2,
        {e.id: (phi1[near[e.id]], phi2[e.id])[::order] for e in g.edges},
        {
            c.id: (phi2[edge_origin[c.id][0]], phi1[c.src if insplit else c.rng])[::order]
            for c in graph.edges
        },
    )
    return SplitWitnessBundle(witness, phi1, phi2, app)


class ReverseTransportResult(NamedTuple):
    f: EdgeFunction | None
    obstructions: Sequence[tuple[str, dict[str, int]]] = ()

    @property
    def found(self) -> bool:
        return self.f is not None


def reverse_transport(g: DirectedMultigraph, spec: SplitSpec, g2: EdgeFunction) -> ReverseTransportResult:
    """Pull a weighting of the split of ``g`` by ``spec`` back to ``g``, when
    possible, for either kind of split.

    A generator-level preimage exists exactly when the weighting is constant
    across the copies of each original edge; otherwise the differing copies
    are the obstruction, reported per edge.
    """
    graph, _, edge_origin = split_apply(g, spec)
    if g2.graph != graph:
        raise GraphError(f"g2 is not a weight map on the {spec.kind} of this graph")
    by_origin: dict[str, dict[str, int]] = {}
    for ne in graph.edge_ids():
        by_origin.setdefault(edge_origin[ne][0], {})[ne] = g2(ne)
    obstructions = [
        (e.id, by_origin[e.id])
        for e in g.edges
        if len(set(by_origin[e.id].values())) > 1
    ]
    if obstructions:
        return ReverseTransportResult(None, obstructions)
    f = EdgeFunction(g, {e.id: next(iter(by_origin[e.id].values())) for e in g.edges})
    return ReverseTransportResult(f)


# -- split moves on count matrices, for the chain search ---------------------
#
# The search keys its states by count matrix, in the vertex order of their
# labelled graph.  A split's classes at a vertex are count vectors over the
# far ends of its fiber's edges (their sources for an insplit, their ranges
# for an outsplit), indexed by vertex position.  Parallel edges are
# interchangeable, so a move is one vector partition per partitioned vertex.
# ``split_counts`` gives a move's count matrix without building its graph;
# ``vector_split_spec`` gives the labelled spec it stands for, for
# ``_build_split`` to apply.

Classes = tuple[tuple[int, ...], ...]


def _far_ends(vidx: Mapping[str, int], kind: str, fiber: Sequence[Edge]) -> list[int]:
    """The positions of the far ends of a fiber's edges, in edge order."""
    return [vidx[e.src] for e in fiber] if kind == "insplit" else [vidx[e.rng] for e in fiber]


def _vector_partitions(far: Sequence[int], n: int, max_parts: int) -> list[Classes]:
    """The partitions of a fiber into at most ``max_parts`` nonempty classes,
    one per multiset of class count vectors (indexed by far end, ``n`` long).

    Labelled partitions are restricted growth strings over the fiber's edges,
    in lexicographic order; each vector partition comes in the order of its
    first labelled one, with its classes in that one's order.  A first one
    gives the edges with one far end nondecreasing classes (swapping two that
    do not gives an earlier string with the same vectors), so only such
    strings are walked."""
    out: list[Classes] = []
    seen: set[Classes] = set()
    classes: list[list[int]] = []
    last = [0] * n  # class of the previous edge with this far end

    def rec(i: int) -> None:
        if i == len(far):
            vectors = tuple(map(tuple, classes))
            multiset = tuple(sorted(vectors))
            if multiset not in seen:
                seen.add(multiset)
                out.append(vectors)
            return
        t = far[i]
        prev = last[t]
        for b in range(prev, len(classes)):
            classes[b][t] += 1
            last[t] = b
            rec(i + 1)
            classes[b][t] -= 1
        if len(classes) < max_parts:
            classes.append([0] * n)
            classes[-1][t] = 1
            last[t] = len(classes) - 1
            rec(i + 1)
            classes.pop()
        last[t] = prev

    rec(0)
    return out


def _first_classes(far: Sequence[int], classes: Classes) -> list[int]:
    """The class of each fiber edge in the first labelled partition with
    these class vectors: the edges with one far end fill the classes in
    order, in edge order."""
    left = [list(c) for c in classes]
    out = []
    for t in far:
        k = 0
        while not left[k][t]:
            k += 1
        left[k][t] -= 1
        out.append(k)
    return out


def vector_splits(
    g: DirectedMultigraph, max_parts: int, max_vertices: float
) -> Iterator[tuple[str, dict[int, Classes]]]:
    """Every insplit, then every outsplit, of ``g`` up to parallel edges:
    ``(kind, parts)``, ``parts`` a vector partition per partitioned vertex,
    vertices by position, in the product order of ``_vector_partitions``.
    Each move stands for its first labelled spec (``vector_split_spec``),
    and the moves come in the order of those specs among all labelled ones,
    so the first move to reach a child is the first labelled spec to reach
    it.

    Only the moves whose split graph has at most ``max_vertices`` vertices
    come, in that order (``math.inf`` keeps them all): a partial product is
    dropped as soon as its classes, plus one for each vertex still to
    choose, exceed the bound.  Partitions too wide to fit even beside single
    classes everywhere else are not generated at all; dropping them keeps
    the order of the rest.
    """
    vidx = {v: i for i, v in enumerate(g.vertices)}
    n = len(vidx)
    for kind in ("insplit", "outsplit"):
        fibers = _mapped_fibers(g, kind)
        budget = max_vertices - (n - len(fibers))
        widest = min(max_parts, budget - len(fibers) + 1)
        choices = [_vector_partitions(_far_ends(vidx, kind, es), n, widest) for _, es in fibers]
        mapped = [vidx[v] for v, _ in fibers]
        for combo in _bounded_product(choices, budget):
            yield kind, dict(zip(mapped, combo))


def _bounded_product(choices: list[list[Classes]], budget: float) -> Iterator[tuple[Classes, ...]]:
    """``itertools.product(*choices)`` in its order, keeping the combos whose
    class counts sum to at most ``budget``.  Every partition has at least one
    class."""
    last = len(choices)
    combo: list[Classes] = []

    def extend(i: int, left: float) -> Iterator[tuple[Classes, ...]]:
        if i == last:
            yield tuple(combo)
            return
        spare = left - (last - i - 1)  # each later vertex takes a class at least
        for partition in choices[i]:
            if len(partition) <= spare:
                combo.append(partition)
                yield from extend(i + 1, left - len(partition))
                combo.pop()

    if budget >= last:
        yield from extend(0, budget)


def widest_split_vertex_count(m: Sequence[Sequence[int]], max_parts: int) -> int:
    """The most vertices a split of the graph with count matrix ``m`` can
    have with at most ``max_parts`` classes per vertex, over both kinds:
    each partitioned vertex takes as many classes as it has edges, up to
    ``max_parts``.  An insplit's fibers are the nonzero column sums, an
    outsplit's the row sums of the vertices that both receive and emit
    (``_mapped_fibers``).  The graph has a move over a vertex bound exactly
    when this exceeds it."""
    ins = [sum(col) for col in zip(*m)]
    outs = [sum(row) for row in m]
    return len(m) + max(
        sum(min(max_parts, k) - 1 for k in ins if k),
        sum(min(max_parts, k) - 1 for k, i in zip(outs, ins) if k and i),
    )


def split_counts(
    m: Sequence[Sequence[int]], kind: str, parts: Mapping[int, Classes]
) -> tuple[tuple[int, ...], ...]:
    """The count matrix of the split by ``(kind, parts)`` of the graph with
    count matrix ``m``: row i, column j counts the edges from copy i to copy
    j, copies in the order ``_build_split`` gives the split of
    ``vector_split_spec``'s spec.  A tuple of row tuples, so it can key a
    dict."""
    if kind == "insplit":
        # an unpartitioned vertex receives nothing; its column is its one class
        cls = [parts.get(v) or (col,) for v, col in enumerate(zip(*m))]
        # every copy of u emits a copy of each u -> v edge, into the copy of
        # v that holds the edge's class
        rows = [tuple([vec[u] for cs in cls for vec in cs]) for u in range(len(m))]
        return tuple([row for row, cs in zip(rows, cls) for _ in cs])
    # an unpartitioned vertex (a source or a sink) keeps its row whole
    cls = [parts.get(u) or (tuple(row),) for u, row in enumerate(m)]
    copies = [len(cs) for cs in cls]
    # each copy of u emits its class; each edge gets a copy into every copy of its range
    return tuple([tuple([k for k, c in zip(vec, copies) for _ in range(c)]) for cs in cls for vec in cs])


def vector_split_spec(g: DirectedMultigraph, kind: str, parts: Mapping[int, Classes]) -> SplitSpec:
    """The first labelled spec of ``g`` (in ``_vector_partitions``' order)
    whose classes have the count vectors ``parts``, vertices by position."""
    vidx = {v: i for i, v in enumerate(g.vertices)}
    labelled: dict[str, tuple[tuple[str, ...], ...]] = {}
    for v, es in _mapped_fibers(g, kind):
        classes = parts[vidx[v]]
        members: list[list[str]] = [[] for _ in classes]
        for e, c in zip(es, _first_classes(_far_ends(vidx, kind, es), classes)):
            members[c].append(e.id)
        labelled[v] = tuple(map(tuple, members))
    return SplitSpec(kind, labelled)
