"""Insplits and outsplits: apply, witness, and carry weights across.

An insplit partitions each vertex's incoming edges; each class becomes a
vertex copy, and an edge gets one copy per class at its source.  An outsplit
dually partitions outgoing edges.  Id schemes are fixed so outputs are
reproducible byte for byte and recoverable from ids alone:

* insplit vertices ``v~i`` (or ``v~`` for unpartitioned vertices), edge
  copies ``e~j`` (or ``e~``);
* outsplit vertices ``v^i`` / ``v^``, edge copies ``e^j`` / ``e^``.

Class lists are 1-based and order-significant: a class's position in the
split spec is the copy index the construction uses.

Both splits are strong shift equivalences; the witness constructors build the
intermediate graph together with the canonical theta bijections and the
class bijections (phi1 on the new graph's vertices, phi2 on the original
edges) that drive weight transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from .graphs import (
    DirectedMultigraph,
    Edge,
    EdgeFunction,
    GraphError,
    GraphFormatError,
    parse_json,
)
from .sse import SseWitness, _fresh_ids
from .weights import weights_from_f_E12


@dataclass(frozen=True)
class SplitSpec:
    """Per-vertex ordered partition of incoming (insplit) or outgoing
    (outsplit) edges; vertices absent from ``parts`` have m(v) = 0."""

    kind: str
    parts: Mapping[str, tuple[tuple[str, ...], ...]]

    def __post_init__(self) -> None:
        if self.kind not in ("insplit", "outsplit"):
            raise GraphError(f'split kind must be "insplit" or "outsplit", not {self.kind!r}')

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


@dataclass
class SplitReport:
    valid: bool
    violations: list[str]
    m: dict[str, int]


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
    m = {v: spec.m(v) for v in g.vertices}
    return SplitReport(not violations, violations, m)


def _require(g: DirectedMultigraph, spec: SplitSpec, kind: str) -> None:
    if spec.kind != kind:
        raise GraphError(f"expected an {kind} spec, got {spec.kind!r}")
    report = validate_split_spec(g, spec)
    if not report.valid:
        raise SplitSpecError(report)


@dataclass(frozen=True)
class SplitApplication:
    graph: DirectedMultigraph
    vertex_origin: Mapping[str, tuple[str, int | None]]
    edge_origin: Mapping[str, tuple[str, int | None]]


def _copy_vertices(
    g: DirectedMultigraph, spec: SplitSpec, marker: str
) -> tuple[list[str], dict[str, tuple[str, int | None]]]:
    vertices: list[str] = []
    origin: dict[str, tuple[str, int | None]] = {}
    for v in g.vertices:
        mv = spec.m(v)
        if mv == 0:
            nid = f"{v}{marker}"
            vertices.append(nid)
            origin[nid] = (v, None)
        else:
            for i in range(1, mv + 1):
                nid = f"{v}{marker}{i}"
                vertices.append(nid)
                origin[nid] = (v, i)
    return vertices, origin


def insplit_apply(g: DirectedMultigraph, spec: SplitSpec) -> SplitApplication:
    """Form the insplit graph: one vertex per incoming-edge class, one edge
    copy per class at the edge's source; the copy's range is the class of the
    original edge."""
    _require(g, spec, "insplit")
    return _build_insplit(g, spec)


def _build_insplit(g: DirectedMultigraph, spec: SplitSpec) -> SplitApplication:
    """``insplit_apply`` for a spec already known to be a valid insplit."""
    cls_idx = spec.class_index()
    vertices, vertex_origin = _copy_vertices(g, spec, "~")
    edges: list[Edge] = []
    edge_origin: dict[str, tuple[str, int | None]] = {}
    for e in g.edges:
        rng_copy = f"{e.rng}~{cls_idx[e.id]}"
        ms = spec.m(e.src)
        if ms == 0:
            nid = f"{e.id}~"
            edges.append(Edge(nid, f"{e.src}~", rng_copy))
            edge_origin[nid] = (e.id, None)
        else:
            for j in range(1, ms + 1):
                nid = f"{e.id}~{j}"
                edges.append(Edge(nid, f"{e.src}~{j}", rng_copy))
                edge_origin[nid] = (e.id, j)
    graph = DirectedMultigraph(tuple(vertices), tuple(edges))
    return SplitApplication(graph, vertex_origin, edge_origin)


def outsplit_apply(g: DirectedMultigraph, spec: SplitSpec) -> SplitApplication:
    """Form the outsplit graph: one vertex per outgoing-edge class, one edge
    copy per class at the edge's range; the copy's source is the class of the
    original edge (sources keep their whole out-bundle on the unindexed copy)."""
    _require(g, spec, "outsplit")
    return _build_outsplit(g, spec)


def _build_outsplit(g: DirectedMultigraph, spec: SplitSpec) -> SplitApplication:
    """``outsplit_apply`` for a spec already known to be a valid outsplit."""
    cls_idx = spec.class_index()
    vertices, vertex_origin = _copy_vertices(g, spec, "^")
    edges: list[Edge] = []
    edge_origin: dict[str, tuple[str, int | None]] = {}
    for e in g.edges:
        si = cls_idx.get(e.id)
        src_copy = f"{e.src}^{si}" if si is not None else f"{e.src}^"
        mr = spec.m(e.rng)
        if mr == 0:
            nid = f"{e.id}^"
            edges.append(Edge(nid, src_copy, f"{e.rng}^"))
            edge_origin[nid] = (e.id, None)
        else:
            for j in range(1, mr + 1):
                nid = f"{e.id}^{j}"
                edges.append(Edge(nid, src_copy, f"{e.rng}^{j}"))
                edge_origin[nid] = (e.id, j)
    graph = DirectedMultigraph(tuple(vertices), tuple(edges))
    return SplitApplication(graph, vertex_origin, edge_origin)


@dataclass(frozen=True)
class SplitWitnessBundle:
    e2: DirectedMultigraph
    witness: SseWitness
    phi1: Mapping[str, str]  # split-graph vertices -> witness edges
    phi2: Mapping[str, str]  # original edges -> witness edges
    application: SplitApplication


def _split_bundle(
    g: DirectedMultigraph,
    app: SplitApplication,
    e21: list[tuple[str, str, str]],
    e12: list[tuple[str, str, str]],
    theta1: dict[str, tuple[str, str]],
    theta2: dict[str, tuple[str, str]],
    phi1: dict[str, str],
    phi2: dict[str, str],
) -> SplitWitnessBundle:
    """Assemble a split's witness.  Side 1 keeps ``g``'s vertex ids and side 2
    takes the split graph's, primed where they collide.  ``e21`` lists
    (edge id, vertex of g, vertex of the split graph), ``e12`` the reverse."""
    side1 = tuple(g.vertices)
    vmap2 = _fresh_ids(side1, app.graph.vertices)
    side2 = tuple(vmap2.values())
    edges = [Edge(eta, v, vmap2[x]) for eta, v, x in e21]
    edges += [Edge(eta, vmap2[x], v) for eta, x, v in e12]
    witness = SseWitness(
        DirectedMultigraph(side1 + side2, tuple(edges)),
        side1,
        side2,
        tuple(eta for eta, _, _ in e21),
        tuple(eta for eta, _, _ in e12),
        {v: v for v in side1},
        vmap2,
        theta1,
        theta2,
    )
    return SplitWitnessBundle(app.graph, witness, phi1, phi2, app)


def insplit_witness(g: DirectedMultigraph, spec: SplitSpec) -> SplitWitnessBundle:
    """The intermediate graph of an insplit: one side2-to-side1 edge per new
    vertex (phi1) and one side1-to-side2 edge per original edge, landing in
    the copy of its class (phi2); theta1 = phi1 after phi2, theta2 reads the
    copy's source off phi1."""
    app = insplit_apply(g, spec)
    cls_idx = spec.class_index()
    rng_copy = {e.id: f"{e.rng}~{cls_idx[e.id]}" for e in g.edges}
    phi2 = {e.id: f"e21:{e.id}" for e in g.edges}
    phi1 = {v2: f"e12:{v2}" for v2 in app.graph.vertices}
    return _split_bundle(
        g,
        app,
        [(phi2[e.id], e.src, rng_copy[e.id]) for e in g.edges],
        [(phi1[v2], v2, app.vertex_origin[v2][0]) for v2 in app.graph.vertices],
        {e.id: (phi1[rng_copy[e.id]], phi2[e.id]) for e in g.edges},
        {e2e.id: (phi2[app.edge_origin[e2e.id][0]], phi1[e2e.src]) for e2e in app.graph.edges},
        phi1,
        phi2,
    )


def outsplit_witness(g: DirectedMultigraph, spec: SplitSpec) -> SplitWitnessBundle:
    """The intermediate graph of an outsplit: one side1-to-side2 edge per new
    vertex (phi1) and one side2-to-side1 edge per original edge, leaving from
    the copy of its class (phi2); theta1 = phi2 after phi1, theta2 reads the
    copy's range off phi1."""
    app = outsplit_apply(g, spec)
    cls_idx = spec.class_index()
    src_copy = {e.id: f"{e.src}^{cls_idx.get(e.id, '')}" for e in g.edges}
    phi1 = {v2: f"e21:{v2}" for v2 in app.graph.vertices}
    phi2 = {e.id: f"e12:{e.id}" for e in g.edges}
    return _split_bundle(
        g,
        app,
        [(phi1[v2], app.vertex_origin[v2][0], v2) for v2 in app.graph.vertices],
        [(phi2[e.id], src_copy[e.id], e.rng) for e in g.edges],
        {e.id: (phi2[e.id], phi1[src_copy[e.id]]) for e in g.edges},
        {e2e.id: (phi1[e2e.rng], phi2[app.edge_origin[e2e.id][0]]) for e2e in app.graph.edges},
        phi1,
        phi2,
    )


def insplit_transport_f(g: DirectedMultigraph, spec: SplitSpec, f: EdgeFunction) -> EdgeFunction:
    """Push a weighting through an insplit: every copy inherits its original's
    weight, which makes the witness' theta maps weight-preserving."""
    if f.graph != g:
        raise GraphError("f is not a weight map on the graph being split")
    app = insplit_apply(g, spec)
    return EdgeFunction(
        app.graph, {ne: f(app.edge_origin[ne][0]) for ne in app.graph.edge_ids()}
    )


@dataclass
class ReverseTransportResult:
    f: EdgeFunction | None
    obstructions: list[tuple[str, dict[str, int]]] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.f is not None

    def to_json_obj(self) -> dict:
        if self.f is not None:
            return {"status": "found", "f": {eid: self.f(eid) for eid in self.f.graph.edge_ids()}}
        return {
            "status": "absent",
            "obstructions": [
                {"edge": e, "copy_weights": dict(cw)} for e, cw in self.obstructions
            ],
        }


def insplit_reverse_transport(
    g: DirectedMultigraph, spec: SplitSpec, g2: EdgeFunction
) -> ReverseTransportResult:
    """Pull a weighting back through an insplit, when possible.

    A generator-level preimage exists exactly when the weighting is constant
    across the copies of each original edge; otherwise the differing copies
    are the obstruction, reported per edge.
    """
    app = insplit_apply(g, spec)
    if g2.graph != app.graph:
        raise GraphError("g2 is not a weight map on the insplit of this graph")
    by_origin: dict[str, dict[str, int]] = {}
    for ne in app.graph.edge_ids():
        origin = app.edge_origin[ne][0]
        by_origin.setdefault(origin, {})[ne] = g2(ne)
    obstructions = [
        (e.id, by_origin[e.id])
        for e in g.edges
        if len(set(by_origin[e.id].values())) > 1
    ]
    if obstructions:
        return ReverseTransportResult(None, obstructions)
    f = EdgeFunction(g, {e.id: next(iter(by_origin[e.id].values())) for e in g.edges})
    return ReverseTransportResult(f)


def outsplit_transport_f(
    g: DirectedMultigraph, spec: SplitSpec, f: EdgeFunction
) -> tuple[EdgeFunction, EdgeFunction]:
    """Push a weighting through an outsplit; returns (g2, h).

    Every copy inherits its original's weight; h keeps f's values on the
    side2-to-side1 witness edges and zeroes the rest, making both theta maps
    weight-preserving.
    """
    if f.graph != g:
        raise GraphError("f is not a weight map on the graph being split")
    bundle = outsplit_witness(g, spec)
    h, g_implied = weights_from_f_E12(bundle.witness, f, bundle.phi2)
    g2 = EdgeFunction(bundle.e2, dict(g_implied.weights))
    return g2, h


# -- enumeration for the chain search ----------------------------------------


def _set_partitions(items: Sequence[str], max_parts: int) -> list[tuple[tuple[str, ...], ...]]:
    """All partitions into at most max_parts nonempty classes, classes ordered
    by first occurrence (restricted growth strings)."""
    n = len(items)
    out: list[tuple[tuple[str, ...], ...]] = []

    def rec(i: int, assignment: list[int], nblocks: int) -> None:
        if i == n:
            blocks: list[list[str]] = [[] for _ in range(nblocks)]
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


def enumerate_split_specs(
    g: DirectedMultigraph, max_parts: int, max_vertices: int | None = None
) -> Iterator[tuple[str, SplitSpec]]:
    """Every valid insplit spec, then every valid outsplit spec, in the
    deterministic product order of per-vertex partitions.

    With ``max_vertices``, only the specs whose split graph has at most that
    many vertices, in the same order: a partial product is dropped as soon as
    its classes, plus one for each vertex still to choose, exceed the bound,
    so no spec over the bound is ever built.  Partitions too wide to fit even
    beside single classes everywhere else are not generated at all; dropping
    them keeps the order of the rest.
    """
    for kind in ("insplit", "outsplit"):
        fibers = _mapped_fibers(g, kind)
        mapped = [v for v, _ in fibers]
        budget = math.inf if max_vertices is None else max_vertices - (len(g.vertices) - len(mapped))
        widest = min(max_parts, budget - len(mapped) + 1)
        choices = [_set_partitions([e.id for e in es], widest) for _, es in fibers]
        for combo in _bounded_product(choices, budget):
            yield kind, SplitSpec(kind, dict(zip(mapped, combo)))


def _bounded_product(
    choices: list[list[tuple[tuple[str, ...], ...]]], budget: float
) -> Iterator[tuple[tuple[tuple[str, ...], ...], ...]]:
    """``itertools.product(*choices)`` in its order, keeping the combos whose
    class counts sum to at most ``budget``.  Every partition has at least one
    class."""
    last = len(choices)
    combo: list[tuple[tuple[str, ...], ...]] = []

    def extend(i: int, left: float) -> Iterator[tuple[tuple[tuple[str, ...], ...], ...]]:
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


def widest_split_vertex_count(g: DirectedMultigraph, max_parts: int) -> int:
    """The most vertices a split of ``g`` with at most ``max_parts`` classes
    per vertex can have, over both kinds: each partitioned vertex takes as
    many classes as it has edges, up to ``max_parts``.  ``g`` has a spec over
    a vertex bound exactly when this exceeds it."""
    return max(
        len(g.vertices) - len(fibers) + sum(min(max_parts, len(es)) for _, es in fibers)
        for fibers in (_mapped_fibers(g, "insplit"), _mapped_fibers(g, "outsplit"))
    )


def split_vertex_count(g: DirectedMultigraph, spec: SplitSpec) -> int:
    """Vertex count of the split graph: sum of max(m(v), 1)."""
    return sum(max(spec.m(v), 1) for v in g.vertices)


def split_counter(g: DirectedMultigraph) -> Callable[[SplitSpec], list[list[int]]]:
    """``counts(spec)``: the count matrix of ``g``'s split by a valid
    spec, ``counts[i][j]`` edges from copy i to copy j, copies in the order
    ``_build_insplit`` / ``_build_outsplit`` give them.  It works on vertex and
    edge positions and builds neither ids nor a graph, so a search can key a
    child before deciding to build it."""
    vidx = {v: i for i, v in enumerate(g.vertices)}
    eidx = {e.id: k for k, e in enumerate(g.edges)}
    ends = [(vidx[e.src], vidx[e.rng]) for e in g.edges]
    n = len(g.vertices)

    def counts(spec: SplitSpec) -> list[list[int]]:
        copies = [1] * n
        cls = [0] * len(ends)  # 0-based class of each edge in its partitioned fiber
        for v, classes in spec.parts.items():
            copies[vidx[v]] = len(classes)
            for i, members in enumerate(classes):
                for eid in members:
                    cls[eidx[eid]] = i
        first = [0] * n
        total = 0
        for i in range(n):
            first[i] = total
            total += copies[i]
        m = [[0] * total for _ in range(total)]
        if spec.kind == "insplit":
            # a copy of the edge at every copy of its source, into its class at the range
            for k, (s, r) in enumerate(ends):
                col = first[r] + cls[k]
                for row in range(first[s], first[s] + copies[s]):
                    m[row][col] += 1
        else:
            # from its class at the source, a copy into every copy of the range
            for k, (s, r) in enumerate(ends):
                row = m[first[s] + cls[k]]
                for col in range(first[r], first[r] + copies[r]):
                    row[col] += 1
        return m

    return counts
