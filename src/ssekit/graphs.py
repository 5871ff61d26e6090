"""Finite directed multigraphs, paths, integer edge functions, adjacency matrices.

Conventions, used consistently by every module in this package:

* an edge points from its source ``s(e)`` to its range ``r(e)``;
* a path ``e_1 ... e_n`` requires ``s(e_i) = r(e_{i+1})``, i.e. composition
  runs right to left: the path starts at ``s(e_n)`` and ends at ``r(e_1)``;
* a vertex is a *source* when it receives no edge (``r^{-1}(v)`` empty) and
  a *sink* when it emits none (``s^{-1}(v)`` empty);
* adjacency matrices count ``A(v, w) = #{e : r(e) = v, s(e) = w}`` -- rows
  index ranges, columns index sources -- so ``(A^n)(v, w)`` counts length-n
  paths from ``w`` to ``v``.

Vertices and edges keep their input order; that order is the canonical
iteration order everywhere.  All values are immutable after construction and
every function here is pure.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence


class GraphError(ValueError):
    """Structural problem in a graph, path, weight map, or matrix."""


class GraphFormatError(GraphError):
    """Malformed serialized input."""


class Edge(NamedTuple):
    id: str
    src: str
    rng: str


_store = object.__setattr__  # writes a slot past the frozen ``__setattr__``


class _Value:
    """An immutable value over ``__slots__``: compared, hashed, printed and
    copied by the fields ``_fields`` (the constructor's arguments, in
    order).  ``__init__`` writes each slot with ``_store``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class DirectedMultigraph(_Value):
    """A finite directed multigraph: vertex ids, edge records, and s/r maps.

    Ids are opaque strings, unique within their kind.
    """

    __slots__ = ("vertices", "edges", "_by_id", "_in", "_out")
    _fields = ("vertices", "edges")
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    _by_id: dict[str, Edge]
    _in: dict[str, tuple[Edge, ...]]
    _out: dict[str, tuple[Edge, ...]]

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...]) -> None:
        _store(self, "vertices", vertices)
        _store(self, "edges", edges)
        # Exact-type and bulk checks first; only a graph that fails them is
        # walked record by record, so that the first fault is the one named.
        if not (set(map(type, vertices)) <= {str} and len(set(vertices)) == len(vertices)):
            self._check_records()
        by_id = {e.id: e for e in edges}
        incoming: dict[str, list[Edge]] = {v: [] for v in vertices}
        outgoing: dict[str, list[Edge]] = {v: [] for v in vertices}
        try:
            for e in edges:
                outgoing[e.src].append(e)
                incoming[e.rng].append(e)
        except KeyError:
            self._check_records()
        if len(by_id) != len(edges):
            self._check_records()
        _store(self, "_by_id", by_id)
        _store(self, "_in", {v: tuple(es) for v, es in incoming.items()})
        _store(self, "_out", {v: tuple(es) for v, es in outgoing.items()})

    def _check_records(self) -> None:
        """Raise the error for the first bad vertex or edge record, if any."""
        seen_v: set[str] = set()
        for v in self.vertices:
            if not isinstance(v, str):
                raise GraphError(f"vertex id {v!r} is not a string")
            if v in seen_v:
                raise GraphError(f"duplicate vertex id {v!r}")
            seen_v.add(v)
        seen_e: set[str] = set()
        for i, e in enumerate(self.edges):
            if e.id in seen_e:
                raise GraphError(f"edges[{i}]: duplicate edge id {e.id!r}")
            if e.src not in seen_v:
                raise GraphError(f"edges[{i}] ({e.id!r}): unknown src {e.src!r}")
            if e.rng not in seen_v:
                raise GraphError(f"edges[{i}] ({e.id!r}): unknown rng {e.rng!r}")
            seen_e.add(e.id)

    # -- accessors ---------------------------------------------------------

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge id {edge_id!r}") from None

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._by_id

    def has_vertex(self, v: str) -> bool:
        return v in self._in

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        """r^{-1}(v): edges received by v, in edge order."""
        try:
            return self._in[v]
        except KeyError:
            raise GraphError(f"unknown vertex id {v!r}") from None

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        """s^{-1}(v): edges emitted by v, in edge order."""
        try:
            return self._out[v]
        except KeyError:
            raise GraphError(f"unknown vertex id {v!r}") from None

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(self._by_id)


def _chain(g: DirectedMultigraph, edge_ids: Sequence[str]) -> tuple[str, str]:
    """(source, range) of the path ``edge_ids`` of ``g``: there must be at
    least one edge, each id must name an edge, and each edge's source must be
    the next edge's range."""
    if not edge_ids:
        raise GraphError("a path needs at least one edge")
    prev: Edge | None = None
    for eid in edge_ids:
        e = g.edge(eid)
        if prev is None:
            first = e
        elif prev.src != e.rng:
            raise GraphError(
                f"edges {prev.id!r} and {eid!r} do not chain: "
                f"s({prev.id})={prev.src!r} but r({eid})={e.rng!r}"
            )
        prev = e
    return prev.src, first.rng  # type: ignore[union-attr]


class EdgeFunction(_Value):
    """A total integer weight map on a graph's edges, additive on paths."""

    __slots__ = _fields = ("graph", "weights")
    graph: DirectedMultigraph
    weights: Mapping[str, int]

    def __init__(self, graph: DirectedMultigraph, weights: Mapping[str, int]) -> None:
        _store(self, "graph", graph)
        _store(self, "weights", weights)
        domain = set(weights)
        edge_set = graph._by_id.keys()
        if domain != edge_set:
            missing = edge_set - domain
            extra = domain - edge_set
            if missing:
                raise GraphError(f"weight map misses edges: {sorted(missing)}")
            if extra:
                raise GraphError(f"weight map has unknown edges: {sorted(extra)}")
        if set(map(type, weights.values())) <= {int}:
            return
        for eid, wt in weights.items():
            if not isinstance(wt, int) or isinstance(wt, bool):
                raise GraphError(f"weight of edge {eid!r} is not an integer: {wt!r}")

    def __call__(self, edge_id: str) -> int:
        try:
            return self.weights[edge_id]
        except KeyError:
            raise GraphError(f"edge {edge_id!r} outside this function's domain") from None

    @classmethod
    def zero(cls, graph: DirectedMultigraph) -> EdgeFunction:
        return cls(graph, {eid: 0 for eid in graph.edge_ids()})


class NonnegIntMatrix(_Value):
    """An integer matrix with nonnegative entries, indexed by explicit id lists."""

    __slots__ = _fields = ("rows", "cols", "entries")
    rows: tuple[str, ...]
    cols: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, rows: tuple[str, ...], cols: tuple[str, ...], entries: tuple[tuple[int, ...], ...]) -> None:
        _store(self, "rows", rows)
        _store(self, "cols", cols)
        _store(self, "entries", entries)
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise GraphError("matrix index lists must not repeat ids")
        if len(entries) != len(rows):
            raise GraphError(f"matrix has {len(entries)} entry rows for {len(rows)} row ids")
        for i, row in enumerate(entries):
            if len(row) != len(cols):
                raise GraphError(f"entry row {i} has {len(row)} entries for {len(cols)} columns")
            if set(map(type, row)) <= {int} and min(row, default=0) >= 0:
                continue
            for j, x in enumerate(row):
                if not isinstance(x, int) or isinstance(x, bool):
                    raise GraphError(f"entry ({i},{j}) is not an integer: {x!r}")
                if x < 0:
                    raise GraphError(f"entry ({i},{j}) is negative: {x}")

    @classmethod
    def from_entries(
        cls,
        entries: Sequence[Sequence[int]],
        rows: Sequence[str] | None = None,
        cols: Sequence[str] | None = None,
    ) -> NonnegIntMatrix:
        """Build a matrix, synthesizing string indices "0", "1", ... when absent."""
        n = len(entries)
        m = len(entries[0]) if entries else 0
        if rows is None:
            rows = [str(i) for i in range(n)]
        if cols is None:
            cols = [str(j) for j in range(m)]
        return cls(tuple(rows), tuple(cols), tuple(tuple(r) for r in entries))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.cols)

    @property
    def square(self) -> bool:
        return self.nrows == self.ncols

    def matmul(self, other: NonnegIntMatrix) -> NonnegIntMatrix:
        """Positional matrix product; exact over Python ints.

        Row i of the product is the sum of x * (row l of ``other``) over the
        nonzero entries x = self[i][l], so zeros of the left factor cost
        nothing (Gustavson's row-by-row product).
        """
        if self.ncols != other.nrows:
            raise GraphError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        zero = (0,) * other.ncols
        prod = []
        for row in self.entries:
            terms = [r if x == 1 else [x * y for y in r] for x, r in zip(row, other.entries) if x]
            prod.append(tuple(map(sum, zip(*terms))) if terms else zero)
        return NonnegIntMatrix(self.rows, other.cols, tuple(prod))

    def power(self, n: int) -> NonnegIntMatrix:
        if not self.square:
            raise GraphError("matrix power needs a square matrix")
        if n < 0:
            raise GraphError("matrix power needs n >= 0")
        result = NonnegIntMatrix(
            self.rows,
            self.cols,
            tuple(tuple(1 if i == j else 0 for j in range(self.ncols)) for i in range(self.nrows)),
        )
        for _ in range(n):
            result = result.matmul(self)
        return result

    def power_traces(self, n_max: int) -> tuple[int, ...]:
        """Exact traces tr(A^1) .. tr(A^n_max).

        Only the powers up to h = ceil(n_max / 2) are built, as A * A^k with
        the (typically sparse) A on the left: h - 1 products.  Each later
        period m > h costs O(V^2), as tr(A^m) = sum over v, w of
        A^h(v, w) * A^(m-h)(w, v).
        """
        if not self.square:
            raise GraphError("power traces need a square matrix")
        if n_max < 0:
            raise GraphError("power traces need n_max >= 0")
        if n_max == 0:
            return ()
        h = (n_max + 1) // 2
        powers = [self]
        for _ in range(h - 1):
            powers.append(self.matmul(powers[-1]))
        traces = [p.trace() for p in powers]
        top = powers[-1].entries
        for low in powers[: n_max - h]:
            cols = zip(*low.entries)
            traces.append(sum(sum(map(mul, row, col)) for row, col in zip(top, cols)))
        return tuple(traces)

    def trace(self) -> int:
        if not self.square:
            raise GraphError("trace needs a square matrix")
        return sum(self.entries[i][i] for i in range(self.nrows))

    def total(self) -> int:
        return sum(sum(row) for row in self.entries)

    def to_json_obj(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "entries": [list(row) for row in self.entries],
        }

    @classmethod
    def from_json_obj(cls, obj: object) -> NonnegIntMatrix:
        if not isinstance(obj, dict):
            raise GraphFormatError("matrix must be an object")
        if "entries" not in obj:
            raise GraphFormatError('matrix needs an "entries" key')
        entries = obj["entries"]
        if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
            raise GraphFormatError('"entries" must be a list of lists')
        rows = obj.get("rows")
        cols = obj.get("cols")
        if rows is not None and not (isinstance(rows, list) and all(isinstance(v, str) for v in rows)):
            raise GraphFormatError('"rows" must be a list of strings')
        if cols is not None and not (isinstance(cols, list) and all(isinstance(v, str) for v in cols)):
            raise GraphFormatError('"cols" must be a list of strings')
        try:
            return cls.from_entries(entries, rows, cols)
        except GraphError as exc:
            raise GraphFormatError(str(exc)) from None


# -- serialization ----------------------------------------------------------


def graph_to_json_obj(g: DirectedMultigraph, weights: EdgeFunction | None = None) -> dict:
    edges = []
    for e in g.edges:
        rec: dict = {"id": e.id, "src": e.src, "rng": e.rng}
        if weights is not None:
            rec["weight"] = weights(e.id)
        edges.append(rec)
    return {"vertices": list(g.vertices), "edges": edges}


def _json_text(obj: object, indent: str = "") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, with strings and ints
    encoded in C: dicts with string keys and lists are joined here, any
    other value goes through ``json.dumps`` and is indented to its place."""
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    if t is list:
        if not obj:
            return "[]"
        items = [encode_basestring_ascii(x) if type(x) is str else _json_text(x, inner) for x in obj]
        return "[\n" + inner + sep.join(items) + "\n" + indent + "]"
    if t is dict and set(map(type, obj)) <= {str}:
        if not obj:
            return "{}"
        items = [
            encode_basestring_ascii(k) + ": " + (encode_basestring_ascii(v) if type(v) is str else _json_text(v, inner))
            for k, v in obj.items()
        ]
        return "{\n" + inner + sep.join(items) + "\n" + indent + "}"
    return json.dumps(obj, indent=2).replace("\n", "\n" + indent)


def serialize_graph(g: DirectedMultigraph, weights: EdgeFunction | None = None) -> str:
    return _json_text(graph_to_json_obj(g, weights)) + "\n"


def graph_from_json_obj(obj: object) -> tuple[DirectedMultigraph, EdgeFunction | None]:
    """Validate a deserialized graph object; returns the graph and, when every
    edge carries a "weight" field, the corresponding edge function."""
    if not isinstance(obj, dict):
        raise GraphFormatError("graph must be an object with vertices and edges")
    for key in ("vertices", "edges"):
        if key not in obj:
            raise GraphFormatError(f'graph needs a "{key}" key')
    vs = obj["vertices"]
    if not (type(vs) is list and set(map(type, vs)) <= {str}) and (
        not isinstance(vs, list) or not all(isinstance(v, str) for v in vs)
    ):
        raise GraphFormatError('"vertices" must be a list of strings')
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise GraphFormatError('"edges" must be a list')
    edges: list[Edge] = []
    weight_map: dict[str, int] = {}
    weighted = 0
    for i, rec in enumerate(raw_edges):
        # One exact-type test per record; a record failing it is checked key
        # by key, and its first fault named.
        eid, src, rng = (rec.get("id"), rec.get("src"), rec.get("rng")) if type(rec) is dict else (None,) * 3
        if type(eid) is str and type(src) is str and type(rng) is str:
            e = Edge(eid, src, rng)
        else:
            e = _edge_of_record(i, rec)
        edges.append(e)
        if "weight" in rec:
            wt = rec["weight"]
            if type(wt) is not int and (not isinstance(wt, int) or isinstance(wt, bool)):
                raise GraphFormatError(f"edges[{i}]: weight must be an integer")
            weight_map[e.id] = wt
            weighted += 1
    try:
        g = DirectedMultigraph(tuple(vs), tuple(edges))
    except GraphError as exc:
        raise GraphFormatError(str(exc)) from None
    if weighted == 0:
        return g, None
    if weighted != len(edges):
        raise GraphFormatError(
            f"{weighted} of {len(edges)} edges carry weights; weight either all edges or none"
        )
    return g, EdgeFunction(g, weight_map)


def _edge_of_record(i: int, rec: object) -> Edge:
    """Edge record ``i`` checked key by key, or the error naming its fault."""
    if not isinstance(rec, dict):
        raise GraphFormatError(f"edges[{i}]: must be an object")
    for key in ("id", "src", "rng"):
        if key not in rec or not isinstance(rec[key], str):
            raise GraphFormatError(f'edges[{i}]: needs a string "{key}"')
    return Edge(rec["id"], rec["src"], rec["rng"])


def parse_json(text: str) -> object:
    """``json.loads``, with malformed or too deeply nested text as an input error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from None
    except ValueError:  # an integer literal over the interpreter's digit limit
        raise GraphFormatError("invalid JSON: integer literal too long") from None
    except RecursionError:
        raise GraphFormatError("invalid JSON: nested too deeply") from None


def parse_graph_with_weights(text: str) -> tuple[DirectedMultigraph, EdgeFunction | None]:
    return graph_from_json_obj(parse_json(text))


def parse_graph(text: str) -> DirectedMultigraph:
    """Parse the structured-text graph format, ignoring any weight fields."""
    return parse_graph_with_weights(text)[0]


def to_dot(
    g: DirectedMultigraph,
    weights: EdgeFunction | None = None,
    blue_edges: Iterable[str] = (),
    red_edges: Iterable[str] = (),
) -> str:
    """DOT export: one node per vertex, one arc per edge labeled "id(:weight)".
    Ids and labels are DOT quoted strings, with backslash and double quote
    escaped."""

    def quoted(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    blue = set(blue_edges)
    red = set(red_edges)
    lines = ["digraph {"]
    for v in g.vertices:
        lines.append(f"  {quoted(v)};")
    for e in g.edges:
        label = e.id if weights is None else f"{e.id}:{weights(e.id)}"
        attrs = [f"label={quoted(label)}"]
        if e.id in blue:
            attrs.append("color=blue")
        elif e.id in red:
            attrs.append("color=red")
        lines.append(f'  {quoted(e.src)} -> {quoted(e.rng)} [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- core operations --------------------------------------------------------


def classify_vertices(g: DirectedMultigraph) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(sources, sinks) in vertex order: no incoming / no outgoing edges."""
    sources = tuple(v for v in g.vertices if not g.in_edges(v))
    sinks = tuple(v for v in g.vertices if not g.out_edges(v))
    return sources, sinks


def paths_between(
    g: DirectedMultigraph,
    length: int,
    from_vertices: Iterable[str] | None = None,
    to_vertices: Iterable[str] | None = None,
) -> list[tuple[str, ...]]:
    """The edge-id tuples ``(e_1, ..., e_length)`` of all paths with source in
    ``from_vertices`` and range in ``to_vertices`` (defaults: all vertices),
    sorted.  ``length`` must be at least 1.  Walks grow backwards from their
    range along the in-edge index, one edge per round, so the cost is
    O(number of paths of this length ending in ``to_vertices``)."""
    if length < 1:
        raise GraphError("path length must be at least 1")
    frm = set(g.vertices if from_vertices is None else from_vertices)
    to = set(g.vertices if to_vertices is None else to_vertices)
    inn = g._in
    unknown = (frm | to).difference(inn)
    if unknown:
        raise GraphError(f"unknown vertex id {min(unknown)!r}")
    walks: list[tuple[tuple[str, ...], str]] = [((), v) for v in to]
    for _ in range(length - 1):
        walks = [(seq + (e.id,), e.src) for seq, tail in walks for e in inn[tail]]
    return sorted([seq + (e.id,) for seq, tail in walks for e in inn[tail] if e.src in frm])


def adjacency_matrix(g: DirectedMultigraph) -> NonnegIntMatrix:
    """Edge-count matrix: entry (v, w) counts edges with range v and source w,
    the transpose of ``_count_matrix`` (one pass over the edges)."""
    return NonnegIntMatrix(g.vertices, g.vertices, tuple(zip(*_count_matrix(g))))


def graph_from_matrix(a: NonnegIntMatrix) -> DirectedMultigraph:
    """One vertex per index; A(v, w) parallel edges from w to v, ids "v:w:k"."""
    if a.rows != a.cols:
        raise GraphError("matrix-to-graph conversion needs identical row and column ids")
    edges = [
        Edge(f"{v}:{w}:{k}", w, v)
        for v, row in zip(a.rows, a.entries)
        for w, count in zip(a.cols, row)
        for k in range(1, count + 1)
    ]
    return DirectedMultigraph(a.rows, tuple(edges))


# -- isomorphism ------------------------------------------------------------


class GraphIsomorphism(NamedTuple):
    vertex_map: Mapping[str, str]
    edge_map: Mapping[str, str]


def _count_matrix(g: DirectedMultigraph) -> list[list[int]]:
    """``m[i][j]`` edges from vertex i to vertex j, in vertex order."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    m = [[0] * len(idx) for _ in idx]
    for e in g.edges:
        m[idx[e.src]][idx[e.rng]] += 1
    return m


def _refine(colour: list[int], out: list[list[tuple[int, int]]], inn: list[list[tuple[int, int]]]) -> list[int]:
    """Split cells by signature until none splits or all are singletons.

    A colour is the position where its cell starts.  A signature is the
    vertex's colour, then its sorted out- and in-bundles, k edges to colour c
    coded k * n + c (``out``/``inn`` list each far end with k * n).  Old cells
    keep their place, so refining commutes with relabelling."""
    n = len(colour)
    cells = len(set(colour))
    while cells < n:
        sig = [
            (c, sorted([kn + colour[w] for w, kn in out[v]]), sorted([kn + colour[u] for u, kn in inn[v]]))
            for v, c in enumerate(colour)
        ]
        new, prev, split = colour[:], None, 0
        for i, v in enumerate(sorted(range(n), key=sig.__getitem__)):
            if sig[v] != prev:
                prev, start, split = sig[v], i, split + 1
            new[v] = start
        if split == cells:
            break
        colour, cells = new, split
    return colour


def _uniform(m: Sequence[Sequence[int]], colour: list[int]) -> bool:
    """Whether ``m[x][y]`` depends only on the colours of x and y and on
    whether x == y.  Then every permutation within cells is an automorphism,
    every leaf below the colouring has the same matrix, and the first leaf
    orders each cell by vertex."""
    seen: dict[tuple[int, int, bool], int] = {}
    for x, row in enumerate(m):
        cx = colour[x]
        for y, k in enumerate(row):
            if seen.setdefault((cx, colour[y], x == y), k) != k:
                return False
    return True


def _canonical_labelling(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], list[int]]:
    """``(key, order)``: n and the least row-major ``m`` over the search's
    leaves, and the vertex order of a leaf that attains it.

    Colour refinement plus individualisation (McKay & Piperno, "Practical
    graph isomorphism, II", 2014).  A node whose colouring is discrete or
    ``_uniform`` is a leaf, ordered by colour, then by vertex; any other node
    individualises each vertex of its first smallest non-singleton cell.  A
    uniform leaf records the automorphism that turns each of its cells one
    step.  A leaf equal to the best gives an automorphism: siblings in one
    orbit of those fixing the node's path are skipped, and the search jumps
    back to where the two leaves' paths diverge.  A node takes the
    automorphisms fixing its path from its parent's and adds those found
    below it.  They fix its path too: a uniform leaf's fixes every
    singleton, and a leaf below the node equal to a best leaf outside it
    jumps back past the node, so the search never goes on there.  Recursion
    is as deep as a path."""
    n = len(m)
    out = [[(w, k * n) for w, k in enumerate(row) if k] for row in m]
    inn = [[(u, k * n) for u, k in enumerate(col) if k] for col in zip(*m)]
    autos: list[list[int]] = []
    best: list = []  # key, order and path of the least leaf so far

    def orbit(v: int, fixing: list[list[int]]) -> set[int]:
        seen, todo = {v}, [v]
        while todo:
            x = todo.pop()
            todo += {a[x] for a in fixing} - seen
            seen.update(todo)
        return seen

    def search(colour: list[int], path: list[int], fixing: list[list[int]]) -> int | None:
        """Explore a node whose path the automorphisms ``fixing`` fix;
        return the depth to jump back to, if any."""
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colour):
            cells.setdefault(c, []).append(v)
        if len(cells) == n or _uniform(m, colour):
            order = sorted(range(n), key=lambda v: (colour[v], v))
            key = tuple([m[a][b] for a in order for b in order])
            if len(cells) < n:  # uniform: turning each cell one step is an automorphism
                a = list(range(n))
                for cell in cells.values():
                    for x, y in zip(cell, cell[1:] + cell[:1]):
                        a[x] = y
                autos.append(a)
            if not best or key < best[0]:
                best[:] = key, order, path
            elif key == best[0]:
                autos.append([b for _, b in sorted(zip(best[1], order))])
                return next(d for d, (a, b) in enumerate(zip(path, best[2])) if a != b)
            return None
        start = min((len(cell), c) for c, cell in cells.items() if len(cell) > 1)[1]
        tried: list[int] = []
        known = len(autos)
        for v in cells[start]:
            if tried:
                fixing += autos[known:]
                known = len(autos)
                if not orbit(v, fixing).isdisjoint(tried):
                    continue
            tried.append(v)
            child = [start + 1 if c == start and w != v else c for w, c in enumerate(colour)]
            back = search(_refine(child, out, inn), path + [v], [a for a in fixing if a[v] == v])
            if back is not None and back < len(path):
                return back
        return None

    search(_refine([0] * n, out, inn), [], [])
    return (n, *best[0]), best[1]


def is_isomorphic(g1: DirectedMultigraph, g2: DirectedMultigraph) -> GraphIsomorphism | None:
    """A multigraph isomorphism from g1 to g2, or None: the two canonical
    vertex orders matched position by position, and parallel edges paired
    id-sorted within each bundle.  Under automorphisms, which isomorphism
    comes back is deterministic but otherwise unspecified."""
    key1, order1 = _canonical_labelling(_count_matrix(g1))
    key2, order2 = _canonical_labelling(_count_matrix(g2))
    if key1 != key2:
        return None
    mapping = {g1.vertices[a]: g2.vertices[b] for a, b in zip(order1, order2)}
    targets: dict[tuple[str, str], list[str]] = {}
    for e in sorted(g2.edges, key=lambda e: e.id, reverse=True):
        targets.setdefault((e.src, e.rng), []).append(e.id)
    edge_map = {
        e.id: targets[(mapping[e.src], mapping[e.rng])].pop() for e in sorted(g1.edges, key=lambda e: e.id)
    }
    return GraphIsomorphism(mapping, edge_map)


def canonical_key(g: DirectedMultigraph) -> tuple[int, ...]:
    """A complete isomorphism invariant, a hashable and totally ordered tuple
    of ints: the vertex count, then the count matrix row by row in canonical
    vertex order (``_canonical_labelling``)."""
    return _canonical_labelling(_count_matrix(g))[0]


def canonical_key_of_counts(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """``canonical_key`` of the graph whose count matrix is ``m``:
    ``m[i][j]`` edges from vertex i to vertex j, in any vertex order."""
    return _canonical_labelling(m)[0]
