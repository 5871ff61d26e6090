"""Strong shift equivalence: witnesses and the matrix formulation.

Two graphs are elementary SSE when a bipartite intermediate graph connects
them: its vertices split into two sides carrying copies of the two vertex
sets, every edge crosses sides, and the length-2 same-side paths biject with
the original edges source- and range-preservingly (theta1 for side 1, theta2
for side 2).  A fourth condition regulates sources of the intermediate graph:
each must emit exactly one edge, and that edge must be the only one into its
range.

The matrix counterpart: square nonnegative integer matrices A, B are
elementary SSE when A = R*S and S*R = B for rectangular nonnegative integer
R, S.  ``witness_from_essse`` realizes such a factorization as the bipartite
graph with S counting side1-to-side2 edges and R the reverse.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Sequence, TypeVar

from .graphs import (
    DirectedMultigraph,
    Edge,
    GraphError,
    GraphFormatError,
    NonnegIntMatrix,
    _chain,
    _store,
    _Value,
    graph_from_json_obj,
    graph_from_matrix,
    graph_to_json_obj,
    parse_json,
    paths_between,
    str_list,
    str_map,
)
from .invariants import trace_mismatch


class WitnessReferenceError(GraphError):
    """A witness names vertices or edges outside the graphs it connects."""


class WitnessConstructionError(GraphError):
    """A construction produced data violating the witness conditions."""

    def __init__(self, message: str, vertex: str | None = None, bundle=None):
        super().__init__(message)
        self.vertex = vertex
        self.bundle = bundle


class SseWitness(NamedTuple):
    """Candidate data for one elementary SSE step.

    ``side1``/``side2`` partition e3's vertices; ``e21``/``e12`` its edges
    (source side 1 / source side 2 respectively); ``vmap1``/``vmap2`` embed
    the outer graphs' vertex ids into the sides; ``theta1``/``theta2`` send
    outer edges to length-2 path edge pairs, listed in path order (the first
    edge of the pair carries the path's range).

    Construction is permissive: broken witnesses are representable so that
    ``verify_sse_witness`` can report exactly which conditions fail.
    """

    e3: DirectedMultigraph
    side1: tuple[str, ...]
    side2: tuple[str, ...]
    e21: tuple[str, ...]
    e12: tuple[str, ...]
    vmap1: Mapping[str, str]
    vmap2: Mapping[str, str]
    theta1: Mapping[str, tuple[str, str]]
    theta2: Mapping[str, tuple[str, str]]

    def implied_graph1(self) -> DirectedMultigraph:
        """Reconstruct the side-1 outer graph from vmap1 and theta1."""
        return self._implied(self.vmap1, self.theta1)

    def implied_graph2(self) -> DirectedMultigraph:
        """Reconstruct the side-2 outer graph from vmap2 and theta2."""
        return self._implied(self.vmap2, self.theta2)

    def _implied(self, vmap: Mapping[str, str], theta: Mapping[str, tuple[str, str]]) -> DirectedMultigraph:
        back = {v3: v for v, v3 in vmap.items()}
        if len(back) != len(vmap):
            raise GraphError("vertex map is not injective; cannot reconstruct the outer graph")
        edges, e3 = [], self.e3
        for eid, pair in theta.items():
            source, range_ = _chain(e3, pair)
            try:
                edges.append(Edge(eid, back[source], back[range_]))
            except KeyError as exc:
                raise GraphError(
                    f"theta path for edge {eid!r} ends at {exc.args[0]!r}, outside the mapped side"
                ) from None
        return DirectedMultigraph(tuple(vmap.keys()), tuple(edges))


class WitnessReport(NamedTuple):
    """One flag per defining condition, with human-readable diagnostics."""

    vertex_partition_ok: bool
    edge_bipartition_ok: bool
    theta_bijections_ok: bool
    source_condition_ok: bool
    problems: dict[str, list[str]]

    @property
    def passed(self) -> bool:
        return (
            self.vertex_partition_ok
            and self.edge_bipartition_ok
            and self.theta_bijections_ok
            and self.source_condition_ok
        )

    def to_json_obj(self) -> dict:
        return {
            "condition1": self.vertex_partition_ok,
            "condition2": self.edge_bipartition_ok,
            "condition3": self.theta_bijections_ok,
            "condition4": self.source_condition_ok,
            "passed": self.passed,
            "problems": self.problems,
        }


def _check_witness_references(e1: DirectedMultigraph, e2: DirectedMultigraph, w: SseWitness) -> None:
    for name, keys, known, noun in (
        ("theta1", w.theta1, e1.has_edge, "side-1 edge"),
        ("theta2", w.theta2, e2.has_edge, "side-2 edge"),
        ("vmap1", w.vmap1, e1.has_vertex, "side-1 vertex"),
        ("vmap2", w.vmap2, e2.has_vertex, "side-2 vertex"),
    ):
        for key in keys:
            if not known(key):
                raise WitnessReferenceError(f"{name} keyed by unknown {noun} {key!r}")


def _partition_problems(
    first: Sequence[str], second: Sequence[str], universe: set[str], texts: tuple[str, str, str, str]
) -> list[str]:
    """How ``first`` and ``second`` fail to partition ``universe``, one of
    ``texts`` per fault in this order: an id listed twice, ids on both lists,
    ids outside ``universe``, ids of ``universe`` on neither list."""
    twice, both, stray, neither = texts
    a, b = set(first), set(second)
    problems = [twice] if len(a) != len(first) or len(b) != len(second) else []
    faults = ((both, a & b), (stray, (a | b) - universe), (neither, universe - (a | b)))
    return problems + [f"{text}: {sorted(ids)}" for text, ids in faults if ids]


def _condition_vertex_partition(w: SseWitness, e1: DirectedMultigraph, e2: DirectedMultigraph) -> list[str]:
    problems = _partition_problems(w.side1, w.side2, set(w.e3.vertices), (
        "a side lists a vertex twice", "sides overlap",
        "side members missing from the intermediate graph", "vertices on neither side",
    ))
    for name, vmap, side, outer in (("vmap1", w.vmap1, w.side1, e1), ("vmap2", w.vmap2, w.side2, e2)):
        missing = set(outer.vertices) - set(vmap)
        if missing:
            problems.append(f"{name} misses vertices: {sorted(missing)}")
        values = list(vmap.values())
        if len(set(values)) != len(values):
            problems.append(f"{name} is not injective")
        if set(values) != set(side):
            problems.append(f"{name} is not onto its side")
    return problems


def _condition_edge_bipartition(w: SseWitness) -> list[str]:
    e3 = w.e3
    problems = _partition_problems(w.e21, w.e12, set(e3.edge_ids()), (
        "an edge class lists an edge twice", "edge classes overlap",
        "class members missing from the intermediate graph", "edges in neither class",
    ))
    s1, s2 = set(w.side1), set(w.side2)
    for name, cls, (src_side, rng_side), direction in (
        ("e21", w.e21, (s1, s2), "side1 -> side2"),
        ("e12", w.e12, (s2, s1), "side2 -> side1"),
    ):
        for eid in cls:
            if e3.has_edge(eid):
                e = e3.edge(eid)
                if e.src not in src_side or e.rng not in rng_side:
                    problems.append(f"{name} edge {eid!r} does not run {direction}")
    return problems


def _theta_check(
    label: str,
    outer: DirectedMultigraph,
    e3: DirectedMultigraph,
    side: Sequence[str],
    vmap: Mapping[str, str],
    theta: Mapping[str, tuple[str, str]],
) -> list[str]:
    problems: list[str] = []
    images: dict[tuple[str, str], str] = {}
    for e in outer.edges:
        pair = theta.get(e.id)
        if pair is None:
            problems.append(f"{label} undefined on edge {e.id!r}")
            continue
        if len(pair) != 2:
            problems.append(f"{label}({e.id!r}) is not a length-2 path")
            continue
        first, second = pair
        if not (e3.has_edge(first) and e3.has_edge(second)):
            problems.append(f"{label}({e.id!r}) dangles: missing edge in {pair!r}")
            continue
        head, tail = e3.edge(first), e3.edge(second)
        if head.src != tail.rng:
            problems.append(f"{label}({e.id!r}) edges do not chain: {pair!r}")
            continue
        path_source, path_range = tail.src, head.rng
        if vmap.get(e.src) != path_source:
            problems.append(
                f"{label}({e.id!r}) is not source-preserving: path starts at {path_source!r}"
            )
        if vmap.get(e.rng) != path_range:
            problems.append(
                f"{label}({e.id!r}) is not range-preserving: path ends at {path_range!r}"
            )
        key = (first, second)
        if key in images:
            problems.append(f"{label} repeats path {key!r} (also image of {images[key]!r})")
        images[key] = e.id
    members = {v for v in side if e3.has_vertex(v)}
    expected = set(paths_between(e3, 2, members, members))
    missed = expected - set(images)
    if missed:
        problems.append(f"{label} misses length-2 paths: {sorted(missed)}")
    return problems


def _source_offences(e3: DirectedMultigraph) -> list[tuple[str, str]]:
    """(vertex, message) for each source that breaks condition 4."""
    offences: list[tuple[str, str]] = []
    for v in e3.vertices:
        if e3.in_edges(v):
            continue
        out = e3.out_edges(v)
        if len(out) != 1:
            offences.append((v, f"source {v!r} emits {len(out)} edges instead of exactly one"))
            continue
        eta = out[0]
        receivers = e3.in_edges(eta.rng)
        if len(receivers) != 1 or receivers[0].id != eta.id:
            offences.append(
                (v, f"source {v!r}: its edge {eta.id!r} is not the only edge into {eta.rng!r}")
            )
    return offences


def verify_sse_witness(e1: DirectedMultigraph, e2: DirectedMultigraph, w: SseWitness) -> WitnessReport:
    """Check all four defining conditions of an elementary SSE witness.

    Ids named by the witness' outer-facing keys must belong to e1/e2 (raises
    otherwise); anything broken on the intermediate-graph side is reported as
    a failed condition instead of an error.
    """
    _check_witness_references(e1, e2, w)
    problems = {
        "condition1": _condition_vertex_partition(w, e1, e2),
        "condition2": _condition_edge_bipartition(w),
        "condition3": _theta_check("theta1", e1, w.e3, w.side1, w.vmap1, w.theta1)
        + _theta_check("theta2", e2, w.e3, w.side2, w.vmap2, w.theta2),
        "condition4": [message for _, message in _source_offences(w.e3)],
    }
    # one flag per condition, in condition order: it holds when nothing is listed
    return WitnessReport(*(not listed for listed in problems.values()), problems=problems)


def _canonical_theta(
    e3: DirectedMultigraph, outer: DirectedMultigraph, side: Sequence[str], vmap: Mapping[str, str]
) -> dict[str, tuple[str, str]] | None:
    """The canonical theta map from ``outer`` onto the length-2 paths of
    ``e3`` within ``side``, or None when some fiber sizes differ.

    For every ordered vertex pair the outer edges and the length-2 paths
    between the mapped vertices are paired in lexicographic order (edge ids
    against path edge-id sequences); the map lists outer edges in edge order.
    """
    fibers: dict[tuple[str, str], list[tuple[str, str]]] = {}
    members = set(side)
    for first, second in paths_between(e3, 2, members, members):
        fibers.setdefault((e3.edge(second).src, e3.edge(first).rng), []).append((first, second))
    edges_by_pair: dict[tuple[str, str], list[str]] = {}
    for e in outer.edges:
        edges_by_pair.setdefault((vmap[e.src], vmap[e.rng]), []).append(e.id)
    if set(fibers) != set(edges_by_pair):
        return None
    theta: dict[str, tuple[str, str]] = {}
    for key, eids in edges_by_pair.items():
        paths = fibers[key]  # sorted, as paths_between lists them
        if len(eids) != len(paths):
            return None
        theta.update(zip(sorted(eids), paths))
    return {e.id: theta[e.id] for e in outer.edges}


def find_theta_bijections(e1: DirectedMultigraph, e2: DirectedMultigraph, w: SseWitness) -> SseWitness | None:
    """``w`` with the canonical source- and range-preserving theta bijections,
    or None when none exist.

    Existence reduces to fiber counting: for every ordered vertex pair the
    number of outer edges must equal the number of length-2 paths between the
    mapped vertices (``_canonical_theta``).  ``w``'s own theta maps are
    replaced by empty ones before any check, so they are never read.  As in
    ``verify_sse_witness``, vmap keys outside e1/e2 raise; sides and classes
    that fail conditions 1-2 raise too.
    """
    w = w._replace(theta1={}, theta2={})
    _check_witness_references(e1, e2, w)
    misfits = _condition_vertex_partition(w, e1, e2) + _condition_edge_bipartition(w)
    if misfits:
        raise GraphError("sides/classes do not satisfy the partition conditions: " + "; ".join(misfits))
    theta1 = _canonical_theta(w.e3, e1, w.side1, w.vmap1)
    theta2 = None if theta1 is None else _canonical_theta(w.e3, e2, w.side2, w.vmap2)
    return None if theta2 is None else w._replace(theta1=theta1, theta2=theta2)


# -- witness serialization ---------------------------------------------------


def witness_to_json_obj(w: SseWitness) -> dict:
    return {
        "e3": graph_to_json_obj(w.e3),
        "side1": list(w.side1),
        "side2": list(w.side2),
        "e21": list(w.e21),
        "e12": list(w.e12),
        "vmap1": dict(w.vmap1),
        "vmap2": dict(w.vmap2),
        "theta1": {k: list(v) for k, v in w.theta1.items()},
        "theta2": {k: list(v) for k, v in w.theta2.items()},
    }


def witness_sides(obj: dict) -> tuple:
    """``(side1, side2, e21, e12, vmap1, vmap2)`` of a witness or sides
    object: four tuples of strings, then two string-to-string dicts."""
    return (
        str_list(obj, "side1"), str_list(obj, "side2"), str_list(obj, "e21"), str_list(obj, "e12"),
        str_map(obj, "vmap1"), str_map(obj, "vmap2"),
    )


def witness_from_json_obj(obj: object) -> SseWitness:
    if not isinstance(obj, dict):
        raise GraphFormatError("witness must be an object")
    for key in ("e3", "side1", "side2", "e21", "e12", "vmap1", "vmap2", "theta1", "theta2"):
        if key not in obj:
            raise GraphFormatError(f'witness needs a "{key}" key')
    e3, _ = graph_from_json_obj(obj["e3"])

    def theta_map(key: str) -> dict[str, tuple[str, str]]:
        val = obj[key]
        if not isinstance(val, dict):
            raise GraphFormatError(f'"{key}" must be an object')
        out: dict[str, tuple[str, str]] = {}
        for k, v in val.items():
            if not (type(k) is str and type(v) is list and len(v) == 2 and type(v[0]) is str and type(v[1]) is str):
                raise GraphFormatError(f'"{key}" values must be pairs of edge ids')
            out[k] = (v[0], v[1])
        return out

    return SseWitness(e3, *witness_sides(obj), theta_map("theta1"), theta_map("theta2"))


def parse_witness(text: str) -> SseWitness:
    return witness_from_json_obj(parse_json(text))


# -- matrix formulation ------------------------------------------------------


class EssePair(_Value):
    """A, B square and R, S rectangular with A = R*S, S*R = B as the claim."""

    __slots__ = _fields = ("a", "b", "r", "s")
    a: NonnegIntMatrix
    b: NonnegIntMatrix
    r: NonnegIntMatrix
    s: NonnegIntMatrix

    def __init__(self, a: NonnegIntMatrix, b: NonnegIntMatrix, r: NonnegIntMatrix, s: NonnegIntMatrix) -> None:
        if not a.square or not b.square:
            raise GraphError("A and B must be square")
        if r.nrows != a.nrows or r.ncols != b.nrows:
            raise GraphError(f"R must be {a.nrows}x{b.nrows}, got {r.nrows}x{r.ncols}")
        if s.nrows != b.nrows or s.ncols != a.nrows:
            raise GraphError(f"S must be {b.nrows}x{a.nrows}, got {s.nrows}x{s.ncols}")
        for name, value in zip(self._fields, (a, b, r, s)):
            _store(self, name, value)


def matrix_essse_verify(pair: EssePair) -> bool:
    """True iff A = R*S and S*R = B hold entrywise."""
    return pair.r.matmul(pair.s).entries == pair.a.entries and pair.s.matmul(pair.r).entries == pair.b.entries


class EsseWitnessBundle(NamedTuple):
    e1: DirectedMultigraph
    e2: DirectedMultigraph
    witness: SseWitness


def _fresh_ids(side1: Sequence[str], names: Sequence[str]) -> dict[str, str]:
    """Side-2 ids for ``names``, in order: each name keeps its id unless
    side 1 or an earlier name holds it, and is primed until free."""
    taken = set(side1)
    ids: dict[str, str] = {}
    for name in names:
        nid = name
        while nid in taken:
            nid += "'"
        ids[name] = nid
        taken.add(nid)
    return ids


def witness_from_essse(pair: EssePair) -> EsseWitnessBundle:
    """Realize a verified matrix factorization as graphs and a witness.

    side1 carries A's indices and side2 B's; S(x, w) counts the parallel
    side1-to-side2 edges w -> x and R(v, x) the reverse.  The length-2 path
    fibers then match the outer edge fibers because (RS)(v, w) = A(v, w) and
    (SR)(y, x) = B(y, x), so ``_canonical_theta`` never returns None here.
    Conditions 1-3 hold by construction; the source condition is checked and
    a violation raises ``WitnessConstructionError`` naming the vertex.
    """
    if not matrix_essse_verify(pair):
        raise GraphError("matrices do not satisfy A = R*S and S*R = B")
    e1 = graph_from_matrix(pair.a)
    e2 = graph_from_matrix(pair.b)
    side1 = tuple(pair.a.rows)
    vmap2 = _fresh_ids(side1, pair.b.rows)
    side2 = tuple(vmap2.values())
    vmap1 = {v: v for v in side1}

    # S(x, w) parallel edges w -> x, then R(v, x) parallel edges x -> v.
    e21 = [
        Edge(f"e21:{w}:{x}:{k}", w, vmap2[x])
        for w, s_col in zip(pair.a.rows, zip(*pair.s.entries))
        for x, count in zip(pair.b.rows, s_col)
        for k in range(1, count + 1)
    ]
    e12 = [
        Edge(f"e12:{x}:{v}:{k}", vmap2[x], v)
        for x, r_col in zip(pair.b.rows, zip(*pair.r.entries))
        for v, count in zip(pair.a.rows, r_col)
        for k in range(1, count + 1)
    ]
    e3 = DirectedMultigraph(side1 + side2, tuple(e21 + e12))
    witness = SseWitness(
        e3, side1, side2, tuple(e.id for e in e21), tuple(e.id for e in e12), vmap1, vmap2,
        _canonical_theta(e3, e1, side1, vmap1), _canonical_theta(e3, e2, side2, vmap2),
    )
    bundle = EsseWitnessBundle(e1, e2, witness)
    offences = _source_offences(e3)
    if offences:
        raise WitnessConstructionError(
            "source condition fails: " + "; ".join(message for _, message in offences),
            vertex=offences[0][0],
            bundle=bundle,
        )
    return bundle


_T = TypeVar("_T")


def _least_solution(
    size: int,
    bound: int,
    equations: Sequence[tuple[Sequence[tuple[int, int]], int]],
    accept: Callable[[list[int]], _T | None],
) -> _T | None:
    """The first result of ``accept`` that is not None over the x with
    0 <= x[p] <= bound and sum(c * x[p] for p, c in terms) == rhs for each
    (terms, rhs), in lexicographic order; ``accept`` gets the walk's list.

    Terms come merged, nonzero and in position order.  Each equation keeps
    what is left of its rhs; the first equation whose last term is at p
    fixes x[p], the others ending there check it, and an equation with no
    negative coefficient caps every entry it reads.
    """
    if any(rhs for terms, rhs in equations if not terms):
        return None  # 0 = rhs with rhs != 0
    left = [rhs for _, rhs in equations]
    reads, caps, ends = [[[] for _ in range(size)] for _ in range(3)]
    for e, (terms, _) in enumerate(equations):
        if terms:
            capping = min(map(itemgetter(1), terms)) > 0
            for p, c in terms:
                reads[p].append((e, c))
                if capping:
                    caps[p].append((e, c))
            ends[p].append((e, c))  # the last term
    x = [0] * size

    def walk(p: int) -> _T | None:
        if p == size:
            return accept(x)
        hi = bound
        for e, c in caps[p]:
            if left[e] < hi * c:
                hi = left[e] // c
        values: Sequence[int] = range(hi + 1)
        if ends[p]:
            e, c = ends[p][0]
            v, rem = divmod(left[e], c)
            values = (v,) if rem == 0 and 0 <= v <= hi else ()
        for v in values:
            x[p] = v
            for e, c in reads[p]:
                left[e] -= c * v
            for e, _ in ends[p]:
                if left[e]:
                    found = None
                    break
            else:
                found = walk(p + 1)
            for e, c in reads[p]:
                left[e] += c * v
            if found is not None:
                return found
        return None

    return walk(0)


def _entry_bound(a: NonnegIntMatrix, b: NonnegIntMatrix, entry_bound: int | None) -> int:
    """``entry_bound``, or by default the largest entry of A and B."""
    return max((x for row in a.entries + b.entries for x in row), default=0) if entry_bound is None else entry_bound


def matrix_essse_search(
    a: NonnegIntMatrix, b: NonnegIntMatrix, entry_bound: int | None = None
) -> tuple[NonnegIntMatrix, NonnegIntMatrix] | None:
    """Exhaustive search for R, S with A = R*S, S*R = B and entries <= bound.

    R is dim(A) x dim(B) and S is dim(B) x dim(A), as S*R must be square of
    B's size.  The answer is the first pair in row-major lexicographic order
    over the concatenated (R, S) entries; the default bound is the largest
    entry of A and B.  One exact solver, ``_least_solution``, walks R under
    A*R = R*B, which every solution satisfies (A*R = R*S*R = R*B), then, for
    each R whose row sums times the bound reach the largest entry of A's
    matching row ((R*S)(i, j) <= sum(R row i) * bound), S under R*S = A and
    S*R = B, which are linear in S once R is fixed.  A ``trace_mismatch``
    refutes the pair before any R is tried.
    """
    if not a.square or not b.square:
        raise GraphError("search needs square A and B")
    n = a.nrows
    k = b.nrows
    m = _entry_bound(a, b, entry_bound)
    if m < 0:
        raise GraphError("entry bound must be nonnegative")
    if trace_mismatch(a, b) is not None:
        return None
    # (A*R - R*B)(i, j) = 0 on the flat R: R(l, t) has coefficient
    # A(i, l) [t = j] - B(t, j) [l = i].
    r_equations = [
        ([(l * k + t, c) for l in range(n) for t in range(k)
          if (c := a.entries[i][l] * (t == j) - b.entries[t][j] * (l == i))], 0)
        for i in range(n)
        for j in range(k)
    ]
    # One-term equations pin their entry of R to 0.  A row of R pinned whole
    # fails the row bound of a nonzero row of A, whatever the rest of R is.
    pinned = {terms[0][0] for terms, _ in r_equations if len(terms) == 1}
    if any(max(row) and pinned.issuperset(range(i * k, (i + 1) * k)) for i, row in enumerate(a.entries)):
        return None
    # (R*S)(i, j) = A(i, j) and (S*R)(t, u) = B(t, u) on the flat S, as
    # (S position, position in R of its coefficient) pairs.
    s_layouts = [
        ([(t * n + j, i * k + t) for t in range(k)], a.entries[i][j]) for i in range(n) for j in range(n)
    ] + [([(t * n + j, j * k + u) for j in range(n)], b.entries[t][u]) for t in range(k) for u in range(k)]

    def with_s(r: list[int]) -> tuple[NonnegIntMatrix, NonnegIntMatrix] | None:
        if any(sum(r[i * k : (i + 1) * k]) * m < max(row) for i, row in enumerate(a.entries)):
            return None
        s_equations = [([(p, r[q]) for p, q in layout if r[q]], rhs) for layout, rhs in s_layouts]
        return _least_solution(k * n, m, s_equations, lambda s: (
            NonnegIntMatrix(a.rows, b.rows, tuple(tuple(r[i * k : (i + 1) * k]) for i in range(n))),
            NonnegIntMatrix(b.rows, a.rows, tuple(tuple(s[t * n : (t + 1) * n]) for t in range(k))),
        ))

    return _least_solution(n * k, m, r_equations, with_s)
