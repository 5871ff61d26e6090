import math
import random

import pytest

from ssekit import (
    DirectedMultigraph,
    Edge,
    EdgeFunction,
    GraphError,
    NonnegIntMatrix,
    SplitSpec,
    SplitSpecError,
    adjacency_matrix,
    graph_from_matrix,
    is_isomorphic,
    push_forward,
    reverse_transport,
    split_apply,
    split_witness,
    validate_split_spec,
    verify_sse_witness,
)
from ssekit import search
from ssekit.corpus import random_edge_function, random_graph, random_split_spec
from ssekit.graphs import _count_matrix, canonical_key, canonical_key_of_counts
from ssekit.splits import (
    _build_split,
    _first_classes,
    _vector_partitions,
    split_counts,
    vector_split_spec,
    vector_splits,
    widest_split_vertex_count,
)
from labelled_splits import enumerate_split_specs, set_partitions, split_vertex_count


# -- validation -----------------------------------------------------------------


def test_validate_loop_feed(loop_feed):
    g, _, spec = loop_feed
    report = validate_split_spec(g, spec)
    assert report.valid


def test_validate_fan(fan):
    g, _, spec = fan
    report = validate_split_spec(g, spec)
    assert report.valid


def test_validate_overlap(loop_feed):
    g, _, _ = loop_feed
    overlap = SplitSpec("insplit", {"v": (("a", "b"), ("b",))})
    report = validate_split_spec(g, overlap)
    assert not report.valid
    assert any("appears in classes" in v for v in report.violations)


def test_validate_missing_and_foreign_edges(loop_feed):
    g, _, _ = loop_feed
    report = validate_split_spec(g, SplitSpec("insplit", {"v": (("a",),)}))
    assert any("miss edges" in v for v in report.violations)
    report = validate_split_spec(g, SplitSpec("insplit", {"v": (("a", "b", "zz"),)}))
    assert any("foreign edges" in v for v in report.violations)


def test_validate_unknown_vertex(loop_feed):
    g, _, spec = loop_feed
    report = validate_split_spec(g, SplitSpec("insplit", {**spec.parts, "zz": (("a",),)}))
    assert "spec maps unknown vertex 'zz'" in report.violations


def test_validate_mapped_source(loop_feed):
    g, _, _ = loop_feed
    report = validate_split_spec(
        g, SplitSpec("insplit", {"v": (("a",), ("b",)), "w": ((),)})
    )
    assert any("must stay unpartitioned" in v for v in report.violations)


def test_validate_unmapped_required(fan):
    g, _, _ = fan
    report = validate_split_spec(g, SplitSpec("outsplit", {"x": (("c",), ("d",))}))
    assert any("'w' must be partitioned" in v for v in report.violations)


def test_validate_outsplit_source_stays_whole(fork):
    # w is a source with two outgoing edges in this variant; it must stay unmapped
    g = DirectedMultigraph(
        ("w", "x", "y"), (Edge("e", "w", "x"), Edge("f", "w", "y"), Edge("l", "x", "x"))
    )
    ok = SplitSpec("outsplit", {"x": (("l",),)})
    assert validate_split_spec(g, ok).valid
    bad = SplitSpec("outsplit", {"x": (("l",),), "w": (("e",), ("f",))})
    report = validate_split_spec(g, bad)
    assert any("'w' must stay unpartitioned" in v for v in report.violations)


def test_spec_kind_checked():
    with pytest.raises(GraphError, match="kind"):
        SplitSpec("sideways", {})


# -- insplit --------------------------------------------------------------------


def test_insplit_loop_feed_exact(loop_feed):
    g, _, spec = loop_feed
    app = split_apply(g, spec)
    assert app.graph.vertices == ("v~1", "v~2", "w~")
    assert [(e.id, e.src, e.rng) for e in app.graph.edges] == [
        ("a~1", "v~1", "v~1"),
        ("a~2", "v~2", "v~1"),
        ("b~", "w~", "v~2"),
    ]
    assert app.vertex_origin == {"v~1": ("v", 1), "v~2": ("v", 2), "w~": ("w", None)}
    assert app.edge_origin == {"a~1": ("a", 1), "a~2": ("a", 2), "b~": ("b", None)}


def test_insplit_trivial_is_isomorphic(fork):
    g = fork[0]
    trivial = SplitSpec(
        "insplit", {v: ((tuple(e.id for e in g.in_edges(v)),)) for v in g.vertices if g.in_edges(v)}
    )
    app = split_apply(g, trivial)
    assert is_isomorphic(g, app.graph) is not None


def test_insplit_single_edge_fiber_split_is_trivial(fork):
    g = fork[0]
    # x receives only e; "splitting" its one-edge fiber changes nothing up to iso
    spec = SplitSpec(
        "insplit",
        {"x": (("e",),), "y": (("f",),), "z": (("g",),)},
    )
    app = split_apply(g, spec)
    assert is_isomorphic(g, app.graph) is not None


def test_insplit_invalid_spec_raises(loop_feed):
    g, _, _ = loop_feed
    with pytest.raises(SplitSpecError, match="invalid split spec"):
        split_apply(g, SplitSpec("insplit", {"v": (("a",),)}))


def test_insplit_witness_loop_feed(loop_feed):
    g, _, spec = loop_feed
    bundle = split_witness(g, spec)
    assert bundle.witness.e3.vertices == ("v", "w", "v~1", "v~2", "w~")
    blue = {(e.src, e.rng) for e in bundle.witness.e3.edges if e.id in bundle.witness.e21}
    red = {(e.src, e.rng) for e in bundle.witness.e3.edges if e.id in bundle.witness.e12}
    assert blue == {("v", "v~1"), ("w", "v~2")}
    assert red == {("v~1", "v"), ("v~2", "v"), ("w~", "w")}
    assert verify_sse_witness(g, bundle.e2, bundle.witness).passed


def test_insplit_witness_trivial(fork):
    g = fork[0]
    trivial = SplitSpec(
        "insplit", {v: ((tuple(e.id for e in g.in_edges(v)),)) for v in g.vertices if g.in_edges(v)}
    )
    bundle = split_witness(g, trivial)
    assert verify_sse_witness(g, bundle.e2, bundle.witness).passed


def test_insplit_witness_source_condition_exercised(fork):
    # fork's w is a source; its barred copy is the only source of the
    # intermediate graph and satisfies the source condition
    g = fork[0]
    spec = SplitSpec("insplit", {"x": (("e",),), "y": (("f",),), "z": (("g",),)})
    bundle = split_witness(g, spec)
    e3 = bundle.witness.e3
    sources = [v for v in e3.vertices if not e3.in_edges(v)]
    assert sources == ["w~"]
    report = verify_sse_witness(g, bundle.e2, bundle.witness)
    assert report.passed


def test_insplit_witness_implied_graph_matches(loop_feed):
    g, _, spec = loop_feed
    bundle = split_witness(g, spec)
    assert bundle.witness.implied_graph1() == g
    assert bundle.witness.implied_graph2() == bundle.e2


def test_insplit_transport(loop_feed):
    g, f, spec = loop_feed
    _, g2 = push_forward(split_witness(g, spec).witness, f, "e21")
    assert {eid: g2(eid) for eid in g2.graph.edge_ids()} == {"a~1": 1, "a~2": 1, "b~": 2}


def test_insplit_transport_zero(loop_feed):
    g, _, spec = loop_feed
    h, g2 = push_forward(split_witness(g, spec).witness, EdgeFunction.zero(g), "e21")
    assert all(g2(eid) == 0 for eid in g2.graph.edge_ids())
    assert all(h(eid) == 0 for eid in h.graph.edge_ids())


def test_split_transport_agrees_with_weights_route():
    """``push_forward`` through the phi2 class (e21 for an insplit, e12 for
    an outsplit) on seeded split witnesses, against the split weight rule
    read off the split itself: every edge copy inherits its original's
    weight, and h is f on the phi2 edges and 0 on every other witness edge."""
    rng = random.Random(61)
    for _ in range(60):
        g = random_graph(rng, max_vertices=5, max_edges=10)
        f = random_edge_function(rng, g)
        for kind, side in (("insplit", "e21"), ("outsplit", "e12")):
            bundle = split_witness(g, random_split_spec(rng, g, kind, 3))
            h, g2 = push_forward(bundle.witness, f, side)
            edge_origin = bundle.application.edge_origin
            assert dict(g2.weights) == {c: f(origin) for c, (origin, _) in edge_origin.items()}
            on_phi2 = {eta: f(e) for e, eta in bundle.phi2.items()}
            assert dict(h.weights) == {eta: on_phi2.get(eta, 0) for eta in bundle.witness.e3.edge_ids()}
            assert set(on_phi2) == set(getattr(bundle.witness, side))


# -- reverse transport -------------------------------------------------------------


def test_reverse_transport_obstruction(funnel):
    g, spec = funnel
    app = split_apply(g, spec)
    weights = {eid: 0 for eid in app.graph.edge_ids()}
    weights["e~1"], weights["e~2"] = 0, 1
    result = reverse_transport(g, spec, EdgeFunction(app.graph, weights))
    assert not result.found
    assert result.obstructions[0][0] == "e"
    assert result.obstructions[0][1] == {"e~1": 0, "e~2": 1}


def test_reverse_transport_rejects_g2_on_another_graph(funnel, loop_feed):
    g, spec = funnel
    with pytest.raises(GraphError) as exc:
        reverse_transport(g, spec, loop_feed[1])
    assert str(exc.value) == "g2 is not a weight map on the insplit of this graph"


def test_reverse_transport_round_trip(funnel):
    g, spec = funnel
    f = EdgeFunction(g, {"wy": 5, "xy": -2, "e": 7})
    _, g2 = push_forward(split_witness(g, spec).witness, f, "e21")
    result = reverse_transport(g, spec, g2)
    assert result.found
    assert {e: result.f(e) for e in g.edge_ids()} == {"wy": 5, "xy": -2, "e": 7}


def test_reverse_transport_random_copy_constant():
    rng = random.Random(93)
    done = 0
    while done < 25:
        g = random_graph(rng, max_vertices=4, max_edges=6)
        if not g.edges:
            continue
        spec = random_split_spec(rng, g, "insplit", 3)
        f = random_edge_function(rng, g)
        _, g2 = push_forward(split_witness(g, spec).witness, f, "e21")
        result = reverse_transport(g, spec, g2)
        assert result.found
        assert {e: result.f(e) for e in g.edge_ids()} == {e: f(e) for e in g.edge_ids()}
        done += 1


def test_reverse_transport_outsplit_round_trip(fan):
    g, _, spec = fan
    app = split_apply(g, spec)
    equal = {"a^1": 1, "b^1": 2, "b^2": 2, "c^": 3, "d^": 4}
    result = reverse_transport(g, spec, EdgeFunction(app.graph, equal))
    assert result.found
    assert {e: result.f(e) for e in g.edge_ids()} == {"a": 1, "b": 2, "c": 3, "d": 4}
    _, back = push_forward(split_witness(g, spec).witness, result.f, "e12")
    assert dict(back.weights) == equal


def test_reverse_transport_outsplit_obstructions(two_loops):
    g = two_loops[0]
    spec = SplitSpec("outsplit", {"v": (("p",), ("q",))})
    app = split_apply(g, spec)
    weights = {"p^1": 0, "p^2": 1, "q^1": 5, "q^2": -5}
    result = reverse_transport(g, spec, EdgeFunction(app.graph, weights))
    assert not result.found
    assert result.obstructions == [("p", {"p^1": 0, "p^2": 1}), ("q", {"q^1": 5, "q^2": -5})]


# -- outsplit -----------------------------------------------------------------------


def test_outsplit_fan_exact(fan):
    g, _, spec = fan
    app = split_apply(g, spec)
    assert app.graph.vertices == ("w^1", "x^1", "x^2", "y^", "z^")
    assert [(e.id, e.src, e.rng) for e in app.graph.edges] == [
        ("a^1", "w^1", "w^1"),
        ("b^1", "w^1", "x^1"),
        ("b^2", "w^1", "x^2"),
        ("c^", "x^1", "y^"),
        ("d^", "x^2", "z^"),
    ]


def test_outsplit_trivial_isomorphic(fan):
    g, _, _ = fan
    trivial = SplitSpec(
        "outsplit",
        {
            v: ((tuple(e.id for e in g.out_edges(v)),))
            for v in g.vertices
            if g.out_edges(v) and g.in_edges(v)
        },
    )
    app = split_apply(g, trivial)
    assert is_isomorphic(g, app.graph) is not None


def test_outsplit_trivial_random_round_trip():
    rng = random.Random(31)
    done = 0
    while done < 20:
        g = random_graph(rng, max_vertices=5, max_edges=9)
        trivial = SplitSpec(
            "outsplit",
            {
                v: ((tuple(e.id for e in g.out_edges(v)),))
                for v in g.vertices
                if g.out_edges(v) and g.in_edges(v)
            },
        )
        app = split_apply(g, trivial)
        assert is_isomorphic(g, app.graph) is not None
        done += 1


def test_outsplit_witness_fan_matches_figure(fan):
    g, _, spec = fan
    bundle = split_witness(g, spec)
    blue = {(e.src, e.rng) for e in bundle.witness.e3.edges if e.id in bundle.witness.e21}
    red = {(e.src, e.rng) for e in bundle.witness.e3.edges if e.id in bundle.witness.e12}
    assert blue == {("w", "w^1"), ("x", "x^1"), ("x", "x^2"), ("y", "y^"), ("z", "z^")}
    assert red == {("w^1", "w"), ("w^1", "x"), ("x^1", "y"), ("x^2", "z")}
    assert verify_sse_witness(g, bundle.e2, bundle.witness).passed


def test_outsplit_witness_trivial(fan):
    g, _, _ = fan
    trivial = SplitSpec(
        "outsplit",
        {
            v: ((tuple(e.id for e in g.out_edges(v)),))
            for v in g.vertices
            if g.out_edges(v) and g.in_edges(v)
        },
    )
    bundle = split_witness(g, trivial)
    assert verify_sse_witness(g, bundle.e2, bundle.witness).passed


def test_outsplit_transport_fan(fan):
    g, f, spec = fan
    bundle = split_witness(g, spec)
    h, g2 = push_forward(bundle.witness, f, "e12")
    assert {eid: g2(eid) for eid in g2.graph.edge_ids()} == {
        "a^1": 1,
        "b^1": 2,
        "b^2": 2,
        "c^": 3,
        "d^": 4,
    }
    reds = [h(eid) for eid in bundle.witness.e12]
    blues = [h(eid) for eid in bundle.witness.e21]
    assert sorted(reds) == [1, 2, 3, 4] and set(blues) == {0}


def test_outsplit_transport_zero(fan):
    g, _, spec = fan
    h, g2 = push_forward(split_witness(g, spec).witness, EdgeFunction.zero(g), "e12")
    assert all(g2(e) == 0 for e in g2.graph.edge_ids())
    assert all(h(e) == 0 for e in h.graph.edge_ids())


# -- counting and invariants ----------------------------------------------------------


def _count_check(g, spec, app):
    if spec.kind == "insplit":
        expected_edges = sum(max(spec.m(e.src), 1) for e in g.edges)
    else:
        expected_edges = sum(max(spec.m(e.rng), 1) for e in g.edges)
    assert len(app.graph.vertices) == split_vertex_count(g, spec)
    assert len(app.graph.edges) == expected_edges


def test_split_counts_random():
    rng = random.Random(77)
    done = 0
    while done < 30:
        g = random_graph(rng, max_vertices=6, max_edges=12)
        if not g.edges:
            continue
        ispec = random_split_spec(rng, g, "insplit", 3)
        _count_check(g, ispec, split_apply(g, ispec))
        ospec = random_split_spec(rng, g, "outsplit", 3)
        _count_check(g, ospec, split_apply(g, ospec))
        done += 1


def test_split_trace_invariance():
    rng = random.Random(101)
    done = 0
    while done < 20:
        g = random_graph(rng, max_vertices=5, max_edges=10)
        if not g.edges:
            continue
        a = adjacency_matrix(g)
        for build in (
            lambda: split_apply(g, random_split_spec(rng, g, "insplit", 3)),
            lambda: split_apply(g, random_split_spec(rng, g, "outsplit", 3)),
        ):
            b = adjacency_matrix(build().graph)
            for n in range(1, 7):
                assert a.power(n).trace() == b.power(n).trace()
        done += 1


def _check_split_witnesses(rng, g) -> set[str]:
    """A random insplit and outsplit witness of g verify; phi2 is the e21
    class of the insplit and the e12 class of the outsplit, phi1 is the
    other class, and theta1 of each edge of g holds its phi2 edge.  Returns
    the split graphs' unindexed vertex copies."""
    unindexed = set()
    for insplit, bundle in (
        (True, split_witness(g, random_split_spec(rng, g, "insplit", 3))),
        (False, split_witness(g, random_split_spec(rng, g, "outsplit", 3))),
    ):
        w = bundle.witness
        assert verify_sse_witness(g, bundle.e2, w).passed
        phi2_class, phi1_class = (w.e21, w.e12) if insplit else (w.e12, w.e21)
        assert tuple(bundle.phi2) == g.edge_ids() and set(bundle.phi2.values()) == set(phi2_class)
        assert tuple(bundle.phi1) == bundle.e2.vertices and set(bundle.phi1.values()) == set(phi1_class)
        assert all(bundle.phi2[e.id] in w.theta1[e.id] for e in g.edges)
        unindexed.update(x for x in bundle.e2.vertices if x.endswith(("~", "^")))
    return unindexed


def test_random_split_witnesses_verify():
    # Seeded random graphs, then the split corpus, whose sources, sinks and
    # isolated vertices stay whole as the unindexed copies v~ and v^.
    rng = random.Random(55)
    done = 0
    while done < 30:
        g = random_graph(rng, max_vertices=6, max_edges=12)
        if g.edges:
            _check_split_witnesses(rng, g)
            done += 1
    unindexed = set().union(*(_check_split_witnesses(rng, g) for g in _split_corpus()))
    assert {x[-1] for x in unindexed} == {"~", "^"}


def _split_corpus() -> list[DirectedMultigraph]:
    """Seeded small graphs that between them have sources, sinks, isolated
    vertices and parallel edges."""
    rng = random.Random(403)
    graphs = [random_graph(rng, max_vertices=4, max_edges=6) for _ in range(60)]
    ins = [{v for v in g.vertices if g.in_edges(v)} for g in graphs]
    outs = [{v for v in g.vertices if g.out_edges(v)} for g in graphs]
    assert any(o - i for i, o in zip(ins, outs))  # a source that emits
    assert any(i - o for i, o in zip(ins, outs))  # a sink that receives
    assert any(set(g.vertices) - i - o for g, i, o in zip(graphs, ins, outs))
    assert any(len({(e.src, e.rng) for e in g.edges}) < len(g.edges) for g in graphs)
    return graphs


def _moves(g, max_parts, max_vertices=math.inf):
    return list(vector_splits(g, max_parts, max_vertices))


def _built(g, kind, parts):
    spec = vector_split_spec(g, kind, parts)
    return spec, _build_split(g, spec).graph


def test_enumerate_split_specs_all_valid(loop_feed):
    g, _, _ = loop_feed
    moves = _moves(g, 2)
    kinds = {k for k, _ in moves}
    assert kinds == {"insplit", "outsplit"}
    # r^{-1}(v) = {a, b} gives two insplit partitions; v is the only
    # splittable vertex either way
    assert sum(1 for k, _ in moves if k == "insplit") == 2
    # The chain search builds the labelled specs of its moves only for the
    # states it expands or prints, without validating them again or comparing
    # their trace profiles with the parent's.
    for h in [g] + _split_corpus():
        a = adjacency_matrix(h)
        traces = [a.power(n).trace() for n in range(1, 5)]
        for max_parts in (2, 3):
            for kind, parts in _moves(h, max_parts):
                spec, child = _built(h, kind, parts)
                assert validate_split_spec(h, spec).valid
                b = adjacency_matrix(child)
                assert [b.power(n).trace() for n in range(1, 5)] == traces


def test_vector_splits_are_the_first_labelled_specs(loop_feed, two_loops):
    # One move per class of labelled specs with the same class count vectors
    # at every vertex, in the order of each class's first labelled spec, and
    # standing for that spec: so the first move to reach a child is the first
    # labelled spec to reach it, and printed legs do not change.
    def vectors(h, spec):
        far = {e.id: (e.src if spec.kind == "insplit" else e.rng) for e in h.edges}
        return spec.kind, tuple(
            (v, tuple(sorted(tuple(sum(far[e] == w for e in cls) for w in h.vertices) for cls in classes)))
            for v, classes in spec.parts.items()
        )

    seen_moves = 0
    for h in [loop_feed[0], two_loops[0], two_loops[2]] + _split_corpus():
        for max_parts in (1, 2, 3):
            first: dict = {}
            for _, spec in enumerate_split_specs(h, max_parts):
                first.setdefault(vectors(h, spec), spec)
            got = [vector_split_spec(h, kind, parts) for kind, parts in _moves(h, max_parts)]
            assert got == list(first.values())
            seen_moves += len(got)
    assert seen_moves > 700


def test_bounded_enumeration_is_the_filtered_enumeration(loop_feed):
    # The vertex bound is applied inside the product: what comes out must be
    # exactly the unbounded moves that fit, in the same order (the first move
    # to reach a key decides the legs a chain search prints).
    checked = 0
    # an edgeless root has no vertex to partition: its one (identity) move
    # per kind keeps every vertex, and is over the bound below |V|
    edgeless = DirectedMultigraph(("u", "v"), ())
    for g in [loop_feed[0], edgeless] + _split_corpus():
        n = len(g.vertices)
        for max_parts in (2, 3):
            moves = _moves(g, max_parts)
            sizes = [n - len(parts) + sum(map(len, parts.values())) for _, parts in moves]
            for (kind, parts), size in zip(moves, sizes):
                assert size == split_vertex_count(g, vector_split_spec(g, kind, parts))
            for bound in range(1, len(g.vertices) + 4):
                assert _moves(g, max_parts, bound) == [mv for mv, size in zip(moves, sizes) if size <= bound]
                over = any(size > bound for size in sizes)
                assert (widest_split_vertex_count(_count_matrix(g), max_parts) > bound) == over
                checked += 1
    assert checked > 500


def test_split_counts_match_the_built_graph(loop_feed, two_loops):
    # The chain search keys each child from split_counts' matrix and builds
    # the labelled graph only for the states it expands or prints; both must
    # describe the same graph.
    moves_seen = 0
    for g in [loop_feed[0], two_loops[0], two_loops[2]] + _split_corpus():
        for max_parts in (2, 3):
            for kind, parts in _moves(g, max_parts):
                _, child = _built(g, kind, parts)
                m = split_counts(_count_matrix(g), kind, parts)
                assert [list(row) for row in m] == _count_matrix(child)
                assert canonical_key_of_counts(m) == canonical_key(child)
                moves_seen += 1
    assert moves_seen > 600


def test_expanded_states_count_in_their_graphs_vertex_order():
    # vector_splits reads vertex positions off an expanded state's labelled
    # graph, and split_counts indexes the state's count matrix with them: the
    # two must share one vertex order.  Williams' pair, then the split corpus.
    williams = [graph_from_matrix(NonnegIntMatrix.from_entries(m)) for m in ([[1, 3], [2, 1]], [[1, 6], [1, 1]])]
    expanded = 0
    for g, max_vertices in [(h, 4) for h in williams] + [(h, 5) for h in _split_corpus()]:
        side = search._SearchSide(g, max_vertices, 2)
        side.expand_to(2)
        for layer in side.layers[:-1]:
            for key in layer:
                state = side.states[key]
                assert _count_matrix(state.graph) == [list(row) for row in state.counts]
                expanded += 1
    assert expanded > 200


def test_each_layer_grows_the_vertex_count(two_loops, two_loops_composite):
    # The chain search skips a depth pair whose layers cannot share a vertex
    # count, bounding the unexpanded layers by this: a state first reached
    # at depth d has more vertices than its parent, which is in layer d - 1,
    # so it has at least |V_root| + d.  The vertex bound leaves room for
    # three such steps.
    states = 0
    for g in [two_loops[0], two_loops[1], two_loops_composite] + _split_corpus():
        root = len(g.vertices)
        side = search._SearchSide(g, root + 3, 2)
        side.expand_to(3)
        for depth in range(1, 4):
            above = set(side.layers[depth - 1])
            for key in side.layers[depth]:
                n, parent = key[0], side.states[key].parent
                assert parent in above
                assert n > parent[0] and n >= root + depth
                states += 1
    assert states > 25_000


def test_vector_partitions_are_the_first_set_partitions():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # A fiber's far ends in edge order: few distinct ends, so many parallel edges.
    @hypothesis.settings(max_examples=200)
    @hypothesis.given(st.lists(st.integers(0, 3), max_size=8), st.integers(1, 3))
    def check(far, max_parts):
        first: dict = {}
        for partition in set_partitions(range(len(far)), max_parts):
            classes = tuple(tuple(sum(far[i] == t for i in cls) for t in range(4)) for cls in partition)
            first.setdefault(tuple(sorted(classes)), (classes, partition))
        got = _vector_partitions(far, 4, max_parts)
        assert got == [classes for classes, _ in first.values()]
        for classes, partition in first.values():
            labels = [next(k for k, cls in enumerate(partition) if i in cls) for i in range(len(far))]
            assert _first_classes(far, classes) == labels

    check()


def test_id_collision_handling():
    # a graph already containing the id an insplit would generate
    g = DirectedMultigraph(
        ("v", "v~1"), (Edge("a", "v", "v"), Edge("b", "v~1", "v"))
    )
    spec = SplitSpec("insplit", {"v": (("a",), ("b",))})
    app = split_apply(g, spec)
    assert len(set(app.graph.vertices)) == len(app.graph.vertices)
    bundle = split_witness(g, spec)
    assert verify_sse_witness(g, bundle.e2, bundle.witness).passed
