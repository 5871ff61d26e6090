import collections
import itertools
import json
import pickle
import random
import re
import sys

import pytest

import ssekit
from ssekit import (
    DirectedMultigraph,
    Edge,
    EdgeFunction,
    EssePair,
    GraphError,
    GraphFormatError,
    NonnegIntMatrix,
    SplitSpec,
    adjacency_matrix,
    canonical_key,
    classify_vertices,
    graph_from_matrix,
    is_isomorphic,
    parse_graph,
    parse_graph_with_weights,
    paths_between,
    periodic_point_profile,
    serialize_graph,
    to_dot,
)
from ssekit.corpus import random_graph
from ssekit.graphs import _chain, _json_text, graph_from_json_obj
from ssekit.sse import witness_from_json_obj


# -- parsing and serialization ------------------------------------------------


def test_parse_fork_e1(fork):
    e1, _, _, _ = fork
    text = serialize_graph(e1)
    parsed = parse_graph(text)
    assert parsed.vertices == ("w", "x", "y", "z")
    assert len(parsed.edges) == 3
    assert parsed == e1


def test_parse_preserves_order():
    text = json.dumps(
        {
            "vertices": ["b", "a"],
            "edges": [{"id": "y", "src": "a", "rng": "b"}, {"id": "x", "src": "b", "rng": "a"}],
        }
    )
    g = parse_graph(text)
    assert g.vertices == ("b", "a")
    assert g.edge_ids() == ("y", "x")


def test_parse_empty_graph():
    g = parse_graph('{"vertices": [], "edges": []}')
    assert g.vertices == () and g.edges == ()


def test_parse_dangling_reference():
    text = json.dumps({"vertices": ["v"], "edges": [{"id": "e", "src": "v", "rng": "q"}]})
    with pytest.raises(GraphFormatError, match="edges\\[0\\].*unknown rng 'q'"):
        parse_graph(text)


def test_parse_duplicate_ids():
    with pytest.raises(GraphFormatError, match="duplicate vertex"):
        parse_graph('{"vertices": ["v", "v"], "edges": []}')
    text = json.dumps(
        {
            "vertices": ["v"],
            "edges": [
                {"id": "e", "src": "v", "rng": "v"},
                {"id": "e", "src": "v", "rng": "v"},
            ],
        }
    )
    with pytest.raises(GraphFormatError, match="duplicate edge id"):
        parse_graph(text)


def test_parse_malformed():
    with pytest.raises(GraphFormatError, match="invalid JSON"):
        parse_graph("{nope")
    with pytest.raises(GraphFormatError, match='"vertices"'):
        parse_graph('{"edges": []}')
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # json.loads raises a bare ValueError past the integer digit limit
        with pytest.raises(GraphFormatError, match="integer literal too long"):
            parse_graph('{"vertices": [' + "9" * (limit + 1) + '], "edges": []}')


def _witness_obj(theta1):
    return {
        "e3": {"vertices": [], "edges": []},
        **{key: [] for key in ("side1", "side2", "e21", "e12")},
        "vmap1": {},
        "vmap2": {},
        "theta1": theta1,
        "theta2": {},
    }


_E = {"id": "e", "src": "v", "rng": "v"}


@pytest.mark.parametrize(
    "parse, obj, message",
    [
        (graph_from_json_obj, {"vertices": ["v"], "edges": [_E, ["f", "v", "v"]]}, "edges[1]: must be an object"),
        (graph_from_json_obj, {"vertices": ["v"], "edges": [_E, {"src": "v", "rng": "v"}]}, 'edges[1]: needs a string "id"'),
        (graph_from_json_obj, {"vertices": ["v"], "edges": [_E, {"id": "f", "src": 1, "rng": "v"}]}, 'edges[1]: needs a string "src"'),
        (graph_from_json_obj, {"vertices": ["v"], "edges": [dict(_E, weight=1), dict(_E, id="f", weight=True)]}, "edges[1]: weight must be an integer"),
        (graph_from_json_obj, {"vertices": ["v"], "edges": [dict(_E, weight=1), dict(_E, id="f", weight=1.0)]}, "edges[1]: weight must be an integer"),
        (graph_from_json_obj, {"vertices": ["v"], "edges": [dict(_E, weight=1), dict(_E, id="f")]}, "1 of 2 edges carry weights; weight either all edges or none"),
        # the first faulty record is named, whatever a later one breaks
        (graph_from_json_obj, {"vertices": ["v"], "edges": [dict(_E, weight=None), {"id": "f"}]}, "edges[0]: weight must be an integer"),
        (graph_from_json_obj, {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "rng": "q"}, _E, _E]}, "edges[0] ('e'): unknown rng 'q'"),
        (graph_from_json_obj, {"vertices": ["v", "v"], "edges": [_E]}, "duplicate vertex id 'v'"),
        (graph_from_json_obj, {"vertices": ["v"], "edges": [_E, _E]}, "edges[1]: duplicate edge id 'e'"),
        (graph_from_json_obj, {"vertices": ["v", 1], "edges": []}, '"vertices" must be a list of strings'),
        (witness_from_json_obj, _witness_obj({"e": ["a", "b", "c"]}), '"theta1" values must be pairs of edge ids'),
        (witness_from_json_obj, _witness_obj({"e": ["a", 1]}), '"theta1" values must be pairs of edge ids'),
        (witness_from_json_obj, _witness_obj({"e": "ab"}), '"theta1" values must be pairs of edge ids'),
    ],
)
def test_format_error_messages(parse, obj, message):
    with pytest.raises(GraphFormatError) as exc:
        parse(obj)
    assert str(exc.value) == message


def test_graph_record_errors():
    with pytest.raises(GraphError) as exc:
        DirectedMultigraph(("v", 1), ())
    assert str(exc.value) == "vertex id 1 is not a string"
    with pytest.raises(GraphError) as exc:
        DirectedMultigraph(("v",), (Edge("e", "v", "v"), Edge("e", "v", "w"), Edge("f", "w", "v")))
    assert str(exc.value) == "edges[1]: duplicate edge id 'e'"
    with pytest.raises(GraphError) as exc:
        DirectedMultigraph(("v",), (Edge("e", "v", "v"), Edge("f", "w", "v"), Edge("f", "v", "v")))
    assert str(exc.value) == "edges[1] ('f'): unknown src 'w'"


def test_edge_is_a_named_tuple():
    e = Edge("e", "v", "w")
    assert e == ("e", "v", "w") and hash(e) == hash(("e", "v", "w"))
    assert repr(e) == "Edge(id='e', src='v', rng='w')"
    assert (e.id, e.src, e.rng) == tuple(e)


def _loop():
    return DirectedMultigraph(("v",), (Edge("e", "v", "v"),))


def _one():
    return NonnegIntMatrix.from_entries([[1]])


@pytest.mark.parametrize(
    "make, hashable, invalid, message",
    [
        (lambda: Edge("e", "v", "w"), True, None, None),
        (_loop, True, lambda: DirectedMultigraph(("v", "w", "v"), ()), "duplicate vertex id 'v'"),
        (_one, True, None, None),
        (lambda: EdgeFunction(_loop(), {"e": 2}), False, None, None),
        (lambda: SplitSpec("insplit", {"v": (("e",),)}), False, None, None),
        (lambda: EssePair(_one(), _one(), _one(), _one()), True,
         lambda: EssePair(NonnegIntMatrix.from_entries([[1, 1]]), _one(), _one(), _one()), "A and B must be square"),
        (lambda: EssePair(_one(), _one(), _one(), _one()), True,
         lambda: EssePair(_one(), _one(), _one(), NonnegIntMatrix.from_entries([[1, 1]])), "S must be 1x1, got 1x2"),
        (lambda: periodic_point_profile(_loop(), 3), True, None, None),
    ],
    ids=["Edge", "DirectedMultigraph", "NonnegIntMatrix", "EdgeFunction", "SplitSpec", "EssePair-A", "EssePair-S",
         "PeriodicPointProfile"],
)
def test_value_type_contract(make, hashable, invalid, message):
    """Values built from equal inputs are equal, hash alike unless a field
    is a dict, reject assignment, print as a constructor call and survive a
    pickle round trip; constructors validate."""
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    name = type(a)._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert eval(repr(a), vars(ssekit)) == a
    assert pickle.loads(pickle.dumps(a)) == a
    if invalid is not None:
        with pytest.raises(GraphError) as exc:
            invalid()
        assert str(exc.value) == message


def test_json_text_matches_json_dumps():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    awkward = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é", "\u2028", "\ud800", "\udfff", "😀"])
    text = st.text(st.one_of(awkward, st.characters()), max_size=6)
    ints = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))
    scalars = st.one_of(text, ints, st.booleans(), st.none(), st.floats())
    values = st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(text, inner, max_size=4),
            st.dictionaries(scalars, inner, max_size=3),
        ),
        max_leaves=20,
    )

    @hypothesis.settings(max_examples=200)
    @hypothesis.given(values)
    def check(value):
        assert _json_text(value) == json.dumps(value, indent=2)

    check()


def test_weights_round_trip(loop_feed):
    g, f, _ = loop_feed
    parsed, fn = parse_graph_with_weights(serialize_graph(g, f))
    assert fn is not None
    assert {e: fn(e) for e in parsed.edge_ids()} == {"a": 1, "b": 2}


def test_partial_weights_rejected():
    text = json.dumps(
        {
            "vertices": ["v"],
            "edges": [
                {"id": "e", "src": "v", "rng": "v", "weight": 1},
                {"id": "f", "src": "v", "rng": "v"},
            ],
        }
    )
    with pytest.raises(GraphFormatError, match="all edges or none"):
        parse_graph_with_weights(text)


# -- classify -----------------------------------------------------------------


def test_classify_fork(fork):
    e1, _, _, _ = fork
    sources, sinks = classify_vertices(e1)
    assert sources == ("w",)
    assert set(sinks) == {"y", "z"}


def test_classify_two_loops(two_loops):
    e1 = two_loops[0]
    assert classify_vertices(e1) == ((), ())


def test_classify_isolated_vertex():
    g = DirectedMultigraph(("v",), ())
    assert classify_vertices(g) == (("v",), ("v",))


# -- paths --------------------------------------------------------------------


def test_paths_between_fork_e3(fork):
    _, _, e3, _ = fork
    side1 = ("w", "x", "y", "z")
    paths = paths_between(e3, 2, side1, side1)
    assert paths == [
        ("W>x", "w>W"),
        ("X1>y", "x>X1"),
        ("X2>z", "x>X2"),
    ]
    for first, second in paths:
        assert e3.edge(second).src in side1 and e3.edge(first).rng in side1
    with pytest.raises(GraphError, match="unknown vertex id 'nope'"):
        paths_between(e3, 2, side1, ("w", "nope"))


def test_paths_length_zero(fork):
    e1, _, _, _ = fork
    with pytest.raises(GraphError, match="at least 1"):
        paths_between(e1, 0)


def test_paths_two_loops_e3_brute_force(two_loops):
    _, _, e3, _, _, _ = two_loops
    got = set(paths_between(e3, 2, ("V1", "V2"), ("V1", "V2")))
    expected = set()
    for first, second in itertools.product(e3.edges, repeat=2):
        if first.src != second.rng:
            continue
        if second.src in ("V1", "V2") and first.rng in ("V1", "V2"):
            expected.add((first.id, second.id))
    assert got == expected
    assert len(got) == 4


def test_paths_between_matches_brute_force_in_order():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 4))
        vertices = tuple(f"v{i}" for i in range(n))
        # Up to 7 edges with any ends (loops and parallel edges included), ids
        # permuted so that edge order and id order differ.
        ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), max_size=7))
        ids = draw(st.permutations([f"e{i}" for i in range(len(ends))]))
        g = DirectedMultigraph(vertices, tuple(Edge(i, s, r) for i, (s, r) in zip(ids, ends)))
        subset = st.one_of(st.none(), st.lists(st.sampled_from(vertices), unique=True))
        return g, draw(st.integers(1, 3)), draw(subset), draw(subset)

    @hypothesis.settings(max_examples=100)
    @hypothesis.given(cases())
    def check(case):
        g, length, frm, to = case
        got = paths_between(g, length, frm, to)
        frm = set(g.vertices if frm is None else frm)
        to = set(g.vertices if to is None else to)
        expected = sorted(
            tuple(e.id for e in seq)
            for seq in itertools.product(g.edges, repeat=length)
            if all(a.src == b.rng for a, b in zip(seq, seq[1:]))
            and seq[0].rng in to
            and seq[-1].src in frm
        )
        assert got == expected

    check()


def test_path_chaining_validated(fork):
    e1, _, _, _ = fork
    with pytest.raises(GraphError, match="do not chain"):
        _chain(e1, ("e", "f"))  # s(e)=w != r(f)=y
    with pytest.raises(GraphError, match="at least one edge"):
        _chain(e1, ())
    assert _chain(e1, ("f", "e")) == ("w", "y")


def test_paths_count_matches_matrix_power():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, max_vertices=4, max_edges=6)
        a = adjacency_matrix(g)
        for n in range(1, 6):
            assert len(paths_between(g, n)) == a.power(n).total()


# -- adjacency and matrices ----------------------------------------------------


def test_adjacency_two_loops(two_loops):
    e1, e2 = two_loops[0], two_loops[1]
    assert adjacency_matrix(e1).entries == ((2,),)
    assert adjacency_matrix(e2).entries == ((1, 1), (1, 1))


def test_adjacency_no_edges():
    g = DirectedMultigraph(("u", "v"), ())
    assert adjacency_matrix(g).entries == ((0, 0), (0, 0))


def test_adjacency_row_is_range():
    g = DirectedMultigraph(("u", "v"), (Edge("e", "u", "v"),))
    a = adjacency_matrix(g)
    assert a.entries == ((0, 0), (1, 0))  # row v, column u


def test_adjacency_matches_dict_count_reference():
    rng = random.Random(23)
    parallel = 0
    for _ in range(80):
        g = random_graph(rng, max_vertices=6, max_edges=16, min_vertices=2)
        counts = collections.Counter((e.rng, e.src) for e in g.edges)
        parallel += any(c > 1 for c in counts.values())
        a = adjacency_matrix(g)
        assert (a.rows, a.cols) == (g.vertices, g.vertices)
        assert a.entries == tuple(tuple(counts[(v, w)] for w in g.vertices) for v in g.vertices)
    assert parallel > 20


def test_graph_from_matrix_two_loops():
    g = graph_from_matrix(NonnegIntMatrix.from_entries([[2]]))
    assert len(g.vertices) == 1 and len(g.edges) == 2
    assert all(e.src == e.rng for e in g.edges)


def test_graph_from_matrix_isolated():
    g = graph_from_matrix(NonnegIntMatrix.from_entries([[0]]))
    assert len(g.vertices) == 1 and g.edges == ()


def test_matrix_graph_round_trip_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        entries = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        a = NonnegIntMatrix.from_entries(entries)
        assert adjacency_matrix(graph_from_matrix(a)) == a
    for n in range(1, 7):
        a = NonnegIntMatrix.from_entries([[(i + j) % 3 for j in range(n)] for i in range(n)])
        assert adjacency_matrix(graph_from_matrix(a)) == a


def test_matrix_validation():
    with pytest.raises(GraphError, match="negative"):
        NonnegIntMatrix.from_entries([[-1]])
    with pytest.raises(GraphError, match="columns"):
        NonnegIntMatrix.from_entries([[1, 2], [3]])


# -- the exact trace kernel -----------------------------------------------------


def _random_matrix(rng, nrows, ncols, density):
    return NonnegIntMatrix(
        tuple(f"r{i}" for i in range(nrows)),
        tuple(f"c{j}" for j in range(ncols)),
        tuple(
            tuple(rng.randint(1, 4) if rng.random() < density else 0 for _ in range(ncols))
            for _ in range(nrows)
        ),
    )


def test_matmul_matches_naive_triple_loop():
    rng = random.Random(23)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(1, 6) for _ in range(3)) for _ in range(80)]
    zero_rows = zero_cols = all_zero = 0
    for p, q, r in shapes:
        for density in (0.0, 0.3, 1.0):
            a = _random_matrix(rng, p, q, density)
            b = _random_matrix(rng, q, r, rng.choice((0.0, 0.3, 1.0)))
            naive = tuple(
                tuple(sum(a.entries[i][l] * b.entries[l][j] for l in range(q)) for j in range(r))
                for i in range(p)
            )
            prod = a.matmul(b)
            assert prod.entries == naive
            assert prod.rows == a.rows and prod.cols == b.cols
            zero_rows += sum(1 for row in a.entries if q and not any(row))
            zero_cols += sum(1 for col in zip(*b.entries) if q and not any(col))
            all_zero += p * q > 0 and a.total() == 0
    assert zero_rows and zero_cols and all_zero
    with pytest.raises(GraphError, match="cannot multiply"):
        _random_matrix(rng, 2, 3, 0.5).matmul(_random_matrix(rng, 2, 3, 0.5))


def test_power_traces_match_powers(fork, loop_feed, fan, two_loops, funnel):
    rng = random.Random(29)
    graphs = [*fork[:3], loop_feed[0], fan[0], *two_loops[:3], funnel[0]]
    matrices = [adjacency_matrix(g) for g in graphs]
    matrices += [_random_matrix(rng, v, v, d) for v in range(6) for d in (0.2, 0.5, 1.0)]
    for a in matrices:
        for n in range(10):
            assert a.power_traces(n) == tuple(a.power(j).trace() for j in range(1, n + 1))


def test_power_traces_builds_half_the_powers(monkeypatch):
    calls = []
    matmul = NonnegIntMatrix.matmul

    def counting(self, other):
        calls.append(other)
        return matmul(self, other)

    monkeypatch.setattr(NonnegIntMatrix, "matmul", counting)
    a = NonnegIntMatrix.from_entries([[1, 1, 0], [1, 0, 1], [1, 0, 2]])
    for n in range(1, 10):
        calls.clear()
        a.power_traces(n)
        assert len(calls) == (n + 1) // 2 - 1


def test_power_traces_arguments():
    assert NonnegIntMatrix.from_entries([[3]]).power_traces(0) == ()
    assert NonnegIntMatrix((), (), ()).power_traces(3) == (0, 0, 0)
    with pytest.raises(GraphError, match="square"):
        NonnegIntMatrix.from_entries([[1, 2]]).power_traces(2)
    with pytest.raises(GraphError, match="n_max"):
        NonnegIntMatrix.from_entries([[1]]).power_traces(-1)


# -- edge functions ------------------------------------------------------------


def test_edge_function_total_domain(loop_feed):
    g, _, _ = loop_feed
    with pytest.raises(GraphError, match="misses edges"):
        EdgeFunction(g, {"a": 1})
    with pytest.raises(GraphError, match="unknown edges"):
        EdgeFunction(g, {"a": 1, "b": 2, "zz": 0})


# -- isomorphism -----------------------------------------------------------------


def _brute_force_isomorphic(g1, g2):
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    counts2 = {}
    for e in g2.edges:
        counts2[(e.src, e.rng)] = counts2.get((e.src, e.rng), 0) + 1
    for perm in itertools.permutations(g2.vertices):
        sigma = dict(zip(g1.vertices, perm))
        counts1 = {}
        for e in g1.edges:
            counts1[(sigma[e.src], sigma[e.rng])] = counts1.get((sigma[e.src], sigma[e.rng]), 0) + 1
        if counts1 == counts2:
            return True
    return False


def _assert_preserves_ends(g1, g2, iso):
    """``iso`` is a bijection on vertices and on edges that keeps src and rng."""
    assert sorted(iso.vertex_map) == sorted(g1.vertices)
    assert sorted(iso.vertex_map.values()) == sorted(g2.vertices)
    assert sorted(iso.edge_map) == sorted(g1.edge_ids())
    assert sorted(iso.edge_map.values()) == sorted(g2.edge_ids())
    for eid, target in iso.edge_map.items():
        e, t = g1.edge(eid), g2.edge(target)
        assert iso.vertex_map[e.src] == t.src and iso.vertex_map[e.rng] == t.rng


def _relabeled(g, rng):
    """``g`` under a random vertex permutation, with new edge ids, both
    lists shuffled."""
    perm = list(g.vertices)
    rng.shuffle(perm)
    sigma = dict(zip(g.vertices, perm))
    edges = [Edge(f"r{e.id}", sigma[e.src], sigma[e.rng]) for e in g.edges]
    rng.shuffle(edges)
    rng.shuffle(perm)
    return DirectedMultigraph(tuple(perm), tuple(edges))


def _graph(n, ends):
    return DirectedMultigraph(
        tuple(f"v{i}" for i in range(n)),
        tuple(Edge(f"e{k}", f"v{s}", f"v{r}") for k, (s, r) in enumerate(ends)),
    )


def test_isomorphic_identity(fork):
    e1, _, _, _ = fork
    iso = is_isomorphic(e1, e1)
    assert iso is not None
    assert iso.vertex_map == {v: v for v in e1.vertices}
    assert iso.edge_map == {e: e for e in e1.edge_ids()}


def test_isomorphic_size_mismatch(fork):
    e1, e2, _, _ = fork
    assert is_isomorphic(e1, e2) is None


def test_isomorphic_two_loops_vs_matrix(two_loops):
    e2 = two_loops[1]
    other = graph_from_matrix(NonnegIntMatrix.from_entries([[1, 1], [1, 1]]))
    iso = is_isomorphic(e2, other)
    assert iso is not None
    for eid, target in iso.edge_map.items():
        e, t = e2.edge(eid), other.edge(target)
        assert iso.vertex_map[e.src] == t.src and iso.vertex_map[e.rng] == t.rng


def test_isomorphism_random_corpus_vs_brute_force():
    rng = random.Random(23)
    corpus = [random_graph(rng, max_vertices=7, max_edges=14) for _ in range(30)]
    for g in corpus:  # reflexive
        assert is_isomorphic(g, g) is not None
    for g1, g2 in itertools.combinations(corpus[:16], 2):  # symmetric
        assert (is_isomorphic(g1, g2) is None) == (is_isomorphic(g2, g1) is None)
    small = [random_graph(rng, max_vertices=5, max_edges=8) for _ in range(14)]
    for g1, g2 in itertools.combinations(small, 2):
        expected = _brute_force_isomorphic(g1, g2)
        assert (is_isomorphic(g1, g2) is not None) == expected
        assert (canonical_key(g1) == canonical_key(g2)) == expected


def test_isomorphic_relabeled_random():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, max_vertices=7, max_edges=14)
        perm = list(g.vertices)
        rng.shuffle(perm)
        sigma = dict(zip(g.vertices, perm))
        relabeled = DirectedMultigraph(
            tuple(perm),
            tuple(Edge(f"r{e.id}", sigma[e.src], sigma[e.rng]) for e in g.edges),
        )
        iso = is_isomorphic(g, relabeled)
        assert iso is not None
        _assert_preserves_ends(g, relabeled, iso)
        assert canonical_key(g) == canonical_key(relabeled)


def test_canonical_labelling_vs_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    corpus = [
        _graph(9, [(i, i) for i in range(9)]),  # nine isolated loops
        _graph(20, [(rng.randrange(20), rng.randrange(20)) for _ in range(33)]),
        _graph(6, [(i, i) for i in range(6) for _ in range(i % 3 + 1)]),  # multi-loops
        _graph(12, [(i, (i + 1) % 4) for i in range(4)] + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
               + [(8 + i, 8 + (i + 1) % 4) for i in range(4)]),  # three 4-cycles
        _graph(12, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 7) for i in range(7)]),
    ]
    for _ in range(40):
        n = rng.randint(1, 20)
        corpus.append(_graph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]))

    def to_nx(g):
        h = nx.MultiDiGraph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from((e.src, e.rng) for e in g.edges)
        return h

    for g in corpus:
        relabeled = _relabeled(g, rng)
        assert nx.is_isomorphic(to_nx(g), to_nx(relabeled))
        assert canonical_key(g) == canonical_key(relabeled)
        iso = is_isomorphic(g, relabeled)
        assert iso is not None
        _assert_preserves_ends(g, relabeled, iso)
        # moving one edge may or may not give an isomorphic graph
        if g.edges:
            ends = [(int(e.src[1:]), int(e.rng[1:])) for e in g.edges]
            n = len(g.vertices)
            ends[rng.randrange(len(ends))] = (rng.randrange(n), rng.randrange(n))
            moved = _relabeled(_graph(n, ends), rng)
            expected = nx.is_isomorphic(to_nx(g), to_nx(moved))
            assert (canonical_key(g) == canonical_key(moved)) == expected
            iso = is_isomorphic(g, moved)
            assert (iso is not None) == expected
            if iso is not None:
                _assert_preserves_ends(g, moved, iso)


def _disjoint(*components):
    """The disjoint union of graphs given as (vertex count, ends) pairs."""
    n, ends = 0, []
    for size, part in components:
        ends += [(n + s, n + r) for s, r in part]
        n += size
    return _graph(n, ends)


def _cycle(c, multiplicity=1):
    return c, [(i, (i + 1) % c) for i in range(c) for _ in range(multiplicity)]


def _loops(j):
    return 1, [(0, 0)] * j


def test_canonical_key_of_many_isolated_loops():
    # Every permutation is an automorphism here; the search must not walk
    # the orbits of the 80! leaves (this took seconds, growing as k^3.5).
    rng = random.Random(80)
    g = _relabeled(_disjoint(*[_loops(1)] * 80), rng)
    assert canonical_key(g) == (80, *[int(i == j) for i in range(80) for j in range(80)])
    iso = is_isomorphic(g, _relabeled(g, rng))
    assert iso is not None
    assert all(iso.vertex_map[e.src] == iso.vertex_map[e.rng] for e in g.edges)


def test_canonical_key_symmetric_graphs_vs_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(12)
    # disjoint cycles and multi-loop copies, with look-alikes of the same
    # vertex count, edge count and degrees that are not isomorphic
    corpus = [_disjoint(*[_cycle(c, mult)] * k) for c in (1, 2, 3, 4) for k in (1, 2, 3, 6) for mult in (1, 2)]
    corpus += [
        _disjoint(_cycle(6)),
        _disjoint(_cycle(4), _cycle(2)),
        _disjoint(*[_cycle(3)] * 4),
        _disjoint(*[_cycle(4)] * 3),
        _disjoint(*[_cycle(6)] * 2),
        _disjoint(_cycle(12)),
        _disjoint(*[_loops(2)] * 3, *[_loops(1)] * 3),
        _disjoint(*[_loops(3)] * 3, *[_loops(0)] * 3),
        _disjoint(*[_loops(1)] * 9),
        _disjoint(*[_loops(1)] * 8, _loops(0), _loops(2)),
        _disjoint(*[_cycle(3)] * 3, *[_loops(1)] * 3),
        _disjoint(*[_cycle(3)] * 2, *[_loops(1)] * 6),
    ]
    corpus = [_relabeled(g, rng) for g in corpus]

    def to_nx(g):
        h = nx.MultiDiGraph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from((e.src, e.rng) for e in g.edges)
        return h

    pairs = 0
    for g in corpus:
        copy = _relabeled(g, rng)
        assert canonical_key(g) == canonical_key(copy)
        _assert_preserves_ends(g, copy, is_isomorphic(g, copy))
        for h in corpus:
            if (len(g.vertices), len(g.edges)) != (len(h.vertices), len(h.edges)):
                continue
            expected = nx.is_isomorphic(to_nx(g), to_nx(h))
            assert (canonical_key(g) == canonical_key(h)) == expected
            iso = is_isomorphic(g, h)
            assert (iso is not None) == expected
            if iso is not None:
                _assert_preserves_ends(g, h, iso)
            pairs += not expected
    assert pairs > 20  # look-alikes that are not isomorphic


def test_canonical_key_distinguishes():
    g1 = graph_from_matrix(NonnegIntMatrix.from_entries([[2]]))
    g2 = graph_from_matrix(NonnegIntMatrix.from_entries([[3]]))
    assert canonical_key(g1) != canonical_key(g2)


# -- misc -----------------------------------------------------------------------


def test_dot_export(loop_feed):
    g, f, _ = loop_feed
    dot = to_dot(g, weights=f)
    assert dot.startswith("digraph {")
    assert '"w" -> "v" [label="b:2"];' in dot


def test_dot_export_quotes_every_id():
    """Each DOT line splits into balanced quoted strings with no quote or
    backslash between them, and each string unescapes to its id or label."""
    ids = ['a"b', "c\\d", "e\\", '"', "\\", "plain"]
    g = DirectedMultigraph(tuple(ids), tuple(Edge(v + ">" + u, v, u) for v, u in zip(ids, ids[1:] + ids[:1])))
    quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
    found = []
    for line in to_dot(g, weights=EdgeFunction.zero(g)).splitlines():
        between = quoted.sub("", line)
        assert '"' not in between and "\\" not in between, line
        found += [re.sub(r"\\(.)", r"\1", text) for text in quoted.findall(line)]
    assert found == ids + [x for e in g.edges for x in (e.src, e.rng, f"{e.id}:0")]
