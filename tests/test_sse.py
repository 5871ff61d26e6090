import hashlib
import itertools
import json
import random
import re

import pytest

from ssekit import (
    DirectedMultigraph,
    Edge,
    EssePair,
    GraphError,
    NonnegIntMatrix,
    SseWitness,
    WitnessConstructionError,
    WitnessReferenceError,
    adjacency_matrix,
    canonical_key,
    find_theta_bijections,
    is_isomorphic,
    matrix_essse_search,
    matrix_essse_verify,
    parse_witness,
    paths_between,
    periodic_point_profile,
    sse_chain_search,
    verify_sse_witness,
    witness_from_essse,
    witness_to_json_obj,
)
from ssekit import search
from ssekit.splits import _build_split, split_apply
from ssekit.sse import _least_solution
from labelled_splits import enumerate_split_specs, split_vertex_count


# -- witness verification -----------------------------------------------------


def test_fork_witness_passes(fork):
    e1, e2, _, w = fork
    report = verify_sse_witness(e1, e2, w)
    assert report.passed
    assert report.to_json_obj()["condition4"] is True


def test_fork_condition3_dangles_without_first_blue_edge(fork):
    e1, e2, e3, w = fork
    stripped = DirectedMultigraph(e3.vertices, tuple(e for e in e3.edges if e.id != "w>W"))
    broken = SseWitness(
        stripped,
        w.side1,
        w.side2,
        tuple(x for x in w.e21 if x != "w>W"),
        w.e12,
        w.vmap1,
        w.vmap2,
        w.theta1,
        w.theta2,
    )
    report = verify_sse_witness(e1, e2, broken)
    assert not report.theta_bijections_ok
    assert any("dangles" in p for p in report.problems["condition3"])


def test_two_loops_witness_passes_condition4_vacuous(two_loops):
    e1, e2, e3, w, _, _ = two_loops
    report = verify_sse_witness(e1, e2, w)
    assert report.passed
    assert all(e3.in_edges(v) for v in e3.vertices)  # no sources: condition 4 vacuous


def test_witness_reference_errors(fork):
    e1, e2, _, w = fork
    bad = SseWitness(
        w.e3, w.side1, w.side2, w.e21, w.e12, w.vmap1, w.vmap2,
        dict(w.theta1, zz=("W>x", "w>W")), w.theta2,
    )
    with pytest.raises(WitnessReferenceError, match="theta1"):
        verify_sse_witness(e1, e2, bad)


def test_witness_side_partition_failures(fork):
    e1, e2, _, w = fork
    overlapping = SseWitness(
        w.e3, w.side1 + ("W",), w.side2, w.e21, w.e12, w.vmap1, w.vmap2, w.theta1, w.theta2
    )
    report = verify_sse_witness(e1, e2, overlapping)
    assert not report.vertex_partition_ok

    misclassed = SseWitness(
        w.e3, w.side1, w.side2, w.e12, w.e21, w.vmap1, w.vmap2, w.theta1, w.theta2
    )
    report = verify_sse_witness(e1, e2, misclassed)
    assert not report.edge_bipartition_ok


def test_condition4_catches_bad_source():
    empty = DirectedMultigraph((), ())

    def report(e3):
        return verify_sse_witness(empty, empty, SseWitness(e3, (), (), (), (), {}, {}, {}, {}))

    # source u's unique edge shares its range with another edge
    shared = report(DirectedMultigraph(("u", "w", "V"), (Edge("u>V", "u", "V"), Edge("w>V", "w", "V"))))
    assert not shared.source_condition_ok
    assert any("is not the only edge" in p for p in shared.problems["condition4"])

    # source u emits two edges
    fanout = report(DirectedMultigraph(("u", "V", "W"), (Edge("u>V", "u", "V"), Edge("u>W", "u", "W"))))
    assert not fanout.source_condition_ok
    assert any("emits 2 edges" in p for p in fanout.problems["condition4"])


def test_witness_serialization_round_trip(fork):
    e1, e2, _, w = fork
    text = json.dumps(witness_to_json_obj(w))
    again = parse_witness(text)
    assert again == w
    assert verify_sse_witness(e1, e2, again).passed


def test_implied_graphs(two_loops):
    e1, e2, _, w, _, _ = two_loops
    assert w.implied_graph1() == e1
    assert w.implied_graph2() == e2


# -- theta search ---------------------------------------------------------------


def test_find_theta_fork(fork):
    e1, e2, e3, w = fork
    found = find_theta_bijections(e1, e2, e3, w.side1, w.side2, w.e21, w.e12, w.vmap1, w.vmap2)
    assert found is not None
    theta1, theta2 = found
    assert theta1 == dict(w.theta1)
    assert theta2 == dict(w.theta2)


def test_find_theta_two_loops_canonical(two_loops):
    e1, e2, e3, w, _, _ = two_loops
    found = find_theta_bijections(e1, e2, e3, w.side1, w.side2, w.e21, w.e12, w.vmap1, w.vmap2)
    assert found is not None
    theta1, theta2 = found
    # brute-force fiber oracle: every fiber has exactly one candidate pairing
    # except theta1's, where lexicographic pairing fixes (p, q) -> (ca, db)
    assert theta1 == {"p": ("c", "a"), "q": ("d", "b")}
    assert theta2 == dict(w.theta2)
    plugged = SseWitness(e3, w.side1, w.side2, w.e21, w.e12, w.vmap1, w.vmap2, theta1, theta2)
    assert verify_sse_witness(e1, e2, plugged).theta_bijections_ok


def test_find_theta_fiber_mismatch(fork):
    e1, e2, e3, w = fork
    stripped = DirectedMultigraph(e3.vertices, tuple(e for e in e3.edges if e.id != "X1>y"))
    found = find_theta_bijections(
        e1, e2, stripped, w.side1, w.side2, w.e21, tuple(x for x in w.e12 if x != "X1>y"),
        w.vmap1, w.vmap2,
    )
    assert found is None


def test_find_theta_precondition(fork):
    e1, e2, e3, w = fork
    with pytest.raises(GraphError, match="partition conditions"):
        find_theta_bijections(e1, e2, e3, w.side1[:-1], w.side2, w.e21, w.e12, w.vmap1, w.vmap2)


def _stray_key_sides():
    """One loop on each side, an intermediate 2-cycle plus an isolated z, and a
    vmap1 key ``zz`` that names no vertex of e1."""
    e1 = DirectedMultigraph(("a",), (Edge("l", "a", "a"),))
    e2 = DirectedMultigraph(("b",), (Edge("m", "b", "b"),))
    e3 = DirectedMultigraph(("x", "y", "z"), (Edge("p", "x", "y"), Edge("q", "y", "x")))
    return e1, e2, e3, ("x", "z"), ("y",), ("p",), ("q",), {"a": "x", "zz": "z"}, {"b": "y"}


def test_find_theta_rejects_vmap_keys_outside_the_outer_graphs():
    e1, e2, e3, side1, side2, e21, e12, vmap1, vmap2 = _stray_key_sides()
    with pytest.raises(WitnessReferenceError, match="vmap1 keyed by unknown side-1 vertex 'zz'"):
        find_theta_bijections(e1, e2, e3, side1, side2, e21, e12, vmap1, vmap2)
    with pytest.raises(WitnessReferenceError, match="vmap2 keyed by unknown side-2 vertex 'bb'"):
        find_theta_bijections(e1, e2, e3, side1, side2, e21, e12, {"a": "x"}, {"b": "y", "bb": "z"})
    # the stray key was what made vmap1 onto its side; without z the sides hold
    cycle = DirectedMultigraph(("x", "y"), e3.edges)
    assert find_theta_bijections(e1, e2, cycle, ("x",), side2, e21, e12, {"a": "x"}, vmap2) is not None


# -- matrix formulation -----------------------------------------------------------


def _mat(entries, rows=None, cols=None):
    return NonnegIntMatrix.from_entries(entries, rows, cols)


def test_matrix_verify_two_loops():
    pair = EssePair(_mat([[2]]), _mat([[1, 1], [1, 1]]), _mat([[1, 1]]), _mat([[1], [1]]))
    assert matrix_essse_verify(pair)


def test_matrix_verify_identity():
    pair = EssePair(_mat([[1]]), _mat([[1]]), _mat([[1]]), _mat([[1]]))
    assert matrix_essse_verify(pair)


def test_matrix_verify_false():
    pair = EssePair(_mat([[2]]), _mat([[1, 0], [0, 1]]), _mat([[1, 1]]), _mat([[1], [1]]))
    assert not matrix_essse_verify(pair)


def test_matrix_dimension_mismatch():
    with pytest.raises(GraphError, match="R must be"):
        EssePair(_mat([[2]]), _mat([[1, 1], [1, 1]]), _mat([[1]]), _mat([[1], [1]]))


def test_witness_from_essse_two_loops(two_loops):
    e1_fixture, e2_fixture = two_loops[0], two_loops[1]
    pair = EssePair(_mat([[2]]), _mat([[1, 1], [1, 1]]), _mat([[1, 1]]), _mat([[1], [1]]))
    bundle = witness_from_essse(pair)
    assert verify_sse_witness(bundle.e1, bundle.e2, bundle.witness).passed
    assert is_isomorphic(bundle.e1, e1_fixture) is not None
    assert is_isomorphic(bundle.e2, e2_fixture) is not None


def test_witness_from_essse_identity():
    pair = EssePair(_mat([[1]]), _mat([[1]]), _mat([[1]]), _mat([[1]]))
    bundle = witness_from_essse(pair)
    assert len(bundle.witness.e3.vertices) == 2 and len(bundle.witness.e3.edges) == 2
    assert verify_sse_witness(bundle.e1, bundle.e2, bundle.witness).passed


def test_witness_from_essse_zero_row_condition4():
    # the second id holds a quote, which repr() wraps in double quotes
    for offender in ("1", "x'y"):
        a = _mat([[1, 1], [0, 0]], rows=["0", offender], cols=["0", offender])
        r = _mat([[1], [0]], rows=["0", offender], cols=["k"])
        s = _mat([[1, 1]], rows=["k"], cols=["0", offender])
        b = _mat([[1]], rows=["k"], cols=["k"])
        assert matrix_essse_verify(EssePair(a, b, r, s))
        with pytest.raises(WitnessConstructionError) as exc_info:
            witness_from_essse(EssePair(a, b, r, s))
        exc = exc_info.value
        assert exc.vertex == offender
        eta = f"e21:{offender}:k:1"
        assert str(exc) == (
            f"source condition fails: source {offender!r}: "
            f"its edge {eta!r} is not the only edge into 'k'"
        )
        report = verify_sse_witness(exc.bundle.e1, exc.bundle.e2, exc.bundle.witness)
        assert not report.source_condition_ok
        assert report.vertex_partition_ok and report.edge_bipartition_ok and report.theta_bijections_ok


def test_witness_from_essse_requires_verified():
    pair = EssePair(_mat([[2]]), _mat([[1, 0], [0, 1]]), _mat([[1, 1]]), _mat([[1], [1]]))
    with pytest.raises(GraphError, match="do not satisfy"):
        witness_from_essse(pair)


def test_matrix_search_two_loops():
    found = matrix_essse_search(_mat([[2]]), _mat([[1, 1], [1, 1]]), 1)
    assert found is not None
    r, s = found
    assert r.entries == ((1, 1),)
    assert s.entries == ((1,), (1,))


def test_matrix_search_identity():
    found = matrix_essse_search(_mat([[1]]), _mat([[1]]), 1)
    assert found is not None
    assert found[0].entries == ((1,),) and found[1].entries == ((1,),)


def test_matrix_search_absent_trace_mismatch():
    assert matrix_essse_search(_mat([[2]]), _mat([[3]]), 3) is None


def test_matrix_search_default_bound():
    found = matrix_essse_search(_mat([[2]]), _mat([[1, 1], [1, 1]]))
    assert found is not None


def test_matrix_search_result_always_verifies():
    rng = random.Random(17)
    hits = 0
    for _ in range(60):
        n, k = rng.randint(1, 2), rng.randint(1, 2)
        a = _mat([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
        b = _mat([[rng.randint(0, 2) for _ in range(k)] for _ in range(k)])
        found = matrix_essse_search(a, b, 2)
        if found is not None:
            hits += 1
            assert matrix_essse_verify(EssePair(a, b, found[0], found[1]))
            # SSE forces equal traces of all powers
            for n_pow in range(1, 7):
                assert a.power(n_pow).trace() == b.power(n_pow).trace()
    assert hits > 0
    empty = _mat([])
    for k in range(3):
        for flat in itertools.product(range(2), repeat=k * k):
            b = _mat([list(flat[i * k : (i + 1) * k]) for i in range(k)])
            for a, bb in ((empty, b), (b, empty)):
                found = matrix_essse_search(a, bb, 2)
                assert (found is not None) == (b.total() == 0)
                if found is not None:
                    assert matrix_essse_verify(EssePair(a, bb, found[0], found[1]))


def test_matrix_search_found_pairs_verify_as_witnesses():
    # every "found" becomes a graph witness that verify_sse_witness accepts,
    # also after a JSON round trip; a factorization with a source breaking
    # condition 4 is refused by name and fails that condition alone
    rng = random.Random(23)
    passed = source_failures = 0
    for _ in range(80):
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        if rng.random() < 0.5:
            r = _mat([[rng.randint(0, 2) for _ in range(k)] for _ in range(n)])
            s = _mat([[rng.randint(0, 2) for _ in range(n)] for _ in range(k)])
            a, b = r.matmul(s), s.matmul(r)
        else:
            a = _mat([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
            b = _mat([[rng.randint(0, 2) for _ in range(k)] for _ in range(k)])
        found = matrix_essse_search(a, b, 2)
        if found is None:
            continue
        try:
            bundle = witness_from_essse(EssePair(a, b, *found))
        except WitnessConstructionError as exc:
            report = verify_sse_witness(exc.bundle.e1, exc.bundle.e2, exc.bundle.witness)
            assert report.vertex_partition_ok and report.edge_bipartition_ok and report.theta_bijections_ok
            assert not report.source_condition_ok
            source_failures += 1
            continue
        assert verify_sse_witness(bundle.e1, bundle.e2, bundle.witness).passed
        parsed = parse_witness(json.dumps(witness_to_json_obj(bundle.witness)))
        assert verify_sse_witness(bundle.e1, bundle.e2, parsed).passed
        passed += 1
    assert passed >= 15 and source_failures > 0


def test_matrix_search_agrees_with_unpruned_brute_force():
    def brute(a, b, m):
        n, k = a.nrows, b.nrows
        ss = [
            _mat([list(s_flat[t * n : (t + 1) * n]) for t in range(k)], rows=b.rows, cols=a.rows)
            for s_flat in itertools.product(range(m + 1), repeat=k * n)
        ]
        for r_flat in itertools.product(range(m + 1), repeat=n * k):
            r = _mat([list(r_flat[i * k : (i + 1) * k]) for i in range(n)],
                     rows=a.rows, cols=b.rows)
            for s in ss:
                if matrix_essse_verify(EssePair(a, b, r, s)):
                    return r, s
        return None

    def agree(a, b, m):
        expected = brute(a, b, m)
        got = matrix_essse_search(a, b, m)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got[0] == expected[0] and got[1] == expected[1]
        return got is not None

    twos = [_mat([list(f[:2]), list(f[2:])]) for f in itertools.product(range(2), repeat=4)]
    for a in twos:
        for b_flat in itertools.product(range(2), repeat=1):
            agree(a, _mat([[b_flat[0]]]), 1)

    def det(x):
        (p, q), (r, s) = x.entries
        return p * s - q * r

    # equal traces, unequal determinants: tr(A^2) differs, so never found
    unequal = [(a, b) for a in twos for b in twos if a.trace() == b.trace() and det(a) != det(b)]
    assert len(unequal) > 20
    assert not any(agree(a, b, 1) for a, b in unequal)
    # 1x1 against 2x2, both ways round
    found = sum(agree(_mat([[x]]), b, 2) + agree(b, _mat([[x]]), 2) for x in range(3) for b in twos)
    assert found > 4
    # equal traces and determinants: the only 2x2 pairs that reach the R search
    similar = [(a, b) for a in twos for b in twos if a.trace() == b.trace() and det(a) == det(b)]
    found = [agree(a, b, m) for m in (1, 2) for a, b in similar]
    assert len(found) == 120 and 0 < found.count(False) < len(found)
    # planted pairs A = R*S, B = S*R from 0/1 factors, 2x3 and 3x2 R
    rng = random.Random(5)
    for n, k in ((2, 3), (3, 2)) * 6:
        r = [[rng.randint(0, 1) for _ in range(k)] for _ in range(n)]
        s = [[rng.randint(0, 1) for _ in range(n)] for _ in range(k)]
        a = _mat(r).matmul(_mat(s))
        b = _mat(s).matmul(_mat(r))
        assert agree(a, b, 1)


def test_least_solution_walks_the_solutions_in_order():
    # The exact solver behind matrix-search, against brute force on small
    # mixed-sign systems, constant-only equations (0 = rhs) among them: an
    # accept that records and rejects every vector sees exactly the
    # solutions in lexicographic order, and one that takes the m-th stops
    # the walk there.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def systems(draw):
        # most right-hand sides fit a planted vector, so most systems have
        # solutions; the others are off by one
        size, bound = draw(st.integers(0, 4)), draw(st.integers(0, 2))
        planted = draw(st.lists(st.integers(0, bound), min_size=size, max_size=size))
        equations = []
        for _ in range(draw(st.integers(0, 4))):
            positions = sorted(draw(st.sets(st.integers(0, size - 1)))) if size else []
            terms = [(p, draw(st.integers(-3, 3).filter(bool))) for p in positions]
            rhs = sum(c * planted[p] for p, c in terms) + draw(st.sampled_from([0, 0, 0, 1, -1]))
            equations.append((terms, rhs))
        return size, bound, equations

    @hypothesis.settings(max_examples=200)
    @hypothesis.given(systems(), st.integers(0, 3))
    def check(system, m):
        size, bound, equations = system
        expected = [
            x
            for x in itertools.product(range(bound + 1), repeat=size)
            if all(sum(c * x[p] for p, c in terms) == rhs for terms, rhs in equations)
        ]
        seen = []
        assert _least_solution(size, bound, equations, lambda x: seen.append(tuple(x))) is None
        assert seen == expected
        seen.clear()
        def take_mth(x):
            seen.append(x)
            return tuple(x) if len(seen) > m else None

        assert _least_solution(size, bound, equations, take_mth) == (expected[m] if m < len(expected) else None)

    check()


def test_matrix_search_empty_a_needs_zero_b():
    empty = _mat([])
    assert matrix_essse_search(empty, _mat([[0, 1], [0, 0]])) is None
    zero = _mat([[0, 0], [0, 0]])
    r, s = matrix_essse_search(empty, zero)
    assert (r.nrows, r.ncols, s.nrows, s.ncols) == (0, 2, 2, 0)
    assert matrix_essse_verify(EssePair(empty, zero, r, s))


def test_matrix_search_refutes_before_enumerating():
    # tr(A) = tr(B) but tr(A^2) != tr(B^2): refuted before any of the
    # (10^20 + 1)^2 candidates for R is tried
    assert matrix_essse_search(_mat([[2]]), _mat([[1, 0], [0, 1]]), 10**20) is None


def test_matrix_search_argument_errors_come_before_refutation():
    # every pair below also has unequal traces
    with pytest.raises(GraphError, match="square"):
        matrix_essse_search(_mat([[1, 2]]), _mat([[5]]))
    with pytest.raises(GraphError, match="square"):
        matrix_essse_search(_mat([[5]]), _mat([[1, 2]]))
    with pytest.raises(GraphError, match="nonnegative"):
        matrix_essse_search(_mat([[2]]), _mat([[3]]), -1)


def _random_pairs(rng):
    """Seeded square pairs up to 3x3: random ones, and R*S against S*R."""
    for _ in range(150):
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        if rng.random() < 0.5:
            r = [[rng.randint(0, 2) for _ in range(k)] for _ in range(n)]
            s = [[rng.randint(0, 2) for _ in range(n)] for _ in range(k)]
            yield _mat(r).matmul(_mat(s)), _mat(s).matmul(_mat(r))
        else:
            yield (_mat([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]),
                   _mat([[rng.randint(0, 2) for _ in range(k)] for _ in range(k)]))


def test_power_trace_refutation_matches_nonzero_spectrum():
    # traces up to max(n, k) agree exactly when the characteristic
    # polynomials agree once their factors of x are removed
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def nonzero_charpoly(m):
        coeffs = sympy.Matrix(m.entries).charpoly(x).all_coeffs()
        while coeffs[-1] == 0:
            coeffs.pop()
        return coeffs

    agreements = 0
    for a, b in _random_pairs(random.Random(41)):
        same = a.power_traces(max(a.nrows, b.nrows)) == b.power_traces(max(a.nrows, b.nrows))
        assert same == (nonzero_charpoly(a) == nonzero_charpoly(b))
        agreements += same
    assert 50 < agreements < 150


def test_witness_from_random_factorizations():
    # random R, S define a verified pair via a = R*S, b = S*R; the bundle
    # must verify outright or fail exactly on the source condition
    rng = random.Random(71)
    passed = source_failures = 0
    for _ in range(40):
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        r = _mat([[rng.randint(0, 2) for _ in range(k)] for _ in range(n)])
        s = _mat(
            [[rng.randint(0, 2) for _ in range(n)] for _ in range(k)],
            rows=[f"b{i}" for i in range(k)],
            cols=[str(j) for j in range(n)],
        )
        r = NonnegIntMatrix(tuple(str(i) for i in range(n)), s.rows, r.entries)
        a = r.matmul(s)
        b = s.matmul(r)
        pair = EssePair(a, b, r, s)
        assert matrix_essse_verify(pair)
        try:
            bundle = witness_from_essse(pair)
        except WitnessConstructionError as exc:
            report = verify_sse_witness(exc.bundle.e1, exc.bundle.e2, exc.bundle.witness)
            assert not report.source_condition_ok
            source_failures += 1
            continue
        assert verify_sse_witness(bundle.e1, bundle.e2, bundle.witness).passed
        from ssekit import periodic_point_profile as ppp

        assert ppp(bundle.e1, 6).traces == ppp(bundle.e2, 6).traces
        passed += 1
    assert passed > 0


def _mutated_split_witnesses(count):
    """Seeded (e1, e2, witness) triples: a split witness of a small random
    graph broken by one to three random edits of its sides, edge classes,
    vertex maps, theta pairs or intermediate graph."""
    from ssekit.corpus import random_graph, random_split_spec
    from ssekit.splits import split_witness

    rng = random.Random(3030)

    def edit_list(items, other, stray):
        items = list(items)
        op = rng.randrange(4) if items else 2
        if op == 0:
            items.append(rng.choice(items))  # listed twice
        elif op == 1:
            items.remove(rng.choice(items))  # on neither list
        elif op == 2:
            items.append(stray)  # not in the intermediate graph
        elif other:
            items.append(rng.choice(other))  # on both lists
        return tuple(items)

    def edit(w):
        e3 = w.e3
        vertices, edge_ids = list(e3.vertices), list(e3.edge_ids())
        field = rng.choice(("side1", "side2", "e21", "e12", "vmap1", "vmap2", "theta1", "theta2", "e3"))
        if field in ("side1", "side2", "e21", "e12"):
            other = {"side1": "side2", "side2": "side1", "e21": "e12", "e12": "e21"}[field]
            stray = "ghost" if field.startswith("side") else "bogus"
            return w._replace(**{field: edit_list(getattr(w, field), getattr(w, other), stray)})
        if field.startswith("vmap"):
            vmap = dict(getattr(w, field))
            if vmap:
                key = rng.choice(sorted(vmap))
                if rng.random() < 0.5:
                    del vmap[key]
                else:
                    vmap[key] = rng.choice(vertices)
            return w._replace(**{field: vmap})
        if field.startswith("theta"):
            theta = dict(getattr(w, field))
            if theta:
                key = rng.choice(sorted(theta))
                op = rng.randrange(4)
                if op == 0:
                    del theta[key]
                elif op == 1:
                    theta[key] = theta[key][::-1]
                elif op == 2:
                    theta[key] = theta[rng.choice(sorted(theta))]
                else:
                    theta[key] = (theta[key][0], rng.choice(edge_ids + ["bogus"]))
            return w._replace(**{field: theta})
        op = rng.randrange(3)
        edges = list(e3.edges)
        if op == 0 and edges:
            edges.remove(rng.choice(edges))
        elif op == 1:
            edges.append(Edge(f"new{len(edges)}", rng.choice(vertices), rng.choice(vertices)))
        else:
            source = f"src{len(vertices)}"  # a source emitting no edge, or one
            vertices.append(source)
            if rng.random() < 0.5:
                edges.append(Edge(f"{source}>", source, rng.choice(vertices)))
        return w._replace(e3=DirectedMultigraph(tuple(vertices), tuple(edges)))

    for _ in range(count):
        g = random_graph(rng, 4, 6)
        bundle = split_witness(g, random_split_spec(rng, g, rng.choice(("insplit", "outsplit")), 2))
        w = bundle.witness
        for _ in range(rng.randint(1, 3)):
            w = edit(w)
        yield g, bundle.e2, w


def test_witness_checks_match_pinned_digest_on_mutated_split_witnesses():
    # The SHA-256 of sse-verify's JSON and theta-search's result or error
    # text on 3,000 mutated split witnesses (seed 3030), recorded on the
    # checker that wrote its four partition checks out once for the sides
    # and once for the edge classes.
    digest = hashlib.sha256()
    messages = set()
    theta_outcomes = set()
    for e1, e2, w in _mutated_split_witnesses(3000):
        report = verify_sse_witness(e1, e2, w)
        messages.update(
            (condition, re.sub(r"\[.*\]|'[^']*'|(?<= )\d+(?= )", "_", text))
            for condition, texts in report.problems.items()
            for text in texts
        )
        try:
            found = find_theta_bijections(e1, e2, w.e3, w.side1, w.side2, w.e21, w.e12, w.vmap1, w.vmap2)
        except GraphError as exc:
            theta = str(exc)
            theta_outcomes.add("error")
        else:
            theta = found
            theta_outcomes.add("absent" if found is None else "found")
        digest.update(json.dumps([report.to_json_obj(), theta]).encode() + b"\n")
    assert {text for condition, text in messages if condition in ("condition1", "condition2")} == {
        "a side lists a vertex twice",
        "sides overlap: _",
        "side members missing from the intermediate graph: _",
        "vertices on neither side: _",
        "vmap1 misses vertices: _",
        "vmap1 is not injective",
        "vmap1 is not onto its side",
        "vmap2 misses vertices: _",
        "vmap2 is not injective",
        "vmap2 is not onto its side",
        "an edge class lists an edge twice",
        "edge classes overlap: _",
        "class members missing from the intermediate graph: _",
        "edges in neither class: _",
        "e21 edge _ does not run side1 -> side2",
        "e12 edge _ does not run side2 -> side1",
    }
    assert {text for condition, text in messages if condition == "condition4"} == {
        "source _ emits _ edges instead of exactly one",
        "source _: its edge _ is not the only edge into _",
    }
    assert theta_outcomes == {"found", "absent", "error"}
    assert digest.hexdigest() == "3375ab517fe83d355dc4780282983fde410cf89a0a1bc916822dee9141211ce3"


def test_find_theta_on_random_split_witnesses():
    from ssekit.corpus import random_graph, random_split_spec
    from ssekit.splits import split_witness

    rng = random.Random(83)
    small = [random_graph(rng, max_vertices=5, max_edges=8) for _ in range(60)]
    vs = tuple(f"v{i}" for i in range(40))
    large = [
        DirectedMultigraph(vs, tuple(Edge(f"e{i}", rng.choice(vs), rng.choice(vs)) for i in range(400)))
        for _ in range(4)
    ]
    graphs = [g for g in small if g.edges][:40] + large
    for i, g in enumerate(graphs):
        bundle = split_witness(g, random_split_spec(rng, g, "outsplit" if i % 2 else "insplit", 3))
        w = bundle.witness
        assert verify_sse_witness(g, bundle.e2, w).passed
        assert len(paths_between(w.e3, 2, w.side1, w.side1)) == len(g.edges)
        assert len(paths_between(w.e3, 2, w.side2, w.side2)) == len(bundle.e2.edges)
        found = find_theta_bijections(
            g, bundle.e2, w.e3, w.side1, w.side2, w.e21, w.e12, w.vmap1, w.vmap2
        )
        assert found is not None
        rebuilt = SseWitness(
            w.e3, w.side1, w.side2, w.e21, w.e12, w.vmap1, w.vmap2, found[0], found[1]
        )
        assert verify_sse_witness(g, bundle.e2, rebuilt).theta_bijections_ok


# -- chain search ------------------------------------------------------------------


def test_chain_search_one_step_insplit(loop_feed):
    g, _, spec = loop_feed
    e2 = split_apply(g, spec).graph
    result = sse_chain_search(g, e2, max_steps=1)
    assert result.status == "found"
    assert result.total_steps == 1
    assert [s.move for s in result.steps_from_e1] == ["insplit"]
    assert result.steps_from_e2 == []
    assert canonical_key(result.steps_from_e1[0].graph) == canonical_key(e2)


def test_chain_search_zero_steps(fork):
    e1 = fork[0]
    result = sse_chain_search(e1, e1, max_steps=0)
    assert result.status == "found" and result.total_steps == 0


def test_chain_search_invariant_pruned():
    from ssekit import graph_from_matrix

    g1 = graph_from_matrix(_mat([[2]]))
    g0 = DirectedMultigraph(("u",), ())
    result = sse_chain_search(g1, g0, max_steps=3)
    assert result.status == "absent"
    assert result.reason == "invariant-mismatch"
    assert result.mismatch_period == 1


def test_chain_search_compares_traces_up_to_the_vertex_count():
    # tr(A^n) = 2^n + 5 [5 | n] against 2^n: the profiles first differ at
    # n = 5, so a comparison that stopped at period 4 would miss them.
    vertices = ("x",) + tuple(f"u{i}" for i in range(5))
    loops = (Edge("p", "x", "x"), Edge("q", "x", "x"))
    cycle = tuple(Edge(f"c{i}", f"u{i}", f"u{(i + 1) % 5}") for i in range(5))
    e1 = DirectedMultigraph(vertices, loops + cycle)
    e2 = DirectedMultigraph(vertices, loops)
    result = sse_chain_search(e1, e2, max_steps=1)
    assert (result.status, result.reason, result.mismatch_period) == ("absent", "invariant-mismatch", 5)


def test_chain_search_replays(two_loops):
    e1 = two_loops[0]
    from ssekit import SplitSpec

    mid = split_apply(e1, SplitSpec("insplit", {"v": (("p",), ("q",))})).graph
    far_spec = SplitSpec(
        "outsplit", {"v~1": (("p~1",), ("q~1",)), "v~2": (("p~2", "q~2"),)}
    )
    far = split_apply(mid, far_spec).graph
    result = sse_chain_search(e1, far)
    assert result.status == "found"
    assert result.total_steps == 2
    current = e1
    for step in result.steps_from_e1:
        app = split_apply(current, step.spec)
        assert app.graph == step.graph
        current = app.graph
    current2 = far
    for step in result.steps_from_e2:
        app = split_apply(current2, step.spec)
        assert app.graph == step.graph
        current2 = app.graph
    assert canonical_key(current) == canonical_key(current2)


def test_chain_search_absent_reasons(two_loops, fork):
    e1 = two_loops[0]  # trace profile [2, 4, 8, 16]
    other = DirectedMultigraph(
        ("u", "w"),
        (Edge("s", "u", "u"), Edge("t", "u", "w"), Edge("r", "w", "u"), Edge("l", "w", "w")),
    )
    # same profile up to 4? traces of [[1,1],[1,1]] are 2,4,8,16: yes
    assert periodic_point_profile(other, 4).traces == (2, 4, 8, 16)
    result = sse_chain_search(e1, other, max_steps=0)
    assert result.status == "absent"
    assert result.reason == "depth-bound-reached"


def _matrices_from_witness(e1, e2, w):
    """Count the witness' edge classes into the rectangular pair (R, S)."""

    def crossing(ids):
        count = {}
        for eid in ids:
            e = w.e3.edge(eid)
            count[(e.src, e.rng)] = count.get((e.src, e.rng), 0) + 1
        return count

    r_count = crossing(w.e12)
    s_count = crossing(w.e21)
    r = NonnegIntMatrix(
        tuple(e1.vertices),
        tuple(e2.vertices),
        tuple(
            tuple(r_count.get((w.vmap2[x], w.vmap1[v]), 0) for x in e2.vertices)
            for v in e1.vertices
        ),
    )
    s = NonnegIntMatrix(
        tuple(e2.vertices),
        tuple(e1.vertices),
        tuple(
            tuple(s_count.get((w.vmap1[v], w.vmap2[x]), 0) for v in e1.vertices)
            for x in e2.vertices
        ),
    )
    return EssePair(adjacency_matrix(e1), adjacency_matrix(e2), r, s)


def test_every_witness_induces_a_matrix_factorization(fork, two_loops):
    from ssekit.corpus import random_graph, random_split_spec
    from ssekit.splits import split_witness

    for e1, e2, _, w in (fork[:4], (two_loops[0], two_loops[1], two_loops[2], two_loops[3])):
        assert matrix_essse_verify(_matrices_from_witness(e1, e2, w))

    rng = random.Random(61)
    done = 0
    while done < 25:
        g = random_graph(rng, max_vertices=5, max_edges=9)
        if not g.edges:
            continue
        bundle = split_witness(g, random_split_spec(rng, g, "insplit" if done % 2 else "outsplit", 3))
        assert matrix_essse_verify(_matrices_from_witness(g, bundle.e2, bundle.witness))
        done += 1


def test_verifier_never_crashes_on_garbage_witnesses():
    # arbitrary sides/classes/thetas over valid outer keys must come back as
    # condition reports, not exceptions
    rng = random.Random(137)
    from ssekit.corpus import random_graph

    for _ in range(60):
        e1 = random_graph(rng, max_vertices=3, max_edges=4)
        e2 = random_graph(rng, max_vertices=3, max_edges=4)
        e3 = random_graph(rng, max_vertices=5, max_edges=8)
        pool = list(e3.vertices)
        epool = list(e3.edge_ids())
        side1 = tuple(v for v in pool if rng.random() < 0.5)
        side2 = tuple(v for v in pool if rng.random() < 0.5)
        c21 = tuple(x for x in epool if rng.random() < 0.5)
        c12 = tuple(x for x in epool if rng.random() < 0.5)
        pick = lambda seq: rng.choice(seq) if seq else "missing"
        w = SseWitness(
            e3,
            side1,
            side2,
            c21,
            c12,
            {v: pick(pool) for v in e1.vertices},
            {v: pick(pool) for v in e2.vertices},
            {e: (pick(epool), pick(epool)) for e in e1.edge_ids()},
            {e: (pick(epool), pick(epool)) for e in e2.edge_ids()},
        )
        report = verify_sse_witness(e1, e2, w)
        assert isinstance(report.passed, bool)
        obj = report.to_json_obj()
        assert set(obj) == {"condition1", "condition2", "condition3", "condition4", "passed", "problems"}


def test_chain_search_deterministic_repeat(two_loops, loop_feed):
    e1 = two_loops[0]
    from ssekit import SplitSpec

    mid = split_apply(e1, SplitSpec("insplit", {"v": (("p",), ("q",))})).graph
    runs = [sse_chain_search(e1, mid, max_steps=2) for _ in range(2)]
    assert runs[0].to_json_obj() == runs[1].to_json_obj()


def test_chain_search_space_exhausted():
    # edgeless graphs only ever split trivially, so both frontiers die out
    one = DirectedMultigraph(("u",), ())
    two = DirectedMultigraph(("u", "v"), ())
    result = sse_chain_search(one, two, max_steps=3)
    assert result.status == "absent"
    assert result.reason == "search-space-exhausted"
    assert not result.truncated_by_vertex_bound


class _UnboundedEnumerationSide:
    """Reference search side on labelled graphs: enumerate every labelled
    spec, record for each layer whether a spec of one of its states has a
    split graph over the bound, build every other child and key the built
    graph.  The first spec to reach a key is its state's move."""

    def __init__(self, root, max_vertices, max_parts):
        self.max_vertices = max_vertices
        self.max_parts = max_parts
        self.cut = []  # per expanded layer
        root_key = canonical_key(root)
        self.states = {root_key: (root, None, None, None)}
        self.layers = [[root_key]]

    def expand_to(self, depth):
        while len(self.layers) <= depth:
            new_layer = []
            cut = False
            for key in self.layers[-1]:
                g = self.states[key][0]
                for move, spec in enumerate_split_specs(g, self.max_parts):
                    if split_vertex_count(g, spec) > self.max_vertices:
                        cut = True
                        continue
                    child = _build_split(g, spec).graph
                    child_key = canonical_key(child)
                    if child_key not in self.states:
                        self.states[child_key] = (child, key, move, spec)
                        new_layer.append(child_key)
            self.cut.append(cut)
            self.layers.append(new_layer)

    def truncated_before(self, depth):
        self.expand_to(depth)
        return any(self.cut[:depth])

    def reaches(self, depth):
        self.expand_to(depth)
        return bool(self.layers[depth])

    def leg(self, key):
        steps = []
        graph, parent, move, spec = self.states[key]
        while parent is not None:
            steps.append(search.ChainStep(move, spec, graph))
            graph, parent, move, spec = self.states[parent]
        steps.reverse()
        return steps


def _every_pair_meets(side1, d1, side2, d2):
    """A vertex-count skip that skips nothing: the reference search expands
    every depth pair it asks for."""
    return False


def test_chain_search_matches_unbounded_enumeration(monkeypatch, two_loops):
    from ssekit.corpus import random_graph, random_split_spec

    rng = random.Random(404)
    edgeless = [DirectedMultigraph(("u", "v"), ()), DirectedMultigraph(("u",), ())]
    pairs = [(two_loops[0], two_loops[1]), (edgeless[0], edgeless[1])]
    while len(pairs) < 40:
        g = random_graph(rng, max_vertices=4, max_edges=5)
        if not g.edges:
            continue
        kind = "insplit" if len(pairs) % 2 else "outsplit"
        h = split_apply(g, random_split_spec(rng, g, kind, 2)).graph
        pairs.append((g, h) if len(pairs) % 3 else (h, g))
    outcomes = []
    for e1, e2 in pairs:
        for max_vertices in range(1, 6):
            for max_steps in (1, 2):
                args = (e1, e2, max_steps, max_vertices)
                fast = sse_chain_search(*args).to_json_obj()
                with monkeypatch.context() as m:
                    m.setattr(search, "_SearchSide", _UnboundedEnumerationSide)
                    m.setattr(search, "_apart", _every_pair_meets)
                    slow = sse_chain_search(*args).to_json_obj()
                assert fast == slow, args
                outcomes.append((fast["status"], fast["truncated_by_vertex_bound"]))
    # the corpus reaches every combination of found/absent and truncated or not
    assert set(outcomes) == {(s, t) for s in ("found", "absent") for t in (True, False)}


def test_chain_search_matches_unbounded_enumeration_on_random_pairs(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        # vertex order differs from name order, so legs print labelled copies
        vertices = tuple(draw(st.permutations("abc"))[: draw(st.integers(1, 3))])
        ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), max_size=5))
        return DirectedMultigraph(vertices, tuple(Edge(f"e{i}", s, r) for i, (s, r) in enumerate(ends)))

    @st.composite
    def pairs(draw):
        e1 = draw(graphs())
        if draw(st.booleans()):
            return e1, draw(graphs())
        # a proper split of e1 within the same limits, so the pair is SSE
        splits = (_build_split(e1, spec).graph for _, spec in enumerate_split_specs(e1, 2))
        grown = [g for g in splits if len(e1.vertices) < len(g.vertices) <= 3 and len(g.edges) <= 5]
        return e1, draw(st.sampled_from(grown or [e1]))

    def run(side, args):
        """The result, and each side's layers as sets of keys.  The
        reference expands every depth pair it asks for; both then reach
        depth max_steps, as the skipped pairs leave layers unreached."""
        sides = []

        class Recorded(side):
            def __init__(self, *side_args):
                super().__init__(*side_args)
                sides.append(self)

        with monkeypatch.context() as m:
            m.setattr(search, "_SearchSide", Recorded)
            if side is _UnboundedEnumerationSide:
                m.setattr(search, "_apart", _every_pair_meets)
            result = sse_chain_search(*args).to_json_obj()
        for s in sides:
            s.expand_to(args[2])
        return result, [[set(layer) for layer in s.layers] for s in sides]

    outcomes = []

    @hypothesis.settings(max_examples=150)
    @hypothesis.given(pairs(), st.integers(0, 2), st.integers(1, 5))
    def check(pair, max_steps, max_vertices):
        args = (*pair, max_steps, max_vertices)
        fast = run(search._SearchSide, args)
        assert fast == run(_UnboundedEnumerationSide, args)
        result = fast[0]
        outcomes.append(result.get("reason") or ("found" if result["total_steps"] else "same graph"))

    check()
    # the draws reach a chain of at least one step and every reason for absence
    assert set(outcomes) >= {"found", "invariant-mismatch", "depth-bound-reached", "search-space-exhausted"}


def test_chain_search_keys_one_child_per_vector_partition(monkeypatch):
    # Williams' pair: B's vertex 1 emits six parallel edges and one more, so
    # labelled edge partitions overcount its moves.  Searched by labelled
    # specs, these bounds keyed 10,560 children; by vector partitions, each
    # distinct count matrix is keyed once per side, the two roots included.
    # Every depth pair that reaches layer 2 is apart in vertex count, and a
    # layer-1 state of side 1 has a split over the bound, so the flag and
    # the reason are settled without layer 2: building it for them keyed
    # 551 matrices and layers [[1, 22, 174], [1, 26, 290]].
    from ssekit import graph_from_matrix

    keyed = []  # (side, matrix) per call
    sides = []
    keying = []  # the side that is computing keys
    canonical = search.canonical_key_of_counts

    def key(m):
        keyed.append((keying[-1], m))
        return canonical(m)

    class Side(search._SearchSide):
        def __init__(self, *args):
            keying.append(len(sides))
            sides.append(self)
            super().__init__(*args)

        def expand_to(self, depth):
            keying.append(sides.index(self))
            super().expand_to(depth)

    monkeypatch.setattr(search, "canonical_key_of_counts", key)
    monkeypatch.setattr(search, "_SearchSide", Side)
    a = graph_from_matrix(_mat([[1, 3], [2, 1]]))
    b = graph_from_matrix(_mat([[1, 6], [1, 1]]))
    result = sse_chain_search(a, b, max_steps=2, max_vertices=4)
    assert (result.status, result.reason, result.truncated_by_vertex_bound) == ("absent", "depth-bound-reached", True)
    assert len(keyed) == 50
    assert len(set(keyed)) == len(keyed)  # no side keys a matrix twice
    assert [len(side.states) for side in sides] == [23, 27]
    assert [[len(layer) for layer in side.layers] for side in sides] == [[1, 22], [1, 26]]


def test_chain_search_frontier_keys_up_to_the_first_new_child(monkeypatch):
    # Williams' pair with two parts and 8 vertices: no state in layers 0
    # and 1 has a split over the bound, so the reason rests on whether
    # layer 2 holds a state.  Side 1's first layer-1 state has a child that
    # is new, which answers it: one matrix is keyed past the 50 of layers
    # 0 and 1, and layer 2 is not built.  Building both layers 2 for the
    # reason keyed 28,418 matrices and took about 2 s.
    from ssekit import graph_from_matrix

    keyed = []
    sides = []
    canonical = search.canonical_key_of_counts

    def key(m):
        keyed.append(m)
        return canonical(m)

    class Side(search._SearchSide):
        def __init__(self, *args):
            super().__init__(*args)
            sides.append(self)

    monkeypatch.setattr(search, "canonical_key_of_counts", key)
    monkeypatch.setattr(search, "_SearchSide", Side)
    a = graph_from_matrix(_mat([[1, 3], [2, 1]]))
    b = graph_from_matrix(_mat([[1, 6], [1, 1]]))
    result = sse_chain_search(a, b, max_steps=2, max_vertices=8, max_parts=2)
    assert (result.status, result.reason, result.truncated_by_vertex_bound) == ("absent", "depth-bound-reached", False)
    assert len(keyed) == 51
    assert [[len(layer) for layer in side.layers] for side in sides] == [[1, 22], [1, 26]]


def test_chain_search_skips_depth_pairs_apart_in_vertex_count(monkeypatch, two_loops, two_loops_composite):
    # The one-vertex two-loop graph against its 3-vertex composite meets at
    # depth pair (2, 0).  The pair order asks for (1, 1) and (0, 2) first;
    # both are skipped unexpanded, as side 2's layers there have at least 4
    # and 5 vertices and side 1's have 2 and 1.  Expanding every pair, these
    # bounds keyed 71 and 675 matrices.  The flag is read layer by layer and
    # stops at the first state with a split over the bound: at 5 vertices
    # side 2's root has one, so side 2 never builds layer 1 (building it for
    # the flag keyed 22 matrices and 13 states there); at 10 it has none,
    # so layer 1 is built.
    keyed = []
    sides = []
    canonical = search.canonical_key_of_counts

    def key(m):
        keyed.append(m)
        return canonical(m)

    class Side(search._SearchSide):
        def __init__(self, *args):
            super().__init__(*args)
            sides.append(self)

    monkeypatch.setattr(search, "canonical_key_of_counts", key)
    monkeypatch.setattr(search, "_SearchSide", Side)
    for (max_steps, max_vertices), keys, layers in [
        ((2, 5), 9, [[1, 1, 3], [1]]),
        ((3, 10), 23, [[1, 1, 3], [1, 14]]),
    ]:
        keyed.clear()
        sides.clear()
        result = sse_chain_search(two_loops[0], two_loops_composite, max_steps, max_vertices)
        assert (result.status, result.total_steps, result.truncated_by_vertex_bound) == ("found", 2, True)
        assert len(keyed) == keys
        assert [[len(layer) for layer in side.layers] for side in sides] == layers


def test_side_reads_flag_and_frontier_as_eager_expansion_does():
    # The eager reading builds every layer first: to depth - 1 for the flag,
    # to depth for the frontier.  The lazy one must give the same answers,
    # and the frontier test must not build the layer it asks about.
    from ssekit.corpus import random_graph
    from ssekit.splits import widest_split_vertex_count

    rng = random.Random(26)
    checked = set()
    for _ in range(120):
        g = random_graph(rng, max_vertices=3, max_edges=5)
        max_vertices, max_parts, depth = rng.randint(1, 7), rng.randint(1, 3), rng.randint(0, 3)
        eager = search._SearchSide(g, max_vertices, max_parts)
        eager.expand_to(depth)
        truncated = any(
            widest_split_vertex_count(eager.states[key].counts, max_parts) > max_vertices
            for layer in eager.layers[:depth]
            for key in layer
        )
        assert search._SearchSide(g, max_vertices, max_parts).truncated_before(depth) == truncated
        lazy = search._SearchSide(g, max_vertices, max_parts)
        assert lazy.reaches(depth) == bool(eager.layers[depth])
        assert len(lazy.layers) == max(depth, 1)  # layer depth is not built, bar the root
        # the frontier test on a side that has built the layer reads it
        assert eager.reaches(depth) == bool(eager.layers[depth])
        checked.add((truncated, bool(eager.layers[depth])))
    assert checked == {(t, r) for t in (True, False) for r in (True, False)}


def _chain_search_queries(count):
    """Seeded chain-search queries: half random pairs, half a graph against
    one or two random splits of it, over a range of bounds."""
    from ssekit.corpus import random_graph, random_split_spec

    rng = random.Random(2026)
    for i in range(count):
        e1 = random_graph(rng, 3, 5)
        e2 = e1
        if i % 2:
            for _ in range(rng.randint(1, 2)):
                e2 = split_apply(e2, random_split_spec(rng, e2, rng.choice(("insplit", "outsplit")), 2)).graph
        else:
            e2 = random_graph(rng, 3, 5)
        yield e1, e2, rng.randint(0, 4), rng.randint(1, 7), rng.randint(1, 3)


def test_chain_search_matches_pinned_digest_on_random_queries():
    # The SHA-256 of the JSON of these 600 queries (seed 2026), recorded on
    # the search that built both sides to their deepest layers before it
    # read the vertex-bound flag and the frontier.  There the corpus took
    # two minutes or more, nearly all of it on one max_steps=3 query.
    digest = hashlib.sha256()
    outcomes = set()
    for query in _chain_search_queries(600):
        obj = sse_chain_search(*query).to_json_obj()
        digest.update(json.dumps(obj, sort_keys=True).encode() + b"\n")
        outcomes.add((obj.get("reason", "found"), obj["truncated_by_vertex_bound"]))
    assert outcomes >= {
        ("found", False),
        ("found", True),
        ("depth-bound-reached", False),
        ("depth-bound-reached", True),
        ("search-space-exhausted", False),
        ("invariant-mismatch", False),
    }
    assert digest.hexdigest() == "9c0a7de759de53f25ea853590ed1ba507c2c13fa75f0b99ad9cfd53fbeddd77c"


def test_chain_search_bounds_validated(fork):
    with pytest.raises(GraphError):
        sse_chain_search(fork[0], fork[0], max_steps=-1)
    with pytest.raises(GraphError):
        sse_chain_search(fork[0], fork[0], max_vertices=0)


# -- structural invariants ----------------------------------------------------------


def test_trace_invariance_for_verified_pairs():
    pair = EssePair(_mat([[2]]), _mat([[1, 1], [1, 1]]), _mat([[1, 1]]), _mat([[1], [1]]))
    bundle = witness_from_essse(pair)
    a1 = adjacency_matrix(bundle.e1)
    a2 = adjacency_matrix(bundle.e2)
    for n in range(1, 7):
        assert a1.power(n).trace() == a2.power(n).trace()
