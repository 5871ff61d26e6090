import random

import pytest

from ssekit import (
    DirectedMultigraph,
    GraphError,
    NonnegIntMatrix,
    graph_from_matrix,
    matrix_essse_search,
    paths_between,
    periodic_point_profile,
    sse_chain_search,
    sse_invariant_filter,
)
from ssekit.corpus import random_graph
from ssekit.invariants import trace_mismatch


def test_profile_two_loops(two_loops):
    e1, e2 = two_loops[0], two_loops[1]
    assert periodic_point_profile(e1, 4).traces == (2, 4, 8, 16)
    assert periodic_point_profile(e2, 4).traces == (2, 4, 8, 16)


def test_profile_edgeless():
    g = DirectedMultigraph(("u", "v"), ())
    assert periodic_point_profile(g, 5).traces == (0, 0, 0, 0, 0)


def test_profile_requires_positive_n(two_loops):
    with pytest.raises(GraphError):
        periodic_point_profile(two_loops[0], 0)


def test_profile_growth_bound():
    rng = random.Random(19)
    for _ in range(20):
        g = random_graph(rng, max_vertices=4, max_edges=8)
        total = len(g.edges)
        profile = periodic_point_profile(g, 5)
        for n, t in enumerate(profile.traces, start=1):
            assert 0 <= t <= total**n


def test_profile_counts_closed_paths():
    rng = random.Random(29)
    for _ in range(15):
        g = random_graph(rng, max_vertices=5, max_edges=8)
        profile = periodic_point_profile(g, 4)
        for n in range(1, 5):
            closed = sum(len(paths_between(g, n, [v], [v])) for v in g.vertices)
            assert profile.traces[n - 1] == closed


def test_filter_pass(two_loops):
    e1, e2 = two_loops[0], two_loops[1]
    result = sse_invariant_filter(e1, e2, 6)
    assert result.passed and result.first_mismatch is None


def test_filter_fail_at_first_period(two_loops):
    e1 = two_loops[0]
    g3 = graph_from_matrix(NonnegIntMatrix.from_entries([[3]]))
    result = sse_invariant_filter(e1, g3, 6)
    assert not result.passed
    assert result.first_mismatch == 1
    assert result.to_json_obj()["n"] == 1


def test_filter_same_graph(fork):
    e1 = fork[0]
    assert sse_invariant_filter(e1, e1, 6).passed


def test_profile_exact_big_integers():
    # 6 loops on one vertex: traces are 6^n, far beyond any fixed-width type by n=30
    g = graph_from_matrix(NonnegIntMatrix.from_entries([[6]]))
    profile = periodic_point_profile(g, 30)
    assert profile.traces[-1] == 6**30


def test_serialization():
    g = DirectedMultigraph(("u",), ())
    obj = periodic_point_profile(g, 3).to_json_obj()
    assert obj == {"n_max": 3, "traces": [0, 0, 0]}


# -- the complete-period trace refutation ------------------------------------


def _random_matrix(rng, size, top):
    return NonnegIntMatrix.from_entries([[rng.randint(0, top) for _ in range(size)] for _ in range(size)])


def _brute_mismatch(a, b, upto):
    """The least j <= upto with tr(A^j) != tr(B^j), from explicit powers."""
    return next((j for j in range(1, upto + 1) if a.power(j).trace() != b.power(j).trace()), None)


def _trace_corpus(seed, sizes, top, count):
    """Seeded square pairs: independent draws, draws that agree at period 1
    or at periods 1 and 2 (so that later periods decide), and pairs R*S, S*R
    that agree at every period."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        a = _random_matrix(rng, rng.choice(sizes), top)
        b = _random_matrix(rng, rng.choice(sizes), top)
        kind = len(pairs) % 4
        if kind in (1, 3) and a.trace() != b.trace():
            continue
        if kind == 3 and a.power(2).trace() != b.power(2).trace():
            continue
        if kind == 2:
            n, k = a.nrows, b.nrows
            r = NonnegIntMatrix.from_entries([[rng.randint(0, 1) for _ in range(k)] for _ in range(n)])
            s = NonnegIntMatrix.from_entries([[rng.randint(0, 1) for _ in range(n)] for _ in range(k)])
            a, b = r.matmul(s), s.matmul(r)
            if max(x for row in a.entries + b.entries for x in row) > top:
                continue
        pairs.append((a, b))
    return pairs


def test_trace_mismatch_period_is_complete_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    outcomes = []
    for a, b in _trace_corpus(41, (1, 2, 3, 4), 3, 360):
        n, k = a.nrows, b.nrows
        big_n = max(n, k)
        found = trace_mismatch(a, b)
        char_a = sympy.Matrix(a.entries).charpoly(x).as_expr() * x ** (big_n - n)
        char_b = sympy.Matrix(b.entries).charpoly(x).as_expr() * x ** (big_n - k)
        # equal nonzero spectra exactly when the padded characteristic polynomials agree
        assert (found is None) == (sympy.expand(char_a - char_b) == 0), (a, b)
        assert found == _brute_mismatch(a, b, 2 * big_n + 3), (a, b)
        outcomes.append(found)
    assert outcomes.count(None) >= 60
    assert sum(1 for n in outcomes if n is not None and n >= 2) >= 60
    assert sum(1 for n in outcomes if n is not None and n >= 3) >= 10


def test_trace_mismatch_empty_matrix():
    empty = NonnegIntMatrix.from_entries([])
    cycle = NonnegIntMatrix.from_entries([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    for other, expected in (
        (empty, None),
        (NonnegIntMatrix.from_entries([[0]]), None),
        (NonnegIntMatrix.from_entries([[0, 1], [0, 0]]), None),
        (NonnegIntMatrix.from_entries([[1]]), 1),
        (NonnegIntMatrix.from_entries([[0, 1], [1, 0]]), 2),
        (cycle, 3),
    ):
        upto = 2 * max(other.nrows, 1) + 3
        assert trace_mismatch(empty, other) == trace_mismatch(other, empty) == expected
        assert _brute_mismatch(empty, other, upto) == expected


def _consumers_agree(a, b):
    found = trace_mismatch(a, b)
    g1, g2 = graph_from_matrix(a), graph_from_matrix(b)
    chain = sse_chain_search(g1, g2, max_steps=0)
    assert (chain.reason == "invariant-mismatch") == (found is not None)
    assert chain.mismatch_period == found
    if found is not None:
        assert matrix_essse_search(a, b) is None
    n_max = max(a.nrows, b.nrows, 1)
    assert sse_invariant_filter(g1, g2, n_max).first_mismatch == found
    return found


def test_searches_and_filter_share_the_trace_refutation():
    outcomes = [_consumers_agree(a, b) for a, b in _trace_corpus(43, (2, 3), 2, 120)]
    assert None in outcomes and {1, 2, 3} <= set(outcomes)


def test_trace_refutation_fixed_cases():
    cycle = NonnegIntMatrix.from_entries([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    zero = NonnegIntMatrix.from_entries([[0] * 3] * 3)
    assert _consumers_agree(cycle, zero) == 3
    # below the complete period the filter passes a pair both searches refute
    assert sse_invariant_filter(graph_from_matrix(cycle), graph_from_matrix(zero), 2).passed
    assert _consumers_agree(NonnegIntMatrix.from_entries([]), NonnegIntMatrix.from_entries([[0]])) is None
