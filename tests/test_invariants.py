import random

import pytest

from ssekit import (
    DirectedMultigraph,
    GraphError,
    NonnegIntMatrix,
    graph_from_matrix,
    paths_between,
    periodic_point_profile,
    sse_invariant_filter,
)
from ssekit.corpus import random_graph


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
