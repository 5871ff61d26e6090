"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from ssekit import (
    DirectedMultigraph,
    EdgeFunction,
    EssePair,
    NonnegIntMatrix,
    SseWitness,
    check_weight_preserving,
    is_isomorphic,
    lift_edge_function,
    matrix_essse_search,
    matrix_essse_verify,
    periodic_point_profile,
    push_forward,
    reverse_transport,
    split_apply,
    split_witness,
    sse_chain_search,
    verify_sse_witness,
    witness_from_essse,
)
from ssekit.corpus import random_graph, random_split_spec
from ssekit.splits import SplitSpec

from test_weights import _brute_force_lift


def _report(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {label}")


def test_criterion_1_fork_witness(fork):
    start = time.perf_counter()
    e1, e2, e3, w = fork

    report = verify_sse_witness(e1, e2, w)
    assert report.passed, report.problems
    # condition 4 bites at the only intermediate source, the one above w
    sources = [v for v in e3.vertices if not e3.in_edges(v)]
    assert sources == ["w"]

    for removed in e3.edge_ids():
        stripped_e3 = DirectedMultigraph(
            e3.vertices, tuple(e for e in e3.edges if e.id != removed)
        )
        broken = SseWitness(
            stripped_e3,
            w.side1,
            w.side2,
            tuple(x for x in w.e21 if x != removed),
            tuple(x for x in w.e12 if x != removed),
            w.vmap1,
            w.vmap2,
            w.theta1,
            w.theta2,
        )
        assert not verify_sse_witness(e1, e2, broken).passed, removed

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"witness verified, all 8 single-edge deletions rejected ({elapsed:.3f}s)")


def test_criterion_2_insplit_figures(loop_feed):
    g, f, spec = loop_feed
    app = split_apply(g, spec)
    assert app.graph.vertices == ("v~1", "v~2", "w~")
    assert {(e.src, e.rng) for e in app.graph.edges} == {
        ("v~1", "v~1"),
        ("v~2", "v~1"),
        ("w~", "v~2"),
    }
    _, g2 = push_forward(split_witness(g, spec).witness, f, "e21")
    assert {eid: g2(eid) for eid in g2.graph.edge_ids()} == {"a~1": 1, "a~2": 1, "b~": 2}
    assert sorted(g2.weights.values()) == [1, 1, 2]
    _report(2, "insplit graph and transported weights {1, 1, 2} exact")


def test_criterion_3_outsplit_figures(fan):
    g, f, spec = fan
    app = split_apply(g, spec)
    assert app.graph.vertices == ("w^1", "x^1", "x^2", "y^", "z^")
    bundle = split_witness(g, spec)
    h, g2 = push_forward(bundle.witness, f, "e12")
    assert {eid: g2(eid) for eid in g2.graph.edge_ids()} == {
        "a^1": 1,
        "b^1": 2,
        "b^2": 2,
        "c^": 3,
        "d^": 4,
    }
    assert {eid: h(eid) for eid in bundle.witness.e12} == {
        "e12:a": 1,
        "e12:b": 2,
        "e12:c": 3,
        "e12:d": 4,
    }
    assert all(h(eid) == 0 for eid in bundle.witness.e21)
    _report(3, "outsplit weights {1, 2, 2, 3, 4} and intermediate weighting exact")


def test_criterion_4_lift_remark(two_loops):
    _, _, _, w, g_bad, g_good = two_loops

    outcome = lift_edge_function(w, g_bad)
    assert outcome.status == "infeasible"
    constants = {eq.ref: eq.constant for eq in outcome.equations}
    alt = sum((-1) ** i * constants[r] for i, r in enumerate(outcome.certificate))
    assert alt == outcome.alternating_sum == 1

    outcome = lift_edge_function(w, g_good)
    assert outcome.status == "feasible"
    for eq in outcome.equations:
        assert outcome.solution(eq.first) + outcome.solution(eq.second) == eq.constant
    _report(4, "lift infeasible with alternating sum 1, feasible case re-substitutes")


def test_criterion_5_reverse_failure(funnel):
    g, spec = funnel
    app = split_apply(g, spec)

    weights = {eid: 0 for eid in app.graph.edge_ids()}
    weights["e~1"], weights["e~2"] = 0, 1
    result = reverse_transport(g, spec, EdgeFunction(app.graph, weights))
    assert not result.found
    assert result.obstructions[0][0] == "e"

    equal = {eid: 0 for eid in app.graph.edge_ids()}
    equal["e~1"] = equal["e~2"] = 7
    equal["wy~"], equal["xy~"] = 3, -1
    result = reverse_transport(g, spec, EdgeFunction(app.graph, equal))
    assert result.found
    recovered = {eid: result.f(eid) for eid in g.edge_ids()}
    assert recovered == {"wy": 3, "xy": -1, "e": 7}
    _, back = push_forward(split_witness(g, spec).witness, result.f, "e21")
    assert dict(back.weights) == equal
    _report(5, "reverse transport: obstruction names the split edge, equal copies pull back")


def test_criterion_6_matrix_bridge(two_loops):
    start = time.perf_counter()
    e1_fixture, e2_fixture = two_loops[0], two_loops[1]
    a = NonnegIntMatrix.from_entries([[2]])
    b = NonnegIntMatrix.from_entries([[1, 1], [1, 1]])

    found = matrix_essse_search(a, b, 1)
    assert found is not None
    r, s = found
    assert r.entries == ((1, 1),) and s.entries == ((1,), (1,))

    pair = EssePair(a, b, r, s)
    assert matrix_essse_verify(pair)
    bundle = witness_from_essse(pair)
    assert verify_sse_witness(bundle.e1, bundle.e2, bundle.witness).passed
    assert is_isomorphic(bundle.e1, e1_fixture) is not None
    assert is_isomorphic(bundle.e2, e2_fixture) is not None

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(6, f"matrix search, witness, and isomorphisms exact ({elapsed:.3f}s)")


def test_criterion_7_property_suite():
    start = time.perf_counter()
    rng = random.Random(2024)

    witness_cases = 0
    while witness_cases < 220:
        g = random_graph(rng, max_vertices=6, max_edges=12)
        if not g.edges:
            continue
        kind, side = ("insplit", "e21") if witness_cases % 2 == 0 else ("outsplit", "e12")
        bundle = split_witness(g, random_split_spec(rng, g, kind, 3))
        weights = EdgeFunction(g, {e: rng.randint(-3, 3) for e in g.edge_ids()})
        h, g2 = push_forward(bundle.witness, weights, side)
        # (a) every split witness passes all four conditions
        assert verify_sse_witness(g, bundle.e2, bundle.witness).passed
        # (b) constructed weightings are weight-preserving on both sides
        f = EdgeFunction(g, {e: h(bundle.phi2[e]) for e in g.edge_ids()})
        assert check_weight_preserving(bundle.witness, h, f=f, g=g2) == (True, True)
        # (c) periodic points agree through period 6 across the pair
        assert (
            periodic_point_profile(g, 6).traces
            == periodic_point_profile(bundle.e2, 6).traces
        )
        witness_cases += 1

    # (d) the lift solver agrees with bounded exhaustive search
    lift_cases = 0
    feasible = infeasible = 0
    while lift_cases < 60:
        g = random_graph(rng, max_vertices=3, max_edges=4)
        if not g.edges:
            continue
        bundle = (
            split_witness(g, random_split_spec(rng, g, "insplit", 2))
            if lift_cases % 2 == 0
            else split_witness(g, random_split_spec(rng, g, "outsplit", 2))
        )
        if len(bundle.witness.e3.edges) > 8:
            continue
        g2 = EdgeFunction(bundle.e2, {e: rng.randint(-3, 3) for e in bundle.e2.edge_ids()})
        outcome = lift_edge_function(bundle.witness, g2)
        assert (outcome.status == "feasible") == _brute_force_lift(
            bundle.witness, outcome.equations
        )
        if outcome.status == "feasible":
            feasible += 1
        else:
            infeasible += 1
        lift_cases += 1
    assert feasible and infeasible

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        7,
        f"{witness_cases} split witnesses and {lift_cases} lift instances, "
        f"zero failures ({elapsed:.1f}s)",
    )


def test_criterion_8_chain_search(loop_feed, two_loops):
    start = time.perf_counter()

    g, _, spec = loop_feed
    e2 = split_apply(g, spec).graph
    result = sse_chain_search(g, e2, max_steps=1)
    assert result.status == "found" and result.total_steps == 1
    assert result.steps_from_e1[0].move == "insplit"

    mismatch = sse_chain_search(
        two_loops[0], DirectedMultigraph(("u",), ()), max_steps=3
    )
    assert mismatch.status == "absent" and mismatch.reason == "invariant-mismatch"

    base = two_loops[0]
    mid = split_apply(base, SplitSpec("insplit", {"v": (("p",), ("q",))})).graph
    far = split_apply(
        mid,
        SplitSpec("outsplit", {"v~1": (("p~1",), ("q~1",)), "v~2": (("p~2", "q~2"),)}),
    ).graph
    composite = sse_chain_search(base, far)
    assert composite.status == "found"
    assert composite.total_steps == 2
    moves = [s.move for s in composite.steps_from_e1] + [s.move for s in composite.steps_from_e2]
    assert len(moves) == 2

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(8, f"1-step, pruned, and 2-step composite chains as expected ({elapsed:.1f}s)")
