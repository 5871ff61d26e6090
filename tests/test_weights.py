import hashlib
import json
import random

import pytest

from ssekit import (
    DirectedMultigraph,
    Edge,
    EdgeFunction,
    EssePair,
    GraphError,
    NonnegIntMatrix,
    SplitSpec,
    TransportError,
    check_weight_preserving,
    lift_edge_function,
    push_forward,
    transport_g_from_h,
    witness_from_essse,
)
from ssekit.corpus import random_edge_function, random_graph, random_split_spec
from ssekit.splits import split_witness


# -- check_weight_preserving ---------------------------------------------------


def test_check_two_loops_bad_weighting(two_loops):
    _, _, e3, w, g_bad, _ = two_loops
    h = EdgeFunction(e3, {"a": 0, "b": 1, "c": 1, "d": 3})
    theta1_ok, theta2_ok = check_weight_preserving(w, h, g=g_bad)
    assert theta1_ok  # f absent: nothing to violate
    assert not theta2_ok  # h(b) + h(d) = 4 != 5


def test_check_zero_functions(two_loops):
    e1, e2, e3, w, _, _ = two_loops
    zero = EdgeFunction.zero
    assert check_weight_preserving(w, zero(e3), f=zero(e1), g=zero(e2)) == (True, True)


def test_check_requires_h(two_loops):
    _, _, _, w, _, _ = two_loops
    with pytest.raises(GraphError, match="needs f or g"):
        check_weight_preserving(w, EdgeFunction.zero(w.e3))


def test_triple_validates_graphs(two_loops, fan):
    _, _, _, w, _, _ = two_loops
    fan_graph, fan_f, _ = fan
    with pytest.raises(GraphError, match="side graph"):
        check_weight_preserving(w, EdgeFunction.zero(w.e3), f=fan_f)
    with pytest.raises(GraphError, match="intermediate graph"):
        check_weight_preserving(w, EdgeFunction.zero(fan_graph), g=EdgeFunction.zero(w.implied_graph2()))
    extra_vertex = EdgeFunction(DirectedMultigraph(("v", "u"), two_loops[0].edges), {"p": 1, "q": 2})
    with pytest.raises(GraphError) as exc:
        push_forward(w, extra_vertex, "e12")
    assert str(exc.value) == "f is not a weight map on the witness' side graph (vertex sets differ)"


def test_check_fan_outsplit_independent_sums(fan):
    g, f, spec = fan
    bundle = split_witness(g, spec)
    h, g2 = push_forward(bundle.witness, f, "e12")
    assert check_weight_preserving(bundle.witness, h, f=f, g=g2) == (True, True)
    # independent recomputation of every path sum
    w = bundle.witness
    for eid, pair in w.theta1.items():
        assert sum(map(h, pair)) == f(eid)
    for eid, pair in w.theta2.items():
        assert sum(map(h, pair)) == g2(eid)


# -- transport_g_from_h ----------------------------------------------------------


def test_transport_two_loops(two_loops):
    _, _, e3, w, _, _ = two_loops
    h = EdgeFunction(e3, {"a": 0, "b": 1, "c": 1, "d": 3})
    g = transport_g_from_h(w, h)
    assert {eid: g(eid) for eid in g.graph.edge_ids()} == {"l1": 1, "m12": 2, "m21": 3, "l2": 4}
    assert check_weight_preserving(w, h, g=g) == (True, True)


def test_transport_zero(two_loops):
    _, _, e3, w, _, _ = two_loops
    g = transport_g_from_h(w, EdgeFunction.zero(e3))
    assert all(g(eid) == 0 for eid in g.graph.edge_ids())


def test_transport_fan_witness(fan):
    g, f, spec = fan
    bundle = split_witness(g, spec)
    h = EdgeFunction(
        bundle.witness.e3,
        {eid: (f(eid.split(":", 1)[1]) if eid.startswith("e12:") else 0) for eid in bundle.witness.e3.edge_ids()},
    )
    g2 = transport_g_from_h(bundle.witness, h)
    assert {eid: g2(eid) for eid in g2.graph.edge_ids()} == {
        "a^1": 1,
        "b^1": 2,
        "b^2": 2,
        "c^": 3,
        "d^": 4,
    }


def test_broken_side2_witness_rejected_with_its_message(two_loops, broken_two_loops):
    e1, _, e3, w, _, _ = two_loops
    h = EdgeFunction(e3, {"a": 0, "b": 1, "c": 1, "d": 3})
    f = EdgeFunction(e1, {"p": 1, "q": 2})
    for name, broken, message in broken_two_loops:
        calls = (
            lambda: transport_g_from_h(broken, h),
            lambda: push_forward(broken, f, "e12"),
            lambda: push_forward(broken, f, "e21"),
        )
        for call in calls:
            with pytest.raises(GraphError) as exc:
                call()
            assert str(exc.value) == message, name


# -- the two weight constructions --------------------------------------------------


def test_weights_from_f_e12_fan(fan):
    g, f, spec = fan
    bundle = split_witness(g, spec)
    h, g2 = push_forward(bundle.witness, f, "e12")
    reds = {eid: h(eid) for eid in bundle.witness.e12}
    blues = {eid: h(eid) for eid in bundle.witness.e21}
    assert sorted(reds.values()) == [1, 2, 3, 4]
    assert set(blues.values()) == {0}
    assert {eid: g2(eid) for eid in g2.graph.edge_ids()} == {
        "a^1": 1,
        "b^1": 2,
        "b^2": 2,
        "c^": 3,
        "d^": 4,
    }


def test_weights_from_f_e21_loop_feed(loop_feed):
    g, f, spec = loop_feed
    bundle = split_witness(g, spec)
    h, g2 = push_forward(bundle.witness, f, "e21")
    blues = {eid: h(eid) for eid in bundle.witness.e21}
    reds = {eid: h(eid) for eid in bundle.witness.e12}
    assert sorted(blues.values()) == [1, 2]
    assert set(reds.values()) == {0}
    assert {eid: g2(eid) for eid in g2.graph.edge_ids()} == {"a~1": 1, "a~2": 1, "b~": 2}


def test_weights_zero_function(fan):
    g, _, spec = fan
    bundle = split_witness(g, spec)
    h, g2 = push_forward(bundle.witness, EdgeFunction.zero(g), "e12")
    assert all(h(eid) == 0 for eid in h.graph.edge_ids())
    assert all(g2(eid) == 0 for eid in g2.graph.edge_ids())


def test_weights_outputs_always_weight_preserving(fan, loop_feed):
    for fixture, side in ((fan, "e12"), (loop_feed, "e21")):
        g, f, spec = fixture
        bundle = split_witness(g, spec)
        h, g2 = push_forward(bundle.witness, f, side)
        assert check_weight_preserving(bundle.witness, h, f=f, g=g2) == (True, True)


def test_phi_must_be_bijection():
    # A = B = R = [[2]], S = [[1]]: both theta1 paths end in the one e21 edge,
    # while their first edges are the two e12 edges.
    m = NonnegIntMatrix.from_entries
    bundle = witness_from_essse(EssePair(m([[2]]), m([[2]]), m([[2]]), m([[1]])))
    w = bundle.witness
    f = EdgeFunction(bundle.e1, dict(zip(bundle.e1.edge_ids(), (3, -5))))
    with pytest.raises(TransportError, match="bijection onto the e21 class"):
        push_forward(w, f, "e21")
    h, g = push_forward(w, f, "e12")
    assert check_weight_preserving(w, h, f=f, g=g) == (True, True)


def test_transport_and_push_forward_argument_errors(two_loops):
    e1, _, _, w, _, g_good = two_loops
    with pytest.raises(GraphError, match="^h is not a weight map on the witness' intermediate graph$"):
        transport_g_from_h(w, g_good)
    with pytest.raises(GraphError, match='^side must be "e12" or "e21", not \'e11\'$'):
        push_forward(w, EdgeFunction.zero(e1), "e11")


def test_phi_wrong_class_rejected(loop_feed):
    g, f, spec = loop_feed
    bundle = split_witness(g, spec)
    with pytest.raises(TransportError, match="bijection onto the e12 class"):
        push_forward(bundle.witness, f, "e12")  # theta1's first edges miss e12:w~


# -- lifting -----------------------------------------------------------------------


def test_lift_two_loops_infeasible(two_loops):
    _, _, _, w, g_bad, _ = two_loops
    outcome = lift_edge_function(w, g_bad)
    assert outcome.status == "infeasible"
    assert outcome.solution is None
    assert outcome.alternating_sum == 1
    assert len(outcome.certificate) == 4
    # re-derive the alternating sum from the certificate refs alone
    constants = {eq.ref: eq.constant for eq in outcome.equations}
    assert sum((-1) ** i * constants[r] for i, r in enumerate(outcome.certificate)) == 1


def test_lift_two_loops_feasible_resubstitutes(two_loops):
    _, _, _, w, _, g_good = two_loops
    outcome = lift_edge_function(w, g_good)
    assert outcome.status == "feasible"
    h = outcome.solution
    for eq in outcome.equations:
        assert h(eq.first) + h(eq.second) == eq.constant
    assert outcome.free_parameters == 1


def test_lift_zero(two_loops):
    e1, e2, e3, w, _, _ = two_loops
    outcome = lift_edge_function(w, EdgeFunction.zero(e2), EdgeFunction.zero(e1))
    assert outcome.status == "feasible"
    assert all(outcome.solution(eid) == 0 for eid in e3.edge_ids())


def test_lift_with_f_constraints(fan):
    g, f, spec = fan
    bundle = split_witness(g, spec)
    _, g2 = push_forward(bundle.witness, f, "e12")
    outcome = lift_edge_function(bundle.witness, g2, f)
    assert outcome.status == "feasible"
    for eq in outcome.equations:
        assert outcome.solution(eq.first) + outcome.solution(eq.second) == eq.constant


def test_lift_rejects_theta_edges_outside_the_intermediate_graph():
    # "ghost" is listed in e21, so the path alternates sides, but E3 lacks it
    g = DirectedMultigraph(("v",), (Edge("p", "v", "v"), Edge("q", "v", "v")))
    w = split_witness(g, SplitSpec("insplit", {"v": (("p",), ("q",))})).witness
    broken = w._replace(e21=w.e21 + ("ghost",), theta2={**w.theta2, "p~1": ("ghost", "e12:v~1")})
    with pytest.raises(GraphError) as exc:
        lift_edge_function(broken, EdgeFunction.zero(w.implied_graph2()))
    assert str(exc.value) == "theta2:p~1: theta path ('ghost', 'e12:v~1') leaves the intermediate graph"


def test_lift_rejects_theta_paths_that_do_not_alternate(two_loops, broken_two_loops):
    # the CLI's implied_graph2 rejects this witness before it is lifted
    broken = next(w for name, w, _ in broken_two_loops if name == "theta2-does-not-chain")
    with pytest.raises(GraphError) as exc:
        lift_edge_function(broken, two_loops[5])
    assert str(exc.value) == "theta2:l1: theta path ('a', 'b') does not alternate witness sides"


def test_lift_unconstrained_edges_get_zero_and_count_free(fork):
    e1, e2, _, w = fork
    outcome = lift_edge_function(w, EdgeFunction.zero(e2))
    assert outcome.status == "feasible"
    # w>W sits on no theta2 path: its own component, zeroed
    assert outcome.solution("w>W") == 0
    assert outcome.free_parameters >= 2


def _brute_force_lift(witness, equations):
    """Exhaustive integer search over a provably sufficient box.

    Any root assignment propagates through its component, so scanning the
    root value over [-C, C] with C = sum of |constants| covers every box
    solution; the solver's zero-parameter solutions stay within C as well.
    """
    variables = list(witness.e3.edge_ids())
    bound = sum(abs(eq.constant) for eq in equations) or 1
    adjacency = {v: [] for v in variables}
    for eq in equations:
        adjacency[eq.first].append(eq)
        adjacency[eq.second].append(eq)

    assignment: dict[str, int] = {}

    def propagate(start: str, value: int) -> bool:
        stack = [(start, value)]
        placed = []
        ok = True
        while stack and ok:
            var, val = stack.pop()
            if var in assignment:
                if assignment[var] != val:
                    ok = False
                continue
            if abs(val) > bound:
                ok = False
                continue
            assignment[var] = val
            placed.append(var)
            for eq in adjacency[var]:
                other = eq.second if eq.first == var else eq.first
                needed = eq.constant - val
                if other in assignment:
                    if assignment[other] != needed:
                        ok = False
                        break
                else:
                    stack.append((other, needed))
        if not ok:
            for var in placed:
                del assignment[var]
        return ok

    def solve(index: int) -> bool:
        while index < len(variables) and variables[index] in assignment:
            index += 1
        if index == len(variables):
            return all(assignment[eq.first] + assignment[eq.second] == eq.constant for eq in equations)
        var = variables[index]
        before = dict(assignment)
        for val in range(-bound, bound + 1):
            if propagate(var, val):
                if solve(index + 1):
                    return True
                assignment.clear()
                assignment.update(before)
        return False

    found = solve(0)
    assignment.clear()
    return found


def test_lift_agrees_with_brute_force_oracle():
    rng = random.Random(41)
    checked = 0
    feasible_seen = infeasible_seen = 0
    while checked < 60:
        g = random_graph(rng, max_vertices=3, max_edges=4)
        if not g.edges:
            continue
        kind = rng.choice(("insplit", "outsplit"))
        try:
            if kind == "insplit":
                bundle = split_witness(g, random_split_spec(rng, g, "insplit", 2))
            else:
                bundle = split_witness(g, random_split_spec(rng, g, "outsplit", 2))
        except GraphError:
            continue
        if len(bundle.witness.e3.edges) > 8:
            continue
        g2 = EdgeFunction(
            bundle.e2, {eid: rng.randint(-3, 3) for eid in bundle.e2.edge_ids()}
        )
        outcome = lift_edge_function(bundle.witness, g2)
        brute = _brute_force_lift(bundle.witness, outcome.equations)
        assert (outcome.status == "feasible") == brute
        if outcome.status == "feasible":
            feasible_seen += 1
            for eq in outcome.equations:
                assert outcome.solution(eq.first) + outcome.solution(eq.second) == eq.constant
        else:
            infeasible_seen += 1
            constants = {eq.ref: eq.constant for eq in outcome.equations}
            alt = sum((-1) ** i * constants[r] for i, r in enumerate(outcome.certificate))
            assert alt == outcome.alternating_sum != 0
        checked += 1
    assert feasible_seen and infeasible_seen


def test_lift_matches_pinned_digest_on_random_split_witnesses():
    # The SHA-256 of lift's JSON on 3,000 seeded split witnesses (seed 3030),
    # g in -2..2 and, on every other witness, f too; recorded on the solver
    # that found the certificate's common ancestor through two ancestor
    # chains and a set.
    rng = random.Random(3030)
    digest = hashlib.sha256()
    infeasible = longest = 0
    for i in range(3000):
        g = random_graph(rng, 5, 10)
        bundle = split_witness(g, random_split_spec(rng, g, rng.choice(("insplit", "outsplit")), 2))
        g2 = random_edge_function(rng, bundle.e2, -2, 2)
        f = random_edge_function(rng, g, -2, 2) if i % 2 else None
        obj = lift_edge_function(bundle.witness, g2, f).to_json_obj()
        infeasible += obj["status"] == "infeasible"
        longest = max(longest, len(obj.get("certificate", ())))
        digest.update(json.dumps(obj).encode() + b"\n")
    assert 1500 < infeasible < 3000 and longest >= 8  # certificates climb several tree levels
    assert digest.hexdigest() == "78fd477a647df056980ced7b7e147f9edf7f2a2e2290c7ef7c64a8e25755ed9d"
