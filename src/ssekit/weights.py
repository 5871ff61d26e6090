"""Integer edge weights across an SSE witness: checks, transport, lifting.

A theta bijection is *weight-preserving* when the intermediate graph's
weighting gives every length-2 path the weight of the outer edge it
represents: h(theta1(e)) = f(e) on side 1, h(theta2(e)) = g(e) on side 2.
Checks, constructions, and the lifting solver all work at this
generator level; nothing else is modelled.

Weights given on side 1 always push forward (``push_forward``): zero the
witness edges on one class, copy f onto the other along the bijection phi
that theta1 fixes, and transport to side 2 along theta2; through a split
witness's phi2 class, every edge copy inherits its original's weight.
Side-2 weights need not pull back; feasibility of the defining linear
system is decided exactly, with an inconsistent cycle as the certificate
when it fails.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .graphs import EdgeFunction, GraphError, _chain
from .sse import SseWitness


class TransportError(GraphError):
    """A weight-construction hypothesis (bijection compatibility) fails."""


def _check_against_witness(
    fn: EdgeFunction, theta: Mapping[str, tuple[str, str]], vmap: Mapping[str, str], label: str
) -> None:
    if set(fn.graph.edge_ids()) != set(theta):
        raise GraphError(f"{label} is not a weight map on the witness' side graph (edge sets differ)")
    if set(fn.graph.vertices) != set(vmap):
        raise GraphError(f"{label} is not a weight map on the witness' side graph (vertex sets differ)")


def check_weight_preserving(
    w: SseWitness, h: EdgeFunction, f: EdgeFunction | None = None, g: EdgeFunction | None = None
) -> tuple[bool, bool]:
    """(theta1 weight-preserving, theta2 weight-preserving) for the
    intermediate weighting h against side-1 f and side-2 g; a side with no
    outer function given counts as preserved."""
    if h.graph != w.e3:
        raise GraphError("h is not a weight map on the witness' intermediate graph")
    if f is not None:
        _check_against_witness(f, w.theta1, w.vmap1, "f")
    if g is not None:
        _check_against_witness(g, w.theta2, w.vmap2, "g")
    if f is None and g is None:
        raise GraphError("check needs f or g")

    def side_ok(fn: EdgeFunction | None, theta: Mapping[str, tuple[str, str]]) -> bool:
        if fn is None:
            return True
        for eid, pair in theta.items():
            _chain(w.e3, pair)
            if sum(map(h, pair)) != fn(eid):
                return False
        return True

    return side_ok(f, w.theta1), side_ok(g, w.theta2)


def transport_g_from_h(w: SseWitness, h: EdgeFunction) -> EdgeFunction:
    """Push an intermediate weighting to side 2: g(e) = h(theta2(e)).

    The resulting triple is theta2-weight-preserving by construction.
    """
    if h.graph != w.e3:
        raise GraphError("h is not a weight map on the witness' intermediate graph")
    # implied_graph2 validates every theta2 pair as a path of e3.
    e2 = w.implied_graph2()
    return EdgeFunction(e2, {eid: sum(map(h, pair)) for eid, pair in w.theta2.items()})


def push_forward(w: SseWitness, f: EdgeFunction, side: str) -> tuple[EdgeFunction, EdgeFunction]:
    """(h, g) from a side-1 weighting f: h copies f along phi onto the witness
    class ``side`` ("e12" or "e21") and zeroes every other witness edge; g is
    the theta2 transport of h.  phi sends each side-1 edge to the edge of its
    theta1 path in that class, the first for e12 and the second for e21, and
    must be a bijection onto the class.  Both theta maps come out
    weight-preserving.

    On a split witness with ``side`` its phi2 class (e21 for an insplit,
    e12 for an outsplit), phi is phi2 and h is 0 on the phi1 class, so g
    gives every edge copy its original's weight."""
    if side not in ("e12", "e21"):
        raise GraphError(f'side must be "e12" or "e21", not {side!r}')
    _check_against_witness(f, w.theta1, w.vmap1, "f")
    slot, target = (0, w.e12) if side == "e12" else (1, w.e21)
    phi = {eid: pair[slot] for eid, pair in w.theta1.items()}
    values = set(phi.values())
    if len(values) != len(phi) or values != set(target):
        raise TransportError(f"phi = theta1[{slot}] is not a bijection onto the {side} class")
    weights = dict.fromkeys(w.e3.edge_ids(), 0)
    weights.update((eta, f(eid)) for eid, eta in phi.items())
    h = EdgeFunction(w.e3, weights)
    return h, transport_g_from_h(w, h)


# -- lifting a side-2 weighting to the intermediate graph --------------------


class LiftEquation(NamedTuple):
    ref: str  # "theta2:<edge>" or "theta1:<edge>"
    first: str  # intermediate edge carrying the path's range
    second: str
    constant: int


class LiftOutcome(NamedTuple):
    """Result of solving h(first) + h(second) = constant over the integers.

    Feasible: ``solution`` satisfies every equation, with one free parameter
    per connected component of the constraint graph zeroed out.  Infeasible:
    ``certificate`` lists equation refs forming a cycle (the violated equation
    first) whose alternating sum is the nonzero contradiction.
    """

    status: str  # "feasible" | "infeasible"
    solution: EdgeFunction | None
    certificate: list[str] | None
    alternating_sum: int | None
    free_parameters: int
    equations: list[LiftEquation]

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    def to_json_obj(self) -> dict:
        obj: dict = {"status": self.status}
        if self.solution is not None:
            obj["h"] = {eid: self.solution(eid) for eid in self.solution.graph.edge_ids()}
        if self.certificate is not None:
            obj["certificate"] = list(self.certificate)
            obj["alternating_sum"] = self.alternating_sum
        obj["free_parameters"] = self.free_parameters
        return obj


def lift_edge_function(
    w: SseWitness, g: EdgeFunction, f: EdgeFunction | None = None
) -> LiftOutcome:
    """Solve for an intermediate weighting h with h(theta2(e)) = g(e) for all
    side-2 edges, and h(theta1(e)) = f(e) too when f is given.

    Every equation couples one e21 edge with one e12 edge (theta paths
    alternate sides), so the constraint graph is bipartite: breadth-first
    labeling per connected component either assigns h outright (free parameter
    set to 0) or exposes a cycle of equations whose alternating constant sum
    is nonzero.  Bipartiteness also rules out half-integer forcing, so
    rational and integer feasibility coincide.  Infeasibility is a result,
    not an error.
    """
    _check_against_witness(g, w.theta2, w.vmap2, "g")
    if f is not None:
        _check_against_witness(f, w.theta1, w.vmap1, "f")

    c21, c12 = set(w.e21), set(w.e12)
    equations: list[LiftEquation] = []
    adjacency: dict[str, list[int]] = {eta: [] for eta in w.e3.edge_ids()}

    def add_equations(fn: EdgeFunction, theta: Mapping[str, tuple[str, str]], tag: str) -> None:
        for e in fn.graph.edges:
            first, second = theta[e.id]
            in21 = (first in c21) + (second in c21)
            in12 = (first in c12) + (second in c12)
            if in21 != 1 or in12 != 1:
                raise GraphError(
                    f"{tag}:{e.id}: theta path {theta[e.id]!r} does not alternate witness sides"
                )
            if first not in adjacency or second not in adjacency:
                raise GraphError(f"{tag}:{e.id}: theta path {theta[e.id]!r} leaves the intermediate graph")
            adjacency[first].append(len(equations))
            adjacency[second].append(len(equations))
            equations.append(LiftEquation(f"{tag}:{e.id}", first, second, fn(e.id)))

    add_equations(g, w.theta2, "theta2")
    if f is not None:
        add_equations(f, w.theta1, "theta1")

    values: dict[str, int] = {}
    parent: dict[str, tuple[str, int]] = {}  # BFS tree: edge -> (parent edge, equation index)
    depth: dict[str, int] = {}
    components = 0

    def certificate_for(u: str, v: str, closing: int) -> tuple[list[str], int]:
        # climb the deeper end until both meet at their common ancestor
        up, down = [closing], []
        while u != v:
            if depth[u] >= depth[v]:
                u, eq_i = parent[u]
                up.append(eq_i)
            else:
                v, eq_i = parent[v]
                down.append(eq_i)
        cycle = up + down[::-1]
        alt = sum((-1) ** j * equations[i].constant for j, i in enumerate(cycle))
        return [equations[i].ref for i in cycle], alt

    for root in w.e3.edge_ids():
        if root in values:
            continue
        components += 1
        values[root] = 0
        depth[root] = 0
        queue = [root]
        for u in queue:  # appended to while iterated: a FIFO read cursor
            for eq_i in adjacency[u]:
                _, first, second, constant = equations[eq_i]
                other = second if first == u else first
                if other not in values:
                    values[other] = constant - values[u]
                    parent[other] = (u, eq_i)
                    depth[other] = depth[u] + 1
                    queue.append(other)
                elif values[u] + values[other] != constant:
                    refs, alt = certificate_for(u, other, eq_i)
                    return LiftOutcome("infeasible", None, refs, alt, 0, equations)

    solution = EdgeFunction(w.e3, values)
    return LiftOutcome("feasible", solution, None, None, components, equations)
