"""Shared fixtures: the four worked examples every suite leans on.

* fork: a 4-vertex graph w -> x -> {y, z} and its 5-vertex sibling obtained
  by doubling the middle vertex, with the hand-built intermediate witness.
* loop_feed: a loop at v fed by w, insplit at v (weights 1 and 2).
* fan: a loop at w feeding x which fans out to y and z, outsplit at x
  (weights 1..4).
* two_loops: a single vertex with two loops against the complete 2-vertex
  graph, with the hand-built witness whose lifting system is the canonical
  infeasible example.
* broken_two_loops: the two_loops witness broken three ways on side 2, each
  with the message that rejects it.
* two_loops_composite: two_loops' complete 2-vertex graph outsplit at one
  vertex, two splits from the one-vertex graph.
* fork_misfits: the fork witness with sides, classes, vertex maps and
  sources broken so that it fails every condition-1, -2 and -4 check.
"""

from __future__ import annotations

import pytest

from ssekit import DirectedMultigraph, Edge, EdgeFunction, SplitSpec, SseWitness, split_apply

try:
    import hypothesis
except ImportError:  # property tests skip themselves through importorskip
    pass
else:
    # Property tests are reproducible and fast: a fixed example sequence, no
    # example database and no per-example deadline.
    hypothesis.settings.register_profile("ssekit", derandomize=True, database=None, deadline=None)
    hypothesis.settings.load_profile("ssekit")


@pytest.fixture(scope="session")
def fork():
    e1 = DirectedMultigraph(
        ("w", "x", "y", "z"),
        (Edge("e", "w", "x"), Edge("f", "x", "y"), Edge("g", "x", "z")),
    )
    e2 = DirectedMultigraph(
        ("W", "X1", "X2", "Y", "Z"),
        (
            Edge("e1", "W", "X1"),
            Edge("e2", "W", "X2"),
            Edge("fb", "X1", "Y"),
            Edge("gb", "X2", "Z"),
        ),
    )
    e3 = DirectedMultigraph(
        ("w", "x", "y", "z", "W", "X1", "X2", "Y", "Z"),
        (
            Edge("w>W", "w", "W"),
            Edge("x>X1", "x", "X1"),
            Edge("x>X2", "x", "X2"),
            Edge("y>Y", "y", "Y"),
            Edge("z>Z", "z", "Z"),
            Edge("W>x", "W", "x"),
            Edge("X1>y", "X1", "y"),
            Edge("X2>z", "X2", "z"),
        ),
    )
    witness = SseWitness(
        e3,
        side1=("w", "x", "y", "z"),
        side2=("W", "X1", "X2", "Y", "Z"),
        e21=("w>W", "x>X1", "x>X2", "y>Y", "z>Z"),
        e12=("W>x", "X1>y", "X2>z"),
        vmap1={"w": "w", "x": "x", "y": "y", "z": "z"},
        vmap2={"W": "W", "X1": "X1", "X2": "X2", "Y": "Y", "Z": "Z"},
        theta1={"e": ("W>x", "w>W"), "f": ("X1>y", "x>X1"), "g": ("X2>z", "x>X2")},
        theta2={
            "e1": ("x>X1", "W>x"),
            "e2": ("x>X2", "W>x"),
            "fb": ("y>Y", "X1>y"),
            "gb": ("z>Z", "X2>z"),
        },
    )
    return e1, e2, e3, witness


@pytest.fixture(scope="session")
def fork_misfits(fork):
    """The fork witness broken so that every partition, vertex-map, edge
    direction and source check fails at least once (theta1/theta2 are the
    fork's own).  Added to its intermediate graph: a source s with two edges,
    a source u whose edge is not the only one into x, and an isolated t."""
    _, _, e3, w = fork
    extra = (Edge("s>y", "s", "y"), Edge("s>Y", "s", "Y"), Edge("u>x", "u", "x"))
    return w._replace(
        e3=DirectedMultigraph(e3.vertices + ("s", "t", "u"), e3.edges + extra),
        side1=("w", "x", "x", "y", "z", "ghost", "u"),
        side2=("W", "X1", "X2", "Y", "Z", "u"),
        e21=("w>W", "x>X1", "x>X1", "x>X2", "y>Y", "z>Z", "X2>z", "bogus"),
        e12=("W>x", "X1>y", "X2>z", "s>y"),
        vmap1={"w": "w", "x": "w"},
        vmap2={"W": "W", "X1": "W"},
    )


@pytest.fixture(scope="session")
def loop_feed():
    g = DirectedMultigraph(("v", "w"), (Edge("a", "v", "v"), Edge("b", "w", "v")))
    f = EdgeFunction(g, {"a": 1, "b": 2})
    spec = SplitSpec("insplit", {"v": (("a",), ("b",))})
    return g, f, spec


@pytest.fixture(scope="session")
def fan():
    g = DirectedMultigraph(
        ("w", "x", "y", "z"),
        (Edge("a", "w", "w"), Edge("b", "w", "x"), Edge("c", "x", "y"), Edge("d", "x", "z")),
    )
    f = EdgeFunction(g, {"a": 1, "b": 2, "c": 3, "d": 4})
    spec = SplitSpec("outsplit", {"w": (("a", "b"),), "x": (("c",), ("d",))})
    return g, f, spec


@pytest.fixture(scope="session")
def two_loops():
    e1 = DirectedMultigraph(("v",), (Edge("p", "v", "v"), Edge("q", "v", "v")))
    e2 = DirectedMultigraph(
        ("V1", "V2"),
        (
            Edge("l1", "V1", "V1"),
            Edge("m12", "V1", "V2"),
            Edge("m21", "V2", "V1"),
            Edge("l2", "V2", "V2"),
        ),
    )
    e3 = DirectedMultigraph(
        ("v", "V1", "V2"),
        (Edge("a", "v", "V1"), Edge("b", "v", "V2"), Edge("c", "V1", "v"), Edge("d", "V2", "v")),
    )
    witness = SseWitness(
        e3,
        side1=("v",),
        side2=("V1", "V2"),
        e21=("a", "b"),
        e12=("c", "d"),
        vmap1={"v": "v"},
        vmap2={"V1": "V1", "V2": "V2"},
        theta1={"p": ("c", "a"), "q": ("d", "b")},
        theta2={"l1": ("a", "c"), "m12": ("b", "c"), "m21": ("a", "d"), "l2": ("b", "d")},
    )
    g_bad = EdgeFunction(e2, {"l1": 1, "m12": 2, "m21": 3, "l2": 5})
    g_good = EdgeFunction(e2, {"l1": 1, "m12": 2, "m21": 3, "l2": 4})
    return e1, e2, e3, witness, g_bad, g_good


@pytest.fixture(scope="session")
def broken_two_loops(two_loops):
    """(name, witness, message) for theta2 or vmap2 broken in two_loops."""
    w = two_loops[3]
    return [
        (
            "theta2-does-not-chain",
            w._replace(theta2=dict(w.theta2, l1=("a", "b"))),
            "edges 'a' and 'b' do not chain: s(a)='v' but r(b)='V2'",
        ),
        (
            "theta2-unknown-edge",
            w._replace(theta2=dict(w.theta2, l1=("a", "zz"))),
            "unknown edge id 'zz'",
        ),
        (
            "vmap2-not-injective",
            w._replace(vmap2={"V1": "V1", "V2": "V1"}),
            "vertex map is not injective; cannot reconstruct the outer graph",
        ),
    ]


@pytest.fixture(scope="session")
def two_loops_composite(two_loops):
    """The one-vertex two-loop graph insplit into two_loops' complete
    2-vertex graph, then outsplit at V1: three vertices."""
    spec = SplitSpec("outsplit", {"V1": (("l1",), ("m12",)), "V2": (("m21", "l2"),)})
    return split_apply(two_loops[1], spec).graph


@pytest.fixture(scope="session")
def funnel():
    """Two sources into y, then y -> z: the insplit whose weightings do not
    pull back (the copies of e land on distinct new vertices)."""
    g = DirectedMultigraph(
        ("w", "x", "y", "z"),
        (Edge("wy", "w", "y"), Edge("xy", "x", "y"), Edge("e", "y", "z")),
    )
    spec = SplitSpec("insplit", {"y": (("wy",), ("xy",)), "z": (("e",),)})
    return g, spec
