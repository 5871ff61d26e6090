"""Command-line surface over the file formats.

Exit codes: 0 success, 1 negative mathematical result (failed verification,
infeasible lift, nothing found within bounds), 2 usage or input error, 3
internal error (a bug in ssekit: one ``internal error:`` line on stderr, no
traceback).  Negative results always come with a machine-readable reason on
stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import Any, Callable

from .corpus import random_graph
from .graphs import (
    DirectedMultigraph,
    EdgeFunction,
    GraphError,
    GraphFormatError,
    NonnegIntMatrix,
    _json_text,
    classify_vertices,
    graph_from_json_obj,
    graph_to_json_obj,
    parse_graph_with_weights,
    parse_json,
    to_dot,
)
from .invariants import periodic_point_profile, sse_invariant_filter
from .search import sse_chain_search
from .splits import _inherited_weights, parse_split_spec, split_witness
from .sse import (
    EssePair,
    SseWitness,
    _entry_bound,
    find_theta_bijections,
    matrix_essse_search,
    matrix_essse_verify,
    parse_witness,
    str_list,
    str_map,
    verify_sse_witness,
    witness_from_json_obj,
    witness_to_json_obj,
)
from .weights import lift_edge_function, push_forward, transport_g_from_h

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"cannot read {path}: not UTF-8 text: {exc}") from None


def _parsed(path: str, parse: Callable[[Any], Any], data: Any) -> Any:
    """``parse(data)``, with a format error prefixed by the file it came from."""
    try:
        return parse(data)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def _load_json(path: str) -> object:
    return _parsed(path, parse_json, _read(path))


def _load_graph(path: str) -> tuple[DirectedMultigraph, EdgeFunction | None]:
    return _parsed(path, parse_graph_with_weights, _read(path))


def _load_witness(path: str) -> SseWitness:
    return _parsed(path, parse_witness, _read(path))


def _load_matrix(path: str) -> NonnegIntMatrix:
    return _parsed(path, NonnegIntMatrix.from_json_obj, _load_json(path))


def _load_weight_map(path: str, graph: DirectedMultigraph) -> EdgeFunction:
    """A weight file is either a graph file with weights on every edge or a
    bare {"weights": {edge-id: int}} map.  Either way the weights are bound
    to the expected graph by edge id, so edge order in the file is free; a
    map that does not fit the graph is an error naming the file."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "weights" in obj and "edges" not in obj:
        wmap = obj["weights"]
        if not isinstance(wmap, dict):
            raise GraphFormatError(f'{path}: "weights" must be an object')
    else:
        _, fn = _parsed(path, graph_from_json_obj, obj)
        if fn is None:
            raise GraphFormatError(f"{path}: no weights present")
        wmap = fn.weights
    try:
        return EdgeFunction(graph, wmap)
    except GraphError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def _emit(obj: dict) -> None:
    sys.stdout.write(_json_text(obj) + "\n")


def _weight_obj(fn: EdgeFunction) -> dict:
    return {eid: fn(eid) for eid in fn.graph.edge_ids()}


# -- subcommands -------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    g, fn = _load_graph(args.graph)
    _emit(
        {
            "valid": True,
            "vertices": len(g.vertices),
            "edges": len(g.edges),
            "weighted": fn is not None,
        }
    )
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args.graph)
    sources, sinks = classify_vertices(g)
    _emit({"sources": list(sources), "sinks": list(sinks)})
    return EXIT_OK


def cmd_split(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args.graph)
    spec = _parsed(args.spec, parse_split_spec, _read(args.spec))
    if spec.kind != args.command:
        raise GraphFormatError(f"{args.spec}: expected an {args.command} spec, found {spec.kind!r}")
    f = _load_weight_map(args.weights, g) if args.weights else None
    bundle = split_witness(g, spec)
    g2, h = _inherited_weights(f, bundle) if f is not None else (None, None)
    out: dict = {
        "e2": graph_to_json_obj(bundle.e2, g2),
        "vertex_origin": {k: list(v) for k, v in bundle.application.vertex_origin.items()},
        "edge_origin": {k: list(v) for k, v in bundle.application.edge_origin.items()},
    }
    if args.witness:
        out["witness"] = witness_to_json_obj(bundle.witness)
        out["phi1"] = dict(bundle.phi1)
        out["phi2"] = dict(bundle.phi2)
        if h is not None:
            out["h"] = _weight_obj(h)
    _emit(out)
    return EXIT_OK


def cmd_sse_verify(args: argparse.Namespace) -> int:
    e1, _ = _load_graph(args.e1)
    e2, _ = _load_graph(args.e2)
    w = _load_witness(args.witness)
    report = verify_sse_witness(e1, e2, w)
    _emit(report.to_json_obj())
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def cmd_theta_search(args: argparse.Namespace) -> int:
    e1, _ = _load_graph(args.e1)
    e2, _ = _load_graph(args.e2)
    e3, _ = _load_graph(args.e3)
    obj = _load_json(args.sides)
    if not isinstance(obj, dict):
        raise GraphFormatError(f"{args.sides}: sides file must be an object")
    try:
        lists = [str_list(obj, key) for key in ("side1", "side2", "e21", "e12")]
        maps = [str_map(obj, key) for key in ("vmap1", "vmap2")]
    except GraphFormatError as exc:
        raise GraphFormatError(f"{args.sides}: {exc}") from None
    result = find_theta_bijections(e1, e2, e3, *lists, *maps)
    if result is None:
        _emit({"status": "absent", "reason": "fiber counts differ"})
        return EXIT_NEGATIVE
    theta1, theta2 = result
    _emit(
        {
            "status": "found",
            "theta1": {k: list(v) for k, v in theta1.items()},
            "theta2": {k: list(v) for k, v in theta2.items()},
        }
    )
    return EXIT_OK


def cmd_lift(args: argparse.Namespace) -> int:
    w = _load_witness(args.witness)
    g = _load_weight_map(args.g, w.implied_graph2())
    f = _load_weight_map(args.f, w.implied_graph1()) if args.f else None
    outcome = lift_edge_function(w, g, f)
    _emit(outcome.to_json_obj())
    return EXIT_OK if outcome.feasible else EXIT_NEGATIVE


def cmd_transport(args: argparse.Namespace) -> int:
    if args.f and not args.phi_side:
        raise GraphFormatError("--f needs --phi-side")
    w = _load_witness(args.witness)
    if args.h:
        h = _load_weight_map(args.h, w.e3)
        g = transport_g_from_h(w, h)
        _emit({"g": _weight_obj(g)})
        return EXIT_OK
    f = _load_weight_map(args.f, w.implied_graph1())
    h, g = push_forward(w, f, args.phi_side)
    _emit({"h": _weight_obj(h), "g": _weight_obj(g)})
    return EXIT_OK


def cmd_matrix_verify(args: argparse.Namespace) -> int:
    pair = EssePair(
        _load_matrix(args.a), _load_matrix(args.b), _load_matrix(args.r), _load_matrix(args.s)
    )
    ok = matrix_essse_verify(pair)
    _emit({"equivalent": ok})
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_matrix_search(args: argparse.Namespace) -> int:
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    bound = _entry_bound(a, b, args.bound)
    found = matrix_essse_search(a, b, bound)
    if found is None:
        _emit({"status": "absent", "entry_bound": bound})
        return EXIT_NEGATIVE
    r, s = found
    _emit({"status": "found", "r": r.to_json_obj(), "s": s.to_json_obj()})
    return EXIT_OK


def cmd_chain_search(args: argparse.Namespace) -> int:
    e1, _ = _load_graph(args.e1)
    e2, _ = _load_graph(args.e2)
    result = sse_chain_search(
        e1,
        e2,
        max_steps=args.max_steps,
        max_vertices=args.max_vertices,
        max_parts=args.max_parts,
    )
    _emit(result.to_json_obj())
    return EXIT_OK if result.status == "found" else EXIT_NEGATIVE


def cmd_invariants(args: argparse.Namespace) -> int:
    g1, _ = _load_graph(args.g1)
    if args.g2 is None:
        _emit(periodic_point_profile(g1, args.n).to_json_obj())
        return EXIT_OK
    g2, _ = _load_graph(args.g2)
    result = sse_invariant_filter(g1, g2, args.n)
    _emit(result.to_json_obj())
    return EXIT_OK if result.passed else EXIT_NEGATIVE


def cmd_export(args: argparse.Namespace) -> int:
    obj = _load_json(args.graph)
    if isinstance(obj, dict) and "e3" in obj:
        w = _parsed(args.graph, witness_from_json_obj, obj)
        sys.stdout.write(to_dot(w.e3, blue_edges=w.e21, red_edges=w.e12))
        return EXIT_OK
    g, fn = _parsed(args.graph, graph_from_json_obj, obj)
    sys.stdout.write(to_dot(g, weights=fn))
    return EXIT_OK


def cmd_corpus(args: argparse.Namespace) -> int:
    for flag, ok, need in (
        ("--count", args.count >= 0, "nonnegative"),
        ("--max-vertices", args.max_vertices >= 1, "positive"),
        ("--max-edges", args.max_edges >= 0, "nonnegative"),
    ):
        if not ok:
            raise GraphError(f"{flag} must be {need}")
    rng = random.Random(args.seed)
    graphs = [
        random_graph(rng, max_vertices=args.max_vertices, max_edges=args.max_edges)
        for _ in range(args.count)
    ]
    _emit({"seed": args.seed, "graphs": [graph_to_json_obj(g) for g in graphs]})
    return EXIT_OK


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="ssekit",
        description="Strong shift equivalence toolkit for finite directed multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a graph file")
    p.add_argument("graph")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="list sources and sinks")
    p.add_argument("graph")
    p.set_defaults(func=cmd_classify)

    for kind in ("insplit", "outsplit"):
        p = sub.add_parser(kind, help=f"apply an {kind} and optionally emit its witness")
        p.add_argument("graph")
        p.add_argument("--spec", required=True, help="split spec file")
        p.add_argument("--witness", action="store_true", help="include the intermediate graph and witness")
        p.add_argument("--weights", help="weight file to transport through the split")
        p.set_defaults(func=cmd_split)

    p = sub.add_parser("sse-verify", help="check the four witness conditions")
    p.add_argument("e1")
    p.add_argument("e2")
    p.add_argument("--witness", required=True)
    p.set_defaults(func=cmd_sse_verify)

    p = sub.add_parser("theta-search", help="find canonical theta bijections from sides/classes")
    p.add_argument("e1")
    p.add_argument("e2")
    p.add_argument("e3")
    p.add_argument("--sides", required=True, help="file with side1/side2/e21/e12/vmap1/vmap2")
    p.set_defaults(func=cmd_theta_search)

    p = sub.add_parser("lift", help="solve for an intermediate weighting matching g (and f)")
    p.add_argument("--witness", required=True)
    p.add_argument("--g", required=True, help="side-2 weight file")
    p.add_argument("--f", help="side-1 weight file")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("transport", help="construct weightings across a witness")
    p.add_argument("--witness", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--h", help="intermediate weight file; emits g = h(theta2(.))")
    group.add_argument("--f", help="side-1 weight file; emits (h, g) via --phi-side")
    p.add_argument("--phi-side", choices=("e12", "e21"), help="witness class phi maps onto")
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("matrix-verify", help="check A = R*S and S*R = B")
    for name in ("a", "b", "r", "s"):
        p.add_argument(name, metavar=name.upper())
    p.set_defaults(func=cmd_matrix_verify)

    p = sub.add_parser("matrix-search", help="search for R, S with bounded entries")
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")
    p.add_argument("--bound", type=int, default=None, help="entry bound (default: max entry of A, B)")
    p.set_defaults(func=cmd_matrix_search)

    p = sub.add_parser("chain-search", help="bounded bidirectional split-chain search")
    p.add_argument("e1")
    p.add_argument("e2")
    p.add_argument("--max-steps", type=int, default=3)
    p.add_argument("--max-vertices", type=int, default=10)
    p.add_argument("--max-parts", type=int, default=2)
    p.set_defaults(func=cmd_chain_search)

    p = sub.add_parser("invariants", help="periodic-point profile, or compare two graphs")
    p.add_argument("g1")
    p.add_argument("g2", nargs="?", default=None)
    p.add_argument("--n", type=int, default=6, help="largest period")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("export", help="DOT export of a graph or a witness file")
    p.add_argument("graph")
    p.add_argument("--dot", action="store_true", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("corpus", help="emit a seeded random graph corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-vertices", type=int, default=6)
    p.add_argument("--max-edges", type=int, default=12)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except GraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # a bug, never a mathematical result
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        sys.stderr.write(f"internal error: {detail}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
