"""The benchmark's own graph and matrix code, independent of ssekit.

Input generation and every correctness oracle use this module, never
``ssekit``, so a change to the program under test can neither change the
workload nor make its own mistakes look right.

A graph is ``(vertices, edges)``: a list of vertex ids and a list of
``(edge_id, src, rng)`` triples.  Adjacency counts follow ssekit's documented
convention, ``A[v][w] = #edges w -> v`` (rows index ranges).
"""

from __future__ import annotations

import itertools
import random

Graph = tuple  # (list[str], list[tuple[str, str, str]])


def graph_json(g: Graph, weights: dict | None = None) -> dict:
    vertices, edges = g
    out = []
    for eid, src, rng in edges:
        rec = {"id": eid, "src": src, "rng": rng}
        if weights is not None:
            rec["weight"] = weights[eid]
        out.append(rec)
    return {"vertices": list(vertices), "edges": out}


def graph_from_json(obj: dict) -> Graph:
    return list(obj["vertices"]), [(e["id"], e["src"], e["rng"]) for e in obj["edges"]]


def matrix_graph(entries: list[list[int]]) -> Graph:
    """One vertex per index, ``entries[v][w]`` parallel edges w -> v."""
    n = len(entries)
    vertices = [str(i) for i in range(n)]
    edges = [
        (f"{v}:{w}:{k}", str(w), str(v))
        for v in range(n)
        for w in range(n)
        for k in range(1, entries[v][w] + 1)
    ]
    return vertices, edges


def relabel(rng: random.Random, g: Graph, vprefix: str, eprefix: str) -> Graph:
    """An isomorphic copy with fresh ids and shuffled vertex and edge order."""
    vertices, edges = g
    order = list(vertices)
    rng.shuffle(order)
    vmap = {v: f"{vprefix}{i}" for i, v in enumerate(order)}
    shuffled = list(edges)
    rng.shuffle(shuffled)
    new_edges = [(f"{eprefix}{i}", vmap[s], vmap[r]) for i, (_, s, r) in enumerate(shuffled)]
    return [vmap[v] for v in order], new_edges


# -- splits ------------------------------------------------------------------


def split_required(g: Graph, kind: str) -> list[str]:
    """Vertices a valid spec must partition: receivers for an insplit,
    vertices that both receive and emit for an outsplit."""
    vertices, edges = g
    receives = {r for _, _, r in edges}
    emits = {s for _, s, _ in edges}
    if kind == "insplit":
        return [v for v in vertices if v in receives]
    return [v for v in vertices if v in receives and v in emits]


def fiber(g: Graph, kind: str, v: str) -> list[str]:
    """The edges an insplit (incoming) or outsplit (outgoing) partitions at v."""
    slot = 2 if kind == "insplit" else 1
    return [e[0] for e in g[1] if e[slot] == v]


def apply_split(g: Graph, kind: str, parts: dict) -> Graph:
    """Apply an insplit or outsplit given as ``{vertex: [[edge, ...], ...]}``.

    Each class becomes a vertex copy.  An insplit gives every edge one copy
    per copy of its source and sends it into the copy of its own class; an
    outsplit gives every edge one copy per copy of its range and sends it out
    of the copy of its own class.  Raises ValueError on an invalid spec.
    """
    vertices, edges = g
    required = split_required(g, kind)
    if set(parts) != set(required):
        raise ValueError(f"{kind} spec maps {sorted(parts)}, needs {sorted(required)}")
    cls: dict[str, int] = {}
    for v, classes in parts.items():
        flat = [e for c in classes for e in c]
        if any(not c for c in classes) or sorted(flat) != sorted(fiber(g, kind, v)):
            raise ValueError(f"{kind} classes at {v!r} do not partition its edges")
        for i, c in enumerate(classes):
            for e in c:
                cls[e] = i

    def copies(v: str) -> list[tuple[str, int | None]]:
        m = len(parts.get(v, ()))
        return [(v, None)] if m == 0 else [(v, i) for i in range(m)]

    def name(c: tuple) -> str:
        return f"{c[0]}#{'' if c[1] is None else c[1]}"

    new_vertices = [name(c) for v in vertices for c in copies(v)]
    new_edges = []
    for eid, s, r in edges:
        if kind == "insplit":
            for c in copies(s):
                new_edges.append((f"{eid}#{c[1]}", name(c), name((r, cls[eid]))))
        else:
            src = name((s, cls.get(eid)))
            for c in copies(r):
                new_edges.append((f"{eid}#{c[1]}", src, name(c)))
    return new_vertices, new_edges


def random_partition(rng: random.Random, items: list[str], max_parts: int) -> list[list[str]]:
    k = rng.randint(1, min(max_parts, len(items)))
    while True:
        assignment = [rng.randrange(k) for _ in items]
        if len(set(assignment)) == k:
            break
    blocks: dict[int, list[str]] = {}
    for item, b in zip(items, assignment):
        blocks.setdefault(b, []).append(item)
    return list(blocks.values())


def random_split(rng: random.Random, g: Graph, kind: str, max_parts: int) -> dict:
    return {v: random_partition(rng, fiber(g, kind, v), max_parts) for v in split_required(g, kind)}


# -- isomorphism ---------------------------------------------------------------


def counts(g: Graph) -> tuple[list[str], dict[tuple[str, str], int]]:
    vertices, edges = g
    c: dict[tuple[str, str], int] = {}
    for _, s, r in edges:
        c[(s, r)] = c.get((s, r), 0) + 1
    return vertices, c


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """Multigraph isomorphism by backtracking over vertex maps, pruned by
    degree signatures and by edge counts against vertices already mapped."""
    v1, c1 = counts(g1)
    v2, c2 = counts(g2)
    if len(v1) != len(v2) or len(g1[1]) != len(g2[1]):
        return False

    def signature(vertices, c):
        sig = {v: [0, 0, 0] for v in vertices}
        for (s, r), k in c.items():
            sig[s][0] += k
            sig[r][1] += k
            if s == r:
                sig[s][2] += k
        return {v: tuple(x) for v, x in sig.items()}

    s1, s2 = signature(v1, c1), signature(v2, c2)
    if sorted(s1.values()) != sorted(s2.values()):
        return False
    order = sorted(v1, key=lambda v: sum(1 for u in v1 if s1[u] == s1[v]))
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        u = order[i]
        for cand in v2:
            if cand in used or s1[u] != s2[cand]:
                continue
            if c1.get((u, u), 0) != c2.get((cand, cand), 0):
                continue
            if any(
                c1.get((u, p), 0) != c2.get((cand, q), 0) or c1.get((p, u), 0) != c2.get((q, cand), 0)
                for p, q in mapping.items()
            ):
                continue
            mapping[u] = cand
            used.add(cand)
            if extend(i + 1):
                return True
            del mapping[u]
            used.discard(cand)
        return False

    return extend(0)


def asymmetric(g: Graph) -> bool:
    """True when the identity is the only vertex permutation preserving edge
    counts (small graphs only: it tries every permutation)."""
    vertices, c = counts(g)
    for perm in itertools.permutations(vertices):
        p = dict(zip(vertices, perm))
        if perm != tuple(vertices) and all(c.get((p[s], p[r]), 0) == k for (s, r), k in c.items()):
            return False
    return True


# -- matrices ------------------------------------------------------------------


def matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    """Dense integer product, skipping zero entries of x."""
    cols = len(y[0]) if y else 0
    out = []
    for row in x:
        acc = [0] * cols
        for t, a in enumerate(row):
            if a:
                yrow = y[t]
                for j in range(cols):
                    acc[j] += a * yrow[j]
        out.append(acc)
    return out


def adjacency(g: Graph) -> list[list[int]]:
    vertices, edges = g
    idx = {v: i for i, v in enumerate(vertices)}
    a = [[0] * len(vertices) for _ in vertices]
    for _, s, r in edges:
        a[idx[r]][idx[s]] += 1
    return a


def traces(g: Graph, n_max: int) -> list[int]:
    """tr(A^1) .. tr(A^n_max) from dense powers of the adjacency matrix."""
    a = adjacency(g)
    power = a
    out = []
    for _ in range(n_max):
        out.append(sum(power[i][i] for i in range(len(power))))
        power = matmul(a, power)
    return out
