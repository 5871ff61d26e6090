"""Per-layer tracing of ssekit from outside: spans around calls into each
module's public functions, installed by wrapping, with nothing changed under
``src/``.

A target is found by name and then wrapped by object identity wherever that
object is bound: in every loaded ``ssekit`` module namespace and in every
ssekit class's attributes.  A function that later moves to another module
is still found and still wrapped at every import site.  Generator functions
get one span per ``next()``, so the time a consumer spends between items is
not charged to the generator.

Spans carry a name, start, end, parent span and query id.  They are kept in
memory in flat arrays and written out when the run ends.  A span's self time
is its duration minus the time covered by its child spans.  Nothing here
waits on a thread, lock or process, so no span has a wait time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

# (span name, module hint, attribute path).  Several targets may share a
# span name; the layer metric then covers all of them.
SPANS = [
    ("graphs.canonical_key", "graphs", "canonical_key"),
    ("graphs.DirectedMultigraph.init", "graphs", "DirectedMultigraph.__init__"),
    ("graphs.NonnegIntMatrix.matmul", "graphs", "NonnegIntMatrix.matmul"),
    ("graphs.paths_between", "graphs", "paths_between"),
    ("graphs.parse_graph_with_weights", "graphs", "parse_graph_with_weights"),
    ("splits.enumerate_split_specs", "splits", "enumerate_split_specs"),
    ("splits.apply", "splits", "insplit_apply"),
    ("splits.apply", "splits", "outsplit_apply"),
    ("splits.validate_split_spec", "splits", "validate_split_spec"),
    ("splits.witness", "splits", "insplit_witness"),
    ("splits.witness", "splits", "outsplit_witness"),
    ("splits.transport", "splits", "insplit_transport_f"),
    ("splits.transport", "splits", "outsplit_transport_f"),
    ("invariants.periodic_point_profile", "invariants", "periodic_point_profile"),
    ("sse.sse_chain_search", "sse", "sse_chain_search"),
    ("sse.matrix_essse_search", "sse", "matrix_essse_search"),
    ("sse.verify_sse_witness", "sse", "verify_sse_witness"),
    ("sse.find_theta_bijections", "sse", "find_theta_bijections"),
    ("sse.parse_witness", "sse", "parse_witness"),
    ("sse.witness_to_json_obj", "sse", "witness_to_json_obj"),
    ("weights.lift_edge_function", "weights", "lift_edge_function"),
    ("weights.push_forward", "weights", "weights_from_f_E12"),
    ("weights.push_forward", "weights", "weights_from_f_E21"),
    ("weights.push_forward", "weights", "transport_g_from_h"),
    ("cli.main", "cli", "main"),
]

# Wrapped only to count at the boundary where the work happens; no span, so
# their time stays with the caller.
PROBES = [
    ("splits.split_vertex_count", "splits", "split_vertex_count"),
    ("invariants.sse_invariant_filter", "invariants", "sse_invariant_filter"),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.query = 0
        self.span_name = array("i")
        self.span_query = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.covered = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._chain: dict | None = None
        self._in_filter = 0
        self._restore: list[tuple[object, str, object]] = []
        # Counts taken where the work happens, keyed by span or probe name.
        self._hooks = {
            "sse.sse_chain_search": self._on_chain_search,
            "graphs.canonical_key": self._on_canonical_key,
            "splits.split_vertex_count": self._on_split_vertex_count,
            "invariants.sse_invariant_filter": self._on_invariant_filter,
            "invariants.periodic_point_profile": self._on_profile,
            "weights.lift_edge_function": self._on_lift,
        }

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.span_query.append(self.query)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.covered.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        parent = self.span_parent[idx]
        if parent >= 0:
            self.covered[parent] += t - self.start[idx]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        nid = self.name_id(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self.enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.exit(idx)
                    self.count(name + ".items")
                    yield item

            return gen_wrapper

        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = hook(fn, args, kwargs) if hook else None
            result = None
            idx = self.enter(nid)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.exit(idx)
                if done is not None:
                    done(result)

        return wrapper

    def _probe_wrapper(self, name: str, fn):
        hook = self._hooks[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = hook(fn, args, kwargs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                done(result)

        return wrapper

    # -- hooks -------------------------------------------------------------
    # Each hook runs before the call and returns ``done(result)``, which runs
    # after it; ``result`` is None when the call raised.

    def _on_chain_search(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        self._chain = {"max_vertices": bound.arguments.get("max_vertices"), "keys": set(), "endpoint": None}

        def done(result) -> None:
            self.count("sse.chain.distinct_keys", len(self._chain["keys"]))
            self._chain = None

        return done

    def _on_canonical_key(self, fn, args, kwargs):
        def done(key) -> None:
            if self._chain is not None and key is not None:
                self._chain["keys"].add(key)
                self.count("sse.chain.key_calls")

        return done

    def _on_split_vertex_count(self, fn, args, kwargs):
        def done(n) -> None:
            if self._chain is not None and n is not None and self._chain["max_vertices"] is not None:
                self.count("splits.specs_cut", n > self._chain["max_vertices"])

        return done

    def _on_invariant_filter(self, fn, args, kwargs):
        self._in_filter += 1

        def done(result) -> None:
            self._in_filter -= 1
            if self._chain is not None and result is not None:
                self._chain["endpoint"] = result.profile1

        return done

    def _on_profile(self, fn, args, kwargs):
        def done(profile) -> None:
            chain = self._chain
            if chain is not None and profile is not None and not self._in_filter and chain["endpoint"] is not None:
                self.count("invariants.child_profiles")
                self.count("invariants.child_profile_rejects", profile != chain["endpoint"])

        return done

    def _on_lift(self, fn, args, kwargs):
        def done(outcome) -> None:
            if outcome is not None:
                self.count("weights.lift.equations", len(outcome.equations))

        return done

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "ssekit" or n.startswith("ssekit.")]
        for targets, make in ((SPANS, self._span_wrapper), (PROBES, self._probe_wrapper)):
            for name, hint, path in targets:
                obj = _locate(modules, hint, path)
                if obj is None:
                    self.missing.append(f"{hint}.{path}")
                    continue
                self._replace(modules, obj, make(name, obj))

    def _replace(self, modules, obj, wrapper) -> None:
        owners: list[object] = []
        for m in modules:
            owners.append(m)
            owners.extend(
                v for v in vars(m).values()
                if isinstance(v, type) and getattr(v, "__module__", "").startswith("ssekit")
            )
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is obj:
                    setattr(owner, attr, wrapper)
                    self._restore.append((owner, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name."""
        calls = {n: 0 for n in self.names}
        self_s = {n: 0.0 for n in self.names}
        for i in range(len(self.start)):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += (self.end[i] - self.start[i]) - self.covered[i]
        return calls, self_s

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("query\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.span_query[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.span_parent[i]}\n"
                )


def _locate(modules, hint: str, path: str):
    """The object at ``path`` in ``ssekit.<hint>`` if there, else in any
    loaded ssekit module.  Methods come from the class ``__dict__``."""
    preferred = [m for m in modules if m.__name__ == f"ssekit.{hint}"]
    for m in preferred + [m for m in modules if m not in preferred]:
        obj = m
        for part in path.split("."):
            obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
            if obj is None:
                break
        if callable(obj):
            return obj
    return None
