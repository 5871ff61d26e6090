"""Periodic-point counts: cheap necessary invariants for strong shift equivalence.

The number of bi-infinite edge sequences of period n equals the trace of the
n-th power of the adjacency matrix.  Strong shift equivalence preserves every
such trace (tr((RS)^n) = tr((SR)^n)), so disagreeing profiles rule a pair out;
agreeing profiles prove nothing.  Traces grow exponentially, hence exact
arbitrary-precision integers throughout.  A profile up to period n costs
ceil(n/2) - 1 sparse matrix products (``NonnegIntMatrix.power_traces``).
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import DirectedMultigraph, GraphError, adjacency_matrix


class PeriodicPointProfile(NamedTuple):
    """traces[i] = trace(A^(i+1)) for i = 0 .. n_max-1."""

    n_max: int
    traces: tuple[int, ...]

    def to_json_obj(self) -> dict:
        return {"n_max": self.n_max, "traces": list(self.traces)}


class InvariantFilterResult(NamedTuple):
    passed: bool
    first_mismatch: int | None
    profile1: PeriodicPointProfile
    profile2: PeriodicPointProfile

    def to_json_obj(self) -> dict:
        obj: dict = {"status": "pass" if self.passed else "fail"}
        if not self.passed:
            obj["n"] = self.first_mismatch
        obj["profile1"] = self.profile1.to_json_obj()
        obj["profile2"] = self.profile2.to_json_obj()
        return obj


def periodic_point_profile(g: DirectedMultigraph, n_max: int) -> PeriodicPointProfile:
    """Exact traces of adjacency-matrix powers 1 .. n_max."""
    if n_max < 1:
        raise GraphError("n_max must be at least 1")
    return PeriodicPointProfile(n_max, adjacency_matrix(g).power_traces(n_max))


def sse_invariant_filter(
    g1: DirectedMultigraph, g2: DirectedMultigraph, n_max: int
) -> InvariantFilterResult:
    """Compare profiles; fail at the first period where they differ.

    Passing is necessary but never sufficient for strong shift equivalence.
    """
    p1 = periodic_point_profile(g1, n_max)
    p2 = periodic_point_profile(g2, n_max)
    for n in range(n_max):
        if p1.traces[n] != p2.traces[n]:
            return InvariantFilterResult(False, n + 1, p1, p2)
    return InvariantFilterResult(True, None, p1, p2)
