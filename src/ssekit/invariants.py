"""Periodic-point counts: cheap necessary invariants for strong shift equivalence.

The number of bi-infinite edge sequences of period n equals the trace of the
n-th power of the adjacency matrix.  Strong shift equivalence preserves every
such trace (tr((RS)^n) = tr((SR)^n)), so a mismatch rules a pair out; equal
traces prove nothing.  ``trace_mismatch`` is the one such refutation, shared by
both searches.  Traces grow exponentially, hence exact integers throughout; a
profile up to period n costs ceil(n/2) - 1 sparse products (``power_traces``).
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import DirectedMultigraph, GraphError, NonnegIntMatrix, adjacency_matrix


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


def sse_invariant_filter(g1: DirectedMultigraph, g2: DirectedMultigraph, n_max: int) -> InvariantFilterResult:
    """Compare profiles; fail at the first period where they differ.

    Passing is necessary but never sufficient for strong shift equivalence,
    and below ``trace_mismatch``'s complete period it can miss a mismatch.
    """
    p1, p2 = periodic_point_profile(g1, n_max), periodic_point_profile(g2, n_max)
    n = _first_mismatch(p1.traces, p2.traces)
    return InvariantFilterResult(n is None, n, p1, p2)


def trace_mismatch(a: NonnegIntMatrix, b: NonnegIntMatrix) -> int | None:
    """The least period n <= N = max(dim A, dim B, 1) with tr(A^n) != tr(B^n), or None.

    N is complete: tr(A^j) is the j-th power sum of A's eigenvalues, and the power
    sums p_1 .. p_N of at most N numbers fix all later ones (Newton's identities).
    """
    n = max(a.nrows, b.nrows, 1)
    return _first_mismatch(a.power_traces(n), b.power_traces(n))


def _first_mismatch(t1: tuple[int, ...], t2: tuple[int, ...]) -> int | None:
    return next((n for n, (x, y) in enumerate(zip(t1, t2), 1) if x != y), None)
