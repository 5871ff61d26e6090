"""Strong shift equivalence toolkit for finite directed multigraphs."""

from .graphs import (
    DirectedMultigraph,
    Edge,
    EdgeFunction,
    GraphError,
    GraphFormatError,
    GraphIsomorphism,
    NonnegIntMatrix,
    adjacency_matrix,
    canonical_key,
    classify_vertices,
    graph_from_matrix,
    is_isomorphic,
    parse_graph,
    parse_graph_with_weights,
    paths_between,
    serialize_graph,
    to_dot,
)
from .invariants import (
    InvariantFilterResult,
    PeriodicPointProfile,
    periodic_point_profile,
    sse_invariant_filter,
)
from .splits import (
    ReverseTransportResult,
    SplitApplication,
    SplitReport,
    SplitSpec,
    SplitSpecError,
    SplitWitnessBundle,
    parse_split_spec,
    reverse_transport,
    split_apply,
    split_witness,
    validate_split_spec,
)
from .search import ChainSearchResult, ChainStep, sse_chain_search
from .sse import (
    EssePair,
    EsseWitnessBundle,
    SseWitness,
    WitnessConstructionError,
    WitnessReferenceError,
    WitnessReport,
    find_theta_bijections,
    matrix_essse_search,
    matrix_essse_verify,
    parse_witness,
    verify_sse_witness,
    witness_from_essse,
    witness_to_json_obj,
)
from .weights import (
    LiftEquation,
    LiftOutcome,
    TransportError,
    check_weight_preserving,
    lift_edge_function,
    push_forward,
    transport_g_from_h,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
