"""Reduced graph powers, cycle bases, and reversibility of coupled automata."""

from .errors import (
    CycleSpaceError,
    GraphError,
    ModelError,
    PowerError,
    RedpowError,
    SolverError,
)
from .graph import (
    Graph,
    RootedTree,
    betti,
    bfs_spanning_tree,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    graph_to_json,
    has_triangles,
    is_connected,
    load_graph,
    dump_graph,
)
from .power import (
    Monomial,
    ReducedPowerGraph,
    build_reduced_power,
    cartesian_power,
    degree_of,
    edge_count,
    orbit_size,
    quotient_by_symmetry,
    vertex_count,
)
from .cyclespace import (
    CycleBasis,
    EdgeVector,
    ElementInfo,
    Gf2Span,
    boundary,
    cycle_decomposition,
    cycle_edge_vector,
    enumerate_simple_cycles,
    fundamental_cycles,
    greedy_mcb,
    host_graph,
    is_cycle,
    project_to_base,
    rank,
    total_length,
)
from .squares import (
    CartesianSquare,
    SquareSpaceReport,
    chord_pair_squares,
    chord_square_count,
    decomposition_basis,
    embed_cycle,
    tree_pair_squares,
    tree_square_count,
    verify_square_space,
)
from .ctmc import (
    BalanceReport,
    CycleCheck,
    KolmogorovReport,
    MasterChain,
    RateSpec,
    SteadyState,
    build_master,
    detailed_balance_check,
    eval_rate,
    kolmogorov_check,
    load_model,
    model_from_dict,
    model_to_dict,
    parse_rational,
    reversible_steady_state,
    single_automaton_check,
    steady_state,
)

__version__ = "0.1.0"
