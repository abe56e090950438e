"""Disjoint q-cycle packing in tournaments."""

from .classic import (
    NotStrongError,
    cycle_of_length,
    cycle_through_vertex,
    extend_cycle,
    hamiltonian_cycle,
    hamiltonian_path,
)
from .core import (
    Cycle,
    CyclePacking,
    DuplicatePairError,
    MissingPairError,
    Path,
    SelfLoopError,
    Tournament,
    TournamentError,
    VertexRangeError,
    build_tournament,
    is_cycle,
    is_path,
)
from .gen import (
    min_degree_tournament,
    planted_move_instance,
    q_cycle_free_tournament,
    random_tournament,
    rotational_tournament,
)
from .matching import dominating_vertices, has_k_matching, max_matching_with_cover
from .oracle import (
    OracleCapError,
    SearchSpec,
    counterexample_search,
    enumerate_q_cycles,
    max_disjoint_q_cycles,
)
from .packer import (
    PackBudget,
    PackReport,
    PathPartition,
    grow_tail,
    greedy_maximal_packing,
    move_absorb,
    move_three_for_two,
    move_two_for_one,
    pack,
    partition_remainder,
    select_receptive_cycle,
    verify_packing,
)
from .surgery import (
    absorb,
    fact1_shrink,
    fact2_shrink,
    fact3_double_shrink,
    fact4_low_vertex,
    splice_and_trim,
)
from .trn import TrnParseError
from . import trn

__all__ = [name for name in dir() if not name.startswith("_")]
