"""Two-prover one-round games, their precursors, and the transformations
between them, with exact and heuristic value solvers and numerically
verified strategy-rounding constructions."""

from .games import (
    BipartiteStrategy,
    DeterministicBipartiteStrategy,
    DimensionError,
    MultiRoundGame,
    MultiRoundStrategy,
    PcpGame,
    PcpProofDistribution,
    SizeGuardError,
    TwoProverGame,
    eval_multi_round,
    eval_pcp,
    eval_two_prover,
    is_no_signaling,
    pcp_triple_distribution,
    validate,
)
from .lp import Constraint, LinearProgram, LpSolution, VerificationError, solve_lp
from .transforms import (
    OneInThreeFormula,
    honest_strategy_from_multi_round,
    honest_strategy_from_proof,
    oracularize_multi_round,
    oracularize_pcp,
    oracularize_pcp_dummy,
    parallel_repeat,
    pcp_from_1in3,
    pcp_question_marginal,
)
from .values import (
    ValueResult,
    classical_value,
    entangled_lower_bound,
    multi_round_value,
    no_signaling_value,
    pcp_value,
)
from .quantum import (
    Povm,
    QuantumStrategy,
    catalog_magic_square,
    joint_distribution,
    psd_sqrt,
    pure_state_trace_distance,
    symmetrize_second_prover,
    to_bipartite_strategy,
)
from .rounding import (
    ComRoundingTables,
    HybridFamily,
    InequalityReport,
    InequalityRow,
    NsMarginalTables,
    com_decompose,
    hybrid_family,
    normalize_answer_shape,
    ns_decompose,
    round_com,
    round_no_signaling,
    verify_claim_selection,
    verify_com_claims,
    verify_lemma_distance,
    verify_ns_claims,
)
from .files import parse_formula, parse_game, serialize_formula, serialize_game

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
