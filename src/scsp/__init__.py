"""Exact optimization for soft constraint problems whose penalties are
unary or binary submodular functions over an ordered domain 1..M.

Tables are decomposed into generalized interval functions, the instance
becomes a small flow network, and a minimum cut reads off an optimal
assignment.  All arithmetic is exact: penalties are rationals plus an
absorbing infinity.
"""

from .errors import (ApproximationBrokeSubmodularity, DecompositionError,
                     DomainError, GadgetMismatch, IsSubmodular,
                     NotSubmodular, ParameterError, ParseError,
                     PenaltyError, ScopeError, ScspError, TooLarge,
                     WrongConstraintKind)
from .evaluation import INF, ZERO, Evaluation, as_evaluation
from .fileformat import format_instance, parse_instance
from .functions import (BinaryTable, IntervalFunction, UnaryTable, abs_diff,
                        arith_relation, centered_square, crisp_relation,
                        delay, equality_penalty, euclidean_rounded, excess,
                        linear, product_complement, xor_penalty)
from .cutgraph import (SINK, SOURCE, CutResult, FlowEdge, FlowNetwork,
                       build_network, cut_from_assignment,
                       extract_assignment, format_network, min_cut)
from .model import (Assignment, Instance, SoftConstraint, check_assignment,
                    evaluate)
from .solver import (GadgetResult, Solution, brute_force,
                     compile_to_intervals, expand_constraint, solve,
                     xor_gadget)
from .submodular import (PATTERNS, Decomposition, IntervalTerm,
                         SubmodularityWitness, decompose_binary,
                         decompose_unary, find_violation, find_violation_full,
                         is_submodular, reconstruct, term_table)

__version__ = "0.1.0"

__all__ = [
    "ApproximationBrokeSubmodularity", "Assignment", "BinaryTable",
    "CutResult", "Decomposition", "DecompositionError", "DomainError",
    "Evaluation", "FlowEdge", "FlowNetwork", "GadgetMismatch",
    "GadgetResult", "INF", "Instance", "IntervalFunction", "IntervalTerm",
    "IsSubmodular", "NotSubmodular", "PATTERNS", "ParameterError",
    "ParseError", "PenaltyError", "SINK", "SOURCE", "ScopeError",
    "ScspError", "SoftConstraint", "Solution", "SubmodularityWitness",
    "TooLarge", "UnaryTable", "WrongConstraintKind", "ZERO", "abs_diff",
    "arith_relation", "as_evaluation", "brute_force", "build_network",
    "centered_square", "check_assignment", "compile_to_intervals",
    "crisp_relation", "cut_from_assignment", "decompose_binary",
    "decompose_unary", "delay", "equality_penalty", "euclidean_rounded",
    "evaluate", "excess", "expand_constraint", "extract_assignment",
    "find_violation", "find_violation_full", "format_instance",
    "format_network", "is_submodular", "linear", "min_cut",
    "parse_instance", "product_complement", "reconstruct", "solve",
    "term_table", "xor_gadget", "xor_penalty",
]
