"""Exact exist-random stochastic satisfiability by dynamic programming.

Pipeline: parse a quantified weighted CNF, plan a graded project-join tree by
blockwise bucket elimination, valuate the tree bottom-up over decision
diagrams or, for a small tree, dense tables, and read off the maximum
satisfaction probability plus a maximizing existential assignment from the
recorded derivative signs.
"""

from .executor import SolveResult, debug_assert_mode, solve
from .formula import Problem, parse_problem, primal_graph, serialize, validate
from .planner import PjTree, build_graded_tree, check_tree, plan
from .planner import elimination_order, read_tree, width, write_tree

__version__ = "0.1.0"

__all__ = [
    "Problem", "parse_problem", "serialize", "validate", "primal_graph",
    "PjTree", "plan", "elimination_order", "build_graded_tree",
    "check_tree", "width", "write_tree", "read_tree",
    "solve", "debug_assert_mode", "SolveResult",
]
