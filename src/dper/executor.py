"""Bottom-up tree valuation with derivative-sign maximizer extraction.

Valuating a graded project-join tree yields the maximum expected satisfaction
probability at the root.  While projecting each existential variable the
executor first records its derivative sign on a stack; replaying the stack
afterwards extends the empty assignment into a maximizing one, top projection
first.  Fixed orders make the output reproducible: children are valuated in
stored order and projection sets are processed in ascending variable id.

Every solver is the one postorder loop `valuate` plus the one stack replay
`_replay_stack`: `solve` on a planned tree, `solve_monolithic` on a fixed
two-node tree, and `debug_assert_mode` on a planned tree with an observer that
checks the annotated assertions at each point the loop and the replay report.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from .formula import Problem
from .pbf import DiagramStore, DsgnFunc, PbFunc, VarOrder
from .planner import PjNode, PjTree, check_graded, check_tree
from .planner import width as tree_width

MONOLITHIC_VAR_CAP = 25
DEBUG_VAR_CAP = 16
DEBUG_TOL = 1e-9


class DebugAssertionError(AssertionError):
    """An annotated-run assertion failed, with its program point."""

    def __init__(self, point: str, node=None, var=None, detail=""):
        self.point = point
        self.node = node
        self.var = var
        msg = f"{point} assertion failed"
        if node is not None:
            msg += f" at node {node}"
        if var is not None:
            msg += f" on variable {var}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@dataclass
class SolveStats:
    diagram_nodes: int = 0       # total nodes created; the store never shrinks
    max_support: int = 0         # largest support of any intermediate diagram
    exec_seconds: float = 0.0


@dataclass
class SolveResult:
    maximum: float
    maximizer: dict[int, bool]   # total over the existential block
    stats: SolveStats


def tree_var_order(p: Problem, t: PjTree) -> VarOrder:
    """Diagram order derived from the tree: projection order, then leftovers.

    Tolerates malformed trees (repeated projections) so that the annotated
    debug run, not this helper, reports the corruption.
    """
    seq: list[int] = []
    seen: set[int] = set()
    for nid in t.postorder():
        n = t.nodes[nid]
        for v in sorted(n.projected):
            if v not in seen:
                seen.add(v)
                seq.append(v)
    seq.extend(sorted(p.quantified - seen))
    return VarOrder(seq)


def valuate(p: Problem, t: PjTree, v: int, sigma: list[DsgnFunc],
            store: DiagramStore | None = None,
            stats: SolveStats | None = None, obs=None) -> PbFunc:
    """Valuation of node v, pushing derivative signs for existential vars.

    One pass over `t.postorder(v)`.  Leaves valuate to their clause function.
    An internal node joins its children's valuations left to right and then
    projects its variable set in ascending id order; each existential
    variable's derivative sign is pushed before that variable is projected.
    The store's op cache is cleared after every internal node, which bounds
    its memory to one node's work.

    An observer `obs`, if given, is called at five points of node `nid`:
    `enter(nid)`; `joined(nid, prev, h, f)` after each `f = prev.join(h)`;
    `joins_done(nid, f)` after an internal node's joins; `projected(nid, x,
    prev, f)` after each projection of `x`; and `leave(nid, f)`.
    """
    if store is None:
        store = DiagramStore(tree_var_order(p, t))

    def note(f: PbFunc):
        if stats is not None:
            s = f.support_size()
            if s > stats.max_support:
                stats.max_support = s

    done: list[PbFunc] = []  # valuations whose parent is still ahead
    for nid in t.postorder(v):
        n = t.nodes[nid]
        if obs is not None:
            obs.enter(nid)
        if n.is_leaf:
            f = store.clause_func(p.clauses[n.clause])
        else:
            k = len(done) - len(n.children)
            kids, done[k:] = done[k:], []
            f = store.constant(1.0)
            for h in kids:
                prev, f = f, f.join(h)
                note(f)
                if obs is not None:
                    obs.joined(nid, prev, h, f)
            if obs is not None:
                obs.joins_done(nid, f)
            for x in sorted(n.projected):
                prev = f
                if x in p.X:
                    sigma.append(f.dsgn(x))
                    f = f.exists_project(x)
                else:
                    f = f.rand_project(x, p.pr[x])
                note(f)
                if obs is not None:
                    obs.projected(nid, x, prev, f)
            store.clear_cache()
        note(f)
        if obs is not None:
            obs.leave(nid, f)
        done.append(f)
    return done[-1]


def _replay_stack(p: Problem, sigma: list[DsgnFunc], obs=None) -> dict[int, bool]:
    """Pop derivative signs into a total existential assignment.

    Existential variables untouched by any entry (absent from every clause)
    default to 0; any value is optimal for them.  An observer `obs` is called
    as `picking(entry, tau)` before each pick and `picked(entry, tau)` after.
    """
    tau: dict[int, bool] = {}
    while sigma:
        entry = sigma.pop()
        if obs is not None:
            obs.picking(entry, tau)
        tau[entry.var] = entry.pick(tau)
        if obs is not None:
            obs.picked(entry, tau)
    for x in p.X:
        tau.setdefault(x, False)
    return tau


def _run(p: Problem, t: PjTree, store: DiagramStore, obs=None) -> SolveResult:
    """Valuate the root, then replay the stack, with `obs` observing both."""
    t0 = time.perf_counter()
    stats = SolveStats()
    sigma: list[DsgnFunc] = []
    maximum = valuate(p, t, t.root, sigma, store, stats, obs).evaluate({})
    tau = _replay_stack(p, sigma, obs)
    stats.diagram_nodes = store.node_count
    stats.exec_seconds = time.perf_counter() - t0
    return SolveResult(maximum=maximum, maximizer=tau, stats=stats)


def solve(p: Problem, t: PjTree, node_limit: int | None = None,
          deadline: float | None = None) -> SolveResult:
    """Maximum and a maximizer from a valid graded project-join tree."""
    return _run(p, t, DiagramStore(tree_var_order(p, t), node_limit=node_limit,
                                   deadline=deadline))


def monolithic_tree(p: Problem) -> PjTree:
    """One Y-grade node over every clause leaf, under one X-grade root; each
    projects the clause variables of its block.  Leaf i holds clause i."""
    m = len(p.clauses)
    cv = p.all_clause_vars()
    nodes = {i: PjNode(i, clause=i) for i in range(m)}
    nodes[m] = PjNode(m, children=list(range(m)), projected=cv & p.Y)
    nodes[m + 1] = PjNode(m + 1, children=[m], projected=cv & p.X)
    return PjTree(nodes=nodes, root=m + 1, grade_x={m + 1}, grade_y={m})


def solve_monolithic(p: Problem, var_cap: int = MONOLITHIC_VAR_CAP,
                     node_limit: int | None = None,
                     deadline: float | None = None) -> SolveResult:
    """`solve` on `monolithic_tree(p)`: a cross-check that needs no planning.

    Joining every clause at one node ignores the factored form entirely, so
    this is guarded by a variable cap.  As in `solve`, an existential
    variable that occurs in no clause comes back as 0.
    """
    n = len(p.quantified)
    if n > var_cap:
        raise ValueError(f"{n} variables exceed the monolithic cap {var_cap}")
    return solve(p, monolithic_tree(p), node_limit, deadline)


# -- annotated execution ------------------------------------------------------


class _DebugContext:
    """Observer for the annotated run: eliminated set E and active multiset A.

    At every join/project/post point of `valuate` it checks that the product
    of the active functions equals the reference function obtained by
    projecting the eliminated variables out of the fully joined formula.
    Equality is pointwise within a tolerance because the two sides multiply in
    different orders.  Entering a node checks nothing: the product is still
    the one the previous node's post-condition passed, or before the first
    node the clause product the reference starts from.  Around each pick of
    `_replay_stack` it checks that tau maximizes the formula with the
    still-eliminated variables projected out; what reads tau is checked before
    the pick, so a bad chooser fails here and not in `pick`.
    """

    def __init__(self, p: Problem, t: PjTree, store: DiagramStore, tol: float):
        self.p = p
        self.t = t
        self.store = store
        self.tol = tol
        self.width = tree_width(t, p)
        clause_funcs = [store.clause_func(c) for c in p.clauses]
        self.joined_all = store.constant(1.0)
        for cf in clause_funcs:
            self.joined_all = self.joined_all.join(cf)
        self.eliminated: set[int] = set()
        self.active: Counter[int] = Counter(cf.root for cf in clause_funcs)

    def reference(self) -> PbFunc:
        g = self.joined_all
        for y in sorted(self.eliminated & self.p.Y):
            g = g.rand_project(y, self.p.pr[y])
        for x in sorted(self.eliminated & self.p.X):
            g = g.exists_project(x)
        return g

    def active_product(self) -> PbFunc:
        f = self.store.constant(1.0)
        for h in sorted(self.active.elements()):
            f = f.join(PbFunc(self.store, h))
        return f

    def replace_active(self, old, f: PbFunc, point: str, node, var=None):
        """Swap the active functions `old` for `f`, computed from them; `f`'s
        support must fit the tree width and its terminals lie in [0, 1]."""
        for g in old:
            if self.active[g.root] <= 0:
                raise DebugAssertionError(
                    point, node, detail="active multiset missing a function")
            self.active[g.root] -= 1
        self.active[f.root] += 1
        if f.support_size() > self.width:
            raise DebugAssertionError(point, node, var,
                                      detail=f"support {f.support_size()} exceeds "
                                             f"tree width {self.width}")
        for val in f.terminal_values():
            if not (0.0 <= val <= 1.0):
                raise DebugAssertionError(point, node, var,
                                          detail=f"terminal {val} outside [0, 1]")

    def check(self, point: str, node=None, var=None):
        lhs = self.active_product()
        rhs = self.reference()
        if not self.store.approx_equal(lhs, rhs, self.tol):
            raise DebugAssertionError(point, node, var,
                                      detail="active product diverged from "
                                             "projected formula")

    def enter(self, node):
        if not self.t.nodes[node].is_leaf:
            self.active[self.store.constant(1.0).root] += 1

    def joined(self, node, prev: PbFunc, h: PbFunc, f: PbFunc):
        self.replace_active((h, prev), f, "join-condition", node)

    def joins_done(self, node, f: PbFunc):
        self.check("join-condition", node)

    def projected(self, node, x: int, prev: PbFunc, f: PbFunc):
        self.eliminated.add(x)
        self.replace_active((prev,), f, "project-condition", node, x)
        self.check("project-condition", node, x)

    def leave(self, node, f: PbFunc):
        self.check("post-condition", node)
        if node == self.t.root and self.eliminated != self.p.all_clause_vars():
            raise DebugAssertionError(
                "post-condition", node,
                detail=f"eliminated {sorted(self.eliminated)} != formula "
                       f"variables {sorted(self.p.all_clause_vars())}")
        if node == self.t.root and not f.is_constant():
            raise DebugAssertionError("post-condition", node,
                                      detail="root valuation is not constant")

    def picking(self, entry: DsgnFunc, tau: dict[int, bool]):
        x = entry.var
        if x not in self.eliminated or x in tau:
            raise DebugAssertionError("maximizer", var=x,
                                      detail="popped variable not pending")
        unassigned = entry.chooser.support - set(tau)
        if unassigned:
            raise DebugAssertionError(
                "maximizer", var=x,
                detail=f"chooser depends on unassigned {sorted(unassigned)}")

    def picked(self, entry: DsgnFunc, tau: dict[int, bool]):
        self.eliminated.discard(entry.var)
        g = self.reference()
        m_here = g
        for v2 in sorted(g.support):
            m_here = m_here.exists_project(v2)
        val_at_tau = g.evaluate(tau)
        if abs(val_at_tau - m_here.evaluate({})) > self.tol:
            raise DebugAssertionError(
                "maximizer", var=entry.var,
                detail=f"assignment value {val_at_tau} is not the maximum "
                       f"{m_here.evaluate({})}")


def debug_assert_mode(p: Problem, t: PjTree, var_cap: int = DEBUG_VAR_CAP,
                      tol: float = DEBUG_TOL, validate: bool = True,
                      node_limit: int | None = None,
                      deadline: float | None = None) -> SolveResult:
    """Solve while checking every annotated-algorithm assertion.

    The checked identity materializes the fully joined formula, so the run is
    guarded by a variable cap.  With validate=True the structural tree checks
    run first; either way a corrupted tree trips an assertion before any
    answer is returned.  `node_limit` and `deadline` act as in `solve`; the
    limit also counts the nodes the checks create.
    """
    if len(p.quantified) > var_cap:
        raise ValueError(f"{len(p.quantified)} variables exceed the debug cap "
                         f"{var_cap}")
    if validate:
        check_tree(t, p)
        check_graded(t, p.X, p.Y)
    store = DiagramStore(tree_var_order(p, t), node_limit=node_limit,
                         deadline=deadline)
    return _run(p, t, store, _DebugContext(p, t, store, tol))
