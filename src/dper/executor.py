"""Bottom-up tree valuation with derivative-sign maximizer extraction.

Valuating a graded project-join tree yields the maximum expected satisfaction
probability at the root.  While projecting each existential variable the
executor first records its derivative sign on a stack; replaying the stack
afterwards extends the empty assignment into a maximizing one, top projection
first.  Fixed orders make the output reproducible: children are valuated in
stored order and projection sets are processed in ascending variable id.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from .formula import Problem
from .pbf import DiagramStore, DsgnFunc, PbFunc, VarOrder
from .planner import PjTree, check_graded, check_tree
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
    width: int | None = None
    tree_nodes: int | None = None
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


def _subtree_postorder(t: PjTree, v: int) -> list[int]:
    out: list[int] = []
    stack: list[tuple[int, bool]] = [(v, False)]
    while stack:
        nid, expanded = stack.pop()
        if expanded:
            out.append(nid)
            continue
        stack.append((nid, True))
        for c in reversed(t.nodes[nid].children):
            stack.append((c, False))
    return out


def valuate(p: Problem, t: PjTree, v: int, sigma: list[DsgnFunc],
            store: DiagramStore | None = None,
            stats: SolveStats | None = None) -> PbFunc:
    """Valuation of node v, pushing derivative signs for existential vars.

    Leaves valuate to their clause function.  An internal node joins its
    children's valuations left to right and then projects its variable set in
    ascending id order; each existential variable's derivative sign is pushed
    before that variable is projected.  The store's op cache is cleared after
    every internal node, which bounds its memory to one node's work.
    """
    if store is None:
        store = DiagramStore(tree_var_order(p, t))

    def note(f: PbFunc):
        if stats is not None:
            s = f.support_size()
            if s > stats.max_support:
                stats.max_support = s

    vals: dict[int, PbFunc] = {}
    for nid in _subtree_postorder(t, v):
        n = t.nodes[nid]
        if n.is_leaf:
            f = store.clause_func(p.clauses[n.clause])
        else:
            f = store.constant(1.0)
            for c in n.children:
                f = f.join(vals.pop(c))
                note(f)
            for x in sorted(n.projected):
                if x in p.X:
                    sigma.append(f.dsgn(x))
                    f = f.exists_project(x)
                else:
                    f = f.rand_project(x, p.pr[x])
                note(f)
            store.clear_cache()
        note(f)
        vals[nid] = f
    return vals[v]


def _replay_stack(p: Problem, sigma: list[DsgnFunc]) -> dict[int, bool]:
    """Pop derivative signs into a total existential assignment.

    Existential variables untouched by any entry (absent from every clause)
    default to 0; any value is optimal for them.
    """
    tau: dict[int, bool] = {}
    while sigma:
        entry = sigma.pop()
        tau[entry.var] = entry.pick(tau)
    for x in p.X:
        tau.setdefault(x, False)
    return tau


def solve(p: Problem, t: PjTree, node_limit: int | None = None,
          deadline: float | None = None) -> SolveResult:
    """Maximum and a maximizer from a valid graded project-join tree."""
    t0 = time.perf_counter()
    store = DiagramStore(tree_var_order(p, t), node_limit=node_limit,
                         deadline=deadline)
    stats = SolveStats(width=tree_width(t, p), tree_nodes=len(t.nodes))
    sigma: list[DsgnFunc] = []
    root_val = valuate(p, t, t.root, sigma, store, stats)
    maximum = root_val.evaluate({})
    tau = _replay_stack(p, sigma)
    stats.diagram_nodes = store.node_count
    stats.exec_seconds = time.perf_counter() - t0
    return SolveResult(maximum=maximum, maximizer=tau, stats=stats)


def solve_monolithic(p: Problem, var_cap: int = MONOLITHIC_VAR_CAP,
                     node_limit: int | None = None,
                     deadline: float | None = None) -> SolveResult:
    """Join every clause, project all of Y, then peel X one variable at a time.

    This ignores the factored form entirely, so it is guarded by a variable
    cap.  Every existential variable gets a derivative-sign entry here, even
    one the joined function no longer depends on (its chooser is constantly
    1, so such a variable comes back as 1 by the tie rule).
    """
    t0 = time.perf_counter()
    n = len(p.quantified)
    if n > var_cap:
        raise ValueError(f"{n} variables exceed the monolithic cap {var_cap}")
    store = DiagramStore(VarOrder(sorted(p.quantified)), node_limit=node_limit,
                         deadline=deadline)
    stats = SolveStats()
    f = store.constant(1.0)
    for c in p.clauses:
        f = f.join(store.clause_func(c))
    for y in sorted(p.Y):
        f = f.rand_project(y, p.pr[y])
    sigma: list[DsgnFunc] = []
    for x in sorted(p.X, reverse=True):
        sigma.append(f.dsgn(x))
        f = f.exists_project(x)
    maximum = f.evaluate({})
    tau: dict[int, bool] = {}
    while sigma:  # reversed push order: replay ascends variable ids
        entry = sigma.pop()
        tau[entry.var] = entry.pick(tau)
    stats.diagram_nodes = store.node_count
    stats.max_support = n
    stats.exec_seconds = time.perf_counter() - t0
    return SolveResult(maximum=maximum, maximizer=tau, stats=stats)


# -- annotated execution ------------------------------------------------------


class _DebugContext:
    """State for the annotated run: eliminated set E and active multiset A.

    The run checks, at every pre/join/project/post point, that the product of
    the active functions equals the reference function obtained by projecting
    the eliminated variables out of the fully joined formula.  Equality is
    pointwise within a tolerance because the two sides multiply in different
    orders.
    """

    def __init__(self, p: Problem, t: PjTree, store: DiagramStore, tol: float):
        self.p = p
        self.t = t
        self.store = store
        self.tol = tol
        self.width = tree_width(t, p)
        self.clause_funcs = [store.clause_func(c) for c in p.clauses]
        joined = store.constant(1.0)
        for cf in self.clause_funcs:
            joined = joined.join(cf)
        self.joined_all = joined
        self.eliminated: set[int] = set()
        self.active: Counter[int] = Counter(cf.root for cf in self.clause_funcs)

    def reference(self, eliminated=None) -> PbFunc:
        g = self.joined_all
        elim = self.eliminated if eliminated is None else eliminated
        for y in sorted(elim & self.p.Y):
            g = g.rand_project(y, self.p.pr[y])
        for x in sorted(elim & self.p.X):
            g = g.exists_project(x)
        return g

    def active_product(self) -> PbFunc:
        f = self.store.constant(1.0)
        for h in sorted(self.active.elements()):
            f = f.join(PbFunc(self.store, h))
        return f

    def remove_active(self, f: PbFunc, point: str, node):
        if self.active[f.root] <= 0:
            raise DebugAssertionError(point, node,
                                      detail="active multiset missing a function")
        self.active[f.root] -= 1

    def insert_active(self, f: PbFunc):
        self.active[f.root] += 1

    def check(self, point: str, node=None, var=None):
        lhs = self.active_product()
        rhs = self.reference()
        if not self.store.approx_equal(lhs, rhs, self.tol):
            raise DebugAssertionError(point, node, var,
                                      detail="active product diverged from "
                                             "projected formula")

    def check_diagram(self, f: PbFunc, point: str, node, var=None):
        if f.support_size() > self.width:
            raise DebugAssertionError(point, node, var,
                                      detail=f"support {f.support_size()} exceeds "
                                             f"tree width {self.width}")
        for val in f.terminal_values():
            if not (0.0 <= val <= 1.0):
                raise DebugAssertionError(point, node, var,
                                          detail=f"terminal {val} outside [0, 1]")


def _debug_valuate(ctx: _DebugContext, v: int, sigma: list[DsgnFunc]) -> PbFunc:
    p, t = ctx.p, ctx.t
    ctx.check("pre-condition", v)
    n = t.nodes[v]
    if n.is_leaf:
        f = ctx.clause_funcs[n.clause]
    else:
        f = ctx.store.constant(1.0)
        ctx.insert_active(f)
        for u in n.children:
            h = _debug_valuate(ctx, u, sigma)
            prev = f
            f = prev.join(h)
            ctx.remove_active(h, "join-condition", v)
            ctx.remove_active(prev, "join-condition", v)
            ctx.insert_active(f)
            ctx.check_diagram(f, "join-condition", v)
        ctx.check("join-condition", v)
        for x in sorted(n.projected):
            prev = f
            if x in p.X:
                sigma.append(prev.dsgn(x))
                f = prev.exists_project(x)
            else:
                f = prev.rand_project(x, p.pr[x])
            ctx.eliminated.add(x)
            ctx.remove_active(prev, "project-condition", v)
            ctx.insert_active(f)
            ctx.check_diagram(f, "project-condition", v, x)
            ctx.check("project-condition", v, x)
    ctx.check("post-condition", v)
    return f


def debug_assert_mode(p: Problem, t: PjTree, var_cap: int = DEBUG_VAR_CAP,
                      tol: float = DEBUG_TOL, validate: bool = True) -> SolveResult:
    """Solve while checking every annotated-algorithm assertion.

    The checked identity materializes the fully joined formula, so the run is
    guarded by a variable cap.  With validate=True the structural tree checks
    run first; either way a corrupted tree trips an assertion before any
    answer is returned.
    """
    if len(p.quantified) > var_cap:
        raise ValueError(f"{len(p.quantified)} variables exceed the debug cap "
                         f"{var_cap}")
    if validate:
        check_tree(t, p)
        check_graded(t, p.X, p.Y)
    t0 = time.perf_counter()
    store = DiagramStore(tree_var_order(p, t))
    ctx = _DebugContext(p, t, store, tol)
    stats = SolveStats(width=ctx.width, tree_nodes=len(t.nodes))
    sigma: list[DsgnFunc] = []
    root_val = _debug_valuate(ctx, t.root, sigma)

    formula_vars = p.all_clause_vars()
    if ctx.eliminated != formula_vars:
        raise DebugAssertionError(
            "post-condition", t.root,
            detail=f"eliminated {sorted(ctx.eliminated)} != formula variables "
                   f"{sorted(formula_vars)}")
    if not root_val.is_constant():
        raise DebugAssertionError("post-condition", t.root,
                                  detail="root valuation is not constant")
    maximum = root_val.evaluate({})

    # maximizer assertions: after each pop, tau maximizes the formula with the
    # still-eliminated variables projected out
    tau: dict[int, bool] = {}
    while sigma:
        entry = sigma.pop()
        x = entry.var
        if x not in ctx.eliminated or x in tau:
            raise DebugAssertionError("maximizer", var=x,
                                      detail="popped variable not pending")
        unassigned = entry.chooser.support - set(tau)
        if unassigned:
            raise DebugAssertionError(
                "maximizer", var=x,
                detail=f"chooser depends on unassigned {sorted(unassigned)}")
        tau[x] = entry.pick(tau)
        ctx.eliminated.discard(x)
        g = ctx.reference()
        m_here = g
        for v2 in sorted(g.support):
            m_here = m_here.exists_project(v2)
        val_at_tau = g.evaluate(tau)
        if abs(val_at_tau - m_here.evaluate({})) > tol:
            raise DebugAssertionError(
                "maximizer", var=x,
                detail=f"assignment value {val_at_tau} is not the maximum "
                       f"{m_here.evaluate({})}")
    if ctx.eliminated & p.X:
        raise DebugAssertionError(
            "maximizer",
            detail=f"existential variables never popped: "
                   f"{sorted(ctx.eliminated & p.X)}")
    for x in p.X:
        tau.setdefault(x, False)
    stats.diagram_nodes = store.node_count
    stats.exec_seconds = time.perf_counter() - t0
    return SolveResult(maximum=maximum, maximizer=tau, stats=stats)
