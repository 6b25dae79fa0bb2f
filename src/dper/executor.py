"""Bottom-up tree valuation with derivative-sign maximizer extraction.

Valuating a graded project-join tree yields the maximum expected satisfaction
probability at the root.  Before projecting each existential variable the
executor pushes its derivative sign on a stack: the variable and the function
about to be projected.  Replaying the stack afterwards extends the empty
assignment into a maximizing one, top projection first.  Fixed orders make the
output reproducible: children are valuated in stored order and projection
sets are processed in ascending variable id.

Both solvers are the one valuation loop `valuate` plus the one stack replay
`_replay_stack`: `solve`, and `debug_assert_mode` with an observer that
checks the annotated assertions at each point the loop and the replay report.
The loop walks node ids, children before parents, over a node->value map.

Above its randomized-grade nodes a graded tree only multiplies values in
[0, 1] and takes maxima: the MPE half of MAP.  So a value below a lower
bound L on the maximum can never reach it, and an unobserved run prunes
such values, as exact MAP and ER-SSAT searchers do (Park & Darwiche, UAI
2003; DC-SSAT, Majercik & Boots, AAAI 2005).  It walks the tree's
postorder in two phases.  The first walks the nodes outside the x-region
(`x_region`: the top nodes that project only existential variables), which
leaves pending exactly the region's inputs: the randomized-grade nodes and
clause leaves under it.  A search over the existential variables in their
supports then yields a value v that the maximum is at least, and the bound
L = v(1 - delta), whose margin delta covers the rounding between the
search's product order and the tree's (`exist_bound`).  The second phase
walks the region's nodes with every join floored at L: each value below L
becomes 0.  Every value lies in [0, 1] and the region only multiplies and
maxes, so a value below L <= maximum lies only on assignments whose value
is below the maximum.  Every value on an optimal path is unchanged, and
each derivative sign compares an unchanged optimal cofactor with one that
can only fall, so the maximum's bits and the maximizer do not move, ties
included.  A tree whose root projects a randomized variable, or whose
region takes no max or has one input, has no region, so its first phase
is the whole tree, unfloored, as is an observed run's, whose checks
compare against the formula itself.

When the root projects existential variables only, the one it projects
last, x*, is the first its replay decides, and its two cofactors are two
independent solves.  Where they carry nearly all of a large tree's work
and a second CPU is free (`split_var`), `solve` runs them in two processes
(`_split_run`), the cofactor split of parallel diagram packages (Sylvan,
van Dijk & van de Pol, STTT 2017) and the first branch of DC-SSAT.  The
answer is the unsplit run's, bit for bit.  Its counters then cover both
processes: `diagram_nodes` and `peak_live_nodes` are the two halves' sums,
`max_support` and `underflow` are taken over either half (whose functions
lack x*, so `max_support` can read one less than unsplit), `exist_bound`
is the larger of the two floors, and `split` is x* (0 on an unsplit solve).

The loop and the replay run on either of two stores, chosen per solve before
execution by `choose_store` (see DENSE_MAX_WORK): decision diagrams
(`pbf.DiagramStore`) or dense tables (`dense.DenseStore`).  Diagrams order
their levels by maximum-cardinality search on the primal graph
(`diagram_var_order`), which the problem builds once and keeps, so it is
the graph planning read; tables keep the tree's projection order
(`tree_var_order`), so each projection takes the two halves of its table.
Both compute every value by the same float operations in the same order,
so the order changes only how much a diagram shares.  Every function
is a `pbf.PbFunc`, whose operations its store carries out; they use this
contract and nothing more:

- a store gives `constant(c)`, `clause_func(clause)` and `node_done(live)`,
  the step after each internal tree node, where `live()` yields every
  function still needed, and its `deadline`; after the run it reports
  `node_count`, `peak_held`, `underflow` and its `name`;
- a function gives `join` (a product, with an optional floor below which
  every value becomes 0), `exists_project`, `rand_project`, `dsgn` (a
  `pbf.DsgnFunc`), `evaluate`, `support` (the true support) and
  `support_bound` (an O(1) upper bound on its size).

Both stores floor a join alike, so they compute the same functions, and
`max_support` and `underflow` agree between them with or without a floor.

The debug run observes a run on dense tables with no floor, then solves
again, floored, on diagrams and, if `solve` would choose tables, on tables,
and requires the same maximum and maximizer from each; it returns the run
on the store `solve` would choose.  Its checks use this contract plus two
table-store methods on handles: `approx_equal(f, g, tol)`, pointwise
|f - g| <= tol, and `value_range(f)`, the least and the greatest value of f.
"""

from __future__ import annotations

import marshal
import os
import sys
import threading
import time
from functools import reduce
from itertools import chain
from math import prod
from random import Random

from .dense import DenseStore
from .formula import Problem, cofactor, primal_graph
from .pbf import (DeadlineExceeded, DiagramStore, DsgnFunc, PbFunc,
                  ResourceLimitError, poll_deadline)
from .planner import PjTree, check_tree, mcs_order, table_entries
from .planner import width as tree_width

DEBUG_VAR_CAP = 16
DEBUG_TOL = 1e-9

# The most input evaluations `exist_bound`'s search makes.  On each of the
# benchmark's 8 rand-exist instances the search spends all of them, about 2%
# of execution, and its v is the maximum on 4 and 30-77% of it on the rest;
# twice the budget made 1.5% fewer nodes at twice the cost.  Its stop rule
# is live: it ends every band-wide, band-long and rand-verify search first
# (80-369 evaluations), and 462 of 463 over 600 fuzz instances (median 60).
SEARCH_BUDGET = 1 << 10
SEARCH_KICK = 3  # variables flipped to restart the search

# A solve runs on dense tables when the tree's tables hold fewer than
# DENSE_MAX_WORK entries in all: the sum over internal nodes of 2 to the
# number of variables joined there (`planner.table_entries`).  That is the
# exact cost of tables, which is the same whatever the function; a diagram
# can be far smaller, so the cost of diagrams cannot be read off the tree.
# The cap sits where band trees, whose diagrams stay small, stop running
# faster on tables.  Execution times over 8 band trees per width (tables
# against diagrams, in all): width 13, 77k-90k entries, 0.81 times as long
# (2 trees of 8 up to 1.09 times); width 14, 157k-165k entries, 1.09 times
# (6 of 8 slower, up to 1.6 times).  Random 3-CNF trees below the cap,
# the benchmark's rand-verify among them, take 0.37-0.44 times as long.
DENSE_MAX_WORK = 1 << 17

# `solve` splits a tree into two processes (`split_var`) only when its
# tables would hold at least SPLIT_MIN_ENTRIES entries.  That is
# DENSE_MAX_WORK's value, so a split solve runs on diagrams, but it is its
# own constant, so that a run forced onto diagrams by DENSE_MAX_WORK = 0
# still solves small trees in one process.  On the benchmark's rand-exist
# pool such a solve takes 20-120 ms; the fork, the pipe and the child's
# exit cost about 3 ms.
SPLIT_MIN_ENTRIES = 1 << 17
SPLIT_SHARE = 0.9  # least share of table entries at nodes joining x*

# The failures a split solve's child reports by type, so that the parent
# raises the same one and `cli.FAILURES` maps it to the same status.
SPLIT_FAILURES = (DeadlineExceeded, ResourceLimitError, RecursionError)
# Seconds between a split solve's child's checks that its parent still
# runs: a parent killed by a signal runs no code that could stop the child.
ORPHAN_POLL = 0.1


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


class SolveStats:
    """A solve's counters, kept in report order (`as_dict`)."""

    __slots__ = ("executor", "diagram_nodes", "peak_live_nodes", "max_support",
                 "underflow", "exist_bound", "split", "exec_seconds")

    def __init__(self):
        self.executor = "diagram"  # the store that ran: "diagram" or "dense"
        self.diagram_nodes = 0  # made, reclaimed ones included; 0 on tables
        self.peak_live_nodes = 0  # most nodes the store held at once
        self.max_support = 0  # largest support of any intermediate function
        # a nonzero product or combination rounded to 0 or to a subnormal
        self.underflow = False
        self.exist_bound = 0.0  # the x-region's join floor; 0.0 if none
        self.split = 0  # the variable a split solve fixed per process; 0 if none
        self.exec_seconds = 0.0

    def as_dict(self) -> dict:
        return {n: getattr(self, n) for n in self.__slots__}


class SolveResult:
    __slots__ = ("maximum", "maximizer", "stats")

    def __init__(self, maximum: float, maximizer: dict[int, bool],
                 stats: SolveStats):
        self.maximum = maximum
        self.maximizer = maximizer  # total over the existential block
        self.stats = stats


def tree_var_order(p: Problem, t: PjTree) -> list[int]:
    """Table order derived from the tree: projection order, then leftovers.

    Dense tables only; diagrams take `diagram_var_order`.  Clause variables
    only.  It tolerates malformed trees (leftovers, repeated projections) so
    that the annotated debug run reports the corruption.
    """
    seq = dict.fromkeys(v for nid in t.postorder()
                        for v in sorted(t.nodes[nid].projected))
    return [*seq, *sorted(p.all_clause_vars() - seq.keys())]


def diagram_var_order(p: Problem) -> list[int]:
    """Diagram order: maximum-cardinality search on the primal graph
    (`planner.mcs_order`).  It has a level for every clause variable, so a
    tree that projects any other variable is malformed; the annotated debug
    run, on tables, rejects it."""
    return mcs_order(primal_graph(p))


def valuate(p: Problem, t: PjTree, order: list[int], sigma: list[DsgnFunc],
            store, stats: SolveStats | None = None, obs=None, *,
            done: dict[int, PbFunc] | None = None,
            floor: float = 0.0,
            fixed: frozenset[int] = frozenset()) -> dict[int, PbFunc]:
    """Valuate the nodes of `order`, children before parents, into `done`,
    which maps a node id to its valuation until its parent pops it; after a
    whole postorder `done` holds the root's alone.  It is returned.

    A leaf valuates to the function of its clause's cofactor by `fixed`, a
    set of literals set true (`formula.cofactor`): constant 1 if the clause
    holds one of them, else the clause without their negations.  So the
    run computes the tree's values at every assignment that sets `fixed`
    true, with the same float operations.  An internal node joins its
    children's valuations in stored child order, each join floored at
    `floor`, and then projects its variable set in ascending id order; each
    existential variable's derivative sign is pushed before that variable
    is projected.  After every internal node the store takes its
    `node_done` step: a diagram store clears its op cache, which bounds its
    memory to one node's work, and reclaims dead nodes once it has grown
    enough; a dense store polls the deadline.  The live functions are those
    in `done`, the node's own and the function of every sign on `sigma`.
    `stats.max_support` is noted where a support can grow: at a leaf, its
    clause's length, and after a join whose support bound passes it.

    An observer `obs`, if given, is called at five points of node `nid`:
    `enter(nid)`; `joined(nid, prev, h, f)` after each `f = prev.join(h)`;
    `joins_done(nid, f)` after an internal node's joins; `projected(nid, x,
    prev, f)` after each projection of `x`; and `leave(nid, f)`.  Its own
    functions are not kept live, so it observes tables only, which stay valid.
    """
    done = {} if done is None else done
    stats = SolveStats() if stats is None else stats

    def live():
        return chain(done.values(), (f,), (s.f for s in sigma))

    for nid in order:
        n = t.nodes[nid]
        if obs is not None:
            obs.enter(nid)
        if n.is_leaf:
            clause = cofactor(p.clauses[n.clause], fixed)
            if clause is None:
                f = store.constant(1.0)
            else:
                f = store.clause_func(clause)
                stats.max_support = max(stats.max_support, len(clause))
        else:
            f = store.constant(1.0)
            for c in n.children:
                h = done.pop(c)
                prev, f = f, f.join(h, floor)
                if f.support_bound() > stats.max_support:
                    stats.max_support = max(stats.max_support, len(f.support))
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
                if obs is not None:
                    obs.projected(nid, x, prev, f)
            store.node_done(live)
        if obs is not None:
            obs.leave(nid, f)
        done[nid] = f
    return done


def _replay_stack(p: Problem, sigma: list[DsgnFunc], obs=None) -> dict[int, bool]:
    """Pop derivative signs into a total existential assignment.

    A sign's function depends, besides its variable, only on existential
    variables projected later at its node or at an ancestor (gradedness puts
    no randomized projection above an existential one), all assigned before
    it is popped.  Existential variables untouched by any entry (absent from
    every clause) default to 0; any value is optimal for them.  An observer
    `obs` is called as `picking(entry, tau)` before each pick and
    `picked(entry, tau)` after.
    """
    tau: dict[int, bool] = {}
    while sigma:
        entry = sigma.pop()
        if obs is not None:
            obs.picking(entry, tau)
        tau[entry.var] = entry.pick(tau)
        if obs is not None:
            obs.picked(entry, tau)
    full = dict.fromkeys(p.X, False)
    full.update(tau)
    return full


def x_region(p: Problem, t: PjTree) -> set[int]:
    """The node ids of the tree's x-region; empty if it has none.

    The x-region is the internal nodes that project no randomized variable
    and have no ancestor that does: the root, unless it projects one, and
    every internal child of an x-region node that projects none.  Its
    inputs are the other children of its nodes, the randomized-grade nodes
    and the clause leaves, which hold existential variables only.  A region
    that projects no variable takes no max, and one with a single input
    multiplies no two functions, so neither has anything to prune: a tree
    with such a region, the re-count's among them, counts as having none.
    """
    root = t.nodes[t.root]
    if root.is_leaf or root.projected & p.Y:
        return set()
    region, stack, inputs = set(), [t.root], 0
    while stack:
        nid = stack.pop()
        region.add(nid)
        for c in t.nodes[nid].children:
            m = t.nodes[c]
            if m.is_leaf or m.projected & p.Y:
                inputs += 1
            else:
                stack.append(c)
    maxes = any(t.nodes[i].projected for i in region)
    return region if maxes and inputs >= 2 else set()


def exist_bound(inputs: list[PbFunc], deadline: float | None) -> float:
    """A lower bound L on the maximum, from a search over the x-region's
    inputs; 0.0 if the search finds no assignment worth pruning below.

    The search ranks assignments to the existential variables in the
    inputs' supports by fewest inputs at 0, then largest product of the
    nonzero ones.  It is coordinate ascent from the all-false assignment
    (`_ascend`), restarted from the best assignment so far with SEARCH_KICK
    variables flipped, chosen by a fixed-seed generator.  It stops once as
    many restarts in a row as there are variables found nothing better, or
    after SEARCH_BUDGET input evaluations.

    The product v of the n input values at the assignment found is the
    product the tree takes along that assignment, which the root's maximum
    is at least, but in another order: the tree multiplies them in its own
    join order.  Both sides multiply n values in [0, 1] with n - 1
    roundings.  While every partial product is normal, each rounding moves
    it by a factor within [1 - u, 1 + u], u = 2^-53, so the tree's product
    is at least v(1 - 2nu).  Hence L = v(1 - delta) with the margin
    delta = 8(n + 1)u, which also covers the rounding of L itself.  That
    argument needs v >= 2^-1000, far above the smallest normal double
    2^-1022; below it, and whenever v is 0, there is no pruning.
    """
    touching: dict[int, list[int]] = {}  # variable -> inputs that read it
    for i, f in enumerate(inputs):
        for x in f.support:
            touching.setdefault(x, []).append(i)
    xs = sorted(touching)
    tau = dict.fromkeys(xs, False)
    best, spent = _ascend(inputs, touching, tau, SEARCH_BUDGET, deadline)
    best_tau, rng, misses = dict(tau), Random(0), 0
    while spent < SEARCH_BUDGET and misses < len(xs):
        tau = dict(best_tau)
        for x in rng.sample(xs, min(SEARCH_KICK, len(xs))):
            tau[x] = not tau[x]
        values, used = _ascend(inputs, touching, tau, SEARCH_BUDGET - spent,
                               deadline)
        spent += used
        if _better(values, best):
            best, best_tau, misses = values, dict(tau), 0
        else:
            misses += 1
    v = prod(best)
    if v < 2.0 ** -1000:
        return 0.0
    return v * (1.0 - 8 * (len(inputs) + 1) * 2.0 ** -53)


def _ascend(inputs: list[PbFunc], touching: dict[int, list[int]],
            tau: dict[int, bool], budget: int, deadline: float | None):
    """Coordinate ascent from `tau`, which it updates in place: flip each
    variable in ascending id order, re-evaluate the inputs that read it, and
    keep the flip if it ranks better (`_better`).  Rounds repeat until one
    keeps no flip or `budget` input evaluations are spent; the deadline is
    polled once per round.  Returns the input values and the evaluations
    spent."""
    values = [f.evaluate(tau) for f in inputs]
    spent, kept = len(inputs), True
    while kept and spent < budget:
        poll_deadline(deadline, "execution")
        kept = False
        for x in tau:
            idx = touching[x]
            before = [values[i] for i in idx]
            tau[x] = not tau[x]
            after = [inputs[i].evaluate(tau) for i in idx]
            spent += len(idx)
            if _better(after, before):
                kept = True
                for i, z in zip(idx, after):
                    values[i] = z
            else:
                tau[x] = not tau[x]
            if spent >= budget:
                break
    return values, spent


def _better(after: list[float], before: list[float]) -> bool:
    """Whether `after` has fewer zeros than `before`, or as many and a
    larger product of its nonzero values."""
    za, zb = after.count(0.0), before.count(0.0)
    return za < zb or za == zb and prod(filter(None, after)) > prod(
        filter(None, before))


def _run(p: Problem, t: PjTree, store, obs=None,
         fixed: frozenset[int] = frozenset()) -> SolveResult:
    """Valuate the root, then replay the stack, with `obs` observing both.

    Unobserved, a tree with an x-region is valuated in two phases over its
    postorder: the nodes outside the region, which leave its inputs
    pending, then the region's nodes, every join floored at the bound
    `exist_bound` finds on those inputs.  An observed run has no region,
    since its checks compare against the formula itself.  With `fixed`, a
    set of literals, every leaf valuates to its clause's cofactor by them
    (see `valuate`).  The store's deadline is polled after the replay too."""
    t0 = time.perf_counter()
    stats = SolveStats()
    sigma: list[DsgnFunc] = []
    region = x_region(p, t) if obs is None else set()
    order = t.postorder()
    limit = sys.getrecursionlimit()
    if isinstance(store, DiagramStore):  # whose kernel recurses per level
        sys.setrecursionlimit(max(limit, 4 * len(store.variables) + 1000))
    try:
        done = valuate(p, t, [i for i in order if i not in region], sigma,
                       store, stats, obs, fixed=fixed)
        if region:  # `done` holds the region's inputs, in postorder
            stats.exist_bound = exist_bound(list(done.values()),
                                            store.deadline)
        valuate(p, t, [i for i in order if i in region], sigma, store, stats,
                obs, done=done, floor=stats.exist_bound, fixed=fixed)
        maximum = done[t.root].evaluate({})
    finally:
        sys.setrecursionlimit(limit)
    tau = _replay_stack(p, sigma, obs)
    poll_deadline(store.deadline, "execution")
    stats.executor = store.name
    stats.diagram_nodes = store.node_count
    stats.peak_live_nodes = store.peak_held
    stats.underflow = store.underflow
    stats.exec_seconds = time.perf_counter() - t0
    return SolveResult(maximum=maximum, maximizer=tau, stats=stats)


def choose_store(p: Problem, t: PjTree, node_limit: int | None = None,
                 deadline: float | None = None):
    """The store a solve of `t` runs on: dense tables in the tree's order if
    the tree's tables hold fewer entries (`planner.table_entries`) than
    DENSE_MAX_WORK and `node_limit`, else diagrams in the MCS order, whose
    nodes held at once `node_limit` caps."""
    cap = DENSE_MAX_WORK if node_limit is None else min(DENSE_MAX_WORK, node_limit)
    if table_entries(t, p) < cap:
        return DenseStore(tree_var_order(p, t), deadline=deadline)
    return DiagramStore(diagram_var_order(p), node_limit=node_limit,
                        deadline=deadline)


def split_var(p: Problem, t: PjTree, node_limit: int | None = None) -> int:
    """The variable x* on which `solve` splits `t` into two processes, or 0.

    x* is the largest variable the root projects, so the root projects it
    last and the replay pops its sign first.  The split needs: a root that
    projects some existential variable and no randomized one; tables of at
    least SPLIT_MIN_ENTRIES entries in all (`planner.table_entries`), at
    least SPLIT_SHARE of them at nodes whose joined set holds x*, so that
    fixing x* halves nearly all the work; no `node_limit`, which caps one
    store; and `os.fork` with at least two CPUs this process may run on and
    no other thread in it, whose locks a forked child could inherit held.
    """
    root = t.nodes[t.root]
    affinity = getattr(os, "sched_getaffinity", None)
    if (node_limit is not None or root.is_leaf or root.projected & p.Y
            or not root.projected & p.X or not hasattr(os, "fork")
            or affinity is None or len(affinity(0)) < 2
            or threading.active_count() > 1):
        return 0
    x = max(root.projected)
    total = table_entries(t, p)
    near = sum(1 << len(vs) for nid, vs in t.joined_vars(p).items()
               if x in vs and not t.nodes[nid].is_leaf)
    return x if total >= SPLIT_MIN_ENTRIES and near >= SPLIT_SHARE * total else 0


def _split_run(p: Problem, t: PjTree, store, x: int) -> SolveResult:
    """`_run` on the tree's two cofactors in x*, x*=1 in a forked child and
    x*=0 here, then the better one: x* = 1 iff M1 >= M0, the tie rule of
    `DsgnFunc.pick`.

    Fixing x* commutes pointwise with every product, maximum and convex
    combination, so each half valuates the unsplit run's functions at its
    value of x*, with the same float operations.  Each half floors its own
    x-region at a bound at most its own maximum, so the larger half's
    maximum and maximizer are those of the unsplit run, whose root value
    before x* is projected is (M0, M1).  The child sends back through a
    pipe only its maximum, its maximizer's true variables and its counters,
    or a failure of a type in SPLIT_FAILURES, which is raised here; any
    other exception there is a fault, raised here as RuntimeError.  A
    child that ends without a result, as one killed for its memory does,
    raises ResourceLimitError here, naming its wait status.  The child
    ends with `os._exit`, which flushes no inherited buffer and runs no
    exit hook, and its store polls the same deadline.  Whatever happens
    here, the child is killed if it still runs and reaped before this
    returns; if this process is killed, the child exits within ORPHAN_POLL
    seconds.  If no pipe or no process can be made, the tree is solved
    unsplit.
    """
    t0 = time.perf_counter()
    parent = os.getpid()
    fds = ()
    try:
        fds = read, write = os.pipe()
        pid = os.fork()
    except OSError:  # no descriptor or process to spare: solve in this one
        for fd in fds:
            os.close(fd)
        return _run(p, t, store)
    if pid == 0:
        os.close(read)
        _split_child(p, t, store, x, write, parent)
    os.close(write)
    try:
        with os.fdopen(read, "rb") as pipe:
            r = _run(p, t, store, fixed=frozenset({-x}))
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        pid = 0
    finally:
        if pid:  # this half failed: its failure is the solve's
            import signal  # off the start-up path, like its enum classes

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not data:
        raise ResourceLimitError(f"the x{x} = 1 half's process ended without "
                                 f"a result (wait status {status})")
    tag, *rest = marshal.loads(data)
    if tag == "error":
        raise RuntimeError(f"the x{x} = 1 half failed: {rest[0]}")
    if tag != "ok":
        raise {c.__name__: c for c in SPLIT_FAILURES}[tag](*rest)
    maximum, true_vars, nodes, peak, support, underflow, bound = rest
    one = maximum >= r.maximum
    if one:
        r.maximum = maximum
        r.maximizer = dict.fromkeys(p.X, False)
        r.maximizer.update(dict.fromkeys(true_vars, True))
    r.maximizer[x] = one
    s = r.stats
    s.diagram_nodes += nodes
    s.peak_live_nodes += peak
    s.max_support = max(s.max_support, support)
    s.underflow = s.underflow or underflow
    s.exist_bound = max(s.exist_bound, bound)
    s.split = x
    s.exec_seconds = time.perf_counter() - t0
    return r


def _split_child(p: Problem, t: PjTree, store, x: int, fd: int, parent: int):
    """The x* = 1 half of `_split_run`, in the child: write its result or
    its failure to `fd` and exit, or exit at once when it finds that its
    parent, process `parent`, is gone."""
    try:
        import signal

        def exit_if_orphaned(*_):
            if os.getppid() != parent:
                os._exit(1)
        signal.signal(signal.SIGALRM, exit_if_orphaned)
        signal.setitimer(signal.ITIMER_REAL, ORPHAN_POLL, ORPHAN_POLL)
        try:
            r = _run(p, t, store, fixed=frozenset({x}))
            s = r.stats
            msg = ("ok", r.maximum, _true_vars(r.maximizer), s.diagram_nodes,
                   s.peak_live_nodes, s.max_support, s.underflow, s.exist_bound)
        except SPLIT_FAILURES as e:
            msg = (next(c for c in SPLIT_FAILURES if isinstance(e, c)).__name__,
                   str(e))
        except Exception:  # a fault, reported with its traceback
            import traceback

            msg = ("error", traceback.format_exc())
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(marshal.dumps(msg))
    finally:
        os._exit(0)


def solve(p: Problem, t: PjTree, node_limit: int | None = None,
          deadline: float | None = None) -> SolveResult:
    """Maximum and a maximizer from a valid graded project-join tree, in
    two processes where `split_var` finds a variable to split on."""
    store = choose_store(p, t, node_limit, deadline)
    x = split_var(p, t, node_limit)
    return _split_run(p, t, store, x) if x else _run(p, t, store)


# -- annotated execution ------------------------------------------------------


class _DebugContext:
    """Observer for the annotated run: eliminated set E and active multiset A.

    It observes a run on dense tables.  At every join and projection point
    of `valuate` it checks that the product of the active functions equals
    the reference function: the fully joined formula with the eliminated
    variables projected out, rebuilt only when E changes.  Equality is
    pointwise within a tolerance because the two sides multiply in different
    orders.  Entering or leaving a node checks A and E no further: the
    product of A (entering adds a constant 1) and E are those the last check
    passed, or before the first node the clause product the reference starts
    from, since a table store's step after a node only polls the deadline.
    Leaving a node checks that no earlier valuation of it is pending, since
    `valuate` keeps one per node id until its parent takes it; leaving the
    root, that E holds every clause variable and that the root's value is
    constant.  Around each pick of `_replay_stack` it checks that tau
    maximizes the formula with the still-eliminated variables projected out;
    what reads tau is checked before the pick, so a sign that would read an
    unassigned variable fails here and not in `pick`.

    A is a list of functions, matched by handle or else by pointwise
    equality, since a table store makes a fresh table for every constant and
    clause.

    Both sides of every check come from the same store's arithmetic, so
    these checks test the tree, not the store: a wrong projection kernel
    passes every one of them.  `debug_assert_mode`'s store-agreement check,
    which solves again on diagrams, catches such a kernel when it moves the
    maximum or the maximizer.
    """

    def __init__(self, p: Problem, t: PjTree, store):
        self.p = p
        self.t = t
        self.store = store
        self.width = tree_width(t, p)
        self.active = [store.clause_func(c) for c in p.clauses]
        self.joined_all = self.reference = self.active_product()
        self.eliminated: set[int] = set()
        self.pending: set[int] = set()  # nodes left whose parent is ahead

    def project_eliminated(self) -> PbFunc:
        g = self.joined_all
        for y in sorted(self.eliminated & self.p.Y):
            g = g.rand_project(y, self.p.pr[y])
        for x in sorted(self.eliminated & self.p.X):
            g = g.exists_project(x)
        return g

    def active_product(self) -> PbFunc:
        return reduce(PbFunc.join, self.active, self.store.constant(1.0))

    def replace_active(self, old, f: PbFunc, point: str, node, var=None):
        """Swap the active functions `old` for `f`, computed from them; `f`'s
        support must fit the tree width and its values lie in [0, 1]."""
        equal = self.store.approx_equal
        for g in old:
            i = (self.active.index(g) if g in self.active  # the same handle
                 else next((i for i, a in enumerate(self.active)
                            if equal(a.root, g.root, 0.0)), None))
            if i is None:
                raise DebugAssertionError(
                    point, node, detail="active multiset missing a function")
            del self.active[i]
        self.active.append(f)
        if len(f.support) > self.width:
            raise DebugAssertionError(point, node, var,
                                      detail=f"support {len(f.support)} exceeds "
                                             f"tree width {self.width}")
        lo, hi = self.store.value_range(f.root)
        if lo < 0.0 or hi > 1.0:
            raise DebugAssertionError(point, node, var,
                                      detail=f"values [{lo}, {hi}] outside [0, 1]")

    def check(self, point: str, node=None, var=None):
        if not self.store.approx_equal(self.active_product().root,
                                       self.reference.root, DEBUG_TOL):
            raise DebugAssertionError(point, node, var,
                                      detail="active product diverged from "
                                             "projected formula")

    def enter(self, node):
        n = self.t.nodes[node]
        self.pending.difference_update(n.children)
        if not n.is_leaf:
            self.active.append(self.store.constant(1.0))

    def joined(self, node, prev: PbFunc, h: PbFunc, f: PbFunc):
        self.replace_active((h, prev), f, "join-condition", node)

    def joins_done(self, node, f: PbFunc):
        self.check("join-condition", node)

    def projected(self, node, x: int, prev: PbFunc, f: PbFunc):
        self.eliminated.add(x)
        self.reference = self.project_eliminated()
        self.replace_active((prev,), f, "project-condition", node, x)
        self.check("project-condition", node, x)

    def leave(self, node, f: PbFunc):
        if node in self.pending:
            raise DebugAssertionError("join-condition", node,
                                      detail="valuated again while pending")
        self.pending.add(node)
        if node == self.t.root and self.eliminated != self.p.all_clause_vars():
            raise DebugAssertionError(
                "post-condition", node,
                detail=f"eliminated {sorted(self.eliminated)} != formula "
                       f"variables {sorted(self.p.all_clause_vars())}")
        if node == self.t.root and len(f.support) != 0:
            raise DebugAssertionError("post-condition", node,
                                      detail="root valuation is not constant")

    def picking(self, entry: DsgnFunc, tau: dict[int, bool]):
        x = entry.var
        if x not in self.eliminated or x in tau:
            raise DebugAssertionError("maximizer", var=x,
                                      detail="popped variable not pending")
        unassigned = entry.f.support - {x} - set(tau)
        if unassigned:
            raise DebugAssertionError(
                "maximizer", var=x,
                detail=f"sign depends on unassigned {sorted(unassigned)}")

    def picked(self, entry: DsgnFunc, tau: dict[int, bool]):
        self.eliminated.discard(entry.var)
        self.reference = g = self.project_eliminated()
        value, best = g.evaluate(tau), self.store.value_range(g.root)[1]
        if abs(value - best) > DEBUG_TOL:
            raise DebugAssertionError(
                "maximizer", var=entry.var,
                detail=f"assignment value {value} is not the maximum {best}")


def debug_assert_mode(p: Problem, t: PjTree, *, node_limit: int | None = None,
                      deadline: float | None = None) -> SolveResult:
    """Solve while checking every annotated-algorithm assertion.

    The checked identity materializes the fully joined formula, so the run is
    guarded by a cap of DEBUG_VAR_CAP variables; values are compared within
    DEBUG_TOL.  `check_tree` runs first, so a corrupted tree raises TreeError
    before any answer is returned.  The annotated run is on dense tables in
    the tree's order, in one pass with no floor.  Then the tree is solved
    again, unobserved and so with the x-region floored, on diagrams in the
    MCS order and, if `solve` would choose tables (`choose_store`), on tables
    too.  The stores promise bit-identical values and the floor keeps the
    maximum and the maximizer, so every run's maximum (`float.hex`) and
    maximizer must equal the annotated run's, else the "store-agreement"
    assertion trips.  The run on the chosen store is returned and is held to
    `node_limit`, so its stats and limits are those of a plain solve in one
    process (`split` is 0); the others are not held to the limit, and under
    DEBUG_VAR_CAP their diagrams stay small.  All poll `deadline`.
    """
    if len(p.quantified) > DEBUG_VAR_CAP:
        raise ValueError(f"{len(p.quantified)} variables exceed the debug cap "
                         f"{DEBUG_VAR_CAP}")
    check_tree(t, p)
    chosen = choose_store(p, t, node_limit, deadline)
    tables = DenseStore(tree_var_order(p, t), deadline=deadline)
    r = _run(p, t, tables, _DebugContext(p, t, tables))
    runs = [_run(p, t, chosen)]
    if chosen.name == "dense":
        runs.append(_run(p, t, DiagramStore(diagram_var_order(p),
                                            deadline=deadline)))
    for o in runs:
        if (r.maximum.hex(), r.maximizer) != (o.maximum.hex(), o.maximizer):
            raise DebugAssertionError(
                "store-agreement",
                detail=f"dense gives {r.maximum.hex()} at "
                       f"{_true_vars(r.maximizer)}, {o.stats.executor} "
                       f"{o.maximum.hex()} at {_true_vars(o.maximizer)} "
                       f"floored at {o.stats.exist_bound!r}")
    return runs[0]


def _true_vars(tau: dict[int, bool]) -> list[int]:
    return sorted(v for v, b in tau.items() if b)
