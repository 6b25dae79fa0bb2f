"""Graded project-join trees via blockwise variable elimination.

Planning eliminates every randomized variable before any existential one, so
the bucket-elimination construction is graded by construction: internal nodes
projecting randomized variables can never sit above nodes projecting
existential ones.  A tree stores structure only: a node's grade is derived
from its projection set, y if it projects a randomized variable and x
otherwise.  Variables that occur in no clause are in neither the primal
graph, the order nor the tree (the projection sets partition exactly the
formula's variables); the executor gives such existential ones value 0.

Lex, whose score is the variable id, orders each block by id without
touching the graph.  Min-fill and min-degree choose the order
incrementally.  Each block scores its vertices once, keeps a lazy min-heap
of (score, variable) entries and, after every elimination, adjusts only the
scores that elimination changes.  Min-fill counts each change from the edit
itself: removing the eliminated vertex v lowers fill(w) by |N(w) - N[v]| for
each neighbor w, and each edge (a, b) added to clique-connect N(v) lowers
fill(c) by 1 for each common neighbor c of a and b and raises fill(a) by
|N(a) - N[b]| and fill(b) by |N(b) - N[a]|, counted before the edge goes
in.  So min-fill plans in time near-linear in the number of variables for
bounded width.  Min-fill also takes the simplicial rule (Bodlaender, Koster
& van den Eijkhof, Computational Intelligence 2005).  Vertices with the
same closed neighborhood have the same fill, so a block scores one vertex
of each such class.  A pick of fill 0 has a clique for a neighborhood, so
eliminating it adds no edge, and each neighbor's fill falls by a count
read off two set sizes, with no set intersections.  One k-literal clause,
a k-clique, thus plans in O(k^2) time, not O(k^3).  Ties break to the lowest
variable id, exactly as a full rescan of the block would, so each heuristic
gives one plan per formula.  An optional deadline is polled at every
variable, while scoring, ordering (once for lex) and building the tree.

Tree file format (text, children listed before parents):

    pjt <num_nodes> <num_clauses> <num_vars>
    l <id> <clause_index>                      (clause_index is 1-based)
    i <id> <grade:x|y> <child ids...> | <projected vars...>
    r <root id>

The grade token of an internal line must match its projection set; a node
that projects nothing may carry either letter.  `write_tree` writes x there.
"""

from __future__ import annotations

import heapq

from .formula import Problem, primal_graph
from .pbf import poll_deadline

HEURISTICS = ("min-fill", "min-degree", "lex")

GRADE_X = "x"
GRADE_Y = "y"


class TreeError(Exception):
    """A project-join tree criterion or gradedness property is violated."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class PjNode:
    __slots__ = ("clause", "children", "projected")

    def __init__(self, clause: int | None = None,
                 children: list[int] | None = None,
                 projected: frozenset[int] = frozenset()):
        self.clause = clause  # leaf: 0-based clause index
        self.children = [] if children is None else children
        self.projected = projected

    @property
    def is_leaf(self) -> bool:
        return self.clause is not None


class PjTree:
    __slots__ = ("nodes", "root")

    def __init__(self, nodes: dict[int, PjNode], root: int):
        self.nodes = nodes
        self.root = root

    def internal_ids(self):
        return [i for i, n in self.nodes.items() if not n.is_leaf]

    def leaf_ids(self):
        return [i for i, n in self.nodes.items() if n.is_leaf]

    def postorder(self) -> list[int]:
        """Children before parents, left-to-right in stored child order.

        Covers every node reachable from the root.  Built as the reverse of
        a preorder that visits children right to left.
        """
        out: list[int] = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            out.append(nid)
            stack += self.nodes[nid].children
        out.reverse()
        return out

    def joined_vars(self, p: Problem) -> dict[int, frozenset[int]]:
        """Per node, in postorder: the variables its valuation joins.

        A leaf joins its clause's variables.  An internal node joins its
        projected set and whatever each child leaves unprojected: the
        child's joined set minus the child's projected set.  Covers every
        node reachable from the root.
        """
        out: dict[int, frozenset[int]] = {}
        for nid in self.postorder():
            n = self.nodes[nid]
            if n.is_leaf:
                out[nid] = p.clause_vars(n.clause)
            else:
                acc = set(n.projected)
                for c in n.children:
                    acc |= out[c] - self.nodes[c].projected
                out[nid] = frozenset(acc)
        return out


# -- elimination orders ------------------------------------------------------


def _fill(adj, v) -> int:
    """Pairs of neighbors of v that are not adjacent (undirected, loop-free)."""
    nbrs = adj[v]
    d = len(nbrs)
    return (d * (d - 1) - sum(len(nbrs & adj[a]) for a in nbrs)) // 2


def _eliminate(adj, pick, heuristic: str,
               simplicial: bool = False) -> dict[int, int]:
    """Remove `pick` from `adj` and clique-connect its neighbors; return the
    change in each touched vertex's score under `heuristic`, min-degree or
    min-fill, the latter's by the delta rules `elimination_order` states.
    A `simplicial` pick, one whose min-fill score is 0, has a clique for a
    neighborhood, so no edge goes in and each neighbor w's fill loses only
    the pairs of `pick` with w's neighbors outside N[pick]."""
    nbrs = adj.pop(pick)
    delta: dict[int, int] = {}
    if heuristic == "min-degree":
        for a in nbrs:
            na = adj[a]
            before = len(na)
            na |= nbrs
            na -= {a, pick}
            delta[a] = len(na) - before
        return delta
    if simplicial:
        d = len(nbrs)
        for w in nbrs:
            nw = adj[w]
            nw.discard(pick)
            delta[w] = d - 1 - len(nw)  # N(w) holds the other d - 1
        return delta
    for w in nbrs:
        nw = adj[w]
        nw.discard(pick)
        delta[w] = len(nw & nbrs) - len(nw)
    for a in nbrs:
        na = adj[a]
        for b in nbrs - na:  # edges from a to earlier vertices are in na
            if b == a:
                continue
            nb = adj[b]
            common = na & nb
            for c in common:
                delta[c] = delta.get(c, 0) - 1
            delta[a] += len(na) - len(common)
            delta[b] += len(nb) - len(common)
            na.add(b)
            nb.add(a)
    return delta


def elimination_order(graph: dict[int, set[int]], X, Y, heuristic: str = "min-fill",
                      *, deadline: float | None = None) -> list[int]:
    """Total order over the vertices of `graph`, those in Y before those in X.

    `graph` is undirected and loop-free, as `primal_graph` builds it.  The
    heuristic scores candidates within the current block on the evolving
    graph (eliminating a vertex clique-connects its neighbors): min-fill by
    the number of edges that elimination would add, min-degree by degree.
    Lex needs no graph: its score, the variable id, never changes, so each
    block is taken in ascending id.  Each block scores its vertices once at
    its start and keeps the scores in a dict and a lazy heap of (score,
    variable) entries; an entry whose score is no longer current is skipped
    when popped.  After each elimination the scores are adjusted, not
    recounted, and a new entry is pushed only for a block vertex whose score
    changed.  Eliminating `pick` with neighbors N changes only the degrees
    in N.  Min-fill applies these deltas, each counted against the adjacency
    as it stands at that step:
      - removing `pick` lowers fill(w) by |N(w) - N[pick]| for each w in N;
      - each edge (a, b) added to make N a clique lowers fill(c) by 1 for
        each common neighbor c of a and b, and raises fill(a) by
        |N(a) - N[b]| and fill(b) by |N(b) - N[a]|, counted before the edge
        goes in.

    A block's first scores are shared within each class of vertices with
    the same closed neighborhood, which have the same fill.  A pick of fill
    0 is simplicial: its neighbors already form a clique, so no edge goes in
    and the first rule alone applies, as d - 1 - |N(w)| for each w in N,
    d = |N|, with N(w) taken after `pick` leaves it.

    Ties break to the lowest variable id, which is the heap order.
    `deadline` (a time.monotonic() value) is polled once per scored and once
    per eliminated variable, and raises DeadlineExceeded once passed; lex
    polls it once.
    """
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}; pick from {HEURISTICS}")
    if heuristic == "lex":
        poll_deadline(deadline, "planning")
        return (sorted(v for v in graph if v in Y)
                + sorted(v for v in graph if v in X))
    adj = {v: set(ns) for v, ns in graph.items()}
    min_fill = heuristic == "min-fill"
    order: list[int] = []
    for block in (Y, X):
        score = {}
        shared: dict[frozenset[int], int] = {}  # closed neighborhood -> fill
        for v in adj:
            if v in block:
                # scoring a long clause's clique is k^2 set work
                poll_deadline(deadline, "planning")
                if min_fill:
                    closed = frozenset(adj[v]).union((v,))
                    s = shared.get(closed)
                    if s is None:
                        s = shared[closed] = _fill(adj, v)
                    score[v] = s
                else:
                    score[v] = len(adj[v])
        heap = [(s, v) for v, s in score.items()]
        heapq.heapify(heap)
        while score:
            s, pick = heapq.heappop(heap)
            if score.get(pick) != s:
                continue  # stale entry
            poll_deadline(deadline, "planning")
            order.append(pick)
            del score[pick]
            for w, d in _eliminate(adj, pick, heuristic,
                                   min_fill and s == 0).items():
                if d and w in score:
                    score[w] += d
                    heapq.heappush(heap, (score[w], w))
    return order


def mcs_order(graph: dict[int, set[int]]) -> list[int]:
    """Maximum-cardinality search over `graph`, in visiting order.

    Each step visits the unvisited vertex with the most visited neighbors,
    ties to the lowest id; so the search starts at the lowest id, and so does
    each new component.  This is the diagram level order, the first visited
    vertex at level 0 (ADDMC's MCS order, Dudek, Phan & Vardi, AAAI 2020).

    A bucket queue holds the unvisited vertices: bucket k is a lazy min-heap
    of the vertices with k visited neighbors, and an entry whose count has
    since grown is skipped when popped.  Visiting a vertex pushes each of its
    unvisited neighbors one bucket up, so there are V + 2E entries in all,
    and the top bucket falls at most as often as it rises: O((V + E) log V)
    in time, the logarithm only from ordering ties by id.
    """
    count = dict.fromkeys(graph, 0)  # unvisited vertex -> visited neighbors
    buckets = [sorted(graph)]  # a sorted list is a heap
    top = 0
    order: list[int] = []
    while count:
        while not buckets[top]:
            top -= 1
        v = heapq.heappop(buckets[top])
        if count.get(v) != top:
            continue  # visited, or moved to a higher bucket
        del count[v]
        order.append(v)
        for w in graph[v]:
            c = count.get(w)
            if c is None:
                continue
            count[w] = c = c + 1
            if c == len(buckets):
                buckets.append([])
            heapq.heappush(buckets[c], w)
            if c > top:
                top = c
    return order


# -- tree construction -------------------------------------------------------


def build_graded_tree(p: Problem, order: list[int],
                      deadline: float | None = None) -> PjTree:
    """Bucket elimination along `order`: every clause variable, Y before X.

    Each clause starts as a leaf in the bucket of its earliest-eliminated
    variable.  Eliminating a variable joins its bucket under a new internal
    node projecting that variable; a single-child chain in the same block is
    merged into one node with a larger projection set.  A clause-free variable
    (a caller's own `order` may list one) finds an empty bucket and is
    skipped: projecting it would change no value.  `deadline` is polled
    once per variable of `order`, as in elimination_order.
    """
    pos = {v: i for i, v in enumerate(order)}
    first_x = next((i for i, v in enumerate(order) if v in p.X), len(order))
    if any(v in p.Y for v in order[first_x:]):
        raise TreeError("elimination order mixes blocks: some existential "
                        "variable precedes a randomized one")
    missing = p.all_clause_vars() - pos.keys()
    if missing:
        raise TreeError(f"elimination order omits variables {sorted(missing)}")

    nodes: dict[int, PjNode] = {}
    support: dict[int, frozenset[int]] = {}
    buckets: dict[int, list[int]] = {i: [] for i in range(len(order))}
    done: list[int] = []
    next_id = 1

    def new_leaf(ci: int) -> int:
        nonlocal next_id
        nid = next_id
        next_id += 1
        nodes[nid] = PjNode(clause=ci)
        support[nid] = p.clause_vars(ci)
        return nid

    for ci in range(len(p.clauses)):
        nid = new_leaf(ci)
        vs = support[nid]
        if vs:
            buckets[min(map(pos.__getitem__, vs))].append(nid)
        else:
            done.append(nid)  # empty clause: constant-0 leaf under the root

    for i, x in enumerate(order):
        poll_deadline(deadline, "planning")
        group = buckets[i]
        if not group:
            continue  # x occurs in no clause
        lone = nodes[group[0]] if len(group) == 1 else None
        if (lone is not None and not lone.is_leaf
                and (x in p.X) == (next(iter(lone.projected)) in p.X)):
            # chain in one block: fold x into the single child's projection set
            lone.projected = lone.projected | {x}
            nid = group[0]
        else:
            nid = next_id
            next_id += 1
            nodes[nid] = PjNode(children=list(group), projected=frozenset({x}))
        # group supports were recorded before this step, so this also covers
        # the merge case (old support of the merged node, minus x)
        sup = frozenset(set().union(*(support[c] for c in group)) - {x})
        support[nid] = sup
        if sup:
            buckets[min(map(pos.__getitem__, sup))].append(nid)
        else:
            done.append(nid)

    if len(done) == 1 and not nodes[done[0]].is_leaf:
        root = done[0]
    else:
        root = next_id
        nodes[root] = PjNode(children=list(done))  # projects nothing
    return PjTree(nodes=nodes, root=root)


# -- validation ---------------------------------------------------------------


def check_tree(t: PjTree, p: Problem) -> None:
    """Basic shape, both project-join-tree criteria and gradedness, checked
    in that order; raises TreeError listing the first failing stage's
    violations.

    The two criteria imply the sibling lemma: criterion 1 lets each variable
    be projected at exactly one node u, and criterion 2 puts every leaf whose
    clause has that variable beneath u, so a variable projected under one
    sibling never occurs in a clause under another.

    Grades are derived: a node is in the randomized grade y if it projects a
    randomized variable, else in the existential grade x.  So ProCount's
    gradedness properties 1 (the grades partition the internal nodes) and 2
    (x nodes project only existential variables, given criterion 1) hold by
    construction, and two are checked: property 3, each y node projects only
    randomized variables, and property 4, no node projecting an existential
    variable lies below a y node.  A node projecting nothing may sit anywhere.
    """
    bad = []
    if t.root not in t.nodes:
        raise TreeError([f"root {t.root} is not a node"])
    seen_parents: dict[int, int] = {}
    reachable = set()
    stack = [t.root]
    while stack:
        nid = stack.pop()
        if nid in reachable:
            bad.append(f"node {nid} reached twice (not a tree)")
            continue
        reachable.add(nid)
        n = t.nodes.get(nid)
        if n is None:
            bad.append(f"child reference to missing node {nid}")
            continue
        if n.is_leaf and (n.children or n.projected):
            bad.append(f"leaf {nid} has children or projections")
        for c in n.children:
            if c in seen_parents:
                bad.append(f"node {c} has two parents ({seen_parents[c]}, {nid})")
            seen_parents[c] = nid
            stack.append(c)
    unreachable = set(t.nodes) - reachable
    if unreachable:
        bad.append(f"nodes unreachable from root: {sorted(unreachable)}")
    if bad:
        raise TreeError(bad)

    # gamma is a bijection between leaves and clauses
    indices = [t.nodes[l].clause for l in t.leaf_ids()]
    if sorted(indices) != list(range(len(p.clauses))):
        bad.append(
            f"leaf clause indices {sorted(indices)} are not a bijection with "
            f"clauses 0..{len(p.clauses) - 1}")

    # criterion 1: projection sets partition vars(phi)
    formula_vars = p.all_clause_vars()
    seen_vars: dict[int, int] = {}
    for nid in t.internal_ids():
        for v in t.nodes[nid].projected:
            if v in seen_vars:
                bad.append(f"variable {v} projected at both {seen_vars[v]} and {nid}")
            seen_vars[v] = nid
            if v not in formula_vars:
                bad.append(f"node {nid} projects {v}, which occurs in no clause")
    uncovered = formula_vars - set(seen_vars)
    if uncovered:
        bad.append(f"clause variables never projected: {sorted(uncovered)}")

    # criterion 2: the leaf of every clause mentioning a projected variable
    # lies beneath the projecting node.  A subtree is a contiguous run of the
    # postorder, from its first descendant's position to its own.
    clause_leaf = {t.nodes[l].clause: l for l in t.leaf_ids()}
    post: dict[int, int] = {}
    first: dict[int, int] = {}
    for nid in t.postorder():
        post[nid] = len(post)
        kids = t.nodes[nid].children
        first[nid] = first[kids[0]] if kids else post[nid]
    clauses_with: dict[int, list[int]] = {}
    for ci in range(len(p.clauses)):
        for v in p.clause_vars(ci):
            clauses_with.setdefault(v, []).append(ci)
    for nid in t.internal_ids():
        for v in t.nodes[nid].projected:
            for ci in clauses_with.get(v, ()):
                leaf = clause_leaf.get(ci)
                if leaf is None or not first[nid] <= post[leaf] <= post[nid]:
                    bad.append(
                        f"node {nid} projects {v} but clause {ci}'s leaf "
                        f"{leaf} is not beneath it")
    if bad:
        raise TreeError(bad)

    # gradedness, on a tree the checks above have shown sound
    mixed: list[int] = []
    below_y: list[int] = []
    stack = [(t.root, False)]
    while stack:
        nid, under_y = stack.pop()
        proj = t.nodes[nid].projected
        has_y = not proj.isdisjoint(p.Y)
        if has_y and not proj <= p.Y:
            mixed.append(nid)
        if under_y and not proj <= p.Y:
            below_y.append(nid)
        stack.extend((c, under_y or has_y) for c in t.nodes[nid].children)
    for nid in sorted(mixed):
        proj = t.nodes[nid].projected
        bad.append(f"property 3: randomized-grade node {nid} projects "
                   f"non-randomized {sorted(proj - p.Y)}")
    for nid in sorted(below_y):
        bad.append(f"property 4: node {nid} projects existential variables "
                   f"below a randomized-grade node")
    if bad:
        raise TreeError(bad)


def width(t: PjTree, p: Problem,
          joined: dict[int, frozenset[int]] | None = None) -> int:
    """Most variables any one node's valuation joins.  `joined` is
    `t.joined_vars(p)`, if the caller has it already."""
    if joined is None:
        joined = t.joined_vars(p)
    return max(map(len, joined.values()))


def table_entries(t: PjTree, p: Problem,
                  joined: dict[int, frozenset[int]] | None = None) -> int:
    """Entries of the tables a dense valuation joins: the sum over internal
    nodes of 2 to the number of variables joined there.  `joined` is
    `t.joined_vars(p)`, if the caller has it already."""
    if joined is None:
        joined = t.joined_vars(p)
    return sum(1 << len(vs) for nid, vs in joined.items()
               if not t.nodes[nid].is_leaf)


# -- tree files ---------------------------------------------------------------


def _grade(projected: frozenset[int], p: Problem) -> str:
    """A node's grade: y if it projects a randomized variable, else x."""
    return GRADE_X if projected.isdisjoint(p.Y) else GRADE_Y


def write_tree(t: PjTree, p: Problem) -> str:
    lines = [f"pjt {len(t.nodes)} {len(p.clauses)} {p.num_vars}"]
    for nid in t.postorder():
        n = t.nodes[nid]
        if n.is_leaf:
            lines.append(f"l {nid} {n.clause + 1}")
        else:
            grade = _grade(n.projected, p)
            kids = " ".join(str(c) for c in n.children)
            projs = " ".join(str(v) for v in sorted(n.projected))
            lines.append(f"i {nid} {grade} {kids} | {projs}".rstrip())
    lines.append(f"r {t.root}")
    return "\n".join(lines) + "\n"


def _int(tok: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise TreeError(f"line {lineno}: expected an integer, got {tok!r}") from None


def read_tree(text: str, p: Problem) -> PjTree:
    """Parse and fully validate a tree file against the Problem."""
    nodes: dict[int, PjNode] = {}
    root = None
    header = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        if toks[0] == "pjt":
            if len(toks) != 4:
                raise TreeError(f"line {lineno}: malformed header")
            header = tuple(_int(x, lineno) for x in toks[1:])
        elif toks[0] == "l":
            if len(toks) != 3:
                raise TreeError(f"line {lineno}: malformed leaf line")
            nid, ci = _int(toks[1], lineno), _int(toks[2], lineno)
            if not (1 <= ci <= len(p.clauses)):
                raise TreeError(
                    f"line {lineno}: clause index {ci} beyond clause count "
                    f"{len(p.clauses)}")
            if nid in nodes:
                raise TreeError(f"line {lineno}: duplicate node id {nid}")
            nodes[nid] = PjNode(clause=ci - 1)
        elif toks[0] == "i":
            if "|" not in toks or len(toks) < 4:
                raise TreeError(f"line {lineno}: malformed internal line")
            bar = toks.index("|")
            nid = _int(toks[1], lineno)
            grade = toks[2]
            if grade not in (GRADE_X, GRADE_Y):
                raise TreeError(f"line {lineno}: bad grade {grade!r}")
            kids = [_int(x, lineno) for x in toks[3:bar]]
            projs = frozenset(_int(x, lineno) for x in toks[bar + 1:])
            if projs and grade != _grade(projs, p):
                raise TreeError(f"line {lineno}: node {nid} has grade {grade} "
                                f"but projects {sorted(projs)}")
            for c in kids:
                if c not in nodes:
                    raise TreeError(
                        f"line {lineno}: child {c} not defined before parent {nid}")
            if nid in nodes:
                raise TreeError(f"line {lineno}: duplicate node id {nid}")
            nodes[nid] = PjNode(children=kids, projected=projs)
        elif toks[0] == "r":
            if len(toks) != 2:
                raise TreeError(f"line {lineno}: malformed root line")
            root = _int(toks[1], lineno)
        else:
            raise TreeError(f"line {lineno}: unknown record {toks[0]!r}")
    if header is None:
        raise TreeError("missing pjt header")
    if root is None:
        raise TreeError("missing root line")
    if header[0] != len(nodes):
        raise TreeError(f"header declares {header[0]} nodes, file has {len(nodes)}")
    if header[1] != len(p.clauses) or header[2] != p.num_vars:
        raise TreeError("header clause/variable counts disagree with the problem")
    t = PjTree(nodes=nodes, root=root)
    check_tree(t, p)
    return t


def plan(p: Problem, heuristic: str = "min-fill", *,
         deadline: float | None = None,
         graph: dict[int, set[int]] | None = None) -> PjTree:
    """Elimination order + bucket elimination in one step.

    `deadline` (a time.monotonic() value) is polled at every variable in
    both steps; DeadlineExceeded is raised once it has passed.  `graph` is
    `primal_graph(p)`, if the caller has it already; it is not changed.
    """
    if graph is None:
        graph = primal_graph(p)
    order = elimination_order(graph, p.X, p.Y, heuristic, deadline=deadline)
    return build_graded_tree(p, order, deadline=deadline)
