"""Pseudo-Boolean functions as reduced ordered decision diagrams.

Every function lives in a DiagramStore that owns the unique table, so two
functions from the same store are pointwise equal exactly when they share a
root handle.  Terminals are double-precision reals deduplicated by value
equality (no epsilon merging).

Nodes are indexed by level: a node stores the rank of its variable in the
store's variable sequence, and terminals sit at the level past its last
variable.  On any root-to-terminal path the levels strictly increase.  One
binary recursion (`_apply`) serves every binary op: product, max, convex
combination and the product floored at a bound L, which is 0 wherever the
product is below L.  One registry (`_op`) gives each probability and each
L its op id; the floored product has no short-cut for ONE, so ONE * g
floors g.  One projection walk (`_abstract`) serves existential and
randomized projection; a derivative sign builds no diagram (`DsgnFunc`).
Unique-table and op-cache keys are packed ints; handles and levels take
HANDLE_BITS each below an unbounded, signed top field (the level in a node
key, the op id in a cache key), so keys never collide.

A node holds only its level, its children and, on a terminal, its value,
as in CUDD.  A support is found by one walk; `support_bound` reads a bound
recorded for each function the store hands out (for a join the union of
its operands', for a projection its operand's less the variable), so the
executor's `max_support` stat walks only when the bound passes its running
maximum, and a walk stops once it has met every level of the bound.  The
op cache only saves work: the executor clears it per tree node.

`collect(roots)` is a non-moving mark-and-sweep, as in the ADD packages that
reclaim dead nodes (Sylvan: van Dijk & van de Pol, STTT 2017).  It keeps the
nodes reachable from the roots, marking each once, rebuilds the unique table
from the live nodes' levels and children, puts every other handle on a
free list, and `_new` reuses free handles before it grows the arrays.  Live
handles never move, so functions built before a collection stay valid if and
only if they are reachable from its roots.  `node_done`, the step after each
tree node, collects only once the store has grown by COLLECT_GROWTH, so
collections cost time in proportion to the nodes made since the last one.
The node limit caps the nodes held at once, unreclaimed dead ones included.

Every value lies in [0, 1], the one domain of both stores: `constant`
rejects any other, clauses are 0/1, and a product, a max or a rounded convex
combination of values in [0, 1] stays there, since
fl(p*a) + fl((1-p)*b) <= fl(p + fl(1-p)) = 1.  So `_apply` answers
max(f, 0) = f and max(f, 1) = 1 at once, without the recursion that would
rebuild f, or ONE, out of existing nodes.

A product or convex combination whose exact value is nonzero but rounds to
0 or to a subnormal sets the store's `underflow` flag.

A store and its diagrams belong to a single solve and are used by one worker
at a time; diagrams are immutable once created.

PbFunc is the function type of every store the executor runs on: a store
and a handle, here a node and in `dense.DenseStore` a table, with the work
done by the store.
"""

from __future__ import annotations

import sys
import time
from collections import ChainMap
from collections.abc import Callable, Iterable
from itertools import compress

HANDLE_BITS = 32  # handles and levels stay below 2**HANDLE_BITS

# Binary op ids are even; `_abstract` keys its cache entries with op | 1.
# A parameterized op gets one even id per distinct parameter (`_op`): a
# convex combination a positive id from _FIRST_PARAM up, a product floored
# at a bound a negative one, so that every op id at most MAX is a commuting
# product or max.
MUL, MAX, _FIRST_PARAM = 0, 2, 4
ZERO, ONE = 0, 1  # handles of the first two terminals of every store
_MIN_NORMAL = sys.float_info.min  # below it a nonzero double is subnormal
_NOT = bytes([1]) + bytes(255)  # bytes.translate table: 0 -> 1, 1 -> 0

# `node_done` collects once the store holds more than COLLECT_FLOOR nodes and
# COLLECT_GROWTH times the nodes that survived its last collection.
COLLECT_FLOOR = 1 << 14
COLLECT_GROWTH = 2


class ResourceLimitError(Exception):
    """A store would hold more diagram nodes or table entries than its cap."""


class DeadlineExceeded(Exception):
    """Wall-clock deadline hit during planning or execution."""


def poll_deadline(deadline: float | None, phase: str):
    """Raise DeadlineExceeded, naming `phase`, once `deadline` (a
    time.monotonic() value) has passed."""
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded(f"deadline hit during {phase}")


class DiagramStore:
    """Hash-consed node store plus the op cache for one solve.

    Handles are indices into four parallel arrays: level, low and high
    child, and terminal value.  The op cache may be cleared at any point
    without changing results or handles.  A handle on the free list indexes
    a reclaimed slot whose entries are stale until `_new` reuses it.
    """

    name = "diagram"  # the executor a solve reports
    _CHECK_EVERY = 4096  # deadline poll interval, in node creations

    def __init__(self, variables: Iterable[int], node_limit: int | None = None,
                 deadline: float | None = None):
        self.variables = tuple(variables)  # level -> variable, total for a solve
        self._rank = {v: i for i, v in enumerate(self.variables)}
        if len(self._rank) != len(self.variables):
            raise ValueError("variable order contains duplicates")
        if len(self._rank) >= 1 << HANDLE_BITS:
            raise ValueError(f"{len(self._rank)} variables exceed the level range")
        self.deadline = deadline
        self._cap = 1 << HANDLE_BITS
        if node_limit is not None:
            self._cap = min(node_limit, self._cap)
        self._tlev = len(self.variables)  # the level of every terminal
        self._lev: list[int] = []
        self._lo: list[int] = []
        self._hi: list[int] = []
        self._val: list[float] = []
        self._terms: dict[float, int] = {}
        self._bounds: dict[int, int] = {}  # handed-out handle -> support bound mask
        self._unique: dict[int, int] = {}
        self._cache: dict[int, int] = {}
        self._ops: dict[tuple[int, float], int] = {}  # (sign, value) -> op id
        self._param: dict[int, float] = {}  # op id -> its probability or bound
        self._free: list[int] = []  # reclaimed handles, reused before appending
        self._reused = 0  # nodes made in reclaimed slots
        self._peak = 0  # most nodes held at once, as of the last collection
        self._collect_above = COLLECT_FLOOR  # held nodes that trigger `node_done`
        self.underflow = False
        self._terminal(0.0)  # ZERO
        self._terminal(1.0)  # ONE

    # -- node construction -------------------------------------------------

    def _new(self, level: int, lo: int, hi: int, value: float) -> int:
        free = self._free
        if free:
            h = free.pop()
            self._lev[h] = level
            self._lo[h] = lo
            self._hi[h] = hi
            self._val[h] = value
            self._reused = n = self._reused + 1
        else:
            # with no free handle every slot is held, so this caps held nodes
            h = n = len(self._lev)
            if h >= self._cap:
                raise ResourceLimitError(f"diagram store would hold more than "
                                         f"{self._cap} nodes")
            self._lev.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
            self._val.append(value)
        if n % self._CHECK_EVERY == 0:  # n counts the creations on h's path
            poll_deadline(self.deadline, "execution")
        return h

    def _terminal(self, value: float) -> int:
        h = self._terms.get(value)
        if h is None:
            h = self._terms[value] = self._new(self._tlev, -1, -1, value)
        return h

    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level << HANDLE_BITS | lo) << HANDLE_BITS | hi
        h = self._unique.get(key)
        if h is None:
            h = self._unique[key] = self._new(level, lo, hi, 0.0)
        return h

    @property
    def node_count(self) -> int:
        """Total nodes ever created (terminals included); monotone."""
        return len(self._lev) + self._reused

    @property
    def held_count(self) -> int:
        """Nodes held now: live ones plus those not yet reclaimed."""
        return len(self._lev) - len(self._free)

    @property
    def peak_held(self) -> int:
        """Most nodes held at once so far."""
        return max(self._peak, self.held_count)

    def clear_cache(self):
        self._cache.clear()

    def node_done(self, live: Callable[[], Iterable["PbFunc"]]):
        """End of a tree node: clear the op cache and, once the store has
        grown enough, collect, which invalidates what `live()` does not reach."""
        self.clear_cache()
        if self.held_count > self._collect_above:
            self.collect(g.root for g in live())
            self._collect_above = max(COLLECT_FLOOR,
                                      COLLECT_GROWTH * self.held_count)

    def collect(self, roots: Iterable[int]):
        """Reclaim every node unreachable from ZERO, ONE and `roots`, and
        clear the op cache; a function not reachable from `roots` is invalid
        afterwards, and reachable handles keep their slots."""
        self._peak = self.peak_held
        self._cache.clear()
        lev, lo, hi = self._lev, self._lo, self._hi
        mark = bytearray(len(lev))
        mark[ZERO] = mark[ONE] = 1
        inner = self._mark(roots, mark)
        # most nodes are dead, so rebuilding the unique table from the live
        # ones costs less than filtering it
        self._unique = {(lev[h] << HANDLE_BITS | lo[h]) << HANDLE_BITS | hi[h]: h
                        for h in inner}
        self._terms = {v: h for v, h in self._terms.items() if mark[h]}
        self._bounds = {h: m for h, m in self._bounds.items() if mark[h]}
        self._free = list(compress(range(len(mark)), mark.translate(_NOT)))

    def _mark(self, roots: Iterable[int], mark: bytearray) -> list[int]:
        """Mark what `roots` reach via unmarked nodes; return the inner ones."""
        lev, lo, hi, tlev = self._lev, self._lo, self._hi, self._tlev
        stack = []  # marked handles whose children are not yet marked
        for h in roots:
            if not mark[h]:
                mark[h] = 1
                stack.append(h)
        inner = []
        while stack:
            h = stack.pop()
            if lev[h] != tlev:
                inner.append(h)
                c = lo[h]
                if not mark[c]:
                    mark[c] = 1
                    stack.append(c)
                c = hi[h]
                if not mark[c]:
                    mark[c] = 1
                    stack.append(c)
        return inner

    # -- public constructors ------------------------------------------------

    def constant(self, c: float) -> "PbFunc":
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"a terminal value must lie in [0, 1], got {c}")
        return PbFunc(self, self._terminal(float(c)))

    def clause_func(self, clause: Iterable[int]) -> "PbFunc":
        """0/1 diagram of a disjunction of signed literals.

        The clause must not mention a variable twice (tautologies have no
        diagram here; an empty clause yields constant 0).
        """
        rank = self._rank
        h = ZERO
        for l in sorted(clause, key=lambda l: rank[abs(l)], reverse=True):
            r = rank[abs(l)]
            h = self._mk(r, h, ONE) if l > 0 else self._mk(r, ONE, h)
        self._bounds[h] = sum(1 << rank[abs(l)] for l in clause)  # exact
        return PbFunc(self, h)

    # -- the recursions (handle level) ----------------------------------------

    def _apply(self, op: int, f: int, g: int) -> int:
        """Pointwise op(f, g): f*g, max(f, g), p*f + (1-p)*g, or f*g floored
        at a bound L (0 wherever f*g < L)."""
        if op == MUL:
            if f == ONE:
                return g
            if g == ONE:
                return f
            if f == ZERO or g == ZERO:
                return ZERO
        elif op < MUL:  # floored: no short-cut for ONE, so ONE * g floors g
            if f == ZERO or g == ZERO:
                return ZERO
        elif f == g:
            return f
        elif op == MAX:
            # every value lies in [0, 1]: max(f, 0) = f and max(f, 1) = 1
            if f == ONE or g == ONE:
                return ONE
            if f == ZERO:
                return g
            if g == ZERO:
                return f
        lev = self._lev
        lf, lg = lev[f], lev[g]
        tlev = self._tlev
        if lf == tlev and lg == tlev:
            a, b = self._val[f], self._val[g]
            if op == MUL:
                r = a * b
                if r < _MIN_NORMAL:  # neither side is ZERO
                    self.underflow = True
                return self._terminal(r)
            if op == MAX:
                return self._terminal(max(a, b))
            if op < MUL:
                r = a * b
                if r < _MIN_NORMAL and a != 1.0 and b != 1.0:
                    self.underflow = True
                return ZERO if r < self._param[op] else self._terminal(r)
            p = self._param[op]
            r = p * a + (1.0 - p) * b
            if r < _MIN_NORMAL and (p and a or p != 1.0 and b):
                self.underflow = True
            return self._terminal(r)
        if f > g and op <= MAX:  # products and max commute
            f, g, lf, lg = g, f, lg, lf
        key = (op << HANDLE_BITS | f) << HANDLE_BITS | g
        h = self._cache.get(key)
        if h is not None:
            return h
        if lf <= lg:
            level, f0, f1 = lf, self._lo[f], self._hi[f]
        else:
            level, f0, f1 = lg, f, f
        if lg == level:
            g0, g1 = self._lo[g], self._hi[g]
        else:
            g0 = g1 = g
        h = self._mk(level, self._apply(op, f0, g0), self._apply(op, f1, g1))
        self._cache[key] = h
        return h

    def _abstract(self, op: int, f: int, level: int) -> int:
        """Project the variable at `level` out of f by op(hi cofactor, lo).

        MAX gives existential projection, a convex op randomized projection.
        """
        lf = self._lev[f]
        if lf > level:
            return f
        if lf == level:
            return self._apply(op, self._hi[f], self._lo[f])
        key = ((op | 1) << HANDLE_BITS | f) << HANDLE_BITS | level
        h = self._cache.get(key)
        if h is not None:
            return h
        h = self._mk(lf, self._abstract(op, self._lo[f], level),
                     self._abstract(op, self._hi[f], level))
        self._cache[key] = h
        return h

    # -- the operations PbFunc delegates to, on handles ------------------------

    def join(self, f: int, g: int, floor: float = 0.0) -> int:
        h = self._apply(self._op(-1, floor) if floor else MUL, f, g)
        self._bounds[h] = self._bound(f) | self._bound(g)
        return h

    def exists_project(self, f: int, x: int) -> int:
        return self._project(MAX, f, self._rank[x])

    def rand_project(self, f: int, x: int, p: float) -> int:
        return self._project(self._op(1, p), f, self._rank[x])

    def _op(self, sign: int, value: float) -> int:
        """The op id of a convex combination with probability `value` (sign
        1) or of a product floored at the bound `value` (sign -1): one id
        per distinct pair, its sign the given one."""
        op = self._ops.get((sign, value))
        if op is None:
            op = self._ops[sign, value] = sign * (_FIRST_PARAM + 2 * len(self._ops))
            self._param[op] = value
        return op

    def _project(self, op: int, f: int, level: int) -> int:
        h = self._abstract(op, f, level)
        self._bounds[h] = self._bound(f) & ~(1 << level)
        return h

    def evaluate(self, f: int, assignment: dict[int, bool]) -> float:
        variables = self.variables
        h = f
        while self._lev[h] != self._tlev:
            v = variables[self._lev[h]]
            try:
                b = assignment[v]
            except KeyError:
                raise KeyError(f"assignment is missing support variable {v}") from None
            h = self._hi[h] if b else self._lo[h]
        return self._val[h]

    def _bound(self, f: int) -> int:
        """The bound mask recorded for f, else every level from f's down."""
        return self._bounds.get(f, (1 << self._tlev) - (1 << self._lev[f]))

    def support(self, f: int) -> frozenset[int]:
        """The variables of the levels f's inner nodes sit at, found by one
        walk that stops once it has met as many levels as f's bound holds:
        the support lies within the bound, so then it is the bound."""
        lev, lo, hi, tlev = self._lev, self._lo, self._hi, self._tlev
        want = self._bound(f).bit_count()
        levels: set[int] = set()
        seen, stack = {f}, [f]
        while stack and len(levels) < want:
            h = stack.pop()
            if lev[h] != tlev:
                levels.add(lev[h])
                for c in (lo[h], hi[h]):
                    if c not in seen:
                        seen.add(c)
                        stack.append(c)
        variables = self.variables
        return frozenset(variables[v] for v in levels)

    def support_bound(self, f: int) -> int:
        return self._bound(f).bit_count()


class PbFunc:
    """A pseudo-Boolean function: a handle `root` into its store.

    The store decides what a handle is and does the work: a node handle of a
    DiagramStore, or a table of a `dense.DenseStore`.  `==` compares stores
    and handles.  On diagrams that is pointwise equality, decided in O(1)
    thanks to hash consing; on tables it is not, since two tables holding
    the same function are two handles and compare unequal.
    """

    __slots__ = ("store", "root")

    def __init__(self, store, root):
        self.store = store
        self.root = root

    def join(self, other: "PbFunc", floor: float = 0.0) -> "PbFunc":
        """Pointwise product over the union of supports, with every value
        below `floor` set to 0."""
        if self.store is not other.store:
            raise ValueError("operands built under different stores/orders")
        return PbFunc(self.store, self.store.join(self.root, other.root, floor))

    def exists_project(self, x: int) -> "PbFunc":
        """Pointwise max over the two cofactors of x; identity if x is absent."""
        return PbFunc(self.store, self.store.exists_project(self.root, x))

    def rand_project(self, x: int, p: float) -> "PbFunc":
        """Convex combination p*(x=1 cofactor) + (1-p)*(x=0 cofactor)."""
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"probability {p} outside [0, 1]")
        return PbFunc(self.store, self.store.rand_project(self.root, x, p))

    def dsgn(self, x: int) -> "DsgnFunc":
        """Which value of x attains the larger cofactor, read when picked."""
        return DsgnFunc(x, self)

    def evaluate(self, assignment: dict[int, bool]) -> float:
        """Value at a total assignment (w.r.t. this function's support)."""
        return self.store.evaluate(self.root, assignment)

    @property
    def support(self) -> frozenset[int]:
        """The variables the function's value changes with."""
        return self.store.support(self.root)

    def support_bound(self) -> int:
        """An O(1) upper bound on the size of `support`."""
        return self.store.support_bound(self.root)

    def __eq__(self, other):
        return (isinstance(other, PbFunc) and other.store is self.store
                and other.root == self.root)

    def __hash__(self):
        return hash((id(self.store), self.root))


class DsgnFunc:
    """A derivative sign: the variable x and the function f it was taken from.

    pick(tau) is f(tau with x = 1) >= f(tau with x = 0), so ties choose 1.
    tau must assign every other variable of f; its value of x is not read.
    """

    __slots__ = ("var", "f")

    def __init__(self, var: int, f: PbFunc):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "f", f)

    def __setattr__(self, name, value):
        raise AttributeError(f"DsgnFunc is immutable: cannot set {name!r}")

    def pick(self, assignment: dict[int, bool]) -> bool:
        x, f = self.var, self.f
        return (f.evaluate(ChainMap({x: True}, assignment))
                >= f.evaluate(ChainMap({x: False}, assignment)))
