"""Pseudo-Boolean functions as reduced ordered decision diagrams.

Every function lives in a DiagramStore that owns the unique table, so two
functions from the same store are pointwise equal exactly when they share a
root handle.  Terminals are double-precision reals deduplicated by value
equality (no epsilon merging).

Nodes are indexed by level: a node stores the rank of its variable in the
store's VarOrder, and terminals sit at level len(order).  On any
root-to-terminal path the levels strictly increase.  One binary recursion
(`_apply`) serves product, max, convex combination and comparison, and one
projection walk (`_abstract`) serves existential and randomized projection
and the derivative sign.  Unique-table and op-cache keys are packed ints;
handles and levels take HANDLE_BITS each below an unbounded top field (the
level in a node key, the op id in a cache key), so keys never collide.

Each node's support is a bitmask over levels, set once when the node is
created, so support sizes cost O(1).  Equal masks share one int object: a
store holds far fewer distinct supports than nodes (1,640 against 106k on
the largest rand-exist benchmark instance), and an int per node would be
an eighth of a solve's peak memory.  The op cache only saves work: the
executor clears it after every tree node.

A store and its diagrams belong to a single solve and are used by one worker
at a time; diagrams are immutable once created.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable

HANDLE_BITS = 32  # handles and levels stay below 2**HANDLE_BITS

# Binary op ids are even; `_abstract` keys its cache entries with op | 1.
# Convex combinations get one even id per distinct probability.
MUL, MAX, GE, _FIRST_CONVEX = 0, 2, 4, 6
ZERO, ONE = 0, 1  # handles of the first two terminals of every store


class ResourceLimitError(Exception):
    """Diagram node count exceeded the configured cap."""


class DeadlineExceeded(Exception):
    """Wall-clock deadline hit during diagram operations."""


class VarOrder:
    """Fixed bijection from variables to diagram levels, total for one solve."""

    __slots__ = ("_rank", "_vars")

    def __init__(self, variables: Iterable[int]):
        self._vars = tuple(variables)
        self._rank = {v: i for i, v in enumerate(self._vars)}
        if len(self._rank) != len(self._vars):
            raise ValueError("variable order contains duplicates")

    def rank(self, var: int) -> int:
        return self._rank[var]

    def __contains__(self, var: int) -> bool:
        return var in self._rank

    def __len__(self) -> int:
        return len(self._vars)

    @property
    def variables(self) -> tuple[int, ...]:
        return self._vars


class DiagramStore:
    """Hash-consed node store plus the op cache for one solve.

    Handles are indices into parallel arrays: level, low and high child,
    terminal value and support mask.  The op cache may be cleared at any
    point without changing results or handles.
    """

    _CHECK_EVERY = 4096  # deadline poll interval, in node creations

    def __init__(self, order: VarOrder, node_limit: int | None = None,
                 deadline: float | None = None):
        if len(order) >= 1 << HANDLE_BITS:
            raise ValueError(f"{len(order)} variables exceed the level range")
        self.order = order
        self.node_limit = node_limit
        self.deadline = deadline
        self._cap = 1 << HANDLE_BITS
        if node_limit is not None:
            self._cap = min(node_limit, self._cap)
        self._tlev = len(order)  # the level of every terminal
        self._lev: list[int] = []
        self._lo: list[int] = []
        self._hi: list[int] = []
        self._val: list[float] = []
        self._sup: list[int] = []
        self._masks: dict[int, int] = {}  # each distinct support mask, once
        self._terms: dict[float, int] = {}
        self._unique: dict[int, int] = {}
        self._cache: dict[int, int] = {}
        self._convex_ops: dict[float, int] = {}
        self._prob: dict[int, float] = {}  # convex op id -> its probability
        self.zero = self._terminal(0.0)
        self.one = self._terminal(1.0)

    # -- node construction -------------------------------------------------

    def _new(self, level: int, lo: int, hi: int, value: float, sup: int) -> int:
        h = len(self._lev)
        if h >= self._cap:
            raise ResourceLimitError(f"diagram store exceeded {self._cap} nodes")
        if (h % self._CHECK_EVERY == 0 and self.deadline is not None
                and time.monotonic() > self.deadline):
            raise DeadlineExceeded("deadline hit during execution")
        self._lev.append(level)
        self._lo.append(lo)
        self._hi.append(hi)
        self._val.append(value)
        self._sup.append(sup)
        return h

    def _terminal(self, value: float) -> int:
        h = self._terms.get(value)
        if h is None:
            h = self._terms[value] = self._new(self._tlev, -1, -1, value, 0)
        return h

    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level << HANDLE_BITS | lo) << HANDLE_BITS | hi
        h = self._unique.get(key)
        if h is None:
            sup = self._sup[lo] | self._sup[hi] | 1 << level
            sup = self._masks.setdefault(sup, sup)
            h = self._unique[key] = self._new(level, lo, hi, 0.0, sup)
        return h

    @property
    def node_count(self) -> int:
        """Total nodes ever created (terminals included); monotone."""
        return len(self._lev)

    def clear_cache(self):
        self._cache.clear()

    def _convex_op(self, p: float) -> int:
        op = self._convex_ops.get(p)
        if op is None:
            op = self._convex_ops[p] = _FIRST_CONVEX + 2 * len(self._convex_ops)
            self._prob[op] = p
        return op

    # -- public constructors ------------------------------------------------

    def constant(self, c: float) -> "PbFunc":
        if not math.isfinite(c):
            raise ValueError(f"terminal value must be finite, got {c}")
        return PbFunc(self, self._terminal(float(c)))

    def clause_func(self, clause: Iterable[int]) -> "PbFunc":
        """0/1 diagram of a disjunction of signed literals.

        The clause must not mention a variable twice (tautologies have no
        diagram here; an empty clause yields constant 0).
        """
        rank = self.order.rank
        h = ZERO
        for l in sorted(clause, key=lambda l: rank(abs(l)), reverse=True):
            r = rank(abs(l))
            h = self._mk(r, h, ONE) if l > 0 else self._mk(r, ONE, h)
        return PbFunc(self, h)

    # -- the recursions (handle level) ----------------------------------------

    def _apply(self, op: int, f: int, g: int) -> int:
        """Pointwise op(f, g): f*g, max(f, g), [f >= g], or p*f + (1-p)*g."""
        if op == MUL:
            if f == ONE:
                return g
            if g == ONE:
                return f
            if f == ZERO or g == ZERO:
                return ZERO
        elif f == g:
            return ONE if op == GE else f
        lev = self._lev
        lf, lg = lev[f], lev[g]
        tlev = self._tlev
        if lf == tlev and lg == tlev:
            a, b = self._val[f], self._val[g]
            if op == MUL:
                return self._terminal(a * b)
            if op == MAX:
                return self._terminal(max(a, b))
            if op == GE:
                return ONE if a >= b else ZERO
            p = self._prob[op]
            return self._terminal(p * a + (1.0 - p) * b)
        if f > g and op <= MAX:  # product and max commute
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

        MAX gives existential projection, a convex op randomized projection,
        GE the derivative sign (ties choose 1, as does an absent variable).
        """
        lf = self._lev[f]
        if lf > level:
            return ONE if op == GE else f
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

    def _reachable(self, f: int) -> list[int]:
        """Handles of every node under f, f included, each once."""
        seen = {f}
        stack = [f]
        while stack:
            h = stack.pop()
            if self._lev[h] != self._tlev:
                for c in (self._lo[h], self._hi[h]):
                    if c not in seen:
                        seen.add(c)
                        stack.append(c)
        return sorted(seen)

    def approx_equal(self, f: "PbFunc", g: "PbFunc", tol: float) -> bool:
        """Pointwise |f - g| <= tol, by simultaneous traversal."""
        lev, lo, hi = self._lev, self._lo, self._hi
        memo: dict[tuple[int, int], bool] = {}

        def rec(a: int, b: int) -> bool:
            if a == b:
                return True
            got = memo.get((a, b))
            if got is not None:
                return got
            la, lb = lev[a], lev[b]
            if la == lb == self._tlev:
                ok = abs(self._val[a] - self._val[b]) <= tol
            else:
                a0, a1 = (lo[a], hi[a]) if la <= lb else (a, a)
                b0, b1 = (lo[b], hi[b]) if lb <= la else (b, b)
                ok = rec(a0, b0) and rec(a1, b1)
            memo[(a, b)] = ok
            return ok

        if f.store is not self or g.store is not self:
            raise ValueError("functions belong to a different store")
        return rec(f.root, g.root)


class PbFunc:
    """A pseudo-Boolean function: a handle into a DiagramStore.

    Equality is pointwise equality, decided in O(1) by handle comparison
    thanks to hash consing.
    """

    __slots__ = ("store", "root")

    def __init__(self, store: DiagramStore, root: int):
        self.store = store
        self.root = root

    def join(self, other: "PbFunc") -> "PbFunc":
        """Pointwise product over the union of supports."""
        if self.store is not other.store:
            raise ValueError("operands built under different stores/orders")
        return PbFunc(self.store, self.store._apply(MUL, self.root, other.root))

    def _abstract(self, op: int, x: int) -> "PbFunc":
        st = self.store
        return PbFunc(st, st._abstract(op, self.root, st.order.rank(x)))

    def exists_project(self, x: int) -> "PbFunc":
        """Pointwise max over the two cofactors of x; identity if x is absent."""
        return self._abstract(MAX, x)

    def rand_project(self, x: int, p: float) -> "PbFunc":
        """Convex combination p*(x=1 cofactor) + (1-p)*(x=0 cofactor)."""
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"probability {p} outside [0, 1]")
        return self._abstract(self.store._convex_op(p), x)

    def dsgn(self, x: int) -> "DsgnFunc":
        """Which value of x attains the larger cofactor; ties choose 1."""
        return DsgnFunc(x, self._abstract(GE, x))

    def evaluate(self, assignment: dict[int, bool]) -> float:
        """Value at a total assignment (w.r.t. this function's support)."""
        st = self.store
        variables = st.order.variables
        h = self.root
        while st._lev[h] != st._tlev:
            v = variables[st._lev[h]]
            try:
                b = assignment[v]
            except KeyError:
                raise KeyError(f"assignment is missing support variable {v}") from None
            h = st._hi[h] if b else st._lo[h]
        return st._val[h]

    @property
    def support(self) -> frozenset[int]:
        mask = self.store._sup[self.root]
        variables = self.store.order.variables
        return frozenset(variables[i] for i in range(mask.bit_length())
                         if mask >> i & 1)

    def support_size(self) -> int:
        return self.store._sup[self.root].bit_count()

    def is_constant(self) -> bool:
        return self.store._lev[self.root] == self.store._tlev

    def terminal_values(self) -> set[float]:
        st = self.store
        return {st._val[h] for h in st._reachable(self.root)
                if st._lev[h] == st._tlev}

    def __eq__(self, other):
        return (isinstance(other, PbFunc) and other.store is self.store
                and other.root == self.root)

    def __hash__(self):
        return hash((id(self.store), self.root))

    def __repr__(self):
        if self.is_constant():
            return f"PbFunc(const {self.store._val[self.root]})"
        return f"PbFunc(#{self.root} over {sorted(self.support)})"

    def to_dot(self, name: str = "f") -> str:
        """GraphViz rendering; solid edge = assigned 1, dashed = assigned 0."""
        st = self.store
        lines = [f"digraph {name} {{"]
        for h in st._reachable(self.root):
            if st._lev[h] == st._tlev:
                lines.append(f'  n{h} [shape=box, label="{st._val[h]:g}"];')
            else:
                var = st.order.variables[st._lev[h]]
                lines.append(f'  n{h} [shape=oval, label="{var}"];')
                lines.append(f"  n{h} -> n{st._hi[h]};")
                lines.append(f"  n{h} -> n{st._lo[h]} [style=dashed];")
        lines.append("}")
        return "\n".join(lines)


@dataclass(frozen=True)
class DsgnFunc:
    """A derivative sign: the variable plus its 0/1-valued chooser function.

    chooser(tau) = 1 means the variable should be set to 1 to maximize the
    function the sign was taken from, given the partial assignment tau.
    """

    var: int
    chooser: PbFunc

    def __post_init__(self):
        st = self.chooser.store
        assert not st._sup[self.chooser.root] >> st.order.rank(self.var) & 1

    def pick(self, assignment: dict[int, bool]) -> bool:
        return self.chooser.evaluate(assignment) != 0.0
