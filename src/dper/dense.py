"""Pseudo-Boolean functions as dense tables, for trees of small width.

The tensor alternative to decision diagrams for the same dynamic programme
(TensorOrder: Dudek, Dueñas-Osorio & Vardi, 2019).  A DenseStore's functions
are `pbf.PbFunc` handles whose root is a Table: one value per assignment to
its variables, as a flat Python list in row-major order over `vars`; bit 0
of an axis is false and bit 1 true.  The variables follow the store's
VarOrder, the tree's projection order, with the variable projected first as
the outermost axis: the variable a tree node projects is the first one of
its table, so its two cofactors are the two halves of the list.  A table
over k variables holds 2^k entries whatever the function is, so the
executor chooses this store only for trees whose tables are small
(`executor.DENSE_MAX_WORK`).

DenseStore gives the operations `pbf.PbFunc` delegates to, as
`pbf.DiagramStore` does, and every value is bit-identical to the diagram
kernel's, which does the same float arithmetic:

- join multiplies pointwise, and a join floored at L then sets every entry
  below L to 0; a clause is its 0/1 table and joins like any other table,
  since times 0 and times 1 are exact and exempt from the underflow rule;
- existential projection takes the pointwise max of the two cofactors, and
  a derivative sign (`pbf.DsgnFunc`) compares two entries of the table it
  was taken from, as on diagrams;
- randomized projection is p*hi + (1-p)*lo, except that hi == lo gives lo,
  as the kernel's `f == g` short-cut does;
- the underflow flag follows the kernel's terminal rule: a product of two
  values outside {0, 1}, or a combination of unequal cofactors with a
  nonzero term, that rounds to 0 or to a subnormal number;
- `support` is the true support: the axes along which the table varies.

Each table also keeps `low`, a lower bound on its nonzero entries, so that
the underflow rule is evaluated entry by entry only when an operation's
result could fall below the smallest normal number.  Every entry lies in
[0, 1], the domain `constant` checks, which the bound and the one-sided
underflow tests rely on.

The store has no node limit: the executor checks the tree's table entries
against it before choosing tables.  The deadline is polled at every tree
node.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from operator import mul

from .pbf import _MIN_NORMAL, PbFunc, VarOrder, poll_deadline


class Table:
    """The values of a function over `vars`, in store order, and a lower
    bound `low` on its nonzero entries."""

    __slots__ = ("vars", "entries", "low")

    def __init__(self, variables: tuple[int, ...], entries: list, low: float):
        self.vars = variables
        self.entries = entries
        self.low = low

    def expand(self, variables: tuple[int, ...]) -> list:
        """The entries over `variables`, a superset of `vars` in store order,
        repeated along the axes they lack, one pass per run of adjacent
        missing axes."""
        t = self.entries
        if variables != self.vars:
            own = set(self.vars)
            size = 1  # entries below the axis
            run = 1  # 2 to the number of missing axes just outside `size`
            for v in reversed(variables):
                if v not in own:
                    run *= 2
                    continue
                if run > 1:
                    t = _repeat_blocks(t, size, run)
                    size *= run
                    run = 1
                size *= 2
            if run > 1:
                t = _repeat_blocks(t, size, run)
        return t

    def split(self, x: int) -> tuple[tuple[int, ...], list, list]:
        """(variables without x, hi cofactor, lo cofactor); x must be a variable."""
        i = self.vars.index(x)
        lo, hi = _cofactors(self.entries, i)
        return self.vars[:i] + self.vars[i + 1:], hi, lo


def _repeat_blocks(t: list, size: int, copies: int) -> list:
    """`t` with each run of `size` entries repeated `copies` times in place:
    new axes, `copies` = 2^m for m of them, just outside the innermost axes
    whose entries make up `size`.

    Copying block by block takes one step per block and copying by stride
    one step per entry of a block and copy; each is used where it takes
    fewer."""
    n = len(t)
    if n <= copies * size * size:  # few blocks, so copy them one by one
        out = []
        for k in range(0, n, size):
            out += t[k:k + size] * copies
        return out
    out = [0.0] * (copies * n)  # many short blocks, so copy them by stride
    step = copies * size
    for r in range(size):
        column = t[r::size]
        for j in range(r, step, size):
            out[j::step] = column
    return out


def _cofactors(t: list, axis: int) -> tuple[list, list]:
    """(lo, hi): the table `t` with the variable on `axis` set to 0 and 1."""
    size = len(t) >> (axis + 1)  # entries below the axis
    if axis == 0:  # the variable a tree node projects
        return t[:size], t[size:]
    lo, hi = [], []
    for k in range(0, len(t), 2 * size):
        lo += t[k:k + size]
        hi += t[k + size:k + 2 * size]
    return lo, hi


def _varies(t: list, axis: int) -> bool:
    """Whether the table `t` differs between its cofactors on `axis`.

    The first pair of blocks is compared first: a table that varies along
    an axis mostly does so there, and the stride scan below copies whole
    columns before it can stop.  Past it, comparing block by block takes
    one step per block and comparing by stride one step per entry of a
    block; each is used where it takes fewer, as in `_repeat_blocks`."""
    size = len(t) >> (axis + 1)
    step = 2 * size
    if t[:size] != t[size:step]:
        return True
    if size * size <= len(t):  # many short blocks, so compare by stride
        return any(t[k::step] != t[k + size::step] for k in range(size))
    return any(t[k:k + size] != t[k + size:k + step]
               for k in range(step, len(t), step))


class DenseStore:
    """Factory and operations for the tables of one solve."""

    name = "dense"  # the executor a solve reports
    node_count = 0  # no diagram nodes
    peak_held = 0

    def __init__(self, order: VarOrder, deadline: float | None = None):
        self.rank = order._rank.__getitem__  # a sort key that runs no Python
        self.deadline = deadline
        self.underflow = False

    def constant(self, c: float) -> PbFunc:
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"a table entry must lie in [0, 1], got {c}")
        return PbFunc(self, Table((), [float(c)], c or 1.0))

    def clause_func(self, clause: Iterable[int]) -> PbFunc:
        """0/1 table of a disjunction of signed literals, each variable once;
        an empty clause gives constant 0."""
        poll_deadline(self.deadline, "execution")
        variables = tuple(sorted(map(abs, clause), key=self.rank))
        negated = {-l for l in clause if l < 0}
        entries = [1.0] * (1 << len(variables))
        falsified = 0  # the one assignment that falsifies every literal
        for v in variables:
            falsified = 2 * falsified + (v in negated)
        entries[falsified] = 0.0
        return PbFunc(self, Table(variables, entries, 1.0))

    def node_done(self, live: Callable[[], Iterable[PbFunc]]):
        """End of a tree node.  Dead tables are freed as soon as nothing
        refers to them, so `live` is not needed; only the deadline is polled."""
        poll_deadline(self.deadline, "execution")

    # -- the operations PbFunc delegates to, on tables -------------------------

    def join(self, a: Table, b: Table, floor: float = 0.0) -> Table:
        """Pointwise product over the union of the two tables' variables,
        with every entry below `floor` set to 0, as the diagram kernel's
        floored product does."""
        r = self._product(a, b)
        if r.low >= floor:  # no nonzero entry lies below the floor
            return r
        entries = [z if z >= floor else 0.0 for z in r.entries]
        return Table(r.vars, entries, floor)

    def _product(self, a: Table, b: Table) -> Table:
        if not b.vars and b.entries[0] == 1.0:
            return a
        if not a.vars and a.entries[0] == 1.0:
            return b
        variables = a.vars
        if b.vars != variables:
            variables = tuple(sorted({*a.vars, *b.vars}, key=self.rank))
        x, y = a.expand(variables), b.expand(variables)
        r = list(map(mul, x, y))
        low = a.low * b.low
        if low < _MIN_NORMAL and not self.underflow:
            self.underflow = any(z < _MIN_NORMAL
                                 and u != 0.0 and u != 1.0 and v != 0.0 and v != 1.0
                                 for u, v, z in zip(x, y, r))
            low = min(filter(None, r), default=1.0)
        return Table(variables, r, low)

    def exists_project(self, a: Table, x: int) -> Table:
        if x not in a.vars:
            return a
        variables, hi, lo = a.split(x)
        return Table(variables, [h if h >= l else l for h, l in zip(hi, lo)],
                     a.low)

    def rand_project(self, a: Table, x: int, p: float) -> Table:
        if x not in a.vars:
            return a
        variables, hi, lo = a.split(x)
        q = 1.0 - p
        r = [l if h == l else p * h + q * l for h, l in zip(hi, lo)]
        # a nonzero entry is at least its larger term, so at least min(p, q)*low
        low = (min(p, q) if 0.0 < p < 1.0 else 1.0) * a.low
        if low < _MIN_NORMAL and not self.underflow:
            self.underflow = any(h != l and z < _MIN_NORMAL
                                 and (p and h or q and l)
                                 for h, l, z in zip(hi, lo, r))
            low = min(filter(None, r), default=1.0)
        return Table(variables, r, low)

    def evaluate(self, a: Table, assignment: dict[int, bool]) -> float:
        """The entry at `assignment`; a missing variable the table does not
        vary along reads as 0, a missing support variable raises KeyError."""
        index = 0
        for i, v in enumerate(a.vars):
            try:
                b = assignment[v]
            except KeyError:
                if _varies(a.entries, i):
                    raise KeyError(f"assignment is missing support variable "
                                   f"{v}") from None
                b = False
            index = 2 * index + (1 if b else 0)
        return float(a.entries[index])

    def support(self, a: Table) -> frozenset[int]:
        return frozenset(v for i, v in enumerate(a.vars) if _varies(a.entries, i))

    def support_bound(self, a: Table) -> int:
        """The number of variables, an upper bound on the support size."""
        return len(a.vars)

    def value_range(self, a: Table) -> tuple[float, float]:
        """The least and the greatest entry."""
        return float(min(a.entries)), float(max(a.entries))

    def approx_equal(self, a: Table, b: Table, tol: float) -> bool:
        """Pointwise |a - b| <= tol, over the union of their variables."""
        variables = a.vars
        if b.vars != variables:
            variables = tuple(sorted({*a.vars, *b.vars}, key=self.rank))
        x, y = a.expand(variables), b.expand(variables)
        return x == y or all(abs(u - v) <= tol for u, v in zip(x, y))
